//! Workload inputs and ground truth.
//!
//! Every input comes from `city_network(42)` and is simulated with
//! seeds derived from the run's `--seed`, so one seed always yields
//! the same logs. The program under test only ever receives the
//! generated sensor logs; the routes and their exact gradients stay
//! on the benchmark side, where they score accuracy.

use gradest_core::track::GradientTrack;
use gradest_emissions::map::route_fuel_gal;
use gradest_emissions::FuelModel;
use gradest_geo::generate::city_network;
use gradest_geo::{RoadNetwork, Route};
use gradest_sensors::suite::{SensorConfig, SensorLog, SensorSuite};
use gradest_sim::driver::DriverProfile;
use gradest_sim::trip::{simulate_trip, TripConfig};

/// Seed of the fixed city network (161 edges, 161.8 km).
pub const NETWORK_SEED: u64 = 42;
/// Burn-in skipped at the start of every trip before scoring, metres.
pub const BURN_IN_M: f64 = 100.0;
/// Spacing of the accuracy samples, metres.
pub const SCORE_STEP_M: f64 = 25.0;
/// Cruise speed of the fuel comparison (40 km/h), m/s.
pub const FUEL_SPEED_MPS: f64 = 40.0 / 3.6;
/// Lane changes per km on multi-lane roads (the figure-9 drives).
pub const LANE_CHANGE_RATE_PER_KM: f64 = 0.224;

/// The benchmark's fixed city network.
pub fn network() -> RoadNetwork {
    city_network(NETWORK_SEED)
}

/// Derives an independent seed for item `i` of input stream `stream`
/// (splitmix64 finaliser), so streams never share trip seeds.
pub fn derive_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Simulates one drive over `route` and records its sensor log.
pub fn simulate(
    route: &Route,
    seed: u64,
    lane_changes: bool,
    outages: Vec<(f64, f64)>,
) -> SensorLog {
    let trip_cfg = TripConfig {
        driver: DriverProfile {
            lane_change_rate_per_km: if lane_changes { LANE_CHANGE_RATE_PER_KM } else { 0.0 },
            ..Default::default()
        },
        ..Default::default()
    };
    let traj = simulate_trip(route, &trip_cfg, seed);
    let sensors = SensorConfig { gps_outages: outages, ..Default::default() };
    SensorSuite::new(sensors).run(&traj, derive_seed(seed, 1, 0))
}

/// Runs `make(i)` for `i in 0..n` on the calling thread and one helper
/// thread, returning the results in index order.
pub fn par_map<T: Send>(n: usize, make: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let half = n.div_ceil(2);
    let (mut first, second) = std::thread::scope(|scope| {
        let helper = scope.spawn(|| (half..n).map(&make).collect::<Vec<T>>());
        let first: Vec<T> = (0..half).map(&make).collect();
        (first, helper.join().expect("input simulation thread panicked"))
    });
    first.extend(second);
    first
}

/// The single-edge route of edge `edge`, driven from its start node.
pub fn edge_route(net: &RoadNetwork, edge: usize) -> Route {
    Route::new(vec![net.edges()[edge].road.clone()]).expect("a single road is a valid route")
}

/// One simulated single-edge trip per `(edge, variant)`:
/// `pool[edge][variant]`. Stream `stream` keeps pools of different
/// purposes apart.
pub fn edge_pool(
    net: &RoadNetwork,
    seed: u64,
    stream: u64,
    variants: usize,
) -> Vec<Vec<SensorLog>> {
    let edges = net.edge_count();
    let flat = par_map(edges * variants, |k| {
        let route = edge_route(net, k / variants);
        simulate(&route, derive_seed(seed, stream, k as u64), false, Vec::new())
    });
    let mut pool: Vec<Vec<SensorLog>> = (0..edges).map(|_| Vec::with_capacity(variants)).collect();
    for (k, log) in flat.into_iter().enumerate() {
        pool[k / variants].push(log);
    }
    debug_assert!(pool.iter().all(|v| v.len() == variants));
    pool
}

/// Picks `n` cross-town routes whose length lies in
/// `[min_m, max_m]`, between random node pairs drawn from `seed`.
///
/// # Panics
///
/// Panics if the network holds too few such routes.
pub fn city_routes(net: &RoadNetwork, seed: u64, n: usize, min_m: f64, max_m: f64) -> Vec<Route> {
    let nodes = net.node_count() as u64;
    let mut routes = Vec::with_capacity(n);
    let mut draw = 0u64;
    while routes.len() < n {
        assert!(draw < 1000 * n as u64, "too few routes between {min_m} and {max_m} m");
        let a = (derive_seed(seed, 10, draw) % nodes) as usize;
        let b = (derive_seed(seed, 11, draw) % nodes) as usize;
        draw += 1;
        if a == b {
            continue;
        }
        if let Some(route) = net.route_between(a, b, |r| r.length()) {
            if (min_m..=max_m).contains(&route.length()) {
                routes.push(route);
            }
        }
    }
    routes
}

/// Accuracy of estimated gradient profiles against exact truth.
#[derive(Debug, Clone, Default)]
pub struct Accuracy {
    /// |θ̂ − θ| in degrees, every [`SCORE_STEP_M`] past [`BURN_IN_M`].
    pub errors_deg: Vec<f64>,
    /// Per road or route: |fuel(θ̂) − fuel(θ)| / fuel(θ).
    pub fuel_rel_errors: Vec<f64>,
    /// Estimates that were NaN or infinite.
    pub non_finite: usize,
}

impl Accuracy {
    /// Scores one estimated profile (arc position along `route`)
    /// against the route's true gradient. An empty profile scores as
    /// flat road.
    pub fn add(&mut self, route: &Route, track: &GradientTrack) {
        self.non_finite += track.theta.iter().chain(&track.s).filter(|v| !v.is_finite()).count();
        let estimate = |s: f64| track.theta_at(s).unwrap_or(0.0);
        let mut s = BURN_IN_M;
        while s < route.length() {
            self.errors_deg.push((estimate(s) - route.gradient_at(s)).abs().to_degrees());
            s += SCORE_STEP_M;
        }
        let model = FuelModel::default();
        let est = route_fuel_gal(route, &model, FUEL_SPEED_MPS, estimate);
        let truth = route_fuel_gal(route, &model, FUEL_SPEED_MPS, |s| route.gradient_at(s));
        self.fuel_rel_errors.push((est - truth).abs() / truth);
    }

    /// Median gradient error, degrees.
    pub fn grade_err_p50_deg(&self) -> f64 {
        self.grade_quantile(0.5)
    }

    /// 95th-percentile gradient error, degrees.
    pub fn grade_err_p95_deg(&self) -> f64 {
        self.grade_quantile(0.95)
    }

    fn grade_quantile(&self, q: f64) -> f64 {
        let mut sorted = self.errors_deg.clone();
        sorted.sort_by(f64::total_cmp);
        crate::stats::quantile_sorted(&sorted, q).unwrap_or(f64::NAN)
    }

    /// Mean per-road (or per-route) relative fuel error, percent.
    pub fn fuel_err_pct(&self) -> f64 {
        100.0 * self.fuel_rel_errors.iter().sum::<f64>() / self.fuel_rel_errors.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradest_geo::generate::straight_road;

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        assert_eq!(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
        assert_ne!(derive_seed(1, 2, 3), derive_seed(1, 3, 2));
        assert_ne!(derive_seed(1, 2, 3), derive_seed(2, 2, 3));
    }

    #[test]
    fn par_map_keeps_order() {
        assert_eq!(par_map(5, |i| i * 10), vec![0, 10, 20, 30, 40]);
        assert!(par_map(0, |i| i).is_empty());
    }

    #[test]
    fn exact_profile_scores_zero_error() {
        let road = straight_road(1000.0, 2.0);
        let route = Route::new(vec![road]).unwrap();
        let mut track = GradientTrack::new("truth");
        let mut s = 0.0;
        while s <= 1000.0 {
            track.push(s, route.gradient_at(s), 1e-4);
            s += 5.0;
        }
        let mut acc = Accuracy::default();
        acc.add(&route, &track);
        assert_eq!(acc.errors_deg.len(), 36);
        assert!(acc.grade_err_p95_deg() < 1e-9);
        assert!(acc.fuel_err_pct() < 1e-9);
        assert_eq!(acc.non_finite, 0);
        // A flat guess on a 2° climb is off by 2° everywhere.
        let mut flat = Accuracy::default();
        flat.add(&route, &GradientTrack::new("empty"));
        assert!((flat.grade_err_p50_deg() - 2.0).abs() < 1e-9);
        assert!(flat.fuel_err_pct() > 1.0);
    }
}
