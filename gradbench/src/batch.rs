//! `batch_city`: the city-map batch job. Multi-km cross-town trips,
//! each with a 30 s GPS outage, go through
//! `FleetEngine::process_batch_network` (free-space matching against
//! the whole network, then estimation), and each route's fuel is
//! integrated from the estimate at 40 km/h.

use crate::inputs::{
    city_routes, derive_seed, network, par_map, simulate, Accuracy, FUEL_SPEED_MPS,
};
use crate::report::{peak_rss_mb, Report};
use crate::serve::{estimator, stage_layers};
use crate::stats::{highest_backed_tail, median, quantile_sorted, trace_overhead_pct, SpanLog};
use gradest_core::fleet::FleetEngine;
use gradest_core::pipeline::{EstimatorScratch, GradientEstimate};
use gradest_emissions::map::route_fuel_gal;
use gradest_emissions::FuelModel;
use gradest_geo::{NetworkIndex, RoadNetwork, Route};
use gradest_obs::StageNanos;
use gradest_sensors::suite::SensorLog;
use gradest_sensors::NetworkMatcher;
use std::time::{Duration, Instant};

/// Distinct trips in the batch pool.
pub const ROUTES: usize = 192;
/// Shortest and longest pooled route, metres.
pub const MIN_ROUTE_M: f64 = 4000.0;
/// See [`MIN_ROUTE_M`].
pub const MAX_ROUTE_M: f64 = 6000.0;
/// Fleet workers.
pub const WORKERS: usize = 2;
/// Trips per batch job: two per worker. Job `j` takes pooled trips
/// `j..j + PER_JOB` (wrapping), so every trip runs in `PER_JOB`
/// different jobs and no job shape repeats within a cycle.
pub const PER_JOB: usize = 2 * WORKERS;
/// The GPS outage every trip carries, seconds into the trip.
pub const OUTAGE: (f64, f64) = (90.0, 120.0);
/// Index builds timed for `setup_s`.
pub const SETUP_REPS: usize = 15;
/// Trips replayed with and without spans for the overhead row.
const OVERHEAD_TRIPS: usize = 6;
/// Input stream of the trip simulations.
const STREAM: u64 = 300;

/// Fuel (gallons) to drive `route` at the fuel cruise speed under the
/// gradient estimate `est`.
fn estimated_fuel(route: &Route, est: &GradientEstimate) -> f64 {
    route_fuel_gal(route, &FuelModel::default(), FUEL_SPEED_MPS, |s| {
        est.fused.theta_at(s).unwrap_or(0.0)
    })
}

/// What the serial replay of the pool observed per trip.
#[derive(Default)]
struct Replayed {
    estimates: Vec<GradientEstimate>,
    recovered: Vec<bool>,
    matched_fixes: usize,
    valid_fixes: usize,
    stages: Vec<StageNanos>,
}

/// Replays every trip serially on the benchmark thread — match, then
/// estimate on the recovered route, then fuel — recording spans into
/// `spans`:
///
/// ```text
/// core.fleet.trip ─┬ sensors.alignment.match_trip   NetworkMatcher::match_trip
///                  ├ core.pipeline.estimate          GradientEstimator::estimate_into
///                  └ emissions.route_fuel            route_fuel_gal
/// ```
fn replay(
    net: &RoadNetwork,
    index: &NetworkIndex,
    routes: &[Route],
    logs: &[SensorLog],
    spans: &mut SpanLog,
) -> (Duration, Replayed) {
    let estimator = estimator();
    let mut matcher = NetworkMatcher::new(net, index);
    let mut scratch = EstimatorScratch::new();
    let mut out = Replayed::default();
    let t0 = Instant::now();
    for (i, (route, log)) in routes.iter().zip(logs).enumerate() {
        let op = i as u32;
        let root = spans.open("core.fleet.trip", None, op);
        let s = spans.open("sensors.alignment.match_trip", Some(root), op);
        let matched = matcher.match_trip(&log.gps);
        spans.close(s);
        let s = spans.open("core.pipeline.estimate", Some(root), op);
        let mut est = GradientEstimate::default();
        estimator.estimate_into(log, matched.route.as_ref(), &mut scratch, &mut est);
        spans.close(s);
        let s = spans.open("emissions.route_fuel", Some(root), op);
        std::hint::black_box(estimated_fuel(route, &est));
        spans.close(s);
        spans.close(root);
        out.estimates.push(est);
        out.recovered.push(matched.route.is_some());
        out.matched_fixes += matched.matched_fixes;
        out.valid_fixes += log.gps.iter().filter(|f| f.valid).count();
        out.stages.push(scratch.stages());
    }
    (t0.elapsed(), out)
}

/// Runs the workload for `seconds` with inputs from `seed`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let net = network();
    let routes = city_routes(&net, seed, ROUTES, MIN_ROUTE_M, MAX_ROUTE_M);
    let mut logs = par_map(ROUTES, |i| {
        simulate(&routes[i], derive_seed(seed, STREAM, i as u64), true, vec![OUTAGE])
    });
    // Repeat the pool's head after its tail, so every job's trips are
    // one contiguous slice.
    logs.extend_from_within(..PER_JOB - 1);

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut index = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        index = Some(NetworkIndex::build(&net));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let index = index.expect("at least one set-up");
    let engine = FleetEngine::new(estimator(), WORKERS);

    let jobs = ROUTES;
    let members = |job: usize| (job..job + PER_JOB).map(|i| i % ROUTES);
    let job_km: Vec<f64> =
        (0..jobs).map(|j| members(j).map(|i| routes[i].length() / 1e3).sum()).collect();
    let mut first: Vec<Option<GradientEstimate>> = vec![None; ROUTES];
    let mut walls: Vec<f64> = Vec::new();
    let mut runs = vec![0u64; ROUTES];
    let (mut km, mut wall_s) = (0.0, 0.0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut j = 0usize;
    while j < jobs || Instant::now() < deadline {
        let job = j % jobs;
        let t0 = Instant::now();
        let ests = engine.process_batch_network(&logs[job..job + PER_JOB], &net, &index);
        let fuel: f64 =
            ests.iter().zip(members(job)).map(|(est, i)| estimated_fuel(&routes[i], est)).sum();
        std::hint::black_box(fuel);
        let wall = t0.elapsed().as_secs_f64();
        walls.push(wall * 1e3);
        wall_s += wall;
        km += job_km[job];
        for (est, i) in ests.into_iter().zip(members(job)) {
            runs[i] += 1;
            first[i].get_or_insert(est);
        }
        j += 1;
    }
    let first: Vec<GradientEstimate> =
        first.into_iter().map(|e| e.expect("every trip ran")).collect();

    let (_, serial) = replay(&net, &index, &routes, &logs[..ROUTES], &mut SpanLog::disabled());
    report.outcomes.attempted = runs.iter().sum();
    report.outcomes.unmatched =
        (0..ROUTES).filter(|&i| !serial.recovered[i]).map(|i| runs[i]).sum();
    report.check(
        "every trip's route recovered",
        serial.recovered.iter().all(|&r| r),
        format!(
            "{} of {ROUTES} trips matched to a route",
            serial.recovered.iter().filter(|&&r| r).count()
        ),
    );
    report.check(
        "batch bit-identical to serial replay",
        first == serial.estimates,
        format!("{ROUTES} trips compared"),
    );
    let mut acc = Accuracy::default();
    for (route, est) in routes.iter().zip(&first) {
        acc.add(route, &est.fused);
    }
    report.check(
        "every estimate finite",
        acc.non_finite == 0,
        format!("{} non-finite values, {} samples scored", acc.non_finite, acc.errors_deg.len()),
    );

    walls.sort_by(f64::total_cmp);
    let q = |q: f64| quantile_sorted(&walls, q).unwrap_or(f64::NAN);
    let km_per_s = km / wall_s;
    let setup_s = median(&setup).unwrap_or(f64::NAN);
    report.end_to_end = vec![
        ("setup_s", setup_s),
        ("latency_p50_ms", q(0.5)),
        ("latency_p90_ms", q(0.9)),
        ("max_ops_per_s", km_per_s),
        ("grade_err_p50_deg", acc.grade_err_p50_deg()),
        ("grade_err_p95_deg", acc.grade_err_p95_deg()),
        ("fuel_err_pct", acc.fuel_err_pct()),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    report.row("setup_s", "s", setup_s);
    report.row("batch_job_p50_ms", "ms", q(0.5));
    report.row("batch_job_p90_ms", "ms", q(0.9));
    report.row("batch_jobs", "count", walls.len() as f64);
    if let Some(t) = highest_backed_tail(walls.len()) {
        report.row(&format!("batch_job_p{}_ms (highest backed tail)", t * 100.0), "ms", q(t));
    }
    report.row("batch_km_per_s", "km/s", km_per_s);
    report.row("pool_km", "km", routes.iter().map(|r| r.length() / 1e3).sum());
    report.row("grade_err_p50_deg", "deg", acc.grade_err_p50_deg());
    report.row("grade_err_p95_deg", "deg", acc.grade_err_p95_deg());
    report.row("fuel_err_pct", "%", acc.fuel_err_pct());
    report.row("fail_ratio", "ratio", report.outcomes.fail_ratio());
    report.row("peak_rss_mb", "MB", peak_rss_mb());

    if traced {
        let head = OVERHEAD_TRIPS.min(ROUTES);
        let overhead = trace_overhead_pct(3, |spans| {
            replay(&net, &index, &routes[..head], &logs[..head], spans).0
        });
        let mut spans = SpanLog::new();
        replay(&net, &index, &routes, &logs[..ROUTES], &mut spans);
        let (matches, estimates) = (
            spans.durations("sensors.alignment.match_trip"),
            spans.durations("core.pipeline.estimate"),
        );
        let busy: f64 = (0..ROUTES).map(|i| (matches[i] + estimates[i]) * runs[i] as f64).sum();
        let p50 = |name: &str| median(&spans.durations(name)).unwrap_or(0.0);
        let per_sample: Vec<f64> =
            estimates.iter().zip(&logs).map(|(ns, log)| ns / log.imu.len() as f64).collect();
        report.per_layer = vec![
            ("core.pipeline.estimate_us", p50("core.pipeline.estimate") / 1e3),
            ("core.pipeline.ns_per_imu_sample", median(&per_sample).unwrap_or(0.0)),
            ("geo.index.build_ms", setup_s * 1e3),
            ("sensors.alignment.match_trip_ms", p50("sensors.alignment.match_trip") / 1e6),
            (
                "sensors.alignment.matched_fix_ratio",
                serial.matched_fixes as f64 / serial.valid_fixes.max(1) as f64,
            ),
            (
                "sensors.alignment.route_recovered_ratio",
                serial.recovered.iter().filter(|&&r| r).count() as f64 / ROUTES as f64,
            ),
            ("core.fleet.busy_ratio", busy / (WORKERS as f64 * wall_s * 1e9)),
            ("emissions.route_fuel_us", p50("emissions.route_fuel") / 1e3),
            ("bench.trace_overhead_pct", overhead),
        ];
        report.per_layer.extend(stage_layers(&serial.stages));
        report.spans = Some(spans);
    }
    report
}
