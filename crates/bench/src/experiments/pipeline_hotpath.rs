//! Single-trip hot-path benchmark: uniform-grid LOWESS + warm
//! [`EstimatorScratch`] vs the pre-optimization shape of the pipeline.
//!
//! Not a paper artifact — an engineering benchmark for the per-trip
//! kernels everything else (fleet batches, the cloud experiments) sits
//! on. Emits `BENCH_pipeline.json` with:
//!
//! * baseline latency — cold [`GradientEstimator::estimate`] per trip
//!   with the generic LOWESS path forced (the allocation and smoothing
//!   behaviour before this optimization round);
//! * optimized latency — warm-scratch
//!   [`GradientEstimator::estimate_into`] with the uniform-grid fast
//!   path, plus its per-stage wall-clock split;
//! * correctness gates — fast-vs-generic fused-track divergence (must be
//!   < 1e-12) and warm-vs-cold bit-identity on the generic path;
//! * warm-path allocations per trip, when the `gradest-experiments`
//!   binary's counting allocator is installed (`None` elsewhere, e.g.
//!   under `cargo test`).

use crate::perfbench::{alloc_counter, run_bench, BenchReport};
use crate::report::{print_table, save_json};
use crate::scenarios::red_road_drive;
use gradest_core::fleet::FleetEngine;
use gradest_core::pipeline::{
    EstimatorConfig, EstimatorScratch, GradientEstimate, GradientEstimator, StageNanos,
};
use gradest_geo::generate::straight_road;
use gradest_geo::Route;
use gradest_obs::{RunRecorder, RunReport, Tee, TraceRing};
use gradest_sensors::suite::{SensorConfig, SensorLog, SensorSuite};
use gradest_sim::trip::{simulate_trip, TripConfig};
use serde::{Deserialize, Serialize};

/// Pipeline hot-path benchmark result (`BENCH_pipeline.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineHotpathBench {
    /// IMU samples in the benchmark trip.
    pub imu_samples: usize,
    /// Cold-estimator, generic-LOWESS latency (pre-change baseline).
    pub baseline_cold_generic: BenchReport,
    /// Warm-scratch, fast-LOWESS latency (the optimized hot path).
    pub optimized_warm_fast: BenchReport,
    /// Baseline median latency over optimized median latency.
    pub speedup: f64,
    /// Optimized trips per second (single worker).
    pub trips_per_sec: f64,
    /// Per-stage wall-clock split of one optimized warm trip.
    pub stage_ns: StageNanos,
    /// Max |Δθ| between the fast-path and generic-path fused tracks.
    pub fast_vs_generic_max_abs_diff: f64,
    /// Whether warm-scratch estimation with the fast path disabled is
    /// bit-identical to the cold generic reference.
    pub generic_bit_identical: bool,
    /// Heap allocations during one warm-path trip; `None` when no
    /// counting allocator is installed in this process.
    pub allocs_per_trip_warm: Option<u64>,
    /// Whether the [`RunRecorder`]-instrumented warm path reproduced
    /// the plain warm-path estimate bit for bit.
    pub recorded_bit_identical: bool,
    /// Heap allocations during one warm trip with a live recorder —
    /// the recording sinks are allocation-free, so this must match
    /// [`Self::allocs_per_trip_warm`]. `None` without a counting
    /// allocator.
    pub allocs_per_trip_warm_recorded: Option<u64>,
    /// Observability report from the recorded warm trip(s): span tree,
    /// counters, and histograms. `bench-gate` reads the per-stage span
    /// timings out of this field when diffing against the committed
    /// baseline.
    pub obs: RunReport,
    /// Whether the warm path with a live flight-recorder ring teed in
    /// reproduced the plain warm-path estimate bit for bit.
    pub traced_bit_identical: bool,
    /// Heap allocations during one warm trip with metrics *and* the
    /// trace ring live — the ring's buffer is pre-sized, so this must
    /// match [`Self::allocs_per_trip_warm`]. `None` without a counting
    /// allocator.
    pub allocs_per_trip_warm_traced: Option<u64>,
    /// Events one warm trip pushes into an amply-sized trace ring.
    pub trace_events_per_trip: u64,
    /// Events a deliberately tiny (capacity 8) ring dropped while the
    /// same trip ran against it — overflow must shed load by counting,
    /// not by growing.
    pub trace_overflow_dropped: u64,
}

/// Runs the hot-path benchmark over the standard red-road trip.
///
/// Both configurations run the tracks serially: this benchmark isolates
/// the per-trip kernels, and the fleet engine parallelises across trips,
/// not within them. (Thread spawns would also allocate, clouding the
/// warm-path allocation gate.)
pub fn run(seed: u64, samples: usize) -> PipelineHotpathBench {
    // The warm-path module set is no longer eyeball-synchronised: the
    // lint call graph derives which modules `estimate_into` actually
    // reaches and cross-checks that against both the pipeline's
    // declared `WARM_PATH_MODULES` const and the lint's alloc-gated
    // list. Any drift fails the smoke gate before timing happens.
    // (Source scan of the checked-out workspace: skipped gracefully by
    // the drift check if the sources are not present at runtime.)
    let repo_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (sources, unreadable) = gradest_lint::workspace_sources(&repo_root);
    assert!(unreadable.is_empty(), "unreadable workspace sources: {unreadable:?}");
    let graph = gradest_lint::graph::Graph::build(sources);
    let warm: Vec<String> =
        gradest_lint::WARM_ALLOC_GATED_MODULES.iter().map(|m| m.to_string()).collect();
    let drift = gradest_lint::warm_drift_findings(&graph, &warm);
    assert!(
        drift.is_empty(),
        "warm-path module drift between the call graph, pipeline::WARM_PATH_MODULES, \
         and gradest_lint::WARM_ALLOC_GATED_MODULES:\n{}",
        drift
            .iter()
            .map(|(p, d)| format!("  {}:{}: {}", p.display(), d.line, d.msg))
            .collect::<Vec<_>>()
            .join("\n")
    );

    let drive = red_road_drive(seed);
    let log = &drive.log;
    let map = Some(&drive.route);
    let fast = GradientEstimator::new(EstimatorConfig::default());
    let generic = GradientEstimator::new(EstimatorConfig {
        force_generic_lowess: true,
        ..Default::default()
    });

    // Correctness gates before timing anything.
    let generic_est = generic.estimate(log, map);
    let fast_est = fast.estimate(log, map);
    let fast_vs_generic_max_abs_diff = fast_est
        .fused
        .theta
        .iter()
        .zip(&generic_est.fused.theta)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    let mut scratch = EstimatorScratch::new();
    let mut out = GradientEstimate::default();
    generic.estimate_into(log, map, &mut scratch, &mut out);
    generic.estimate_into(log, map, &mut scratch, &mut out);
    let generic_bit_identical = out == generic_est;

    let baseline_cold_generic = run_bench("pipeline_cold_generic_lowess", samples, 1, || {
        let est = generic.estimate(log, map);
        assert!(!est.fused.is_empty());
    });

    // Warm the scratch and output once, then time steady-state trips.
    fast.estimate_into(log, map, &mut scratch, &mut out);
    let optimized_warm_fast = run_bench("pipeline_warm_fast_lowess", samples, 1, || {
        fast.estimate_into(log, map, &mut scratch, &mut out);
        assert!(!out.fused.is_empty());
    });
    let stage_ns = scratch.stages();

    let allocs_per_trip_warm = if alloc_counter::is_installed() {
        let before = alloc_counter::allocations();
        fast.estimate_into(log, map, &mut scratch, &mut out);
        Some(alloc_counter::allocations() - before)
    } else {
        None
    };

    // Recorded pass: the same warm trip with a live RunRecorder. The
    // recorder's sinks are atomics and fixed histogram cells, so the
    // instrumented path must stay bit-identical and allocation-free.
    let rec = RunRecorder::new();
    let mut rec_out = GradientEstimate::default();
    fast.estimate_into_recorded(log, map, &mut scratch, &mut rec_out, &rec);
    let allocs_per_trip_warm_recorded = if alloc_counter::is_installed() {
        let before = alloc_counter::allocations();
        fast.estimate_into_recorded(log, map, &mut scratch, &mut rec_out, &rec);
        Some(alloc_counter::allocations() - before)
    } else {
        None
    };
    let recorded_bit_identical = rec_out == out;
    let obs = rec.report();

    // Traced pass: metrics plus a live flight-recorder ring. The ring's
    // buffer is allocated up front, so the warm instrumented trip must
    // still not touch the heap, and the estimate stays bit-identical.
    let ring = TraceRing::with_capacity(4096);
    let traced = Tee::new(&rec, &ring);
    let mut traced_out = GradientEstimate::default();
    fast.estimate_into_recorded(log, map, &mut scratch, &mut traced_out, &traced);
    let events_warmup = ring.len() as u64;
    let allocs_per_trip_warm_traced = if alloc_counter::is_installed() {
        let before = alloc_counter::allocations();
        fast.estimate_into_recorded(log, map, &mut scratch, &mut traced_out, &traced);
        Some(alloc_counter::allocations() - before)
    } else {
        fast.estimate_into_recorded(log, map, &mut scratch, &mut traced_out, &traced);
        None
    };
    let traced_bit_identical = traced_out == out;
    let trace_events_per_trip = ring.len() as u64 - events_warmup;
    assert_eq!(ring.dropped(), 0, "amply-sized ring must not drop events");

    // Overflow pass: a ring too small for even one trip must shed the
    // excess by bumping its drop counter — never by reallocating.
    let tiny = TraceRing::with_capacity(8);
    let tee_tiny = Tee::new(&rec, &tiny);
    fast.estimate_into_recorded(log, map, &mut scratch, &mut traced_out, &tee_tiny);
    let overflow_allocs = if alloc_counter::is_installed() {
        let before = alloc_counter::allocations();
        fast.estimate_into_recorded(log, map, &mut scratch, &mut traced_out, &tee_tiny);
        Some(alloc_counter::allocations() - before)
    } else {
        None
    };
    assert_eq!(
        overflow_allocs.unwrap_or(0),
        0,
        "overflowing trace ring allocated instead of dropping"
    );
    let trace_overflow_dropped = tiny.dropped();
    assert!(tiny.len() <= 8, "tiny ring grew past its capacity");

    let speedup =
        baseline_cold_generic.median_ns_per_op / optimized_warm_fast.median_ns_per_op.max(1.0);
    PipelineHotpathBench {
        imu_samples: log.imu.len(),
        trips_per_sec: optimized_warm_fast.ops_per_sec,
        baseline_cold_generic,
        optimized_warm_fast,
        speedup,
        stage_ns,
        fast_vs_generic_max_abs_diff,
        generic_bit_identical,
        allocs_per_trip_warm,
        recorded_bit_identical,
        allocs_per_trip_warm_recorded,
        obs,
        traced_bit_identical,
        allocs_per_trip_warm_traced,
        trace_events_per_trip,
        trace_overflow_dropped,
    }
}

/// Trip lengths, in metres, of the warm-engine allocation probe.
pub const FLEET_PROBE_LENGTHS_M: [f64; 2] = [1000.0, 4000.0];

/// Heap allocations per trip (averaged over a 4-trip batch) of a warm
/// [`FleetEngine::process_batch`], one entry per
/// [`FLEET_PROBE_LENGTHS_M`] trip length; `None` when no counting
/// allocator is installed in this process.
///
/// Each length gets its own 1-worker engine and a batch of four trips
/// simulated on a straight road; the engine runs the batch once to warm
/// its scratch pool, then the second call over the same logs is
/// counted. With the scratch kept across calls, the only allocations
/// left are the returned estimates (whose buffers are sized up front)
/// and the channel and thread set-up of the call, so the count per trip
/// is the same for every trip length. A worker starting from a cold
/// scratch would instead regrow the trip's working set by doubling,
/// which costs more allocations the longer the trip. One worker keeps
/// the count deterministic: it sees every trip of the warm-up call, so
/// its scratch is already as large as the largest of them.
pub fn fleet_warm_allocs_per_trip(seed: u64) -> Option<Vec<f64>> {
    if !alloc_counter::is_installed() {
        return None;
    }
    const TRIPS: u64 = 4;
    let estimator = GradientEstimator::new(EstimatorConfig::default());
    let per_trip = FLEET_PROBE_LENGTHS_M
        .iter()
        .map(|&length_m| {
            let route = Route::new(vec![straight_road(length_m, 1.5)]).expect("one-road route");
            let logs: Vec<SensorLog> = (0..TRIPS)
                .map(|k| {
                    let traj = simulate_trip(&route, &TripConfig::default(), seed + k);
                    SensorSuite::new(SensorConfig::default()).run(&traj, seed + k)
                })
                .collect();
            let engine = FleetEngine::new(estimator.clone(), 1);
            let warm = engine.process_batch(&logs, Some(&route));
            let before = alloc_counter::allocations();
            let ests = engine.process_batch(&logs, Some(&route));
            let allocs = alloc_counter::allocations() - before;
            assert_eq!(ests, warm, "warm engine changed the estimates");
            allocs as f64 / TRIPS as f64
        })
        .collect();
    Some(per_trip)
}

/// Prints the timing table and writes `BENCH_pipeline.json`.
pub fn print_report(r: &PipelineHotpathBench) {
    let rows: Vec<Vec<String>> = [&r.baseline_cold_generic, &r.optimized_warm_fast]
        .iter()
        .map(|b| {
            vec![
                b.name.clone(),
                format!("{:.2}", b.median_ns_per_op / 1e6),
                format!("{:.2}", b.ops_per_sec),
            ]
        })
        .collect();
    let allocs = match r.allocs_per_trip_warm {
        Some(n) => n.to_string(),
        None => "not measured".to_string(),
    };
    print_table(
        &format!(
            "Pipeline hot path — {} IMU samples: {:.2}x, max |Δθ| {:.2e}, \
             generic bit-identical={}, warm allocs/trip={}",
            r.imu_samples,
            r.speedup,
            r.fast_vs_generic_max_abs_diff,
            r.generic_bit_identical,
            allocs
        ),
        &["bench", "ms/trip", "trips/s"],
        &rows,
    );
    let s = &r.stage_ns;
    print_table(
        "Warm-trip stage split",
        &["stage", "ms"],
        &[
            vec!["steering (columnar + LOWESS)".into(), format!("{:.3}", s.steering as f64 / 1e6)],
            vec!["lane-change detection".into(), format!("{:.3}", s.detection as f64 / 1e6)],
            vec!["EKF tracks (+RTS)".into(), format!("{:.3}", s.tracks as f64 / 1e6)],
            vec!["resample + fusion".into(), format!("{:.3}", s.fusion as f64 / 1e6)],
        ],
    );
    println!(
        "\n== Recorded warm trip (RunRecorder) — bit-identical={}, allocs/trip={} ==\n{}",
        r.recorded_bit_identical,
        match r.allocs_per_trip_warm_recorded {
            Some(n) => n.to_string(),
            None => "not measured".to_string(),
        },
        r.obs.render()
    );
    println!(
        "== Traced warm trip (Tee: RunRecorder + TraceRing) — bit-identical={}, \
         allocs/trip={}, events/trip={}, tiny-ring dropped={} ==",
        r.traced_bit_identical,
        match r.allocs_per_trip_warm_traced {
            Some(n) => n.to_string(),
            None => "not measured".to_string(),
        },
        r.trace_events_per_trip,
        r.trace_overflow_dropped,
    );
    save_json("BENCH_pipeline", r);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotpath_bench_runs_and_gates_hold() {
        let r = run(400, 1);
        assert!(r.imu_samples > 1000);
        assert!(
            r.fast_vs_generic_max_abs_diff < 1e-12,
            "fast path diverged: {}",
            r.fast_vs_generic_max_abs_diff
        );
        assert!(r.generic_bit_identical, "warm generic path differs from cold reference");
        assert!(r.speedup > 0.0);
        // No counting allocator under `cargo test`.
        assert_eq!(r.allocs_per_trip_warm, None);
        assert_eq!(r.allocs_per_trip_warm_recorded, None);
        assert!(r.recorded_bit_identical, "recorded warm path diverged from plain warm path");
        // One recorded trip under `cargo test` (the alloc-measured
        // second trip only happens with the counting allocator).
        assert_eq!(r.obs.counter("trips-processed"), Some(1));
        for span in ["trip", "steering", "detection", "tracks", "fusion"] {
            assert!(r.obs.span(span).is_some(), "missing span {span}");
        }
        assert!(r.traced_bit_identical, "traced warm path diverged from plain warm path");
        assert_eq!(r.allocs_per_trip_warm_traced, None);
        // Every trip emits at least trip-start/trip-end plus the
        // per-track span-end events.
        assert!(r.trace_events_per_trip >= 2, "trace ring saw {} events", r.trace_events_per_trip);
        assert!(r.trace_overflow_dropped > 0, "capacity-8 ring should have dropped events");
    }

    #[test]
    fn bench_json_round_trips_with_obs_report() {
        let r = run(401, 1);
        let json = serde_json::to_string_pretty(&r).expect("serialize");
        let back: PipelineHotpathBench = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, r, "BENCH_pipeline.json does not round-trip");
    }
}
