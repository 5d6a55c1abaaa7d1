//! `serve_ingest`: open-loop uploads of 1 km single-edge trips at a
//! fixed rate over two connections, then a closed-loop saturation
//! phase on the same connections.

use crate::inputs::{edge_pool, network, Accuracy};
use crate::report::{peak_rss_mb, Report};
use crate::serve::{
    connect, drain_check, fresh_cloud, generator_late_p90_ms, generator_verdict, index_build_ms,
    latencies_ms, latency_p50_p90_ms, owned_edges, pool_estimates, reference_tile, score_tile,
    start_server, upload_layers, ConnLog, Replay, ReplayOp, Schedule, Sent,
};
use crate::stats::{
    highest_backed_tail, median, quantile_sorted, trace_overhead_pct, windowed_rate, SpanLog,
};
use gradest_geo::NetworkIndex;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Offered upload rate of the open-loop phase, both connections
/// together. About a third of the closed-loop capacity on a 2-core
/// host, so the backlog stays bounded.
pub const RATE_PER_S: f64 = 200.0;
/// Share of the run spent in the open-loop phase; the rest saturates.
pub const OPEN_SHARE: f64 = 0.6;
/// Distinct simulated trips per edge.
pub const VARIANTS: usize = 2;
/// Window of the closed-loop rate samples.
pub const RATE_WINDOW: Duration = Duration::from_millis(250);
/// Untimed uploads per connection before the schedule starts.
pub const WARMUP: usize = 4;
/// Server start-ups timed for `setup_s`.
pub const SETUP_REPS: usize = 25;
/// Replayed frames timed with and without spans for the overhead row.
const OVERHEAD_OPS: usize = 200;
/// Input stream of the upload pool.
const STREAM: u64 = 100;

/// What one connection thread hands back.
struct ConnResult {
    log: ConnLog,
    /// Full-city tile after the open-loop phase (connection 0 only).
    open_tile: Option<Vec<u8>>,
    /// Full-city tile after the closed-loop phase (connection 0 only).
    final_tile: Option<Vec<u8>>,
    closed_start: Instant,
}

/// Runs the workload for `seconds` with inputs from `seed`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let net = network();
    let pool = edge_pool(&net, seed, STREAM, VARIANTS);
    let index = NetworkIndex::build(&net);
    let bounds = index.bounds();

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let fresh = start_server(&net);
        setup.push(t0.elapsed().as_secs_f64());
        if let Some(old) = server.replace(fresh) {
            let (clean, detail) = drain_check(&old.shutdown());
            report.check("idle server drains cleanly", clean, detail);
        }
    }
    let server = server.expect("at least one set-up");

    let owned = [owned_edges(&net, 0), owned_edges(&net, 1)];
    let open_per_conn = (seconds * OPEN_SHARE * RATE_PER_S / 2.0).floor() as u64;
    let closed_for = Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE));
    let interval = Duration::from_secs_f64(2.0 / RATE_PER_S);
    let barrier = Barrier::new(2);
    let start_at: Mutex<Option<Instant>> = Mutex::new(None);

    let conn_thread = |c: usize| -> ConnResult {
        let mut client = connect(&server);
        let mut log = ConnLog::default();
        let mine = &owned[c];
        let mut k = 0usize;
        let mut next = || {
            let sent: Sent = (mine[k % mine.len()], (k / mine.len()) % VARIANTS);
            k += 1;
            sent
        };
        for _ in 0..WARMUP {
            let sent = next();
            log.upload(&mut client, sent, &pool[sent.0][sent.1]);
        }
        barrier.wait();
        if c == 0 {
            *start_at.lock().expect("start lock") =
                Some(Instant::now() + Duration::from_millis(20));
        }
        barrier.wait();
        let start = start_at.lock().expect("start lock").expect("start set by connection 0");
        let schedule = Schedule {
            start,
            offset: interval.mul_f64(c as f64 / 2.0),
            interval,
            count: open_per_conn,
        };
        log.open_loop(
            &schedule,
            |_, _| {},
            |log, _| {
                let sent = next();
                log.upload(&mut client, sent, &pool[sent.0][sent.1]);
            },
        );
        barrier.wait();
        let open_tile = if c == 0 { log.tile(&mut client, &bounds) } else { None };
        barrier.wait();
        let closed_start = Instant::now();
        log.closed_loop(closed_start + closed_for, |log| {
            let sent = next();
            log.upload(&mut client, sent, &pool[sent.0][sent.1])
        });
        barrier.wait();
        let final_tile = if c == 0 { log.tile(&mut client, &bounds) } else { None };
        ConnResult { log, open_tile, final_tile, closed_start }
    };
    let (r0, r1) = std::thread::scope(|scope| {
        let second = scope.spawn(|| conn_thread(1));
        let first = conn_thread(0);
        (first, second.join().expect("connection thread panicked"))
    });
    let drained = server.shutdown();
    let (clean, detail) = drain_check(&drained);
    report.check("server drains cleanly", clean, detail);

    let conns = [&r0.log, &r1.log];
    for c in conns {
        report.outcomes.merge(&c.outcomes);
    }
    report.check(
        "every upload acked for its own road",
        report.outcomes.failed() == 0,
        format!("{} of {} uploads failed", report.outcomes.failed(), report.outcomes.attempted),
    );
    report.invalid = generator_verdict(&[(&r0.log, interval), (&r1.log, interval)]);

    // Reference maps: each connection's acknowledged sequence fused into
    // a fresh aggregator. Connections own disjoint roads, so this fixes
    // every road's fusion order exactly as the server saw it.
    let fused = pool_estimates(&pool);
    let reference = |upto: usize| {
        let cloud = fresh_cloud();
        for c in conns {
            for &(edge, variant) in c.acked.iter().take(upto) {
                cloud.upload(edge as u64, &fused[edge][variant]);
            }
        }
        reference_tile(&index, &cloud)
    };
    let open_acked = WARMUP + open_per_conn as usize;
    let open_tile = r0.open_tile.unwrap_or_default();
    let final_tile = r0.final_tile.unwrap_or_default();
    report.check(
        "open-phase tile equals reference",
        !open_tile.is_empty() && open_tile == reference(open_acked),
        format!("{} bytes", open_tile.len()),
    );
    report.check(
        "final tile equals reference",
        !final_tile.is_empty() && final_tile == reference(usize::MAX),
        format!("{} bytes", final_tile.len()),
    );
    let mut acc = Accuracy::default();
    let scored = score_tile(&net, &open_tile, &mut acc);
    report.check(
        "served map scored, all values finite",
        scored.is_ok() && acc.non_finite == 0,
        match &scored {
            Ok(roads) => format!("{roads} roads, {} non-finite values", acc.non_finite),
            Err(e) => e.clone(),
        },
    );

    let start = start_at.into_inner().expect("start lock").expect("start set by connection 0");
    let (p50, p90) = latency_p50_p90_ms(&conns, start);
    let lat = latencies_ms(&conns);
    let closed_start = r0.closed_start.min(r1.closed_start);
    let done: Vec<Instant> =
        r0.log.closed_done.iter().chain(&r1.log.closed_done).copied().collect();
    let tps = windowed_rate(&done, closed_start, closed_start + closed_for, RATE_WINDOW)
        .unwrap_or(f64::NAN);
    let setup_s = median(&setup).unwrap_or(f64::NAN);
    let late_p90 = generator_late_p90_ms(&conns);

    report.end_to_end = vec![
        ("setup_s", setup_s),
        ("latency_p50_ms", p50),
        ("latency_p90_ms", p90),
        ("max_ops_per_s", tps),
        ("grade_err_p50_deg", acc.grade_err_p50_deg()),
        ("grade_err_p95_deg", acc.grade_err_p95_deg()),
        ("fuel_err_pct", acc.fuel_err_pct()),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    report.row("setup_s", "s", setup_s);
    report.row("upload_p50_ms (median of 1 s windows)", "ms", p50);
    report.row("upload_p90_ms (median of 1 s windows)", "ms", p90);
    report.row("upload_samples", "count", lat.len() as f64);
    for q in [0.5, 0.9].into_iter().chain(highest_backed_tail(lat.len())) {
        report.row(
            &format!("upload_p{}_ms (whole phase)", q * 100.0),
            "ms",
            quantile_sorted(&lat, q).unwrap_or(f64::NAN),
        );
    }
    report.row("upload_max_tps (median of 250 ms windows)", "1/s", tps);
    report.row("grade_err_p50_deg", "deg", acc.grade_err_p50_deg());
    report.row("grade_err_p95_deg", "deg", acc.grade_err_p95_deg());
    report.row("fuel_err_pct", "%", acc.fuel_err_pct());
    report.row("fail_ratio", "ratio", report.outcomes.fail_ratio());
    report.row("peak_rss_mb", "MB", peak_rss_mb());
    report.row("loadgen.late_p90_ms", "ms", late_p90);

    if traced {
        // Replay the warm-up and open-loop frames in schedule order.
        let mut ops: Vec<ReplayOp> = Vec::new();
        for i in 0..open_acked {
            for c in conns {
                if let Some(&sent) = c.acked.get(i) {
                    ops.push(ReplayOp::Upload(sent));
                }
            }
        }
        let mut replay = Replay::new(&net, &index, &pool);
        let head = &ops[..ops.len().min(OVERHEAD_OPS)];
        let overhead = trace_overhead_pct(3, |spans| replay.run(head, &fresh_cloud(), spans));
        let mut replay = Replay::new(&net, &index, &pool);
        let mut spans = SpanLog::new();
        replay.run(&ops, &fresh_cloud(), &mut spans);
        let mut layers = upload_layers(&replay, &spans, p50);
        layers.extend([
            ("serve.server.busy_rejects", drained.stats.busy_rejects as f64),
            ("serve.server.frames_rejected", drained.stats.frames_rejected as f64),
            ("geo.index.build_ms", index_build_ms(&net, SETUP_REPS)),
            ("loadgen.late_p90_ms", late_p90),
            ("bench.trace_overhead_pct", overhead),
        ]);
        report.per_layer = layers;
        report.spans = Some(spans);
    }
    report
}
