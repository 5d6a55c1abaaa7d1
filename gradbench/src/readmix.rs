//! `serve_read_mix`: open-loop tile reads over a fixed bbox mix on one
//! connection while a second connection keeps writing, against a map
//! preloaded with one trip per road; then both connections read in a
//! closed loop.

use crate::inputs::{derive_seed, edge_pool, network, Accuracy};
use crate::report::{peak_rss_mb, Report};
use crate::serve::{
    connect, drain_check, fresh_cloud, generator_late_p90_ms, generator_verdict, index_build_ms,
    latencies_ms, latency_p50_p90_ms, owned_edges, pool_estimates, reference_tile, score_tile,
    start_server, tile_layers, upload_layers, ConnLog, Replay, ReplayOp, Schedule, Sent, Server,
};
use crate::stats::{
    highest_backed_tail, median, quantile_sorted, trace_overhead_pct, windowed_rate, SpanLog,
};
use gradest_geo::tile::edges_in_tile_into;
use gradest_geo::{Aabb, NetworkIndex, QueryScratch, RoadNetwork};
use gradest_sensors::suite::SensorLog;
use gradest_serve::protocol::decode_tile;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

/// Offered tile-query rate of connection A.
pub const TILE_RATE_PER_S: f64 = 1000.0;
/// Offered upload rate of connection B, writing beside the open-loop
/// reads.
pub const WRITE_RATE_PER_S: f64 = 20.0;
/// Share of the run spent in the open-loop phase; in the rest both
/// connections read back to back.
pub const OPEN_SHARE: f64 = 0.7;
/// Window of the closed-loop rate samples.
pub const RATE_WINDOW: Duration = Duration::from_millis(250);
/// Consecutive parts of the open-loop phase, each with fresh generator
/// threads and connections.
pub const EPOCHS: u64 = 4;
/// Server start-ups (with preload) timed for `setup_s`.
pub const SETUP_REPS: usize = 5;
/// Length of the repeating bbox mix.
pub const MIX_LEN: usize = 256;
/// Preload trips are variant 0 of the pool, writes variant 1.
const PRELOAD: usize = 0;
const WRITE: usize = 1;
/// Replayed operations timed with and without spans for the overhead
/// row.
const OVERHEAD_OPS: usize = 2000;
/// Input streams of the upload pool and the bbox mix.
const STREAM: u64 = 200;
const MIX_STREAM: u64 = 201;

/// Whether mix slot `slot` queries the full city (two slots in 8).
fn is_city(slot: usize) -> bool {
    slot % 8 >= 6
}

/// The repeating query mix: per 8 queries, 2 neighbourhood boxes
/// (1 km square), 4 district boxes (3 km square) and 2 full-city boxes.
/// The median query is then a district tile: with mostly 1 km tiles
/// the median reply took ~45 µs, so little above per-request system
/// call and wake-up costs that its run-to-run spread reached 18–39%.
pub fn bbox_mix(city: Aabb, seed: u64) -> Vec<Aabb> {
    (0..MIX_LEN)
        .map(|j| {
            if is_city(j) {
                return city;
            }
            let side = if j % 8 >= 2 { 3000.0 } else { 1000.0 };
            let u = |stream: u64| {
                (derive_seed(seed, MIX_STREAM + stream, j as u64) >> 11) as f64
                    / (1u64 << 53) as f64
            };
            let cx = city.min_x + u(0) * (city.max_x - city.min_x);
            let cy = city.min_y + u(1) * (city.max_y - city.min_y);
            Aabb {
                min_x: cx - side / 2.0,
                min_y: cy - side / 2.0,
                max_x: cx + side / 2.0,
                max_y: cy + side / 2.0,
            }
        })
        .collect()
}

/// One tile reply awaiting its check: mix slot and payload.
type Reply = (usize, Arc<Vec<u8>>);

/// Remembers the last payload served for each bbox of the mix (the
/// full-city slots share one entry). A payload byte-identical to the
/// previous one for its bbox decodes identically, so only changed
/// payloads need decoding: the map changes only when a write lands, and
/// a byte comparison costs far less than a decode.
struct SlotCache {
    last: Vec<Arc<Vec<u8>>>,
    /// Replies identical to their slot's previous (checked) payload.
    repeats: u64,
}

impl SlotCache {
    fn new() -> Self {
        SlotCache { last: (0..MIX_LEN).map(|_| Arc::new(Vec::new())).collect(), repeats: 0 }
    }

    /// The payload, when it differs from the previous one for its bbox
    /// and so must be decoded; `None` for a repeat.
    fn changed(&mut self, slot: usize, payload: Vec<u8>) -> Option<Arc<Vec<u8>>> {
        let key = if is_city(slot) { 6 } else { slot };
        if *self.last[key] == payload {
            self.repeats += 1;
            return None;
        }
        self.last[key] = Arc::new(payload);
        Some(Arc::clone(&self.last[key]))
    }
}

/// Checks one served tile: it decodes, lists ascending edges that the
/// index returns for its bbox, and carries only finite values.
struct TileChecker<'a> {
    index: &'a NetworkIndex,
    mix: &'a [Aabb],
    query: QueryScratch,
    expected: Vec<u32>,
    checked: u64,
    failures: u64,
    first_failure: Option<String>,
    /// Running estimate of check cost per tile byte, ns.
    ns_per_byte: f64,
}

impl<'a> TileChecker<'a> {
    fn new(index: &'a NetworkIndex, mix: &'a [Aabb]) -> Self {
        TileChecker {
            index,
            mix,
            query: QueryScratch::new(),
            expected: Vec::new(),
            checked: 0,
            failures: 0,
            first_failure: None,
            ns_per_byte: 2.0,
        }
    }

    fn check(&mut self, (slot, payload): &Reply) {
        let t0 = Instant::now();
        let verdict = self.verdict(self.mix[*slot], payload);
        self.checked += 1;
        if let Err(why) = verdict {
            self.failures += 1;
            self.first_failure.get_or_insert(why);
        }
        let per_byte = t0.elapsed().as_nanos() as f64 / payload.len().max(1) as f64;
        self.ns_per_byte = 0.9 * self.ns_per_byte + 0.1 * per_byte;
    }

    fn verdict(&mut self, bounds: Aabb, payload: &[u8]) -> Result<(), String> {
        let roads = decode_tile(payload).map_err(|e| format!("tile does not decode: {e}"))?;
        edges_in_tile_into(self.index, bounds, &mut self.query, &mut self.expected);
        let mut prev = None;
        for (edge, track) in &roads {
            if self.expected.binary_search(edge).is_err() {
                return Err(format!("edge {edge} is outside the tile's bbox"));
            }
            if prev.is_some_and(|p| p >= *edge) {
                return Err("edges not strictly ascending".to_string());
            }
            prev = Some(*edge);
            if !track.s.iter().chain(&track.theta).chain(&track.variance).all(|v| v.is_finite()) {
                return Err(format!("edge {edge} carries a non-finite value"));
            }
        }
        Ok(())
    }

    /// Checks queued replies in order while `deadline` still leaves
    /// room, so checking never delays a request.
    fn check_until(&mut self, queue: &mut VecDeque<Reply>, deadline: Instant) {
        while let Some(reply) = queue.front() {
            let cost =
                Duration::from_nanos((self.ns_per_byte * reply.1.len() as f64) as u64 + 50_000);
            if Instant::now() + cost >= deadline {
                return;
            }
            let reply = queue.pop_front().expect("front exists");
            self.check(&reply);
        }
    }
}

/// Starts a server and preloads one trip per road over two connections.
fn setup(net: &RoadNetwork, pool: &[Vec<SensorLog>]) -> (Server, [ConnLog; 2]) {
    let server = start_server(net);
    let preload = |c: usize| {
        let mut client = connect(&server);
        let mut log = ConnLog::default();
        for edge in owned_edges(net, c) {
            log.upload(&mut client, (edge, PRELOAD), &pool[edge][PRELOAD]);
        }
        log
    };
    let logs = std::thread::scope(|scope| {
        let second = scope.spawn(|| preload(1));
        let first = preload(0);
        [first, second.join().expect("preload thread panicked")]
    });
    (server, logs)
}

/// Runs the workload for `seconds` with inputs from `seed`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let net = network();
    let pool = edge_pool(&net, seed, STREAM, 2);
    let index = NetworkIndex::build(&net);
    let mix = bbox_mix(index.bounds(), seed);

    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut current = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let fresh = setup(&net, &pool);
        setup_times.push(t0.elapsed().as_secs_f64());
        for log in &fresh.1 {
            report.outcomes.merge(&log.outcomes);
        }
        if let Some((old, _)) = current.replace(fresh) {
            let (clean, detail) = drain_check(&old.shutdown());
            report.check("preloaded server drains cleanly", clean, detail);
        }
    }
    let (server, preload) = current.expect("at least one set-up");

    let open_count = (seconds * OPEN_SHARE * TILE_RATE_PER_S).floor() as u64;
    let tile_interval = Duration::from_secs_f64(1.0 / TILE_RATE_PER_S);
    let write_count = (seconds * OPEN_SHARE * WRITE_RATE_PER_S).floor() as u64;
    let write_interval = Duration::from_secs_f64(1.0 / WRITE_RATE_PER_S);
    let start = Instant::now() + Duration::from_millis(50);
    let end = start + Duration::from_secs_f64(seconds);

    // The open-loop phase runs in `EPOCHS` consecutive parts, each with
    // freshly spawned generator threads on fresh connections (never
    // more than two at once). Tile latency varied by up to ±25% between
    // runs of one seed, more than between seconds of one run; new
    // threads and connections in each part let one run sample several
    // placements of client and server threads. The schedule itself is
    // one for the whole phase.
    let mut reads = ConnLog::default();
    let mut writes = ConnLog::default();
    let mut cache = SlotCache::new();
    let mut open_checker = TileChecker::new(&index, &mix);
    for epoch in 0..EPOCHS {
        let part = |count: u64| (count * epoch / EPOCHS)..(count * (epoch + 1) / EPOCHS);
        let (tiles, uploads) = (part(open_count), part(write_count));
        // The reader byte-compares each reply with the previous one for
        // its bbox and hands changed ones to the writer, which decodes
        // them in the slack between its own uploads, so checking never
        // delays a read.
        let (to_check, replies) = mpsc::channel::<Reply>();
        let (reads, writes, cache, checker) =
            (&mut reads, &mut writes, &mut cache, &mut open_checker);
        let (server, net, pool, mix) = (&server, &net, &pool, &mix);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut client = connect(server);
                let mut pending = VecDeque::new();
                let schedule = Schedule {
                    start,
                    offset: tile_interval.mul_f64(0.5)
                        + write_interval.mul_f64(uploads.start as f64),
                    interval: write_interval,
                    count: uploads.end - uploads.start,
                };
                writes.open_loop(
                    &schedule,
                    |_, due| {
                        pending.extend(replies.try_iter());
                        checker.check_until(&mut pending, due);
                    },
                    |log, k| {
                        let sent: Sent = ((uploads.start + k) as usize % net.edge_count(), WRITE);
                        log.upload(&mut client, sent, &pool[sent.0][sent.1]);
                    },
                );
                pending.extend(replies.iter());
                for reply in &pending {
                    checker.check(reply);
                }
            });
            scope.spawn(move || {
                let mut client = connect(server);
                let schedule = Schedule {
                    start,
                    offset: tile_interval.mul_f64(tiles.start as f64),
                    interval: tile_interval,
                    count: tiles.end - tiles.start,
                };
                // The byte comparison runs before the next request,
                // outside the timed window of the reply it checks.
                let received: Cell<Option<(usize, Vec<u8>)>> = Cell::new(None);
                let compare = |cache: &mut SlotCache| {
                    if let Some((slot, payload)) = received.take() {
                        if let Some(changed) = cache.changed(slot, payload) {
                            to_check.send((slot, changed)).expect("writer thread alive");
                        }
                    }
                };
                reads.open_loop(
                    &schedule,
                    |_, _| compare(cache),
                    |log, i| {
                        let slot = (tiles.start + i) as usize % MIX_LEN;
                        received
                            .set(log.tile(&mut client, &mix[slot]).map(|payload| (slot, payload)));
                    },
                );
                compare(cache);
            });
        });
    }

    // Closed-loop phase: both connections read the mix back to back,
    // each checking every tile before asking for the next one.
    let closed_start = Instant::now();
    let barrier = Barrier::new(2);
    let closed_reads = |log: &mut ConnLog, cache: &mut SlotCache, mut j: usize| {
        let mut client = connect(&server);
        let mut checker = TileChecker::new(&index, &mix);
        log.closed_loop(end, |log| {
            let slot = j % MIX_LEN;
            j += 1;
            let Some(payload) = log.tile(&mut client, &mix[slot]) else {
                return false;
            };
            if let Some(changed) = cache.changed(slot, payload) {
                checker.check(&(slot, changed));
            }
            true
        });
        barrier.wait();
        (client, checker)
    };
    let mut b_cache = SlotCache::new();
    let ((mut client, a_checker), (_, b_checker)) = std::thread::scope(|scope| {
        let b = scope.spawn(|| closed_reads(&mut writes, &mut b_cache, MIX_LEN / 2));
        let a = closed_reads(&mut reads, &mut cache, open_count as usize);
        (a, b.join().expect("second reader thread panicked"))
    });
    let final_tile = reads.tile(&mut client, &index.bounds());
    drop(client);
    let checked = cache.repeats
        + b_cache.repeats
        + open_checker.checked
        + a_checker.checked
        + b_checker.checked;
    let bad_tiles = open_checker.failures + a_checker.failures + b_checker.failures;
    let first_bad =
        open_checker.first_failure.or(a_checker.first_failure).or(b_checker.first_failure);
    let drained = server.shutdown();
    let (clean, detail) = drain_check(&drained);
    report.check("server drains cleanly", clean, detail);

    report.outcomes.merge(&reads.outcomes);
    report.outcomes.merge(&writes.outcomes);
    report.check(
        "every request answered in kind",
        report.outcomes.failed() == 0,
        format!("{} of {} requests failed", report.outcomes.failed(), report.outcomes.attempted),
    );
    report.check(
        "every tile decodes within its bbox",
        bad_tiles == 0 && checked + 1 == drained.stats.tile_queries,
        first_bad.unwrap_or_else(|| format!("{checked} tiles checked")),
    );
    report.invalid = generator_verdict(&[(&reads, tile_interval), (&writes, write_interval)]);

    let fused = pool_estimates(&pool);
    let preloaded = || {
        let cloud = fresh_cloud();
        for &(edge, variant) in preload.iter().flat_map(|l| &l.acked) {
            cloud.upload(edge as u64, &fused[edge][variant]);
        }
        cloud
    };
    let reference = preloaded();
    for &(edge, variant) in &writes.acked {
        reference.upload(edge as u64, &fused[edge][variant]);
    }
    let final_tile = final_tile.unwrap_or_default();
    report.check(
        "final tile equals reference",
        !final_tile.is_empty() && final_tile == reference_tile(&index, &reference),
        format!("{} bytes", final_tile.len()),
    );
    let mut acc = Accuracy::default();
    let scored = score_tile(&net, &final_tile, &mut acc);
    report.check(
        "served map scored, all values finite",
        scored.is_ok() && acc.non_finite == 0,
        match &scored {
            Ok(roads) => format!("{roads} roads, {} non-finite values", acc.non_finite),
            Err(e) => e.clone(),
        },
    );

    let (p50, p90) = latency_p50_p90_ms(&[&reads], start);
    let tiles = latencies_ms(&[&reads]);
    let uploads = latencies_ms(&[&writes]);
    let q = |v: &[f64], q: f64| quantile_sorted(v, q).unwrap_or(f64::NAN);
    let done: Vec<Instant> = reads.closed_done.iter().chain(&writes.closed_done).copied().collect();
    let qps = windowed_rate(&done, closed_start, end, RATE_WINDOW).unwrap_or(f64::NAN);
    let setup_s = median(&setup_times).unwrap_or(f64::NAN);
    let late_p90 = generator_late_p90_ms(&[&reads, &writes]);
    report.end_to_end = vec![
        ("setup_s", setup_s),
        ("latency_p50_ms", p50),
        ("latency_p90_ms", p90),
        ("max_ops_per_s", qps),
        ("grade_err_p50_deg", acc.grade_err_p50_deg()),
        ("grade_err_p95_deg", acc.grade_err_p95_deg()),
        ("fuel_err_pct", acc.fuel_err_pct()),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    report.row("setup_s", "s", setup_s);
    report.row("tile_p50_ms (median of 1 s windows)", "ms", p50);
    report.row("tile_p90_ms (median of 1 s windows)", "ms", p90);
    report.row("tile_samples", "count", tiles.len() as f64);
    for t in [0.5, 0.9].into_iter().chain(highest_backed_tail(tiles.len())) {
        report.row(&format!("tile_p{}_ms (whole phase)", t * 100.0), "ms", q(&tiles, t));
    }
    report.row("tile_max_qps (median of 250 ms windows)", "1/s", qps);
    report.row("upload_p50_ms (beside reads)", "ms", q(&uploads, 0.5));
    report.row("upload_p90_ms (beside reads)", "ms", q(&uploads, 0.9));
    report.row("upload_samples", "count", uploads.len() as f64);
    report.row("grade_err_p50_deg", "deg", acc.grade_err_p50_deg());
    report.row("grade_err_p95_deg", "deg", acc.grade_err_p95_deg());
    report.row("fuel_err_pct", "%", acc.fuel_err_pct());
    report.row("fail_ratio", "ratio", report.outcomes.fail_ratio());
    report.row("peak_rss_mb", "MB", peak_rss_mb());
    report.row("loadgen.late_p90_ms", "ms", late_p90);

    if traced {
        // Replay the open-loop tiles and the writes due beside them, in
        // schedule order, against the preloaded map.
        let mut ops: Vec<(Duration, ReplayOp)> = (0..open_count)
            .map(|i| (tile_interval.mul_f64(i as f64), ReplayOp::Tile(mix[i as usize % MIX_LEN])))
            .collect();
        let open_end = tile_interval.mul_f64(open_count as f64);
        for (k, &sent) in writes.acked.iter().enumerate() {
            let due = tile_interval.mul_f64(0.5) + write_interval.mul_f64(k as f64);
            if due < open_end {
                ops.push((due, ReplayOp::Upload(sent)));
            }
        }
        ops.sort_by_key(|(due, _)| *due);
        let ops: Vec<ReplayOp> = ops.into_iter().map(|(_, op)| op).collect();
        let mut replay = Replay::new(&net, &index, &pool);
        let head = &ops[..ops.len().min(OVERHEAD_OPS)];
        let overhead = trace_overhead_pct(3, |spans| replay.run(head, &preloaded(), spans));
        let mut replay = Replay::new(&net, &index, &pool);
        let mut spans = SpanLog::new();
        replay.run(&ops, &preloaded(), &mut spans);
        let mut layers = tile_layers(&replay, &spans);
        layers.extend(upload_layers(&replay, &spans, q(&uploads, 0.5)));
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
