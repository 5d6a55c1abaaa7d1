//! Shared machinery of the two served workloads: the in-process
//! server, the per-connection open- and closed-loop generators, reply
//! classification, reference tiles, and the traced in-process replay
//! of a frame and tile sequence.

use crate::inputs::{edge_route, par_map, Accuracy};
use crate::stats::{mean_of, median_of, DueTiming, Outcomes, SpanLog};
use gradest_core::cloud::CloudAggregator;
use gradest_core::pipeline::{EstimatorScratch, GradientEstimate, GradientEstimator};
use gradest_core::track::GradientTrack;
use gradest_geo::tile::edges_in_tile_into;
use gradest_geo::{Aabb, NetworkIndex, QueryScratch, RoadNetwork};
use gradest_obs::{NoopRecorder, StageNanos};
use gradest_sensors::suite::SensorLog;
use gradest_serve::client::{Client, ServerReply};
use gradest_serve::protocol::{
    decode_tile, decode_upload_into, encode_upload_frame, TileWriter, UploadScratch, HEADER_BYTES,
};
use gradest_serve::server::{start, DrainReport, ServeConfig, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client socket timeout: a reply slower than this counts as failed.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
/// Generator lateness (p90) past which the open-loop numbers are not
/// trusted and the run is flagged invalid (see [`generator_verdict`]).
pub const LATE_LIMIT: Duration = Duration::from_millis(2);
/// Longest gap allowed between two requests on one connection; the
/// server closes connections idle for `ServeConfig::read_timeout`.
pub fn idle_limit() -> Duration {
    ServeConfig::default().read_timeout.mul_f64(0.8)
}

/// A server with the default configuration (2 workers) on loopback.
pub type Server = ServerHandle<NoopRecorder>;

/// Starts the server under test on an ephemeral loopback port.
pub fn start_server(net: &RoadNetwork) -> Server {
    start(&ServeConfig::default(), "127.0.0.1:0", net, Arc::new(NoopRecorder))
        .expect("bind a loopback port")
}

/// Connects one client to `server`.
pub fn connect(server: &Server) -> Client {
    Client::connect(server.addr(), CLIENT_TIMEOUT).expect("connect to the loopback server")
}

/// The edges connection `conn` (0 or 1) owns: disjoint halves, so the
/// per-road fusion order is fixed by each connection's own sequence.
pub fn owned_edges(net: &RoadNetwork, conn: usize) -> Vec<usize> {
    (0..net.edge_count()).filter(|e| e % 2 == conn).collect()
}

/// The estimator every reference computation uses: the server's.
pub fn estimator() -> GradientEstimator {
    GradientEstimator::new(ServeConfig::default().estimator)
}

/// A fresh aggregator with the server's cell spacing.
pub fn fresh_cloud() -> CloudAggregator {
    CloudAggregator::new(ServeConfig::default().grid_ds)
}

/// The fused track of every pooled log (`map = None`, as the server
/// estimates uploads), computed once so reference maps can replay any
/// upload sequence cheaply.
pub fn pool_estimates(pool: &[Vec<SensorLog>]) -> Vec<Vec<GradientTrack>> {
    let variants = pool.first().map_or(0, Vec::len);
    let flat = par_map(pool.len() * variants, |k| {
        estimator().estimate(&pool[k / variants][k % variants], None).fused
    });
    let mut out: Vec<Vec<GradientTrack>> = (0..pool.len()).map(|_| Vec::new()).collect();
    for (k, track) in flat.into_iter().enumerate() {
        out[k / variants].push(track);
    }
    out
}

/// One acknowledged upload: which edge, and which pooled log.
pub type Sent = (usize, usize);

/// Everything one connection observed.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Open-loop request timings.
    pub timings: Vec<DueTiming>,
    /// Acknowledged uploads, in order.
    pub acked: Vec<Sent>,
    /// Operations attempted and failed.
    pub outcomes: Outcomes,
    /// Completion instants of the operations that succeeded in the
    /// closed-loop phase.
    pub closed_done: Vec<Instant>,
    /// Longest gap between two sends.
    pub max_gap: Duration,
    last_send: Option<Instant>,
    /// Set after a transport error: the connection is not used again.
    pub broken: bool,
}

impl ConnLog {
    fn note_send(&mut self, at: Instant) {
        if let Some(last) = self.last_send {
            self.max_gap = self.max_gap.max(at.saturating_duration_since(last));
        }
        self.last_send = Some(at);
    }

    /// Uploads `log` for `edge`, books the outcome and returns whether
    /// the server acknowledged it for the right road.
    pub fn upload(&mut self, client: &mut Client, sent: Sent, log: &SensorLog) -> bool {
        self.note_send(Instant::now());
        self.outcomes.attempted += 1;
        match client.upload(sent.0 as u64, log) {
            Ok(ServerReply::Ack { road_id }) if road_id == sent.0 as u64 => {
                self.acked.push(sent);
                return true;
            }
            Ok(reply) => self.book_failure(&reply),
            Err(_) => {
                self.outcomes.transport += 1;
                self.broken = true;
            }
        }
        false
    }

    /// Queries the tile covering `bounds`; returns the payload.
    pub fn tile(&mut self, client: &mut Client, bounds: &Aabb) -> Option<Vec<u8>> {
        self.note_send(Instant::now());
        self.outcomes.attempted += 1;
        match client.tile_query(bounds) {
            Ok(ServerReply::Tile(payload)) => Some(payload),
            Ok(reply) => {
                self.book_failure(&reply);
                None
            }
            Err(_) => {
                self.outcomes.transport += 1;
                self.broken = true;
                None
            }
        }
    }

    fn book_failure(&mut self, reply: &ServerReply) {
        match reply {
            ServerReply::Busy { .. } => self.outcomes.busy += 1,
            ServerReply::Err { .. } => self.outcomes.err += 1,
            _ => self.outcomes.wrong_reply += 1,
        }
    }

    /// Runs `op(i)` on the fixed-rate schedule, timing each request
    /// from its due instant. Before sleeping until a due instant,
    /// `idle(due)` may use the slack for client-side work.
    pub fn open_loop(
        &mut self,
        schedule: &Schedule,
        mut idle: impl FnMut(&mut ConnLog, Instant),
        mut op: impl FnMut(&mut ConnLog, u64),
    ) {
        let mut prev_reply = None;
        for i in 0..schedule.count {
            if self.broken {
                break;
            }
            let due = schedule.due(i);
            idle(self, due);
            wait_until(due);
            let sent = Instant::now();
            op(self, i);
            let replied = Instant::now();
            self.timings.push(DueTiming::account(due, sent, replied, prev_reply));
            prev_reply = Some(replied);
        }
    }

    /// Runs `op` back to back until `until`, recording when each
    /// operation that succeeded completed.
    pub fn closed_loop(&mut self, until: Instant, mut op: impl FnMut(&mut ConnLog) -> bool) {
        while Instant::now() < until && !self.broken {
            if op(self) {
                self.closed_done.push(Instant::now());
            }
        }
    }
}

/// A fixed-rate request schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Common start of all connections' schedules.
    pub start: Instant,
    /// This connection's offset from `start`.
    pub offset: Duration,
    /// Gap between two of this connection's requests.
    pub interval: Duration,
    /// Requests in the schedule.
    pub count: u64,
}

impl Schedule {
    /// Due instant of request `i`.
    pub fn due(&self, i: u64) -> Instant {
        crate::stats::due_at(self.start, self.offset, self.interval, i)
    }
}

/// Waits until `t` (returns at once if it has passed), spinning and
/// yielding rather than sleeping. A sleeping generator lets its CPU go
/// idle, and on a virtual machine waking an idle virtual CPU can take
/// from 0.1 ms to several ms depending on host load; that wake-up would
/// then dominate sub-millisecond latencies and make them vary with the
/// host rather than the program. Yielding leaves the CPU to any server
/// thread that is ready to run.
pub fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

/// Open-loop latencies (ms) of several connections, pooled and sorted.
pub fn latencies_ms(conns: &[&ConnLog]) -> Vec<f64> {
    let mut v: Vec<f64> = due_latencies_ms(conns).into_iter().map(|(_, ms)| ms).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Open-loop latencies (ms) with their due instants.
pub fn due_latencies_ms(conns: &[&ConnLog]) -> Vec<(Instant, f64)> {
    conns
        .iter()
        .flat_map(|c| c.timings.iter().map(|t| (t.due, t.latency.as_secs_f64() * 1e3)))
        .collect()
}

/// The end-to-end latency pair of an open-loop phase that started at
/// `start`: the median over 1 s windows of each window's p50 and p90.
pub fn latency_p50_p90_ms(conns: &[&ConnLog], start: Instant) -> (f64, f64) {
    let samples = due_latencies_ms(conns);
    let window = Duration::from_secs(1);
    let q = |q| crate::stats::windowed_quantile(&samples, start, window, q).unwrap_or(f64::NAN);
    (q(0.5), q(0.9))
}

/// p90 of the generator's own lateness (ms) over several connections.
pub fn generator_late_p90_ms(conns: &[&ConnLog]) -> f64 {
    let mut v: Vec<f64> = conns
        .iter()
        .flat_map(|c| c.timings.iter().map(|t| t.generator_late.as_secs_f64() * 1e3))
        .collect();
    v.sort_by(f64::total_cmp);
    crate::stats::quantile_sorted(&v, 0.9).unwrap_or(0.0)
}

/// Why the open-loop numbers cannot be trusted, if they cannot: on
/// some connection the generator's own lateness (p90) exceeded
/// [`LATE_LIMIT`] or half the connection's request interval, whichever
/// is larger, or the connection sat idle long enough for the server to
/// close it.
pub fn generator_verdict(conns: &[(&ConnLog, Duration)]) -> Option<String> {
    for (c, interval) in conns {
        let late = generator_late_p90_ms(&[c]);
        let limit = LATE_LIMIT.max(*interval / 2).as_secs_f64() * 1e3;
        if late > limit {
            return Some(format!(
                "load generator ran late: p90 {late:.3} ms behind schedule (limit {limit} ms)"
            ));
        }
        if c.max_gap > idle_limit() {
            return Some(format!(
                "a connection idled {} ms between requests",
                c.max_gap.as_millis()
            ));
        }
    }
    None
}

/// Bytes of the full-city tile built from `cloud` the way the server
/// builds it: ascending edge ids, each known road through `TileWriter`.
pub fn reference_tile(index: &NetworkIndex, cloud: &CloudAggregator) -> Vec<u8> {
    let mut edges = Vec::new();
    edges_in_tile_into(index, index.bounds(), &mut QueryScratch::new(), &mut edges);
    let mut payload = Vec::new();
    let mut track = GradientTrack::new("");
    let mut writer = TileWriter::begin(&mut payload);
    for &edge in &edges {
        if cloud.road_profile_into(u64::from(edge), &mut track) {
            writer.push_edge(edge, &track);
        }
    }
    writer.finish();
    payload
}

/// Scores a served tile against the true gradients of its roads.
/// Returns the number of roads scored.
pub fn score_tile(net: &RoadNetwork, payload: &[u8], acc: &mut Accuracy) -> Result<usize, String> {
    let roads = decode_tile(payload).map_err(|e| format!("tile does not decode: {e}"))?;
    for (edge, track) in &roads {
        let Some(_) = net.edges().get(*edge as usize) else {
            return Err(format!("tile carries unknown edge {edge}"));
        };
        acc.add(&edge_route(net, *edge as usize), track);
    }
    Ok(roads.len())
}

/// Checks a drained server: the drain abandoned nothing.
pub fn drain_check(report: &DrainReport) -> (bool, String) {
    (
        report.is_clean(),
        format!(
            "in flight at stop {}, after {}; {} uploads acked, {} tiles",
            report.in_flight_at_stop,
            report.in_flight_after,
            report.stats.uploads_acked,
            report.stats.tile_queries
        ),
    )
}

/// One operation of a replayed sequence.
#[derive(Debug, Clone, Copy)]
pub enum ReplayOp {
    /// An upload of pooled log `variant` for `edge`.
    Upload(Sent),
    /// A tile query over `bounds`.
    Tile(Aabb),
}

/// The traced run's in-process replay of a served sequence on the
/// benchmark thread, with a span around every call into a layer:
///
/// ```text
/// serve.frame ─┬ serve.protocol.decode_upload   decode_upload_into
///              ├ core.pipeline.estimate          GradientEstimator::estimate_into
///              └ core.cloud.upload               CloudAggregator::upload
/// serve.tile  ─┬ geo.tile.query                  edges_in_tile_into
///              └ serve.protocol.tile_encode      TileWriter
///                 └ core.cloud.road_profile      CloudAggregator::road_profile_into (per edge)
/// ```
pub struct Replay<'a> {
    net: &'a RoadNetwork,
    index: &'a NetworkIndex,
    pool: &'a [Vec<SensorLog>],
    estimator: GradientEstimator,
    frame: Vec<u8>,
    upload: UploadScratch,
    scratch: EstimatorScratch,
    out: GradientEstimate,
    query: QueryScratch,
    edges: Vec<u32>,
    track: GradientTrack,
    tile: Vec<u8>,
    /// Pipeline stage times of each replayed upload.
    pub stages: Vec<StageNanos>,
    /// IMU samples of each replayed upload.
    pub imu_samples: Vec<usize>,
    /// Fused cells of each replayed upload.
    pub cells_per_upload: Vec<usize>,
    /// Frame bytes of each replayed upload.
    pub frame_bytes: Vec<usize>,
    /// Reply bytes of each replayed tile.
    pub tile_bytes: Vec<usize>,
    /// Edges returned by each replayed tile query.
    pub edges_per_query: Vec<usize>,
    /// Fused cells carried by each replayed tile.
    pub cells_per_tile: Vec<usize>,
}

impl<'a> Replay<'a> {
    /// A replay over `pool` against `index`.
    pub fn new(net: &'a RoadNetwork, index: &'a NetworkIndex, pool: &'a [Vec<SensorLog>]) -> Self {
        Replay {
            net,
            index,
            pool,
            estimator: estimator(),
            frame: Vec::new(),
            upload: UploadScratch::new(),
            scratch: EstimatorScratch::new(),
            out: GradientEstimate::default(),
            query: QueryScratch::new(),
            edges: Vec::new(),
            track: GradientTrack::new(""),
            tile: Vec::new(),
            stages: Vec::new(),
            imu_samples: Vec::new(),
            cells_per_upload: Vec::new(),
            frame_bytes: Vec::new(),
            tile_bytes: Vec::new(),
            edges_per_query: Vec::new(),
            cells_per_tile: Vec::new(),
        }
    }

    /// Replays `ops` into `cloud`, recording spans into `spans` (and,
    /// when it is enabled, the per-operation counts). Returns the wall
    /// time of the pass.
    pub fn run(
        &mut self,
        ops: &[ReplayOp],
        cloud: &CloudAggregator,
        spans: &mut SpanLog,
    ) -> Duration {
        debug_assert_eq!(self.net.edge_count(), self.pool.len());
        let t0 = Instant::now();
        for (op_id, op) in ops.iter().enumerate() {
            match *op {
                ReplayOp::Upload(sent) => self.upload(sent, cloud, spans, op_id as u32),
                ReplayOp::Tile(bounds) => self.tile(bounds, cloud, spans, op_id as u32),
            }
        }
        t0.elapsed()
    }

    fn upload(
        &mut self,
        (edge, variant): Sent,
        cloud: &CloudAggregator,
        spans: &mut SpanLog,
        op: u32,
    ) {
        encode_upload_frame(edge as u64, &self.pool[edge][variant], &mut self.frame);
        let frame = spans.open("serve.frame", None, op);
        let s = spans.open("serve.protocol.decode_upload", Some(frame), op);
        decode_upload_into(&self.frame[HEADER_BYTES..], &mut self.upload)
            .expect("replayed frame decodes");
        spans.close(s);
        let s = spans.open("core.pipeline.estimate", Some(frame), op);
        self.estimator.estimate_into(&self.upload.log, None, &mut self.scratch, &mut self.out);
        spans.close(s);
        let s = spans.open("core.cloud.upload", Some(frame), op);
        cloud.upload(self.upload.road_id, &self.out.fused);
        spans.close(s);
        spans.close(frame);
        if spans.enabled() {
            self.stages.push(self.scratch.stages());
            self.imu_samples.push(self.upload.log.imu.len());
            self.cells_per_upload.push(self.out.fused.len());
            self.frame_bytes.push(self.frame.len());
        }
    }

    fn tile(&mut self, bounds: Aabb, cloud: &CloudAggregator, spans: &mut SpanLog, op: u32) {
        let root = spans.open("serve.tile", None, op);
        let s = spans.open("geo.tile.query", Some(root), op);
        edges_in_tile_into(self.index, bounds, &mut self.query, &mut self.edges);
        spans.close(s);
        let encode = spans.open("serve.protocol.tile_encode", Some(root), op);
        let mut cells = 0;
        let mut writer = TileWriter::begin(&mut self.tile);
        for &edge in &self.edges {
            let s = spans.open("core.cloud.road_profile", Some(encode), op);
            let known = cloud.road_profile_into(u64::from(edge), &mut self.track);
            spans.close(s);
            if known {
                writer.push_edge(edge, &self.track);
                cells += self.track.len();
            }
        }
        writer.finish();
        spans.close(encode);
        spans.close(root);
        if spans.enabled() {
            self.tile_bytes.push(self.tile.len() + HEADER_BYTES);
            self.edges_per_query.push(self.edges.len());
            self.cells_per_tile.push(cells);
        }
    }
}

/// The per-stage pipeline metrics: medians of `EstimatorScratch::stages()`.
pub fn stage_layers(stages: &[StageNanos]) -> [(&'static str, f64); 4] {
    [
        ("core.pipeline.steering_us", median_of(stages, |s| s.steering as f64 / 1e3)),
        ("core.pipeline.detection_us", median_of(stages, |s| s.detection as f64 / 1e3)),
        ("core.pipeline.tracks_us", median_of(stages, |s| s.tracks as f64 / 1e3)),
        ("core.pipeline.fusion_us", median_of(stages, |s| s.fusion as f64 / 1e3)),
    ]
}

/// The upload-path per-layer metrics of a traced replay.
pub fn upload_layers(
    replay: &Replay<'_>,
    spans: &SpanLog,
    client_p50_ms: f64,
) -> Vec<(&'static str, f64)> {
    let p50_us = |name: &str| crate::stats::median(&spans.durations(name)).unwrap_or(0.0) / 1e3;
    let decode = p50_us("serve.protocol.decode_upload");
    let estimate = p50_us("core.pipeline.estimate");
    let upload = p50_us("core.cloud.upload");
    let per_sample: Vec<f64> = spans
        .durations("core.pipeline.estimate")
        .iter()
        .zip(&replay.imu_samples)
        .map(|(ns, n)| ns / *n as f64)
        .collect();
    let mut layers = vec![
        ("serve.protocol.decode_upload_us", decode),
        ("serve.protocol.upload_frame_kb", median_of(&replay.frame_bytes, |b| *b as f64 / 1024.0)),
        ("serve.server.unattributed_us", client_p50_ms * 1e3 - (decode + estimate + upload)),
        ("core.pipeline.estimate_us", estimate),
        ("core.pipeline.ns_per_imu_sample", crate::stats::median(&per_sample).unwrap_or(0.0)),
        ("core.cloud.upload_us", upload),
        ("core.cloud.cells_per_upload", median_of(&replay.cells_per_upload, |c| *c as f64)),
    ];
    layers.extend(stage_layers(&replay.stages));
    layers
}

/// The tile-path per-layer metrics of a traced replay: means over the
/// query mix, so large and small tiles weigh as they are served.
pub fn tile_layers(replay: &Replay<'_>, spans: &SpanLog) -> Vec<(&'static str, f64)> {
    let mean_us = |v: Vec<f64>| mean_of(&v, |ns| ns / 1e3);
    let tiles = replay.tile_bytes.len().max(1) as f64;
    let road_profile_total: f64 = spans.durations("core.cloud.road_profile").iter().sum();
    vec![
        ("serve.protocol.tile_encode_us", mean_us(spans.self_times("serve.protocol.tile_encode"))),
        ("serve.protocol.tile_reply_kb", mean_of(&replay.tile_bytes, |b| *b as f64 / 1024.0)),
        ("core.cloud.road_profile_us", road_profile_total / tiles / 1e3),
        ("core.cloud.cells_per_tile", mean_of(&replay.cells_per_tile, |c| *c as f64)),
        ("geo.tile.query_us", mean_us(spans.durations("geo.tile.query"))),
        ("geo.tile.edges_per_query", mean_of(&replay.edges_per_query, |e| *e as f64)),
    ]
}

/// Median wall time of `reps` builds of the network's spatial index, ms.
pub fn index_build_ms(net: &RoadNetwork, reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(NetworkIndex::build(net));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&times).unwrap_or(0.0)
}
