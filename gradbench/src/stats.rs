//! Measurement helpers shared by every workload: the percentile rule,
//! due-time latency accounting for open-loop load, span self time, and
//! failure counting. Each is small and unit-tested, because every
//! reported number passes through one of them.

use std::time::{Duration, Instant};

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Value at quantile `q` (0..=1) of an ascending slice, by the
/// nearest-rank rule: the smallest sample with at least `q` of the
/// samples at or below it. Returns `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample set (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// Median of `f(x)` over `xs` (0 when empty).
pub fn median_of<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&xs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Mean of `f(x)` over `xs` (0 when empty).
pub fn mean_of<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().map(f).sum::<f64>() / xs.len() as f64
    }
}

/// Whether percentile `q` is backed by the tail rule: at least
/// [`TAIL_MIN_BEYOND`] samples lie strictly beyond its nearest rank.
pub fn tail_is_backed(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= rank + TAIL_MIN_BEYOND
}

/// The highest of the usual tail percentiles (p99.9, p99, p95, p90,
/// p75) that the tail rule backs for `n` samples, or `None` if not
/// even p75 is.
pub fn highest_backed_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90, 0.75].into_iter().find(|&q| tail_is_backed(n, q))
}

/// Timing of one open-loop request.
///
/// An open-loop generator has a schedule: request `i` is *due* at a
/// fixed instant whether or not earlier requests have finished. On a
/// blocking connection a slow reply delays every later send, so the
/// latency a user sees is measured from the due time, not the send
/// time. The generator's own lateness is how long after the moment it
/// *could* have sent (due time, or the previous reply if that came
/// later) it actually sent: that part is the load generator's fault,
/// not the system's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DueTiming {
    /// When the request was due.
    pub due: Instant,
    /// Reply time minus due time.
    pub latency: Duration,
    /// Send time minus `max(due, previous reply)`.
    pub generator_late: Duration,
}

impl DueTiming {
    /// Accounts one request from its due, send and reply instants and
    /// the previous reply on the same connection (if any).
    pub fn account(
        due: Instant,
        sent: Instant,
        replied: Instant,
        prev_reply: Option<Instant>,
    ) -> Self {
        let ready = prev_reply.map_or(due, |p| p.max(due));
        DueTiming {
            due,
            latency: replied.saturating_duration_since(due),
            generator_late: sent.saturating_duration_since(ready),
        }
    }
}

/// Due instant of request `i` on a fixed-rate schedule starting at
/// `start + offset` with `interval` between requests.
pub fn due_at(start: Instant, offset: Duration, interval: Duration, i: u64) -> Instant {
    start + offset + interval.mul_f64(i as f64)
}

/// Groups timestamped samples into consecutive windows of `window`
/// from `start`, keeping windows that hold at least `min` samples.
pub fn windows(
    samples: &[(Instant, f64)],
    start: Instant,
    window: Duration,
    min: usize,
) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = Vec::new();
    for &(at, v) in samples {
        let i = (at.saturating_duration_since(start).as_secs_f64() / window.as_secs_f64()) as usize;
        if out.len() <= i {
            out.resize(i + 1, Vec::new());
        }
        out[i].push(v);
    }
    out.retain(|w| w.len() >= min);
    out
}

/// Median over windows of each window's quantile `q`: a burst of host
/// noise that hits a minority of the windows does not move it, while a
/// slower program moves every window.
pub fn windowed_quantile(
    samples: &[(Instant, f64)],
    start: Instant,
    window: Duration,
    q: f64,
) -> Option<f64> {
    let per_window: Vec<f64> = windows(samples, start, window, TAIL_MIN_BEYOND * 10)
        .into_iter()
        .filter_map(|mut w| {
            w.sort_by(f64::total_cmp);
            quantile_sorted(&w, q)
        })
        .collect();
    median(&per_window)
}

/// Median over the whole windows in `[start, end)` of the rate (per
/// second) at which events completed in each window, measured between
/// the window's first and last completion.
pub fn windowed_rate(
    done: &[Instant],
    start: Instant,
    end: Instant,
    window: Duration,
) -> Option<f64> {
    let whole =
        (end.saturating_duration_since(start).as_secs_f64() / window.as_secs_f64()) as usize;
    let mut spans: Vec<(Instant, Instant, u32)> = Vec::new();
    for &at in done.iter().filter(|&&at| at >= start) {
        let i = (at.saturating_duration_since(start).as_secs_f64() / window.as_secs_f64()) as usize;
        if i >= whole {
            continue;
        }
        if spans.len() <= i {
            spans.resize(i + 1, (at, at, 0));
        }
        let w = &mut spans[i];
        if w.2 == 0 {
            *w = (at, at, 0);
        }
        w.0 = w.0.min(at);
        w.1 = w.1.max(at);
        w.2 += 1;
    }
    let rates: Vec<f64> = spans
        .iter()
        .filter(|w| w.2 >= 2 && w.1 > w.0)
        .map(|&(first, last, n)| f64::from(n - 1) / (last - first).as_secs_f64())
        .collect();
    median(&rates)
}

/// Counts operations attempted and failed, by kind of failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations attempted.
    pub attempted: u64,
    /// BUSY replies.
    pub busy: u64,
    /// ERR replies.
    pub err: u64,
    /// Transport errors and timeouts.
    pub transport: u64,
    /// Replies of the wrong kind, or an ACK for the wrong road.
    pub wrong_reply: u64,
    /// Batch trips for which no route was recovered.
    pub unmatched: u64,
}

impl Outcomes {
    /// All failed operations.
    pub fn failed(&self) -> u64 {
        self.busy + self.err + self.transport + self.wrong_reply + self.unmatched
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Adds another tally to this one.
    pub fn merge(&mut self, other: &Outcomes) {
        self.attempted += other.attempted;
        self.busy += other.busy;
        self.err += other.err;
        self.transport += other.transport;
        self.wrong_reply += other.wrong_reply;
        self.unmatched += other.unmatched;
    }
}

/// One recorded span: a named interval on the benchmark thread, its
/// parent span (if any) and the frame, tile or trip it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer name, e.g. `core.pipeline.estimate`.
    pub name: &'static str,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    /// Frame, tile or trip id shared by the spans of one operation.
    pub op: u32,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span log. Spans are kept here while the benchmark runs
/// and written out once it ends. A disabled log records nothing and
/// never reads the clock, so the same code runs traced and untraced.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    enabled: bool,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog { epoch: Instant::now(), spans: Vec::new(), enabled: true }
    }

    /// A log that records nothing.
    pub fn disabled() -> Self {
        SpanLog { enabled: false, ..SpanLog::new() }
    }

    /// Whether the log records spans.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the log's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u32) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(SpanRecord { name, parent, op, start_ns: now, end_ns: now });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Self times (ns) of every span named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let children = children_index(&self.spans);
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| self_time_ns(&self.spans, &children[i], i) as f64)
            .collect()
    }

    /// The log as CSV: `id,parent,op,name,start_ns,end_ns` (parent is
    /// empty for a root span).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,parent,op,name,start_ns,end_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            out.push_str(&format!(
                "{i},{parent},{},{},{},{}\n",
                s.op, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Tracing overhead, percent: the median over `rounds` of an
/// untraced pass followed by a traced one, each round comparing the
/// traced pass's wall time with the untraced pass just before it.
pub fn trace_overhead_pct(rounds: usize, mut pass: impl FnMut(&mut SpanLog) -> Duration) -> f64 {
    let ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let bare = pass(&mut SpanLog::disabled());
            let traced = pass(&mut SpanLog::new());
            traced.as_secs_f64() / bare.as_secs_f64()
        })
        .collect();
    100.0 * (median(&ratios).unwrap_or(1.0) - 1.0)
}

/// For each span, the indices of its direct children.
fn children_index(spans: &[SpanRecord]) -> Vec<Vec<usize>> {
    let mut children = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    children
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover. Overlapping children are counted
/// once, and child time outside the parent's interval is ignored.
pub fn self_time_ns(spans: &[SpanRecord], children: &[usize], id: usize) -> u64 {
    let parent = spans[id];
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|&c| (spans[c].start_ns.max(parent.start_ns), spans[c].end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = parent.start_ns;
    for (a, b) in intervals {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    parent.duration_ns().saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50.0));
        assert_eq!(quantile_sorted(&v, 0.9), Some(90.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: exactly 10 beyond it.
        assert!(tail_is_backed(100, 0.90));
        assert!(!tail_is_backed(99, 0.90));
        assert_eq!(highest_backed_tail(100), Some(0.90));
        assert_eq!(highest_backed_tail(200), Some(0.95));
        assert_eq!(highest_backed_tail(1000), Some(0.99));
        assert_eq!(highest_backed_tail(10_000), Some(0.999));
        assert_eq!(highest_backed_tail(40), Some(0.75));
        assert_eq!(highest_backed_tail(39), None);
    }

    #[test]
    fn due_time_accounting_charges_stalls_to_later_requests() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        // Request 0 due at 0, sent at 0, replied at 25 ms (a stall).
        let first = DueTiming::account(t0, t0, t0 + ms(25), None);
        assert_eq!(first.latency, ms(25));
        assert_eq!(first.generator_late, Duration::ZERO);
        // Request 1 was due at 10 ms but could only go out at 25 ms,
        // when the connection freed up; it was sent at 26 ms and
        // answered at 28 ms. The user waited 18 ms, the server worked
        // 2 ms of it, and the generator itself was 1 ms late.
        let second = DueTiming::account(t0 + ms(10), t0 + ms(26), t0 + ms(28), Some(t0 + ms(25)));
        assert_eq!(second.latency, ms(18));
        assert_eq!(second.generator_late, ms(1));
        // Request 2 due at 40 ms, sent 3 ms late on an idle connection.
        let third = DueTiming::account(t0 + ms(40), t0 + ms(43), t0 + ms(44), Some(t0 + ms(28)));
        assert_eq!(third.latency, ms(4));
        assert_eq!(third.generator_late, ms(3));
    }

    #[test]
    fn windowed_statistics_ignore_a_noisy_minority_of_windows() {
        let t0 = Instant::now();
        let ms = |v: u64| Duration::from_millis(v);
        // Three 1 s windows of 100 samples at 1 ms; the middle window is
        // ten times slower.
        let samples: Vec<(Instant, f64)> = (0..300u64)
            .map(|i| {
                (
                    t0 + ms(i * 10),
                    if (100..200).contains(&i) { 10.0 } else { 1.0 + (i % 100) as f64 / 100.0 },
                )
            })
            .collect();
        assert_eq!(windows(&samples, t0, ms(1000), 1).len(), 3);
        assert_eq!(windows(&samples, t0, ms(1000), 101).len(), 0);
        let p90 = windowed_quantile(&samples, t0, ms(1000), 0.9).unwrap();
        assert!((p90 - 1.89).abs() < 1e-9, "{p90}");
        // 2.5 windows of events at 100/s, then 1.5 windows at 200/s:
        // only whole windows count, and the median window is at 100/s.
        let done: Vec<Instant> = (0..250u64)
            .map(|i| t0 + ms(i * 10))
            .chain((0..300u64).map(|i| t0 + ms(2500 + i * 5)))
            .collect();
        let rate = windowed_rate(&done, t0, t0 + ms(4000), ms(1000)).unwrap();
        assert!((rate - 100.0).abs() < 1e-6, "{rate}");
        assert_eq!(windowed_rate(&done, t0, t0 + ms(500), ms(1000)), None);
    }

    #[test]
    fn schedule_is_fixed_rate() {
        let t0 = Instant::now();
        let d = due_at(t0, Duration::from_millis(5), Duration::from_millis(10), 3);
        assert_eq!(d - t0, Duration::from_millis(35));
    }

    #[test]
    fn fail_ratio_counts_every_kind_of_failure() {
        let mut a = Outcomes { attempted: 100, busy: 1, err: 2, ..Default::default() };
        let b = Outcomes {
            attempted: 100,
            transport: 3,
            wrong_reply: 1,
            unmatched: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.attempted, 200);
        assert_eq!(a.failed(), 10);
        assert!((a.fail_ratio() - 0.05).abs() < 1e-12);
        assert_eq!(Outcomes::default().fail_ratio(), 0.0);
    }

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord { name, parent, op: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("frame", None, 0, 100),
            span("decode", Some(0), 10, 30),
            span("estimate", Some(0), 30, 80),
            // Overlaps `estimate` by 10 ns and runs 5 ns past the parent.
            span("upload", Some(0), 70, 105),
            // A grandchild does not reduce the frame's self time twice.
            span("tracks", Some(2), 40, 60),
        ];
        let children = children_index(&spans);
        // Covered: [10, 100) = 90 ns, so 10 ns of self time.
        assert_eq!(self_time_ns(&spans, &children[0], 0), 10);
        assert_eq!(self_time_ns(&spans, &children[2], 2), 30);
        assert_eq!(self_time_ns(&spans, &children[1], 1), 20);
    }

    #[test]
    fn span_log_records_nested_spans() {
        let mut log = SpanLog::new();
        let outer = log.open("outer", None, 7);
        let inner = log.open("inner", Some(outer), 7);
        std::thread::sleep(Duration::from_millis(2));
        log.close(inner);
        log.close(outer);
        let outer_ns = log.durations("outer")[0];
        let inner_ns = log.durations("inner")[0];
        assert!(inner_ns >= 2e6 && outer_ns >= inner_ns);
        assert_eq!(log.self_times("outer")[0], outer_ns - inner_ns);
        assert!(log.to_csv().lines().nth(2).is_some_and(|l| l.starts_with("1,0,7,inner,")));
        let mut off = SpanLog::disabled();
        let id = off.open("outer", None, 0);
        off.close(id);
        assert!(off.spans().is_empty());
    }
}
