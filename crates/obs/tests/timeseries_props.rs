//! Property tests for `obs::timeseries`: the log-linear sketch's
//! quantile estimates stay inside the advertised relative-error bound
//! against an exact nearest-rank oracle, the ring's rotation /
//! `delta()` bookkeeping matches a straightforward per-window model
//! across window boundaries, and merging a `WindowTally` gives the
//! window that recording its records one by one gives.

use gradest_obs::timeseries::{
    TimeSeries, TimeSeriesConfig, WindowTally, SKETCH_MAX_MAGNITUDE, SKETCH_MIN_MAGNITUDE,
    SKETCH_RELATIVE_ERROR,
};
use gradest_obs::{Counter, Histogram, Span};
use proptest::prelude::*;

/// Positive magnitudes inside the sketch's representable range (with a
/// little margin off both ends), spread across many decades so the
/// generated sets exercise far-apart buckets, not one octave.
fn sketch_value() -> impl Strategy<Value = f64> {
    (-5.0..12.0f64, 1.0..10.0f64).prop_map(|(exp, mantissa)| {
        let v = mantissa * 10.0f64.powf(exp);
        v.clamp(SKETCH_MIN_MAGNITUDE * 2.0, SKETCH_MAX_MAGNITUDE / 2.0)
    })
}

/// Exact nearest-rank quantile over `sorted`: the `max(⌈q·n⌉, 1)`-th
/// smallest value — the same rank convention the sketch uses.
fn oracle_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1).min(sorted.len());
    sorted[rank - 1]
}

/// One record for the merge properties: a counter bump, a span
/// duration, or a histogram observation.
#[derive(Debug, Clone, Copy)]
enum Record {
    Incr(Counter, u64),
    Span(Span, u64),
    Observe(Histogram, f64),
}

/// Signed values of every sketch class: exact zeros, NaN, infinities,
/// sub-resolution magnitudes, edge-clamped huge ones and ordinary
/// magnitudes over many octaves.
fn any_value() -> impl Strategy<Value = f64> {
    (0..8u8, -1.0..1.0f64, -30..50i32).prop_map(|(class, mantissa, exp)| match class {
        0 => 0.0,
        1 => f64::NAN,
        2 => f64::INFINITY.copysign(mantissa),
        3 => mantissa * 1e-9,
        4 => mantissa * 1e20,
        _ => mantissa * 2f64.powi(exp),
    })
}

/// Records drawn over a few counters, spans and histograms, so cells
/// collect several records each.
fn record() -> impl Strategy<Value = Record> {
    (0..3u8, 0..3usize, 1..1_000u64, any_value()).prop_map(|(kind, i, n, v)| match kind {
        0 => Record::Incr(Counter::ALL[i], n),
        1 => Record::Span(Span::ALL[i], (v.abs() * 1e3).min(1e15) as u64),
        _ => Record::Observe(Histogram::ALL[i], v),
    })
}

fn record_one(ts: &TimeSeries, t: u64, r: Record) {
    match r {
        Record::Incr(c, by) => ts.incr_at(t, c, by),
        Record::Span(s, ns) => ts.span_at(t, s, ns),
        Record::Observe(h, v) => ts.observe_at(t, h, v),
    }
}

fn tally_one(tally: &mut WindowTally, r: Record) {
    match r {
        Record::Incr(c, by) => tally.incr(c, by),
        Record::Span(s, ns) => tally.span(s, ns),
        Record::Observe(h, v) => tally.observe(h, v),
    }
}

/// Every rank's quantile estimate: for `n` observations, `q = (k−½)/n`
/// selects rank `k` exactly, so equal lists mean equal zero, negative
/// and positive bucket counts.
fn every_rank(n: u64, quantile: impl Fn(f64) -> Option<f64>) -> Vec<u64> {
    (1..=n).map(|k| quantile((k as f64 - 0.5) / n as f64).map_or(u64::MAX, f64::to_bits)).collect()
}

/// Asserts that the windows containing `t` in `a` and `b` hold equal
/// counters, counts and buckets for every counter, span and histogram.
fn assert_same_counts(a: &TimeSeries, b: &TimeSeries, t: u64) {
    for c in Counter::ALL {
        assert_eq!(a.delta(c, 1, t), b.delta(c, 1, t), "{:?}", c);
    }
    for s in Span::ALL {
        let n = b.span_count(s, 1, t);
        assert_eq!(a.span_count(s, 1, t), n, "{:?}", s);
        assert_eq!(
            every_rank(n, |q| a.span_quantile(s, q, 1, t)),
            every_rank(n, |q| b.span_quantile(s, q, 1, t))
        );
    }
    for h in Histogram::ALL {
        let n = b.hist_count(h, 1, t);
        assert_eq!(a.hist_count(h, 1, t), n, "{:?}", h);
        assert_eq!(
            every_rank(n, |q| a.hist_quantile(h, q, 1, t)),
            every_rank(n, |q| b.hist_quantile(h, q, 1, t))
        );
    }
}

/// Bound on the difference between two recursive float sums of the
/// same `n` terms (plus a starting value) grouped differently: each
/// is within `n·ε/2` (to first order) of the exact sum, relative to
/// the sum of magnitudes, so they differ by at most `(n+1)·ε` of it.
fn sum_bound(n: usize, magnitudes: f64) -> f64 {
    (n + 1) as f64 * f64::EPSILON * magnitudes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Merging a tally at `t` gives the window that recording each of
    /// its records at `t` gives: counters, counts and every bucket
    /// exactly, histogram sums within `sum_bound` (exactly when the
    /// window was empty). `before` lands in the window first, so the
    /// merge also adds into cells that already hold data.
    #[test]
    fn merging_a_tally_equals_recording_each_record(
        before in prop::collection::vec(record(), 0..20),
        records in prop::collection::vec(record(), 1..200),
    ) {
        let cfg = TimeSeriesConfig { window_ns: 1_000, windows: 4 };
        let t = 2_500;
        let direct = TimeSeries::new(cfg);
        let merged = TimeSeries::new(cfg);
        let mut tally = WindowTally::new();
        for &r in &before {
            record_one(&direct, t, r);
            record_one(&merged, t, r);
        }
        for &r in &records {
            record_one(&direct, t, r);
            tally_one(&mut tally, r);
        }
        merged.merge_at(t, &tally);
        assert_same_counts(&merged, &direct, t);
        for h in Histogram::ALL {
            let n = direct.hist_count(h, 1, t);
            let (Some(m), Some(d)) = (merged.hist_mean(h, 1, t), direct.hist_mean(h, 1, t)) else {
                prop_assert_eq!(merged.hist_mean(h, 1, t).is_none(), direct.hist_mean(h, 1, t).is_none());
                continue;
            };
            // The sketch sum skips non-finite values.
            let terms: Vec<f64> = before
                .iter()
                .chain(&records)
                .filter_map(|r| match *r {
                    Record::Observe(hh, v) if hh == h && v.is_finite() => Some(v),
                    _ => None,
                })
                .collect();
            let magnitudes: f64 = terms.iter().map(|v| v.abs()).sum();
            if before.iter().all(|r| !matches!(*r, Record::Observe(hh, _) if hh == h)) {
                // Into an empty cell the merged sum is the tally's sum,
                // accumulated in the same order: exact.
                prop_assert_eq!(m.to_bits(), d.to_bits(), "{:?}", h);
            }
            // Means are sums over the same count; allow the division's
            // own rounding on top of the sums' bound.
            let bound = sum_bound(terms.len(), magnitudes) / n as f64
                + f64::EPSILON * (m.abs() + d.abs());
            prop_assert!((m - d).abs() <= bound, "{h:?}: merged mean {m} vs recorded {d}");
        }
        prop_assert_eq!(merged.late_drops(), 0);
    }

    /// A tally whose window already left the ring is discarded and
    /// counted once in `late_drops`, however many records it holds;
    /// an empty tally is no drop at all. Cleared and refilled, the
    /// tally merges as if new.
    #[test]
    fn a_late_tally_is_dropped_and_counted_once(
        records in prop::collection::vec(record(), 1..100),
        newest in 20..40u64,
    ) {
        const WINDOW_NS: u64 = 1_000;
        const WINDOWS: usize = 8;
        let ts = TimeSeries::new(TimeSeriesConfig { window_ns: WINDOW_NS, windows: WINDOWS });
        let now = newest * WINDOW_NS;
        ts.advance_to(now);
        let mut tally = WindowTally::new();
        ts.merge_at(0, &tally);
        prop_assert_eq!(ts.late_drops(), 0);
        for &r in &records {
            tally_one(&mut tally, r);
        }
        ts.merge_at(0, &tally);
        prop_assert_eq!(ts.late_drops(), 1);
        for c in Counter::ALL {
            prop_assert_eq!(ts.delta(c, WINDOWS, now), 0);
        }
        for h in Histogram::ALL {
            prop_assert_eq!(ts.hist_count(h, WINDOWS, now), 0);
        }
        // Cleared, the tally merges as empty: nothing lands, no drop.
        tally.clear();
        ts.merge_at(now, &tally);
        prop_assert_eq!(ts.late_drops(), 1);
        for s in Span::ALL {
            prop_assert_eq!(ts.span_count(s, WINDOWS, now), 0);
        }
        // Refilled, it holds only the new records.
        let direct = TimeSeries::new(TimeSeriesConfig { window_ns: WINDOW_NS, windows: WINDOWS });
        for &r in records.iter().rev() {
            tally_one(&mut tally, r);
            record_one(&direct, now, r);
        }
        ts.merge_at(now, &tally);
        assert_same_counts(&ts, &direct, now);
    }

    /// Every quantile estimate is within `SKETCH_RELATIVE_ERROR` of the
    /// exact nearest-rank value, for arbitrary positive value sets and
    /// arbitrary q.
    #[test]
    fn quantile_estimates_stay_inside_relative_error_bound(
        values in prop::collection::vec(sketch_value(), 1..200),
        q in 0.001..1.0f64,
    ) {
        let ts = TimeSeries::new(TimeSeriesConfig::default());
        let t = 10; // all observations in one live window
        for &v in &values {
            ts.observe_at(t, Histogram::EkfMeanNis, v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let exact = oracle_quantile(&sorted, q);
        let est = ts
            .hist_quantile(Histogram::EkfMeanNis, q, 1, t)
            .expect("populated sketch has quantiles");
        prop_assert!(
            (est - exact).abs() <= SKETCH_RELATIVE_ERROR * exact.abs(),
            "q={q}: estimate {est} deviates from exact {exact} by more than {}",
            SKETCH_RELATIVE_ERROR
        );
    }

    /// The median and the extremes never cross: p0.01 ≤ p0.5 ≤ p0.99 on
    /// the same merged sketch (monotonicity of the cumulative walk).
    #[test]
    fn quantiles_are_monotone_in_q(
        values in prop::collection::vec(sketch_value(), 1..100),
    ) {
        let ts = TimeSeries::new(TimeSeriesConfig::default());
        for &v in &values {
            ts.observe_at(5, Histogram::GpsGapSeconds, v);
        }
        let p01 = ts.hist_quantile(Histogram::GpsGapSeconds, 0.01, 1, 5).expect("p01");
        let p50 = ts.hist_quantile(Histogram::GpsGapSeconds, 0.5, 1, 5).expect("p50");
        let p99 = ts.hist_quantile(Histogram::GpsGapSeconds, 0.99, 1, 5).expect("p99");
        prop_assert!(p01 <= p50 && p50 <= p99, "p01={p01} p50={p50} p99={p99}");
    }

    /// `delta()` over the last k windows equals a straightforward
    /// per-window model, for monotone event streams that cross many
    /// ring-rotation boundaries (offsets range over 3× the ring size).
    #[test]
    fn delta_matches_per_window_model_across_rotations(
        events in prop::collection::vec((0..24u64, 1..100u64), 1..60),
        lookback in 1..8usize,
    ) {
        const WINDOW_NS: u64 = 1_000;
        const WINDOWS: usize = 8;
        let ts = TimeSeries::new(TimeSeriesConfig { window_ns: WINDOW_NS, windows: WINDOWS });
        // The ring only moves forward; feed events in time order so
        // none are late-dropped (late arrival is pinned separately).
        let mut events = events;
        events.sort_by_key(|(w, _)| *w);
        for &(w, by) in &events {
            ts.incr_at(w * WINDOW_NS + WINDOW_NS / 2, Counter::TripsProcessed, by);
        }
        let newest = events.last().map(|(w, _)| *w).unwrap_or(0);
        let now = newest * WINDOW_NS + WINDOW_NS / 2;
        // Model: the k windows ending at (and including) the live one.
        let oldest_counted = (newest + 1).saturating_sub(lookback as u64);
        let expected: u64 = events
            .iter()
            .filter(|(w, _)| *w >= oldest_counted && *w <= newest)
            .map(|(_, by)| *by)
            .sum();
        prop_assert_eq!(ts.delta(Counter::TripsProcessed, lookback, now), expected);
        prop_assert_eq!(ts.late_drops(), 0);
    }

    /// Advancing a full ring past the newest event clears every window:
    /// the delta over the whole ring drains to zero and no spurious
    /// counts survive rotation.
    #[test]
    fn advancing_a_full_ring_forgets_everything(
        events in prop::collection::vec((0..8u64, 1..100u64), 1..30),
    ) {
        const WINDOW_NS: u64 = 1_000;
        const WINDOWS: usize = 8;
        let ts = TimeSeries::new(TimeSeriesConfig { window_ns: WINDOW_NS, windows: WINDOWS });
        let mut sorted = events.clone();
        sorted.sort_by_key(|(w, _)| *w);
        for &(w, by) in &sorted {
            ts.incr_at(w * WINDOW_NS, Counter::TripsProcessed, by);
        }
        let far = (8 + WINDOWS as u64 + 1) * WINDOW_NS;
        ts.advance_to(far);
        prop_assert_eq!(ts.delta(Counter::TripsProcessed, WINDOWS, far), 0);
    }

    /// An event older than the whole ring is dropped, counted in
    /// `late_drops`, and never resurrects an evicted window.
    #[test]
    fn late_events_are_dropped_not_misfiled(
        newest in 20..40u64,
        by in 1..100u64,
    ) {
        const WINDOW_NS: u64 = 1_000;
        const WINDOWS: usize = 8;
        let ts = TimeSeries::new(TimeSeriesConfig { window_ns: WINDOW_NS, windows: WINDOWS });
        let now = newest * WINDOW_NS;
        ts.incr_at(now, Counter::TripsProcessed, 1);
        // A timestamp from before the ring's horizon: window 0 was
        // evicted long ago.
        ts.incr_at(0, Counter::TripsProcessed, by);
        prop_assert_eq!(ts.late_drops(), 1);
        prop_assert_eq!(ts.delta(Counter::TripsProcessed, WINDOWS, now), 1);
    }
}
