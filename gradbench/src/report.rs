//! Result reporting: the metric catalogue, the human-readable table and
//! the one-line JSON result the benchmark ends with.

use crate::stats::{Outcomes, SpanLog};
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload of an untraced run
/// (`README.md` maps each to its workload-specific meaning).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("max_ops_per_s", "1/s"),
    ("grade_err_p50_deg", "deg"),
    ("grade_err_p95_deg", "deg"),
    ("fuel_err_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload of a traced run. A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.protocol.decode_upload_us", "us"),
    ("serve.protocol.upload_frame_kb", "KB"),
    ("serve.protocol.tile_encode_us", "us"),
    ("serve.protocol.tile_reply_kb", "KB"),
    ("serve.server.unattributed_us", "us"),
    ("serve.server.busy_rejects", "count"),
    ("serve.server.frames_rejected", "count"),
    ("core.pipeline.estimate_us", "us"),
    ("core.pipeline.ns_per_imu_sample", "ns"),
    ("core.pipeline.steering_us", "us"),
    ("core.pipeline.detection_us", "us"),
    ("core.pipeline.tracks_us", "us"),
    ("core.pipeline.fusion_us", "us"),
    ("core.cloud.upload_us", "us"),
    ("core.cloud.cells_per_upload", "count"),
    ("core.cloud.road_profile_us", "us"),
    ("core.cloud.cells_per_tile", "count"),
    ("geo.tile.query_us", "us"),
    ("geo.tile.edges_per_query", "count"),
    ("geo.index.build_ms", "ms"),
    ("sensors.alignment.match_trip_ms", "ms"),
    ("sensors.alignment.matched_fix_ratio", "ratio"),
    ("sensors.alignment.route_recovered_ratio", "ratio"),
    ("core.fleet.busy_ratio", "ratio"),
    ("emissions.route_fuel_us", "us"),
    ("loadgen.late_p90_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: String,
    /// Measured value.
    pub value: f64,
}

/// One correctness check and whether it held.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// Detail printed next to the verdict.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Correctness checks, in the order they ran.
    pub checks: Vec<Check>,
    /// Operations attempted and failed.
    pub outcomes: Outcomes,
    /// Values of the [`END_TO_END`] metrics (untraced run).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Values of the [`PER_LAYER`] metrics the workload exercises
    /// (traced run); the rest report 0.
    pub per_layer: Vec<(&'static str, f64)>,
    /// Rows for the human-readable table, under the names the design
    /// doc uses (`upload_p50_ms`, `tile_p90_ms`, ...).
    pub table: Vec<Metric>,
    /// Why the run is invalid, when the load generator fell behind its
    /// schedule; an invalid run reports no result.
    pub invalid: Option<String>,
    /// The traced run's spans.
    pub spans: Option<SpanLog>,
}

impl Report {
    /// Records a correctness check.
    pub fn check(&mut self, name: &'static str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check { name, passed, detail: detail.into() });
    }

    /// Adds a row to the human-readable table.
    pub fn row(&mut self, name: &str, unit: &str, value: f64) {
        self.table.push(Metric { name: name.to_string(), unit: unit.to_string(), value });
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The metrics of the JSON result: every end-to-end metric for an
    /// untraced run, every per-layer metric for a traced one.
    pub fn metrics(&self, traced: bool) -> Vec<Metric> {
        let (catalogue, values) =
            if traced { (PER_LAYER, &self.per_layer) } else { (END_TO_END, &self.end_to_end) };
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let found = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
                let value = match found {
                    Some(v) => v,
                    None if traced => 0.0,
                    None => f64::NAN,
                };
                Metric { name: name.to_string(), unit: unit.to_string(), value }
            })
            .collect()
    }
}

/// Formats a number for JSON: every digit as measured; non-finite
/// values become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The one-line JSON result.
pub fn result_json(correct: bool, outcomes: &Outcomes, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcomes.attempted.max(1),
        outcomes.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The human-readable summary printed before the JSON line.
pub fn table_text(workload: &str, seed: u64, report: &Report, traced: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workload {workload} seed {seed} trace {}", u8::from(traced));
    for c in &report.checks {
        let verdict = if c.passed { "ok  " } else { "FAIL" };
        let _ = writeln!(out, "  check {verdict} {:<34} {}", c.name, c.detail);
    }
    let o = &report.outcomes;
    let _ = writeln!(
        out,
        "  ops attempted {} failed {} (busy {}, err {}, transport {}, wrong reply {}, unmatched {})",
        o.attempted, o.failed(), o.busy, o.err, o.transport, o.wrong_reply, o.unmatched
    );
    for m in &report.table {
        let _ = writeln!(out, "  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_result_has_every_catalogued_metric() {
        let report = Report { end_to_end: vec![("setup_s", 0.5)], ..Default::default() };
        let metrics = report.metrics(false);
        assert_eq!(metrics.len(), END_TO_END.len());
        let json = result_json(true, &report.outcomes, &metrics);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        // A missing end-to-end value is never silently reported as 0.
        assert!(json.contains("\"latency_p50_ms\": {\"value\": null"));
        let traced = report.metrics(true);
        assert_eq!(traced.len(), PER_LAYER.len());
        assert!(traced.iter().all(|m| m.value == 0.0));
    }

    #[test]
    fn metric_names_and_units_fit_the_result_format() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
