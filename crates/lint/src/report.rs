//! Machine-readable lint report (SARIF-flavored JSON) and the
//! `--baseline` diff mode.
//!
//! The report is the CI artifact: one JSON document with a stable
//! shape (`gradestLint/v1`) listing every finding with rule, severity,
//! location, message, and a *fingerprint* that survives unrelated
//! edits. The fingerprint hashes the rule, the file path, the message
//! with digit runs stripped (so line numbers and counts embedded in
//! chain messages don't churn it), and an ordinal disambiguating
//! repeated identical findings in one file — deliberately *not* the
//! line number, so inserting a comment above a finding does not make
//! it "new".
//!
//! `diff(baseline, current)` classifies current findings as `new` or
//! `unchanged` against a previously accepted report and counts fixed
//! (absent) ones; only **new errors** fail the gate, so a baseline can
//! ratchet an imperfect tree while blocking regressions.
//!
//! Both directions go through the vendored `serde_json` shim (std-only,
//! in-tree), so reading a baseline inherits its strict parser: malformed
//! input, including nesting deeper than the shim's cap, is an error,
//! never a panic.

use crate::rules::{severity, Severity};
use crate::FileDiagnostics;
use serde_json::{json, Value};
use std::collections::HashMap;

/// Schema identifier written into (and required from) every report.
pub const SCHEMA: &str = "gradestLint/v1";

/// One finding in flattened report form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name.
    pub rule: String,
    /// Severity (`error` gates, `note` is advisory).
    pub severity: Severity,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Message text.
    pub msg: String,
    /// Stable fingerprint (see module docs).
    pub fingerprint: u64,
}

/// A full report: schema + findings, ordered by (path, line, rule).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Flattens per-file diagnostics into a report, assigning
    /// fingerprints (with per-key ordinals for repeats).
    pub fn from_diagnostics(files: &[FileDiagnostics]) -> Report {
        let mut findings = Vec::new();
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for file in files {
            let path = path_str(&file.path);
            for d in &file.diagnostics {
                let base = fingerprint(d.rule, &path, &d.msg, 0);
                let ordinal = seen.entry(base).or_insert(0);
                let fp =
                    if *ordinal == 0 { base } else { fingerprint(d.rule, &path, &d.msg, *ordinal) };
                *ordinal += 1;
                findings.push(Finding {
                    rule: d.rule.to_string(),
                    severity: severity(d.rule),
                    path: path.clone(),
                    line: d.line,
                    msg: d.msg.clone(),
                    fingerprint: fp,
                });
            }
        }
        findings.sort_by(|a, b| {
            (&a.path, a.line, &a.rule, &a.msg).cmp(&(&b.path, b.line, &b.rule, &b.msg))
        });
        Report { findings }
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Error).count()
    }

    /// Serializes to the `gradestLint/v1` JSON document (pretty,
    /// stable key order, trailing newline).
    pub fn to_json(&self) -> String {
        let results: Vec<Value> = self
            .findings
            .iter()
            .map(|f| {
                json!({
                    "ruleId": f.rule,
                    "level": match f.severity {
                        Severity::Error => "error",
                        Severity::Note => "note",
                    },
                    "message": { "text": f.msg },
                    "location": { "uri": f.path, "line": f.line },
                    "fingerprint": format!("{:016x}", f.fingerprint),
                })
            })
            .collect();
        let doc = json!({
            "$schema": SCHEMA,
            "tool": { "name": "gradest-lint" },
            "results": results,
        });
        let mut out = doc.to_string_pretty();
        out.push('\n');
        out
    }

    /// Parses a report previously written by [`Report::to_json`].
    pub fn from_json(src: &str) -> Result<Report, String> {
        let value: Value = serde_json::from_str(src).map_err(|e| e.to_string())?;
        let obj = value.as_object().ok_or("report root is not an object")?;
        match obj.get("$schema").and_then(Value::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unsupported report schema `{other}`")),
            None => return Err("report missing $schema".to_string()),
        }
        let results =
            obj.get("results").and_then(Value::as_array).ok_or("report missing `results` array")?;
        let mut findings = Vec::with_capacity(results.len());
        for (i, r) in results.iter().enumerate() {
            let r = r.as_object().ok_or_else(|| format!("results[{i}] is not an object"))?;
            let get_str = |key: &str| -> Result<&str, String> {
                r.get(key)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("results[{i}] missing string `{key}`"))
            };
            let rule = get_str("ruleId")?.to_string();
            let sev = match get_str("level")? {
                "error" => Severity::Error,
                "note" => Severity::Note,
                other => return Err(format!("results[{i}] unknown level `{other}`")),
            };
            let msg = r
                .get("message")
                .and_then(|m| m.get("text"))
                .and_then(Value::as_str)
                .ok_or_else(|| format!("results[{i}] missing message.text"))?
                .to_string();
            let loc = r
                .get("location")
                .and_then(Value::as_object)
                .ok_or_else(|| format!("results[{i}] missing location"))?;
            let path = loc
                .get("uri")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("results[{i}] missing location.uri"))?
                .to_string();
            let line = loc
                .get("line")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("results[{i}] missing location.line"))?;
            let line = u32::try_from(line)
                .map_err(|_| format!("results[{i}] location.line {line} out of range"))?;
            let fingerprint = u64::from_str_radix(get_str("fingerprint")?, 16)
                .map_err(|e| format!("results[{i}] bad fingerprint: {e}"))?;
            findings.push(Finding { rule, severity: sev, path, line, msg, fingerprint });
        }
        Ok(Report { findings })
    }
}

/// Outcome of diffing a current report against an accepted baseline.
#[derive(Debug, Default)]
pub struct Diff {
    /// Findings absent from the baseline (these fail the gate when
    /// error-severity).
    pub new: Vec<Finding>,
    /// Findings whose fingerprint appears in the baseline.
    pub unchanged: Vec<Finding>,
    /// Baseline fingerprints with no current match (fixed findings).
    pub fixed: usize,
}

/// Classifies `current` findings against `baseline` by fingerprint.
pub fn diff(baseline: &Report, current: &Report) -> Diff {
    let mut budget: HashMap<u64, usize> = HashMap::new();
    for f in &baseline.findings {
        *budget.entry(f.fingerprint).or_insert(0) += 1;
    }
    let mut out = Diff::default();
    for f in &current.findings {
        match budget.get_mut(&f.fingerprint) {
            Some(n) if *n > 0 => {
                *n -= 1;
                out.unchanged.push(f.clone());
            }
            _ => out.new.push(f.clone()),
        }
    }
    out.fixed = budget.values().sum();
    out
}

fn path_str(path: &std::path::Path) -> String {
    // `/`-separated regardless of host, so reports diff cleanly.
    path.iter().filter_map(|c| c.to_str()).collect::<Vec<_>>().join("/")
}

/// FNV-1a 64 over `rule | path | msg-with-digit-runs-stripped | ordinal`.
fn fingerprint(rule: &str, path: &str, msg: &str, ordinal: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(rule.as_bytes());
    eat(b"|");
    eat(path.as_bytes());
    eat(b"|");
    let mut prev_digit = false;
    for b in msg.bytes() {
        if b.is_ascii_digit() {
            if !prev_digit {
                eat(b"#");
            }
            prev_digit = true;
        } else {
            prev_digit = false;
            eat(&[b]);
        }
    }
    eat(b"|");
    eat(&ordinal.to_le_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{RULE_NO_PANIC, RULE_UNUSED_PUB};
    use std::path::PathBuf;

    fn sample() -> Report {
        Report::from_diagnostics(&[
            FileDiagnostics {
                path: PathBuf::from("crates/core/src/ekf.rs"),
                diagnostics: vec![
                    crate::Diagnostic {
                        rule: RULE_NO_PANIC,
                        line: 12,
                        msg: "`.unwrap()` on line 12 \"quoted\"".to_string(),
                    },
                    crate::Diagnostic {
                        rule: RULE_NO_PANIC,
                        line: 40,
                        msg: "`.unwrap()` on line 40 \"quoted\"".to_string(),
                    },
                ],
            },
            FileDiagnostics {
                path: PathBuf::from("crates/geo/src/road.rs"),
                diagnostics: vec![crate::Diagnostic {
                    rule: RULE_UNUSED_PUB,
                    line: 3,
                    msg: "pub fn `lonely` referenced nowhere else".to_string(),
                }],
            },
        ])
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample();
        let parsed = Report::from_json(&report.to_json()).expect("round trip");
        assert_eq!(parsed.findings, report.findings);
        assert_eq!(report.error_count(), 2);
    }

    #[test]
    fn reports_from_the_hand_written_v1_writer_still_load() {
        // Written by the writer this crate used before it built reports
        // through serde_json; baselines stored by CI look like this.
        let old = include_str!("../tests/fixtures/report_v1_handwritten.json");
        let parsed = Report::from_json(old).expect("old-format report loads");
        assert_eq!(parsed.findings, sample().findings);
    }

    #[test]
    fn fingerprints_ignore_line_numbers_but_split_repeats() {
        let r = sample();
        // Same rule+path+digit-stripped msg: ordinals make them unique.
        assert_ne!(r.findings[0].fingerprint, r.findings[1].fingerprint);
        assert_eq!(fingerprint("r", "p", "line 12", 0), fingerprint("r", "p", "line 999", 0));
        assert_ne!(fingerprint("r", "p", "m", 0), fingerprint("r", "q", "m", 0));
    }

    #[test]
    fn diff_classifies_new_unchanged_fixed() {
        let baseline = sample();
        let mut current = sample();
        // Drop one baseline finding (fixed), add one new.
        current.findings.remove(0);
        current.findings.push(Finding {
            rule: "no-panic".to_string(),
            severity: Severity::Error,
            path: "crates/core/src/track.rs".to_string(),
            line: 7,
            msg: "`panic!`".to_string(),
            fingerprint: fingerprint("no-panic", "crates/core/src/track.rs", "`panic!`", 0),
        });
        let d = diff(&baseline, &current);
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.unchanged.len(), 2);
        assert_eq!(d.fixed, 1);
        assert_eq!(d.new[0].path, "crates/core/src/track.rs");
    }

    #[test]
    fn malformed_reports_error_not_panic() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"$schema\": \"other/v9\", \"results\": []}",
            "{\"results\": []}",
            "{\"$schema\": \"gradestLint/v1\", \"results\": [{}]}",
            "{\"$schema\": \"gradestLint/v1\", \"results\": 3}",
            // A line above u32::MAX must not wrap to a small one.
            "{\"$schema\": \"gradestLint/v1\", \"results\": [{\"ruleId\": \"no-panic\", \
             \"level\": \"error\", \"message\": {\"text\": \"m\"}, \
             \"location\": {\"uri\": \"a.rs\", \"line\": 4294967297}, \
             \"fingerprint\": \"00000000000000ff\"}]}",
        ] {
            assert!(Report::from_json(bad).is_err(), "accepted: {bad}");
        }
        // Deep nesting is a parse error, not a stack overflow.
        assert!(Report::from_json(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn empty_report_round_trips() {
        let r = Report::default();
        let parsed = Report::from_json(&r.to_json()).expect("empty round trip");
        assert!(parsed.findings.is_empty());
        let d = diff(&parsed, &r);
        assert!(d.new.is_empty() && d.unchanged.is_empty() && d.fixed == 0);
    }
}
