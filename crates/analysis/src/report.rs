//! Deterministic text and JSON rendering of lint/race results.
//!
//! The text form is what the `persist_lint` binary prints; the JSON form
//! is the CI artifact. Golden fixtures (`tests/fixtures/` in the
//! workspace root) pin both over all 14 workloads.
//! Both are fully deterministic: findings arrive pre-sorted from
//! [`crate::lint::lint_streams`] and every map is rendered in sorted
//! order. JSON is hand-rolled (the workspace is dependency-free).

use crate::lint::{Finding, Severity};
use asap_sim_core::Flavor;
use std::fmt::Write as _;

/// Lint results for one workload.
#[derive(Debug)]
pub struct WorkloadLintReport {
    /// Workload label (figure x-axis name).
    pub workload: String,
    /// Flavor the streams were segmented under.
    pub flavor: Flavor,
    /// Threads analyzed.
    pub threads: usize,
    /// Total micro-ops across the streams.
    pub micro_ops: usize,
    /// `false` if extraction hit its burst budget.
    pub complete: bool,
    /// Active findings (fail `--deny-warnings`).
    pub findings: Vec<Finding>,
    /// Waived findings, with the waiver reason.
    pub waived: Vec<(Finding, String)>,
}

impl WorkloadLintReport {
    /// No active findings (waived ones do not count).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Active findings at [`Severity::Error`].
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }
}

/// A whole lint run: one report per workload.
#[derive(Debug, Default)]
pub struct LintRun {
    /// Per-workload reports, in the order they were linted.
    pub reports: Vec<WorkloadLintReport>,
    /// Waivers this run could have exercised but that matched nothing,
    /// as `(workload, rule)` pairs (see
    /// [`crate::waivers::stale_waivers`]). Non-empty fails the
    /// `--deny-warnings` gate: a rotted waiver is primed to mask the
    /// next regression of its rule.
    pub stale_waivers: Vec<(String, String)>,
}

impl LintRun {
    /// Total active findings across workloads.
    pub fn total_findings(&self) -> usize {
        self.reports.iter().map(|r| r.findings.len()).sum()
    }

    /// Total waived findings across workloads.
    pub fn total_waived(&self) -> usize {
        self.reports.iter().map(|r| r.waived.len()).sum()
    }

    /// Whether any workload has an active finding.
    pub fn has_findings(&self) -> bool {
        self.total_findings() > 0
    }

    /// The golden-fixture text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in &self.reports {
            let _ = writeln!(
                out,
                "## {} ({}, {} threads, {} micro-ops{})",
                r.workload,
                flavor_name(r.flavor),
                r.threads,
                r.micro_ops,
                if r.complete { "" } else { ", TRUNCATED" },
            );
            if r.findings.is_empty() && r.waived.is_empty() {
                let _ = writeln!(out, "clean");
            }
            for f in &r.findings {
                let _ = writeln!(out, "{f}");
            }
            for (f, reason) in &r.waived {
                let _ = writeln!(
                    out,
                    "#[allow(persist_lint::{})] {f} (waived: {reason})",
                    f.rule.replace('-', "_"),
                );
            }
            let _ = writeln!(out);
        }
        // Stale-waiver audit lines render only when non-empty, so the
        // golden fixture (no stale waivers) is unchanged.
        for (workload, rule) in &self.stale_waivers {
            let _ = writeln!(
                out,
                "stale waiver: ({workload}, {rule}) no longer matches any finding"
            );
        }
        if !self.stale_waivers.is_empty() {
            let _ = writeln!(out);
        }
        let _ = writeln!(
            out,
            "total: {} finding(s), {} waived across {} workload(s)",
            self.total_findings(),
            self.total_waived(),
            self.reports.len()
        );
        out
    }

    /// The CI-artifact JSON form.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"workloads\":[");
        for (i, r) in self.reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"workload\":{},\"flavor\":{},\"threads\":{},\"microOps\":{},\
                 \"complete\":{},\"findings\":[",
                json_str(&r.workload),
                json_str(flavor_name(r.flavor)),
                r.threads,
                r.micro_ops,
                r.complete
            );
            for (j, f) in r.findings.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&finding_json(f, None));
            }
            out.push_str("],\"waived\":[");
            for (j, (f, reason)) in r.waived.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&finding_json(f, Some(reason)));
            }
            out.push_str("]}");
        }
        out.push_str("],\"staleWaivers\":[");
        for (i, (workload, rule)) in self.stale_waivers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"workload\":{},\"rule\":{}}}",
                json_str(workload),
                json_str(rule)
            );
        }
        let _ = write!(
            out,
            "],\"totalFindings\":{},\"totalWaived\":{}}}",
            self.total_findings(),
            self.total_waived()
        );
        out
    }
}

fn flavor_name(f: Flavor) -> &'static str {
    match f {
        Flavor::Epoch => "epoch",
        Flavor::Release => "release",
    }
}

fn finding_json(f: &Finding, reason: Option<&str>) -> String {
    let mut s = format!(
        "{{\"rule\":{},\"severity\":{},\"thread\":{},\"opIndex\":{},\"epoch\":{}",
        json_str(f.rule),
        json_str(&f.severity.to_string()),
        f.thread,
        f.op_index,
        f.epoch_ts
    );
    if let Some(line) = f.line {
        let _ = write!(s, ",\"line\":\"{:#x}\"", line.byte_addr());
    }
    let _ = write!(s, ",\"message\":{}", json_str(&f.message));
    if let Some(r) = reason {
        let _ = write!(s, ",\"waivedBecause\":{}", json_str(r));
    }
    s.push('}');
    s
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_sim_core::LineAddr;

    fn finding() -> Finding {
        Finding {
            rule: "redundant-flush",
            severity: Severity::Warning,
            thread: 1,
            op_index: 5,
            epoch_ts: 2,
            line: Some(LineAddr::containing(0x1040)),
            message: "line \"x\" flushed twice".into(),
        }
    }

    fn run() -> LintRun {
        LintRun {
            reports: vec![WorkloadLintReport {
                workload: "cceh".into(),
                flavor: Flavor::Release,
                threads: 2,
                micro_ops: 120,
                complete: true,
                findings: vec![finding()],
                waived: vec![(finding(), "fixture".into())],
            }],
            stale_waivers: Vec::new(),
        }
    }

    #[test]
    fn stale_waivers_render_in_text_and_json_only_when_present() {
        let mut r = run();
        assert!(!r.to_text().contains("stale waiver"));
        assert!(r.to_json().contains("\"staleWaivers\":[]"));
        r.stale_waivers
            .push(("queue".to_string(), "missing-persist".to_string()));
        let text = r.to_text();
        assert!(
            text.contains("stale waiver: (queue, missing-persist) no longer matches any finding"),
            "{text}"
        );
        assert!(r
            .to_json()
            .contains("\"staleWaivers\":[{\"workload\":\"queue\",\"rule\":\"missing-persist\"}]"));
    }

    #[test]
    fn text_report_lists_findings_and_waivers() {
        let text = run().to_text();
        assert!(text.contains("## cceh (release, 2 threads, 120 micro-ops)"));
        assert!(text.contains("warning[redundant-flush] T1 op#5 epoch 2 L0x1040"));
        assert!(text.contains("#[allow(persist_lint::redundant_flush)]"));
        assert!(text.contains("waived: fixture"));
        assert!(text.contains("total: 1 finding(s), 1 waived across 1 workload(s)"));
    }

    #[test]
    fn clean_report_says_clean() {
        let mut r = run();
        r.reports[0].findings.clear();
        r.reports[0].waived.clear();
        assert!(r.reports[0].is_clean());
        assert!(r.to_text().contains("clean"));
        assert!(!r.has_findings());
    }

    #[test]
    fn json_escapes_and_structures() {
        let json = run().to_json();
        assert!(json.contains("\"workload\":\"cceh\""));
        assert!(json.contains("\"line\":\"0x1040\""));
        assert!(json.contains("line \\\"x\\\" flushed twice"));
        assert!(json.contains("\"waivedBecause\":\"fixture\""));
        assert!(json.contains("\"totalFindings\":1"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn errors_counts_only_errors() {
        let mut r = run();
        assert_eq!(r.reports[0].errors(), 0);
        r.reports[0].findings[0].severity = Severity::Error;
        assert_eq!(r.reports[0].errors(), 1);
    }
}
