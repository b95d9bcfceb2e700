//! Workspace-level pin of the static analysis layer: the persist lint
//! over all 14 Table III workloads matches the golden report fixtures,
//! stays free of unwaived findings, and the happens-before race
//! detector finds the whole suite clean.
//!
//! The fixtures pin what CI's `analysis` job gates on: the release (RP)
//! and epoch (EP) persistency text reports, and the RP JSON report it
//! uploads as `lint_report.json`. Regenerate them after an intentional
//! workload or rule change:
//!
//! ```text
//! cargo run -p asap-harness --bin persist_lint -- --all-workloads \
//!     > tests/fixtures/lint_golden.txt
//! cargo run -p asap-harness --bin persist_lint -- --all-workloads \
//!     --flavor ep > tests/fixtures/lint_golden_ep.txt
//! cargo run -p asap-harness --bin persist_lint -- --all-workloads \
//!     --json tests/fixtures/lint_golden.json > /dev/null
//! ```

use asap::analysis::driver::{lint_all_workloads, AnalysisParams};
use asap::analysis::LintRun;
use asap::harness::{run_race_check, RunSpec};
use asap::sim::{Flavor, ModelKind, SimConfig};
use asap::workloads::WorkloadKind;

/// Renders a lint run to one of its report forms.
type Render = fn(&LintRun) -> String;

#[test]
fn lint_report_matches_golden_fixture() {
    let cases: [(&str, Flavor, Render, &str); 3] = [
        (
            "lint_golden.txt",
            Flavor::Release,
            LintRun::to_text,
            include_str!("fixtures/lint_golden.txt"),
        ),
        (
            "lint_golden_ep.txt",
            Flavor::Epoch,
            LintRun::to_text,
            include_str!("fixtures/lint_golden_ep.txt"),
        ),
        (
            "lint_golden.json",
            Flavor::Release,
            LintRun::to_json,
            include_str!("fixtures/lint_golden.json"),
        ),
    ];
    for (fixture, flavor, render, golden) in cases {
        let run = lint_all_workloads(&AnalysisParams {
            flavor,
            ..AnalysisParams::default()
        });
        let got = render(&run);
        assert!(
            got == golden,
            "lint report drifted from tests/fixtures/{fixture} — if the \
             change is intentional, regenerate it (see module docs).\n\
             --- got ---\n{got}\n--- expected ---\n{golden}"
        );
    }
}

#[test]
fn suite_has_no_unwaived_findings() {
    let run = lint_all_workloads(&AnalysisParams::default());
    assert_eq!(run.reports.len(), 14);
    assert!(!run.has_findings(), "unwaived findings:\n{}", run.to_text());
    // Waivers stay scoped: at least one workload needs none.
    assert!(run.reports.iter().any(|r| r.waived.is_empty()));
}

#[test]
fn suite_is_persist_race_free() {
    // The leg CI's `race_check --all-workloads` runs: 2 cores, 12 ops
    // per thread, seed 7, ASAP under release persistency.
    let config = SimConfig::builder().cores(2).build().expect("2 cores");
    for kind in WorkloadKind::all() {
        let spec = RunSpec {
            config: config.clone(),
            model: ModelKind::Asap,
            flavor: Flavor::Release,
            workload: kind,
            ops_per_thread: 12,
            seed: 7,
        };
        let (_, report) = run_race_check(&spec);
        assert!(!report.cycle, "{kind}: dependency cycle");
        assert!(
            report.is_clean(),
            "{kind}: unordered persists: {:?}",
            report.races
        );
    }
}
