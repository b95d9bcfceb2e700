//! Glue from the workload suite to the two analysis passes.
//!
//! [`lint_run_with`] runs the static lint over the streams each
//! workload generates under a waiver table, and [`lint_all_workloads`]
//! runs it over the whole suite under the built-in table
//! ([`crate::waivers::BUILTIN_WAIVERS`]), so its report corresponds
//! exactly to what the CI gate enforces. The race pass simulates, so its
//! leg is built where every closed-loop leg is (the harness's
//! `run_race_check`); [`race_findings`] turns its report into lint-style
//! findings for the same waiver table.

use crate::extract::extract_streams;
use crate::lint::{lint_streams, Finding, Severity};
use crate::report::{LintRun, WorkloadLintReport};
use crate::waivers::{self, Waiver};
use asap_core::RaceReport;
use asap_sim_core::Flavor;
use asap_workloads::{make_workload, WorkloadKind, WorkloadParams};

/// Parameters for an analysis run over the workload suite.
#[derive(Debug, Clone)]
pub struct AnalysisParams {
    /// Threads (programs) per workload.
    pub threads: usize,
    /// Logical operations per thread.
    pub ops_per_thread: u64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Persistency flavor (epoch segmentation).
    pub flavor: Flavor,
}

/// Burst budget for static extraction of one workload.
const MAX_BURSTS: u64 = 2_000_000;

impl Default for AnalysisParams {
    fn default() -> AnalysisParams {
        AnalysisParams {
            threads: 2,
            ops_per_thread: 12,
            seed: 7,
            flavor: Flavor::Release,
        }
    }
}

impl AnalysisParams {
    fn workload_params(&self) -> WorkloadParams {
        WorkloadParams {
            threads: self.threads,
            ops_per_thread: self.ops_per_thread,
            seed: self.seed,
            ..WorkloadParams::default()
        }
    }
}

/// Statically lint one workload under `waivers`: its report, plus the
/// waiver-usage vector the stale audit aggregates (parallel to
/// `waivers`; see [`waivers::partition`]).
fn lint_workload(
    kind: WorkloadKind,
    p: &AnalysisParams,
    waivers: &[Waiver],
) -> (WorkloadLintReport, Vec<bool>) {
    let mut programs = make_workload(kind, &p.workload_params());
    let extracted = extract_streams(&mut programs, MAX_BURSTS);
    let findings = lint_streams(&extracted.streams, p.flavor);
    let (findings, waived, used) = waivers::partition(findings, kind.label(), waivers);
    (
        WorkloadLintReport {
            workload: kind.label().to_string(),
            flavor: p.flavor,
            threads: programs.len(),
            micro_ops: extracted.total_ops(),
            complete: extracted.complete,
            findings,
            waived,
        },
        used,
    )
}

/// Lint `kinds` in order under `waivers` and run the stale-waiver audit
/// over the whole run: the returned [`LintRun::stale_waivers`] lists
/// every waiver this run could have exercised but that matched nothing.
pub fn lint_run_with(kinds: &[WorkloadKind], p: &AnalysisParams, waivers: &[Waiver]) -> LintRun {
    let mut used = vec![false; waivers.len()];
    let mut reports = Vec::with_capacity(kinds.len());
    for &k in kinds {
        let (report, u) = lint_workload(k, p, waivers);
        for (acc, fired) in used.iter_mut().zip(u) {
            *acc |= fired;
        }
        reports.push(report);
    }
    let linted: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
    LintRun {
        reports,
        stale_waivers: waivers::stale_waivers(waivers, &linted, &used),
    }
}

/// Lint the whole Table III suite (14 workloads) in figure order, with
/// the stale-waiver audit over the built-in table.
pub fn lint_all_workloads(p: &AnalysisParams) -> LintRun {
    lint_run_with(&WorkloadKind::all(), p, waivers::BUILTIN_WAIVERS)
}

/// Render a race report as lint-style findings (rule `persist-race`,
/// severity error), so race results flow through the same waiver and
/// report machinery as the static lint.
pub fn race_findings(report: &RaceReport) -> Vec<Finding> {
    report
        .races
        .iter()
        .map(|r| Finding {
            rule: "persist-race",
            severity: Severity::Error,
            thread: r.first.epoch.thread.0,
            op_index: r.first.seq as usize,
            epoch_ts: r.first.epoch.ts,
            line: Some(r.line),
            message: r.to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> AnalysisParams {
        AnalysisParams {
            ops_per_thread: 6,
            ..AnalysisParams::default()
        }
    }

    #[test]
    fn lints_a_real_workload_end_to_end() {
        let run = lint_run_with(&[WorkloadKind::Cceh], &quick(), waivers::BUILTIN_WAIVERS);
        let report = &run.reports[0];
        assert_eq!(report.workload, "cceh");
        assert!(report.complete, "extraction hit the burst budget");
        assert!(report.micro_ops > 0);
        assert_eq!(report.threads, 2);
    }

    #[test]
    fn whole_suite_lints_clean_under_builtin_waivers() {
        let run = lint_all_workloads(&AnalysisParams::default());
        assert_eq!(run.reports.len(), 14);
        for r in &run.reports {
            assert!(r.complete, "{} hit the burst budget", r.workload);
            assert!(
                r.is_clean(),
                "{} has unwaived findings: {:?}",
                r.workload,
                r.findings
            );
        }
        // The waivers are not a blanket pass: echo needs none at all.
        let echo = run.reports.iter().find(|r| r.workload == "echo").unwrap();
        assert!(echo.waived.is_empty());
        assert!(run.total_waived() > 0);
    }

    #[test]
    fn whole_suite_exercises_every_builtin_waiver() {
        // The shipped table must not rot: every entry still matches a
        // finding somewhere in the suite.
        let run = lint_all_workloads(&AnalysisParams::default());
        assert!(
            run.stale_waivers.is_empty(),
            "stale builtin waivers: {:?}",
            run.stale_waivers
        );
    }

    #[test]
    fn removed_idiom_leaves_a_stale_waiver_behind() {
        // Fixture: a waiver for a (workload, rule) pair the workload no
        // longer triggers — as if the excused idiom had been fixed.
        let waivers = [
            Waiver {
                workload: "queue",
                rule: "useless-fence",
                reason: "still fires",
            },
            Waiver {
                workload: "queue",
                rule: "missing-persist",
                reason: "the idiom this excused was removed",
            },
        ];
        let run = lint_run_with(&[WorkloadKind::Queue], &quick(), &waivers);
        assert_eq!(
            run.stale_waivers,
            vec![("queue".to_string(), "missing-persist".to_string())]
        );
        // The still-matching waiver keeps working.
        assert!(run.reports[0].is_clean());
        assert!(!run.reports[0].waived.is_empty());
    }

    #[test]
    fn race_findings_map_onto_lint_findings() {
        use asap_core::race::RaceEndpoint;
        use asap_core::RaceFinding;
        use asap_sim_core::{EpochId, LineAddr, ThreadId};

        let race = RaceFinding {
            line: LineAddr::containing(0x1040),
            first: RaceEndpoint {
                epoch: EpochId::new(ThreadId(1), 3),
                seq: 17,
            },
            second: RaceEndpoint {
                epoch: EpochId::new(ThreadId(0), 5),
                seq: 21,
            },
        };
        let report = RaceReport {
            races: vec![race],
            ..RaceReport::default()
        };
        let fs = race_findings(&report);
        assert_eq!(fs.len(), report.races.len());
        let f = &fs[0];
        assert_eq!(f.rule, "persist-race");
        assert_eq!(f.severity, Severity::Error);
        assert_eq!((f.thread, f.op_index, f.epoch_ts), (1, 17, 3));
        assert_eq!(f.line, Some(race.line));
        assert_eq!(f.message, race.to_string());

        assert!(race_findings(&RaceReport::default()).is_empty());
    }
}
