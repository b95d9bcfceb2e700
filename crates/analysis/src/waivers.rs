//! Waivers: acknowledged findings that should not fail CI.
//!
//! A [`Waiver`] matches findings by `(workload, rule)` and carries the
//! reason the finding is considered benign. Waived findings still
//! appear in reports (annotated `#[allow(persist_lint::<rule>)]`-style)
//! so they stay visible; they just do not trip the `--deny-warnings`
//! gate.
//!
//! [`BUILTIN_WAIVERS`] is the shipped table for the 14 Table III
//! workloads. Every entry covers one of two *intentional* patterns:
//!
//! * **final drain at retire** — every workload issues a defensive
//!   `dfence` just before its thread retires. Each logical operation
//!   already ends in `dfence`, so the drain usually has nothing left to
//!   do and `useless-fence` flags it; it stays because a program should
//!   not rely on its last mutating operation having fenced.
//! * **flavor-portable barriers** — the CAS-based structures (CCEH,
//!   Dash-EH, P-ART) follow a publishing CAS with `ofence`. Under
//!   release persistency the CAS's release already closed the epoch, so
//!   the `ofence` closes an empty one; under epoch persistency the same
//!   `ofence` is the *only* barrier. The source targets both flavors.
//!
//! Editing the workloads to silence these would change their micro-op
//! streams and with them every pinned golden timing fixture, for no
//! behavioural gain — the definition of a waiver, not a fix.

use crate::lint::Finding;

/// One acknowledged finding pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiver {
    /// Workload label the waiver applies to.
    pub workload: &'static str,
    /// Rule id the waiver applies to (e.g. `missing-persist`, or
    /// `persist-race` for the race detector).
    pub rule: &'static str,
    /// Why the finding is benign.
    pub reason: &'static str,
}

impl Waiver {
    /// Whether this waiver covers `finding` in `workload`.
    pub fn matches(&self, workload: &str, finding: &Finding) -> bool {
        self.workload == workload && self.rule == finding.rule
    }
}

/// Reason for the defensive `dfence` every workload issues at retire.
const FINAL_DRAIN: &str = "deliberate final drain at thread retire; each logical op \
     already ends in dfence, so it usually has nothing to do";

/// Reason for `ofence` after a publishing CAS in the lock-free
/// structures.
const PORTABLE_BARRIER: &str = "flavor-portable barrier: the CAS's release already closes the \
     epoch under release persistency, but the ofence is the only \
     barrier under epoch persistency; plus the final drain at retire";

/// The shipped waiver table (see the module docs for the two patterns).
pub const BUILTIN_WAIVERS: &[Waiver] = &[
    Waiver {
        workload: "cceh",
        rule: "useless-fence",
        reason: PORTABLE_BARRIER,
    },
    Waiver {
        workload: "dash-eh",
        rule: "useless-fence",
        reason: PORTABLE_BARRIER,
    },
    Waiver {
        workload: "p-art",
        rule: "useless-fence",
        reason: PORTABLE_BARRIER,
    },
    Waiver {
        workload: "nstore",
        rule: "useless-fence",
        reason: FINAL_DRAIN,
    },
    Waiver {
        workload: "vacation",
        rule: "useless-fence",
        reason: FINAL_DRAIN,
    },
    Waiver {
        workload: "memcached",
        rule: "useless-fence",
        reason: FINAL_DRAIN,
    },
    Waiver {
        workload: "heap",
        rule: "useless-fence",
        reason: FINAL_DRAIN,
    },
    Waiver {
        workload: "queue",
        rule: "useless-fence",
        reason: FINAL_DRAIN,
    },
    Waiver {
        workload: "skiplist",
        rule: "useless-fence",
        reason: FINAL_DRAIN,
    },
    Waiver {
        workload: "fast_fair",
        rule: "useless-fence",
        reason: FINAL_DRAIN,
    },
    Waiver {
        workload: "dash-lh",
        rule: "useless-fence",
        reason: FINAL_DRAIN,
    },
    Waiver {
        workload: "p-clht",
        rule: "useless-fence",
        reason: FINAL_DRAIN,
    },
    Waiver {
        workload: "p-masstree",
        rule: "useless-fence",
        reason: FINAL_DRAIN,
    },
];

/// Split findings into (active, waived-with-reason) under `waivers`,
/// plus a usage vector parallel to `waivers`: `used[i]` is `true` iff
/// waiver `i` matched at least one finding. The audit input for
/// [`stale_waivers`].
pub fn partition(
    findings: Vec<Finding>,
    workload: &str,
    waivers: &[Waiver],
) -> (Vec<Finding>, Vec<(Finding, String)>, Vec<bool>) {
    let mut active = Vec::new();
    let mut waived = Vec::new();
    let mut used = vec![false; waivers.len()];
    for f in findings {
        match waivers.iter().position(|w| w.matches(workload, &f)) {
            Some(i) => {
                used[i] = true;
                waived.push((f, waivers[i].reason.to_string()));
            }
            None => active.push(f),
        }
    }
    (active, waived, used)
}

/// The stale-waiver audit: waivers that *could* have been exercised by
/// this run but matched nothing, as `(workload, rule)` pairs in table
/// order.
///
/// A waiver rots silently: the workload it excused gets fixed or
/// rewritten, the finding disappears, and the waiver stays behind —
/// ready to mask a *future* regression of the same rule. This audit
/// turns that into a CI failure (`persist_lint --deny-warnings`).
///
/// `used` is the element-wise OR of every linted workload's usage
/// vector from [`partition`]; `linted` names the workloads that were
/// actually linted. A waiver is audited only when its workload was
/// linted (anything else could false-positive on a partial run).
pub fn stale_waivers(waivers: &[Waiver], linted: &[&str], used: &[bool]) -> Vec<(String, String)> {
    waivers
        .iter()
        .zip(used)
        .filter(|&(w, &u)| linted.contains(&w.workload) && !u)
        .map(|(w, _)| (w.workload.to_string(), w.rule.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Severity;

    fn finding(rule: &'static str) -> Finding {
        Finding {
            rule,
            severity: Severity::Warning,
            thread: 0,
            op_index: 0,
            epoch_ts: 0,
            line: None,
            message: String::new(),
        }
    }

    #[test]
    fn waiver_matches_by_workload_and_rule() {
        let w = Waiver {
            workload: "cceh",
            rule: "useless-fence",
            reason: "r",
        };
        assert!(w.matches("cceh", &finding("useless-fence")));
        assert!(!w.matches("echo", &finding("useless-fence")));
        assert!(!w.matches("cceh", &finding("missing-persist")));
    }

    #[test]
    fn usage_marks_fired_waivers_and_audit_flags_the_rest() {
        let waivers = [
            Waiver {
                workload: "queue",
                rule: "redundant-flush",
                reason: "fires",
            },
            Waiver {
                workload: "queue",
                rule: "missing-persist",
                reason: "stale",
            },
            Waiver {
                workload: "cceh",
                rule: "useless-fence",
                reason: "not linted here",
            },
        ];
        let (_, _, used) = partition(vec![finding("redundant-flush")], "queue", &waivers);
        assert_eq!(used, vec![true, false, false]);
        let stale = stale_waivers(&waivers, &["queue"], &used);
        // Only the queue unfired waiver is stale: cceh was not linted.
        assert_eq!(
            stale,
            vec![("queue".to_string(), "missing-persist".to_string())]
        );
    }

    #[test]
    fn partition_splits_and_carries_reason() {
        let waivers = [Waiver {
            workload: "cceh",
            rule: "redundant-flush",
            reason: "known benign",
        }];
        let (active, waived, _) = partition(
            vec![finding("redundant-flush"), finding("missing-persist")],
            "cceh",
            &waivers,
        );
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].rule, "missing-persist");
        assert_eq!(waived.len(), 1);
        assert_eq!(waived[0].1, "known benign");
    }

    #[test]
    fn builtin_table_rules_reference_real_rules() {
        let known: Vec<_> = crate::rules::RULES
            .iter()
            .map(|&(id, _)| id)
            .chain(std::iter::once("persist-race"))
            .collect();
        for w in BUILTIN_WAIVERS {
            assert!(
                known.contains(&w.rule),
                "waiver references unknown rule {}",
                w.rule
            );
        }
    }
}
