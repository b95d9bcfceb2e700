//! Machine-checked recovery correctness (paper §VI).
//!
//! The paper proves two theorems on paper; we check them on every
//! simulated crash:
//!
//! * **Theorem 1 (forward progress)** is checked operationally — the
//!   simulator panics on deadlock — and structurally: the epoch
//!   dependency graph must admit a topological order (Lemma 0.1).
//! * **Theorem 2 (recovery consistency)** is checked against the write
//!   journal. After the crash drain (WPQ flush + undo application), the
//!   recovered NVM image must satisfy:
//!
//!   1. **Value integrity** — every line's contents equal the journaled
//!      snapshot of the write that owns it (no Fig. 5-style lost
//!      updates).
//!   2. **Prefix closure / durability** — let `V` be the epochs owning at
//!      least one recovered line and `C` the epochs that committed before
//!      the crash. For every epoch in `V ∪ C` and every epoch `e'` it
//!      transitively depends on, *all* of `e'`'s journaled writes must
//!      have survived: for each line `e'` wrote, the recovered owner
//!      sequence must be at least `e'`'s last write to that line
//!      (i.e. the write persisted, or was overwritten by a persisted
//!      newer write — which leaves the same final state). `C ⊆` durable
//!      is exactly Lemma 1.1; the dependency closure is the §IV-B
//!      ordering guarantee.
//!
//! ## Cost
//!
//! One check is linear in the journal, the image and the graph, which
//! is what lets the crash-space explorer run it at every crash point it
//! keeps. The obligations are closed under the same-thread predecessor
//! edge, so on each thread they form a prefix `0..hi[t]`: the committed
//! and visible epochs seed the bounds, and one walk raises them to a
//! fixpoint over the cross edges, reading each epoch's edges once. The
//! executed writes of the obligated epochs are grouped by epoch with
//! one counting sort, in journal order, and only the owner seq of each
//! line is read back. A quadratic reference that closes each epoch
//! separately lives in `tests/proptest_components.rs`; the two must
//! produce equal reports.

use crate::deps::DepGraph;
use asap_pm_mem::{NvmImage, WriteJournal};
use asap_sim_core::{EpochId, LineAddr, ThreadId};

/// The oracle rule a [`Violation`] broke. Every violation the checker
/// can emit maps to exactly one rule, so downstream consumers (the
/// crash-space explorer's per-rule tally, CI gates) can aggregate
/// without parsing message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationRule {
    /// Lemma 0.1: the epoch dependency graph admits no topological order.
    DepCycle,
    /// A recovered line's ownership tag does not resolve to a journaled
    /// write of that line (dangling seq, or seq journaled for a
    /// different address).
    JournalIntegrity,
    /// A recovered line's bytes differ from the journaled snapshot of
    /// the write that owns it (Fig. 5-style lost update / torn value).
    TornValue,
    /// A line with no ownership tag holds non-zero bytes without being
    /// part of the pre-initialized pool.
    UntaggedNonZero,
    /// Lemma 1.1: a committed epoch's write did not survive recovery.
    CommittedWriteLost,
    /// §IV-B prefix closure: a transitive dependency of a visible epoch
    /// lost a write (Theorem 2 ordering violation).
    OrderingViolated,
}

impl ViolationRule {
    /// Stable kebab-case identifier (report/JSON key).
    pub fn as_str(&self) -> &'static str {
        match self {
            ViolationRule::DepCycle => "dep-cycle",
            ViolationRule::JournalIntegrity => "journal-integrity",
            ViolationRule::TornValue => "torn-value",
            ViolationRule::UntaggedNonZero => "untagged-non-zero",
            ViolationRule::CommittedWriteLost => "committed-write-lost",
            ViolationRule::OrderingViolated => "ordering-violated",
        }
    }

    /// All rules, in report order.
    pub const ALL: [ViolationRule; 6] = [
        ViolationRule::DepCycle,
        ViolationRule::JournalIntegrity,
        ViolationRule::TornValue,
        ViolationRule::UntaggedNonZero,
        ViolationRule::CommittedWriteLost,
        ViolationRule::OrderingViolated,
    ];
}

impl std::fmt::Display for ViolationRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One oracle violation: a typed rule plus the human-readable
/// diagnostic. `Display` renders just the message, so existing
/// `println!("- {v}")`-style consumers keep working.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which check failed.
    pub rule: ViolationRule,
    /// Human-readable diagnostic.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Why a crash check could not run at all (as opposed to running and
/// finding violations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleError {
    /// The simulation was built without `SimBuilder::with_journal()`, so
    /// there is no golden write history to check the recovered image
    /// against.
    JournalDisabled,
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::JournalDisabled => {
                f.write_str("crash checking requires SimBuilder::with_journal()")
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// Result of a crash-consistency check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashReport {
    /// Every violation found (empty ⇒ consistent), each carrying its
    /// typed [`ViolationRule`] and diagnostic message.
    pub violations: Vec<Violation>,
    /// Undo records applied during the crash drain.
    pub undo_records_applied: usize,
    /// Lines inspected in the recovered image.
    pub lines_checked: usize,
    /// Distinct epochs with at least one surviving write.
    pub epochs_visible: usize,
    /// Epochs committed before the crash.
    pub epochs_committed: usize,
}

impl CrashReport {
    /// Whether the recovered state satisfied every check.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Check a recovered NVM image against the write journal and dependency
/// graph. See the module docs for the properties verified.
pub fn check(journal: &WriteJournal, deps: &DepGraph, nvm: &NvmImage) -> CrashReport {
    let mut report = CrashReport {
        epochs_committed: deps.committed().count(),
        ..CrashReport::default()
    };

    // Lemma 0.1: the dependency graph must be acyclic.
    if deps.topological_order().is_none() {
        report.violations.push(Violation {
            rule: ViolationRule::DepCycle,
            message: "epoch dependency graph contains a cycle (Lemma 0.1 violated)".to_string(),
        });
    }

    // Check 1: value integrity of every recovered line. Each newly seen
    // visible epoch seeds the obligation bounds with its direct
    // dependencies.
    let mut visible: Vec<Vec<bool>> = Vec::new();
    let mut hi: Vec<u64> = Vec::new();
    for (line, rec) in nvm.iter() {
        report.lines_checked += 1;
        match rec.seq {
            Some(seq) => {
                let Some(entry) = journal.get(asap_pm_mem::WriteSeq(seq)) else {
                    report.violations.push(Violation {
                        rule: ViolationRule::JournalIntegrity,
                        message: format!("line {line}: owner seq {seq} not in journal"),
                    });
                    continue;
                };
                if entry.line != line {
                    report.violations.push(Violation {
                        rule: ViolationRule::JournalIntegrity,
                        message: format!(
                            "line {line}: owner seq {seq} journaled for different line {}",
                            entry.line
                        ),
                    });
                    continue;
                }
                if entry.data != rec.data {
                    report.violations.push(Violation {
                        rule: ViolationRule::TornValue,
                        message: format!(
                            "line {line}: recovered bytes differ from journaled write seq {seq} \
                             (Fig. 5-style lost update?)"
                        ),
                    });
                }
                if let Some(e) = rec.epoch {
                    if insert(&mut visible, e) {
                        report.epochs_visible += 1;
                        raise(&mut hi, e.thread.0, e.ts);
                        for s in deps.cross_deps_of(e) {
                            raise(&mut hi, s.thread.0, s.ts + 1);
                        }
                    }
                }
            }
            None => {
                // Restored to the pre-journal (never-persisted) state:
                // must be all zeros, unless the line was part of the
                // initial pool contents (structure setup).
                if !nvm.is_preinit(line) && rec.data.iter().any(|&b| b != 0) {
                    report.violations.push(Violation {
                        rule: ViolationRule::UntaggedNonZero,
                        message: format!("line {line}: untagged recovered line is non-zero"),
                    });
                }
            }
        }
    }

    // Check 2: prefix closure + committed durability.
    for c in deps.committed() {
        raise(&mut hi, c.thread.0, c.ts + 1);
    }
    close_bounds(deps, &mut hi);

    // Executed writes of the obligated epochs, grouped by epoch in
    // journal order (counting sort). Slot (t, ts) is base[t] + ts.
    let mut base = Vec::with_capacity(hi.len());
    let mut slots = 0;
    for &h in &hi {
        base.push(slots);
        slots += h as usize;
    }
    let slot_of = |e: EpochId| {
        let &h = hi.get(e.thread.0)?;
        (e.ts < h).then(|| base[e.thread.0] + e.ts as usize)
    };
    let mut start = vec![0usize; slots + 1];
    for entry in journal.entries() {
        if let Some(i) = entry.epoch.and_then(slot_of) {
            start[i] += 1;
        }
    }
    // Running sums make start[i] the end of slot i's range; filling each
    // range backwards from its end, over the journal reversed, leaves
    // start[i] at its beginning and the range in journal order.
    for i in 1..=slots {
        start[i] += start[i - 1];
    }
    let mut writes = vec![(LineAddr::containing(0), 0u64); start[slots]];
    for entry in journal.entries().iter().rev() {
        if let Some(i) = entry.epoch.and_then(slot_of) {
            start[i] -= 1;
            writes[start[i]] = (entry.line, entry.seq.0);
        }
    }

    // Each obligated epoch's lines, in first-write order with the last
    // (max-seq) write, must have survived.
    let mut lines: Vec<(LineAddr, u64)> = Vec::new();
    for (t, &h) in hi.iter().enumerate() {
        for ts in 0..h {
            let e = EpochId::new(ThreadId(t), ts);
            let i = base[t] + ts as usize;
            lines.clear();
            for &(line, seq) in &writes[start[i]..start[i + 1]] {
                match lines.iter_mut().find(|(l, _)| *l == line) {
                    Some((_, s)) => *s = (*s).max(seq),
                    None => lines.push((line, seq)),
                }
            }
            for &(line, max_seq) in &lines {
                let owner = nvm.owner_seq(line);
                if owner.is_some_and(|s| s >= max_seq) {
                    continue;
                }
                let (rule, why) = if deps.is_committed(e) {
                    (
                        ViolationRule::CommittedWriteLost,
                        "committed epoch lost a write (Lemma 1.1 violated)",
                    )
                } else {
                    (
                        ViolationRule::OrderingViolated,
                        "dependency of a visible epoch lost a write (ordering violated)",
                    )
                };
                report.violations.push(Violation {
                    rule,
                    message: format!(
                        "epoch {e}: write seq {max_seq} to {line} did not survive \
                         (recovered owner seq {owner:?}): {why}"
                    ),
                });
            }
        }
    }

    report
}

/// Mark `e` in per-thread lanes; `true` if it was not marked before.
fn insert(lanes: &mut Vec<Vec<bool>>, e: EpochId) -> bool {
    let t = e.thread.0;
    if t >= lanes.len() {
        lanes.resize_with(t + 1, Vec::new);
    }
    let lane = &mut lanes[t];
    let ts = e.ts as usize;
    if ts >= lane.len() {
        lane.resize(ts + 1, false);
    }
    !std::mem::replace(&mut lane[ts], true)
}

/// Raise thread `t`'s exclusive obligation bound to at least `bound`;
/// `true` if it grew.
fn raise(hi: &mut Vec<u64>, t: usize, bound: u64) -> bool {
    if t >= hi.len() {
        hi.resize(t + 1, 0);
    }
    let grew = bound > hi[t];
    if grew {
        hi[t] = bound;
    }
    grew
}

/// Raise the bounds to their fixpoint: the cross sources of every
/// covered epoch are covered too. Obligations are closed under the
/// same-thread predecessor edge, so on each thread they form the prefix
/// `0..hi[t]`, and each epoch's cross edges are read once.
fn close_bounds(deps: &DepGraph, hi: &mut Vec<u64>) {
    let mut done: Vec<u64> = Vec::new();
    let mut pending: Vec<usize> = (0..hi.len()).collect();
    while let Some(t) = pending.pop() {
        if done.len() < hi.len() {
            done.resize(hi.len(), 0);
        }
        while done[t] < hi[t] {
            let e = EpochId::new(ThreadId(t), done[t]);
            done[t] += 1;
            for s in deps.cross_deps_of(e) {
                if raise(hi, s.thread.0, s.ts + 1) {
                    pending.push(s.thread.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_pm_mem::WriteSeq;
    use asap_sim_core::ThreadId;

    fn ep(t: usize, ts: u64) -> EpochId {
        EpochId::new(ThreadId(t), ts)
    }

    fn la(i: u64) -> LineAddr {
        LineAddr::containing(i * 64)
    }

    fn snap(b: u8) -> [u8; 64] {
        [b; 64]
    }

    /// Build a journal with epochs already assigned.
    fn journal(entries: &[(usize, u64, u64, u8)]) -> WriteJournal {
        // (thread, epoch_ts, line_idx, value)
        let mut j = WriteJournal::enabled();
        for &(t, ts, line, v) in entries {
            let s = j.record(la(line), snap(v));
            j.assign_epoch(s, ep(t, ts));
        }
        j
    }

    #[test]
    fn empty_state_is_consistent() {
        let j = WriteJournal::enabled();
        let g = DepGraph::new();
        let nvm = NvmImage::new();
        let r = check(&j, &g, &nvm);
        assert!(r.is_consistent(), "{:?}", r.violations);
        assert_eq!(r.lines_checked, 0);
    }

    #[test]
    fn fully_persisted_run_is_consistent() {
        let j = journal(&[(0, 0, 1, 5), (0, 1, 2, 6)]);
        let mut g = DepGraph::new();
        g.mark_committed(ep(0, 0));
        g.mark_committed(ep(0, 1));
        let mut nvm = NvmImage::new();
        nvm.persist(la(1), snap(5), Some(0), Some(ep(0, 0)));
        nvm.persist(la(2), snap(6), Some(1), Some(ep(0, 1)));
        let r = check(&j, &g, &nvm);
        assert!(r.is_consistent(), "{:?}", r.violations);
        assert_eq!(r.epochs_visible, 2);
    }

    #[test]
    fn detects_value_corruption() {
        let j = journal(&[(0, 0, 1, 5)]);
        let g = DepGraph::new();
        let mut nvm = NvmImage::new();
        nvm.persist(la(1), snap(9), Some(0), Some(ep(0, 0))); // wrong bytes
        let r = check(&j, &g, &nvm);
        assert!(!r.is_consistent());
        assert_eq!(r.violations[0].rule, ViolationRule::TornValue);
        assert!(r.violations[0].message.contains("differ"));
    }

    #[test]
    fn detects_prefix_violation() {
        // Epoch (0,1) visible but its predecessor (0,0) wrote line 1 and
        // that write is missing from NVM.
        let j = journal(&[(0, 0, 1, 5), (0, 1, 2, 6)]);
        let g = {
            let mut g = DepGraph::new();
            g.ensure(ep(0, 1));
            g
        };
        let mut nvm = NvmImage::new();
        nvm.persist(la(2), snap(6), Some(1), Some(ep(0, 1)));
        let r = check(&j, &g, &nvm);
        assert!(!r.is_consistent());
        assert_eq!(r.violations[0].rule, ViolationRule::OrderingViolated);
        assert!(r.violations[0].message.contains("ordering violated"));
    }

    #[test]
    fn detects_lost_committed_write() {
        let j = journal(&[(0, 0, 1, 5)]);
        let mut g = DepGraph::new();
        g.mark_committed(ep(0, 0));
        let nvm = NvmImage::new(); // nothing persisted!
        let r = check(&j, &g, &nvm);
        assert!(!r.is_consistent());
        assert_eq!(r.violations[0].rule, ViolationRule::CommittedWriteLost);
        assert!(r.violations[0].message.contains("Lemma 1.1"));
    }

    #[test]
    fn overwritten_dependency_write_is_fine() {
        // (0,0) wrote line 1 seq 0; (1,0) overwrote line 1 seq 1 and is
        // visible; (1,0) depends on (0,0). Owner seq 1 >= 0: consistent.
        let mut j = WriteJournal::enabled();
        let s0 = j.record(la(1), snap(5));
        j.assign_epoch(s0, ep(0, 0));
        let s1 = j.record(la(1), snap(7));
        j.assign_epoch(s1, ep(1, 0));
        let mut g = DepGraph::new();
        g.add_cross_dep(ep(1, 0), ep(0, 0));
        let mut nvm = NvmImage::new();
        nvm.persist(la(1), snap(7), Some(1), Some(ep(1, 0)));
        let r = check(&j, &g, &nvm);
        assert!(r.is_consistent(), "{:?}", r.violations);
    }

    #[test]
    fn cross_thread_dependency_violation_detected() {
        // (1,1) depends on (0,0); (1,1)'s write survived, (0,0)'s did not.
        let j = journal(&[(0, 0, 1, 5), (1, 1, 2, 6)]);
        let mut g = DepGraph::new();
        g.add_cross_dep(ep(1, 1), ep(0, 0));
        let mut nvm = NvmImage::new();
        nvm.persist(la(2), snap(6), Some(1), Some(ep(1, 1)));
        let r = check(&j, &g, &nvm);
        assert!(!r.is_consistent());
    }

    #[test]
    fn unexecuted_journal_entries_carry_no_obligation() {
        let mut j = WriteJournal::enabled();
        j.record(la(1), snap(5)); // epoch never assigned (still in burst)
        let mut g = DepGraph::new();
        g.mark_committed(ep(0, 0));
        let nvm = NvmImage::new();
        let r = check(&j, &g, &nvm);
        assert!(r.is_consistent(), "{:?}", r.violations);
    }

    #[test]
    fn untagged_nonzero_line_flagged() {
        let j = WriteJournal::enabled();
        let g = DepGraph::new();
        let mut nvm = NvmImage::new();
        nvm.persist(la(3), snap(1), None, None);
        let r = check(&j, &g, &nvm);
        assert!(!r.is_consistent());
        assert_eq!(r.violations[0].rule, ViolationRule::UntaggedNonZero);
        assert!(r.violations[0].message.contains("non-zero"));
    }

    #[test]
    fn cycle_flagged() {
        let j = WriteJournal::enabled();
        let mut g = DepGraph::new();
        g.add_cross_dep(ep(0, 0), ep(1, 0));
        g.add_cross_dep(ep(1, 0), ep(0, 0));
        let nvm = NvmImage::new();
        let r = check(&j, &g, &nvm);
        assert!(!r.is_consistent());
        assert_eq!(r.violations[0].rule, ViolationRule::DepCycle);
        assert!(r.violations[0].message.contains("cycle"));
    }

    #[test]
    fn report_accessors() {
        let j = journal(&[(0, 0, 1, 5)]);
        let mut g = DepGraph::new();
        g.mark_committed(ep(0, 0));
        let mut nvm = NvmImage::new();
        nvm.persist(la(1), snap(5), Some(0), Some(ep(0, 0)));
        let r = check(&j, &g, &nvm);
        assert_eq!(r.lines_checked, 1);
        assert_eq!(r.epochs_visible, 1);
        assert_eq!(r.epochs_committed, 1);
        let _ = WriteSeq(0); // silence unused import in some cfgs
    }
}
