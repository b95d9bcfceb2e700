//! Crash-point collection for the crash-space explorer.
//!
//! When a simulation is built with `SimBuilder::collect_crash_points()`,
//! the engine records two things as it runs:
//!
//! * **Boundaries** — the cycles at which "interesting" persistency
//!   events fire (PB flush issue/ack/NACK, epoch commits, recovery-table
//!   undo/delay/NACK transitions, WPQ busy back-pressure, cross-thread
//!   dependency resolution). These drive the explorer's coverage
//!   accounting and its importance sampling under a point budget.
//! * **A crash-state timeline** — after every dispatched event, a digest
//!   ([`Engine::state_key`](super::engine)) of the monotonic mutation
//!   counters of each crash-relevant state component (write journal,
//!   dependency graph, NVM image, recovery tables, and — for
//!   battery-backed designs — persist buffers). A new `(cycle, key)`
//!   entry is appended only when the key changes, so the timeline is a
//!   partition of the whole cycle axis into *crash-equivalence
//!   intervals*: two crash cycles inside the same interval saw the
//!   identical mutation prefix of every masked component and therefore
//!   recover to byte-identical NVM images with byte-identical oracle
//!   reports. The explorer verifies one representative per interval and
//!   counts the rest as pruned.
//!
//! The mutation counters are strictly monotonic, so a key can never
//! recur after it changes — intervals are unique, and bucketing is
//! exactly "group by timeline interval".

use asap_sim_core::TraceRecord;

/// Which state components feed the crash-equivalence digest. The mask is
/// per persistency model (`PersistencyModel::crash_key_mask`):
/// components a design's crash path never reads must not split
/// equivalence classes (e.g. the persist-buffer contents are irrelevant
/// to ASAP's recovered image but decisive for BBB's battery drain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyMask {
    /// Include the write journal's mutation counter.
    pub journal: bool,
    /// Include the dependency graph's mutation counter.
    pub deps: bool,
    /// Include the NVM image's mutation counter.
    pub nvm: bool,
    /// Include every memory controller's recovery-table counter.
    pub rt: bool,
    /// Include every core's persist-buffer content counter.
    pub pb: bool,
}

impl KeyMask {
    /// Default mask for recovery-table designs (Baseline/HOPS/ASAP):
    /// journal + dependency graph + NVM image + recovery tables. Persist
    /// buffers are volatile and lost at crash, so they are excluded.
    pub const fn tracked() -> KeyMask {
        KeyMask {
            journal: true,
            deps: true,
            nvm: true,
            rt: true,
            pb: false,
        }
    }

    /// eADR: the whole hierarchy is durable and the oracle is skipped,
    /// so only the functional NVM image distinguishes crash states.
    pub const fn nvm_only() -> KeyMask {
        KeyMask {
            journal: false,
            deps: false,
            nvm: true,
            rt: false,
            pb: false,
        }
    }

    /// BBB: the battery drain writes persist-buffer contents into the
    /// recovered image, so PB content changes split equivalence classes;
    /// BBB never uses the recovery tables.
    pub const fn battery_buffered() -> KeyMask {
        KeyMask {
            journal: true,
            deps: true,
            nvm: true,
            rt: false,
            pb: true,
        }
    }
}

/// Classification of an "interesting" crash boundary, mapped from the
/// engine's trace records (the same instrumentation the observability
/// layer uses, so boundary sites stay in sync with tracing by
/// construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BoundaryKind {
    /// A persist-buffer flush was issued to a memory controller.
    FlushIssue,
    /// A flush ack returned to a core.
    FlushAck,
    /// A flush NACK returned to a core (recovery table full).
    FlushNack,
    /// An epoch committed (epoch-table finalization).
    EpochCommit,
    /// An epoch-commit message departed to the MCs (ASAP roundtrip).
    CommitSent,
    /// A cross-thread dependency resolution message was processed.
    Cdr,
    /// A recovery table created an undo record (speculative persist).
    RtUndo,
    /// A recovery table parked a delay record (write collision).
    RtDelay,
    /// A recovery table NACKed an early flush (table full).
    RtNack,
    /// A write-pending queue pushed back (busy retry).
    WpqBusy,
}

impl BoundaryKind {
    /// Every kind, in report order.
    pub const ALL: [BoundaryKind; 10] = [
        BoundaryKind::FlushIssue,
        BoundaryKind::FlushAck,
        BoundaryKind::FlushNack,
        BoundaryKind::EpochCommit,
        BoundaryKind::CommitSent,
        BoundaryKind::Cdr,
        BoundaryKind::RtUndo,
        BoundaryKind::RtDelay,
        BoundaryKind::RtNack,
        BoundaryKind::WpqBusy,
    ];

    /// Stable kebab-case identifier (report/JSON key).
    pub fn as_str(&self) -> &'static str {
        match self {
            BoundaryKind::FlushIssue => "flush-issue",
            BoundaryKind::FlushAck => "flush-ack",
            BoundaryKind::FlushNack => "flush-nack",
            BoundaryKind::EpochCommit => "epoch-commit",
            BoundaryKind::CommitSent => "commit-sent",
            BoundaryKind::Cdr => "cdr",
            BoundaryKind::RtUndo => "rt-undo",
            BoundaryKind::RtDelay => "rt-delay",
            BoundaryKind::RtNack => "rt-nack",
            BoundaryKind::WpqBusy => "wpq-busy",
        }
    }

    /// Dense index into [`BoundaryKind::ALL`].
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// The boundary a trace record marks, if any.
    pub fn of(rec: &TraceRecord) -> Option<BoundaryKind> {
        match rec {
            TraceRecord::FlushIssue { .. } => Some(BoundaryKind::FlushIssue),
            TraceRecord::FlushAck { .. } => Some(BoundaryKind::FlushAck),
            TraceRecord::FlushNack { .. } => Some(BoundaryKind::FlushNack),
            TraceRecord::EpochCommit { .. } => Some(BoundaryKind::EpochCommit),
            TraceRecord::CommitSent { .. } => Some(BoundaryKind::CommitSent),
            TraceRecord::Cdr { .. } => Some(BoundaryKind::Cdr),
            TraceRecord::RtUndo { .. } => Some(BoundaryKind::RtUndo),
            TraceRecord::RtDelay { .. } => Some(BoundaryKind::RtDelay),
            TraceRecord::RtNack { .. } => Some(BoundaryKind::RtNack),
            TraceRecord::WpqBusy { .. } => Some(BoundaryKind::WpqBusy),
            _ => None,
        }
    }
}

impl std::fmt::Display for BoundaryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything an instrumented run collected about its crash space (see
/// the module docs). Plain data: `Send + Sync`, safe to fan out across
/// the worker pool.
#[derive(Debug, Clone, Default)]
pub struct CrashPoints {
    /// `(cycle, kind)` of every boundary event, in emission order
    /// (cycles nondecreasing).
    pub boundaries: Vec<(u64, BoundaryKind)>,
    /// `(cycle, key)` — the crash-state digest in force from `cycle`
    /// until the next entry's cycle. Entries are appended only on key
    /// change; cycles are nondecreasing and keys never recur. Seeded
    /// with the pre-run state at cycle 0.
    pub timeline: Vec<(u64, u64)>,
    /// Final cycle of the instrumented run (the crash space is
    /// `0..=end_cycle`).
    pub end_cycle: u64,
}

impl CrashPoints {
    /// Empty collector (timeline is seeded by the builder before the
    /// run starts).
    pub fn new() -> CrashPoints {
        CrashPoints::default()
    }

    /// Record a boundary event at `cycle`.
    #[inline]
    pub fn note_boundary(&mut self, cycle: u64, kind: BoundaryKind) {
        self.boundaries.push((cycle, kind));
    }

    /// Record the crash-state digest observed at `cycle`; appends a
    /// timeline entry only when the key changed.
    #[inline]
    pub fn note_key(&mut self, cycle: u64, key: u64) {
        match self.timeline.last() {
            Some(&(_, last)) if last == key => {}
            _ => self.timeline.push((cycle, key)),
        }
    }

    /// The digest in force at crash cycle `cycle` (the last entry at or
    /// before it). Multiple entries can share a cycle — events within
    /// one cycle mutate state in sequence — and crashing *at* a cycle
    /// means crashing after all its events, so the last one wins.
    pub fn key_at(&self, cycle: u64) -> u64 {
        let idx = self.timeline.partition_point(|&(c, _)| c <= cycle);
        if idx == 0 {
            // Before the seeded entry: can only happen on an unseeded
            // collector; treat as the zero state.
            return 0;
        }
        self.timeline[idx - 1].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_key_dedupes_consecutive() {
        let mut p = CrashPoints::new();
        p.note_key(0, 10);
        p.note_key(5, 10);
        p.note_key(7, 11);
        p.note_key(7, 12);
        assert_eq!(p.timeline, vec![(0, 10), (7, 11), (7, 12)]);
    }

    #[test]
    fn key_at_picks_last_entry_at_or_before() {
        let mut p = CrashPoints::new();
        p.note_key(0, 1);
        p.note_key(7, 2);
        p.note_key(7, 3);
        p.note_key(20, 4);
        assert_eq!(p.key_at(0), 1);
        assert_eq!(p.key_at(6), 1);
        assert_eq!(p.key_at(7), 3); // last same-cycle entry wins
        assert_eq!(p.key_at(19), 3);
        assert_eq!(p.key_at(20), 4);
        assert_eq!(p.key_at(1000), 4);
    }

    #[test]
    fn boundary_kinds_map_from_trace_records() {
        use asap_sim_core::TraceRecord as T;
        assert_eq!(
            BoundaryKind::of(&T::FlushIssue {
                tid: 0,
                entry: 0,
                line: 0,
                mc: 0,
                early: true,
            }),
            Some(BoundaryKind::FlushIssue)
        );
        assert_eq!(BoundaryKind::of(&T::Crash), None);
        // Every kind has a distinct label and a consistent index.
        for (i, k) in BoundaryKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        let labels: std::collections::HashSet<_> =
            BoundaryKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(labels.len(), BoundaryKind::ALL.len());
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        use asap_sim_core::{fnv1a_fold, FNV_OFFSET};
        let fold = |h, v: u64| fnv1a_fold(h, &v.to_le_bytes());
        assert_ne!(fold(fold(FNV_OFFSET, 1), 2), fold(fold(FNV_OFFSET, 2), 1));
    }
}
