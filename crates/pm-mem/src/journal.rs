//! Golden write history for the crash-consistency oracle.
//!
//! Every persistent store executed by a workload appends a line-granularity
//! [`JournalEntry`] capturing the line's contents *after* the store and a
//! monotonically increasing sequence number. The sequence order is the
//! volatile memory (coherence) order of the writes, which is exactly the
//! order strong persist atomicity requires persists to respect per address
//! (paper §II-A).
//!
//! A store's *epoch* is only known when the timing simulator executes the
//! store micro-op (cross-thread dependencies split epochs at execution
//! time), so entries are recorded with no epoch and patched via
//! [`WriteJournal::assign_epoch`] at execution. Entries that still have no
//! epoch at crash time were never executed and are excluded from the
//! oracle's obligations.
//!
//! The oracle in `asap-core` uses the journal to machine-check, after a
//! simulated crash and recovery:
//!
//! 1. **per-address correctness** — each line in recovered NVM holds the
//!    value of a journaled write to that line, and
//! 2. **epoch prefix closure** — if any write of epoch `e` survived, then
//!    every write of every epoch that `e` (transitively) depends on also
//!    survived (Theorem 2 / the §IV-B ordering definition).
//!
//! Journaling is optional (disabled for long performance runs) because it
//! snapshots 64 bytes per store.

use crate::space::LineSnapshot;
use asap_sim_core::{EpochId, LineAddr};

/// Monotonic global sequence number of a journaled write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WriteSeq(pub u64);

/// One journaled line write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Global sequence number (volatile memory order).
    pub seq: WriteSeq,
    /// The epoch the store was executed in; `None` until the timing
    /// simulator executes the store micro-op.
    pub epoch: Option<EpochId>,
    /// The cache line written.
    pub line: LineAddr,
    /// Contents of the whole line after the store was applied to the
    /// functional image.
    pub data: LineSnapshot,
}

/// Append-only golden history of persistent line writes.
///
/// # Example
///
/// ```
/// use asap_pm_mem::WriteJournal;
/// use asap_sim_core::{EpochId, LineAddr, ThreadId};
///
/// let mut j = WriteJournal::enabled();
/// let seq = j.record(LineAddr::containing(0x40), [0u8; 64]);
/// assert_eq!(seq.0, 0);
/// j.assign_epoch(seq, EpochId::new(ThreadId(0), 0));
/// assert!(j.entries()[0].epoch.is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteJournal {
    entries: Vec<JournalEntry>,
    enabled: bool,
    next_seq: u64,
    /// Per-store "has executed in the timing domain" flags; maintained
    /// even when payload retention is disabled (the simulator's
    /// synchronization machinery needs them).
    executed: Vec<bool>,
    /// Per-store execution stamp on the dependency graph's
    /// registration/commit clock (see `DepGraph::now` in `asap-core`);
    /// `0` until the store executes. Lets the persist-race detector
    /// order "epoch committed" against "write executed" in real time.
    exec_clock: Vec<u64>,
    /// Latest store per line (generation order); also always maintained.
    last_store: std::collections::HashMap<LineAddr, WriteSeq>,
    /// Monotonic mutation counter: bumped on every [`record`] and
    /// [`assign_epoch`]. Within one deterministic run, two instants with
    /// the same version saw the identical mutation prefix, so the whole
    /// journal state is identical — the crash-space explorer keys its
    /// pruning digest on this.
    ///
    /// [`record`]: WriteJournal::record
    /// [`assign_epoch`]: WriteJournal::assign_epoch
    version: u64,
}

impl WriteJournal {
    /// A journal that records every write (crash-consistency testing).
    pub fn enabled() -> WriteJournal {
        WriteJournal {
            enabled: true,
            ..WriteJournal::default()
        }
    }

    /// A journal that only hands out sequence numbers and discards the
    /// payload (performance runs).
    pub fn disabled() -> WriteJournal {
        WriteJournal::default()
    }

    /// Whether entries are being retained.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one write; returns its sequence number. When the journal is
    /// disabled the sequence number still advances so the rest of the
    /// simulator behaves identically.
    pub fn record(&mut self, line: LineAddr, data: LineSnapshot) -> WriteSeq {
        let seq = WriteSeq(self.next_seq);
        self.next_seq += 1;
        self.version += 1;
        self.executed.push(false);
        self.exec_clock.push(0);
        self.last_store.insert(line, seq);
        if self.enabled {
            self.entries.push(JournalEntry {
                seq,
                epoch: None,
                line,
                data,
            });
        }
        seq
    }

    /// Bind a previously recorded write to the epoch it executed in and
    /// mark it executed. The execution flag is tracked even when payload
    /// retention is disabled.
    pub fn assign_epoch(&mut self, seq: WriteSeq, epoch: EpochId) {
        self.version += 1;
        if let Some(f) = self.executed.get_mut(seq.0 as usize) {
            *f = true;
        }
        if !self.enabled {
            return;
        }
        if let Some(e) = self.entries.get_mut(seq.0 as usize) {
            debug_assert_eq!(e.seq, seq, "journal entries are dense");
            e.epoch = Some(epoch);
        }
    }

    /// Whether the store `seq` has executed in the timing domain.
    pub fn is_executed(&self, seq: WriteSeq) -> bool {
        self.executed.get(seq.0 as usize).copied().unwrap_or(false)
    }

    /// Stamp the execution instant of store `seq` on an external
    /// monotonic clock (the dependency graph's registration/commit
    /// clock). Maintained even when payload retention is disabled.
    pub fn note_exec_clock(&mut self, seq: WriteSeq, clock: u64) {
        if let Some(c) = self.exec_clock.get_mut(seq.0 as usize) {
            *c = clock;
        }
    }

    /// The execution stamp of store `seq`, if it executed.
    pub fn exec_clock_of(&self, seq: WriteSeq) -> Option<u64> {
        if self.is_executed(seq) {
            self.exec_clock.get(seq.0 as usize).copied()
        } else {
            None
        }
    }

    /// The latest (generation-order) store to `line`, if any.
    pub fn last_store(&self, line: LineAddr) -> Option<WriteSeq> {
        self.last_store.get(&line).copied()
    }

    /// Look up an entry by sequence number (entries are dense while
    /// enabled).
    pub fn get(&self, seq: WriteSeq) -> Option<&JournalEntry> {
        let e = self.entries.get(seq.0 as usize)?;
        debug_assert_eq!(e.seq, seq);
        Some(e)
    }

    /// All retained entries, in sequence order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Monotonic mutation counter (see the field docs): strictly
    /// increases on every record and epoch assignment.
    pub fn version(&self) -> u64 {
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_sim_core::ThreadId;

    fn ep(t: usize, ts: u64) -> EpochId {
        EpochId::new(ThreadId(t), ts)
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let mut j = WriteJournal::enabled();
        let a = j.record(LineAddr::containing(0), [0; 64]);
        let b = j.record(LineAddr::containing(64), [0; 64]);
        assert!(a < b);
        assert_eq!(b, WriteSeq(1));
    }

    #[test]
    fn disabled_journal_discards_but_counts() {
        let mut j = WriteJournal::disabled();
        assert!(!j.is_enabled());
        let s = j.record(LineAddr::containing(0), [1; 64]);
        let t = j.record(LineAddr::containing(0), [2; 64]);
        j.assign_epoch(s, ep(0, 0)); // no-op, must not panic
        assert_eq!(j.entries().len(), 0);
        assert_eq!(t, WriteSeq(1), "sequence numbers advance while disabled");
    }

    #[test]
    fn exec_clock_visible_only_after_execution() {
        let mut j = WriteJournal::enabled();
        let s = j.record(LineAddr::containing(0), [0; 64]);
        j.note_exec_clock(s, 9);
        // Not executed yet: the stamp stays hidden.
        assert_eq!(j.exec_clock_of(s), None);
        j.assign_epoch(s, ep(0, 0));
        assert_eq!(j.exec_clock_of(s), Some(9));
    }

    #[test]
    fn epoch_assignment_patches_entry() {
        let mut j = WriteJournal::enabled();
        let s0 = j.record(LineAddr::containing(0), [1; 64]);
        let s1 = j.record(LineAddr::containing(64), [2; 64]);
        j.assign_epoch(s1, ep(1, 3));
        assert_eq!(j.get(s0).unwrap().epoch, None);
        assert_eq!(j.get(s1).unwrap().epoch, Some(ep(1, 3)));
    }

    #[test]
    fn entries_of_epoch_filters_assigned_only() {
        let mut j = WriteJournal::enabled();
        let a = j.record(LineAddr::containing(0), [1; 64]);
        let b = j.record(LineAddr::containing(64), [2; 64]);
        j.record(LineAddr::containing(128), [3; 64]); // never executed
        j.assign_epoch(a, ep(0, 0));
        j.assign_epoch(b, ep(0, 0));
        let of = |epoch| {
            j.entries()
                .iter()
                .filter(|e| e.epoch == Some(epoch))
                .count()
        };
        assert_eq!(of(ep(0, 0)), 2);
        assert_eq!(of(ep(1, 0)), 0);
        assert_eq!(j.entries().len(), 3);
    }

    #[test]
    fn entries_preserve_payload() {
        let mut j = WriteJournal::enabled();
        let mut data = [0u8; 64];
        data[5] = 0xaa;
        let s = j.record(LineAddr::containing(0x1c0), data);
        let e = j.get(s).unwrap();
        assert_eq!(e.line, LineAddr::containing(0x1c0));
        assert_eq!(e.data[5], 0xaa);
    }
}
