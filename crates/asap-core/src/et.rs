//! Epoch tables (paper §V-A, §V-C, Fig. 6).
//!
//! A per-core CAM holding metadata for the thread's *in-flight* epochs:
//! how many writes are still unflushed/unacked, whether the epoch has a
//! cross-thread dependency and whether it has been resolved, which
//! threads depend on it, and which memory controllers received *early*
//! flushes (those must be sent commit messages, §V-C).
//!
//! The table determines when an epoch is:
//!
//! * **safe** — every earlier epoch of this thread has committed (it is
//!   the oldest entry in the table) and its cross-thread dependency, if
//!   any, has been resolved by a CDR message;
//! * **complete** — the persist buffer received ACKs for all its writes;
//! * **committable** — safe ∧ complete ∧ closed (a barrier or dependency
//!   split ended it).
//!
//! Epochs commit strictly in per-thread timestamp order, which is what
//! lets the recovery tables avoid comparing timestamps (§V-C).
//!
//! Per-thread epoch timestamps are consecutive (`split_epoch` /
//! `open_next_epoch` advance by exactly 1) and commits remove only the
//! oldest entry, so the table is a dense ring: a `VecDeque` of entries
//! whose front is `base_ts`. Every lookup is `ts - base_ts` — no ordered
//! map, no hashing — and iteration from the front is timestamp order by
//! construction.

use asap_sim_core::{EpochId, McId, ThreadId};
use std::collections::VecDeque;

/// Status of one epoch as seen by its thread's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochStatus {
    /// Still tracked by the table.
    InFlight,
    /// Committed and removed.
    Committed,
    /// Never created (timestamp beyond the current epoch).
    Unknown,
}

/// Metadata for one in-flight epoch.
#[derive(Debug, Clone, Default)]
struct EpochEntry {
    pending_writes: usize,
    /// Monotone count of writes ever added (pending or acked).
    writes_total: usize,
    closed: bool,
    /// Cross-thread dependencies: (source epoch, resolved?).
    deps: Vec<(EpochId, bool)>,
    dependents: Vec<ThreadId>,
    early_mcs: Vec<McId>,
    commit_acks_pending: usize,
    committing: bool,
}

impl EpochEntry {
    /// Zero the entry for reuse, keeping the capacity of its vectors —
    /// the point of the free-list: a recycled entry's `deps`/
    /// `dependents`/`early_mcs` never re-allocate in steady state.
    fn reset(&mut self) {
        self.pending_writes = 0;
        self.writes_total = 0;
        self.closed = false;
        self.deps.clear();
        self.dependents.clear();
        self.early_mcs.clear();
        self.commit_acks_pending = 0;
        self.committing = false;
    }
}

/// The epoch table of one core.
///
/// # Example
///
/// ```
/// use asap_core::EpochTable;
/// use asap_sim_core::ThreadId;
///
/// let mut et = EpochTable::new(ThreadId(0), 32);
/// et.open(0);
/// et.add_write(0);
/// et.close(0);
/// assert!(!et.is_committable(0)); // write still pending
/// et.ack_write(0);
/// assert!(et.is_committable(0));
/// ```
#[derive(Debug, Clone)]
pub struct EpochTable {
    thread: ThreadId,
    /// In-flight epochs, oldest first; entry `i` is epoch `base_ts + i`.
    entries: VecDeque<EpochEntry>,
    /// Timestamp of the front entry (or of the next epoch to open when
    /// the table is empty).
    base_ts: u64,
    /// Whether any epoch has ever been opened (fixes `base_ts` on first
    /// open).
    opened_any: bool,
    capacity: usize,
    last_committed: Option<u64>,
    /// Free-list of committed entries awaiting reuse (their internal
    /// vectors keep their capacity across the recycle).
    spare: Vec<EpochEntry>,
}

impl EpochTable {
    /// Create a table for `thread` with `capacity` entries (Table II: 32).
    pub fn new(thread: ThreadId, capacity: usize) -> EpochTable {
        EpochTable {
            thread,
            entries: VecDeque::with_capacity(capacity + 1),
            base_ts: 0,
            opened_any: false,
            capacity,
            last_committed: None,
            spare: Vec::new(),
        }
    }

    /// The owning thread.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Whether a new epoch can be opened (ofence stalls when full,
    /// §VI-A).
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Number of in-flight epochs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether every epoch has committed (dfence release condition).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Position of epoch `ts` in the deque, if in flight.
    fn index_of(&self, ts: u64) -> Option<usize> {
        let off = ts.checked_sub(self.base_ts)?;
        ((off as usize) < self.entries.len()).then_some(off as usize)
    }

    fn entry(&self, ts: u64) -> Option<&EpochEntry> {
        self.index_of(ts).map(|i| &self.entries[i])
    }

    /// Create the entry for epoch `ts`.
    ///
    /// # Panics
    ///
    /// Panics if the table is full (callers must check [`is_full`]
    /// first — hardware stalls the fence instead) or the epoch already
    /// exists.
    ///
    /// [`is_full`]: Self::is_full
    pub fn open(&mut self, ts: u64) {
        assert!(!self.is_full(), "epoch table full: fence must stall");
        self.force_open(ts);
    }

    /// Create the entry for epoch `ts` even when the table is nominally
    /// full. Dependency-induced splits (a coherence reply "starts a new
    /// epoch", §IV-E) must never be skipped: attaching dependencies to an
    /// epoch that stays open would let an epoch both *receive* and
    /// *serve* dependencies, which can create wait cycles and falsify
    /// Lemma 0.1. Hardware achieves the same by briefly stalling the
    /// coherence reply; we model it as a small overflow. Fences still
    /// stall on a full table, which is what bounds occupancy.
    ///
    /// # Panics
    ///
    /// Panics if the epoch already exists or is not the next consecutive
    /// timestamp (per-thread epochs open in order).
    pub fn force_open(&mut self, ts: u64) {
        if !self.opened_any && self.entries.is_empty() {
            self.base_ts = ts;
            self.opened_any = true;
        }
        let next = self.base_ts + self.entries.len() as u64;
        assert!(ts >= next, "epoch {ts} opened twice");
        assert_eq!(ts, next, "epochs must open in consecutive ts order");
        self.entries.push_back(self.spare.pop().unwrap_or_default());
    }

    /// Status of epoch `ts`.
    pub fn status(&self, ts: u64) -> EpochStatus {
        if self.index_of(ts).is_some() {
            EpochStatus::InFlight
        } else if self.last_committed.is_some_and(|c| ts <= c) {
            EpochStatus::Committed
        } else {
            EpochStatus::Unknown
        }
    }

    fn entry_mut(&mut self, ts: u64) -> &mut EpochEntry {
        match self.index_of(ts) {
            Some(i) => &mut self.entries[i],
            None => panic!("epoch {ts} not in table"),
        }
    }

    /// A write of epoch `ts` entered the persist buffer.
    pub fn add_write(&mut self, ts: u64) {
        let e = self.entry_mut(ts);
        e.pending_writes += 1;
        e.writes_total += 1;
    }

    /// Whether epoch `ts` ever received a write (pending or acked).
    pub fn has_writes(&self, ts: u64) -> bool {
        self.entry(ts).is_some_and(|e| e.writes_total > 0)
    }

    /// Whether epoch `ts` has been closed by a barrier or split.
    pub fn is_closed(&self, ts: u64) -> bool {
        self.entry(ts).is_some_and(|e| e.closed)
    }

    /// A write of epoch `ts` was acked by a memory controller.
    pub fn ack_write(&mut self, ts: u64) {
        let e = self.entry_mut(ts);
        debug_assert!(e.pending_writes > 0, "ack without pending write");
        e.pending_writes -= 1;
    }

    /// Writes of epoch `ts` still unacked.
    pub fn pending_writes(&self, ts: u64) -> usize {
        self.entry(ts).map_or(0, |e| e.pending_writes)
    }

    /// Mark epoch `ts` closed (a barrier or dependency split ended it).
    pub fn close(&mut self, ts: u64) {
        self.entry_mut(ts).closed = true;
    }

    /// Record that epoch `ts` depends on `src` (another thread's epoch).
    /// Usually an epoch carries at most one cross dependency (a dependency
    /// split starts a new epoch), but when the table is full the simulator
    /// may attach several to the open epoch.
    pub fn record_dep(&mut self, ts: u64, src: EpochId) {
        let e = self.entry_mut(ts);
        if !e.deps.iter().any(|&(s, _)| s == src) {
            e.deps.push((src, false));
        }
    }

    /// A CDR message arrived: resolve every dependency on `src`.
    /// Returns whether anything was resolved.
    pub fn resolve_dep(&mut self, src: EpochId) -> bool {
        let mut any = false;
        for e in self.entries.iter_mut() {
            for d in e.deps.iter_mut() {
                if d.0 == src && !d.1 {
                    d.1 = true;
                    any = true;
                }
            }
        }
        any
    }

    /// Timestamp of the oldest in-flight epoch if it is safe (its cross
    /// dependencies, if any, are all resolved). Used to retry NACKed
    /// persist-buffer entries as safe flushes.
    pub fn oldest_safe_ts(&self) -> Option<u64> {
        let e = self.entries.front()?;
        e.deps.iter().all(|&(_, r)| r).then_some(self.base_ts)
    }

    /// The unresolved dependency of the *oldest* epoch, if that is what
    /// blocks it (drives HOPS polling).
    pub fn oldest_unresolved_dep(&self) -> Option<EpochId> {
        let e = self.entries.front()?;
        e.deps.iter().find(|&&(_, r)| !r).map(|&(s, _)| s)
    }

    /// Register `tid` as a dependent of epoch `ts` (a CDR is owed on
    /// commit).
    pub fn add_dependent(&mut self, ts: u64, tid: ThreadId) {
        let e = self.entry_mut(ts);
        if !e.dependents.contains(&tid) {
            e.dependents.push(tid);
        }
    }

    /// Note that an early flush of epoch `ts` was sent to `mc` (a commit
    /// message is owed there, §V-C).
    pub fn note_early_flush(&mut self, ts: u64, mc: McId) {
        let e = self.entry_mut(ts);
        if !e.early_mcs.contains(&mc) {
            e.early_mcs.push(mc);
        }
    }

    /// Whether epoch `ts` is *safe*: the oldest in-flight epoch with its
    /// dependency (if any) resolved. Committed epochs are trivially safe.
    pub fn is_safe(&self, ts: u64) -> bool {
        match self.status(ts) {
            EpochStatus::Committed => true,
            EpochStatus::Unknown => false,
            EpochStatus::InFlight => {
                let e = self.entries.front().expect("in flight");
                self.base_ts == ts && e.deps.iter().all(|&(_, r)| r)
            }
        }
    }

    /// Whether epoch `ts` can commit now: safe ∧ complete ∧ closed and
    /// not already mid-commit.
    pub fn is_committable(&self, ts: u64) -> bool {
        self.is_safe(ts)
            && self
                .entry(ts)
                .is_some_and(|e| e.closed && e.pending_writes == 0 && !e.committing)
    }

    /// The oldest epoch if it is committable.
    pub fn commit_candidate(&self) -> Option<u64> {
        self.entries.front()?;
        self.is_committable(self.base_ts).then_some(self.base_ts)
    }

    /// Begin the commit protocol for epoch `ts`: the MCs that must
    /// receive commit messages are written into `out` (cleared first;
    /// empty ⇒ the caller may finish the commit immediately). The engine
    /// round-trips one scratch vector through every commit.
    pub fn begin_commit_into(&mut self, ts: u64, out: &mut Vec<McId>) {
        let e = self.entry_mut(ts);
        debug_assert!(!e.committing);
        e.committing = true;
        e.commit_acks_pending = e.early_mcs.len();
        out.clear();
        out.extend_from_slice(&e.early_mcs);
    }

    /// A commit ack arrived from an MC; returns `true` when all acks are
    /// in and the epoch can be finalized.
    pub fn commit_ack(&mut self, ts: u64) -> bool {
        let e = self.entry_mut(ts);
        debug_assert!(e.committing && e.commit_acks_pending > 0);
        e.commit_acks_pending -= 1;
        e.commit_acks_pending == 0
    }

    /// Finalize the commit: remove the entry, write the dependent threads
    /// owed CDR messages into `out` (cleared first) and recycle the
    /// committed entry onto the table's free-list.
    ///
    /// # Panics
    ///
    /// Panics if `ts` is not the oldest in-flight epoch (commits are in
    /// order) or writes are still pending.
    pub fn finish_commit_into(&mut self, ts: u64, out: &mut Vec<ThreadId>) {
        assert!(!self.entries.is_empty(), "entry exists");
        assert_eq!(self.base_ts, ts, "commits must be in timestamp order");
        let mut e = self.entries.pop_front().expect("entry exists");
        assert_eq!(e.pending_writes, 0);
        self.base_ts += 1;
        self.last_committed = Some(ts);
        out.clear();
        out.extend_from_slice(&e.dependents);
        e.reset();
        // Bound the free-list by table capacity (its natural maximum).
        if self.spare.len() < self.capacity {
            self.spare.push(e);
        }
    }

    /// Timestamp of the most recently committed epoch.
    pub fn last_committed(&self) -> Option<u64> {
        self.last_committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn et() -> EpochTable {
        EpochTable::new(ThreadId(0), 4)
    }

    /// `begin_commit_into` over a dirty scratch vector, which it must clear.
    fn begin_commit(t: &mut EpochTable, ts: u64) -> Vec<McId> {
        let mut mcs = vec![McId(9)];
        t.begin_commit_into(ts, &mut mcs);
        mcs
    }

    /// `finish_commit_into` over a dirty scratch vector, which it must clear.
    fn finish_commit(t: &mut EpochTable, ts: u64) -> Vec<ThreadId> {
        let mut deps = vec![ThreadId(9)];
        t.finish_commit_into(ts, &mut deps);
        deps
    }

    #[test]
    fn lifecycle_open_write_ack_commit() {
        let mut t = et();
        t.open(0);
        assert_eq!(t.status(0), EpochStatus::InFlight);
        t.add_write(0);
        t.add_write(0);
        t.close(0);
        assert!(!t.is_committable(0));
        t.ack_write(0);
        t.ack_write(0);
        assert!(t.is_committable(0));
        assert_eq!(t.commit_candidate(), Some(0));
        let mcs = begin_commit(&mut t, 0);
        assert!(mcs.is_empty());
        let deps = finish_commit(&mut t, 0);
        assert!(deps.is_empty());
        assert_eq!(t.status(0), EpochStatus::Committed);
        assert!(t.is_empty());
    }

    #[test]
    fn safety_requires_being_oldest() {
        let mut t = et();
        t.open(0);
        t.open(1);
        assert!(t.is_safe(0));
        assert!(!t.is_safe(1));
        t.close(0);
        begin_commit(&mut t, 0);
        finish_commit(&mut t, 0);
        assert!(t.is_safe(1));
        assert!(t.is_safe(0)); // committed epochs stay safe
    }

    #[test]
    fn dependency_blocks_safety_until_cdr() {
        let mut t = et();
        t.open(0);
        let src = EpochId::new(ThreadId(1), 7);
        t.record_dep(0, src);
        assert!(!t.is_safe(0));
        assert_eq!(t.oldest_unresolved_dep(), Some(src));
        assert!(t.resolve_dep(src));
        assert!(!t.resolve_dep(src)); // idempotent
        assert!(t.is_safe(0));
        assert_eq!(t.oldest_unresolved_dep(), None);
    }

    #[test]
    fn commit_protocol_with_mc_acks() {
        let mut t = et();
        t.open(0);
        t.close(0);
        t.note_early_flush(0, McId(0));
        t.note_early_flush(0, McId(1));
        t.note_early_flush(0, McId(0)); // dedup
        t.add_dependent(0, ThreadId(2));
        t.add_dependent(0, ThreadId(2)); // dedup
        let mcs = begin_commit(&mut t, 0);
        assert_eq!(mcs, vec![McId(0), McId(1)]);
        assert!(!t.is_committable(0)); // mid-commit
        assert!(!t.commit_ack(0));
        assert!(t.commit_ack(0));
        let deps = finish_commit(&mut t, 0);
        assert_eq!(deps, vec![ThreadId(2)]);
    }

    #[test]
    fn capacity_and_occupancy() {
        let mut t = et();
        for ts in 0..4 {
            t.open(ts);
        }
        assert!(t.is_full());
        assert_eq!(t.len(), 4);
        t.close(0);
        begin_commit(&mut t, 0);
        finish_commit(&mut t, 0);
        assert!(!t.is_full());
    }

    #[test]
    #[should_panic(expected = "fence must stall")]
    fn opening_when_full_panics() {
        let mut t = et();
        for ts in 0..5 {
            t.open(ts);
        }
    }

    #[test]
    #[should_panic(expected = "opened twice")]
    fn reopening_panics() {
        let mut t = et();
        t.open(0);
        t.open(1);
        t.open(1);
    }

    #[test]
    #[should_panic(expected = "timestamp order")]
    fn out_of_order_commit_panics() {
        let mut t = et();
        t.open(0);
        t.open(1);
        t.close(1);
        finish_commit(&mut t, 1);
    }

    #[test]
    fn status_unknown_for_future() {
        let t = et();
        assert_eq!(t.status(9), EpochStatus::Unknown);
        assert!(!t.is_safe(9));
    }

    #[test]
    fn table_reopens_after_draining_empty() {
        let mut t = et();
        t.open(0);
        t.close(0);
        begin_commit(&mut t, 0);
        finish_commit(&mut t, 0);
        assert!(t.is_empty());
        t.open(1); // next consecutive ts after drain
        assert_eq!(t.status(1), EpochStatus::InFlight);
        assert_eq!(t.status(0), EpochStatus::Committed);
    }
}
