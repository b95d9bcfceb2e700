//! The Recovery Table: undo and delay records (paper §V-A, §V-B, Table I).
//!
//! The recovery table is a small CAM in each memory controller holding two
//! kinds of records, both created only by *early* (speculative) flushes:
//!
//! * an **undo record** stores the *safe* state for an address — the value
//!   memory held before it was speculatively updated, or the value of the
//!   most recent *safe* flush to it. On a crash, undo records are written
//!   back to memory, unwinding speculation.
//! * a **delay record** holds the value of an early flush that arrived
//!   while an undo record already existed for the address (a *write
//!   collision*, Fig. 5). The value is applied when its epoch commits.
//!
//! Incoming-flush handling follows Table I:
//!
//! | event | undo record absent | undo record present |
//! |---|---|---|
//! | safe flush | update memory | update undo record |
//! | early flush | create undo record, speculatively update memory | create delay record |
//!
//! The table has finite capacity; early flushes that would need a new
//! record are NACKed when full (§V-D). Safe flushes never allocate and are
//! never NACKed, which is what guarantees forward progress (§VI-A).
//!
//! Records are matched by the controller's dense interned
//! [`LineIdx`](asap_sim_core::LineIdx) (the owning [`MemController`]
//! interns each flush packet's address exactly once); both record kinds
//! keep the full [`LineAddr`] alongside so memory writes during
//! commit/crash processing need no reverse lookup. Storage is a pair of
//! compact vectors scanned linearly — the table is CAM-sized (tens of
//! entries), where a scan over 4-byte keys beats any hashing.
//!
//! [`MemController`]: crate::MemController

use asap_pm_mem::{LineRecord, LineSnapshot, NvmImage};
use asap_sim_core::{EpochId, LineAddr, LineIdx};

/// What the recovery table did with an incoming flush (Table I row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushAction {
    /// Safe flush, no undo record: written to memory normally.
    Persisted,
    /// Safe flush, undo record present: value absorbed into the undo
    /// record; **no** media write.
    UndoUpdated,
    /// Early flush, no undo record: undo record created (media read) and
    /// memory speculatively updated (media write).
    SpeculativelyPersisted,
    /// Early flush, undo record present: delay record created/coalesced;
    /// no media write yet.
    Delayed,
    /// Early flush rejected: recovery table full.
    Nacked,
}

/// One record in the recovery table (undo or delay).
///
/// Both record kinds store address, data, thread and timestamp (Fig. 6b);
/// we keep the full [`EpochId`] which carries thread + timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtRecord {
    /// Safe state for a speculatively-updated address.
    Undo {
        /// Address the record protects.
        line: LineAddr,
        /// The safe (pre-speculation or last-safe-flush) state to restore
        /// on a crash.
        safe: LineRecord,
        /// Epoch of the early flush that created the record; the record
        /// is deleted when this epoch commits.
        creator: EpochId,
    },
    /// A parked early flush awaiting its epoch's commit.
    Delay {
        /// Address of the parked write.
        line: LineAddr,
        /// The parked value.
        data: LineSnapshot,
        /// Journal sequence of the parked write.
        seq: u64,
        /// Epoch the write belongs to; processed when it commits.
        epoch: EpochId,
    },
}

impl RtRecord {
    /// The address this record refers to.
    pub fn line(&self) -> LineAddr {
        match self {
            RtRecord::Undo { line, .. } | RtRecord::Delay { line, .. } => *line,
        }
    }
}

/// Safe state for one speculatively-updated line.
#[derive(Debug, Clone)]
struct UndoRec {
    idx: LineIdx,
    line: LineAddr,
    safe: LineRecord,
    creator: EpochId,
}

/// One parked early flush.
#[derive(Debug, Clone)]
struct DelayRec {
    idx: LineIdx,
    line: LineAddr,
    data: LineSnapshot,
    seq: u64,
    epoch: EpochId,
}

/// The recovery table of one memory controller.
///
/// # Example
///
/// ```
/// use asap_memctrl::{FlushAction, RecoveryTable};
/// use asap_pm_mem::NvmImage;
/// use asap_sim_core::{EpochId, LineAddr, LineIdx, ThreadId};
///
/// let mut rt = RecoveryTable::new(32);
/// let mut nvm = NvmImage::new();
/// let line = LineAddr::containing(0x100);
/// let idx = LineIdx(0); // interned by the owning MemController
/// let e = EpochId::new(ThreadId(0), 1);
/// // An early flush speculatively updates memory and creates an undo.
/// let a = rt.handle_flush(line, idx, [9u8; 64], 7, e, true, &mut nvm);
/// assert_eq!(a, FlushAction::SpeculativelyPersisted);
/// assert_eq!(nvm.line(line).data[0], 9);
/// // Crash now: the undo record restores the old (zero) value, and the
/// // table keeps its record.
/// assert_eq!(rt.crash_drain(&mut nvm), 1);
/// assert_eq!(nvm.line(line).data[0], 0);
/// assert!(rt.has_undo(idx));
/// ```
#[derive(Debug, Clone)]
pub struct RecoveryTable {
    undo: Vec<UndoRec>,
    delay: Vec<DelayRec>,
    capacity: usize,
    max_occupancy: usize,
    /// Monotonic mutation counter: bumped whenever a record is created,
    /// updated, or removed. The crash-space explorer keys its pruning
    /// digest on this (two instants with equal versions hold the exact
    /// same record set within one deterministic run).
    version: u64,
    /// Fault injection: when non-zero, every n-th undo-record creation is
    /// silently *skipped* while the speculative media write still goes
    /// through — exactly the Theorem 2 bug class ASAP's recovery table
    /// exists to prevent. `0` disables. See `Sim::inject_undo_drop`.
    drop_undo_every: u64,
    /// Early flushes that reached the undo-creation row (fault-injection
    /// counter).
    early_seen: u64,
}

impl RecoveryTable {
    /// Create a table with `capacity` total record slots (undo + delay).
    pub fn new(capacity: usize) -> RecoveryTable {
        RecoveryTable {
            undo: Vec::new(),
            delay: Vec::new(),
            capacity,
            max_occupancy: 0,
            version: 0,
            drop_undo_every: 0,
            early_seen: 0,
        }
    }

    /// Monotonic mutation counter (see the field docs): strictly
    /// increases on every record mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Enable (n > 0) or disable (n = 0) undo-drop fault injection: every
    /// n-th undo-record creation is skipped while its speculative write
    /// still hits the media. Deliberately-broken-model fixture for the
    /// crash-space explorer; never set in normal operation.
    pub fn set_drop_undo_every(&mut self, n: u64) {
        self.drop_undo_every = n;
    }

    /// Total records currently held.
    pub fn occupancy(&self) -> usize {
        self.undo.len() + self.delay.len()
    }

    /// High-water mark of occupancy (Figure 12).
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Remaining free slots.
    pub fn free_slots(&self) -> usize {
        self.capacity - self.occupancy()
    }

    /// Whether an undo record exists for the line interned as `idx`.
    pub fn has_undo(&self, idx: LineIdx) -> bool {
        self.undo.iter().any(|u| u.idx == idx)
    }

    /// The epoch whose early flush created the undo record for `idx`.
    pub fn undo_creator(&self, idx: LineIdx) -> Option<EpochId> {
        self.undo.iter().find(|u| u.idx == idx).map(|u| u.creator)
    }

    /// Whether a delay record exists for `(idx, epoch)`.
    pub fn has_delay(&self, idx: LineIdx, epoch: EpochId) -> bool {
        self.delay.iter().any(|d| d.idx == idx && d.epoch == epoch)
    }

    /// Number of delay records for `idx` (any epoch).
    pub fn delay_count(&self, idx: LineIdx) -> usize {
        self.delay.iter().filter(|d| d.idx == idx).count()
    }

    fn note_occupancy(&mut self) {
        self.max_occupancy = self.max_occupancy.max(self.occupancy());
    }

    /// Apply Table I to an incoming flush; mutates `nvm` for the rows
    /// that write memory. Returns the action taken (the caller charges
    /// media latency and statistics accordingly). `idx` is the
    /// controller's interned index for `line`.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_flush(
        &mut self,
        line: LineAddr,
        idx: LineIdx,
        data: LineSnapshot,
        seq: u64,
        epoch: EpochId,
        early: bool,
        nvm: &mut NvmImage,
    ) -> FlushAction {
        // A flush always supersedes an older delay record of its own
        // (line, epoch): same-epoch same-line writes leave the persist
        // buffer in order, so the incoming value is the newer one.
        // Without this, a later flush of the epoch could persist directly
        // (the undo that parked the delay having been cleaned by its
        // creator's commit) and the stale delayed value would overwrite
        // it at commit time.
        if let Some(pos) = self
            .delay
            .iter()
            .position(|d| d.idx == idx && d.epoch == epoch)
        {
            if early {
                let d = &mut self.delay[pos];
                d.data = data;
                d.seq = seq;
                self.version += 1;
                return FlushAction::Delayed;
            }
            // Safe flush: the parked value is obsolete; drop it and fall
            // through to normal safe handling.
            self.delay.remove(pos);
            self.version += 1;
        }
        let undo_pos = self.undo.iter().position(|u| u.idx == idx);
        match (early, undo_pos) {
            (false, None) => {
                // Safe flush, no undo: normal persist.
                nvm.persist(line, data, Some(seq), Some(epoch));
                FlushAction::Persisted
            }
            (false, Some(pos)) => {
                let rec = &mut self.undo[pos];
                if rec.creator == epoch {
                    // The undo record was created by *this* epoch's own
                    // earlier (early) flush, so the speculative value in
                    // memory is an OLDER write of the same epoch (persist
                    // buffers keep per-address order): write memory
                    // through and keep the undo's pre-epoch safe value —
                    // a crash before commit rolls the whole epoch back.
                    // (Undo records carry thread+timestamp per Fig. 6b,
                    // so the equality check is free in hardware.)
                    nvm.persist(line, data, Some(seq), Some(epoch));
                    FlushAction::Persisted
                } else {
                    // Undo created by a different (newer) epoch: memory
                    // holds a newer speculative value; fold the safe
                    // value into the undo record instead of writing
                    // memory.
                    rec.safe.data = data;
                    rec.safe.seq = Some(seq);
                    rec.safe.epoch = Some(epoch);
                    self.version += 1;
                    FlushAction::UndoUpdated
                }
            }
            (true, None) => {
                // Early flush, no undo: save old value, speculate.
                if self.free_slots() == 0 {
                    return FlushAction::Nacked;
                }
                self.early_seen += 1;
                let drop_undo = self.drop_undo_every != 0
                    && self.early_seen.is_multiple_of(self.drop_undo_every);
                if !drop_undo {
                    let old = nvm.line(line);
                    self.undo.push(UndoRec {
                        idx,
                        line,
                        safe: old,
                        creator: epoch,
                    });
                    self.note_occupancy();
                    self.version += 1;
                }
                nvm.persist(line, data, Some(seq), Some(epoch));
                FlushAction::SpeculativelyPersisted
            }
            (true, Some(_)) => {
                // Early flush, undo present: write collision — delay
                // (same-epoch coalescing already happened above; §VII-A
                // "Coalescing in the Recovery Table").
                if self.free_slots() == 0 {
                    return FlushAction::Nacked;
                }
                self.delay.push(DelayRec {
                    idx,
                    line,
                    data,
                    seq,
                    epoch,
                });
                self.note_occupancy();
                self.version += 1;
                FlushAction::Delayed
            }
        }
    }

    /// Process an epoch-commit message (§V-C): delete the undo records the
    /// epoch created, then replay its delay records as if the flushes just
    /// arrived. Returns the number of media writes performed by delay
    /// processing (the caller charges their latency).
    pub fn commit_epoch(&mut self, epoch: EpochId, nvm: &mut NvmImage) -> usize {
        // Commit messages only reach MCs the epoch flushed early to, so
        // an unconditional bump can only over-distinguish (sound for the
        // explorer's pruning digest, never unsound).
        self.version += 1;
        // Delete undo records belonging to the committing epoch.
        self.undo.retain(|u| u.creator != epoch);

        // Extract this epoch's delay records, preserving arrival order.
        let mut media_writes = 0;
        let mut i = 0;
        while i < self.delay.len() {
            if self.delay[i].epoch == epoch {
                let d = self.delay.remove(i);
                if let Some(rec) = self.undo.iter_mut().find(|u| u.idx == d.idx) {
                    // An undo record (from a different epoch's early
                    // flush) still guards the address: fold the value in.
                    rec.safe.data = d.data;
                    rec.safe.seq = Some(d.seq);
                    rec.safe.epoch = Some(d.epoch);
                } else {
                    nvm.persist(d.line, d.data, Some(d.seq), Some(d.epoch));
                    media_writes += 1;
                }
            } else {
                i += 1;
            }
        }
        media_writes
    }

    /// Crash handling (§V-E) on `nvm`: write undo-record values back to
    /// memory, unwinding speculation; delay records never reach the
    /// media. The table keeps every record, so the same crash can be
    /// applied to another image and the simulation can continue.
    /// Returns the number of undo records applied.
    pub fn crash_drain(&self, nvm: &mut NvmImage) -> usize {
        for u in &self.undo {
            nvm.restore(u.line, u.safe.clone());
        }
        self.undo.len()
    }

    /// Iterate over all records (diagnostics/tests); undo records first,
    /// each kind in creation order.
    pub fn records(&self) -> Vec<RtRecord> {
        let mut out: Vec<RtRecord> = self
            .undo
            .iter()
            .map(|u| RtRecord::Undo {
                line: u.line,
                safe: u.safe.clone(),
                creator: u.creator,
            })
            .collect();
        out.extend(self.delay.iter().map(|d| RtRecord::Delay {
            line: d.line,
            data: d.data,
            seq: d.seq,
            epoch: d.epoch,
        }));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_sim_core::ThreadId;

    fn la(i: u64) -> LineAddr {
        LineAddr::containing(i * 64)
    }

    // In tests the interned index is just the line number.
    fn ix(i: u64) -> LineIdx {
        LineIdx(i as u32)
    }

    fn ep(t: usize, ts: u64) -> EpochId {
        EpochId::new(ThreadId(t), ts)
    }

    fn snap(b: u8) -> LineSnapshot {
        [b; 64]
    }

    // ---- Table I rows ----

    #[test]
    fn rt_table1_safe_no_undo_persists() {
        let mut rt = RecoveryTable::new(8);
        let mut nvm = NvmImage::new();
        let a = rt.handle_flush(la(1), ix(1), snap(5), 1, ep(0, 0), false, &mut nvm);
        assert_eq!(a, FlushAction::Persisted);
        assert_eq!(nvm.line(la(1)).data[0], 5);
        assert_eq!(rt.occupancy(), 0);
    }

    #[test]
    fn rt_table1_safe_with_undo_updates_undo_not_memory() {
        let mut rt = RecoveryTable::new(8);
        let mut nvm = NvmImage::new();
        // Early flush (epoch 1) creates undo of the zero state.
        rt.handle_flush(la(1), ix(1), snap(9), 2, ep(0, 1), true, &mut nvm);
        // Older safe flush (epoch 0) arrives late.
        let a = rt.handle_flush(la(1), ix(1), snap(4), 1, ep(0, 0), false, &mut nvm);
        assert_eq!(a, FlushAction::UndoUpdated);
        // Memory keeps the newer speculative value...
        assert_eq!(nvm.line(la(1)).data[0], 9);
        // ...but a crash restores the safe flush's value, not zero.
        rt.crash_drain(&mut nvm);
        assert_eq!(nvm.line(la(1)).data[0], 4);
    }

    #[test]
    fn rt_table1_early_no_undo_speculates() {
        let mut rt = RecoveryTable::new(8);
        let mut nvm = NvmImage::new();
        nvm.persist(la(2), snap(1), Some(0), None);
        let a = rt.handle_flush(la(2), ix(2), snap(7), 5, ep(1, 3), true, &mut nvm);
        assert_eq!(a, FlushAction::SpeculativelyPersisted);
        assert_eq!(nvm.line(la(2)).data[0], 7);
        assert!(rt.has_undo(ix(2)));
        rt.crash_drain(&mut nvm);
        assert_eq!(nvm.line(la(2)).data[0], 1);
    }

    #[test]
    fn rt_table1_early_with_undo_delays() {
        let mut rt = RecoveryTable::new(8);
        let mut nvm = NvmImage::new();
        rt.handle_flush(la(3), ix(3), snap(7), 5, ep(1, 3), true, &mut nvm);
        let a = rt.handle_flush(la(3), ix(3), snap(8), 6, ep(2, 4), true, &mut nvm);
        assert_eq!(a, FlushAction::Delayed);
        // Memory untouched by the delayed write.
        assert_eq!(nvm.line(la(3)).data[0], 7);
        assert_eq!(rt.delay_count(ix(3)), 1);
    }

    // ---- the Figure 5 write-collision scenario ----

    #[test]
    fn figure5_collision_recovers_initial_value() {
        // A=0 initially. T3 writes A=3 (early), then T2's A=2 (early,
        // older in coherence order) arrives after it. A crash must
        // recover A=0 — the naive design in the paper loses it.
        let mut rt = RecoveryTable::new(8);
        let mut nvm = NvmImage::new();
        rt.handle_flush(la(4), ix(4), snap(3), 30, ep(3, 1), true, &mut nvm);
        rt.handle_flush(la(4), ix(4), snap(2), 20, ep(2, 1), true, &mut nvm);
        assert_eq!(nvm.line(la(4)).data[0], 3); // speculative state
        rt.crash_drain(&mut nvm);
        assert_eq!(nvm.line(la(4)).data[0], 0); // initial value recovered
    }

    #[test]
    fn figure5_collision_commit_path() {
        // Same as above but without a crash: committing T2's epoch folds
        // the delay value into the undo record; committing T3's epoch
        // deletes the undo. Final memory value is T3's (the newest).
        let mut rt = RecoveryTable::new(8);
        let mut nvm = NvmImage::new();
        rt.handle_flush(la(4), ix(4), snap(3), 30, ep(3, 1), true, &mut nvm);
        rt.handle_flush(la(4), ix(4), snap(2), 20, ep(2, 1), true, &mut nvm);
        // T2 (older write) commits first; its delay value becomes the
        // safe value inside the undo record.
        rt.commit_epoch(ep(2, 1), &mut nvm);
        assert!(rt.has_undo(ix(4)));
        assert_eq!(rt.delay_count(ix(4)), 0);
        // Crash here would now restore 2, not 0:
        let mut crashed = nvm.clone();
        rt.crash_drain(&mut crashed);
        assert_eq!(crashed.line(la(4)).data[0], 2);
        // T3 commits: undo deleted, memory keeps 3.
        rt.commit_epoch(ep(3, 1), &mut nvm);
        assert_eq!(rt.occupancy(), 0);
        assert_eq!(nvm.line(la(4)).data[0], 3);
    }

    // ---- commit processing ----

    #[test]
    fn commit_deletes_own_undo_only() {
        let mut rt = RecoveryTable::new(8);
        let mut nvm = NvmImage::new();
        rt.handle_flush(la(5), ix(5), snap(1), 1, ep(0, 1), true, &mut nvm);
        rt.handle_flush(la(6), ix(6), snap(2), 2, ep(1, 1), true, &mut nvm);
        rt.commit_epoch(ep(0, 1), &mut nvm);
        assert!(!rt.has_undo(ix(5)));
        assert!(rt.has_undo(ix(6)));
    }

    #[test]
    fn commit_applies_delay_to_memory_when_no_undo_remains() {
        let mut rt = RecoveryTable::new(8);
        let mut nvm = NvmImage::new();
        rt.handle_flush(la(7), ix(7), snap(1), 1, ep(0, 1), true, &mut nvm);
        rt.handle_flush(la(7), ix(7), snap(9), 2, ep(1, 1), true, &mut nvm); // delayed
        rt.commit_epoch(ep(0, 1), &mut nvm); // undo gone
        let writes = rt.commit_epoch(ep(1, 1), &mut nvm); // delay applies
        assert_eq!(writes, 1);
        assert_eq!(nvm.line(la(7)).data[0], 9);
        assert_eq!(rt.occupancy(), 0);
    }

    #[test]
    fn delay_coalesces_same_epoch_same_line() {
        let mut rt = RecoveryTable::new(8);
        let mut nvm = NvmImage::new();
        rt.handle_flush(la(8), ix(8), snap(1), 1, ep(0, 1), true, &mut nvm);
        rt.handle_flush(la(8), ix(8), snap(2), 2, ep(1, 1), true, &mut nvm);
        rt.handle_flush(la(8), ix(8), snap(3), 3, ep(1, 1), true, &mut nvm);
        assert_eq!(rt.delay_count(ix(8)), 1); // coalesced
        rt.commit_epoch(ep(0, 1), &mut nvm);
        rt.commit_epoch(ep(1, 1), &mut nvm);
        assert_eq!(nvm.line(la(8)).data[0], 3); // newest coalesced value
    }

    // ---- capacity / NACK ----

    #[test]
    fn full_table_nacks_early_but_never_safe() {
        let mut rt = RecoveryTable::new(2);
        let mut nvm = NvmImage::new();
        assert_eq!(
            rt.handle_flush(la(10), ix(10), snap(1), 1, ep(0, 1), true, &mut nvm),
            FlushAction::SpeculativelyPersisted
        );
        assert_eq!(
            rt.handle_flush(la(11), ix(11), snap(2), 2, ep(0, 1), true, &mut nvm),
            FlushAction::SpeculativelyPersisted
        );
        // Table full: a third early flush is NACKed...
        assert_eq!(
            rt.handle_flush(la(12), ix(12), snap(3), 3, ep(0, 2), true, &mut nvm),
            FlushAction::Nacked
        );
        // ...and a colliding early flush is NACKed too (needs a delay
        // slot)...
        assert_eq!(
            rt.handle_flush(la(10), ix(10), snap(4), 4, ep(1, 1), true, &mut nvm),
            FlushAction::Nacked
        );
        // ...but safe flushes always proceed.
        assert_eq!(
            rt.handle_flush(la(12), ix(12), snap(5), 5, ep(0, 1), false, &mut nvm),
            FlushAction::Persisted
        );
        // Safe flush from a *different* epoch folds into the undo record.
        assert_eq!(
            rt.handle_flush(la(10), ix(10), snap(6), 6, ep(2, 1), false, &mut nvm),
            FlushAction::UndoUpdated
        );
        // Safe flush from the undo's own creator epoch writes through.
        assert_eq!(
            rt.handle_flush(la(10), ix(10), snap(7), 7, ep(0, 1), false, &mut nvm),
            FlushAction::Persisted
        );
        assert_eq!(nvm.line(la(10)).data[0], 7);
        assert_eq!(rt.max_occupancy(), 2);
    }

    #[test]
    fn records_lists_everything() {
        let mut rt = RecoveryTable::new(8);
        let mut nvm = NvmImage::new();
        rt.handle_flush(la(13), ix(13), snap(1), 1, ep(0, 1), true, &mut nvm);
        rt.handle_flush(la(13), ix(13), snap(2), 2, ep(1, 1), true, &mut nvm);
        let recs = rt.records();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.line() == la(13)));
        assert!(recs.iter().any(|r| matches!(r, RtRecord::Undo { .. })));
        assert!(recs.iter().any(|r| matches!(r, RtRecord::Delay { .. })));
    }

    #[test]
    fn crash_drain_reports_count_and_keeps_records() {
        let mut rt = RecoveryTable::new(8);
        let mut nvm = NvmImage::new();
        rt.handle_flush(la(14), ix(14), snap(1), 1, ep(0, 1), true, &mut nvm);
        rt.handle_flush(la(15), ix(15), snap(2), 2, ep(0, 1), true, &mut nvm);
        rt.handle_flush(la(14), ix(14), snap(3), 3, ep(1, 1), true, &mut nvm); // delay
        let records = rt.records();
        assert_eq!(rt.crash_drain(&mut nvm), 2);
        assert_eq!(nvm.line(la(14)).data[0], 0);
        assert_eq!(nvm.line(la(15)).data[0], 0);
        // Every record stays, delay records included.
        assert_eq!(rt.occupancy(), 3);
        assert_eq!(rt.records(), records);
    }
}
