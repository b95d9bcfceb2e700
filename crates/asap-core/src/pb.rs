//! Persist buffers (paper §V-A, Fig. 6).
//!
//! Per-core circular buffers alongside the private caches. Stores to NVM
//! are enqueued here at retirement and flushed to the memory controllers
//! in the background. Entries coalesce same-line stores *within an epoch*;
//! the same line written in different epochs occupies separate entries
//! (their relative persist semantics differ).
//!
//! The flush *policy* — conservative (HOPS) versus eager with early bits
//! (ASAP) — lives in the simulator; the buffer itself only tracks entry
//! state and answers "what could be flushed next".
//!
//! A buffer holds a few dozen entries (Table II: 32; the ablations go
//! up to 64), so every question about it — which entry may flush next,
//! whether a line is buffered — is answered by scanning the entries.

use asap_pm_mem::LineSnapshot;
use asap_sim_core::{EpochId, LineAddr};
use std::collections::VecDeque;

/// Lifecycle of one persist-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PbEntryState {
    /// Waiting to be issued to a memory controller.
    Waiting,
    /// Flush packet in flight (issued, not yet acked).
    Inflight,
    /// Flush was NACKed (full recovery table); waits until its epoch is
    /// safe, then retries as a *safe* flush.
    Nacked,
}

/// One buffered write.
#[derive(Debug, Clone)]
pub struct PbEntry {
    /// Stable id used to match acks to entries.
    pub id: u64,
    /// Target line.
    pub line: LineAddr,
    /// Line contents to flush (latest coalesced value).
    pub data: Box<LineSnapshot>,
    /// Journal sequence of the newest store coalesced in.
    pub seq: u64,
    /// Epoch the write belongs to.
    pub epoch: EpochId,
    /// Current state.
    pub state: PbEntryState,
}

/// A per-core persist buffer.
///
/// # Example
///
/// ```
/// use asap_core::PersistBuffer;
/// use asap_sim_core::{EpochId, LineAddr, ThreadId};
///
/// let mut pb = PersistBuffer::new(32);
/// let e = EpochId::new(ThreadId(0), 0);
/// pb.enqueue(LineAddr::containing(0x40), Box::new([0u8; 64]), 1, e)
///     .expect("space available");
/// assert_eq!(pb.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PersistBuffer {
    entries: VecDeque<PbEntry>,
    capacity: usize,
    next_id: u64,
    /// How many entries sit in `Waiting` state, maintained across state
    /// transitions: the blocked-PB accounting asks on almost every event,
    /// and an O(1) answer also lets [`PersistBuffer::next_flushable`]
    /// skip its scan outright when nothing waits (the all-in-flight
    /// steady state).
    waiting: usize,
    /// How many entries sit NACKed, so the wake-retry scan that every
    /// `TryFlush` runs is skipped in the (overwhelmingly common) case of
    /// no pending retries.
    nacked: usize,
    /// Monotonic content-mutation counter: bumped when an entry's payload
    /// changes (enqueue — both the coalesce and new-entry arms) or an
    /// entry leaves the buffer (ack). State-only transitions
    /// (inflight/NACK/wake) do not bump it: a battery-backed drain at
    /// crash writes every buffered payload out regardless of state, so
    /// only content changes can alter the recovered image. The
    /// crash-space explorer keys BBB's pruning digest on this.
    version: u64,
}

impl PersistBuffer {
    /// Create a buffer with `capacity` entries (Table II: 32).
    pub fn new(capacity: usize) -> PersistBuffer {
        PersistBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            next_id: 0,
            waiting: 0,
            nacked: 0,
            version: 0,
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the buffer is full (the incoming store must stall the
    /// core, §VI-A).
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueue a store. Returns `Ok(None)` if a new entry was allocated,
    /// `Ok(Some(displaced))` if it coalesced into an existing same-line
    /// same-epoch entry that had not been issued yet (handing back the
    /// displaced snapshot buffer for recycling), and `Err(data)` (handing
    /// the payload back) if the buffer is full — the caller stalls the
    /// core and retries.
    #[allow(clippy::type_complexity)]
    pub fn enqueue(
        &mut self,
        line: LineAddr,
        data: Box<LineSnapshot>,
        seq: u64,
        epoch: EpochId,
    ) -> Result<Option<Box<LineSnapshot>>, Box<LineSnapshot>> {
        // Coalescing candidates can only live in the same-epoch tail:
        // the buffer is per-core and epochs close monotonically, so the
        // newest-first scan stops at the first older-epoch entry instead
        // of walking the whole buffer on every store.
        for e in self.entries.iter_mut().rev() {
            if e.epoch.ts != epoch.ts {
                break;
            }
            if e.line == line && e.epoch == epoch && e.state == PbEntryState::Waiting {
                let displaced = std::mem::replace(&mut e.data, data);
                e.seq = seq;
                self.version += 1;
                return Ok(Some(displaced));
            }
        }
        if self.is_full() {
            return Err(data);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.version += 1;
        self.entries.push_back(PbEntry {
            id,
            line,
            data,
            seq,
            epoch,
            state: PbEntryState::Waiting,
        });
        self.waiting += 1;
        Ok(None)
    }

    /// The oldest entry in `Waiting` state whose epoch satisfies
    /// `eligible`, if any. Entries are considered oldest-first.
    ///
    /// `strict_lines` selects the same-address policy:
    ///
    /// * `true` (conservative designs — HOPS, or ASAP in NACK fallback):
    ///   any older same-line entry blocks a younger one, so the PB never
    ///   reorders its own writes to one address. Without recovery tables
    ///   this is what preserves strong persist atomicity.
    /// * `false` (ASAP eager mode): same-line entries in *different*
    ///   epochs may flush concurrently/out of order — the memory
    ///   controller's undo/delay records re-order them (§IV-F's write
    ///   collision machinery works for one thread's writes too). Only an
    ///   older same-line entry of the *same epoch* or one awaiting a
    ///   NACK retry still blocks.
    pub fn next_flushable<F>(&self, eligible: F, strict_lines: bool) -> Option<&PbEntry>
    where
        F: Fn(EpochId) -> bool,
    {
        // The scan is skipped outright when nothing waits (the
        // all-in-flight steady state). `eligible` is memoized per epoch
        // run — entries arrive in epoch order, so one (ts, verdict) pair
        // absorbs almost every call (HOPS's eligibility walks the epoch
        // table; asking per entry was measurable). Epochs compare by
        // `ts` alone: a buffer holds one core's epochs.
        if self.waiting == 0 {
            return None;
        }
        let mut memo: Option<(u64, bool)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if e.state != PbEntryState::Waiting {
                continue;
            }
            let ok = match memo {
                Some((ts, ok)) if ts == e.epoch.ts => ok,
                _ => {
                    let ok = eligible(e.epoch);
                    memo = Some((e.epoch.ts, ok));
                    ok
                }
            };
            if !ok {
                continue;
            }
            let blocked = self.entries.range(..i).any(|o| {
                o.line == e.line
                    && (strict_lines || o.state == PbEntryState::Nacked || o.epoch.ts == e.epoch.ts)
            });
            if !blocked {
                return Some(e);
            }
        }
        None
    }

    /// Whether any entry is waiting to be issued (as opposed to already
    /// in flight): distinguishes *ordering-blocked* from merely
    /// *bandwidth-limited* buffers in the Figure 3 accounting.
    pub fn has_waiting(&self) -> bool {
        self.waiting > 0
    }

    /// Mark entry `id` as issued (in flight).
    pub fn mark_inflight(&mut self, id: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            debug_assert_ne!(e.state, PbEntryState::Inflight);
            if e.state == PbEntryState::Waiting {
                self.waiting -= 1;
            }
            e.state = PbEntryState::Inflight;
        }
    }

    /// Mark entry `id` as NACKed: it returns to the buffer awaiting a
    /// safe retry.
    pub fn mark_nacked(&mut self, id: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            if e.state == PbEntryState::Waiting {
                self.waiting -= 1;
            }
            if e.state != PbEntryState::Nacked {
                self.nacked += 1;
            }
            e.state = PbEntryState::Nacked;
        }
    }

    /// Whether any entry sits NACKed awaiting a safe retry.
    pub fn has_nacked(&self) -> bool {
        self.nacked > 0
    }

    /// Requeue all NACKed entries of epochs accepted by `now_safe` back to
    /// `Waiting` (retried as safe flushes). Returns how many were woken.
    pub fn wake_nacked<F>(&mut self, now_safe: F) -> usize
    where
        F: Fn(EpochId) -> bool,
    {
        if self.nacked == 0 {
            return 0;
        }
        let mut woken = 0;
        for e in self.entries.iter_mut() {
            if e.state == PbEntryState::Nacked && now_safe(e.epoch) {
                e.state = PbEntryState::Waiting;
                woken += 1;
            }
        }
        self.waiting += woken;
        self.nacked -= woken;
        woken
    }

    /// Remove an acked entry; returns it (the caller updates the epoch
    /// table).
    pub fn ack(&mut self, id: u64) -> Option<PbEntry> {
        let pos = self.entries.iter().position(|e| e.id == id)?;
        self.version += 1;
        let e = self.entries.remove(pos);
        if let Some(e) = e.as_ref() {
            match e.state {
                PbEntryState::Waiting => self.waiting -= 1,
                PbEntryState::Nacked => self.nacked -= 1,
                PbEntryState::Inflight => {}
            }
        }
        e
    }

    /// Look up an entry by id.
    pub fn get(&self, id: u64) -> Option<&PbEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Whether the buffer holds data for `line` (load forwarding).
    pub fn holds_line(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|e| e.line == line)
    }

    /// Iterate over entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &PbEntry> {
        self.entries.iter()
    }

    /// Monotonic content-mutation counter (see the field docs): strictly
    /// increases on every payload change and removal.
    pub fn version(&self) -> u64 {
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_sim_core::ThreadId;

    fn la(i: u64) -> LineAddr {
        LineAddr::containing(i * 64)
    }

    fn ep(ts: u64) -> EpochId {
        EpochId::new(ThreadId(0), ts)
    }

    fn data(b: u8) -> Box<LineSnapshot> {
        Box::new([b; 64])
    }

    #[test]
    fn enqueue_and_fill() {
        let mut pb = PersistBuffer::new(2);
        assert_eq!(pb.enqueue(la(0), data(1), 0, ep(0)), Ok(None));
        assert_eq!(pb.enqueue(la(1), data(2), 1, ep(0)), Ok(None));
        assert!(pb.is_full());
        let err = pb.enqueue(la(2), data(3), 2, ep(0)).unwrap_err();
        assert_eq!(err[0], 3); // payload handed back
    }

    #[test]
    fn same_line_same_epoch_coalesces() {
        let mut pb = PersistBuffer::new(4);
        pb.enqueue(la(0), data(1), 0, ep(0)).unwrap();
        // Coalescing hands the displaced buffer back for recycling.
        assert_eq!(pb.enqueue(la(0), data(9), 3, ep(0)), Ok(Some(data(1))));
        assert_eq!(pb.len(), 1);
        let e = pb.iter().next().unwrap();
        assert_eq!(e.seq, 3);
        assert_eq!(e.data[0], 9);
    }

    #[test]
    fn same_line_different_epoch_allocates() {
        let mut pb = PersistBuffer::new(4);
        pb.enqueue(la(0), data(1), 0, ep(0)).unwrap();
        assert_eq!(pb.enqueue(la(0), data(2), 1, ep(1)), Ok(None));
        assert_eq!(pb.len(), 2);
    }

    #[test]
    fn inflight_entry_does_not_coalesce() {
        let mut pb = PersistBuffer::new(4);
        pb.enqueue(la(0), data(1), 0, ep(0)).unwrap();
        let id = pb.iter().next().unwrap().id;
        pb.mark_inflight(id);
        assert_eq!(pb.enqueue(la(0), data(2), 1, ep(0)), Ok(None));
        assert_eq!(pb.len(), 2);
    }

    #[test]
    fn next_flushable_respects_policy_and_line_order() {
        let mut pb = PersistBuffer::new(8);
        pb.enqueue(la(0), data(1), 0, ep(0)).unwrap();
        pb.enqueue(la(1), data(2), 1, ep(1)).unwrap();
        pb.enqueue(la(0), data(3), 2, ep(1)).unwrap(); // same line as first

        // Strict policy: only epoch 1 eligible. la(1) is flushable;
        // la(0)@ep1 is blocked by the older la(0)@ep0 entry.
        let e = pb.next_flushable(|e| e.ts == 1, true).unwrap();
        assert_eq!(e.line, la(1));

        // Everything eligible: oldest first.
        let e = pb.next_flushable(|_| true, true).unwrap();
        assert_eq!(e.line, la(0));
        assert_eq!(e.epoch, ep(0));

        // Relaxed policy: la(0)@ep1 no longer blocked by la(0)@ep0 once
        // the older entry is in flight (different epochs).
        let id = pb.iter().next().unwrap().id;
        pb.mark_inflight(id);
        let e = pb.next_flushable(|e| e.ts == 1, false).unwrap();
        assert_eq!(e.line, la(1)); // oldest eligible first
        pb.mark_inflight(e.id);
        let e = pb.next_flushable(|e| e.ts == 1, false).unwrap();
        assert_eq!((e.line, e.epoch), (la(0), ep(1)));
        // Strict policy still blocks it.
        assert!(pb.next_flushable(|e| e.ts == 1, true).is_none());
    }

    #[test]
    fn ack_removes_and_counts() {
        let mut pb = PersistBuffer::new(4);
        pb.enqueue(la(0), data(1), 0, ep(0)).unwrap();
        let id = pb.iter().next().unwrap().id;
        pb.mark_inflight(id);
        let e = pb.ack(id).unwrap();
        assert_eq!(e.line, la(0));
        assert!(pb.is_empty());
        assert!(pb.ack(id).is_none());
    }

    #[test]
    fn nack_and_wake_cycle() {
        let mut pb = PersistBuffer::new(4);
        pb.enqueue(la(0), data(1), 0, ep(1)).unwrap();
        let id = pb.iter().next().unwrap().id;
        pb.mark_inflight(id);
        pb.mark_nacked(id);
        // Not flushable while NACKed.
        assert!(pb.next_flushable(|_| true, true).is_none());
        assert!(pb.next_flushable(|_| true, false).is_none());
        // Wake only when the epoch becomes safe.
        assert_eq!(pb.wake_nacked(|e| e.ts == 0), 0);
        assert_eq!(pb.wake_nacked(|e| e.ts == 1), 1);
        assert!(pb.next_flushable(|_| true, true).is_some());
    }

    #[test]
    fn holds_line_for_forwarding() {
        let mut pb = PersistBuffer::new(4);
        pb.enqueue(la(3), data(1), 0, ep(0)).unwrap();
        assert!(pb.holds_line(la(3)));
        assert!(!pb.holds_line(la(4)));
    }
}
