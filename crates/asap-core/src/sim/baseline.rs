//! Baseline persistency (`clwb` + `sfence`): stores are tracked per
//! epoch in a per-core dirty set; every `ofence`/`dfence` synchronously
//! flushes the epoch's dirty lines and stalls the core until the MCs
//! ack. There is no persist buffer, no epoch table traffic and no
//! recovery protocol — durability is bought with stalls.
//!
//! An epoch dirties few lines (at most 23 distinct ones over all of
//! full Fig. 8's baseline fences, and 7 or fewer in 99.8% of them), so
//! the dirty set is a first-store-ordered list searched by scan. A fence
//! moves that list into its [`Block::SyncFence`] without copying, and
//! completion hands the emptied list back for the next epoch.

use super::engine::{Block, Engine, Event};
use super::model::{PersistencyModel, StoreOp};
use asap_memctrl::{FlushOutcome, FlushPacket};
use asap_pm_mem::WriteSeq;
use asap_sim_core::{Cycle, EpochId, LineAddr, ThreadId, TraceRecord};
use std::collections::VecDeque;

/// A dirty-line set that remembers first-store order, so fences issue
/// their `clwb`s in program order. A plain `HashMap` here made flush
/// order (and therefore WPQ coalescing counts) vary run to run via
/// `RandomState` iteration — the one determinism leak the structural
/// sweep-equivalence tests caught.
#[derive(Default)]
struct DirtySet {
    /// Each dirty line with the seq of its latest write, in first-store
    /// order.
    lines: Vec<(LineAddr, u64)>,
}

impl DirtySet {
    /// Record a store: new lines append, re-dirtied lines keep their
    /// original flush position but track the latest write.
    fn insert(&mut self, line: LineAddr, seq: u64) {
        match self.lines.iter_mut().find(|(l, _)| *l == line) {
            Some((_, s)) => *s = seq,
            None => self.lines.push((line, seq)),
        }
    }
}

pub(super) struct BaselineModel {
    /// Dirty lines of the current epoch → latest write (seq), per core.
    sync_dirty: Vec<DirtySet>,
}

impl BaselineModel {
    pub(super) fn new(n: usize) -> BaselineModel {
        BaselineModel {
            sync_dirty: (0..n).map(|_| DirtySet::default()).collect(),
        }
    }

    fn start_sync_fence(&mut self, eng: &mut Engine, t: usize, is_dfence: bool) {
        let dirty = &mut self.sync_dirty[t].lines;
        if dirty.is_empty() {
            finish_sync_epoch(eng, t);
            eng.finish_op(t, Cycle(1));
            return;
        }
        // `VecDeque::from` takes over the list's buffer: no copy.
        let pending = VecDeque::from(std::mem::take(dirty));
        let block = Block::SyncFence {
            remaining: pending.len(),
            pending,
            is_dfence,
        };
        eng.stall(t, block);
        issue_sync_flushes(eng, t);
    }
}

fn issue_sync_flushes(eng: &mut Engine, t: usize) {
    let max = eng.cfg.pb_max_inflight;
    loop {
        if eng.cores[t].inflight >= max {
            break;
        }
        let item = match &mut eng.cores[t].blocked {
            Some(Block::SyncFence { pending, .. }) => pending.pop_front(),
            _ => None,
        };
        let Some((line, seq)) = item else {
            break;
        };
        eng.cores[t].inflight += 1;
        let mc = eng.cfg.mc_of_addr(line.byte_addr());
        eng.trace(TraceRecord::FlushIssue {
            tid: t,
            entry: seq,
            line: line.byte_addr(),
            mc,
            early: false,
        });
        let at = eng.now + eng.cfg.pb_flush_latency;
        eng.schedule(
            at,
            Event::SyncFlushArrive {
                tid: t,
                line,
                seq,
                mc,
            },
        );
    }
}

fn finish_sync_epoch(eng: &mut Engine, t: usize) {
    let e = eng.cores[t].cur_epoch();
    eng.deps.mark_committed(e);
    eng.stats.epochs_committed += 1;
    eng.advance_epoch_untracked(t);
}

impl PersistencyModel for BaselineModel {
    fn on_store(&mut self, eng: &mut Engine, t: usize, op: StoreOp) -> bool {
        self.sync_dirty[t].insert(op.line, op.seq.0);
        // Sync flushes read the journaled snapshot at flush time; the
        // carried payload is not needed — recycle it.
        eng.snap_pool.put(op.data);
        true
    }

    fn on_ofence(&mut self, eng: &mut Engine, t: usize) {
        self.start_sync_fence(eng, t, false);
    }

    fn on_dfence(&mut self, eng: &mut Engine, t: usize) {
        self.start_sync_fence(eng, t, true);
    }

    fn on_sync_flush_arrive(
        &mut self,
        eng: &mut Engine,
        tid: usize,
        line: LineAddr,
        seq: u64,
        mc: usize,
    ) {
        // Use the journaled snapshot when available so recovered contents
        // are attributable to a specific write (falls back to the live
        // functional image in performance runs).
        let data = eng
            .journal
            .get(WriteSeq(seq))
            .map(|e| e.data)
            .unwrap_or_else(|| eng.pm.snapshot_line(line));
        let pkt = FlushPacket {
            line,
            data,
            seq,
            epoch: EpochId::new(ThreadId(tid), eng.cores[tid].cur_ts),
            early: false,
        };
        let outcome = eng.mcs[mc].receive_flush(eng.now, &pkt, &mut eng.nvm, &mut eng.stats);
        match outcome {
            FlushOutcome::Accepted { accept_at, .. } => {
                let at = accept_at + eng.cfg.pb_flush_latency;
                eng.schedule(at, Event::SyncFlushReply { tid });
            }
            FlushOutcome::Busy { retry_at } => {
                let at = retry_at.max(eng.now + Cycle(1));
                eng.schedule(at, Event::SyncFlushArrive { tid, line, seq, mc });
            }
            FlushOutcome::Nacked { .. } => unreachable!("safe flushes are never NACKed"),
        }
    }

    fn on_sync_flush_reply(&mut self, eng: &mut Engine, tid: usize) {
        let done = if let Some(Block::SyncFence { remaining, .. }) = &mut eng.cores[tid].blocked {
            *remaining -= 1;
            *remaining == 0
        } else {
            false
        };
        if done {
            let Block::SyncFence { pending, .. } = eng.resume(tid) else {
                unreachable!()
            };
            // Hand the emptied list back (capacity kept): the core was
            // stalled, so its next epoch has dirtied nothing yet.
            debug_assert!(pending.is_empty() && self.sync_dirty[tid].lines.is_empty());
            self.sync_dirty[tid].lines = Vec::from(pending);
            finish_sync_epoch(eng, tid);
            eng.schedule_step(tid, eng.now);
        } else {
            issue_sync_flushes(eng, tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn la(i: u64) -> LineAddr {
        LineAddr::containing(i * 64)
    }

    #[test]
    fn dirty_set_keeps_first_store_order_and_latest_seq() {
        let mut d = DirtySet::default();
        d.insert(la(9), 1);
        d.insert(la(2), 2);
        d.insert(la(9), 3); // re-dirtied: keeps its slot, takes seq 3
        d.insert(la(5), 4);
        d.insert(la(2), 5);
        assert_eq!(d.lines, [(la(9), 3), (la(2), 5), (la(5), 4)]);
        // A fence's round trip: the list moves into the fence's queue
        // without reallocating, and the emptied queue comes back.
        let buf = d.lines.as_ptr();
        let mut pending = VecDeque::from(std::mem::take(&mut d.lines));
        assert!(d.lines.is_empty(), "the next epoch starts empty");
        assert_eq!(pending.pop_front(), Some((la(9), 3)));
        pending.clear();
        d.lines = Vec::from(pending);
        assert_eq!(d.lines.as_ptr(), buf, "the buffer is reused, not copied");
        d.insert(la(2), 6);
        assert_eq!(d.lines, [(la(2), 6)]);
    }
}
