//! ASAP: the persist buffer flushes *eagerly* — any entry may be
//! issued, tagged *early* when its epoch is not yet safe. MCs
//! speculatively update memory, guarded by recovery-table undo/delay
//! records; epoch commits round-trip to the MCs that saw early flushes,
//! and CDR messages resolve cross-thread dependencies. A NACK (full RT)
//! drops the core into conservative flushing until the epoch that was
//! current at NACK time commits (§V-D).

use super::engine::{Engine, Event};
use super::model::{PersistencyModel, StoreOp};
use asap_sim_core::{EpochId, ThreadId};

pub(super) struct AsapModel {
    /// Conservative-flush fallback flag, per core.
    conservative: Vec<bool>,
    /// Epoch ts whose commit exits conservative mode, per core.
    conservative_exit_ts: Vec<u64>,
}

impl AsapModel {
    pub(super) fn new(n: usize) -> AsapModel {
        AsapModel {
            conservative: vec![false; n],
            conservative_exit_ts: vec![0; n],
        }
    }
}

impl PersistencyModel for AsapModel {
    fn uses_pb(&self) -> bool {
        true
    }

    fn on_store(&mut self, eng: &mut Engine, t: usize, op: StoreOp) -> bool {
        eng.enqueue_pb_store(t, op, true)
    }

    fn on_ofence(&mut self, eng: &mut Engine, t: usize) {
        eng.pb_ofence(self, t);
    }

    fn on_dfence(&mut self, eng: &mut Engine, t: usize) {
        eng.pb_dfence(self, t);
    }

    /// Eager mode may reorder same-line flushes across epochs (the
    /// recovery table sorts them out); conservative mode may not.
    fn relaxed_lines(&self, t: usize) -> bool {
        !self.conservative[t]
    }

    fn epoch_eligible(&self, eng: &Engine, t: usize, e: EpochId) -> bool {
        if self.conservative[t] {
            eng.cores[t].et.is_safe(e.ts)
        } else {
            true
        }
    }

    fn flushes_early(&self, eng: &Engine, t: usize, ts: u64) -> bool {
        !eng.cores[t].et.is_safe(ts)
    }

    fn on_flush_reply(&mut self, eng: &mut Engine, tid: usize, entry_id: u64, ok: bool) {
        if ok {
            eng.ack_pb_flush(self, tid, entry_id);
        } else {
            // NACK: fall back to conservative flushing until the
            // *current* epoch commits (§V-D).
            eng.cores[tid].pb.mark_nacked(entry_id);
            if !self.conservative[tid] {
                self.conservative[tid] = true;
                self.conservative_exit_ts[tid] = eng.cores[tid].cur_ts;
            }
            eng.wake_safe_nacked(tid);
        }
        eng.schedule_flush(tid);
        eng.update_pb_blocked(self, tid);
    }

    fn commit_needs_mc_roundtrip(&self) -> bool {
        true
    }

    fn on_commit(&mut self, eng: &mut Engine, t: usize, ts: u64, dependents: &[ThreadId]) {
        let epoch = EpochId::new(ThreadId(t), ts);
        for d in dependents {
            eng.stats.cdr_msgs += 1;
            let at = eng.now + eng.cfg.intercore_latency;
            eng.schedule(
                at,
                Event::CdrArrive {
                    tid: d.0,
                    src: epoch,
                },
            );
        }
        // Conservative-mode exit (§V-D): resume eager flushing once the
        // epoch that was current at NACK time commits.
        if self.conservative[t] && ts >= self.conservative_exit_ts[t] {
            self.conservative[t] = false;
        }
    }

    fn debug_conservative(&self, t: usize) -> bool {
        self.conservative[t]
    }
}
