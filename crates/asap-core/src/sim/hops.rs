//! HOPS: stores enter the persist buffer, which flushes only epochs
//! that are *safe* (conservative flushing). Epochs commit locally (no
//! recovery tables to clean), and cross-thread dependencies resolve by
//! polling the global timestamp register.

use super::engine::{Engine, Event};
use super::model::{PersistencyModel, StoreOp};
use asap_sim_core::{EpochId, ThreadId};

pub(super) struct HopsModel {
    /// Global timestamp register: last committed epoch ts per thread.
    global_ts: Vec<Option<u64>>,
    /// Whether a poll event is already scheduled, per core.
    polling: Vec<bool>,
}

impl HopsModel {
    pub(super) fn new(n: usize) -> HopsModel {
        HopsModel {
            global_ts: vec![None; n],
            polling: vec![false; n],
        }
    }

    fn schedule_poll(&mut self, eng: &mut Engine, t: usize) {
        if self.polling[t] {
            return;
        }
        if eng.cores[t].et.oldest_unresolved_dep().is_none() {
            return;
        }
        self.polling[t] = true;
        let at = eng.now + eng.cfg.hops_poll_period;
        eng.schedule(at, Event::HopsPoll { tid: t });
    }
}

impl PersistencyModel for HopsModel {
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

    fn epoch_eligible(&self, eng: &Engine, t: usize, e: EpochId) -> bool {
        eng.cores[t].et.is_safe(e.ts)
    }

    fn on_flush_reply(&mut self, eng: &mut Engine, tid: usize, entry_id: u64, ok: bool) {
        // HOPS issues no early flush, and a controller NACKs only early
        // flushes (recovery-table pressure).
        debug_assert!(ok, "HOPS flushes are never NACKed");
        eng.ack_pb_flush(self, tid, entry_id);
        eng.schedule_flush(tid);
        eng.update_pb_blocked(self, tid);
    }

    fn on_commit(&mut self, _eng: &mut Engine, t: usize, ts: u64, _dependents: &[ThreadId]) {
        self.global_ts[t] = Some(ts);
    }

    fn on_commit_settled(&mut self, eng: &mut Engine, t: usize) {
        self.schedule_poll(eng, t);
    }

    fn on_cross_dep(&mut self, eng: &mut Engine, t: usize) {
        self.schedule_poll(eng, t);
    }

    fn on_cdr(&mut self, eng: &mut Engine, tid: usize) {
        self.schedule_poll(eng, tid);
    }

    fn on_poll(&mut self, eng: &mut Engine, tid: usize) {
        self.polling[tid] = false;
        let Some(src) = eng.cores[tid].et.oldest_unresolved_dep() else {
            return;
        };
        eng.stats.global_ts_reads += 1;
        let committed = self.global_ts[src.thread.0].is_some_and(|c| c >= src.ts);
        let at = eng.now + eng.cfg.hops_poll_latency;
        if committed {
            // Resolution takes effect after the register access.
            eng.schedule(at, Event::CdrArrive { tid, src });
        } else {
            self.polling[tid] = true;
            let next = eng.now + eng.cfg.hops_poll_period;
            eng.schedule(next, Event::HopsPoll { tid });
        }
    }
}
