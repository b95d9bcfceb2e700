//! The battery-backed designs.
//!
//! **eADR** — the whole cache hierarchy is inside the persistence
//! domain: stores are durable at the cache, fences cost ~a cycle, and
//! nothing ever flushes for durability.
//!
//! **BBB** — stores are durable once inside the battery-backed persist
//! buffer; the buffer still drains in the background (freeing battery
//! energy budget) and back-pressures the core only when full — the
//! paper's only BBB stall.

use super::collect::KeyMask;
use super::engine::Engine;
use super::model::{PersistencyModel, StoreOp};
use asap_pm_mem::NvmImage;

pub(super) struct EadrModel;

impl PersistencyModel for EadrModel {
    fn on_store(&mut self, eng: &mut Engine, _t: usize, op: StoreOp) -> bool {
        // Durable at the cache; the epoch is committed lazily at the
        // next fence. The snapshot payload is not needed — recycle it.
        eng.snap_pool.put(op.data);
        true
    }

    fn on_ofence(&mut self, eng: &mut Engine, t: usize) {
        eng.battery_fence(t);
    }

    fn on_dfence(&mut self, eng: &mut Engine, t: usize) {
        eng.battery_fence(t);
    }

    fn on_crash_preview(&self, _eng: &Engine, _nvm: &mut NvmImage) -> bool {
        // The battery flushes the entire hierarchy, so the recovered
        // state equals the functional image — trivially consistent.
        // Nothing to verify against the media image.
        true
    }

    fn crash_key_mask(&self) -> KeyMask {
        KeyMask::nvm_only()
    }
}

pub(super) struct BbbModel;

impl PersistencyModel for BbbModel {
    fn wants_background_flush(&self) -> bool {
        true
    }

    fn on_store(&mut self, eng: &mut Engine, t: usize, op: StoreOp) -> bool {
        // Durable once inside the battery-backed buffer (no epoch-table
        // tracking); a full buffer back-pressures the core.
        eng.enqueue_pb_store(t, op, false)
    }

    fn on_ofence(&mut self, eng: &mut Engine, t: usize) {
        eng.battery_fence(t);
    }

    fn on_dfence(&mut self, eng: &mut Engine, t: usize) {
        eng.battery_fence(t);
    }

    /// The battery-backed buffer is itself durable, so lines drain in
    /// any order. Only the shared same-epoch rule orders two writes to
    /// one line, so an older epoch's write can reach the media after a
    /// newer epoch's write to the same line and overwrite it. The
    /// crash-space explorer reports this as `committed-write-lost` on
    /// echo/bbb at 12 ops/thread; it is an open ROADMAP item.
    fn relaxed_lines(&self, _t: usize) -> bool {
        true
    }

    /// BBB drains epochs in any order: the buffer itself is the
    /// persistence domain. That holds across lines only; same-line
    /// writes of different epochs still need their coherence order
    /// (see `relaxed_lines`).
    fn epoch_eligible(&self, _eng: &Engine, _t: usize, _e: asap_sim_core::EpochId) -> bool {
        true
    }

    fn on_flush_reply(&mut self, eng: &mut Engine, tid: usize, entry_id: u64, ok: bool) {
        // No epoch table / recovery protocol: just retire the entry.
        debug_assert!(ok, "BBB flushes are always safe");
        let _ = ok;
        let occ_before = eng.cores[tid].pb.len();
        if let Some(e) = eng.cores[tid].pb.ack(entry_id) {
            eng.note_pb_occ_change(tid, occ_before);
            eng.snap_pool.put(e.data);
        }
        eng.unblock_pb_full(tid);
        eng.schedule_flush(tid);
    }

    fn on_crash_preview(&self, eng: &Engine, nvm: &mut NvmImage) -> bool {
        // The battery drains every persist buffer to NVM before power
        // is lost — including entries whose flush was in flight — per
        // core, in buffer order. With the buffers drained, everything
        // executed is durable; the normal drain + oracle still runs.
        for c in &eng.cores {
            for e in c.pb.iter() {
                nvm.persist(e.line, *e.data, Some(e.seq), Some(e.epoch));
            }
        }
        false
    }

    fn crash_key_mask(&self) -> KeyMask {
        KeyMask::battery_buffered()
    }
}
