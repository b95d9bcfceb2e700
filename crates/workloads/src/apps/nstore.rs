//! Nstore: a PM-native DBMS (WHISPER suite).
//!
//! Modelled as a write-ahead-logging storage engine over per-thread
//! table partitions: each transaction appends an undo/redo record to the
//! thread's log (`ofence`), updates one to three table rows in place
//! (`ofence`), then persists a commit marker and issues `dfence` —
//! the classic WAL epoch chain. Partitioned tables mean almost no
//! cross-thread dependencies, matching Figure 2.

use crate::common::{fnv1a, init_once, WorkloadParams, GLOBALS_BASE, STATIC_BASE};
use asap_core::{BurstCtx, BurstStatus, ThreadProgram};
use asap_sim_core::{DetRng, ThreadId};

const TABLE_REGION: u64 = STATIC_BASE + 0x0700_0000;
const LOG_REGION: u64 = STATIC_BASE + 0x0800_0000;
const SHARED_ROWS_REGION: u64 = STATIC_BASE + 0x0900_0000;
const NSTORE_INIT_FLAG: u64 = GLOBALS_BASE + 0x800;

const ROWS_PER_PARTITION: u64 = 4096;
const ROW_BYTES: u64 = 128; // two lines per row
const LOG_SLOTS: u64 = 2048;
const SHARED_ROWS: u64 = 64;

/// Nstore transactional workload.
pub struct Nstore {
    tid: usize,
    rng: DetRng,
    ops_left: u64,
    #[allow(dead_code)]
    params: WorkloadParams,
    log_pos: u64,
}

impl Nstore {
    /// Build the program for one thread.
    pub fn new(thread: usize, params: &WorkloadParams) -> Nstore {
        Nstore {
            tid: thread,
            rng: params.rng_for(thread),
            ops_left: params.ops_per_thread,
            params: params.clone(),
            log_pos: 0,
        }
    }

    fn row_addr(&self, row: u64) -> u64 {
        TABLE_REGION
            + self.tid as u64 * ROWS_PER_PARTITION * ROW_BYTES
            + (row % ROWS_PER_PARTITION) * ROW_BYTES
    }

    fn log_slot(&self) -> u64 {
        LOG_REGION + self.tid as u64 * LOG_SLOTS * 128 + (self.log_pos % LOG_SLOTS) * 128
    }

    fn txn(&mut self, ctx: &mut BurstCtx<'_>) {
        // 1. Log record: txn id + before-images (two lines).
        let slot = self.log_slot();
        self.log_pos += 1;
        ctx.store_u64(slot, self.log_pos);
        ctx.store_u64(slot + 64, self.rng.next_u64());
        ctx.ofence();

        // 2. Update 1–3 rows in the thread's partition.
        let nrows = self.rng.range_inclusive(1, 3);
        for _ in 0..nrows {
            let r = self.rng.below(ROWS_PER_PARTITION);
            let row = self.row_addr(r);
            ctx.load_u64(row); // read-modify-write
            ctx.store_u64(row, self.rng.next_u64());
            ctx.store_u64(row + 64, self.log_pos);
        }
        // Occasionally touch a globally shared row (catalog/stats table):
        // the rare cross-thread dependency WHISPER observed.
        if self.rng.chance(0.02) {
            let shared = SHARED_ROWS_REGION + self.rng.below(SHARED_ROWS) * 64;
            let v = ctx.load_u64(shared);
            ctx.store_u64(shared, v + 1);
        }
        ctx.ofence();

        // 3. Commit marker, then durability before replying.
        ctx.store_u64(slot + 8, 0xc0_4417); // committed tag
        ctx.ofence();
        ctx.dfence();
    }

    /// One WAL transaction whose row set is derived from `key` instead
    /// of the thread RNG: the open-loop traffic frontend replays request
    /// streams, so the same trace must touch the same rows regardless of
    /// arrival process or worker count. Same epoch chain as
    /// [`Nstore::txn`]: log record, `ofence`, 1–3 row updates, `ofence`,
    /// commit marker, `ofence`, `dfence`.
    pub(crate) fn serve_update(&mut self, ctx: &mut BurstCtx<'_>, key: u64) {
        let slot = self.log_slot();
        self.log_pos += 1;
        ctx.store_u64(slot, self.log_pos);
        ctx.store_u64(slot + 64, key ^ 0x4157_4157);
        ctx.ofence();

        let h = fnv1a(key);
        let nrows = 1 + h % 3;
        for i in 0..nrows {
            let r = fnv1a(key.wrapping_add(i * 0x9e37)) % ROWS_PER_PARTITION;
            let row = self.row_addr(r);
            ctx.load_u64(row); // read-modify-write
            ctx.store_u64(row, key.rotate_left(i as u32 + 1));
            ctx.store_u64(row + 64, self.log_pos);
        }
        // The rare cross-thread touch (catalog/stats table), keyed so a
        // replayed trace reproduces it exactly.
        if h.is_multiple_of(50) {
            let shared = SHARED_ROWS_REGION + (h / 50) % SHARED_ROWS * 64;
            let v = ctx.load_u64(shared);
            ctx.store_u64(shared, v + 1);
        }
        ctx.ofence();

        ctx.store_u64(slot + 8, 0xc0_4417); // committed tag
        ctx.ofence();
        ctx.dfence();
    }

    /// Key-derived read-only transaction: load the 1–3 rows the matching
    /// update would have written. No log record, no fences — reads are
    /// not persisted, mirroring a WAL engine's read path.
    pub(crate) fn serve_read(&mut self, ctx: &mut BurstCtx<'_>, key: u64) {
        let h = fnv1a(key);
        let nrows = 1 + h % 3;
        for i in 0..nrows {
            let r = fnv1a(key.wrapping_add(i * 0x9e37)) % ROWS_PER_PARTITION;
            let row = self.row_addr(r);
            ctx.load_u64(row);
            ctx.load_u64(row + 64);
        }
    }
}

impl ThreadProgram for Nstore {
    fn next_burst(&mut self, _tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        init_once(ctx, NSTORE_INIT_FLAG, |_| {});
        if self.ops_left == 0 {
            ctx.dfence();
            return BurstStatus::Finished;
        }
        ctx.compute(self.params.think_cycles);
        self.txn(ctx);
        ctx.op_completed();
        self.ops_left -= 1;
        BurstStatus::Running
    }

    fn name(&self) -> &str {
        "nstore"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_core::{Flavor, ModelKind, SimBuilder};
    use asap_sim_core::SimConfig;

    fn run(threads: usize, ops: u64) -> asap_core::Sim {
        let params = WorkloadParams {
            threads,
            ops_per_thread: ops,
            seed: 81,
            ..Default::default()
        };
        let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
            .map(|t| -> Box<dyn ThreadProgram> { Box::new(Nstore::new(t, &params)) })
            .collect();
        let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(programs)
            .build();
        let out = sim.run_to_completion();
        assert!(out.all_done);
        sim
    }

    #[test]
    fn nstore_completes_txns() {
        let sim = run(2, 30);
        assert_eq!(sim.stats().ops_completed, 60);
        // WAL pattern: at least 3 epochs per txn.
        assert!(sim.stats().epochs_created >= 60 * 3);
    }

    #[test]
    fn nstore_has_low_cross_dependency_rate() {
        let sim = run(4, 25);
        let s = sim.stats();
        // Partitioned tables: dependencies should be rare relative to ops.
        assert!(
            s.inter_t_epoch_conflict < s.ops_completed,
            "nstore should have few cross deps ({} vs {} ops)",
            s.inter_t_epoch_conflict,
            s.ops_completed
        );
    }
}
