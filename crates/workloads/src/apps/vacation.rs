//! Vacation: STAMP's travel-reservation system, PMDK-transactional
//! (WHISPER suite).
//!
//! A query takes a coarse-grained lock over the reservation tables,
//! performs a PMDK-style transaction (log + a handful of row updates
//! across the car/flight/room tables), then does *volatile bookkeeping*
//! before releasing — the paper singles this out: "By the time another
//! thread acquires the lock, writes have been flushed out so early
//! flushing is not beneficial." The long compute tail inside the critical
//! section is what produces that behaviour.

use crate::common::{
    init_once, LockPhase, LockStep, SpinLock, WorkloadParams, GLOBALS_BASE, STATIC_BASE,
};
use asap_core::{BurstCtx, BurstStatus, ThreadProgram};
use asap_sim_core::{DetRng, ThreadId};

const TABLES_REGION: u64 = STATIC_BASE + 0x0c00_0000;
const TXLOG_REGION: u64 = STATIC_BASE + 0x0d00_0000;
const VAC_LOCK: u64 = GLOBALS_BASE + 0xa40; // own line: ticket + serving words
const VAC_INIT_FLAG: u64 = GLOBALS_BASE + 0xa08;

const TABLES: u64 = 3; // cars, flights, rooms
const ROWS_PER_TABLE: u64 = 4096;
const LOG_SLOTS: u64 = 2048;
/// Volatile bookkeeping cycles inside the critical section.
pub const BOOKKEEPING_CYCLES: u64 = 1500;

/// Vacation reservation workload.
pub struct Vacation {
    #[allow(dead_code)]
    tid: usize,
    rng: DetRng,
    ops_left: u64,
    #[allow(dead_code)]
    params: WorkloadParams,
    log_pos: u64,
    phase: LockPhase,
    busy: bool,
}

impl Vacation {
    /// Build the program for one thread.
    pub fn new(thread: usize, params: &WorkloadParams) -> Vacation {
        Vacation {
            tid: thread,
            rng: params.rng_for(thread),
            ops_left: params.ops_per_thread,
            params: params.clone(),
            log_pos: 0,
            phase: LockPhase::start(),
            busy: false,
        }
    }

    fn reservation_txn(&mut self, ctx: &mut BurstCtx<'_>) {
        // PMDK-style: undo-log append per modified row, then the updates.
        let slot =
            TXLOG_REGION + self.tid as u64 * LOG_SLOTS * 64 + (self.log_pos % LOG_SLOTS) * 64;
        self.log_pos += 1;
        ctx.store_u64(slot, self.log_pos);
        ctx.ofence();
        // Reserve a car + flight + room: read and update one row of each
        // table.
        for t in 0..TABLES {
            let row = TABLES_REGION + t * ROWS_PER_TABLE * 64 + self.rng.below(ROWS_PER_TABLE) * 64;
            let seats = ctx.load_u64(row);
            ctx.store_u64(row, seats.wrapping_add(1));
        }
        ctx.ofence();
        ctx.store_u64(slot + 8, 1); // commit marker
        ctx.ofence();
        // Volatile bookkeeping (customer lists, stats) while still
        // holding the lock.
        ctx.compute(BOOKKEEPING_CYCLES);
    }
}

impl ThreadProgram for Vacation {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        init_once(ctx, VAC_INIT_FLAG, |_| {});
        if !self.busy {
            if self.ops_left == 0 {
                ctx.dfence();
                return BurstStatus::Finished;
            }
            ctx.compute(self.params.think_cycles);
            self.busy = true;
        }
        let lock = SpinLock::at(VAC_LOCK);
        match self.phase.step(lock, ctx, tid, 100) {
            LockStep::EnterCritical => self.reservation_txn(ctx),
            LockStep::StillAcquiring => {}
            LockStep::Released => {
                ctx.dfence();
                ctx.op_completed();
                self.ops_left -= 1;
                self.busy = false;
            }
        }
        BurstStatus::Running
    }

    fn name(&self) -> &str {
        "vacation"
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
            seed: 101,
            ..Default::default()
        };
        let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
            .map(|t| -> Box<dyn ThreadProgram> { Box::new(Vacation::new(t, &params)) })
            .collect();
        let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(programs)
            .build();
        let out = sim.run_to_completion();
        assert!(out.all_done);
        sim
    }

    #[test]
    fn vacation_completes() {
        let sim = run(2, 20);
        assert_eq!(sim.stats().ops_completed, 40);
    }

    #[test]
    fn vacation_cross_deps_are_rare() {
        // The long in-lock bookkeeping gives flushes time to drain before
        // the next thread acquires: dependencies on *uncommitted* epochs
        // should be much rarer than lock hand-offs.
        let sim = run(4, 15);
        let s = sim.stats();
        assert!(
            s.inter_t_epoch_conflict <= 2 * s.ops_completed,
            "vacation cross deps should stay bounded by lock hand-offs \
             ({} deps / {} ops)",
            s.inter_t_epoch_conflict,
            s.ops_completed
        );
    }
}
