//! Echo: a scalable persistent key-value store (WHISPER suite).
//!
//! Echo's design: worker threads append updates to *thread-local*
//! persistent logs and periodically merge batches into a shared master
//! index under a lock. We model exactly that: per-op local log append
//! (`ofence`-ordered), and every [`BATCH`] ops a locked master update.

use crate::common::{
    fnv1a, init_once, KeySampler, LockPhase, LockStep, SpinLock, WorkloadParams, GLOBALS_BASE,
    STATIC_BASE,
};
use asap_core::{BurstCtx, BurstStatus, ThreadProgram};
use asap_sim_core::{DetRng, ThreadId};

const LOCAL_LOG_REGION: u64 = STATIC_BASE + 0x0a00_0000;
pub(crate) const MASTER_REGION: u64 = STATIC_BASE + 0x0b00_0000;
pub(crate) const MASTER_LOCK: u64 = GLOBALS_BASE + 0x940; // own line: ticket + serving words
const ECHO_INIT_FLAG: u64 = GLOBALS_BASE + 0x908;

const LOG_SLOTS: u64 = 4096;
pub(crate) const MASTER_SLOTS: u64 = 1 << 12;
/// Local ops between master merges.
pub const BATCH: u64 = 8;

/// Echo KV-store workload.
pub struct Echo {
    tid: usize,
    rng: DetRng,
    sampler: KeySampler,
    ops_left: u64,
    params: WorkloadParams,
    log_pos: u64,
    since_merge: u64,
    merge_phase: Option<LockPhase>,
    batch_keys: Vec<u64>,
}

impl Echo {
    /// Build the program for one thread.
    pub fn new(thread: usize, params: &WorkloadParams) -> Echo {
        Echo {
            tid: thread,
            rng: params.rng_for(thread),
            sampler: params.key_sampler(),
            ops_left: params.ops_per_thread,
            params: params.clone(),
            log_pos: 0,
            since_merge: 0,
            merge_phase: None,
            batch_keys: Vec::new(),
        }
    }

    fn log_slot(&self) -> u64 {
        LOCAL_LOG_REGION + self.tid as u64 * LOG_SLOTS * 128 + (self.log_pos % LOG_SLOTS) * 128
    }

    /// Append one update to the thread-local persistent log (the batch
    /// key is remembered for the next master merge). Shared with the
    /// open-loop traffic frontend.
    pub(crate) fn local_put(&mut self, ctx: &mut BurstCtx<'_>, key: u64) {
        let slot = self.log_slot();
        self.log_pos += 1;
        ctx.store_u64(slot, key);
        ctx.store_u64(slot + 8, key ^ 0xec40);
        if self.params.value_bytes > 48 {
            ctx.store_u64(slot + 64, key.rotate_left(7));
        }
        ctx.ofence();
        // Version bump publishing the entry locally.
        ctx.store_u64(slot + 16, self.log_pos);
        ctx.ofence();
        self.batch_keys.push(key);
    }

    /// Merge the batched keys into the shared master index (caller holds
    /// the master lock). Shared with the open-loop traffic frontend.
    pub(crate) fn master_merge(&mut self, ctx: &mut BurstCtx<'_>) {
        for &key in &self.batch_keys {
            let slot = MASTER_REGION + (fnv1a(key) % MASTER_SLOTS) * 64;
            ctx.store_u64(slot, key);
            ctx.store_u64(slot + 8, key ^ 0xec40);
        }
        ctx.ofence();
        self.batch_keys.clear();
    }
}

impl ThreadProgram for Echo {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        init_once(ctx, ECHO_INIT_FLAG, |_| {});

        if let Some(mut phase) = self.merge_phase.take() {
            let lock = SpinLock::at(MASTER_LOCK);
            match phase.step(lock, ctx, tid, 60) {
                LockStep::EnterCritical => {
                    self.master_merge(ctx);
                    self.merge_phase = Some(phase);
                }
                LockStep::StillAcquiring => self.merge_phase = Some(phase),
                LockStep::Released => {
                    ctx.dfence();
                    self.since_merge = 0;
                }
            }
            return BurstStatus::Running;
        }

        if self.ops_left == 0 {
            ctx.dfence();
            return BurstStatus::Finished;
        }
        ctx.compute(self.params.think_cycles);
        let key = self.sampler.sample(&mut self.rng);
        self.local_put(ctx, key);
        ctx.op_completed();
        self.ops_left -= 1;
        self.since_merge += 1;
        if self.since_merge >= BATCH {
            self.merge_phase = Some(LockPhase::start());
        }
        BurstStatus::Running
    }

    fn name(&self) -> &str {
        "echo"
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
            seed: 91,
            ..Default::default()
        };
        let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
            .map(|t| -> Box<dyn ThreadProgram> { Box::new(Echo::new(t, &params)) })
            .collect();
        let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(programs)
            .build();
        let out = sim.run_to_completion();
        assert!(out.all_done);
        sim
    }

    #[test]
    fn echo_completes() {
        let sim = run(2, 40);
        assert_eq!(sim.stats().ops_completed, 80);
    }

    #[test]
    fn echo_merges_into_master() {
        let sim = run(2, 32);
        let pm = sim.pm();
        let mut filled = 0;
        for s in 0..MASTER_SLOTS {
            if pm.read_u64(MASTER_REGION + s * 64) != 0 {
                filled += 1;
            }
        }
        assert!(filled > 0, "master index never updated");
    }
}
