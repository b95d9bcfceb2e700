//! Atlas queue: a persistent linked FIFO queue behind a global lock.
//!
//! Enqueue allocates a node, persists it, then logs-and-links the tail;
//! dequeue logs-and-advances the head. Small critical sections with a
//! single lock make this workload a dense stream of tiny epochs and
//! frequent lock hand-offs — the paper shows HOPS_EP dropping below
//! baseline on exactly this shape.

use super::UndoLog;
use crate::common::{
    init_once, Arena, LockPhase, LockStep, SpinLock, WorkloadParams, GLOBALS_BASE, STATIC_BASE,
};
use asap_core::{BurstCtx, BurstStatus, ThreadProgram};
use asap_sim_core::{DetRng, ThreadId};

pub(crate) const Q_HEAD: u64 = GLOBALS_BASE + 0x600;
const Q_TAIL: u64 = GLOBALS_BASE + 0x608;
const Q_LOCK: u64 = GLOBALS_BASE + 0x640; // own line: ticket + serving words
const Q_INIT_FLAG: u64 = GLOBALS_BASE + 0x618;
const LOG_REGION: u64 = STATIC_BASE + 0x0500_0000;

// Node: [value, next] in one line.
const NODE_BYTES: u64 = 64;

/// Atlas queue workload: 50/50 enqueue/dequeue under one lock.
pub struct AtlasQueue {
    #[allow(dead_code)]
    tid: usize,
    rng: DetRng,
    arena: Arena,
    ops_left: u64,
    params: WorkloadParams,
    log: UndoLog,
    phase: LockPhase,
    pending: Option<bool>,
}

impl AtlasQueue {
    /// Build the program for one thread.
    pub fn new(thread: usize, params: &WorkloadParams) -> AtlasQueue {
        AtlasQueue {
            tid: thread,
            rng: params.rng_for(thread),
            arena: Arena::for_thread(thread),
            ops_left: params.ops_per_thread,
            params: params.clone(),
            log: UndoLog::new(LOG_REGION + thread as u64 * 0x10_0000, 1024),
            phase: LockPhase::start(),
            pending: None,
        }
    }

    fn setup(ctx: &mut BurstCtx<'_>, arena: &mut Arena) {
        // Sentinel node so head/tail are never null.
        let s = arena.alloc(NODE_BYTES);
        ctx.poke_durable_u64(Q_HEAD, s);
        ctx.poke_durable_u64(Q_TAIL, s);
    }

    fn enqueue(&mut self, ctx: &mut BurstCtx<'_>, v: u64) {
        let node = self.arena.alloc(NODE_BYTES);
        // Persist the node before linking it (out-of-place init needs no
        // undo record).
        ctx.store_u64(node, v);
        ctx.store_u64(node + 8, 0);
        ctx.ofence();
        let tail = ctx.load_u64(Q_TAIL);
        self.log.log_and_store(ctx, tail + 8, node);
        self.log.log_and_store(ctx, Q_TAIL, node);
        self.log.commit_section(ctx);
    }

    fn dequeue(&mut self, ctx: &mut BurstCtx<'_>) {
        let head = ctx.load_u64(Q_HEAD);
        let next = ctx.load_u64(head + 8);
        if next == 0 {
            return; // empty
        }
        ctx.load_u64(next); // read the value out
        self.log.log_and_store(ctx, Q_HEAD, next);
        self.log.commit_section(ctx);
        // The old sentinel becomes garbage (no free: arenas are
        // per-thread and nodes may cross threads).
    }
}

impl ThreadProgram for AtlasQueue {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        init_once(ctx, Q_INIT_FLAG, |c| Self::setup(c, &mut self.arena));
        if self.pending.is_none() {
            if self.ops_left == 0 {
                ctx.dfence();
                return BurstStatus::Finished;
            }
            ctx.compute(self.params.think_cycles);
            self.pending = Some(self.rng.chance(0.5));
        }
        let lock = SpinLock::at(Q_LOCK);
        match self.phase.step(lock, ctx, tid, 40) {
            LockStep::EnterCritical => {
                let enq = self.pending.expect("op pending");
                if enq {
                    let v = self.rng.below(self.params.key_space) + 1;
                    self.enqueue(ctx, v);
                } else {
                    self.dequeue(ctx);
                }
            }
            LockStep::StillAcquiring => {}
            LockStep::Released => {
                ctx.dfence();
                ctx.op_completed();
                self.ops_left -= 1;
                self.pending = None;
            }
        }
        BurstStatus::Running
    }

    fn name(&self) -> &str {
        "queue"
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
            seed: 61,
            ..Default::default()
        };
        let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
            .map(|t| -> Box<dyn ThreadProgram> { Box::new(AtlasQueue::new(t, &params)) })
            .collect();
        let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(programs)
            .build();
        let out = sim.run_to_completion();
        assert!(out.all_done);
        sim
    }

    #[test]
    fn queue_completes() {
        let sim = run(1, 40);
        assert_eq!(sim.stats().ops_completed, 40);
    }

    #[test]
    fn queue_is_walkable_and_acyclic() {
        let sim = run(2, 30);
        let pm = sim.pm();
        let mut node = pm.read_u64(Q_HEAD);
        let mut hops = 0;
        while node != 0 && hops < 1000 {
            node = pm.read_u64(node + 8);
            hops += 1;
        }
        assert!(hops < 1000, "queue has a cycle");
    }

    #[test]
    fn queue_multithreaded_hand_offs() {
        let sim = run(4, 20);
        assert_eq!(sim.stats().ops_completed, 80);
        assert!(
            sim.stats().inter_t_epoch_conflict > 0,
            "lock hand-offs expected"
        );
    }
}
