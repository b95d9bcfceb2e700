//! Atlas heap: a persistent array binary min-heap behind a global lock.
//!
//! Insert sift-up and pop-min sift-down both log-and-store every element
//! move, giving the long-epoch, low-cross-dependency profile of the
//! paper's "heap" workload.

use super::UndoLog;
use crate::common::{
    init_once, LockPhase, LockStep, SpinLock, WorkloadParams, GLOBALS_BASE, STATIC_BASE,
};
use asap_core::{BurstCtx, BurstStatus, ThreadProgram};
use asap_sim_core::{DetRng, ThreadId};

pub(crate) const HEAP_REGION: u64 = STATIC_BASE + 0x0300_0000;
pub(crate) const HEAP_COUNT: u64 = GLOBALS_BASE + 0x500;
const HEAP_LOCK: u64 = GLOBALS_BASE + 0x540; // own line: ticket + serving words
const HEAP_INIT_FLAG: u64 = GLOBALS_BASE + 0x510;
pub(crate) const LOG_REGION: u64 = STATIC_BASE + 0x0400_0000;
const MAX_ELEMS: u64 = 1 << 14;

pub(crate) fn elem(i: u64) -> u64 {
    // One element per line to keep sift writes line-distinct.
    HEAP_REGION + i * 64
}

/// Atlas heap workload: alternating insert / pop-min under one lock.
pub struct AtlasHeap {
    #[allow(dead_code)]
    tid: usize,
    rng: DetRng,
    ops_left: u64,
    params: WorkloadParams,
    log: UndoLog,
    phase: LockPhase,
    pending: Option<bool>, // Some(is_insert) while the lock protocol runs
}

impl AtlasHeap {
    /// Build the program for one thread.
    pub fn new(thread: usize, params: &WorkloadParams) -> AtlasHeap {
        AtlasHeap {
            tid: thread,
            rng: params.rng_for(thread),
            ops_left: params.ops_per_thread,
            params: params.clone(),
            log: UndoLog::new(LOG_REGION + thread as u64 * 0x10_0000, 1024),
            phase: LockPhase::start(),
            pending: None,
        }
    }

    fn insert(&mut self, ctx: &mut BurstCtx<'_>, v: u64) {
        let n = ctx.load_u64(HEAP_COUNT);
        if n >= MAX_ELEMS {
            return;
        }
        self.log.log_and_store(ctx, elem(n), v);
        self.log.log_and_store(ctx, HEAP_COUNT, n + 1);
        // Sift up.
        let mut i = n;
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = ctx.load_u64(elem(parent));
            let cv = ctx.load_u64(elem(i));
            if pv <= cv {
                break;
            }
            self.log.log_and_store(ctx, elem(parent), cv);
            self.log.log_and_store(ctx, elem(i), pv);
            i = parent;
        }
        self.log.commit_section(ctx);
    }

    fn pop_min(&mut self, ctx: &mut BurstCtx<'_>) {
        let n = ctx.load_u64(HEAP_COUNT);
        if n == 0 {
            return;
        }
        let last = ctx.load_u64(elem(n - 1));
        self.log.log_and_store(ctx, elem(0), last);
        self.log.log_and_store(ctx, HEAP_COUNT, n - 1);
        let n = n - 1;
        // Sift down.
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            if l >= n {
                break;
            }
            let lv = ctx.load_u64(elem(l));
            let child = if r < n && ctx.load_u64(elem(r)) < lv {
                r
            } else {
                l
            };
            let cv = ctx.load_u64(elem(child));
            let iv = ctx.load_u64(elem(i));
            if iv <= cv {
                break;
            }
            self.log.log_and_store(ctx, elem(i), cv);
            self.log.log_and_store(ctx, elem(child), iv);
            i = child;
        }
        self.log.commit_section(ctx);
    }
}

impl ThreadProgram for AtlasHeap {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        init_once(ctx, HEAP_INIT_FLAG, |_| {});
        if self.pending.is_none() {
            if self.ops_left == 0 {
                ctx.dfence();
                return BurstStatus::Finished;
            }
            ctx.compute(self.params.think_cycles);
            self.pending = Some(self.rng.chance(0.6));
        }
        let lock = SpinLock::at(HEAP_LOCK);
        match self.phase.step(lock, ctx, tid, 50) {
            LockStep::EnterCritical => {
                let insert = self.pending.expect("op pending");
                if insert {
                    let v = self.rng.below(self.params.key_space) + 1;
                    self.insert(ctx, v);
                } else {
                    self.pop_min(ctx);
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
        "heap"
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
            seed: 51,
            key_space: 1000,
            ..Default::default()
        };
        let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
            .map(|t| -> Box<dyn ThreadProgram> { Box::new(AtlasHeap::new(t, &params)) })
            .collect();
        let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(programs)
            .build();
        let out = sim.run_to_completion();
        assert!(out.all_done);
        sim
    }

    #[test]
    fn heap_completes() {
        let sim = run(1, 40);
        assert_eq!(sim.stats().ops_completed, 40);
    }

    #[test]
    fn heap_property_holds_functionally() {
        let sim = run(2, 30);
        let pm = sim.pm();
        let n = pm.read_u64(HEAP_COUNT);
        for i in 1..n {
            let parent = (i - 1) / 2;
            assert!(
                pm.read_u64(elem(parent)) <= pm.read_u64(elem(i)),
                "heap property violated at {i}"
            );
        }
    }

    #[test]
    fn heap_multithreaded_serializes() {
        let sim = run(4, 15);
        assert_eq!(sim.stats().ops_completed, 60);
    }
}
