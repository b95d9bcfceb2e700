//! Atlas skip list: a persistent skip list behind a global lock.
//!
//! Insert finds predecessors at every level, then logs-and-links the new
//! node bottom-up; delete unlinks top-down. Towers are capped at
//! [`MAX_LEVEL`]. Longer traversals and multi-level link updates make
//! this the paper's *worst-scaling* workload (Figure 10 uses it as the
//! low end).

use super::UndoLog;
use crate::common::{
    init_once, Arena, LockPhase, LockStep, SpinLock, WorkloadParams, GLOBALS_BASE, STATIC_BASE,
};
use asap_core::{BurstCtx, BurstStatus, ThreadProgram};
use asap_sim_core::{DetRng, ThreadId};

/// Maximum tower height.
pub const MAX_LEVEL: u64 = 4;

pub(crate) const SL_HEAD: u64 = GLOBALS_BASE + 0x700;
const SL_LOCK: u64 = GLOBALS_BASE + 0x740; // own line: ticket + serving words
const SL_INIT_FLAG: u64 = GLOBALS_BASE + 0x710;
const LOG_REGION: u64 = STATIC_BASE + 0x0600_0000;

// Node: [key, value, next[0..MAX_LEVEL]] — fits one line (6*8 = 48B).
const NODE_BYTES: u64 = 64;

pub(crate) fn next_addr(node: u64, level: u64) -> u64 {
    node + 16 + level * 8
}

/// Atlas skip-list workload: insert/delete/search mix under one lock.
pub struct AtlasSkiplist {
    #[allow(dead_code)]
    tid: usize,
    rng: DetRng,
    arena: Arena,
    ops_left: u64,
    params: WorkloadParams,
    log: UndoLog,
    phase: LockPhase,
    pending: Option<u8>, // 0 = insert, 1 = delete, 2 = search
}

impl AtlasSkiplist {
    /// Build the program for one thread.
    pub fn new(thread: usize, params: &WorkloadParams) -> AtlasSkiplist {
        AtlasSkiplist {
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
        let head = arena.alloc(NODE_BYTES);
        ctx.poke_durable_u64(head, 0); // key 0 = -inf sentinel
        ctx.poke_durable_u64(SL_HEAD, head);
    }

    fn random_height(&mut self) -> u64 {
        let mut h = 1;
        while h < MAX_LEVEL && self.rng.chance(0.5) {
            h += 1;
        }
        h
    }

    /// Find per-level predecessors of `key` (timed loads).
    fn find_preds(&self, ctx: &mut BurstCtx<'_>, key: u64) -> [u64; MAX_LEVEL as usize] {
        let head = ctx.load_u64(SL_HEAD);
        let mut preds = [head; MAX_LEVEL as usize];
        let mut node = head;
        for level in (0..MAX_LEVEL).rev() {
            loop {
                let next = ctx.load_u64(next_addr(node, level));
                if next == 0 {
                    break;
                }
                let nk = ctx.load_u64(next);
                if nk >= key {
                    break;
                }
                node = next;
            }
            preds[level as usize] = node;
        }
        preds
    }

    fn insert(&mut self, ctx: &mut BurstCtx<'_>, key: u64) {
        let preds = self.find_preds(ctx, key);
        let after = ctx.load_u64(next_addr(preds[0], 0));
        if after != 0 && ctx.load_u64(after) == key {
            // Present: update value in place (logged).
            self.log.log_and_store(ctx, after + 8, key ^ 0xfeed);
            self.log.commit_section(ctx);
            return;
        }
        let h = self.random_height();
        let node = self.arena.alloc(NODE_BYTES);
        ctx.store_u64(node, key);
        ctx.store_u64(node + 8, key ^ 0xfeed);
        for level in 0..h {
            let succ = ctx.load_u64(next_addr(preds[level as usize], level));
            ctx.store_u64(next_addr(node, level), succ);
        }
        ctx.ofence(); // node durable before linking
        for level in 0..h {
            self.log
                .log_and_store(ctx, next_addr(preds[level as usize], level), node);
        }
        self.log.commit_section(ctx);
    }

    fn delete(&mut self, ctx: &mut BurstCtx<'_>, key: u64) {
        let preds = self.find_preds(ctx, key);
        let victim = ctx.load_u64(next_addr(preds[0], 0));
        if victim == 0 || ctx.load_u64(victim) != key {
            return;
        }
        for level in (0..MAX_LEVEL).rev() {
            let p = preds[level as usize];
            if ctx.load_u64(next_addr(p, level)) == victim {
                let succ = ctx.load_u64(next_addr(victim, level));
                self.log.log_and_store(ctx, next_addr(p, level), succ);
            }
        }
        self.log.commit_section(ctx);
    }

    fn search(&self, ctx: &mut BurstCtx<'_>, key: u64) {
        let preds = self.find_preds(ctx, key);
        let node = ctx.load_u64(next_addr(preds[0], 0));
        if node != 0 && ctx.load_u64(node) == key {
            ctx.load_u64(node + 8);
        }
    }
}

impl ThreadProgram for AtlasSkiplist {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        init_once(ctx, SL_INIT_FLAG, |c| Self::setup(c, &mut self.arena));
        if self.pending.is_none() {
            if self.ops_left == 0 {
                ctx.dfence();
                return BurstStatus::Finished;
            }
            ctx.compute(self.params.think_cycles);
            let r = self.rng.below(10);
            self.pending = Some(if r < 5 {
                0
            } else if r < 8 {
                1
            } else {
                2
            });
        }
        let lock = SpinLock::at(SL_LOCK);
        match self.phase.step(lock, ctx, tid, 50) {
            LockStep::EnterCritical => {
                let key = self.rng.below(self.params.key_space) + 1;
                match self.pending.expect("op pending") {
                    0 => self.insert(ctx, key),
                    1 => self.delete(ctx, key),
                    _ => self.search(ctx, key),
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
        "skiplist"
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
            seed: 71,
            key_space: 300,
            ..Default::default()
        };
        let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
            .map(|t| -> Box<dyn ThreadProgram> { Box::new(AtlasSkiplist::new(t, &params)) })
            .collect();
        let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(programs)
            .build();
        let out = sim.run_to_completion();
        assert!(out.all_done);
        sim
    }

    #[test]
    fn skiplist_completes() {
        let sim = run(1, 40);
        assert_eq!(sim.stats().ops_completed, 40);
    }

    #[test]
    fn skiplist_bottom_level_sorted() {
        let sim = run(2, 40);
        let pm = sim.pm();
        let head = pm.read_u64(SL_HEAD);
        let mut node = pm.read_u64(next_addr(head, 0));
        let mut last = 0;
        let mut count = 0;
        while node != 0 && count < 10_000 {
            let k = pm.read_u64(node);
            assert!(k > last, "skiplist keys out of order: {k} after {last}");
            last = k;
            node = pm.read_u64(next_addr(node, 0));
            count += 1;
        }
        assert!(count < 10_000, "cycle in skiplist");
        assert!(count > 0, "skiplist empty after inserts");
    }

    #[test]
    fn skiplist_multithreaded() {
        let sim = run(4, 15);
        assert_eq!(sim.stats().ops_completed, 60);
    }
}
