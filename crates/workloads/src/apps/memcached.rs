//! Memcached with a PMDK-transactional backend (WHISPER suite).
//!
//! SET requests dominate (update-intensive configuration): hash the key
//! to one of [`BUCKETS`] chains, take the bucket lock, allocate and
//! persist the item out of place, `ofence`, swing the chain head pointer,
//! `ofence`, release, `dfence` before acking the client. GETs are
//! lock-free chain walks.

use crate::common::{
    fnv1a, init_once, lock_region, Arena, KeySampler, LockPhase, LockStep, SpinLock,
    WorkloadParams, GLOBALS_BASE, LOCK_STRIPES, STATIC_BASE,
};
use asap_core::{BurstCtx, BurstStatus, ThreadProgram};
use asap_sim_core::{DetRng, ThreadId};

/// Hash-chain buckets (each: one line holding the chain head; bucket
/// locks live in a striped lock table).
pub const BUCKETS: u64 = 1 << 8;
pub(crate) const BUCKET_REGION: u64 = STATIC_BASE + 0x0e00_0000;
const MC_INIT_FLAG: u64 = GLOBALS_BASE + 0xb00;

pub(crate) fn bucket_addr(key: u64) -> u64 {
    BUCKET_REGION + (fnv1a(key) % BUCKETS) * 64
}

enum Phase {
    Idle,
    Locked {
        key: u64,
        lock: SpinLock,
        phase: LockPhase,
    },
}

/// Memcached SET/GET workload.
pub struct Memcached {
    #[allow(dead_code)]
    tid: usize,
    rng: DetRng,
    sampler: KeySampler,
    arena: Arena,
    ops_left: u64,
    params: WorkloadParams,
    phase: Phase,
}

impl Memcached {
    /// Build the program for one thread.
    pub fn new(thread: usize, params: &WorkloadParams) -> Memcached {
        Memcached {
            tid: thread,
            rng: params.rng_for(thread),
            sampler: params.key_sampler(),
            arena: Arena::for_thread(thread),
            ops_left: params.ops_per_thread,
            params: params.clone(),
            phase: Phase::Idle,
        }
    }

    /// SET critical section (caller holds the bucket lock): allocate and
    /// persist the item out of place, `ofence`, swing the chain head,
    /// `ofence`. Shared with the open-loop traffic frontend.
    pub(crate) fn set(&mut self, ctx: &mut BurstCtx<'_>, key: u64) {
        let bucket = bucket_addr(key);
        // Item: [key, next, value...] — sized by value_bytes.
        let item_bytes = 64 + self.params.value_bytes as u64;
        let item = self.arena.alloc(item_bytes);
        let head = ctx.load_u64(bucket);
        ctx.store_u64(item, key);
        ctx.store_u64(item + 8, head);
        let vlines = (self.params.value_bytes as u64).div_ceil(64);
        for l in 0..vlines {
            ctx.store_u64(item + 64 + l * 64, key.rotate_left(l as u32));
        }
        ctx.ofence(); // item durable before publication
        ctx.store_u64(bucket, item);
        ctx.ofence();
    }

    /// Lock-free GET: walk the bucket chain. Shared with the open-loop
    /// traffic frontend.
    pub(crate) fn get(&mut self, ctx: &mut BurstCtx<'_>, key: u64) {
        let bucket = bucket_addr(key);
        let mut item = ctx.load_u64(bucket);
        let mut hops = 0;
        while item != 0 && hops < 16 {
            if ctx.load_u64(item) == key {
                ctx.load_u64(item + 64);
                return;
            }
            item = ctx.load_u64(item + 8);
            hops += 1;
        }
    }
}

impl ThreadProgram for Memcached {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        init_once(ctx, MC_INIT_FLAG, |_| {});

        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => {}
            Phase::Locked {
                key,
                lock,
                mut phase,
            } => {
                match phase.step(lock, ctx, tid, 30) {
                    LockStep::EnterCritical => {
                        self.set(ctx, key);
                        self.phase = Phase::Locked { key, lock, phase };
                    }
                    LockStep::StillAcquiring => {
                        self.phase = Phase::Locked { key, lock, phase };
                    }
                    LockStep::Released => {
                        ctx.dfence();
                        ctx.op_completed();
                        self.ops_left -= 1;
                    }
                }
                return BurstStatus::Running;
            }
        }

        if self.ops_left == 0 {
            ctx.dfence();
            return BurstStatus::Finished;
        }
        ctx.compute(self.params.think_cycles);
        let key = self.sampler.sample(&mut self.rng);
        if self.rng.chance(self.params.update_fraction) {
            let lock = SpinLock::striped(lock_region(2), fnv1a(key), LOCK_STRIPES);
            self.phase = Phase::Locked {
                key,
                lock,
                phase: LockPhase::start(),
            };
        } else {
            self.get(ctx, key);
            ctx.op_completed();
            self.ops_left -= 1;
        }
        BurstStatus::Running
    }

    fn name(&self) -> &str {
        "memcached"
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
            seed: 111,
            key_space: 512,
            ..Default::default()
        };
        let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
            .map(|t| -> Box<dyn ThreadProgram> { Box::new(Memcached::new(t, &params)) })
            .collect();
        let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(programs)
            .build();
        let out = sim.run_to_completion();
        assert!(out.all_done);
        sim
    }

    #[test]
    fn memcached_completes() {
        let sim = run(2, 30);
        assert_eq!(sim.stats().ops_completed, 60);
    }

    #[test]
    fn memcached_chains_reachable() {
        let sim = run(1, 40);
        let pm = sim.pm();
        let mut items = 0;
        for b in 0..BUCKETS {
            let mut item = pm.read_u64(BUCKET_REGION + b * 64);
            let mut hops = 0;
            while item != 0 && hops < 100 {
                assert_ne!(pm.read_u64(item), 0, "item with zero key");
                item = pm.read_u64(item + 8);
                hops += 1;
                items += 1;
            }
            assert!(hops < 100, "cycle in chain");
        }
        assert!(items > 0);
    }
}
