//! P-CLHT: RECIPE's persistent cache-line hash table (SOSP'19).
//!
//! CLHT's defining property is that an operation touches exactly one
//! cache line in the common case: a bucket is one line holding an
//! embedded lock word plus three `(key, value)` pairs, chained via a next
//! pointer for overflow. Updates take the bucket lock
//! (acquire-annotated), write the pair, `ofence`, release; lookups are
//! lock-free single-line reads.

use crate::common::{
    fnv1a, init_once, lock_region, Arena, KeySampler, LockPhase, LockStep, SpinLock,
    WorkloadParams, GLOBALS_BASE, STATIC_BASE,
};
use asap_core::{BurstCtx, BurstStatus, ThreadProgram};
use asap_sim_core::{DetRng, ThreadId};

/// Number of top-level buckets (one line each).
pub const BUCKETS: u64 = 1 << 10;
pub(crate) const PAIRS: u64 = 3;
const BUCKET_REGION: u64 = STATIC_BASE + 0x0100_0000;
const CLHT_INIT_FLAG: u64 = GLOBALS_BASE + 0x300;

// Bucket line: [k0 v0 | k1 v1 | k2 v2 | next]; bucket locks live in a
// striped lock table (CLHT embeds them, but our synchronization tracking
// is line-granular, so the lock words get their own cells).
pub(crate) fn bucket_addr(b: u64) -> u64 {
    BUCKET_REGION + (b % BUCKETS) * 64
}

pub(crate) fn pair_addr(bucket: u64, i: u64) -> u64 {
    bucket + i * 16
}

pub(crate) fn next_addr(bucket: u64) -> u64 {
    bucket + 48
}

enum Phase {
    Idle,
    Locked {
        key: u64,
        bucket: u64,
        lock: SpinLock,
        phase: LockPhase,
    },
}

/// P-CLHT update-heavy workload.
pub struct PClht {
    #[allow(dead_code)]
    tid: usize,
    rng: DetRng,
    sampler: KeySampler,
    arena: Arena,
    ops_left: u64,
    params: WorkloadParams,
    phase: Phase,
}

impl PClht {
    /// Build the program for one thread.
    pub fn new(thread: usize, params: &WorkloadParams) -> PClht {
        PClht {
            tid: thread,
            rng: params.rng_for(thread),
            sampler: params.key_sampler(),
            arena: Arena::for_thread(thread),
            ops_left: params.ops_per_thread,
            params: params.clone(),
            phase: Phase::Idle,
        }
    }

    /// Insert under the held bucket lock: update in place, claim an empty
    /// pair, or append an overflow bucket.
    fn locked_insert(&mut self, ctx: &mut BurstCtx<'_>, bucket: u64, key: u64) {
        let val = key ^ 0xc1e4;
        let mut b = bucket;
        loop {
            for i in 0..PAIRS {
                let k = ctx.load_u64(pair_addr(b, i));
                if k == key {
                    ctx.store_u64(pair_addr(b, i) + 8, val);
                    ctx.ofence();
                    return;
                }
                if k == 0 {
                    // CLHT ordering: value first, fence, then key (the
                    // key write publishes the pair).
                    ctx.store_u64(pair_addr(b, i) + 8, val);
                    ctx.ofence();
                    ctx.store_u64(pair_addr(b, i), key);
                    ctx.ofence();
                    return;
                }
            }
            let next = ctx.load_u64(next_addr(b));
            if next == 0 {
                let nb = self.arena.alloc(64);
                ctx.store_u64(pair_addr(nb, 0) + 8, val);
                ctx.store_u64(pair_addr(nb, 0), key);
                ctx.ofence();
                ctx.store_u64(next_addr(b), nb);
                ctx.ofence();
                return;
            }
            b = next;
        }
    }

    fn lookup(&mut self, ctx: &mut BurstCtx<'_>, key: u64) {
        let mut b = bucket_addr(fnv1a(key));
        loop {
            for i in 0..PAIRS {
                if ctx.load_u64(pair_addr(b, i)) == key {
                    ctx.load_u64(pair_addr(b, i) + 8);
                    return;
                }
            }
            b = ctx.load_u64(next_addr(b));
            if b == 0 {
                return;
            }
        }
    }
}

impl ThreadProgram for PClht {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        init_once(ctx, CLHT_INIT_FLAG, |_| {
            // Buckets live in a statically-addressed zeroed region: no
            // setup writes needed.
        });

        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => {}
            Phase::Locked {
                key,
                bucket,
                lock,
                mut phase,
            } => {
                match phase.step(lock, ctx, tid, 30) {
                    LockStep::EnterCritical => {
                        self.locked_insert(ctx, bucket, key);
                        self.phase = Phase::Locked {
                            key,
                            bucket,
                            lock,
                            phase,
                        };
                    }
                    LockStep::StillAcquiring => {
                        self.phase = Phase::Locked {
                            key,
                            bucket,
                            lock,
                            phase,
                        };
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
            let h = fnv1a(key);
            let bucket = bucket_addr(h);
            self.phase = Phase::Locked {
                key,
                bucket,
                // CLHT locks per bucket; stripe by bucket index so
                // concurrent writers to nearby buckets contend
                // realistically.
                lock: SpinLock::striped(lock_region(0), h % BUCKETS, 128),
                phase: LockPhase::start(),
            };
        } else {
            self.lookup(ctx, key);
            ctx.op_completed();
            self.ops_left -= 1;
        }
        BurstStatus::Running
    }

    fn name(&self) -> &str {
        "p-clht"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_core::{Flavor, ModelKind, SimBuilder};
    use asap_sim_core::SimConfig;

    fn run(threads: usize, ops: u64, key_space: u64) -> asap_core::Sim {
        let params = WorkloadParams {
            threads,
            ops_per_thread: ops,
            seed: 31,
            key_space,
            ..Default::default()
        };
        let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
            .map(|t| -> Box<dyn ThreadProgram> { Box::new(PClht::new(t, &params)) })
            .collect();
        let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(programs)
            .build();
        let out = sim.run_to_completion();
        assert!(out.all_done);
        sim
    }

    #[test]
    fn clht_completes() {
        let sim = run(1, 60, 128);
        assert_eq!(sim.stats().ops_completed, 60);
    }

    #[test]
    fn clht_values_stored_in_buckets() {
        let sim = run(1, 50, 64);
        let pm = sim.pm();
        let mut pairs = 0;
        for b in 0..BUCKETS {
            let addr = bucket_addr(b);
            for i in 0..PAIRS {
                let k = pm.read_u64(pair_addr(addr, i));
                if k != 0 {
                    assert_eq!(pm.read_u64(pair_addr(addr, i) + 8), k ^ 0xc1e4);
                    pairs += 1;
                }
            }
        }
        assert!(pairs > 0);
    }

    #[test]
    fn zipf_skew_raises_contention() {
        // 160 ops/thread: short runs put only a handful of conflicts on
        // either side and the comparison drowns in noise.
        let run_with = |zipf: Option<f64>| {
            let params = WorkloadParams {
                threads: 4,
                ops_per_thread: 160,
                seed: 31,
                key_space: 4096,
                zipf_theta: zipf,
                ..Default::default()
            };
            let programs: Vec<Box<dyn ThreadProgram>> = (0..4)
                .map(|t| -> Box<dyn ThreadProgram> { Box::new(PClht::new(t, &params)) })
                .collect();
            let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Hops, Flavor::Release)
                .programs(programs)
                .build();
            sim.run_to_completion();
            sim.stats().inter_t_epoch_conflict
        };
        let uniform = run_with(None);
        let skewed = run_with(Some(0.99));
        assert!(
            skewed >= uniform,
            "Zipf(0.99) should not reduce contention (uniform={uniform}, zipf={skewed})"
        );
    }

    #[test]
    fn clht_multithreaded_contention() {
        // Tiny key space concentrates threads on few buckets: lots of
        // lock hand-offs (cross deps).
        let sim = run(4, 25, 16);
        assert_eq!(sim.stats().ops_completed, 100);
        assert!(sim.stats().inter_t_epoch_conflict > 0);
    }
}
