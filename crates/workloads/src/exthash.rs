//! Extendible hashing: CCEH (FAST'19) and the Dash-EH variant (VLDB'20).
//!
//! Layout on persistent memory:
//!
//! * a fixed **directory** of segment pointers at a static address
//!   (2^DIR_BITS entries);
//! * **segments** of [`BUCKETS_PER_SEG`] one-line buckets; a bucket holds
//!   four `(key, value-ptr)` pairs (key 0 = empty);
//! * a one-line **segment header** holding the segment's local depth and
//!   split lock.
//!
//! CCEH inserts are lock-free: probe the target bucket (plus linear
//! probing over a small window), CAS the key slot, store the value
//! pointer, `ofence`, `dfence`. When the probe window is full the thread
//! takes the segment's split lock, rehashes into two fresh segments and
//! republishes directory entries with `ofence` ordering between the data
//! and pointer writes.
//!
//! Dash-EH replaces the slot CAS with per-bucket locks (acquire/release
//! annotated) and adds a fingerprint write per insert, giving it a
//! different — lock-shaped — cross-thread dependency profile, as in the
//! paper's Figure 2.

use crate::common::{
    fnv1a, init_once, lock_region, Arena, KeySampler, LockPhase, LockStep, SpinLock,
    WorkloadParams, GLOBALS_BASE, LOCK_STRIPES, STATIC_BASE,
};
use asap_core::{BurstCtx, BurstStatus, ThreadProgram};
use asap_sim_core::{DetRng, ThreadId};

const DIR_BITS: u32 = 6;
pub(crate) const DIR_ENTRIES: u64 = 1 << DIR_BITS;
/// Buckets per segment (each one cache line).
pub const BUCKETS_PER_SEG: u64 = 16;
pub(crate) const PAIRS_PER_BUCKET: u64 = 4;
const PROBE_WINDOW: u64 = 2;
const SEG_BYTES: u64 = 64 + BUCKETS_PER_SEG * 64; // header line + buckets

pub(crate) const EXT_DIR: u64 = STATIC_BASE; // directory array (segment pointers)

const EXT_INIT_FLAG: u64 = GLOBALS_BASE + 0x40;

fn dir_index(h: u64) -> u64 {
    h >> (64 - DIR_BITS)
}

fn bucket_index(h: u64) -> u64 {
    h % BUCKETS_PER_SEG
}

pub(crate) fn seg_header(seg: u64) -> u64 {
    seg
}

pub(crate) fn bucket_addr(seg: u64, b: u64) -> u64 {
    seg + 64 + (b % BUCKETS_PER_SEG) * 64
}

pub(crate) fn slot_addr(bucket: u64, s: u64) -> u64 {
    bucket + s * 16
}

/// What the program is currently doing (inserts span multiple bursts
/// when locks or splits are involved).
#[derive(Debug)]
enum Phase {
    Idle,
    /// Dash: waiting on a bucket lock for (key, bucket line).
    DashLocked {
        key: u64,
        lock: SpinLock,
        phase: LockPhase,
    },
    /// Splitting the segment behind directory slot `dir`.
    Split {
        key: u64,
        dir: u64,
        phase: LockPhase,
        lock: SpinLock,
    },
}

/// CCEH / Dash-EH insert-heavy workload.
pub struct ExtHash {
    #[allow(dead_code)]
    tid: usize,
    rng: DetRng,
    sampler: KeySampler,
    arena: Arena,
    ops_left: u64,
    params: WorkloadParams,
    dash: bool,
    phase: Phase,
}

impl ExtHash {
    /// CCEH flavour (CAS-based inserts).
    pub fn new_cceh(thread: usize, params: &WorkloadParams) -> ExtHash {
        ExtHash {
            tid: thread,
            rng: params.rng_for(thread),
            sampler: params.key_sampler(),
            arena: Arena::for_thread(thread),
            ops_left: params.ops_per_thread,
            params: params.clone(),
            dash: false,
            phase: Phase::Idle,
        }
    }

    /// Dash-EH flavour (bucket locks + fingerprints).
    pub fn new_dash(thread: usize, params: &WorkloadParams) -> ExtHash {
        ExtHash {
            dash: true,
            ..ExtHash::new_cceh(thread, params)
        }
    }

    fn setup(ctx: &mut BurstCtx<'_>, arena: &mut Arena) {
        // Untimed: allocate the initial segments and fill the directory.
        for d in 0..DIR_ENTRIES {
            // Two directory entries share a segment initially (local
            // depth DIR_BITS-1) to make early splits happen.
            if d % 2 == 0 {
                let seg = arena.alloc(SEG_BYTES);
                ctx.poke_durable_u64(seg_header(seg), DIR_BITS as u64 - 1); // local depth
                ctx.poke_durable_u64(EXT_DIR + d * 8, seg);
                ctx.poke_durable_u64(EXT_DIR + (d + 1) * 8, seg);
            }
        }
    }

    fn next_key(&mut self) -> u64 {
        self.sampler.sample(&mut self.rng)
    }

    /// Write the value blob and return its address (counts as the value
    /// payload writes of a real insert).
    fn write_value(&mut self, ctx: &mut BurstCtx<'_>, key: u64) -> u64 {
        let blob = self.arena.alloc(self.params.value_bytes as u64);
        let lines = self.params.value_bytes.div_ceil(64);
        for l in 0..lines {
            ctx.store_u64(blob + l as u64 * 64, key ^ (l as u64) << 32);
        }
        blob
    }

    /// One CCEH-style insert attempt inside the current burst. Returns
    /// `Ok(())` on success or `Err(dir_index)` when the probe window was
    /// full and a split is needed.
    ///
    /// The release-persistency port is annotated at *segment*
    /// granularity (the race-free-code requirement of §IV-E): writers
    /// acquire the segment's sync word before probing and release it
    /// after publishing, which is what makes CCEH one of the
    /// high-cross-dependency workloads of Figure 2.
    fn try_insert(&mut self, ctx: &mut BurstCtx<'_>, key: u64) -> Result<(), u64> {
        let h = fnv1a(key);
        let dir = dir_index(h);
        let seg = ctx.load_u64(EXT_DIR + dir * 8);
        // Segment-granular acquire annotation (sync word in the header
        // line at +24).
        ctx.acquire_load(seg_header(seg) + 24);
        let b0 = bucket_index(h);
        for w in 0..PROBE_WINDOW {
            let bucket = bucket_addr(seg, b0 + w);
            for s in 0..PAIRS_PER_BUCKET {
                let slot = slot_addr(bucket, s);
                let cur = ctx.load_u64(slot);
                if cur == key {
                    // Update in place: persist new value blob, then
                    // republish the pointer. The pointer word shares its
                    // line with slots other threads CAS concurrently, so
                    // the publish must itself be an atomic RMW — a plain
                    // store would race (no synchronizes-with edge) and
                    // break strong persist atomicity under release
                    // persistency.
                    let blob = self.write_value(ctx, key);
                    ctx.ofence();
                    let old = ctx.peek_u64(slot + 8);
                    let _ = ctx.cas_u64(slot + 8, old, blob);
                    ctx.ofence();
                    ctx.release_store(seg_header(seg) + 24, h);
                    return Ok(());
                }
                if cur == 0 {
                    // Persist the value before publishing the key (the
                    // standard out-of-place insert ordering).
                    let blob = self.write_value(ctx, key);
                    ctx.ofence();
                    if ctx.cas_u64(slot, 0, key) {
                        let old = ctx.peek_u64(slot + 8);
                        let _ = ctx.cas_u64(slot + 8, old, blob);
                        ctx.ofence();
                        ctx.release_store(seg_header(seg) + 24, h);
                        return Ok(());
                    }
                    // Lost the race; fall through to the next slot.
                }
            }
        }
        Err(dir)
    }

    /// Rehash the segment behind `dir` into two fresh segments (runs
    /// under the segment split lock).
    fn split(&mut self, ctx: &mut BurstCtx<'_>, dir: u64) {
        let old = ctx.load_u64(EXT_DIR + dir * 8);
        let depth = ctx.load_u64(seg_header(old));
        if depth as u32 >= DIR_BITS {
            // Cannot split further with a fixed directory: steal the
            // oldest slot in the target bucket instead (bounded overwrite
            // keeps the workload running; real CCEH would double the
            // directory).
            return;
        }
        let s0 = self.arena.alloc(SEG_BYTES);
        let s1 = self.arena.alloc(SEG_BYTES);
        ctx.store_u64(seg_header(s0), depth + 1);
        ctx.store_u64(seg_header(s1), depth + 1);
        // Rehash every pair into the two new segments.
        for b in 0..BUCKETS_PER_SEG {
            for s in 0..PAIRS_PER_BUCKET {
                let slot = slot_addr(bucket_addr(old, b), s);
                let k = ctx.load_u64(slot);
                if k == 0 {
                    continue;
                }
                let v = ctx.load_u64(slot + 8);
                let h = fnv1a(k);
                // The split bit below the directory bits decides the side.
                let side = (dir_index(h)) & 1;
                let dst_seg = if side == 0 { s0 } else { s1 };
                let db = bucket_index(h);
                for w in 0..PROBE_WINDOW {
                    let dslot_base = bucket_addr(dst_seg, db + w);
                    let mut placed = false;
                    for ds in 0..PAIRS_PER_BUCKET {
                        let dslot = slot_addr(dslot_base, ds);
                        if ctx.load_u64(dslot) == 0 {
                            ctx.store_u64(dslot, k);
                            ctx.store_u64(dslot + 8, v);
                            placed = true;
                            break;
                        }
                    }
                    if placed {
                        break;
                    }
                }
            }
        }
        // Persist the new segments before publishing them.
        ctx.ofence();
        let pair_base = dir & !1;
        ctx.store_u64(EXT_DIR + pair_base * 8, s0);
        ctx.store_u64(EXT_DIR + (pair_base + 1) * 8, s1);
        ctx.ofence();
    }

    fn lookup(&mut self, ctx: &mut BurstCtx<'_>, key: u64) {
        let h = fnv1a(key);
        let seg = ctx.load_u64(EXT_DIR + dir_index(h) * 8);
        let b0 = bucket_index(h);
        'outer: for w in 0..PROBE_WINDOW {
            let bucket = bucket_addr(seg, b0 + w);
            for s in 0..PAIRS_PER_BUCKET {
                let slot = slot_addr(bucket, s);
                if ctx.load_u64(slot) == key {
                    ctx.load_u64(slot + 8);
                    break 'outer;
                }
            }
        }
    }

    fn seg_lock_for(&self, _ctx: &mut BurstCtx<'_>, dir: u64) -> SpinLock {
        // Striped split locks (one per directory slot pair).
        SpinLock::striped(lock_region(3), dir >> 1, LOCK_STRIPES)
    }

    /// Dash's striped bucket lock cell for a hashed key. Dash locks at
    /// bucket granularity; our stripe count matches the bucket-group
    /// count (not the key count), so concurrent writers genuinely
    /// contend — the Figure 2 dependency source for dash-eh.
    fn dash_lock(h: u64) -> SpinLock {
        SpinLock::striped(
            lock_region(4),
            dir_index(h) * BUCKETS_PER_SEG + bucket_index(h),
            256,
        )
    }
}

impl ThreadProgram for ExtHash {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        init_once(ctx, EXT_INIT_FLAG, |c| Self::setup(c, &mut self.arena));

        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => {}
            Phase::DashLocked {
                key,
                lock,
                mut phase,
            } => {
                match phase.step(lock, ctx, tid, 40) {
                    LockStep::EnterCritical => {
                        // Critical section in the same burst: slot insert
                        // plus Dash's fingerprint write.
                        if self.try_insert(ctx, key).is_ok() {
                            // Dash fingerprint: kept in the lock cell's
                            // ticket line (the bucket line is all slots).
                            let h = fnv1a(key);
                            ctx.store_u64(Self::dash_lock(h).addr() + 16, h & 0xff);
                            ctx.ofence();
                        }
                        // On Err the probe window was full: the bounded
                        // structure drops the insert (real Dash would
                        // split; CCEH mode exercises the split path).
                        self.phase = Phase::DashLocked { key, lock, phase };
                    }
                    LockStep::StillAcquiring => {
                        self.phase = Phase::DashLocked { key, lock, phase };
                    }
                    LockStep::Released => {
                        ctx.dfence();
                        ctx.op_completed();
                        self.ops_left -= 1;
                    }
                }
                return BurstStatus::Running;
            }
            Phase::Split {
                key,
                dir,
                mut phase,
                lock,
            } => {
                match phase.step(lock, ctx, tid, 60) {
                    LockStep::EnterCritical => {
                        // Holding the split lock: re-check (someone may
                        // have split already) and split.
                        if let Err(d) = self.try_insert(ctx, key) {
                            self.split(ctx, d);
                            // Retry inside the same critical section; if
                            // the window is still unlucky the bounded
                            // structure drops the insert.
                            let _ = self.try_insert(ctx, key);
                        }
                        self.phase = Phase::Split {
                            key,
                            dir,
                            phase,
                            lock,
                        };
                    }
                    LockStep::StillAcquiring => {
                        self.phase = Phase::Split {
                            key,
                            dir,
                            phase,
                            lock,
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
        let key = self.next_key();
        let is_update = self.rng.chance(self.params.update_fraction);
        if !is_update {
            self.lookup(ctx, key);
            ctx.op_completed();
            self.ops_left -= 1;
            return BurstStatus::Running;
        }

        if self.dash {
            // Dash: take the striped bucket lock first.
            let h = fnv1a(key);
            let lock = Self::dash_lock(h);
            self.phase = Phase::DashLocked {
                key,
                lock,
                phase: LockPhase::start(),
            };
            return BurstStatus::Running;
        }

        // CCEH: lock-free attempt in this burst.
        match self.try_insert(ctx, key) {
            Ok(()) => {
                ctx.dfence();
                ctx.op_completed();
                self.ops_left -= 1;
            }
            Err(dir) => {
                let lock = self.seg_lock_for(ctx, dir);
                self.phase = Phase::Split {
                    key,
                    dir,
                    phase: LockPhase::start(),
                    lock,
                };
            }
        }
        BurstStatus::Running
    }

    fn name(&self) -> &str {
        if self.dash {
            "dash-eh"
        } else {
            "cceh"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_core::{Flavor, ModelKind, SimBuilder};
    use asap_sim_core::SimConfig;

    fn run(dash: bool, threads: usize, ops: u64) -> asap_core::Sim {
        let params = WorkloadParams {
            threads,
            ops_per_thread: ops,
            seed: 3,
            key_space: 256,
            ..Default::default()
        };
        let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
            .map(|t| -> Box<dyn ThreadProgram> {
                if dash {
                    Box::new(ExtHash::new_dash(t, &params))
                } else {
                    Box::new(ExtHash::new_cceh(t, &params))
                }
            })
            .collect();
        let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(programs)
            .with_journal()
            .build();
        let out = sim.run_to_completion();
        assert!(out.all_done);
        sim
    }

    #[test]
    fn cceh_single_thread_completes() {
        let sim = run(false, 1, 40);
        assert_eq!(sim.stats().ops_completed, 40);
        assert!(sim.stats().stores > 0);
    }

    #[test]
    fn cceh_inserted_keys_are_findable() {
        // Insert a fixed key set through the structure, then verify via
        // the functional image.
        let params = WorkloadParams {
            threads: 1,
            ops_per_thread: 30,
            seed: 5,
            key_space: 64,
            update_fraction: 1.0,
            ..Default::default()
        };
        let programs: Vec<Box<dyn ThreadProgram>> = vec![Box::new(ExtHash::new_cceh(0, &params))];
        let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(programs)
            .build();
        sim.run_to_completion();
        // Count non-empty slots across the directory's segments.
        let pm = sim.pm();
        let mut found = 0;
        let mut seen_segs = std::collections::HashSet::new();
        for d in 0..DIR_ENTRIES {
            let seg = pm.read_u64(EXT_DIR + d * 8);
            if !seen_segs.insert(seg) {
                continue;
            }
            for b in 0..BUCKETS_PER_SEG {
                for s in 0..PAIRS_PER_BUCKET {
                    let k = pm.read_u64(slot_addr(bucket_addr(seg, b), s));
                    if k != 0 {
                        found += 1;
                    }
                }
            }
        }
        assert!(found > 0, "no keys stored");
        assert!(found <= 30);
    }

    #[test]
    fn cceh_multithreaded_with_crashes() {
        let sim = run(false, 4, 25);
        assert_eq!(sim.stats().ops_completed, 100);
    }

    #[test]
    fn dash_uses_locks_and_completes() {
        let sim = run(true, 2, 20);
        assert_eq!(sim.stats().ops_completed, 40);
    }

    #[test]
    fn cceh_crash_consistent() {
        let params = WorkloadParams {
            threads: 2,
            ops_per_thread: 60,
            seed: 9,
            key_space: 128,
            ..Default::default()
        };
        for at in [5_000u64, 20_000, 80_000] {
            let programs: Vec<Box<dyn ThreadProgram>> = (0..2)
                .map(|t| -> Box<dyn ThreadProgram> { Box::new(ExtHash::new_cceh(t, &params)) })
                .collect();
            let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
                .programs(programs)
                .with_journal()
                .build();
            let r = sim
                .crash_at(asap_sim_core::Cycle(at))
                .expect("journal enabled");
            assert!(r.is_consistent(), "crash at {at}: {:?}", r.violations);
        }
    }
}
