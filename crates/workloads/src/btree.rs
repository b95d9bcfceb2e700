//! FAST & FAIR-style persistent B+-tree (FAST'18), plus a Masstree-shaped
//! two-layer variant standing in for RECIPE's P-Masstree.
//!
//! Node layout (eight cache lines = 512 B):
//!
//! * line 0: header — `[lock, count, is_leaf, sibling, parent-hint]`;
//! * lines 1..7: up to [`FANOUT`] `(key, ptr)` pairs, kept sorted.
//!
//! FAST & FAIR's trick is in-place sorted insertion by shifting entries
//! one 8-byte word at a time, with a persist barrier after each shift so
//! any crash leaves either the old or a tolerable transient state. That
//! is exactly an `ofence`-per-shift pattern — small epochs, many of them —
//! which is why the paper's Figure 2 shows fast_fair with a very high
//! epoch count.
//!
//! The Masstree variant layers two trees: an upper tree maps the high key
//! half to a lower-layer root, and the value lives in the lower tree —
//! doubling the traversal and write path, like RECIPE's P-Masstree.

use crate::common::{
    init_once, lock_region, Arena, KeySampler, LockPhase, LockStep, SpinLock, WorkloadParams,
    GLOBALS_BASE, LOCK_STRIPES,
};
use asap_core::{BurstCtx, BurstStatus, ThreadProgram};
use asap_sim_core::{DetRng, ThreadId};

/// Maximum `(key, ptr)` pairs per node.
pub const FANOUT: u64 = 14;
const NODE_BYTES: u64 = 512;

pub(crate) const HDR_COUNT: u64 = 8;
pub(crate) const HDR_LEAF: u64 = 16;
pub(crate) const HDR_SIBLING: u64 = 24;

pub(crate) const BT_ROOT_PTR: u64 = GLOBALS_BASE + 0x100;
const BT_INIT_FLAG: u64 = GLOBALS_BASE + 0x108;
const MT_ROOT_PTR: u64 = GLOBALS_BASE + 0x118;

pub(crate) fn pair_addr(node: u64, i: u64) -> u64 {
    node + 64 + i * 16
}

/// In-flight multi-burst operation state.
enum Phase {
    Idle,
    /// Waiting on a leaf lock; on entry the critical section runs the
    /// insert.
    Locked {
        key: u64,
        leaf: u64,
        lock: SpinLock,
        phase: LockPhase,
        layer2: bool,
    },
}

/// FAST&FAIR B+-tree workload (also the P-Masstree stand-in).
pub struct FastFair {
    #[allow(dead_code)]
    tid: usize,
    rng: DetRng,
    sampler: KeySampler,
    arena: Arena,
    ops_left: u64,
    params: WorkloadParams,
    layered: bool,
    phase: Phase,
}

impl FastFair {
    /// Plain FAST&FAIR tree.
    pub fn new(thread: usize, params: &WorkloadParams) -> FastFair {
        FastFair {
            tid: thread,
            rng: params.rng_for(thread),
            sampler: params.key_sampler(),
            arena: Arena::for_thread(thread),
            ops_left: params.ops_per_thread,
            params: params.clone(),
            layered: false,
            phase: Phase::Idle,
        }
    }

    /// Masstree-shaped two-layer variant.
    pub fn new_masstree(thread: usize, params: &WorkloadParams) -> FastFair {
        FastFair {
            layered: true,
            ..FastFair::new(thread, params)
        }
    }

    fn setup(ctx: &mut BurstCtx<'_>, arena: &mut Arena) {
        let root = arena.alloc(NODE_BYTES);
        ctx.poke_durable_u64(root + HDR_LEAF, 1);
        ctx.poke_durable_u64(BT_ROOT_PTR, root);
        let mroot = arena.alloc(NODE_BYTES);
        ctx.poke_durable_u64(mroot + HDR_LEAF, 1);
        ctx.poke_durable_u64(MT_ROOT_PTR, mroot);
    }

    /// Walk from `root` to the leaf that should hold `key` (timed loads).
    fn find_leaf(&self, ctx: &mut BurstCtx<'_>, root_ptr: u64, key: u64) -> u64 {
        let mut node = ctx.load_u64(root_ptr);
        loop {
            let is_leaf = ctx.load_u64(node + HDR_LEAF);
            if is_leaf == 1 {
                return node;
            }
            let count = ctx.load_u64(node + HDR_COUNT);
            // Inner node: pairs are (separator key, child).
            let mut child = ctx.load_u64(pair_addr(node, 0) + 8);
            for i in 0..count {
                let k = ctx.load_u64(pair_addr(node, i));
                if key >= k {
                    child = ctx.load_u64(pair_addr(node, i) + 8);
                } else {
                    break;
                }
            }
            node = child;
        }
    }

    /// FAST-style sorted insert into a (locked) leaf. Returns `false`
    /// when the leaf is full and must split first.
    fn insert_into_leaf(&mut self, ctx: &mut BurstCtx<'_>, leaf: u64, key: u64, val: u64) -> bool {
        let count = ctx.load_u64(leaf + HDR_COUNT);
        // In-place update?
        for i in 0..count {
            if ctx.load_u64(pair_addr(leaf, i)) == key {
                ctx.store_u64(pair_addr(leaf, i) + 8, val);
                ctx.ofence();
                return true;
            }
        }
        if count >= FANOUT {
            return false;
        }
        // Shift larger entries right one at a time, fencing each 16-byte
        // move (the FAST&FAIR 8-byte-atomic shift discipline).
        let mut i = count;
        while i > 0 {
            let k = ctx.load_u64(pair_addr(leaf, i - 1));
            if k <= key {
                break;
            }
            let v = ctx.load_u64(pair_addr(leaf, i - 1) + 8);
            ctx.store_u64(pair_addr(leaf, i), k);
            ctx.store_u64(pair_addr(leaf, i) + 8, v);
            ctx.ofence();
            i -= 1;
        }
        ctx.store_u64(pair_addr(leaf, i) + 8, val);
        ctx.ofence();
        ctx.store_u64(pair_addr(leaf, i), key);
        ctx.ofence();
        ctx.store_u64(leaf + HDR_COUNT, count + 1);
        ctx.ofence();
        true
    }

    /// Split a full leaf: move the upper half to a new sibling, link it,
    /// and (simplified) push the separator into the root-level directory.
    /// Runs under the leaf lock plus the tree's structural lock.
    fn split_leaf(&mut self, ctx: &mut BurstCtx<'_>, root_ptr: u64, leaf: u64) {
        let new = self.arena.alloc(NODE_BYTES);
        ctx.store_u64(new + HDR_LEAF, 1);
        let count = ctx.load_u64(leaf + HDR_COUNT);
        let half = count / 2;
        for i in half..count {
            let k = ctx.load_u64(pair_addr(leaf, i));
            let v = ctx.load_u64(pair_addr(leaf, i) + 8);
            ctx.store_u64(pair_addr(new, i - half), k);
            ctx.store_u64(pair_addr(new, i - half) + 8, v);
        }
        ctx.store_u64(new + HDR_COUNT, count - half);
        // Persist sibling before linking (standard split ordering).
        ctx.ofence();
        let old_sib = ctx.load_u64(leaf + HDR_SIBLING);
        ctx.store_u64(new + HDR_SIBLING, old_sib);
        ctx.store_u64(leaf + HDR_SIBLING, new);
        ctx.ofence();
        ctx.store_u64(leaf + HDR_COUNT, half);
        ctx.ofence();
        // Push the separator up. If the root is a leaf, grow a new root.
        let sep = ctx.load_u64(pair_addr(new, 0));
        let root = ctx.load_u64(root_ptr);
        if root == leaf {
            let nr = self.arena.alloc(NODE_BYTES);
            ctx.store_u64(nr + HDR_LEAF, 0);
            ctx.store_u64(pair_addr(nr, 0), 0);
            ctx.store_u64(pair_addr(nr, 0) + 8, leaf);
            ctx.store_u64(pair_addr(nr, 1), sep);
            ctx.store_u64(pair_addr(nr, 1) + 8, new);
            ctx.store_u64(nr + HDR_COUNT, 2);
            ctx.ofence();
            ctx.store_u64(root_ptr, nr);
            ctx.ofence();
        } else {
            // Insert the separator into the root directory node (bounded
            // two-level tree keeps the reproduction simple while
            // preserving the write/fence pattern of real splits).
            let rcount = ctx.load_u64(root + HDR_COUNT);
            if rcount < FANOUT {
                let mut i = rcount;
                while i > 1 {
                    let k = ctx.load_u64(pair_addr(root, i - 1));
                    if k <= sep {
                        break;
                    }
                    let v = ctx.load_u64(pair_addr(root, i - 1) + 8);
                    ctx.store_u64(pair_addr(root, i), k);
                    ctx.store_u64(pair_addr(root, i) + 8, v);
                    ctx.ofence();
                    i -= 1;
                }
                ctx.store_u64(pair_addr(root, i), sep);
                ctx.store_u64(pair_addr(root, i) + 8, new);
                ctx.ofence();
                ctx.store_u64(root + HDR_COUNT, rcount + 1);
                ctx.ofence();
            }
            // A full directory leaves the sibling reachable via the leaf
            // chain — searches still succeed (FAIR's linked leaves).
        }
    }

    fn lookup(&mut self, ctx: &mut BurstCtx<'_>, key: u64) {
        let leaf = self.find_leaf(ctx, BT_ROOT_PTR, key);
        let count = ctx.load_u64(leaf + HDR_COUNT);
        for i in 0..count {
            if ctx.load_u64(pair_addr(leaf, i)) == key {
                ctx.load_u64(pair_addr(leaf, i) + 8);
                break;
            }
        }
    }

    fn start_insert(&mut self, ctx: &mut BurstCtx<'_>, key: u64, layer2: bool) {
        let root_ptr = if layer2 { MT_ROOT_PTR } else { BT_ROOT_PTR };
        let leaf = self.find_leaf(ctx, root_ptr, key);
        // Per-leaf locks live in a striped lock table keyed by the leaf
        // address.
        let lock = SpinLock::striped(lock_region(5), leaf >> 9, LOCK_STRIPES);
        self.phase = Phase::Locked {
            key,
            leaf,
            lock,
            phase: LockPhase::start(),
            layer2,
        };
    }
}

impl ThreadProgram for FastFair {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        init_once(ctx, BT_INIT_FLAG, |c| Self::setup(c, &mut self.arena));

        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => {}
            Phase::Locked {
                key,
                leaf,
                lock,
                mut phase,
                layer2,
            } => {
                match phase.step(lock, ctx, tid, 40) {
                    LockStep::EnterCritical => {
                        let root_ptr = if layer2 { MT_ROOT_PTR } else { BT_ROOT_PTR };
                        // Re-walk under the lock (the leaf may have split).
                        let cur = self.find_leaf(ctx, root_ptr, key);
                        let target = if cur == leaf { leaf } else { cur };
                        let val = key ^ 0xbeef;
                        if !self.insert_into_leaf(ctx, target, key, val) {
                            self.split_leaf(ctx, root_ptr, target);
                            let again = self.find_leaf(ctx, root_ptr, key);
                            let _ = self.insert_into_leaf(ctx, again, key, val);
                        }
                        self.phase = Phase::Locked {
                            key,
                            leaf,
                            lock,
                            phase,
                            layer2,
                        };
                    }
                    LockStep::StillAcquiring => {
                        self.phase = Phase::Locked {
                            key,
                            leaf,
                            lock,
                            phase,
                            layer2,
                        };
                    }
                    LockStep::Released => {
                        if layer2 || !self.layered {
                            ctx.dfence();
                            ctx.op_completed();
                            self.ops_left -= 1;
                        } else {
                            // Masstree: continue into the second layer.
                            let k2 = crate::common::fnv1a(key);
                            self.start_insert(ctx, k2, true);
                        }
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
        if !self.rng.chance(self.params.update_fraction) {
            self.lookup(ctx, key);
            ctx.op_completed();
            self.ops_left -= 1;
            return BurstStatus::Running;
        }
        self.start_insert(ctx, key, false);
        BurstStatus::Running
    }

    fn name(&self) -> &str {
        if self.layered {
            "p-masstree"
        } else {
            "fast_fair"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_core::{Flavor, ModelKind, SimBuilder};
    use asap_sim_core::SimConfig;

    fn run(layered: bool, threads: usize, ops: u64, key_space: u64) -> asap_core::Sim {
        let params = WorkloadParams {
            threads,
            ops_per_thread: ops,
            seed: 11,
            key_space,
            ..Default::default()
        };
        let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
            .map(|t| -> Box<dyn ThreadProgram> {
                if layered {
                    Box::new(FastFair::new_masstree(t, &params))
                } else {
                    Box::new(FastFair::new(t, &params))
                }
            })
            .collect();
        let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(programs)
            .build();
        let out = sim.run_to_completion();
        assert!(out.all_done);
        sim
    }

    #[test]
    fn fastfair_single_thread_completes() {
        let sim = run(false, 1, 50, 200);
        assert_eq!(sim.stats().ops_completed, 50);
    }

    #[test]
    fn fastfair_keys_sorted_in_leaves() {
        let sim = run(false, 1, 60, 500);
        let pm = sim.pm();
        // Walk the leaf chain from the leftmost leaf; keys must ascend.
        let mut node = pm.read_u64(BT_ROOT_PTR);
        while pm.read_u64(node + HDR_LEAF) == 0 {
            node = pm.read_u64(pair_addr(node, 0) + 8);
        }
        let mut last = 0;
        let mut seen = 0;
        while node != 0 {
            let count = pm.read_u64(node + HDR_COUNT);
            for i in 0..count {
                let k = pm.read_u64(pair_addr(node, i));
                assert!(k >= last, "leaf keys out of order: {k} after {last}");
                last = k;
                seen += 1;
            }
            node = pm.read_u64(node + HDR_SIBLING);
        }
        assert!(seen > 10, "tree too small: {seen}");
    }

    #[test]
    fn fastfair_multithreaded() {
        let sim = run(false, 4, 25, 400);
        assert_eq!(sim.stats().ops_completed, 100);
        assert!(sim.stats().epochs_created > 100, "FAST&FAIR is fence-heavy");
    }

    #[test]
    fn masstree_double_layer_writes_more() {
        let ff = run(false, 2, 20, 300);
        let mt = run(true, 2, 20, 300);
        assert!(
            mt.stats().stores > ff.stats().stores,
            "two layers must write more (mt={} ff={})",
            mt.stats().stores,
            ff.stats().stores
        );
    }
}
