//! The micro-op interface between workloads and the timing simulator.
//!
//! ## Functional + timing co-simulation
//!
//! Workloads are ordinary Rust code (hash tables, B+-trees, …) running
//! against the functional [`PmSpace`]. When the timing simulator is ready
//! for more work from a thread, it calls
//! [`ThreadProgram::next_burst`] with a [`BurstCtx`]. The program performs
//! one *logical step* (e.g. "insert key 17", or "one attempt to grab a
//! lock") through the context's accessors; each accessor both applies the
//! functional effect **immediately** and emits a timed [`MemOp`] that the
//! simulator then plays out cycle by cycle.
//!
//! Because burst generation happens exactly when the previous burst
//! finished executing, cross-thread interleaving (lock hand-offs, CAS
//! winners) is decided by *simulated time*, which is what makes the
//! cross-thread dependency rates of Figure 2 come out of the timing model
//! rather than being baked into traces.
//!
//! ## Synchronization
//!
//! Locks and CAS resolve functionally at generation instants, which the
//! single-threaded simulator serializes; a failed [`BurstCtx::cas_u64`]
//! should make the program emit a small spin/backoff burst and retry on
//! the next call.

use asap_pm_mem::{LineSnapshot, PmSpace, SnapshotPool, WriteJournal, WriteSeq};
use asap_sim_core::{Cycle, LineAddr, ThreadId};

/// One timed micro-operation produced by a workload burst.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemOp {
    /// A load from persistent memory.
    Load {
        /// Byte address accessed.
        addr: u64,
    },
    /// A store to persistent memory. The functional effect already
    /// happened at generation; the carried snapshot is the line's
    /// contents right after the store, and `seq` its journal sequence.
    Store {
        /// Byte address written.
        addr: u64,
        /// Journal sequence of this store.
        seq: WriteSeq,
        /// Whole-line contents after the store.
        data: Box<LineSnapshot>,
    },
    /// An explicit line flush hint (`clwb`-style). Persist-buffer
    /// designs flush eagerly on their own, so the hint carries no
    /// ordering semantics in the timing model — it exists so flush-based
    /// code (the `clwb` + `sfence` idiom) can be expressed in the IR and
    /// statically checked by `asap-analysis`'s `persist_lint` pass.
    Flush {
        /// Byte address whose cache line the hint covers.
        addr: u64,
    },
    /// An `ofence`: a two-sided persist barrier separating epochs
    /// (paper §IV-A).
    OFence,
    /// A `dfence`: stalls the thread until all its earlier writes are
    /// durable (paper §IV-A).
    DFence,
    /// An acquire operation on a synchronization variable (release
    /// persistency); functionally a load.
    Acquire {
        /// Byte address of the synchronization variable.
        addr: u64,
        /// The store whose value this acquire observed at generation
        /// time. The simulator delays the acquire's execution until that
        /// store has executed, closing the generation/execution skew that
        /// would otherwise miss synchronizes-with edges between
        /// back-to-back atomics.
        reads_from: Option<WriteSeq>,
    },
    /// A release operation on a synchronization variable (release
    /// persistency); functionally a store, with the same payload as
    /// [`MemOp::Store`].
    Release {
        /// Byte address of the synchronization variable.
        addr: u64,
        /// Journal sequence of the releasing store.
        seq: WriteSeq,
        /// Whole-line contents after the store.
        data: Box<LineSnapshot>,
    },
    /// Pure computation for the given number of cycles.
    Compute {
        /// Cycles of computation.
        cycles: u64,
    },
    /// Client idle time: the thread deliberately does nothing for the
    /// given number of cycles. Unlike [`MemOp::Compute`], idle time is
    /// *not* scaled by `compute_scale` — it models wall-clock waiting
    /// (an open-loop driver sleeping until the next request's arrival
    /// instant), not CPU work.
    Idle {
        /// Cycles to remain idle.
        cycles: u64,
    },
}

impl MemOp {
    /// The cache line this op touches, if it is a memory op.
    pub fn line(&self) -> Option<LineAddr> {
        match self {
            MemOp::Load { addr }
            | MemOp::Store { addr, .. }
            | MemOp::Flush { addr }
            | MemOp::Acquire { addr, .. }
            | MemOp::Release { addr, .. } => Some(LineAddr::containing(*addr)),
            _ => None,
        }
    }

    /// Whether this op writes persistent memory.
    pub fn is_store(&self) -> bool {
        matches!(self, MemOp::Store { .. } | MemOp::Release { .. })
    }
}

/// What a program reports after generating a burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstStatus {
    /// More work follows; call `next_burst` again when this burst is
    /// executed.
    Running,
    /// The program is finished; the simulator drains outstanding persists
    /// and retires the thread.
    Finished,
}

/// The generation-side context handed to [`ThreadProgram::next_burst`].
///
/// All accessors apply functional effects immediately and append a timed
/// op to the burst.
#[derive(Debug)]
pub struct BurstCtx<'a> {
    pm: &'a mut PmSpace,
    journal: &'a mut WriteJournal,
    /// Recycled snapshot boxes for store payloads (the engine passes its
    /// pool; standalone contexts allocate fresh).
    pool: Option<&'a mut SnapshotPool>,
    ops: Vec<MemOp>,
    ops_completed: u64,
    preinit_lines: Vec<LineAddr>,
    /// Simulated time at which this burst is being generated (== the
    /// instant the thread's previous burst finished executing). Standalone
    /// contexts default to zero; the engine stamps the real clock.
    now: Cycle,
}

impl<'a> BurstCtx<'a> {
    /// Create a context over the functional image and journal. Used by the
    /// simulator; workloads only consume it.
    pub fn new(pm: &'a mut PmSpace, journal: &'a mut WriteJournal) -> BurstCtx<'a> {
        BurstCtx {
            pm,
            journal,
            pool: None,
            ops: Vec::new(),
            ops_completed: 0,
            preinit_lines: Vec::new(),
            now: Cycle::ZERO,
        }
    }

    /// Like [`BurstCtx::new`], with store payload boxes drawn from (and
    /// eventually recycled to) `pool`, and reusing caller-owned op and
    /// preinit buffers (cleared here). The engine round-trips its
    /// scratch buffers through every burst so steady-state burst
    /// generation allocates nothing; [`BurstCtx::into_parts`] hands the
    /// (possibly re-grown) buffers back.
    pub fn with_buffers(
        pm: &'a mut PmSpace,
        journal: &'a mut WriteJournal,
        pool: &'a mut SnapshotPool,
        mut ops: Vec<MemOp>,
        mut preinit_lines: Vec<LineAddr>,
    ) -> BurstCtx<'a> {
        ops.clear();
        preinit_lines.clear();
        BurstCtx {
            pm,
            journal,
            pool: Some(pool),
            ops,
            ops_completed: 0,
            preinit_lines,
            now: Cycle::ZERO,
        }
    }

    /// Stamp the simulated time this burst is generated at (engine only;
    /// standalone contexts keep zero).
    pub fn set_now(&mut self, now: Cycle) {
        self.now = now;
    }

    /// The simulated time at which this burst is being generated — the
    /// instant the thread's previous burst finished executing. Open-loop
    /// drivers read this to compare the clock against request arrival
    /// instants and to timestamp completions.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Functional read + timed load.
    pub fn load_u64(&mut self, addr: u64) -> u64 {
        self.ops.push(MemOp::Load { addr });
        self.pm.read_u64(addr)
    }

    fn journal_store(&mut self, addr: u64) -> (WriteSeq, Box<LineSnapshot>) {
        let line = LineAddr::containing(addr);
        let snap = self.pm.snapshot_line(line);
        let seq = self.journal.record(line, snap);
        let data = match self.pool.as_mut() {
            Some(p) => p.take(snap),
            None => Box::new(snap),
        };
        (seq, data)
    }

    /// Functional write + timed store.
    pub fn store_u64(&mut self, addr: u64, v: u64) {
        self.pm.write_u64(addr, v);
        let (seq, data) = self.journal_store(addr);
        self.ops.push(MemOp::Store { addr, seq, data });
    }

    /// Atomic compare-and-swap, resolved functionally *now* (generation
    /// instants are serialized).
    ///
    /// Atomic RMWs have acquire-release semantics (they are the
    /// synchronization primitive of lock-free structures like CCEH):
    /// a successful CAS emits an acquire (synchronizing with the previous
    /// atomic write to the address) followed by a release-store
    /// (publishing for the next one). Under release persistency this is
    /// what keeps strong persist atomicity intact for CAS-racing code —
    /// and it is why the paper's Figure 2 shows the lock-free structures
    /// with high cross-thread dependency counts. A failed CAS emits an
    /// acquire-load only.
    pub fn cas_u64(&mut self, addr: u64, expected: u64, new: u64) -> bool {
        let cur = self.pm.read_u64(addr);
        let reads_from = self.journal.last_store(LineAddr::containing(addr));
        if cur == expected {
            self.ops.push(MemOp::Acquire { addr, reads_from });
            self.pm.write_u64(addr, new);
            let (seq, data) = self.journal_store(addr);
            self.ops.push(MemOp::Release { addr, seq, data });
            true
        } else {
            self.ops.push(MemOp::Acquire { addr, reads_from });
            false
        }
    }

    /// Acquire-load of a synchronization variable (emits
    /// [`MemOp::Acquire`]).
    pub fn acquire_load(&mut self, addr: u64) -> u64 {
        let reads_from = self.journal.last_store(LineAddr::containing(addr));
        self.ops.push(MemOp::Acquire { addr, reads_from });
        self.pm.read_u64(addr)
    }

    /// Acquire-CAS on a synchronization variable: functional CAS now; on
    /// success emits an acquire (the lock-grab — this is the event that
    /// synchronizes with the previous release) followed by the store of
    /// the lock word. A *failed* CAS observed the holder's plain lock
    /// store, not a release, so it emits an ordinary load and creates no
    /// persist dependency (release persistency's synchronizes-with is
    /// acquire-of-a-released-value only).
    pub fn acquire_cas(&mut self, addr: u64, expected: u64, new: u64) -> bool {
        let cur = self.pm.read_u64(addr);
        if cur == expected {
            let reads_from = self.journal.last_store(LineAddr::containing(addr));
            self.ops.push(MemOp::Acquire { addr, reads_from });
            self.pm.write_u64(addr, new);
            let (seq, data) = self.journal_store(addr);
            self.ops.push(MemOp::Store { addr, seq, data });
            true
        } else {
            self.ops.push(MemOp::Load { addr });
            false
        }
    }

    /// Release-store of a synchronization variable (emits
    /// [`MemOp::Release`]).
    pub fn release_store(&mut self, addr: u64, v: u64) {
        self.pm.write_u64(addr, v);
        let (seq, data) = self.journal_store(addr);
        self.ops.push(MemOp::Release { addr, seq, data });
    }

    /// Emit an explicit flush hint for the line containing `addr` (see
    /// [`MemOp::Flush`]).
    pub fn flush(&mut self, addr: u64) {
        self.ops.push(MemOp::Flush { addr });
    }

    /// Emit a two-sided persist barrier.
    pub fn ofence(&mut self) {
        self.ops.push(MemOp::OFence);
    }

    /// Emit a durability fence.
    pub fn dfence(&mut self) {
        self.ops.push(MemOp::DFence);
    }

    /// Emit pure computation.
    pub fn compute(&mut self, cycles: u64) {
        if cycles > 0 {
            self.ops.push(MemOp::Compute { cycles });
        }
    }

    /// Emit deliberate idle time (unscaled; see [`MemOp::Idle`]). An
    /// open-loop driver uses this to sleep exactly until the next
    /// arrival instant rather than spinning on the engine's retry
    /// backoff.
    pub fn idle(&mut self, cycles: u64) {
        if cycles > 0 {
            self.ops.push(MemOp::Idle { cycles });
        }
    }

    /// Mark one logical workload operation (insert/lookup/…) completed;
    /// feeds throughput statistics.
    pub fn op_completed(&mut self) {
        self.ops_completed += 1;
    }

    /// Peek at the functional image (reads with no timing cost; for
    /// program-internal bookkeeping that would not touch PM on real
    /// hardware, e.g. consulting a DRAM-resident index).
    pub fn peek_u64(&self, addr: u64) -> u64 {
        self.pm.read_u64(addr)
    }

    /// Untimed functional write (DRAM-resident bookkeeping).
    pub fn poke_u64(&mut self, addr: u64, v: u64) {
        self.pm.write_u64(addr, v);
    }

    /// Untimed *durable* write: initial pool contents written during
    /// structure setup, before the measured region (gem5's warmup
    /// analogue). The touched lines are applied to the NVM image as
    /// pre-initialized state so post-crash recovery can see the
    /// structure skeleton.
    pub fn poke_durable_u64(&mut self, addr: u64, v: u64) {
        self.pm.write_u64(addr, v);
        let line = LineAddr::containing(addr);
        if !self.preinit_lines.contains(&line) {
            self.preinit_lines.push(line);
        }
    }

    /// Consume the context, returning the emitted ops, the number of
    /// completed logical operations, and the lines pre-initialized via
    /// [`BurstCtx::poke_durable_u64`].
    pub fn into_parts(self) -> (Vec<MemOp>, u64, Vec<LineAddr>) {
        (self.ops, self.ops_completed, self.preinit_lines)
    }

    /// Ops emitted so far (diagnostics).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

/// A workload thread: generates bursts of micro-ops on demand.
///
/// Implementations live in the `asap-workloads` crate; see the crate-level
/// docs for the contract.
pub trait ThreadProgram {
    /// Generate the next burst through `ctx`. Returning
    /// [`BurstStatus::Finished`] without emitting ops retires the thread.
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus;

    /// Human-readable program name for reports.
    fn name(&self) -> &str {
        "anonymous"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_fixture() -> (PmSpace, WriteJournal) {
        (PmSpace::new(), WriteJournal::enabled())
    }

    #[test]
    fn store_applies_functionally_and_journals() {
        let (mut pm, mut j) = ctx_fixture();
        let mut ctx = BurstCtx::new(&mut pm, &mut j);
        ctx.store_u64(0x100, 42);
        let (ops, _, _) = ctx.into_parts();
        assert_eq!(ops.len(), 1);
        assert!(ops[0].is_store());
        assert_eq!(pm.read_u64(0x100), 42);
        assert_eq!(j.entries().len(), 1);
        // The journal snapshot includes the new value.
        let e = &j.entries()[0];
        assert_eq!(u64::from_le_bytes(e.data[0..8].try_into().unwrap()), 42);
    }

    #[test]
    fn load_reads_functional_state() {
        let (mut pm, mut j) = ctx_fixture();
        pm.write_u64(0x200, 7);
        let mut ctx = BurstCtx::new(&mut pm, &mut j);
        assert_eq!(ctx.load_u64(0x200), 7);
        let (ops, _, _) = ctx.into_parts();
        assert_eq!(ops, vec![MemOp::Load { addr: 0x200 }]);
    }

    #[test]
    fn cas_success_and_failure() {
        let (mut pm, mut j) = ctx_fixture();
        let mut ctx = BurstCtx::new(&mut pm, &mut j);
        assert!(ctx.cas_u64(0x300, 0, 5));
        assert!(!ctx.cas_u64(0x300, 0, 9));
        let (ops, _, _) = ctx.into_parts();
        assert_eq!(pm.read_u64(0x300), 5);
        // one release-store (success); the failure journals nothing
        assert_eq!(j.entries().len(), 1);
        assert!(matches!(ops[0], MemOp::Acquire { .. }));
        assert!(matches!(ops[1], MemOp::Release { .. }));
        assert!(matches!(ops[2], MemOp::Acquire { .. }));
    }

    #[test]
    fn acquire_release_emit_right_ops() {
        let (mut pm, mut j) = ctx_fixture();
        let mut ctx = BurstCtx::new(&mut pm, &mut j);
        assert!(ctx.acquire_cas(0x400, 0, 1));
        ctx.release_store(0x400, 0);
        let (ops, _, _) = ctx.into_parts();
        assert!(matches!(ops[0], MemOp::Acquire { addr: 0x400, .. }));
        assert!(matches!(ops[1], MemOp::Store { addr: 0x400, .. }));
        assert!(matches!(ops[2], MemOp::Release { addr: 0x400, .. }));
        assert_eq!(pm.read_u64(0x400), 0);
    }

    #[test]
    fn acquire_cas_failure_emits_plain_load() {
        let (mut pm, mut j) = ctx_fixture();
        pm.write_u64(0x410, 1); // lock already held
        let mut ctx = BurstCtx::new(&mut pm, &mut j);
        assert!(!ctx.acquire_cas(0x410, 0, 1));
        let (ops, _, _) = ctx.into_parts();
        assert_eq!(ops.len(), 1);
        // A failed CAS observed the holder's plain store, not a release:
        // no synchronizes-with edge, hence an ordinary load.
        assert!(matches!(ops[0], MemOp::Load { .. }));
    }

    #[test]
    fn fences_compute_and_ops_counter() {
        let (mut pm, mut j) = ctx_fixture();
        let mut ctx = BurstCtx::new(&mut pm, &mut j);
        ctx.ofence();
        ctx.dfence();
        ctx.compute(10);
        ctx.compute(0); // dropped
        ctx.op_completed();
        ctx.op_completed();
        let (ops, done, _) = ctx.into_parts();
        assert_eq!(
            ops,
            vec![MemOp::OFence, MemOp::DFence, MemOp::Compute { cycles: 10 }]
        );
        assert_eq!(done, 2);
    }

    #[test]
    fn peek_poke_have_no_timing() {
        let (mut pm, mut j) = ctx_fixture();
        let mut ctx = BurstCtx::new(&mut pm, &mut j);
        ctx.poke_u64(0x500, 9);
        assert_eq!(ctx.peek_u64(0x500), 9);
        let (ops, _, _) = ctx.into_parts();
        assert!(ops.is_empty());
        assert_eq!(j.entries().len(), 0);
    }

    #[test]
    fn flush_is_a_pure_hint() {
        let (mut pm, mut j) = ctx_fixture();
        let mut ctx = BurstCtx::new(&mut pm, &mut j);
        ctx.store_u64(0x600, 1);
        ctx.flush(0x600);
        let (ops, _, _) = ctx.into_parts();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1], MemOp::Flush { addr: 0x600 });
        assert!(!ops[1].is_store());
        assert_eq!(ops[1].line(), Some(LineAddr::containing(0x600)));
        // No functional effect and no journal entry beyond the store's.
        assert_eq!(j.entries().len(), 1);
    }

    #[test]
    fn idle_emits_unscaled_wait_op() {
        let (mut pm, mut j) = ctx_fixture();
        let mut ctx = BurstCtx::new(&mut pm, &mut j);
        ctx.idle(640);
        ctx.idle(0); // dropped, like compute(0)
        let (ops, _, _) = ctx.into_parts();
        assert_eq!(ops, vec![MemOp::Idle { cycles: 640 }]);
        assert_eq!(ops[0].line(), None);
        assert!(!ops[0].is_store());
    }

    #[test]
    fn ctx_now_defaults_to_zero_and_is_stampable() {
        let (mut pm, mut j) = ctx_fixture();
        let mut ctx = BurstCtx::new(&mut pm, &mut j);
        assert_eq!(ctx.now(), Cycle::ZERO);
        ctx.set_now(Cycle(1234));
        assert_eq!(ctx.now(), Cycle(1234));
    }

    #[test]
    fn memop_line_helper() {
        assert_eq!(
            MemOp::Load { addr: 0x1234 }.line(),
            Some(LineAddr::containing(0x1234))
        );
        assert_eq!(MemOp::OFence.line(), None);
        assert_eq!(MemOp::Compute { cycles: 3 }.line(), None);
    }
}
