//! Shared workload plumbing: the PM address-space layout, per-thread
//! arenas, spin locks, and the parameter block.

use asap_core::BurstCtx;
use asap_pm_mem::PmAllocator;
use asap_sim_core::{DetRng, ThreadId};

/// Base of the globals region (locks, root pointers, init flags).
pub const GLOBALS_BASE: u64 = 0x1000;

/// Base of structure-static regions (bucket arrays, directories).
pub const STATIC_BASE: u64 = 0x4000_0000;

/// Base of the per-thread allocation arenas.
pub const ARENA_BASE: u64 = 0x1_0000_0000;

/// Size of each per-thread arena (64 MiB).
pub const ARENA_SIZE: u64 = 64 * 1024 * 1024;

/// Tunable parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct WorkloadParams {
    /// Number of worker threads (== cores simulated).
    pub threads: usize,
    /// Logical operations each thread performs.
    pub ops_per_thread: u64,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Value payload size in bytes (paper: 16–128 B).
    pub value_bytes: usize,
    /// Fraction of operations that are updates (paper configures
    /// update-intensive workloads).
    pub update_fraction: f64,
    /// Key-space size each thread draws keys from.
    pub key_space: u64,
    /// Volatile application compute per logical operation, in cycles
    /// (request parsing, memory management, hashing — work that real
    /// applications do between persistent operations).
    pub think_cycles: u64,
    /// Optional Zipfian skew for key selection (`None` = uniform).
    /// Typical YCSB-style skew is `Some(0.99)`; higher values
    /// concentrate traffic on fewer keys and raise cross-thread
    /// contention.
    pub zipf_theta: Option<f64>,
}

impl Default for WorkloadParams {
    fn default() -> WorkloadParams {
        WorkloadParams {
            threads: 4,
            ops_per_thread: 200,
            seed: 42,
            value_bytes: 64,
            update_fraction: 0.9,
            // Update-intensive regime: a working set small enough that
            // concurrent threads actually collide on hot lines (the
            // paper configures all workloads update-intensive; a huge
            // uniform key space would hide the cross-thread dependencies
            // its Figure 2 shows for the concurrent structures).
            key_space: 4096,
            think_cycles: 400,
            zipf_theta: None,
        }
    }
}

impl WorkloadParams {
    /// Deterministic per-thread RNG.
    pub fn rng_for(&self, thread: usize) -> DetRng {
        DetRng::seed(self.seed).split(thread as u64 + 1)
    }

    /// Build the key sampler implied by these parameters.
    pub fn key_sampler(&self) -> KeySampler {
        match self.zipf_theta {
            Some(theta) => KeySampler::zipf(self.key_space, theta),
            None => KeySampler::uniform(self.key_space),
        }
    }
}

/// Key-distribution sampler: uniform or Zipfian (Gray et al.'s
/// incremental approximation, the one YCSB uses).
#[derive(Debug, Clone)]
pub enum KeySampler {
    /// Uniform over `[1, n]`.
    Uniform {
        /// Key-space size.
        n: u64,
    },
    /// Zipfian over `[1, n]` with parameter `theta`.
    Zipf {
        /// Key-space size.
        n: u64,
        /// Skew parameter in `(0, 1)` (0.99 = YCSB default); exactly 0
        /// degrades to the [`KeySampler::Uniform`] variant instead.
        theta: f64,
        /// Precomputed normalization constant.
        zetan: f64,
        /// Precomputed `eta`.
        eta: f64,
        /// Precomputed `alpha`.
        alpha: f64,
    },
}

impl KeySampler {
    /// A uniform sampler over `[1, n]`.
    pub fn uniform(n: u64) -> KeySampler {
        KeySampler::Uniform { n: n.max(1) }
    }

    /// A Zipfian sampler over `[1, n]`.
    ///
    /// `theta == 0` is exactly uniform and returns the
    /// [`KeySampler::Uniform`] variant, so skew sweeps can run all the
    /// way down to no skew.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not in `[0, 1)`.
    pub fn zipf(n: u64, theta: f64) -> KeySampler {
        assert!(
            (0.0..1.0).contains(&theta),
            "zipf theta must be in [0,1), got {theta}"
        );
        if theta == 0.0 {
            return KeySampler::uniform(n);
        }
        let n = n.max(1);
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2: f64 = (1..=2.min(n)).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let alpha = 1.0 / (1.0 - theta);
        // For n <= 2 the denominator `1 - zeta2/zetan` is exactly zero
        // (zeta2 == zetan), which used to store a NaN/∞ eta. Sampling
        // never consults eta for n <= 2 — the two head-probability
        // branches cover the whole key space — so any finite value is
        // correct; use 0.
        let eta = if n <= 2 {
            0.0
        } else {
            (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan)
        };
        KeySampler::Zipf {
            n,
            theta,
            zetan,
            eta,
            alpha,
        }
    }

    /// Draw a key in `[1, n]`.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        match *self {
            KeySampler::Uniform { n } => rng.below(n) + 1,
            KeySampler::Zipf {
                n,
                theta,
                zetan,
                eta,
                alpha,
            } => {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let uz = u * zetan;
                if uz < 1.0 {
                    return 1;
                }
                if uz < 1.0 + 0.5f64.powf(theta) {
                    return 2;
                }
                let k = 1.0 + (n as f64) * (eta * u - eta + 1.0).powf(alpha);
                (k as u64).clamp(1, n)
            }
        }
    }
}

/// A per-thread persistent-memory arena.
///
/// Threads allocate from disjoint regions so allocation itself needs no
/// synchronization (mirroring per-thread allocator classes in PMDK).
#[derive(Debug, Clone)]
pub struct Arena {
    alloc: PmAllocator,
}

impl Arena {
    /// The arena of `thread`.
    pub fn for_thread(thread: usize) -> Arena {
        Arena {
            alloc: PmAllocator::new(ARENA_BASE + thread as u64 * ARENA_SIZE, ARENA_SIZE),
        }
    }

    /// Allocate `size` bytes of persistent memory.
    ///
    /// # Panics
    ///
    /// Panics when the arena is exhausted (workloads are sized well under
    /// the 64 MiB arenas; exhaustion indicates a leak).
    pub fn alloc(&mut self, size: u64) -> u64 {
        self.alloc.alloc(size).expect("arena exhausted")
    }

    /// Return a block for reuse.
    pub fn free(&mut self, addr: u64, size: u64) {
        self.alloc.free(addr, size);
    }
}

/// A fair ticket spin lock over a two-line PM cell, used with
/// acquire/release annotations (§V: "We use acquire/release annotations
/// in our programs").
///
/// Layout: `addr` = next-ticket word (taken by atomic fetch-add),
/// `addr + 64` = now-serving word. The two words live on *separate
/// lines* so the release-store edge on the serving line is never
/// clobbered (at line granularity, where synchronization is tracked) by
/// other waiters' ticket grabs. FIFO hand-off also removes the
/// spin-convoy noise a test-and-set lock injects into model comparisons.
pub const LOCK_CELL_BYTES: u64 = 128;

/// A fair ticket spin lock over a two-line (`LOCK_CELL_BYTES`) PM cell.
#[derive(Debug, Clone, Copy)]
pub struct SpinLock {
    addr: u64,
}

impl SpinLock {
    /// A lock cell at `addr` (must be zero-initialized = unlocked, and
    /// own the full 128-byte cell).
    pub fn at(addr: u64) -> SpinLock {
        SpinLock { addr }
    }

    /// A striped lock from a per-structure lock table: `region` holds
    /// `stripes` cells of [`LOCK_CELL_BYTES`].
    pub fn striped(region: u64, key: u64, stripes: u64) -> SpinLock {
        SpinLock {
            addr: region + (key % stripes) * LOCK_CELL_BYTES,
        }
    }

    /// The lock cell's base address.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Take a ticket (atomic fetch-add on the ticket word).
    pub fn take_ticket(&self, ctx: &mut BurstCtx<'_>) -> u64 {
        let t = ctx.peek_u64(self.addr);
        let won = ctx.cas_u64(self.addr, t, t + 1);
        debug_assert!(won, "generation instants are serialized");
        t
    }

    /// Whether `ticket` is now being served. Spin probes are plain loads
    /// (a not-yet-served value establishes no happens-before); only the
    /// successful observation performs the synchronizing acquire-load,
    /// so each hand-off creates exactly one acquire→release edge.
    pub fn is_serving(&self, ctx: &mut BurstCtx<'_>, ticket: u64) -> bool {
        if ctx.load_u64(self.addr + 64) == ticket {
            let _ = ctx.acquire_load(self.addr + 64);
            true
        } else {
            false
        }
    }

    /// Release the lock, serving the next ticket (annotated
    /// release-store).
    pub fn release(&self, ctx: &mut BurstCtx<'_>, ticket: u64) {
        ctx.release_store(self.addr + 64, ticket + 1);
    }
}

/// Base of the striped lock tables (one region per structure; 4096 cells
/// each).
pub(crate) fn lock_region(id: u8) -> u64 {
    STATIC_BASE + 0x2000_0000 + id as u64 * 0x0010_0000
}

/// Stripes per lock table.
pub(crate) const LOCK_STRIPES: u64 = 4096;

/// Lock-protocol driver shared by the lock-based workloads: the ticket
/// grab and critical section share a burst once the lock is served (the
/// acquire's dependency split lands before the critical stores execute);
/// the release occupies its *own* burst so the functional unlock becomes
/// visible to other threads only after the critical section executed in
/// simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockPhase {
    /// Attempting to take the lock (ticket held once `Some`).
    Acquiring(Option<u64>),
    /// Critical section emitted; release next burst (carries the ticket).
    Releasing(u64),
}

impl LockPhase {
    /// A fresh protocol instance (no ticket taken yet).
    pub fn start() -> LockPhase {
        LockPhase::Acquiring(None)
    }
}

/// Outcome of one [`LockPhase::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockStep {
    /// Lock not obtained; a backoff was emitted — call again next burst.
    StillAcquiring,
    /// Lock obtained in this burst: emit the critical section *now* (the
    /// phase has already advanced to the releasing state).
    EnterCritical,
    /// The release store was emitted; the operation is finished.
    Released,
}

impl LockPhase {
    /// Drive one burst of the protocol.
    pub fn step(
        &mut self,
        lock: SpinLock,
        ctx: &mut BurstCtx<'_>,
        _tid: ThreadId,
        backoff: u64,
    ) -> LockStep {
        match *self {
            LockPhase::Acquiring(ticket) => {
                let ticket = ticket.unwrap_or_else(|| lock.take_ticket(ctx));
                if lock.is_serving(ctx, ticket) {
                    *self = LockPhase::Releasing(ticket);
                    LockStep::EnterCritical
                } else {
                    *self = LockPhase::Acquiring(Some(ticket));
                    ctx.compute(backoff);
                    LockStep::StillAcquiring
                }
            }
            LockPhase::Releasing(ticket) => {
                lock.release(ctx, ticket);
                *self = LockPhase::Acquiring(None);
                LockStep::Released
            }
        }
    }
}

/// Initialization guard: the first thread to run claims the init flag
/// (untimed — setup is not part of the measured region, like gem5's warmup
/// phase) and performs setup; all threads call this, only one runs `f`.
pub fn init_once<F: FnOnce(&mut BurstCtx<'_>)>(ctx: &mut BurstCtx<'_>, flag_addr: u64, f: F) {
    if ctx.peek_u64(flag_addr) == 0 {
        ctx.poke_u64(flag_addr, 1);
        f(ctx);
    }
}

/// FNV-1a hash for key placement (cheap and deterministic).
pub fn fnv1a(key: u64) -> u64 {
    asap_sim_core::fnv1a_fold(asap_sim_core::FNV_OFFSET, &key.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_pm_mem::{PmSpace, WriteJournal};

    #[test]
    fn arenas_are_disjoint() {
        let mut a0 = Arena::for_thread(0);
        let mut a1 = Arena::for_thread(1);
        let x = a0.alloc(128);
        let y = a1.alloc(128);
        assert!(x < ARENA_BASE + ARENA_SIZE);
        assert!(y >= ARENA_BASE + ARENA_SIZE);
    }

    #[test]
    fn spinlock_tickets_are_fifo() {
        let mut pm = PmSpace::new();
        let mut j = WriteJournal::disabled();
        let mut ctx = BurstCtx::new(&mut pm, &mut j);
        let lock = SpinLock::at(GLOBALS_BASE);
        let t0 = lock.take_ticket(&mut ctx);
        let t1 = lock.take_ticket(&mut ctx);
        assert_eq!((t0, t1), (0, 1));
        assert!(lock.is_serving(&mut ctx, t0));
        assert!(!lock.is_serving(&mut ctx, t1));
        lock.release(&mut ctx, t0);
        assert!(lock.is_serving(&mut ctx, t1));
    }

    #[test]
    fn lock_phase_protocol() {
        let mut pm = PmSpace::new();
        let mut j = WriteJournal::disabled();
        let mut ctx = BurstCtx::new(&mut pm, &mut j);
        let lock = SpinLock::at(GLOBALS_BASE + 64);
        let mut phase = LockPhase::start();
        assert_eq!(
            phase.step(lock, &mut ctx, ThreadId(0), 10),
            LockStep::EnterCritical
        );
        // A competitor queues behind us while we hold it.
        let mut other = LockPhase::start();
        assert_eq!(
            other.step(lock, &mut ctx, ThreadId(1), 10),
            LockStep::StillAcquiring
        );
        assert_eq!(
            phase.step(lock, &mut ctx, ThreadId(0), 10),
            LockStep::Released
        );
        assert_eq!(phase, LockPhase::start());
        // FIFO: the queued competitor is served next.
        assert_eq!(
            other.step(lock, &mut ctx, ThreadId(1), 10),
            LockStep::EnterCritical
        );
    }

    #[test]
    fn init_once_runs_once() {
        let mut pm = PmSpace::new();
        let mut j = WriteJournal::disabled();
        let mut ctx = BurstCtx::new(&mut pm, &mut j);
        let mut runs = 0;
        init_once(&mut ctx, GLOBALS_BASE + 128, |_| runs += 1);
        init_once(&mut ctx, GLOBALS_BASE + 128, |_| runs += 1);
        assert_eq!(runs, 1);
    }

    #[test]
    fn fnv_spreads_keys() {
        let a = fnv1a(1);
        let b = fnv1a(2);
        assert_ne!(a, b);
        assert_ne!(a & 0xff, 0); // not degenerate
    }

    #[test]
    fn zipf_sampler_skews_toward_small_keys() {
        let mut rng = DetRng::seed(9);
        let s = KeySampler::zipf(1000, 0.99);
        let mut head = 0u64;
        let draws = 20_000;
        for _ in 0..draws {
            let k = s.sample(&mut rng);
            assert!((1..=1000).contains(&k));
            if k <= 10 {
                head += 1;
            }
        }
        // Under uniform, keys 1..=10 get ~1%; Zipf(0.99) gives them far
        // more.
        assert!(
            head as f64 / draws as f64 > 0.2,
            "zipf not skewed: {head}/{draws}"
        );
    }

    #[test]
    fn uniform_sampler_covers_space() {
        let mut rng = DetRng::seed(9);
        let s = KeySampler::uniform(8);
        let mut seen = [false; 9];
        for _ in 0..500 {
            seen[s.sample(&mut rng) as usize] = true;
        }
        assert!(seen[1..=8].iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn zipf_rejects_bad_theta() {
        KeySampler::zipf(10, 1.5);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn zipf_rejects_negative_theta() {
        KeySampler::zipf(10, -0.1);
    }

    #[test]
    fn zipf_theta_zero_degrades_to_uniform() {
        // Regression: the doc promised "0 = uniform" but the constructor
        // asserted theta > 0. theta == 0 *is* uniform; return that.
        let s = KeySampler::zipf(8, 0.0);
        assert!(matches!(s, KeySampler::Uniform { n: 8 }));
        let mut rng = DetRng::seed(3);
        let mut seen = [false; 9];
        for _ in 0..500 {
            seen[s.sample(&mut rng) as usize] = true;
        }
        assert!(seen[1..=8].iter().all(|&b| b));
    }

    #[test]
    fn zipf_tiny_key_spaces_have_finite_eta() {
        // Regression: for n == 1 (and n == 2) `zeta2 == zetan`, so the
        // eta denominator `1 - zeta2/zetan` was exactly 0 and eta was
        // stored as NaN/∞. Sampling happened not to consult eta for
        // n <= 2, but the poisoned constant leaked from the public field.
        for n in [1u64, 2, 3] {
            let s = KeySampler::zipf(n, 0.99);
            match s {
                KeySampler::Zipf { eta, zetan, .. } => {
                    assert!(eta.is_finite(), "n={n}: eta={eta}");
                    assert!(zetan.is_finite() && zetan > 0.0, "n={n}: zetan={zetan}");
                }
                KeySampler::Uniform { .. } => panic!("n={n}: expected Zipf variant"),
            }
            let mut rng = DetRng::seed(7);
            for _ in 0..200 {
                let k = s.sample(&mut rng);
                assert!((1..=n).contains(&k), "n={n}: sampled {k}");
            }
        }
        // n == 1 must always answer the only key.
        let one = KeySampler::zipf(1, 0.5);
        let mut rng = DetRng::seed(11);
        for _ in 0..50 {
            assert_eq!(one.sample(&mut rng), 1);
        }
    }

    #[test]
    fn params_rng_deterministic_per_thread() {
        let p = WorkloadParams::default();
        let mut r1 = p.rng_for(0);
        let mut r2 = p.rng_for(0);
        let mut r3 = p.rng_for(1);
        assert_eq!(r1.next_u64(), r2.next_u64());
        let _ = r3.next_u64();
    }
}
