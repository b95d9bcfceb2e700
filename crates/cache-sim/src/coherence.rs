//! MESI coherence across private caches and a shared directory LLC.
//!
//! ## Model
//!
//! Each core has a private L1 + L2 (tag arrays only; data lives in the
//! functional image). A directory collocated with the shared LLC tracks,
//! per line, the owning core (M/E) or the sharer set (S). An access
//! resolves in one call:
//!
//! * state transitions apply immediately (instant coherence), and
//! * the returned [`AccessOutcome`] reports the latency the access would
//!   take, the level that supplied the data, and — crucially for the
//!   persistency models — whether a *remote core's dirty line* supplied
//!   the access. That last signal is what creates cross-thread persist
//!   dependencies under epoch persistency (paper §IV-E).
//!
//! ## PM lines and the LLC
//!
//! Persistent-memory lines evicted from the LLC are *dropped*, not written
//! back (§V-A: "Cache-lines for NVM evicted from the LLC are dropped...
//! Memory is updated by flushing data from the PBs"). A load that misses
//! everywhere therefore reads NVM media. [`AccessOutcome::llc_miss`]
//! reports this so the persistency model can charge the NVM read.

use crate::setassoc::SetAssoc;
use asap_sim_core::{Cycle, LineAddr, LineIdx, LineTable, SimConfig, ThreadId};

/// Order-preserving thread set with inline storage.
///
/// Sharer and invalidation lists are at most the core count (4 in the
/// paper's Table II config), so the common case lives entirely inline
/// and an M→S downgrade or a write upgrade allocates nothing.
/// Iteration order is insertion order — downstream invalidation
/// handling creates persist dependencies in that order, so a bitmask
/// (which would iterate in id order) is not an equivalent
/// representation.
///
/// Layout matters here: one of these lives inside every directory
/// entry (`dir` is indexed per line), so the set is kept to 32 bytes —
/// four inline `u32` ids plus a boxed spill vector that ≤4-core
/// configs never allocate. An early version with `[ThreadId; 8]`
/// inline (64 B) plus an unboxed `Vec` tripled the directory's memory
/// traffic and showed up directly in the sweep wall clock.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SharerSet {
    inline: [u32; SharerSet::INLINE],
    len: u8,
    /// Threads beyond the inline capacity (unallocated for ≤4-core
    /// configs). The box is the point: `Option<Box<_>>` is 8 bytes in
    /// the never-spilled common case where an inline `Vec` costs 24.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<ThreadId>>>,
}

impl SharerSet {
    const INLINE: usize = 4;

    /// The two-element set an M/E→S downgrade produces.
    fn pair(a: ThreadId, b: ThreadId) -> SharerSet {
        let mut s = SharerSet::default();
        s.push(a);
        s.push(b);
        s
    }

    fn push(&mut self, t: ThreadId) {
        let n = self.len as usize;
        if n < SharerSet::INLINE {
            self.inline[n] = t.0 as u32;
            self.len += 1;
        } else {
            self.spill.get_or_insert_with(Default::default).push(t);
        }
    }

    fn contains(&self, t: ThreadId) -> bool {
        self.inline[..self.len as usize].contains(&(t.0 as u32))
            || self.spill.as_ref().is_some_and(|s| s.contains(&t))
    }

    /// Number of threads in the set.
    pub fn len(&self) -> usize {
        self.len as usize + self.spill.as_ref().map_or(0, |s| s.len())
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Threads in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.inline[..self.len as usize]
            .iter()
            .map(|&t| ThreadId(t as usize))
            .chain(self.spill.iter().flat_map(|s| s.iter().copied()))
    }
}

/// Directory state for one line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DirState {
    /// One core holds the line in M or E; `dirty` distinguishes M from E.
    Owned { owner: ThreadId, dirty: bool },
    /// Zero or more cores hold the line in S.
    Shared(SharerSet),
}

/// Which level of the hierarchy satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Private L1 hit.
    L1,
    /// Private L2 hit.
    L2,
    /// Shared LLC hit (or directory-forwarded from a remote core).
    Llc,
    /// Missed the whole hierarchy; data comes from memory.
    Memory,
}

/// Result of one coherent access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Latency charged for the access, excluding any NVM media read the
    /// persistency model may need to add on an LLC miss.
    pub latency: Cycle,
    /// Level that supplied the data.
    pub level: HitLevel,
    /// If the line was supplied/invalidated from a remote core that held
    /// it *dirty* (M), the identity of that core. This is the coherence
    /// event that carries epoch information in ASAP/HOPS and creates a
    /// cross-thread dependency under epoch persistency.
    pub dirty_supplier: Option<ThreadId>,
    /// True when the data had to come from memory (the persistency model
    /// decides whether a persist buffer actually holds a newer copy).
    pub llc_miss: bool,
    /// Sharers invalidated by a write upgrade, in invalidation order.
    /// Their invalidation acks carry epoch information: a sharer may
    /// still hold *pending persist buffer writes* for the line (it wrote
    /// the line in M before being downgraded to S by a reader), so the
    /// writer must order behind them — without this the dependency chain
    /// of strong persist atomicity is severed by the M→S downgrade.
    pub invalidated: SharerSet,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// LLC hits (including cache-to-cache forwards).
    pub llc_hits: u64,
    /// Full misses (data from memory).
    pub misses: u64,
    /// Cache-to-cache transfers (remote supplier).
    pub c2c_transfers: u64,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// Dirty private-cache evictions (dropped, not written back).
    pub dirty_evictions: u64,
}

/// The coherence hub: all private tag arrays plus the LLC directory.
///
/// # Example
///
/// ```
/// use asap_cache_sim::{CoherenceHub, HitLevel};
/// use asap_sim_core::{LineAddr, SimConfig, ThreadId};
///
/// let cfg = SimConfig::paper();
/// let mut hub = CoherenceHub::new(&cfg);
/// let line = LineAddr::containing(0x1000);
/// // First write misses everywhere...
/// let first = hub.access(ThreadId(0), line, true);
/// assert_eq!(first.level, HitLevel::Memory);
/// // ...the second hits in L1.
/// let second = hub.access(ThreadId(0), line, true);
/// assert_eq!(second.level, HitLevel::L1);
/// // Another core's write is supplied by core 0's dirty copy.
/// let remote = hub.access(ThreadId(1), line, true);
/// assert_eq!(remote.dirty_supplier, Some(ThreadId(0)));
/// ```
#[derive(Debug)]
pub struct CoherenceHub {
    l1: Vec<SetAssoc>,
    l2: Vec<SetAssoc>,
    llc: SetAssoc,
    /// Per-run address interning: all per-line directory state is keyed
    /// by the dense [`LineIdx`] this table assigns in first-touch order.
    lines: LineTable,
    /// Directory state per interned line (`None` = no core holds it).
    dir: Vec<Option<DirState>>,
    l1_latency: Cycle,
    l2_latency: Cycle,
    llc_latency: Cycle,
    c2c_latency: Cycle,
    stats: CacheStats,
}

impl CoherenceHub {
    /// Build the hierarchy for `cfg.num_cores` cores with Table II sizes.
    pub fn new(cfg: &SimConfig) -> CoherenceHub {
        CoherenceHub {
            l1: (0..cfg.num_cores)
                .map(|_| SetAssoc::with_capacity_bytes(32 * 1024, 8))
                .collect(),
            l2: (0..cfg.num_cores)
                .map(|_| SetAssoc::with_capacity_bytes(2 * 1024 * 1024, 8))
                .collect(),
            llc: SetAssoc::with_capacity_bytes(16 * 1024 * 1024, 16),
            lines: LineTable::with_capacity(4096),
            dir: Vec::with_capacity(4096),
            l1_latency: cfg.l1_latency,
            l2_latency: cfg.l2_latency,
            llc_latency: cfg.llc_latency,
            c2c_latency: cfg.c2c_latency,
            stats: CacheStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Intern `line`, growing the dense directory alongside the table.
    #[inline]
    fn intern(&mut self, line: LineAddr) -> LineIdx {
        let idx = self.lines.intern(line);
        if idx.as_usize() >= self.dir.len() {
            self.dir.resize(idx.as_usize() + 1, None);
        }
        idx
    }

    /// Perform a coherent access by thread `t` to `line`.
    ///
    /// `write` selects a read-for-ownership (invalidate sharers, end in M)
    /// versus a plain read (end in S or E).
    pub fn access(&mut self, t: ThreadId, line: LineAddr, write: bool) -> AccessOutcome {
        let tid = t.0;
        let idx = self.intern(line);
        let private_hit_l1 = self.l1[tid].contains(line, idx);
        let private_hit_l2 = private_hit_l1 || self.l2[tid].contains(line, idx);

        // Fast path: private hit with sufficient permissions.
        if private_hit_l2 {
            let have_ownership = matches!(
                self.dir[idx.as_usize()],
                Some(DirState::Owned { owner, .. }) if owner == t
            );
            if !write || have_ownership {
                if write {
                    // Write hit in M/E: mark dirty.
                    self.dir[idx.as_usize()] = Some(DirState::Owned {
                        owner: t,
                        dirty: true,
                    });
                }
                let (lat, level) = if private_hit_l1 {
                    self.stats.l1_hits += 1;
                    (self.l1_latency, HitLevel::L1)
                } else {
                    self.stats.l2_hits += 1;
                    (self.l2_latency, HitLevel::L2)
                };
                self.touch_private(tid, line, idx);
                return AccessOutcome {
                    latency: lat,
                    level,
                    dirty_supplier: None,
                    llc_miss: false,
                    invalidated: SharerSet::default(),
                };
            }
            // Write to a line held Shared: upgrade through the directory.
        }

        // Directory path.
        let mut latency = self.llc_latency;
        let mut dirty_supplier = None;
        let mut invalidated = SharerSet::default();
        let mut level = HitLevel::Llc;
        let llc_has = self.llc.contains(line, idx);

        // Take the state out of the slot (no clone); every arm writes the
        // successor state back.
        let state = self.dir[idx.as_usize()].take();
        match state {
            Some(DirState::Owned { owner, dirty }) if owner != t => {
                // Remote M/E: forward via cache-to-cache transfer.
                latency += self.c2c_latency;
                self.stats.c2c_transfers += 1;
                if dirty {
                    dirty_supplier = Some(owner);
                }
                if write {
                    // Invalidate the remote copy.
                    self.l1[owner.0].invalidate(line, idx);
                    self.l2[owner.0].invalidate(line, idx);
                    self.stats.invalidations += 1;
                    invalidated.push(owner);
                    self.dir[idx.as_usize()] = Some(DirState::Owned {
                        owner: t,
                        dirty: true,
                    });
                } else {
                    // Downgrade remote M/E to S; both become sharers.
                    self.dir[idx.as_usize()] = Some(DirState::Shared(SharerSet::pair(owner, t)));
                }
            }
            Some(DirState::Owned { owner, dirty }) => {
                // owner == t but the line fell out of the private tags
                // (capacity eviction). Refill from LLC/memory, keep state.
                debug_assert_eq!(owner, t);
                if !llc_has {
                    level = HitLevel::Memory;
                    self.stats.misses += 1;
                } else {
                    self.stats.llc_hits += 1;
                }
                let dirty = dirty || write;
                self.dir[idx.as_usize()] = Some(DirState::Owned { owner: t, dirty });
            }
            Some(DirState::Shared(mut sharers)) => {
                if write {
                    // Invalidate all other sharers; their acks may carry
                    // epoch dependencies (see `invalidated`).
                    for s in sharers.iter().filter(|&s| s != t) {
                        self.l1[s.0].invalidate(line, idx);
                        self.l2[s.0].invalidate(line, idx);
                        self.stats.invalidations += 1;
                        invalidated.push(s);
                    }
                    self.dir[idx.as_usize()] = Some(DirState::Owned {
                        owner: t,
                        dirty: true,
                    });
                } else {
                    if !sharers.contains(t) {
                        sharers.push(t);
                    }
                    self.dir[idx.as_usize()] = Some(DirState::Shared(sharers));
                }
                if llc_has {
                    self.stats.llc_hits += 1;
                } else {
                    level = HitLevel::Memory;
                    self.stats.misses += 1;
                }
            }
            None => {
                // No core holds the line (first access, or it was dropped
                // on a private eviction): exclusive (E) or modified. Data
                // may still live in the LLC.
                self.dir[idx.as_usize()] = Some(DirState::Owned {
                    owner: t,
                    dirty: write,
                });
                if llc_has {
                    self.stats.llc_hits += 1;
                } else {
                    level = HitLevel::Memory;
                    self.stats.misses += 1;
                }
            }
        }

        // Fill private caches and LLC.
        self.llc.touch(line, idx);
        self.fill_private(t, line, idx);

        AccessOutcome {
            latency,
            level,
            dirty_supplier,
            llc_miss: level == HitLevel::Memory,
            invalidated,
        }
    }

    fn touch_private(&mut self, tid: usize, line: LineAddr, idx: LineIdx) {
        self.l1[tid].touch(line, idx);
        self.l2[tid].touch(line, idx);
    }

    /// Fill `line` into the private caches of `t`. An L2 victim that `t`
    /// owned leaves the directory; a dirty one is counted and dropped
    /// (PM lines are not written back — the persist path owns
    /// durability).
    fn fill_private(&mut self, t: ThreadId, line: LineAddr, idx: LineIdx) {
        let tid = t.0;
        self.l1[tid].touch(line, idx);
        let Some(victim) = self.l2[tid].touch(line, idx) else {
            return;
        };
        let victim_line = self.lines.addr_of(victim);
        // Keep L1 inclusive in L2.
        self.l1[tid].invalidate(victim_line, victim);
        if let Some(DirState::Owned { owner, dirty }) = self.dir[victim.as_usize()] {
            if owner == t {
                if dirty {
                    self.stats.dirty_evictions += 1;
                }
                self.dir[victim.as_usize()] = None;
            }
        }
    }

    /// Whether any core currently holds `line` dirty (diagnostics).
    pub fn is_dirty_anywhere(&self, line: LineAddr) -> bool {
        let Some(idx) = self.lines.lookup(line) else {
            return false;
        };
        matches!(
            self.dir[idx.as_usize()],
            Some(DirState::Owned { dirty: true, .. })
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> CoherenceHub {
        CoherenceHub::new(&SimConfig::paper())
    }

    fn la(i: u64) -> LineAddr {
        LineAddr::containing(i * 64)
    }

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut h = hub();
        let a = h.access(ThreadId(0), la(1), false);
        assert_eq!(a.level, HitLevel::Memory);
        assert!(a.llc_miss);
        let b = h.access(ThreadId(0), la(1), false);
        assert_eq!(b.level, HitLevel::L1);
        assert_eq!(b.latency, Cycle::from_ns(1));
    }

    #[test]
    fn write_then_remote_write_reports_dirty_supplier() {
        let mut h = hub();
        h.access(ThreadId(0), la(2), true);
        assert!(h.is_dirty_anywhere(la(2)));
        let r = h.access(ThreadId(1), la(2), true);
        assert_eq!(r.dirty_supplier, Some(ThreadId(0)));
        assert_eq!(r.level, HitLevel::Llc);
        // Ownership migrated: core 1 now hits locally.
        let again = h.access(ThreadId(1), la(2), true);
        assert_eq!(again.level, HitLevel::L1);
        // Core 0 lost its copy.
        let back = h.access(ThreadId(0), la(2), false);
        assert_eq!(back.dirty_supplier, Some(ThreadId(1)));
    }

    #[test]
    fn read_of_clean_exclusive_has_no_dirty_supplier() {
        let mut h = hub();
        h.access(ThreadId(0), la(3), false); // E at core 0
        let r = h.access(ThreadId(1), la(3), false);
        assert_eq!(r.dirty_supplier, None);
        // Both are now sharers; a write by core 2 invalidates both.
        let w = h.access(ThreadId(2), la(3), true);
        assert_eq!(w.dirty_supplier, None);
        assert!(h.stats().invalidations >= 2);
    }

    #[test]
    fn read_downgrades_remote_dirty_to_shared() {
        let mut h = hub();
        h.access(ThreadId(0), la(4), true);
        let r = h.access(ThreadId(1), la(4), false);
        assert_eq!(r.dirty_supplier, Some(ThreadId(0)));
        assert!(!h.is_dirty_anywhere(la(4)));
        // Subsequent read by either is a private hit.
        assert_eq!(h.access(ThreadId(0), la(4), false).level, HitLevel::L1);
        assert_eq!(h.access(ThreadId(1), la(4), false).level, HitLevel::L1);
    }

    #[test]
    fn write_upgrade_from_shared() {
        let mut h = hub();
        h.access(ThreadId(0), la(5), false);
        h.access(ThreadId(1), la(5), false);
        // Core 0 upgrades: needs directory trip even though line is local.
        let u = h.access(ThreadId(0), la(5), true);
        assert_ne!(u.level, HitLevel::L1);
        assert!(h.is_dirty_anywhere(la(5)));
        // Core 1's copy is gone.
        let r = h.access(ThreadId(1), la(5), false);
        assert_eq!(r.dirty_supplier, Some(ThreadId(0)));
    }

    #[test]
    fn c2c_latency_charged_for_remote_supply() {
        let cfg = SimConfig::paper();
        let mut h = CoherenceHub::new(&cfg);
        h.access(ThreadId(0), la(6), true);
        let r = h.access(ThreadId(1), la(6), false);
        assert_eq!(r.latency, cfg.llc_latency + cfg.c2c_latency);
    }

    #[test]
    fn dirty_eviction_reported_on_capacity_pressure() {
        let cfg = SimConfig::paper();
        let mut h = CoherenceHub::new(&cfg);
        // L2 is 4096 sets x 8 ways; hammer one set with >8 distinct lines
        // mapping to it (stride = num_sets lines).
        let stride = 4096u64;
        for i in 0..8 {
            h.access(ThreadId(0), la(i * stride), true);
        }
        h.access(ThreadId(0), la(8 * stride), true);
        assert!(h.stats().dirty_evictions >= 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut h = hub();
        h.access(ThreadId(0), la(7), false);
        h.access(ThreadId(0), la(7), false);
        h.access(ThreadId(1), la(7), false);
        let s = h.stats();
        assert_eq!(s.misses, 1);
        assert!(s.l1_hits >= 1);
    }
}
