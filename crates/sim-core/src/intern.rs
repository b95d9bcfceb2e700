//! Address interning: dense per-run indices for cache lines.
//!
//! The simulators track a lot of per-line state (coherence directory,
//! recovery-table records, the release map). Keying that state by the
//! raw [`LineAddr`] forces a SipHash `HashMap` lookup on every access —
//! measurable overhead when the hot loop touches several tables per
//! simulated memory operation. A [`LineTable`] instead assigns each
//! distinct line a dense [`LineIdx`] (`u32`) in *first-touch order*, so
//! per-line state can live in flat `Vec`s indexed by `LineIdx` and
//! iteration order is deterministic by construction: the same program on
//! the same seed touches lines in the same order, independent of hasher
//! seeds or worker count.
//!
//! The table is a zero-dependency open-addressed hash set (linear
//! probing, power-of-two capacity, multiplicative hashing). A run's
//! footprint is typically known to within a small factor up front
//! ([`LineTable::with_capacity`]); the table also grows on demand so
//! first-touch interning stays correct for workloads whose footprint is
//! data-dependent.
//!
//! It is the workspace's only hash table on the simulated path: the NVM
//! media image (`asap-pm-mem`'s `NvmImage`) keys its line records by a
//! `LineTable`, and the functional memory (`PmSpace`) keys each backed
//! page by the page's first line. The per-core structures that only
//! ever hold a few dozen lines (the persist buffer, the baseline's
//! fence dirty set) scan their entries instead.
//!
//! # Example
//!
//! ```
//! use asap_sim_core::{LineAddr, LineTable};
//!
//! let mut t = LineTable::new();
//! let a = t.intern(LineAddr::containing(0x40));
//! let b = t.intern(LineAddr::containing(0x80));
//! assert_ne!(a, b);
//! assert_eq!(t.intern(LineAddr::containing(0x40)), a); // stable
//! assert_eq!(t.addr_of(a), LineAddr::containing(0x40));
//! assert_eq!(t.len(), 2);
//! ```

use crate::ids::LineAddr;

/// Dense per-run index of a cache line (assigned in first-touch order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineIdx(pub u32);

impl LineIdx {
    /// The index as a `usize`, for `Vec` indexing.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

const EMPTY: u32 = u32::MAX;

/// Interning table mapping [`LineAddr`] to dense [`LineIdx`].
///
/// Open-addressed with linear probing; slots hold indices into the dense
/// `addrs` vector, which records first-touch order (and is therefore the
/// deterministic iteration order of every structure keyed by `LineIdx`).
/// Two tables compare equal when they interned the same lines in the
/// same order from the same initial capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineTable {
    /// Probe table: each slot is `EMPTY` or an index into `addrs`.
    slots: Vec<u32>,
    /// Dense storage: `addrs[idx]` is the line interned as `LineIdx(idx)`.
    addrs: Vec<LineAddr>,
    /// `slots.len() - 1` (capacity is a power of two).
    mask: usize,
}

impl Default for LineTable {
    fn default() -> LineTable {
        LineTable::new()
    }
}

/// Finalizer-style mixer (splitmix64): line addresses are
/// near-sequential, so a strong bit mix is what keeps [`LineTable`]'s
/// linear-probing clusters short. Also the crash-space explorer's
/// seeded sampling rank.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl LineTable {
    /// An empty table with a small initial capacity.
    pub fn new() -> LineTable {
        LineTable::with_capacity(256)
    }

    /// An empty table pre-sized for roughly `lines` distinct lines
    /// (e.g. the expected workload footprint), avoiding rehashes during
    /// the run.
    pub fn with_capacity(lines: usize) -> LineTable {
        // Keep load factor under 1/2.
        let cap = (lines.max(8) * 2).next_power_of_two();
        LineTable {
            slots: vec![EMPTY; cap],
            addrs: Vec::with_capacity(lines),
            mask: cap - 1,
        }
    }

    /// Intern `line`, returning its dense index (allocating the next
    /// index on first touch).
    #[inline]
    pub fn intern(&mut self, line: LineAddr) -> LineIdx {
        let mut slot = (mix64(line.index()) as usize) & self.mask;
        loop {
            let s = self.slots[slot];
            if s == EMPTY {
                let idx = self.addrs.len() as u32;
                assert!(idx != EMPTY, "line table overflow (2^32-1 lines)");
                self.addrs.push(line);
                self.slots[slot] = idx;
                if self.addrs.len() * 2 > self.slots.len() {
                    self.grow();
                }
                return LineIdx(idx);
            }
            if self.addrs[s as usize] == line {
                return LineIdx(s);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Look up `line` without interning it.
    #[inline]
    pub fn lookup(&self, line: LineAddr) -> Option<LineIdx> {
        let mut slot = (mix64(line.index()) as usize) & self.mask;
        loop {
            let s = self.slots[slot];
            if s == EMPTY {
                return None;
            }
            if self.addrs[s as usize] == line {
                return Some(LineIdx(s));
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// The line interned as `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was not produced by this table.
    #[inline]
    pub fn addr_of(&self, idx: LineIdx) -> LineAddr {
        self.addrs[idx.as_usize()]
    }

    /// Number of distinct lines interned (the run's footprint so far).
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether no line has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// All interned lines in first-touch (dense-index) order.
    pub fn iter(&self) -> impl Iterator<Item = (LineIdx, LineAddr)> + '_ {
        self.addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| (LineIdx(i as u32), a))
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        self.mask = cap - 1;
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        for (i, &a) in self.addrs.iter().enumerate() {
            let mut slot = (mix64(a.index()) as usize) & self.mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
            }
            self.slots[slot] = i as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn la(i: u64) -> LineAddr {
        LineAddr::containing(i * 64)
    }

    #[test]
    fn first_touch_order_is_dense_and_stable() {
        let mut t = LineTable::new();
        for i in 0..100u64 {
            assert_eq!(t.intern(la(i)), LineIdx(i as u32));
        }
        // Re-interning returns the original indices.
        for i in (0..100u64).rev() {
            assert_eq!(t.intern(la(i)), LineIdx(i as u32));
        }
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut t = LineTable::new();
        assert_eq!(t.lookup(la(5)), None);
        let idx = t.intern(la(5));
        assert_eq!(t.lookup(la(5)), Some(idx));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn addr_round_trips() {
        let mut t = LineTable::with_capacity(4);
        for i in 0..1000u64 {
            let idx = t.intern(la(i * 7 + 3));
            assert_eq!(t.addr_of(idx), la(i * 7 + 3));
        }
    }

    #[test]
    fn growth_preserves_indices() {
        let mut t = LineTable::with_capacity(8);
        let idxs: Vec<LineIdx> = (0..10_000u64).map(|i| t.intern(la(i))).collect();
        for (i, idx) in idxs.iter().enumerate() {
            assert_eq!(t.lookup(la(i as u64)), Some(*idx));
        }
    }

    #[test]
    fn iter_is_first_touch_order() {
        let mut t = LineTable::new();
        let order = [9u64, 2, 7, 2, 9, 1];
        for &i in &order {
            t.intern(la(i));
        }
        let seen: Vec<LineAddr> = t.iter().map(|(_, a)| a).collect();
        assert_eq!(seen, vec![la(9), la(2), la(7), la(1)]);
    }
}
