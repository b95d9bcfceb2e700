//! Generic set-associative array with true-LRU replacement.
//!
//! The array is two flat vectors indexed by slot (`set * ways + way`):
//! `tags` holds each way's line and `stamps` its last-use tick. Both
//! start as `vec![0; n]`, so a fresh array is zero-filled memory that the
//! allocator hands out without writing it: a 16 MB LLC's 3 MB of tags
//! and stamps cost nothing until a set is first touched. Zero is the
//! empty way in both: a tag stores the line's [`LineIdx`] plus one, and
//! ticks start at 1, so an empty way is always the oldest in its set and
//! is filled before any line is evicted.

use asap_sim_core::{LineAddr, LineIdx};

/// A set-associative tag array tracking which cache lines are present.
///
/// Used for all three cache levels; data contents live in the functional
/// `PmSpace`, so only presence and recency matter here. Tags are stored
/// as dense interned [`LineIdx`] values (4 bytes instead of a full
/// address), while *set selection* still uses the line's address bits —
/// placement must not depend on first-touch interning order, or timing
/// would stop being a pure function of the access stream.
///
/// # Example
///
/// ```
/// use asap_cache_sim::SetAssoc;
/// use asap_sim_core::{LineAddr, LineIdx};
///
/// let mut c = SetAssoc::new(2, 2); // 2 sets x 2 ways
/// let line = LineAddr::containing(0);
/// assert!(c.touch(line, LineIdx(0)).is_none());
/// assert!(c.contains(line, LineIdx(0)));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssoc {
    /// Per slot: the resident line's `LineIdx` plus one, or 0 if empty.
    tags: Vec<u32>,
    /// Per slot: the resident line's last-use tick, or 0 if empty.
    stamps: Vec<u64>,
    ways: usize,
    /// `num_sets - 1` (the set count is a power of two).
    set_mask: usize,
    tick: u64,
}

/// The stored tag of `idx`: zero is reserved for an empty way.
#[inline]
fn tag(idx: LineIdx) -> u32 {
    idx.0
        .checked_add(1)
        .expect("LineIdx(u32::MAX) is never interned")
}

impl SetAssoc {
    /// Create an array with `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two or `ways` is 0.
    pub fn new(num_sets: usize, ways: usize) -> SetAssoc {
        assert!(
            num_sets.is_power_of_two() && num_sets > 0,
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be nonzero");
        SetAssoc {
            tags: vec![0; num_sets * ways],
            stamps: vec![0; num_sets * ways],
            ways,
            set_mask: num_sets - 1,
            tick: 0,
        }
    }

    /// Build from a capacity in bytes and associativity (64-byte lines).
    ///
    /// # Panics
    ///
    /// Panics if the implied set count is not a power of two.
    pub fn with_capacity_bytes(capacity: u64, ways: usize) -> SetAssoc {
        let lines = (capacity / 64) as usize;
        let sets = lines / ways;
        SetAssoc::new(sets, ways)
    }

    /// The slot range of the set holding `line`.
    #[inline]
    fn set(&self, line: LineAddr) -> std::ops::Range<usize> {
        let base = (line.index() as usize & self.set_mask) * self.ways;
        base..base + self.ways
    }

    /// Whether `line` (interned as `idx`) is present (does not update
    /// recency).
    #[inline]
    pub fn contains(&self, line: LineAddr, idx: LineIdx) -> bool {
        self.tags[self.set(line)].contains(&tag(idx))
    }

    /// Insert or refresh `line` (interned as `idx`); returns the victim
    /// evicted to make room, if any.
    pub fn touch(&mut self, line: LineAddr, idx: LineIdx) -> Option<LineIdx> {
        self.tick += 1;
        let set = self.set(line);
        let key = tag(idx);
        let tags = &mut self.tags[set.clone()];
        let stamps = &mut self.stamps[set];
        if let Some(way) = tags.iter().position(|&t| t == key) {
            stamps[way] = self.tick;
            return None;
        }
        // True LRU: the oldest stamp, which is an empty way's 0 while the
        // set has room.
        let (way, _) = stamps
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .expect("ways is nonzero");
        let victim = std::mem::replace(&mut tags[way], key);
        stamps[way] = self.tick;
        victim.checked_sub(1).map(LineIdx)
    }

    /// Remove `line` (interned as `idx`) if present; returns whether it
    /// was present.
    pub fn invalidate(&mut self, line: LineAddr, idx: LineIdx) -> bool {
        let set = self.set(line);
        let key = tag(idx);
        match self.tags[set.clone()].iter().position(|&t| t == key) {
            Some(way) => {
                self.tags[set.start + way] = 0;
                self.stamps[set.start + way] = 0;
                true
            }
            None => false,
        }
    }

    /// Number of lines currently present.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn la(i: u64) -> LineAddr {
        LineAddr::containing(i * 64)
    }

    // In tests the interned index is just the line number.
    fn ix(i: u64) -> LineIdx {
        LineIdx(i as u32)
    }

    #[test]
    fn fills_before_evicting() {
        let mut c = SetAssoc::new(1, 4);
        for i in 0..4 {
            assert_eq!(c.touch(la(i), ix(i)), None);
        }
        assert_eq!(c.occupancy(), 4);
        // Fifth line evicts the LRU (line 0)
        assert_eq!(c.touch(la(4), ix(4)), Some(ix(0)));
        assert!(!c.contains(la(0), ix(0)));
        assert!(c.contains(la(4), ix(4)));
    }

    #[test]
    fn touch_refreshes_lru() {
        let mut c = SetAssoc::new(1, 2);
        c.touch(la(0), ix(0));
        c.touch(la(1), ix(1));
        c.touch(la(0), ix(0)); // 0 becomes MRU
        assert_eq!(c.touch(la(2), ix(2)), Some(ix(1)));
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = SetAssoc::new(2, 1);
        assert_eq!(c.touch(la(0), ix(0)), None); // set 0
        assert_eq!(c.touch(la(1), ix(1)), None); // set 1
        assert_eq!(c.touch(la(2), ix(2)), Some(ix(0))); // set 0 again
        assert!(c.contains(la(1), ix(1)));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = SetAssoc::new(1, 2);
        c.touch(la(3), ix(3));
        assert!(c.invalidate(la(3), ix(3)));
        assert!(!c.contains(la(3), ix(3)));
        assert!(!c.invalidate(la(3), ix(3)));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn capacity_from_bytes() {
        let c = SetAssoc::with_capacity_bytes(32 * 1024, 8); // 32kB L1
        assert_eq!(c.capacity_lines(), 512);
        let c = SetAssoc::with_capacity_bytes(2 * 1024 * 1024, 8); // 2MB L2
        assert_eq!(c.capacity_lines(), 32768);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        SetAssoc::new(3, 2);
    }
}
