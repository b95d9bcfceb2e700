//! Deterministic random number generation.
//!
//! Every source of randomness in a simulation (workload keys, operation
//! mixes, crash instants) flows from one [`DetRng`] seeded at construction,
//! so a run is exactly reproducible given `(config, workload, seed)`.
//! The paper's artifact notes gem5 runs vary between executions; we go
//! further and make runs bit-reproducible.
//!
//! The generator is a self-contained **xoshiro256++** (Blackman & Vigna,
//! public domain) seeded through **SplitMix64**, with Lemire-style
//! rejection sampling for bounded draws. The algorithms and constants are
//! exactly those the `rand` crate's `SmallRng` used on 64-bit targets, so
//! historical streams are preserved, but the implementation carries no
//! external dependency and can never drift underneath us.

/// A small, fast, seeded RNG used throughout the simulator.
///
/// Newtype over a xoshiro256++ state so the algorithm can be swapped
/// without touching call sites, and so child generators can be split off
/// deterministically per thread.
///
/// # Example
///
/// ```
/// use asap_sim_core::DetRng;
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Create a generator from a 64-bit seed (SplitMix64 state
    /// expansion, as recommended by the xoshiro authors).
    pub fn seed(seed: u64) -> DetRng {
        const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut state = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            state = state.wrapping_add(PHI);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        DetRng { s }
    }

    /// Derive an independent child generator (e.g. one per simulated
    /// thread) in a deterministic way.
    pub fn split(&mut self, salt: u64) -> DetRng {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::seed(s)
    }

    /// Next raw 64-bit value (the xoshiro256++ output function).
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Unbiased uniform value in `[0, range)` via widening-multiply
    /// rejection sampling (Lemire). `range == 0` means the full 2^64
    /// domain.
    fn sample_range(&mut self, range: u64) -> u64 {
        if range == 0 {
            return self.next_u64();
        }
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let v = self.next_u64();
            let m = (v as u128).wrapping_mul(range as u128);
            let (hi, lo) = ((m >> 64) as u64, m as u64);
            if lo <= zone {
                return hi;
            }
        }
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "DetRng::below called with bound 0");
        self.sample_range(bound)
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "DetRng::index called with bound 0");
        self.sample_range(bound as u64) as usize
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53-bit uniform float in [0, 1).
        let f = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        f < p
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "DetRng::range_inclusive: lo > hi");
        let range = hi.wrapping_sub(lo).wrapping_add(1);
        lo.wrapping_add(self.sample_range(range))
    }

    /// Fill a byte slice from the stream (8-byte little-endian chunks;
    /// the trailing partial chunk takes the low bytes of one draw).
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_answer_vectors() {
        // Pin the stream so refactors of the generator are loud: these are
        // xoshiro256++ outputs under SplitMix64 seeding (the exact
        // `SmallRng::seed_from_u64` streams of rand 0.8 on 64-bit).
        let mut r = DetRng::seed(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180,
                211316841551650330
            ]
        );
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = DetRng::seed(1);
        let mut b = DetRng::seed(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn split_is_deterministic_and_independent() {
        let mut root1 = DetRng::seed(99);
        let mut root2 = DetRng::seed(99);
        let mut c1 = root1.split(5);
        let mut c2 = root2.split(5);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut d1 = root1.split(6);
        assert_ne!(c1.next_u64(), d1.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::seed(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            assert!(r.index(3) < 3);
        }
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // out-of-range probabilities are clamped, not panicking
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn range_inclusive_hits_both_ends() {
        let mut r = DetRng::seed(5);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            match r.range_inclusive(1, 3) {
                1 => lo_seen = true,
                3 => hi_seen = true,
                2 => {}
                _ => panic!("out of range"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn fill_bytes_matches_stream() {
        let mut a = DetRng::seed(8);
        let mut b = DetRng::seed(8);
        let mut buf = [0u8; 12];
        a.fill_bytes(&mut buf);
        let w0 = b.next_u64().to_le_bytes();
        let w1 = b.next_u64().to_le_bytes();
        assert_eq!(&buf[..8], &w0);
        assert_eq!(&buf[8..], &w1[..4]);
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let mut r = DetRng::seed(11);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[r.index(8)] += 1;
        }
        for &b in &buckets {
            assert!((700..1300).contains(&b), "skewed bucket: {buckets:?}");
        }
    }

    #[test]
    #[should_panic(expected = "bound 0")]
    fn below_zero_bound_panics() {
        DetRng::seed(0).below(0);
    }
}
