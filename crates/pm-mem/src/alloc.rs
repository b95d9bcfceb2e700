//! A simple persistent-memory allocator for the workload data structures.
//!
//! Real PM applications use allocators such as PMDK's `pmemobj`; the
//! timing-relevant behaviour for this reproduction is only the *addresses*
//! handed out (they determine which memory controller a write targets), so
//! a bump allocator with size-class free lists suffices. Addresses are
//! cache-line aligned by default so independent objects never falsely
//! share a line.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use asap_sim_core::CACHE_LINE_BYTES;

/// Error returned when an allocation cannot be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The requested size was zero.
    ZeroSize,
    /// The heap region is exhausted.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: u64,
        /// Bytes remaining in the arena.
        remaining: u64,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::ZeroSize => f.write_str("zero-size allocation"),
            AllocError::OutOfMemory {
                requested,
                remaining,
            } => write!(
                f,
                "out of persistent memory: requested {requested} bytes, {remaining} remaining"
            ),
        }
    }
}

impl Error for AllocError {}

/// Bump allocator with per-size free lists over a fixed PM address range.
///
/// # Example
///
/// ```
/// use asap_pm_mem::PmAllocator;
/// let mut a = PmAllocator::new(0x1_0000, 1 << 20);
/// let x = a.alloc(64)?;
/// let y = a.alloc(64)?;
/// assert_ne!(x, y);
/// a.free(x, 64);
/// let z = a.alloc(64)?; // reuses the freed block
/// assert_eq!(z, x);
/// # Ok::<(), asap_pm_mem::AllocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PmAllocator {
    limit: u64,
    next: u64,
    free_lists: HashMap<u64, Vec<u64>>,
    allocated: u64,
}

impl PmAllocator {
    /// Create an allocator over `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not cache-line aligned or `size == 0`.
    pub fn new(base: u64, size: u64) -> PmAllocator {
        assert_eq!(
            base % CACHE_LINE_BYTES,
            0,
            "allocator base must be line-aligned"
        );
        assert!(size > 0, "allocator size must be nonzero");
        PmAllocator {
            limit: base + size,
            next: base,
            free_lists: HashMap::new(),
            allocated: 0,
        }
    }

    fn round_up(size: u64) -> u64 {
        // Round to cache-line multiples: avoids false sharing between
        // separately allocated objects and keeps flush accounting simple.
        size.div_ceil(CACHE_LINE_BYTES) * CACHE_LINE_BYTES
    }

    /// Allocate `size` bytes, cache-line aligned.
    ///
    /// # Errors
    ///
    /// [`AllocError::ZeroSize`] for zero-byte requests and
    /// [`AllocError::OutOfMemory`] when the arena is exhausted.
    pub fn alloc(&mut self, size: u64) -> Result<u64, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let rounded = Self::round_up(size);
        if let Some(list) = self.free_lists.get_mut(&rounded) {
            if let Some(addr) = list.pop() {
                self.allocated += rounded;
                return Ok(addr);
            }
        }
        if self.next + rounded > self.limit {
            return Err(AllocError::OutOfMemory {
                requested: rounded,
                remaining: self.limit - self.next,
            });
        }
        let addr = self.next;
        self.next += rounded;
        self.allocated += rounded;
        Ok(addr)
    }

    /// Return a block previously obtained from [`alloc`](Self::alloc) with
    /// the same `size`.
    pub fn free(&mut self, addr: u64, size: u64) {
        let rounded = Self::round_up(size.max(1));
        self.free_lists.entry(rounded).or_default().push(addr);
        self.allocated = self.allocated.saturating_sub(rounded);
    }

    /// Bytes currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    /// Bytes never yet handed out (bump frontier to limit).
    pub fn untouched_bytes(&self) -> u64 {
        self.limit - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_line_aligned_and_disjoint() {
        let mut a = PmAllocator::new(0x10_0000, 1 << 16);
        let mut addrs = Vec::new();
        for _ in 0..16 {
            let p = a.alloc(24).unwrap();
            assert_eq!(p % CACHE_LINE_BYTES, 0);
            addrs.push(p);
        }
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 16);
        // 24 bytes rounds to one line each
        assert_eq!(a.allocated_bytes(), 16 * CACHE_LINE_BYTES);
    }

    #[test]
    fn free_list_reuse() {
        let mut a = PmAllocator::new(0, 1 << 12);
        let x = a.alloc(128).unwrap();
        a.free(x, 128);
        assert_eq!(a.alloc(128).unwrap(), x);
        // different size class does not reuse
        let y = a.alloc(64).unwrap();
        assert_ne!(y, x);
    }

    #[test]
    fn zero_size_rejected() {
        let mut a = PmAllocator::new(0, 4096);
        assert_eq!(a.alloc(0), Err(AllocError::ZeroSize));
    }

    #[test]
    fn out_of_memory_reports_remaining() {
        let mut a = PmAllocator::new(0, 128);
        a.alloc(64).unwrap();
        let err = a.alloc(128).unwrap_err();
        match err {
            AllocError::OutOfMemory {
                requested,
                remaining,
            } => {
                assert_eq!(requested, 128);
                assert_eq!(remaining, 64);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("out of persistent memory"));
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn misaligned_base_panics() {
        PmAllocator::new(7, 4096);
    }

    #[test]
    fn untouched_shrinks_with_bump_not_reuse() {
        let mut a = PmAllocator::new(0, 4096);
        let before = a.untouched_bytes();
        let x = a.alloc(64).unwrap();
        assert_eq!(a.untouched_bytes(), before - 64);
        a.free(x, 64);
        a.alloc(64).unwrap(); // reuse: frontier unchanged
        assert_eq!(a.untouched_bytes(), before - 64);
    }
}
