//! Free-list recycling of boxed line snapshots.
//!
//! Every simulated store snapshots its 64-byte line into a
//! `Box<LineSnapshot>` that travels store → persist buffer → flush →
//! ack. Allocating a fresh box per store puts the global allocator on
//! the hot path; a [`SnapshotPool`] recycles retired boxes instead, so
//! steady state (pool warm, persist buffers cycling) performs zero heap
//! allocation per store.
//!
//! The counters double as the allocation audit: after warm-up,
//! [`fresh_allocs`](SnapshotPool::fresh_allocs) must stop growing even
//! as [`recycled`](SnapshotPool::recycled) tracks the store count — see
//! `snapshot_pool_allocates_nothing_in_steady_state` in
//! `tests/model_invariants.rs`.
//!
//! # Example
//!
//! ```
//! use asap_pm_mem::SnapshotPool;
//!
//! let mut pool = SnapshotPool::new();
//! let b = pool.take([7u8; 64]);
//! pool.put(b);
//! let c = pool.take([9u8; 64]); // reuses the same buffer
//! assert_eq!(c[0], 9);
//! assert_eq!(pool.fresh_allocs(), 1);
//! assert_eq!(pool.recycled(), 1);
//! ```

use crate::space::LineSnapshot;

/// A free list of `Box<LineSnapshot>` buffers.
#[derive(Debug, Default)]
pub struct SnapshotPool {
    // The boxes themselves are the pooled resource: `take` must hand
    // back the identical allocation that `put` retired, so the free
    // list stores boxes, not values.
    #[allow(clippy::vec_box)]
    free: Vec<Box<LineSnapshot>>,
    fresh_allocs: u64,
    recycled: u64,
}

impl SnapshotPool {
    /// An empty pool.
    pub fn new() -> SnapshotPool {
        SnapshotPool::default()
    }

    /// Hand out a box holding `data`, reusing a retired buffer when one
    /// is available and allocating otherwise.
    #[inline]
    pub fn take(&mut self, data: LineSnapshot) -> Box<LineSnapshot> {
        match self.free.pop() {
            Some(mut b) => {
                self.recycled += 1;
                *b = data;
                b
            }
            None => {
                self.fresh_allocs += 1;
                Box::new(data)
            }
        }
    }

    /// Return a retired buffer to the free list.
    #[inline]
    pub fn put(&mut self, buf: Box<LineSnapshot>) {
        self.free.push(buf);
    }

    /// Buffers currently on the free list.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Boxes allocated fresh from the heap (bounded by peak in-flight
    /// snapshots, not by store count, once the pool is warm).
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }

    /// Takes served from the free list (allocation-free).
    pub fn recycled(&self) -> u64 {
        self.recycled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_is_allocation_free() {
        let mut pool = SnapshotPool::new();
        // Warm-up: 4 in-flight buffers.
        let bufs: Vec<_> = (0..4).map(|i| pool.take([i as u8; 64])).collect();
        for b in bufs {
            pool.put(b);
        }
        assert_eq!(pool.fresh_allocs(), 4);
        // Steady state: every take is served from the free list.
        for i in 0..100u32 {
            let b = pool.take([(i % 251) as u8; 64]);
            assert_eq!(b[0], (i % 251) as u8, "recycled buffer must be rewritten");
            pool.put(b);
        }
        assert_eq!(pool.fresh_allocs(), 4);
        assert_eq!(pool.recycled(), 100);
    }

    #[test]
    fn empty_pool_allocates() {
        let mut pool = SnapshotPool::new();
        assert_eq!(pool.available(), 0);
        let b = pool.take([1; 64]);
        assert_eq!(pool.fresh_allocs(), 1);
        pool.put(b);
        assert_eq!(pool.available(), 1);
    }
}
