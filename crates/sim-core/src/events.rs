//! Deterministic timed event queue.
//!
//! The queue is the single hottest structure of the simulator: every
//! flush/ack round trip, commit message and core step passes through it,
//! and sweep runs (Figures 2–13) execute tens of millions of
//! push/pop pairs. Two hot-path choices follow from that:
//!
//! * **Packed sort key.** `(Cycle, seq)` is packed into one `u128`
//!   (`time` in the high 64 bits, insertion sequence in the low 64), so
//!   every heap comparison is a single integer compare instead of a
//!   two-field lexicographic one. Sequence numbers make keys unique,
//!   which also keeps same-cycle events in FIFO order — the property
//!   that makes whole-simulation runs bit-for-bit reproducible.
//! * **Four-ary implicit heap.** A 4-ary heap is ~half as deep as a
//!   binary heap, trading a couple of extra sibling compares per level
//!   (cheap, cache-resident) for fewer cache-missing levels on the
//!   sift-down path that `pop` always pays.

use crate::time::Cycle;

/// Heap arity: each node has up to four children at `4i+1 ..= 4i+4`.
const ARITY: usize = 4;

#[inline]
fn pack(at: Cycle, seq: u64) -> u128 {
    ((at.raw() as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> Cycle {
    Cycle((key >> 64) as u64)
}

#[inline]
fn sift_up<E>(heap: &mut [(u128, E)], mut i: usize) {
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if heap[i].0 < heap[parent].0 {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

#[inline]
fn sift_down<E>(heap: &mut [(u128, E)], mut i: usize) {
    let len = heap.len();
    loop {
        let first = ARITY * i + 1;
        if first >= len {
            break;
        }
        let mut min = first;
        let end = (first + ARITY).min(len);
        for c in first + 1..end {
            if heap[c].0 < heap[min].0 {
                min = c;
            }
        }
        if heap[min].0 < heap[i].0 {
            heap.swap(i, min);
            i = min;
        } else {
            break;
        }
    }
}

/// A priority queue of `(Cycle, E)` pairs with deterministic FIFO ordering
/// among same-cycle events.
///
/// # Example
///
/// ```
/// use asap_sim_core::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(7), 'b');
/// q.push(Cycle(3), 'a');
/// q.push(Cycle(7), 'c'); // same cycle as 'b', pushed later
/// assert_eq!(q.pop(), Some((Cycle(3), 'a')));
/// assert_eq!(q.pop(), Some((Cycle(7), 'b')));
/// assert_eq!(q.pop(), Some((Cycle(7), 'c')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    /// Implicit min-heap ordered by the packed `(time, seq)` key.
    heap: Vec<(u128, E)>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Create an empty queue with room for `cap` pending events, so the
    /// steady-state event population never re-grows the backing store.
    pub fn with_capacity(cap: usize) -> EventQueue<E> {
        EventQueue {
            heap: Vec::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push((pack(at, seq), event));
        let last = self.heap.len() - 1;
        sift_up(&mut self.heap, last);
    }

    /// Remove and return the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let (key, event) = self.heap.pop().expect("non-empty");
        sift_down(&mut self.heap, 0);
        Some((unpack_time(key), event))
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.first().map(|&(key, _)| unpack_time(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events, keeping the allocation (and the sequence
    /// counter, so FIFO ordering stays globally consistent) for reuse.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Allocated capacity of the backing store.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycle(9), ());
        q.push(Cycle(4), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycle(4)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Cycle(9)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), "a");
        q.push(Cycle(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(Cycle(7), "c");
        q.push(Cycle(10), "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a"); // pushed before "d" at Cycle(10)
        assert_eq!(q.pop().unwrap().1, "d");
    }

    #[test]
    fn with_capacity_does_not_grow() {
        let mut q = EventQueue::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        for i in 0..64u64 {
            q.push(Cycle(i % 7), i);
        }
        assert_eq!(q.capacity(), cap, "pre-sized queue must not re-grow");
        let mut last = Cycle(0);
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn clear_keeps_allocation_and_seq() {
        let mut q = EventQueue::with_capacity(16);
        q.push(Cycle(3), 'x');
        q.push(Cycle(1), 'y');
        q.clear();
        assert!(q.is_empty());
        assert!(q.capacity() >= 16);
        // Sequence numbers keep counting up after clear, so FIFO order
        // across the clear stays well-defined.
        q.push(Cycle(5), 'a');
        q.push(Cycle(5), 'b');
        assert_eq!(q.pop().unwrap().1, 'a');
        assert_eq!(q.pop().unwrap().1, 'b');
    }

    /// Adversarial heap exercise: a deterministic pseudo-random push/pop
    /// mix must drain in exact (time, insertion) order.
    #[test]
    fn four_ary_heap_total_order() {
        let mut q = EventQueue::new();
        let mut x = 0x9e3779b97f4a7c15u64; // splitmix-style scramble
        let mut pushed = Vec::new();
        for i in 0..1000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % 97;
            q.push(Cycle(t), i);
            pushed.push((t, i));
            if x.is_multiple_of(3) {
                q.pop();
            }
        }
        let mut last: Option<(Cycle, u64)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(!format!("{:?}", q).is_empty());
    }
}
