//! Deterministic timed event queue.
//!
//! The queue is the single hottest structure of the simulator: every
//! flush/ack round trip, commit message and core step passes through it,
//! and a paper-scale Fig. 8 sweep executes about 22 million push/pop
//! pairs. The pending population is small (a mean of 6 events at push
//! on Fig. 8, 13.5 on Fig. 12, never more than 64 on any registry
//! figure at `--full`), so the cost is per operation, not per element.
//! Three choices follow from that:
//!
//! * **16-byte packed heap keys.** Each heap element is one `u128`:
//!   `time << 64 | seq << 24 | slot`. `seq` is the insertion sequence
//!   number, so every comparison is a single integer compare and keys
//!   are unique; same-cycle events pop in FIFO order, the property that
//!   makes whole-simulation runs bit-for-bit reproducible. `slot` sits
//!   below `seq` and so never decides an order.
//! * **Events in a slab.** The payloads live in a `Vec<Option<E>>`
//!   indexed by `slot`, with a free list of vacated slots, so a sift
//!   moves 16 bytes instead of a key-plus-event tuple.
//! * **Four-ary implicit heap.** A 4-ary heap is ~half as deep as a
//!   binary heap, trading a couple of extra sibling compares per level
//!   (cheap, cache-resident) for fewer levels on the sift-down path that
//!   `pop` always pays.

use crate::time::Cycle;

/// Heap arity: each node has up to four children at `4i+1 ..= 4i+4`.
const ARITY: usize = 4;

/// Bits of a packed key holding the slab slot.
const SLOT_BITS: u32 = 24;
/// Bits of a packed key holding the insertion sequence number.
const SEQ_BITS: u32 = 40;
const SLOT_MASK: u128 = (1 << SLOT_BITS) - 1;

#[inline]
fn pack(at: Cycle, seq: u64, slot: usize) -> u128 {
    assert!(
        seq < 1 << SEQ_BITS,
        "event queue: sequence number {seq} does not fit in {SEQ_BITS} bits"
    );
    assert!(
        slot < 1 << SLOT_BITS,
        "event queue: slot {slot} does not fit in {SLOT_BITS} bits (too many pending events)"
    );
    (u128::from(at.raw()) << 64) | (u128::from(seq) << SLOT_BITS) | slot as u128
}

#[inline]
fn unpack_time(key: u128) -> Cycle {
    Cycle((key >> 64) as u64)
}

#[inline]
fn unpack_slot(key: u128) -> usize {
    (key & SLOT_MASK) as usize
}

#[inline]
fn sift_up(heap: &mut [u128], mut i: usize) {
    let key = heap[i];
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if key >= heap[parent] {
            break;
        }
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = key;
}

#[inline]
fn sift_down(heap: &mut [u128], mut i: usize) {
    let len = heap.len();
    let key = heap[i];
    loop {
        let first = ARITY * i + 1;
        if first >= len {
            break;
        }
        let mut min = first;
        let end = (first + ARITY).min(len);
        for c in first + 1..end {
            if heap[c] < heap[min] {
                min = c;
            }
        }
        if heap[min] >= key {
            break;
        }
        heap[i] = heap[min];
        i = min;
    }
    heap[i] = key;
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
    /// Implicit min-heap of packed `(time, seq, slot)` keys.
    heap: Vec<u128>,
    /// Event payloads; `slab[slot]` is `Some` exactly while a heap key
    /// names `slot`.
    slab: Vec<Option<E>>,
    /// Vacant slab slots, reused before the slab grows.
    free: Vec<usize>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue::with_capacity(0)
    }

    /// Create an empty queue with room for `cap` pending events, so the
    /// steady-state event population never re-grows the backing store.
    pub fn with_capacity(cap: usize) -> EventQueue<E> {
        EventQueue {
            heap: Vec::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                self.slab.len() - 1
            }
        };
        self.heap.push(pack(at, seq, slot));
        let last = self.heap.len() - 1;
        sift_up(&mut self.heap, last);
    }

    /// Remove and return the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let key = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            sift_down(&mut self.heap, 0);
        }
        let slot = unpack_slot(key);
        let event = self.slab[slot]
            .take()
            .expect("a heap key names a full slot");
        self.free.push(slot);
        Some((unpack_time(key), event))
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.first().map(|&key| unpack_time(key))
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
        self.slab.clear();
        self.free.clear();
    }

    /// Pending events the queue holds without re-growing its backing
    /// store.
    pub fn capacity(&self) -> usize {
        self.heap
            .capacity()
            .min(self.slab.capacity())
            .min(self.free.capacity())
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
    fn slots_are_reused_after_pop() {
        let mut q = EventQueue::with_capacity(4);
        for round in 0..100u64 {
            q.push(Cycle(round), round);
            q.push(Cycle(round), round + 1000);
            assert_eq!(q.pop(), Some((Cycle(round), round)));
            assert_eq!(q.pop(), Some((Cycle(round), round + 1000)));
        }
        assert_eq!(q.slab.len(), 2, "a drained queue reuses its slots");
    }

    #[test]
    #[should_panic(expected = "sequence number")]
    fn pack_rejects_a_sequence_number_past_40_bits() {
        pack(Cycle(0), 1 << SEQ_BITS, 0);
    }

    #[test]
    #[should_panic(expected = "too many pending events")]
    fn pack_rejects_a_slot_past_24_bits() {
        pack(Cycle(0), 0, 1 << SLOT_BITS);
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(!format!("{:?}", q).is_empty());
    }
}
