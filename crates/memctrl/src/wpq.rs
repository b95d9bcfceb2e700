//! Write-pending queue: the ADR-domain staging buffer in front of the
//! NVM media.
//!
//! The WPQ is part of the persistence domain ("for all models, we assume
//! ADR, i.e. the Write Pending Queues in the controllers are part of the
//! persistence domain", §VII). A flush is durable the moment it is
//! accepted here, so the functional NVM image is updated at acceptance;
//! what the WPQ models is *occupancy*: the media drains entries serially
//! at the NVM write latency, and a full WPQ back-pressures incoming
//! flushes.
//!
//! Entries that have not started their media write yet can coalesce with
//! an incoming flush to the same line (§VII-A "Coalescing in the WPQ").
//!
//! Entries identify lines by the controller's dense interned
//! [`LineIdx`], keeping each record at 20 bytes and the coalescing scan a
//! compare over 4-byte keys.

use asap_sim_core::{Cycle, LineIdx};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
struct WpqEntry {
    line: LineIdx,
    /// When the media write for this entry begins.
    start: Cycle,
    /// When it completes and the entry leaves the queue.
    done: Cycle,
}

/// Occupancy/timing model of the write-pending queue plus the serial NVM
/// write pipe behind it.
///
/// # Example
///
/// ```
/// use asap_memctrl::Wpq;
/// use asap_sim_core::{Cycle, LineIdx};
///
/// let mut w = Wpq::new(16, Cycle::from_ns(90));
/// // The pipe is idle: the write is scheduled immediately.
/// let slot = w.push(Cycle(0), LineIdx(0)).unwrap();
/// assert_eq!(slot, Cycle(0));
/// ```
#[derive(Debug, Clone)]
pub struct Wpq {
    entries: VecDeque<WpqEntry>,
    capacity: usize,
    write_latency: Cycle,
    /// Issue interval of the (banked) media pipe: a new line write can
    /// start every `write_occupancy` even though each takes
    /// `write_latency` to complete.
    write_occupancy: Cycle,
    /// When the media write pipe next accepts a write.
    media_free_at: Cycle,
    media_writes: u64,
    coalesced: u64,
}

impl Wpq {
    /// Create a WPQ with `capacity` entries over a media pipe that takes
    /// `write_latency` per line write and accepts a new write every
    /// `write_latency` (single bank). Use [`Wpq::with_banks`] for banked
    /// media.
    pub fn new(capacity: usize, write_latency: Cycle) -> Wpq {
        Wpq::with_banks(capacity, write_latency, 1)
    }

    /// Create a WPQ over media with `banks` independent banks: per-line
    /// completion latency stays `write_latency`, but a new write can
    /// start every `write_latency / banks`.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    pub fn with_banks(capacity: usize, write_latency: Cycle, banks: usize) -> Wpq {
        assert!(banks > 0, "banks must be >= 1");
        Wpq {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            write_latency,
            write_occupancy: Cycle((write_latency.raw() / banks as u64).max(1)),
            media_free_at: Cycle::ZERO,
            media_writes: 0,
            coalesced: 0,
        }
    }

    /// Issue interval of the media pipe (for bandwidth accounting).
    pub fn write_occupancy(&self) -> Cycle {
        self.write_occupancy
    }

    /// Drop entries whose media write completed by `now`.
    fn expire(&mut self, now: Cycle) {
        while let Some(front) = self.entries.front() {
            if front.done <= now {
                self.entries.pop_front();
            } else {
                break;
            }
        }
    }

    /// Current occupancy at time `now`.
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.expire(now);
        self.entries.len()
    }

    /// Try to accept a line write at `now`.
    ///
    /// Returns `Some(slot)` when accepted (either coalesced into a
    /// pending entry or enqueued), where `slot` is the cycle the line's
    /// media write starts, or `None` when the queue is full — the caller
    /// must retry once [`next_free_at`](Self::next_free_at) passes.
    ///
    /// The WPQ is in the ADR domain, so the write is durable at
    /// acceptance: [`MemController::receive_flush`](crate::MemController::receive_flush)
    /// acks at `now` and discards the slot. A loaded controller slows
    /// flushes only by back-pressure, once the queue is full.
    pub fn push(&mut self, now: Cycle, line: LineIdx) -> Option<Cycle> {
        self.expire(now);
        // Coalesce with a same-line entry whose media write has not
        // started yet.
        if let Some(e) = self
            .entries
            .iter()
            .find(|e| e.line == line && e.start > now)
        {
            self.coalesced += 1;
            return Some(e.start);
        }
        if self.entries.len() >= self.capacity {
            return None;
        }
        let start = self.media_free_at.max(now);
        let done = start + self.write_latency;
        self.media_free_at = start + self.write_occupancy;
        self.media_writes += 1;
        self.entries.push_back(WpqEntry { line, start, done });
        Some(start)
    }

    /// Occupy the media pipe for `duration` without a queue entry (used
    /// for the write-back of delay records at epoch commit, which contends
    /// for the same media bandwidth; undo-record reads take the read path
    /// and do not occupy it). Returns the completion time.
    pub fn occupy_media(&mut self, now: Cycle, duration: Cycle) -> Cycle {
        let start = self.media_free_at.max(now);
        let done = start + duration;
        self.media_free_at = done;
        done
    }

    /// Earliest time an entry will free up (valid when full).
    pub fn next_free_at(&self) -> Cycle {
        self.entries.front().map(|e| e.done).unwrap_or(Cycle::ZERO)
    }

    /// Total media line writes issued.
    pub fn media_writes(&self) -> u64 {
        self.media_writes
    }

    /// Writes absorbed by WPQ coalescing.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn la(i: u32) -> LineIdx {
        LineIdx(i)
    }

    const W: Cycle = Cycle(180); // 90ns at 2GHz

    #[test]
    fn serial_media_writes_queue_up() {
        // The returned slot is the media *issue* slot: the first write
        // issues immediately, later ones queue behind it (single bank).
        let mut w = Wpq::new(16, W);
        let a0 = w.push(Cycle(0), la(0)).unwrap();
        let a1 = w.push(Cycle(0), la(1)).unwrap();
        let a2 = w.push(Cycle(0), la(2)).unwrap();
        assert_eq!(a0, Cycle(0));
        assert_eq!(a1, Cycle(180));
        assert_eq!(a2, Cycle(360));
        assert_eq!(w.media_writes(), 3);
    }

    #[test]
    fn full_queue_rejects_until_drain() {
        let mut w = Wpq::new(2, W);
        w.push(Cycle(0), la(0)).unwrap();
        w.push(Cycle(0), la(1)).unwrap();
        assert_eq!(w.push(Cycle(0), la(2)), None);
        assert_eq!(w.next_free_at(), Cycle(180));
        // After the first entry drains, space opens.
        assert!(w.push(Cycle(180), la(2)).is_some());
    }

    #[test]
    fn occupancy_decays_over_time() {
        let mut w = Wpq::new(16, W);
        for i in 0..4 {
            w.push(Cycle(0), la(i)).unwrap();
        }
        assert_eq!(w.occupancy(Cycle(0)), 4);
        assert_eq!(w.occupancy(Cycle(181)), 3);
        assert_eq!(w.occupancy(Cycle(100_000)), 0);
    }

    #[test]
    fn coalesces_not_yet_started_same_line() {
        let mut w = Wpq::new(16, W);
        w.push(Cycle(0), la(0)).unwrap(); // starts immediately
        let d1 = w.push(Cycle(0), la(1)).unwrap(); // starts at 180
                                                   // Same line as the queued-but-not-started entry: coalesce.
        let d2 = w.push(Cycle(0), la(1)).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(w.coalesced(), 1);
        assert_eq!(w.media_writes(), 2);
        // Same line as the *in-flight* entry (started at 0): no coalesce.
        let d3 = w.push(Cycle(10), la(0)).unwrap();
        assert!(d3 > d1);
        assert_eq!(w.media_writes(), 3);
    }

    #[test]
    fn occupy_media_blocks_the_pipe() {
        let mut w = Wpq::new(16, W);
        let r = w.occupy_media(Cycle(0), Cycle(350)); // a delay-record write-back
        assert_eq!(r, Cycle(350));
        let a = w.push(Cycle(0), la(0)).unwrap();
        assert_eq!(a, Cycle(350)); // issue slot right after the write-back
    }

    #[test]
    fn gap_in_arrivals_idles_media() {
        let mut w = Wpq::new(16, W);
        w.push(Cycle(0), la(0)).unwrap();
        let a = w.push(Cycle(1000), la(1)).unwrap();
        assert_eq!(a, Cycle(1000)); // pipe idle: issues at arrival
    }
}
