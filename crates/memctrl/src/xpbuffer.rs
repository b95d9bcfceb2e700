//! XPBuffer: the small on-DIMM line cache of Intel Optane PM.
//!
//! The paper's justification for undo-record reads (§V-A) leans on the
//! XPBuffer: "XPBuffer in Intel Optane Persistent memory caches most
//! recently accessed lines. Writes would mostly hit in this cache." We
//! model it as a fully-associative LRU over recently touched lines and
//! count the undo-record reads that hit it (`Stats::xpbuffer_hits`). A
//! hit or miss costs no cycles: the flush is acked at WPQ acceptance,
//! before the undo read would finish.
//!
//! Lines are identified by the controller's dense interned [`LineIdx`].
//! The LRU is exact and every [`XpBuffer::touch`] is O(1): the resident
//! lines form an intrusive doubly-linked list in recency order, whose
//! links live in a flat table indexed by `LineIdx`. A miss in a full
//! buffer unlinks the least recently used line at the head.

use asap_sim_core::LineIdx;

/// End of the recency list.
const NIL: u32 = u32::MAX;

/// A line's neighbours in recency order. A line that is not resident has
/// both links [`NIL`]; so does the only resident line, which the buffer
/// tells apart by its being the head.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Next less recently used line, or [`NIL`] at the head.
    older: u32,
    /// Next more recently used line, or [`NIL`] at the tail.
    newer: u32,
}

const DETACHED: Link = Link {
    older: NIL,
    newer: NIL,
};

/// LRU line cache in front of the NVM media.
///
/// # Example
///
/// ```
/// use asap_memctrl::XpBuffer;
/// use asap_sim_core::LineIdx;
///
/// let mut xp = XpBuffer::new(4);
/// let line = LineIdx(7);
/// assert!(!xp.touch(line)); // cold miss, now cached
/// assert!(xp.touch(line)); // hit
/// ```
#[derive(Debug, Clone)]
pub struct XpBuffer {
    /// `links[line]`, grown to the highest `LineIdx` touched.
    links: Vec<Link>,
    /// Resident lines.
    len: usize,
    capacity: usize,
    /// Least recently used line, or [`NIL`] when empty.
    head: u32,
    /// Most recently used line, or [`NIL`] when empty.
    tail: u32,
}

impl XpBuffer {
    /// Create a buffer tracking up to `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> XpBuffer {
        assert!(capacity >= 1, "an XPBuffer holds at least one line");
        XpBuffer {
            // A buffer that ever fills has seen at least `capacity` lines.
            links: Vec::with_capacity(capacity),
            len: 0,
            capacity,
            head: NIL,
            tail: NIL,
        }
    }

    /// Access `line`: returns `true` on a hit. Either way the line becomes
    /// most-recently-used (misses allocate, evicting the least recently
    /// used line when full).
    ///
    /// # Panics
    ///
    /// Panics on `LineIdx(u32::MAX)`, which a `LineTable` never assigns.
    pub fn touch(&mut self, line: LineIdx) -> bool {
        let l = line.0;
        assert_ne!(l, NIL, "LineIdx(u32::MAX) is never interned");
        let i = line.as_usize();
        if i >= self.links.len() {
            self.links.resize(i + 1, DETACHED);
        }
        if self.head == l || self.links[i].older != NIL {
            if self.tail != l {
                self.unlink(l);
                self.push_newest(l);
            }
            return true;
        }
        if self.len == self.capacity {
            let lru = self.head;
            self.unlink(lru);
            self.links[lru as usize] = DETACHED;
        } else {
            self.len += 1;
        }
        self.push_newest(l);
        false
    }

    /// Detach resident line `l` from the recency list.
    fn unlink(&mut self, l: u32) {
        let Link { older, newer } = self.links[l as usize];
        match older {
            NIL => self.head = newer,
            o => self.links[o as usize].newer = newer,
        }
        match newer {
            NIL => self.tail = older,
            n => self.links[n as usize].older = older,
        }
    }

    /// Append the detached line `l` as the most recently used.
    fn push_newest(&mut self, l: u32) {
        self.links[l as usize] = Link {
            older: self.tail,
            newer: NIL,
        };
        match self.tail {
            NIL => self.head = l,
            t => self.links[t as usize].newer = l,
        }
        self.tail = l;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn la(i: u32) -> LineIdx {
        LineIdx(i)
    }

    #[test]
    fn hit_after_touch() {
        let mut xp = XpBuffer::new(8);
        assert!(!xp.touch(la(0)));
        assert!(xp.touch(la(0)));
    }

    #[test]
    fn lru_eviction() {
        let mut xp = XpBuffer::new(2);
        xp.touch(la(0));
        xp.touch(la(1));
        xp.touch(la(2)); // evicts la(0)
        assert!(!xp.touch(la(0)));
        assert!(xp.touch(la(2)));
    }

    #[test]
    fn touch_refreshes_recency() {
        let mut xp = XpBuffer::new(2);
        xp.touch(la(0));
        xp.touch(la(1));
        xp.touch(la(0)); // la(0) MRU again
        xp.touch(la(2)); // evicts la(1)
        assert!(xp.touch(la(0)));
        assert!(!xp.touch(la(1)));
    }

    #[test]
    fn single_line_buffer_keeps_only_the_last_line() {
        let mut xp = XpBuffer::new(1);
        assert!(!xp.touch(la(5)));
        assert!(xp.touch(la(5)));
        assert!(!xp.touch(la(9)));
        assert!(!xp.touch(la(5)));
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_capacity_panics() {
        XpBuffer::new(0);
    }
}
