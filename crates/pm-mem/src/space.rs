//! Byte-addressable functional persistent-memory space.

use asap_sim_core::{LineAddr, LineIdx, LineTable, CACHE_LINE_BYTES};
use std::cell::Cell;

const PAGE_SHIFT: u32 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT; // 4 kB

/// A 64-byte snapshot of one cache line's contents.
pub type LineSnapshot = [u8; CACHE_LINE_BYTES as usize];

/// Sparse, paged, byte-addressable memory: the *program-visible* contents
/// of persistent memory (i.e. what loads see through the cache
/// hierarchy).
///
/// Unbacked bytes read as zero, mirroring freshly-mapped PM pages.
///
/// The page table is a [`LineTable`] keyed by each backed page's first
/// line, behind a one-entry cache of the last
/// page touched: the workload programs funnel every functional load and
/// store through here — several lookups per simulated memory operation —
/// and a SipHash `HashMap` page walk was a measurable slice of the
/// sweep's wall clock. Accesses have strong page locality (a data
/// structure node and its line snapshot live on one page), so the cache
/// short-circuits most probes entirely.
///
/// # Example
///
/// ```
/// use asap_pm_mem::PmSpace;
/// let mut pm = PmSpace::new();
/// pm.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(pm.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(pm.read_u64(0x2000), 0); // unbacked reads as zero
/// ```
#[derive(Debug, Clone)]
pub struct PmSpace {
    /// Page index: `pages[i]` backs the page whose first line was
    /// interned as `LineIdx(i)`.
    table: LineTable,
    pages: Vec<Box<[u8; PAGE_BYTES]>>,
    /// Last page touched (page number, dense index). A `Cell` so the
    /// read path can refresh it through `&self`.
    last: Cell<Option<(u64, LineIdx)>>,
}

impl Default for PmSpace {
    fn default() -> PmSpace {
        PmSpace {
            table: LineTable::with_capacity(32),
            pages: Vec::new(),
            last: Cell::new(None),
        }
    }
}

impl PmSpace {
    /// Create an empty space.
    pub fn new() -> PmSpace {
        PmSpace::default()
    }

    fn page_of(addr: u64) -> (u64, usize) {
        (addr >> PAGE_SHIFT, (addr as usize) & (PAGE_BYTES - 1))
    }

    /// The page table's key for page `pno`: the page's first line.
    fn key(pno: u64) -> LineAddr {
        LineAddr::containing(pno << PAGE_SHIFT)
    }

    /// Dense index of `pno`'s page, if backed (refreshes the one-entry
    /// cache on a hit).
    #[inline]
    fn lookup(&self, pno: u64) -> Option<usize> {
        match self.last.get() {
            Some((lp, li)) if lp == pno => Some(li.as_usize()),
            _ => {
                let li = self.table.lookup(Self::key(pno))?;
                self.last.set(Some((pno, li)));
                Some(li.as_usize())
            }
        }
    }

    fn page_mut(&mut self, pno: u64) -> &mut [u8; PAGE_BYTES] {
        let idx = match self.lookup(pno) {
            Some(i) => i,
            None => {
                let li = self.table.intern(Self::key(pno));
                self.pages.push(Box::new([0u8; PAGE_BYTES]));
                self.last.set(Some((pno, li)));
                li.as_usize()
            }
        };
        &mut self.pages[idx]
    }

    /// Read `buf.len()` bytes starting at `addr`.
    ///
    /// Works a page at a time: the hot path (line snapshots, word loads)
    /// costs one page lookup, not one per byte.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut addr = addr;
        let mut buf = buf;
        while !buf.is_empty() {
            let (pno, off) = Self::page_of(addr);
            let n = buf.len().min(PAGE_BYTES - off);
            match self.lookup(pno) {
                Some(i) => buf[..n].copy_from_slice(&self.pages[i][off..off + n]),
                None => buf[..n].fill(0),
            }
            addr += n as u64;
            buf = &mut buf[n..];
        }
    }

    /// Write `data` starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let mut addr = addr;
        let mut data = data;
        while !data.is_empty() {
            let (pno, off) = Self::page_of(addr);
            let n = data.len().min(PAGE_BYTES - off);
            self.page_mut(pno)[off..off + n].copy_from_slice(&data[..n]);
            addr += n as u64;
            data = &data[n..];
        }
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Write a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Snapshot the 64-byte cache line containing `line`.
    pub fn snapshot_line(&self, line: LineAddr) -> LineSnapshot {
        let mut buf = [0u8; CACHE_LINE_BYTES as usize];
        self.read_bytes(line.byte_addr(), &mut buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let pm = PmSpace::new();
        assert_eq!(pm.read_u64(0xdead_0000), 0);
        assert_eq!(pm.pages.len(), 0, "reads must not back pages");
    }

    #[test]
    fn u64_round_trip() {
        let mut pm = PmSpace::new();
        pm.write_u64(0x100, u64::MAX - 3);
        assert_eq!(pm.read_u64(0x100), u64::MAX - 3);
    }

    #[test]
    fn cross_page_write() {
        let mut pm = PmSpace::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles a page boundary
        pm.write_u64(addr as u64, 0x1122_3344_5566_7788);
        assert_eq!(pm.read_u64(addr as u64), 0x1122_3344_5566_7788);
        assert_eq!(pm.pages.len(), 2);
    }

    #[test]
    fn bytes_round_trip() {
        let mut pm = PmSpace::new();
        let data: Vec<u8> = (0..100).collect();
        pm.write_bytes(0x500, &data);
        let mut out = vec![0u8; 100];
        pm.read_bytes(0x500, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn line_snapshot_and_write() {
        let mut pm = PmSpace::new();
        let line = LineAddr::containing(0x1040);
        pm.write_u64(0x1040, 7);
        pm.write_u64(0x1078, 9);
        let snap = pm.snapshot_line(line);
        assert_eq!(u64::from_le_bytes(snap[0..8].try_into().unwrap()), 7);
        assert_eq!(u64::from_le_bytes(snap[56..64].try_into().unwrap()), 9);

        let mut pm2 = PmSpace::new();
        pm2.write_bytes(line.byte_addr(), &snap);
        assert_eq!(pm2.read_u64(0x1040), 7);
        assert_eq!(pm2.read_u64(0x1078), 9);
    }

    #[test]
    fn overwrites_are_visible() {
        let mut pm = PmSpace::new();
        pm.write_u64(0x10, 1);
        pm.write_u64(0x10, 2);
        assert_eq!(pm.read_u64(0x10), 2);
    }
}
