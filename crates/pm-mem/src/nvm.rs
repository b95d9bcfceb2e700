//! Timing-accurate NVM media contents.
//!
//! [`NvmImage`] tracks, at cache-line granularity, the value that would be
//! found on the NVM media if power were cut *right now* (after the ADR
//! drain of the write-pending queues and — for ASAP — application of undo
//! records). Each line also carries the identity of the write that owns
//! its current value, which the crash-consistency oracle uses to validate
//! the recovered state against the write journal.
//!
//! Lines are indexed by the workspace's one hash table,
//! [`LineTable`]: a line's record lives at its dense first-touch
//! index, so iteration, [`NvmImage::content_digest`] and the oracle's
//! walk all follow first-touch order.

use crate::space::LineSnapshot;
use asap_sim_core::{
    fnv1a_fold, EpochId, LineAddr, LineIdx, LineTable, CACHE_LINE_BYTES, FNV_OFFSET,
};

/// Per-line persisted state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineRecord {
    /// Current media contents of the line.
    pub data: LineSnapshot,
    /// Sequence number (volatile order) of the journaled write whose value
    /// the line currently holds; `None` for lines restored from an undo
    /// record that predates journaling or never written.
    pub seq: Option<u64>,
    /// Epoch of the owning write, if known.
    pub epoch: Option<EpochId>,
}

impl Default for LineRecord {
    fn default() -> LineRecord {
        LineRecord {
            data: [0u8; CACHE_LINE_BYTES as usize],
            seq: None,
            epoch: None,
        }
    }
}

/// The persisted (media) image of NVM.
///
/// Unwritten lines read as zero with no owner, mirroring [`PmSpace`]
/// semantics for unbacked pages.
///
/// [`PmSpace`]: crate::PmSpace
///
/// # Example
///
/// ```
/// use asap_pm_mem::NvmImage;
/// use asap_sim_core::{EpochId, LineAddr, ThreadId};
///
/// let mut nvm = NvmImage::new();
/// let line = LineAddr::containing(0x80);
/// nvm.persist(line, [7u8; 64], Some(3), Some(EpochId::new(ThreadId(0), 1)));
/// assert_eq!(nvm.line(line).data[0], 7);
/// assert_eq!(nvm.line(line).seq, Some(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NvmImage {
    /// Line index: `lines.lookup(l)` is the position of `l`'s record in
    /// `recs`/`preinit`. `persist` runs once per accepted flush, and a
    /// SipHash `HashMap` insert there was measurable sweep wall clock.
    lines: LineTable,
    recs: Vec<LineRecord>,
    /// Whether the line was populated before the measured run (a
    /// pre-formatted pool): exempt from the oracle's "untagged lines
    /// are zero" check. Indexed like `recs`.
    preinit: Vec<bool>,
    writes: u64,
    /// Monotonic mutation counter: bumped on every `persist`, `restore`
    /// and `preinit`. Within one deterministic run, equal versions imply
    /// the identical mutation prefix and hence identical media contents —
    /// the crash-space explorer keys its pruning digest on this.
    version: u64,
}

impl Default for NvmImage {
    fn default() -> NvmImage {
        NvmImage {
            lines: LineTable::with_capacity(256),
            recs: Vec::new(),
            preinit: Vec::new(),
            writes: 0,
            version: 0,
        }
    }
}

impl NvmImage {
    /// Create an empty (all-zero) image.
    pub fn new() -> NvmImage {
        NvmImage::default()
    }

    /// Dense index of `line`'s record, if present.
    #[inline]
    fn lookup(&self, line: LineAddr) -> Option<usize> {
        self.lines.lookup(line).map(LineIdx::as_usize)
    }

    /// Dense index of `line`'s record, inserting a default record on
    /// first touch.
    fn lookup_or_insert(&mut self, line: LineAddr) -> usize {
        let i = self.lines.intern(line).as_usize();
        if i == self.recs.len() {
            self.recs.push(LineRecord::default());
            self.preinit.push(false);
        }
        i
    }

    /// Current contents and ownership of `line` (zero/no-owner default for
    /// never-written lines).
    pub fn line(&self, line: LineAddr) -> LineRecord {
        self.lookup(line)
            .map_or_else(LineRecord::default, |i| self.recs[i].clone())
    }

    /// Sequence number of the write owning `line`'s current value
    /// (`None` for untagged or never-written lines), without copying
    /// the line record.
    pub fn owner_seq(&self, line: LineAddr) -> Option<u64> {
        self.lookup(line).and_then(|i| self.recs[i].seq)
    }

    /// Apply a write to the media, recording its ownership tag.
    pub fn persist(
        &mut self,
        line: LineAddr,
        data: LineSnapshot,
        seq: Option<u64>,
        epoch: Option<EpochId>,
    ) {
        self.writes += 1;
        self.version += 1;
        let i = self.lookup_or_insert(line);
        self.recs[i] = LineRecord { data, seq, epoch };
    }

    /// Restore a line from an undo record during crash handling. The
    /// ownership tag reverts to the one captured when the undo record was
    /// created.
    pub fn restore(&mut self, line: LineAddr, record: LineRecord) {
        self.version += 1;
        let i = self.lookup_or_insert(line);
        self.recs[i] = record;
    }

    /// Populate a line as part of the *initial* pool contents (structure
    /// setup before the measured region — gem5's warmup analogue). The
    /// line carries no write tag; [`NvmImage::is_preinit`] marks it for
    /// the consistency oracle.
    pub fn preinit(&mut self, line: LineAddr, data: LineSnapshot) {
        self.version += 1;
        let i = self.lookup_or_insert(line);
        self.preinit[i] = true;
        self.recs[i] = LineRecord {
            data,
            seq: None,
            epoch: None,
        };
    }

    /// Whether `line` was part of the initial pool contents.
    pub fn is_preinit(&self, line: LineAddr) -> bool {
        self.lookup(line).is_some_and(|i| self.preinit[i])
    }

    /// Read a little-endian u64 from the media image.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let line = LineAddr::containing(addr);
        let rec = self.line(line);
        let off = line.offset_of(addr).expect("address within line");
        let mut buf = [0u8; 8];
        // A u64 may straddle lines; handle the (rare) split read.
        if off + 8 <= CACHE_LINE_BYTES as usize {
            buf.copy_from_slice(&rec.data[off..off + 8]);
        } else {
            let first = CACHE_LINE_BYTES as usize - off;
            buf[..first].copy_from_slice(&rec.data[off..]);
            let next = self.line(LineAddr::containing(addr + first as u64));
            buf[first..].copy_from_slice(&next.data[..8 - first]);
        }
        u64::from_le_bytes(buf)
    }

    /// Total line writes applied to the media (Figure 9's write count is
    /// tracked at the MCs; this is a cross-check).
    pub fn media_writes(&self) -> u64 {
        self.writes
    }

    /// Iterate over all lines ever written, in first-touch order
    /// (deterministic by construction).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &LineRecord)> {
        self.lines.iter().map(|(_, line)| line).zip(&self.recs)
    }

    /// Number of distinct lines present.
    pub fn distinct_lines(&self) -> usize {
        self.recs.len()
    }

    /// Monotonic mutation counter (see the field docs): strictly
    /// increases on every persist/restore/preinit.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// FNV-1a digest of the full media contents in first-touch order:
    /// line addresses, data bytes, ownership tags and preinit marks.
    /// Lets the crash-space explorer compare recovered images without
    /// holding both in memory (the mutation `version` is deliberately
    /// excluded: two images reached by different mutation *histories*
    /// but identical final contents digest equal).
    pub fn content_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (i, (line, rec)) in self.iter().enumerate() {
            h = fnv1a_fold(h, &line.byte_addr().to_le_bytes());
            h = fnv1a_fold(h, &rec.data);
            h = fnv1a_fold(h, &[rec.seq.is_some() as u8]);
            h = fnv1a_fold(h, &rec.seq.unwrap_or(0).to_le_bytes());
            h = fnv1a_fold(h, &[rec.epoch.is_some() as u8]);
            if let Some(e) = rec.epoch {
                h = fnv1a_fold(h, &(e.thread.0 as u64).to_le_bytes());
                h = fnv1a_fold(h, &e.ts.to_le_bytes());
            }
            h = fnv1a_fold(h, &[self.preinit[i] as u8]);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_sim_core::ThreadId;

    fn snap(b: u8) -> LineSnapshot {
        [b; CACHE_LINE_BYTES as usize]
    }

    #[test]
    fn unwritten_lines_are_zero() {
        let nvm = NvmImage::new();
        let rec = nvm.line(LineAddr::containing(0x1000));
        assert_eq!(rec.data, [0u8; 64]);
        assert_eq!(rec.seq, None);
        assert_eq!(rec.epoch, None);
        assert_eq!(nvm.distinct_lines(), 0);
    }

    #[test]
    fn persist_overwrites_and_tags() {
        let mut nvm = NvmImage::new();
        let line = LineAddr::containing(0);
        let e = EpochId::new(ThreadId(1), 4);
        nvm.persist(line, snap(1), Some(10), Some(e));
        nvm.persist(line, snap(2), Some(11), Some(e.next()));
        let rec = nvm.line(line);
        assert_eq!(rec.data[0], 2);
        assert_eq!(rec.seq, Some(11));
        assert_eq!(rec.epoch, Some(e.next()));
        assert_eq!(nvm.media_writes(), 2);
        assert_eq!(nvm.distinct_lines(), 1);
    }

    #[test]
    fn restore_rolls_back_tag_and_data() {
        let mut nvm = NvmImage::new();
        let line = LineAddr::containing(0x40);
        nvm.persist(line, snap(5), Some(1), None);
        let saved = nvm.line(line);
        nvm.persist(line, snap(9), Some(2), None);
        nvm.restore(line, saved);
        let rec = nvm.line(line);
        assert_eq!(rec.data[0], 5);
        assert_eq!(rec.seq, Some(1));
    }

    #[test]
    fn read_u64_within_line() {
        let mut nvm = NvmImage::new();
        let line = LineAddr::containing(0x80);
        let mut data = snap(0);
        data[8..16].copy_from_slice(&0xfeed_f00du64.to_le_bytes());
        nvm.persist(line, data, None, None);
        assert_eq!(nvm.read_u64(0x88), 0xfeed_f00d);
    }

    #[test]
    fn read_u64_straddling_lines() {
        let mut nvm = NvmImage::new();
        let l0 = LineAddr::containing(0);
        let l1 = LineAddr::containing(64);
        let v: u64 = 0x1122_3344_5566_7788;
        let bytes = v.to_le_bytes();
        let mut d0 = snap(0);
        d0[60..64].copy_from_slice(&bytes[0..4]);
        let mut d1 = snap(0);
        d1[0..4].copy_from_slice(&bytes[4..8]);
        nvm.persist(l0, d0, None, None);
        nvm.persist(l1, d1, None, None);
        assert_eq!(nvm.read_u64(60), v);
    }

    #[test]
    fn iter_visits_all_lines() {
        let mut nvm = NvmImage::new();
        for i in 0..5 {
            nvm.persist(LineAddr::containing(i * 64), snap(i as u8), None, None);
        }
        assert_eq!(nvm.iter().count(), 5);
    }
}
