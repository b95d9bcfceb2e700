//! The memory-controller front-end tying WPQ, XPBuffer and the recovery
//! table together.

use crate::rt::{FlushAction, RecoveryTable};
use crate::wpq::Wpq;
use crate::xpbuffer::XpBuffer;
use asap_pm_mem::{LineSnapshot, NvmImage};
use asap_sim_core::{Cycle, EpochId, LineAddr, LineTable, McId, SimConfig, Stats};

/// A flush packet travelling from a persist buffer to a memory
/// controller.
///
/// The `early` bit is how a PB tells the MC a flush is speculative
/// (§V-A: "To notify the memory controller if a flush is *early*, PB sets
/// a bit in the packet sent to the MC").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushPacket {
    /// Target cache line.
    pub line: LineAddr,
    /// Line contents being flushed.
    pub data: LineSnapshot,
    /// Journal sequence of the (newest coalesced) store in the line.
    pub seq: u64,
    /// Epoch the flush belongs to.
    pub epoch: EpochId,
    /// Whether the epoch was not yet safe when the flush was issued.
    pub early: bool,
}

/// The memory controller's response to a flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Flush accepted into the persistence domain; the ack leaves the MC
    /// at `accept_at` and the action tells the caller what Table I row
    /// fired.
    Accepted {
        /// Time the ack departs the MC.
        accept_at: Cycle,
        /// Table I row taken.
        action: FlushAction,
    },
    /// Early flush rejected because the recovery table is full (§V-D);
    /// the NACK departs at `accept_at`.
    Nacked {
        /// Time the NACK departs the MC.
        accept_at: Cycle,
    },
    /// The WPQ is full; retry at (or after) `retry_at`. Models the queue
    /// back-pressure of a saturated controller.
    Busy {
        /// Earliest time a WPQ slot frees.
        retry_at: Cycle,
    },
}

/// One simulated memory controller.
///
/// # Example
///
/// ```
/// use asap_memctrl::{FlushOutcome, FlushPacket, MemController};
/// use asap_pm_mem::NvmImage;
/// use asap_sim_core::{Cycle, EpochId, LineAddr, McId, SimConfig, Stats, ThreadId};
///
/// let cfg = SimConfig::paper();
/// let mut mc = MemController::new(McId(0), &cfg);
/// let mut nvm = NvmImage::new();
/// let mut stats = Stats::new();
/// let pkt = FlushPacket {
///     line: LineAddr::containing(0x100),
///     data: [1u8; 64],
///     seq: 0,
///     epoch: EpochId::new(ThreadId(0), 0),
///     early: false,
/// };
/// match mc.receive_flush(Cycle(0), &pkt, &mut nvm, &mut stats) {
///     FlushOutcome::Accepted { .. } => {}
///     other => panic!("unexpected {other:?}"),
/// }
/// assert_eq!(nvm.line(pkt.line).data[0], 1);
/// ```
#[derive(Debug)]
pub struct MemController {
    id: McId,
    wpq: Wpq,
    rt: RecoveryTable,
    xp: XpBuffer,
    /// Per-run address interning, private to this controller: the WPQ,
    /// recovery table and XPBuffer all key their per-line state by the
    /// dense index this table assigns in first-arrival order. Indices
    /// never leave the controller.
    lines: LineTable,
}

impl MemController {
    /// Build a controller from the configuration.
    pub fn new(id: McId, cfg: &SimConfig) -> MemController {
        MemController {
            id,
            wpq: Wpq::with_banks(cfg.wpq_entries, cfg.nvm_write_latency, cfg.nvm_banks),
            rt: RecoveryTable::new(cfg.rt_entries),
            xp: XpBuffer::new(cfg.xpbuffer_lines),
            lines: LineTable::with_capacity(1024),
        }
    }

    /// This controller's id.
    pub fn id(&self) -> McId {
        self.id
    }

    /// Read-only view of the recovery table.
    pub fn rt(&self) -> &RecoveryTable {
        &self.rt
    }

    /// The controller's interned index for `line`, if it has ever seen a
    /// flush to it (diagnostics: RT queries are keyed by this index).
    pub fn line_idx(&self, line: LineAddr) -> Option<asap_sim_core::LineIdx> {
        self.lines.lookup(line)
    }

    /// Current WPQ occupancy.
    pub fn wpq_occupancy(&mut self, now: Cycle) -> usize {
        self.wpq.occupancy(now)
    }

    /// Writes absorbed by WPQ coalescing so far.
    pub fn wpq_coalesced(&self) -> u64 {
        self.wpq.coalesced()
    }

    /// Media line writes issued so far.
    pub fn media_writes(&self) -> u64 {
        self.wpq.media_writes()
    }

    /// Per-line issue interval of this MC's media pipe.
    pub fn write_occupancy(&self) -> Cycle {
        self.wpq.write_occupancy()
    }

    /// Handle an incoming flush packet per Table I.
    pub fn receive_flush(
        &mut self,
        now: Cycle,
        pkt: &FlushPacket,
        nvm: &mut NvmImage,
        stats: &mut Stats,
    ) -> FlushOutcome {
        // Intern the address once; every per-line structure downstream
        // (RT, WPQ, XPBuffer) is keyed by the dense index.
        let idx = self.lines.intern(pkt.line);
        // Rows that write memory need a WPQ slot; rows absorbed by the RT
        // (UndoUpdated, Delayed) do not.
        let undo_present = self.rt.has_undo(idx);

        if pkt.early {
            if undo_present || self.rt.has_delay(idx, pkt.epoch) {
                // Early + undo present (delay record / NACK when full),
                // or coalescing into this epoch's existing delay record.
                let action = self
                    .rt
                    .handle_flush(pkt.line, idx, pkt.data, pkt.seq, pkt.epoch, true, nvm);
                return self.finish_rt_action(now, action, stats);
            }
            // Early + no undo: needs an RT slot *and* a WPQ slot.
            if self.rt.free_slots() == 0 {
                stats.nacks += 1;
                return FlushOutcome::Nacked { accept_at: now };
            }
            // Reserve WPQ capacity before mutating the RT. The flush is
            // durable (ADR domain) at acceptance, so the ack departs now.
            let Some(_slot) = self.wpq.push(now, idx) else {
                return FlushOutcome::Busy {
                    retry_at: self.wpq.next_free_at(),
                };
            };
            // Undo read: mostly hits the XPBuffer; a miss goes to the
            // media *read* path, which has far higher bandwidth than the
            // write path (§V-A: "NVM has read/write asymmetry") and so
            // does not steal write-pipe slots.
            stats.nvm_reads += 1;
            if self.xp.touch(idx) {
                stats.xpbuffer_hits += 1;
            }
            let action = self
                .rt
                .handle_flush(pkt.line, idx, pkt.data, pkt.seq, pkt.epoch, true, nvm);
            debug_assert_eq!(action, FlushAction::SpeculativelyPersisted);
            stats.nvm_writes += 1;
            stats.tot_spec_writes += 1;
            stats.total_undo += 1;
            stats.rt_occupancy.record(self.rt.occupancy() as u64);
            FlushOutcome::Accepted {
                accept_at: now,
                action,
            }
        } else {
            let foreign_undo = undo_present && self.rt.undo_creator(idx) != Some(pkt.epoch);
            if foreign_undo {
                // Safe + undo created by a *different* epoch: the value is
                // absorbed into the undo record; no media write.
                let action = self
                    .rt
                    .handle_flush(pkt.line, idx, pkt.data, pkt.seq, pkt.epoch, false, nvm);
                debug_assert_eq!(action, FlushAction::UndoUpdated);
                stats.mc_suppressed_writes += 1;
                return FlushOutcome::Accepted {
                    accept_at: now,
                    action,
                };
            }
            // Safe + no undo (or this epoch's own undo): plain WPQ write.
            // Durable at acceptance (ADR domain): ack departs now.
            let Some(_slot) = self.wpq.push(now, idx) else {
                return FlushOutcome::Busy {
                    retry_at: self.wpq.next_free_at(),
                };
            };
            let action = self
                .rt
                .handle_flush(pkt.line, idx, pkt.data, pkt.seq, pkt.epoch, false, nvm);
            debug_assert_eq!(action, FlushAction::Persisted);
            stats.nvm_writes += 1;
            self.xp.touch(idx);
            FlushOutcome::Accepted {
                accept_at: now,
                action,
            }
        }
    }

    fn finish_rt_action(
        &mut self,
        now: Cycle,
        action: FlushAction,
        stats: &mut Stats,
    ) -> FlushOutcome {
        match action {
            FlushAction::Delayed => {
                stats.total_delay += 1;
                stats.tot_spec_writes += 1;
                stats.rt_occupancy.record(self.rt.occupancy() as u64);
                FlushOutcome::Accepted {
                    accept_at: now,
                    action,
                }
            }
            FlushAction::Nacked => {
                stats.nacks += 1;
                FlushOutcome::Nacked { accept_at: now }
            }
            other => FlushOutcome::Accepted {
                accept_at: now,
                action: other,
            },
        }
    }

    /// Handle an epoch-commit message from an epoch table (§V-C): delete
    /// the epoch's undo records, apply its delay records. Returns the time
    /// the commit ack departs.
    pub fn commit_epoch(
        &mut self,
        now: Cycle,
        epoch: EpochId,
        nvm: &mut NvmImage,
        stats: &mut Stats,
    ) -> Cycle {
        let media_writes = self.rt.commit_epoch(epoch, nvm);
        let mut done = now;
        for _ in 0..media_writes {
            // Delay-record write-backs go through the banked write pipe
            // like any other line write.
            done = self.wpq.occupy_media(done, self.wpq.write_occupancy());
            stats.nvm_writes += 1;
        }
        stats.rt_occupancy.record(self.rt.occupancy() as u64);
        // The ack departs once the RT bookkeeping is done; delay-record
        // media writes are in the ADR domain so the ack does not wait for
        // them.
        now
    }

    /// Power-failure handling (§V-E) on `nvm`, normally a *clone* of the
    /// live image: the WPQ is already reflected in the functional image
    /// (ADR domain), so apply the undo records to unwind speculative
    /// updates; delay records never reach the media. This controller's
    /// recovery table keeps its records, so the simulation can continue
    /// afterwards. Returns how many undo records were applied.
    pub fn crash_preview(&self, nvm: &mut NvmImage) -> usize {
        self.rt.crash_drain(nvm)
    }

    /// Fault-injection passthrough to
    /// [`RecoveryTable::set_drop_undo_every`].
    pub fn set_drop_undo_every(&mut self, n: u64) {
        self.rt.set_drop_undo_every(n);
    }

    /// Bytes the ADR drain must flush at power failure: the undo/delay
    /// records (§VII-D: "ASAP requires less than 4KB of data to be
    /// flushed from the recovery tables").
    pub fn adr_drain_bytes(&self) -> usize {
        // Each record: 64B data + ~12B of address/thread/timestamp tags.
        self.rt.occupancy() * 76
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_sim_core::ThreadId;

    fn mc() -> (MemController, NvmImage, Stats) {
        (
            MemController::new(McId(0), &SimConfig::paper()),
            NvmImage::new(),
            Stats::new(),
        )
    }

    fn pkt(line: u64, val: u8, seq: u64, t: usize, ts: u64, early: bool) -> FlushPacket {
        FlushPacket {
            line: LineAddr::containing(line * 64),
            data: [val; 64],
            seq,
            epoch: EpochId::new(ThreadId(t), ts),
            early,
        }
    }

    #[test]
    fn safe_flush_persists_and_counts() {
        let (mut mc, mut nvm, mut stats) = mc();
        let p = pkt(1, 5, 0, 0, 0, false);
        let out = mc.receive_flush(Cycle(0), &p, &mut nvm, &mut stats);
        assert!(matches!(
            out,
            FlushOutcome::Accepted {
                action: FlushAction::Persisted,
                ..
            }
        ));
        assert_eq!(stats.nvm_writes, 1);
        assert_eq!(stats.tot_spec_writes, 0);
        assert_eq!(nvm.line(p.line).data[0], 5);
    }

    #[test]
    fn early_flush_creates_undo_and_reads_media() {
        let (mut mc, mut nvm, mut stats) = mc();
        let p = pkt(2, 7, 1, 0, 1, true);
        let out = mc.receive_flush(Cycle(0), &p, &mut nvm, &mut stats);
        assert!(matches!(
            out,
            FlushOutcome::Accepted {
                action: FlushAction::SpeculativelyPersisted,
                ..
            }
        ));
        assert_eq!(stats.total_undo, 1);
        assert_eq!(stats.tot_spec_writes, 1);
        assert_eq!(stats.nvm_reads, 1);
        let idx = mc.lines.lookup(p.line).unwrap();
        assert!(mc.rt().has_undo(idx));
    }

    #[test]
    fn collision_creates_delay_and_commit_resolves() {
        let (mut mc, mut nvm, mut stats) = mc();
        mc.receive_flush(Cycle(0), &pkt(3, 3, 10, 3, 1, true), &mut nvm, &mut stats);
        let out = mc.receive_flush(Cycle(5), &pkt(3, 2, 5, 2, 1, true), &mut nvm, &mut stats);
        assert!(matches!(
            out,
            FlushOutcome::Accepted {
                action: FlushAction::Delayed,
                ..
            }
        ));
        assert_eq!(stats.total_delay, 1);
        // Commit the older epoch: delay folds into the undo record.
        mc.commit_epoch(
            Cycle(10),
            EpochId::new(ThreadId(2), 1),
            &mut nvm,
            &mut stats,
        );
        // Commit the newer epoch: undo gone, memory keeps value 3.
        mc.commit_epoch(
            Cycle(20),
            EpochId::new(ThreadId(3), 1),
            &mut nvm,
            &mut stats,
        );
        assert_eq!(mc.rt().occupancy(), 0);
        assert_eq!(nvm.line(LineAddr::containing(3 * 64)).data[0], 3);
    }

    #[test]
    fn rt_full_nacks_early_flushes() {
        let cfg = SimConfig::builder().rt_entries(1).build().unwrap();
        let mut mc = MemController::new(McId(0), &cfg);
        let mut nvm = NvmImage::new();
        let mut stats = Stats::new();
        mc.receive_flush(Cycle(0), &pkt(4, 1, 0, 0, 1, true), &mut nvm, &mut stats);
        let out = mc.receive_flush(Cycle(0), &pkt(5, 2, 1, 0, 2, true), &mut nvm, &mut stats);
        assert!(matches!(out, FlushOutcome::Nacked { .. }));
        assert_eq!(stats.nacks, 1);
        // Safe flushes still work.
        let out = mc.receive_flush(Cycle(0), &pkt(5, 2, 1, 0, 1, false), &mut nvm, &mut stats);
        assert!(matches!(out, FlushOutcome::Accepted { .. }));
    }

    #[test]
    fn wpq_full_returns_busy() {
        let cfg = SimConfig::builder().wpq_entries(1).build().unwrap();
        let mut mc = MemController::new(McId(0), &cfg);
        let mut nvm = NvmImage::new();
        let mut stats = Stats::new();
        mc.receive_flush(Cycle(0), &pkt(6, 1, 0, 0, 0, false), &mut nvm, &mut stats);
        let out = mc.receive_flush(Cycle(0), &pkt(7, 2, 1, 0, 0, false), &mut nvm, &mut stats);
        match out {
            FlushOutcome::Busy { retry_at } => assert!(retry_at > Cycle(0)),
            other => panic!("expected Busy, got {other:?}"),
        }
    }

    #[test]
    fn safe_flush_with_undo_suppresses_media_write() {
        let (mut mc, mut nvm, mut stats) = mc();
        mc.receive_flush(Cycle(0), &pkt(8, 9, 10, 1, 2, true), &mut nvm, &mut stats);
        let before = stats.nvm_writes;
        let out = mc.receive_flush(Cycle(1), &pkt(8, 4, 5, 0, 1, false), &mut nvm, &mut stats);
        assert!(matches!(
            out,
            FlushOutcome::Accepted {
                action: FlushAction::UndoUpdated,
                ..
            }
        ));
        assert_eq!(stats.nvm_writes, before);
        assert_eq!(stats.mc_suppressed_writes, 1);
        // Memory still has the newer speculative value.
        assert_eq!(nvm.line(LineAddr::containing(8 * 64)).data[0], 9);
    }

    #[test]
    fn crash_unwinds_speculation() {
        let (mut mc, mut nvm, mut stats) = mc();
        nvm.persist(LineAddr::containing(9 * 64), [1u8; 64], Some(0), None);
        mc.receive_flush(Cycle(0), &pkt(9, 8, 3, 1, 4, true), &mut nvm, &mut stats);
        assert_eq!(nvm.line(LineAddr::containing(9 * 64)).data[0], 8);
        let drain = mc.adr_drain_bytes();
        assert!(drain > 0);
        let n = mc.crash_preview(&mut nvm);
        assert_eq!(n, 1);
        assert_eq!(nvm.line(LineAddr::containing(9 * 64)).data[0], 1);
        // The records stay: recovering again restores the same value.
        assert_eq!(mc.adr_drain_bytes(), drain);
        assert_eq!(mc.crash_preview(&mut nvm), 1);
        assert_eq!(nvm.line(LineAddr::containing(9 * 64)).data[0], 1);
    }

    #[test]
    fn xpbuffer_caches_undo_reads() {
        let (mut mc, mut nvm, mut stats) = mc();
        // Two early flushes to the same line in different epochs: the
        // first reads media (XP miss), the second is a delay record — but
        // an early flush to a *different epoch after commit* re-reads.
        mc.receive_flush(Cycle(0), &pkt(10, 1, 0, 0, 1, true), &mut nvm, &mut stats);
        mc.commit_epoch(Cycle(1), EpochId::new(ThreadId(0), 1), &mut nvm, &mut stats);
        mc.receive_flush(Cycle(2), &pkt(10, 2, 1, 0, 2, true), &mut nvm, &mut stats);
        assert_eq!(stats.nvm_reads, 2);
        assert_eq!(stats.xpbuffer_hits, 1); // second undo read hits
    }
}
