//! The model-agnostic event machine: per-core state, the event queue,
//! the run loop and the bookkeeping every persistency design shares.
//! Protocol decisions live behind [`PersistencyModel`] hooks; the engine
//! never branches on [`asap_sim_core::ModelKind`].

use super::collect::{BoundaryKind, CrashPoints, KeyMask};
use super::model::PersistencyModel;
use crate::deps::DepGraph;
use crate::ops::{MemOp, ThreadProgram};
use crate::pb::PersistBuffer;
use asap_cache_sim::{CoherenceHub, CountingBloom, WriteBackBuffer};
use asap_memctrl::MemController;
use asap_pm_mem::{NvmImage, PmSpace, SnapshotPool, WriteJournal};
use asap_sim_core::{
    fnv1a_fold, Cycle, EpochId, EventQueue, Flavor, LineAddr, LineIdx, LineTable, McId, NullTracer,
    Sampler, SimConfig, Stats, TextTracer, ThreadId, TraceRecord, Tracer, FNV_OFFSET,
};
use std::collections::VecDeque;

/// Why a core is not executing.
#[derive(Debug, Clone)]
pub(super) enum Block {
    /// Persist buffer full; the pending store op is parked here.
    PbFull { since: Cycle, op: MemOp },
    /// Epoch table full; the pending fence op is parked here.
    EtFull { since: Cycle, op: MemOp },
    /// Waiting on `dfence` (all epochs must commit).
    DFence { since: Cycle },
    /// Baseline synchronous fence: waiting for `remaining` flush acks,
    /// with `pending` lines still to issue.
    SyncFence {
        since: Cycle,
        remaining: usize,
        pending: VecDeque<(LineAddr, u64)>,
        is_dfence: bool,
    },
}

/// Per-core simulation state (model-agnostic; per-design state such as
/// ASAP's conservative flag lives in the model structs).
pub(super) struct Core {
    pub tid: ThreadId,
    pub pb: PersistBuffer,
    pub et: crate::et::EpochTable,
    pub cur_ts: u64,
    pub burst: VecDeque<MemOp>,
    pub program_finished: bool,
    pub retire_fence_issued: bool,
    pub done: bool,
    pub blocked: Option<Block>,
    pub inflight: usize,
    pub core_free_at: Cycle,
    pub step_scheduled: bool,
    pub pb_occ_last: Cycle,
    pub pb_blocked_since: Option<Cycle>,
    pub ops_completed: u64,
    /// Write-back buffer (§V-F): parks dirty private-cache evictions
    /// whose line still has preceding writes in the persist buffer.
    pub wbb: WriteBackBuffer,
}

impl Core {
    pub(super) fn cur_epoch(&self) -> EpochId {
        EpochId::new(self.tid, self.cur_ts)
    }
}

/// Simulator events.
#[derive(Debug)]
pub(super) enum Event {
    CoreStep(usize),
    TryFlush(usize),
    FlushArrive {
        tid: usize,
        entry_id: u64,
        mc: usize,
    },
    FlushReply {
        tid: usize,
        entry_id: u64,
        ok: bool,
    },
    SyncFlushArrive {
        tid: usize,
        line: LineAddr,
        seq: u64,
        mc: usize,
    },
    SyncFlushReply {
        tid: usize,
    },
    CommitArrive {
        mc: usize,
        epoch: EpochId,
    },
    CommitAckArrive {
        epoch: EpochId,
    },
    CdrArrive {
        tid: usize,
        src: EpochId,
    },
    HopsPoll {
        tid: usize,
    },
    /// Periodic observability sample (exists only when a [`Sampler`] is
    /// attached, so unsampled runs see an unchanged event stream).
    Sample,
}

/// The shared machine: everything of Table II that exists regardless of
/// the persistency design being simulated.
pub(super) struct Engine {
    pub cfg: SimConfig,
    pub flavor: Flavor,
    pub now: Cycle,
    pub queue: EventQueue<Event>,
    pub cores: Vec<Core>,
    pub programs: Vec<Box<dyn ThreadProgram>>,
    pub hub: CoherenceHub,
    pub mcs: Vec<MemController>,
    pub pm: PmSpace,
    pub nvm: NvmImage,
    pub journal: WriteJournal,
    pub deps: DepGraph,
    pub stats: Stats,
    /// Free-list recycling of the boxed line snapshots that travel
    /// store → persist buffer → flush → ack: steady state allocates
    /// nothing per store (the pool's counters are the audit).
    pub snap_pool: SnapshotPool,
    /// Per-run address interning for engine-side per-line state (the WBB
    /// and the release map). The coherence hub and each memory controller
    /// own their *own* tables: indices are component-local and never cross
    /// an API boundary.
    pub lines: LineTable,
    /// Release persistency: last release-store epoch per interned line
    /// (`release_map[idx]`, indexed through [`Engine::lines`]).
    pub release_map: Vec<Option<EpochId>>,
    /// Per-MC counting Bloom filters of NACKed flush addresses (§V-F):
    /// LLC evictions of a filtered line must wait for the retry.
    pub nack_filters: Vec<CountingBloom>,
    pub events_processed: u64,
    /// How many cores have finished (mirrors the per-core `done` flags):
    /// the run loop asks "all done?" once per event, and comparing one
    /// counter beats touching every core's (large) state block.
    pub done_count: usize,
    /// Whether the tracer is live. Every emission site branches on this
    /// plain bool (`ASAP_TRACE` is sampled once at construction: reading
    /// the environment per event costs more than dispatch itself), so a
    /// disabled tracer never reaches the sink.
    pub trace_on: bool,
    /// Structured trace sink (see [`asap_sim_core::Tracer`]). Observes
    /// only; never schedules simulation work.
    pub tracer: Box<dyn Tracer>,
    /// Periodic occupancy/bandwidth sampler, if attached.
    pub sampler: Option<Sampler>,
    /// Crash-point collector for the crash-space explorer, if attached
    /// (`SimBuilder::collect_crash_points`). Observes boundaries and the
    /// crash-state digest; never schedules simulation work.
    pub collector: Option<Box<CrashPoints>>,
    /// Construction-time model capabilities (see
    /// [`PersistencyModel::uses_pb`] / `wants_background_flush`).
    pub uses_pb: bool,
    pub flush_engine: bool,
    /// Recycled burst-generation buffers ([`BurstCtx::with_buffers`]):
    /// the op stream and preinit-line list round-trip through every
    /// burst instead of being allocated per burst. `mem::take`'d while
    /// in use, so a re-entrant path just sees (and pays for) an empty
    /// fresh buffer.
    pub burst_ops_scratch: Vec<MemOp>,
    pub preinit_scratch: Vec<LineAddr>,
    /// Recycled commit-protocol buffers: the early-MC set drained by
    /// `EpochTable::begin_commit_into` and the dependent list drained by
    /// `finish_commit_into`.
    pub commit_mcs_scratch: Vec<McId>,
    pub commit_deps_scratch: Vec<ThreadId>,
}

impl Engine {
    pub(super) fn new(
        cfg: SimConfig,
        flavor: Flavor,
        programs: Vec<Box<dyn ThreadProgram>>,
        journal: bool,
        uses_pb: bool,
        flush_engine: bool,
    ) -> Engine {
        let n = cfg.num_cores;
        let mut cores = Vec::with_capacity(n);
        let mut deps = DepGraph::new();
        for i in 0..n {
            let tid = ThreadId(i);
            let mut et = crate::et::EpochTable::new(tid, cfg.et_entries);
            et.open(0);
            deps.ensure(EpochId::new(tid, 0));
            cores.push(Core {
                tid,
                pb: PersistBuffer::new(cfg.pb_entries),
                et,
                cur_ts: 0,
                burst: VecDeque::new(),
                program_finished: false,
                retire_fence_issued: false,
                done: false,
                blocked: None,
                inflight: 0,
                core_free_at: Cycle::ZERO,
                step_scheduled: false,
                pb_occ_last: Cycle::ZERO,
                pb_blocked_since: None,
                ops_completed: 0,
                wbb: WriteBackBuffer::new(8),
            });
        }
        let hub = CoherenceHub::new(&cfg);
        let mcs = (0..cfg.num_mcs)
            .map(|i| MemController::new(McId(i), &cfg))
            .collect();
        // Pre-size the event queue to the steady-state population: each
        // core keeps at most a step plus its in-flight flushes pending,
        // each MC a handful of commit/reply messages. Sweeps run many
        // thousands of sims; never re-growing the heap is measurable.
        let mut queue = EventQueue::with_capacity(n * (cfg.pb_entries + 16) + cfg.num_mcs * 16);
        for i in 0..n {
            queue.push(Cycle::ZERO, Event::CoreStep(i));
        }
        let nack_filters = (0..cfg.num_mcs)
            .map(|_| CountingBloom::new(1024, 3))
            .collect();
        let mut eng = Engine {
            cfg,
            flavor,
            now: Cycle::ZERO,
            queue,
            cores,
            programs,
            hub,
            mcs,
            pm: PmSpace::new(),
            nvm: NvmImage::new(),
            journal: if journal {
                WriteJournal::enabled()
            } else {
                WriteJournal::disabled()
            },
            deps,
            stats: Stats::new(),
            snap_pool: SnapshotPool::new(),
            lines: LineTable::new(),
            release_map: Vec::new(),
            nack_filters,
            events_processed: 0,
            done_count: 0,
            // `ASAP_TRACE=0` / `""` / `off` must stay silent; only truthy
            // values enable the default text sink.
            trace_on: asap_sim_core::env_trace_enabled(),
            tracer: Box::new(NullTracer),
            sampler: None,
            collector: None,
            uses_pb,
            flush_engine,
            burst_ops_scratch: Vec::new(),
            preinit_scratch: Vec::new(),
            commit_mcs_scratch: Vec::new(),
            commit_deps_scratch: Vec::new(),
        };
        if eng.trace_on {
            eng.tracer = Box::new(TextTracer::stderr());
        }
        for c in &mut eng.cores {
            c.step_scheduled = true;
        }
        eng
    }

    // ---------------------------------------------------------------
    // Run loop
    // ---------------------------------------------------------------

    pub(super) fn run_until<M: PersistencyModel>(&mut self, m: &mut M, limit: Option<Cycle>) {
        const EVENT_BUDGET: u64 = 2_000_000_000;
        while !self.all_done() {
            // Unbounded runs (the common case) pop directly instead of
            // peeking first.
            if let Some(l) = limit {
                match self.queue.peek_time() {
                    Some(next_time) if next_time > l => {
                        self.now = l;
                        break;
                    }
                    Some(_) => {}
                    None => self.deadlock(m),
                }
            }
            let Some((t, ev)) = self.queue.pop() else {
                self.deadlock(m)
            };
            self.now = t;
            self.events_processed += 1;
            assert!(
                self.events_processed < EVENT_BUDGET,
                "event budget exhausted at {} after {} events (runaway simulation?) ev={:?} state={}",
                self.now,
                self.events_processed,
                ev,
                self.dump_state(m)
            );
            self.dispatch(m, ev);
            // Sample the crash-state digest after every event: digest
            // changes land on the timeline at the cycle that caused them.
            if self.collector.is_some() {
                self.note_crash_key(m);
            }
        }
        self.finish_accounting();
    }

    fn dispatch<M: PersistencyModel>(&mut self, m: &mut M, ev: Event) {
        match ev {
            Event::CoreStep(t) => self.core_step(m, t),
            Event::TryFlush(t) => self.try_flush(m, t),
            Event::FlushArrive { tid, entry_id, mc } => self.flush_arrive(m, tid, entry_id, mc),
            Event::FlushReply { tid, entry_id, ok } => {
                self.cores[tid].inflight -= 1;
                self.trace(if ok {
                    TraceRecord::FlushAck {
                        tid,
                        entry: entry_id,
                    }
                } else {
                    TraceRecord::FlushNack {
                        tid,
                        entry: entry_id,
                    }
                });
                m.on_flush_reply(self, tid, entry_id, ok);
            }
            Event::SyncFlushArrive { tid, line, seq, mc } => {
                m.on_sync_flush_arrive(self, tid, line, seq, mc)
            }
            Event::SyncFlushReply { tid } => {
                self.cores[tid].inflight -= 1;
                m.on_sync_flush_reply(self, tid);
            }
            Event::CommitArrive { mc, epoch } => self.commit_arrive(mc, epoch),
            Event::CommitAckArrive { epoch } => self.commit_ack_arrive(m, epoch),
            Event::CdrArrive { tid, src } => self.cdr_arrive(m, tid, src),
            Event::HopsPoll { tid } => m.on_poll(self, tid),
            Event::Sample => self.do_sample(),
        }
    }

    // ---------------------------------------------------------------
    // Observability
    // ---------------------------------------------------------------

    /// Hand a record to the trace sink (no-op with tracing off; the
    /// `trace_on` bool keeps the disabled path to a single branch).
    /// Boundary capture for the crash-point collector piggybacks here —
    /// independent of `trace_on`, so explorer runs need no live tracer.
    #[inline]
    pub(super) fn trace(&mut self, rec: TraceRecord) {
        if let Some(col) = self.collector.as_mut() {
            if let Some(kind) = BoundaryKind::of(&rec) {
                col.note_boundary(self.now.raw(), kind);
            }
        }
        if self.trace_on {
            self.tracer.record(self.now, rec);
        }
    }

    /// Digest the masked mutation counters of the crash-relevant state
    /// components. Within one deterministic run, equal digests imply an
    /// identical mutation prefix of every masked component — the
    /// crash-equivalence key of the explorer (see [`super::collect`]).
    pub(super) fn state_key(&self, mask: KeyMask) -> u64 {
        let mut h = FNV_OFFSET;
        if mask.journal {
            h = fnv1a_fold(h, &self.journal.version().to_le_bytes());
        }
        if mask.deps {
            h = fnv1a_fold(h, &self.deps.version().to_le_bytes());
        }
        if mask.nvm {
            h = fnv1a_fold(h, &self.nvm.version().to_le_bytes());
        }
        if mask.rt {
            for mc in &self.mcs {
                h = fnv1a_fold(h, &mc.rt().version().to_le_bytes());
            }
        }
        if mask.pb {
            for c in &self.cores {
                h = fnv1a_fold(h, &c.pb.version().to_le_bytes());
            }
        }
        h
    }

    /// Record the current crash-state digest on the collector timeline
    /// (no-op without a collector).
    pub(super) fn note_crash_key<M: PersistencyModel>(&mut self, m: &M) {
        let key = self.state_key(m.crash_key_mask());
        let now = self.now.raw();
        if let Some(col) = self.collector.as_mut() {
            col.note_key(now, key);
        }
    }

    /// Record one occupancy/bandwidth sample and reschedule the next
    /// sample event. Reads state only — the sampler cannot perturb
    /// simulated behaviour, merely observe it.
    fn do_sample(&mut self) {
        let now = self.now;
        let pb: usize = self.cores.iter().map(|c| c.pb.len()).sum();
        let et: usize = self.cores.iter().map(|c| c.et.len()).sum();
        let rt: usize = self.mcs.iter().map(|m| m.rt().occupancy()).sum();
        // `wpq_occupancy` prunes already-drained entries; the pruning is
        // idempotent bookkeeping, not a state change the simulation can
        // observe.
        let wpq: usize = self.mcs.iter_mut().map(|m| m.wpq_occupancy(now)).sum();
        let writes: Vec<u64> = self.mcs.iter().map(|m| m.media_writes()).collect();
        let all_done = self.all_done();
        let Some(s) = self.sampler.as_mut() else {
            return;
        };
        s.row(now, pb, et, rt, wpq, &writes);
        if !all_done {
            let next = now + s.every();
            self.schedule(next, Event::Sample);
        }
    }

    pub(super) fn all_done(&self) -> bool {
        debug_assert_eq!(
            self.done_count,
            self.cores.iter().filter(|c| c.done).count()
        );
        self.done_count == self.cores.len()
    }

    pub(super) fn finish_accounting(&mut self) {
        self.stats.finish(self.now);
        let num_cores = self.cores.len();
        for i in 0..num_cores {
            // Close open PB-occupancy and blocked intervals.
            let now = self.now;
            let c = &mut self.cores[i];
            let occ = c.pb.len();
            let dt = now.saturating_sub(c.pb_occ_last).raw();
            self.stats.pb_occupancy.record_n(occ as u64, dt);
            c.pb_occ_last = now;
            if let Some(s) = c.pb_blocked_since.take() {
                self.stats.cycles_blocked += now.saturating_sub(s).raw();
            }
            self.stats.et_occupancy.record(c.et.len() as u64);
        }
        self.stats.ops_completed = self.cores.iter().map(|c| c.ops_completed).sum();
        let rt_max = self
            .mcs
            .iter()
            .map(|m| m.rt().max_occupancy())
            .max()
            .unwrap_or(0);
        self.stats.rt_occupancy.record(rt_max as u64);
        let wpq_coalesced: u64 = self.mcs.iter().map(|m| m.wpq_coalesced()).sum();
        self.stats.wpq_coalesced = wpq_coalesced;
    }

    /// Abort on an empty event queue with unfinished threads.
    #[cold]
    fn deadlock<M: PersistencyModel>(&self, m: &M) -> ! {
        panic!(
            "deadlock at {}: no events pending but threads unfinished: {}",
            self.now,
            self.dump_state(m)
        );
    }

    /// Diagnostic snapshot of every unfinished core (deadlock reports).
    pub(super) fn dump_state<M: PersistencyModel>(&self, m: &M) -> String {
        self.cores
            .iter()
            .filter(|c| !c.done)
            .map(|c| {
                let states: Vec<String> =
                    c.pb.iter()
                        .take(4)
                        .map(|e| format!("{}@{}:{:?}", e.epoch, e.line, e.state))
                        .collect();
                format!(
                    "[{}: blocked={:?} pb={} et={} cur_ts={} inflight={} conservative={} \
                     oldest_safe={:?} oldest_dep={:?} head={:?}]",
                    c.tid,
                    c.blocked.as_ref().map(block_name),
                    c.pb.len(),
                    c.et.len(),
                    c.cur_ts,
                    c.inflight,
                    m.debug_conservative(c.tid.0),
                    c.et.oldest_safe_ts(),
                    c.et.oldest_unresolved_dep(),
                    states
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    // ---------------------------------------------------------------
    // Scheduling helpers
    // ---------------------------------------------------------------

    pub(super) fn schedule(&mut self, at: Cycle, ev: Event) {
        self.queue.push(at.max(self.now), ev);
    }

    pub(super) fn schedule_step(&mut self, t: usize, at: Cycle) {
        if !self.cores[t].step_scheduled && !self.cores[t].done {
            self.cores[t].step_scheduled = true;
            self.schedule(at, Event::CoreStep(t));
        }
    }

    pub(super) fn schedule_flush(&mut self, t: usize) {
        if self.flush_engine {
            // The flush engine arbitrates a few cycles after enqueue;
            // the slack also lets back-to-back stores to one line inside
            // a burst coalesce instead of racing their own flush.
            self.schedule(self.now + Cycle(8), Event::TryFlush(t));
        }
    }

    pub(super) fn finish_op(&mut self, t: usize, latency: Cycle) {
        let free = self.now + latency.max(Cycle(1));
        self.cores[t].core_free_at = free;
        self.schedule_step(t, free);
    }

    // ---------------------------------------------------------------
    // Shared bookkeeping
    // ---------------------------------------------------------------

    /// Intern `line` in the engine's table, growing the dense release map
    /// alongside it so `release_map[idx]` is always in bounds.
    #[inline]
    pub(super) fn intern_line(&mut self, line: LineAddr) -> LineIdx {
        let idx = self.lines.intern(line);
        if idx.as_usize() >= self.release_map.len() {
            self.release_map.resize(idx.as_usize() + 1, None);
        }
        idx
    }

    /// Advance the epoch counter without ET bookkeeping (baseline and
    /// battery-backed fences).
    pub(super) fn advance_epoch_untracked(&mut self, t: usize) {
        self.cores[t].cur_ts += 1;
        let e = self.cores[t].cur_epoch();
        self.deps.ensure(e);
        self.stats.epochs_created += 1;
    }

    pub(super) fn wake_safe_nacked(&mut self, t: usize) {
        // Only the oldest in-flight epoch can be safe; NACKed entries of
        // committed epochs cannot exist (their acks never arrived).
        let safe_ts = self.cores[t].et.oldest_safe_ts();
        let woken = self.cores[t].pb.wake_nacked(|e| Some(e.ts) == safe_ts);
        if woken > 0 {
            self.schedule_flush(t);
        }
    }

    pub(super) fn unblock_pb_full(&mut self, t: usize) {
        if matches!(self.cores[t].blocked, Some(Block::PbFull { .. }))
            && !self.cores[t].pb.is_full()
        {
            let Some(Block::PbFull { since, op }) = self.cores[t].blocked.take() else {
                unreachable!()
            };
            self.stats.cycles_stalled += self.now.saturating_sub(since).raw();
            self.trace(TraceRecord::StallEnd {
                tid: t,
                reason: "PbFull",
            });
            self.cores[t].burst.push_front(op);
            self.schedule_step(t, self.now);
        }
    }

    pub(super) fn note_pb_occ_change(&mut self, t: usize, occ_before: usize) {
        let dt = self.now.saturating_sub(self.cores[t].pb_occ_last).raw();
        self.stats.pb_occupancy.record_n(occ_before as u64, dt);
        self.cores[t].pb_occ_last = self.now;
    }

    pub(super) fn update_pb_blocked<M: PersistencyModel>(&mut self, m: &M, t: usize) {
        if !self.uses_pb {
            return;
        }
        // Ordering-blocked (Figure 3): a write is sitting in the buffer
        // that the flush policy refuses to issue. Buffers that are merely
        // waiting for in-flight acks are bandwidth-limited, not blocked.
        let blocked_now = {
            let core = &self.cores[t];
            core.pb.has_waiting()
                && core
                    .pb
                    .next_flushable(|e| m.epoch_eligible(self, t, e), !m.relaxed_lines(t))
                    .is_none()
        };
        match (self.cores[t].pb_blocked_since, blocked_now) {
            (None, true) => self.cores[t].pb_blocked_since = Some(self.now),
            (Some(s), false) => {
                self.stats.cycles_blocked += self.now.saturating_sub(s).raw();
                self.cores[t].pb_blocked_since = None;
            }
            _ => {}
        }
    }
}

pub(super) fn block_name(b: &Block) -> &'static str {
    match b {
        Block::PbFull { .. } => "PbFull",
        Block::EtFull { .. } => "EtFull",
        Block::DFence { .. } => "DFence",
        Block::SyncFence { .. } => "SyncFence",
    }
}
