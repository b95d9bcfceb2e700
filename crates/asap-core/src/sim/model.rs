//! The persistency-model protocol layer.
//!
//! [`PersistencyModel`] is the seam between the model-agnostic event
//! machine ([`Engine`]) and the five persistency designs of the paper.
//! The engine owns everything every design shares — cores, caches,
//! persist buffers, epoch tables, memory controllers, the event queue —
//! and calls a hook at each point where the designs diverge: what
//! happens on a store, a fence, a flush ack/NACK, an epoch commit, a
//! cross-thread dependency, a crash. The crash hook only reads: it
//! drains battery-backed state into a clone of the NVM image, so one
//! non-destructive crash path serves both the one-shot oracle and the
//! crash-space explorer.
//!
//! The model is chosen at construction time ([`ModelDispatch::new`]) and
//! dispatched once per `Sim` entry point, not per hook: the engine never
//! branches on [`ModelKind`], so adding a design means adding an
//! implementation file and an enum arm, not editing the machine.

use super::collect::KeyMask;
use super::engine::Engine;
use crate::ops::MemOp;
use asap_pm_mem::{LineSnapshot, NvmImage, WriteSeq};
use asap_sim_core::{EpochId, LineAddr, ModelKind, ThreadId};

/// A store leaving the core, after coherence and epoch assignment but
/// before the persist path sees it. `addr`/`seq`/`data`/`release` are
/// kept so a model that must stall the core can re-park the original op
/// (see [`StoreOp::park`]).
pub(super) struct StoreOp {
    pub addr: u64,
    pub line: LineAddr,
    pub seq: WriteSeq,
    pub data: Box<LineSnapshot>,
    pub release: bool,
    pub epoch: EpochId,
}

impl StoreOp {
    /// Rebuild the original memory op (for re-parking on a stall).
    pub(super) fn park(addr: u64, seq: WriteSeq, data: Box<LineSnapshot>, release: bool) -> MemOp {
        if release {
            MemOp::Release { addr, seq, data }
        } else {
            MemOp::Store { addr, seq, data }
        }
    }
}

/// Protocol hooks for one persistency design.
///
/// Hooks take `(&mut self, eng: &mut Engine, ..)`: model state and
/// engine state are disjoint, so a hook can re-enter engine flows that
/// themselves are generic over `M: PersistencyModel` (e.g.
/// `eng.split_epoch(self, t)`), statically dispatched on the concrete
/// model.
pub(super) trait PersistencyModel {
    /// Does this design route stores through a tracked persist buffer
    /// with epoch-table accounting (HOPS, ASAP)?
    fn uses_pb(&self) -> bool {
        false
    }

    /// A store retired from the core. Return `false` if the core is now
    /// stalled (the hook has parked the op); the engine then skips
    /// release handling and op completion.
    fn on_store(&mut self, eng: &mut Engine, t: usize, op: StoreOp) -> bool;

    /// An `ofence` (intra-thread ordering fence).
    fn on_ofence(&mut self, eng: &mut Engine, t: usize);

    /// A `dfence` (durability fence).
    fn on_dfence(&mut self, eng: &mut Engine, t: usize);

    /// May the flush engine reorder same-line flushes across epochs for
    /// thread `t` (the recovery table sorts them out)?
    fn relaxed_lines(&self, _t: usize) -> bool {
        false
    }

    /// May the flush engine issue entries of epoch `e` for thread `t`?
    fn epoch_eligible(&self, _eng: &Engine, _t: usize, _e: EpochId) -> bool {
        false
    }

    /// Is a flush of thread `t`'s epoch `ts` issued *early* (before the
    /// epoch is safe), requiring recovery-table protection?
    fn flushes_early(&self, _eng: &Engine, _t: usize, _ts: u64) -> bool {
        false
    }

    /// A flush ack (`ok`) or NACK (`!ok`) returned to thread `tid` for
    /// persist-buffer entry `entry_id`.
    fn on_flush_reply(&mut self, _eng: &mut Engine, _tid: usize, _entry_id: u64, _ok: bool) {
        unreachable!("this model issues no persist-buffer flushes");
    }

    /// Must an epoch commit round-trip to the MCs that saw its early
    /// flushes (ASAP's recovery-table cleanup) before finalizing?
    fn commit_needs_mc_roundtrip(&self) -> bool {
        false
    }

    /// Thread `t`'s epoch `ts` just committed (dependency graph and
    /// stats already updated). `dependents` are the threads whose epochs
    /// wait on this one. Runs *before* the engine releases fences.
    fn on_commit(&mut self, _eng: &mut Engine, _t: usize, _ts: u64, _dependents: &[ThreadId]) {}

    /// Late commit hook: runs after the engine has released blocked
    /// fences for thread `t` but before it re-arms the flush engine.
    fn on_commit_settled(&mut self, _eng: &mut Engine, _t: usize) {}

    /// Thread `t` just registered a cross-thread dependency.
    fn on_cross_dep(&mut self, _eng: &mut Engine, _t: usize) {}

    /// A CDR (or poll-resolved) message finished processing at `tid`.
    fn on_cdr(&mut self, _eng: &mut Engine, _tid: usize) {}

    /// A scheduled poll event fired for `tid` (HOPS global timestamp).
    fn on_poll(&mut self, _eng: &mut Engine, _tid: usize) {}

    /// A synchronous (baseline) flush arrived at MC `mc`.
    fn on_sync_flush_arrive(
        &mut self,
        _eng: &mut Engine,
        _tid: usize,
        _line: LineAddr,
        _seq: u64,
        _mc: usize,
    ) {
        unreachable!("this model issues no synchronous flushes");
    }

    /// A synchronous flush ack returned to thread `tid`.
    fn on_sync_flush_reply(&mut self, _eng: &mut Engine, _tid: usize) {
        unreachable!("this model issues no synchronous flushes");
    }

    /// Power failed. Apply battery-backed drains to `nvm`, a clone of
    /// the live image, without mutating engine or model state. Return
    /// `true` to skip the recovery oracle entirely (the whole hierarchy
    /// is durable, so recovery is trivially consistent). This is the
    /// only crash hook: `Sim::crash_check_now` recovers through it and
    /// `Sim::crash_and_check` installs the image it leaves.
    fn on_crash_preview(&self, _eng: &Engine, _nvm: &mut NvmImage) -> bool {
        false
    }

    /// Which state components this design's crash path actually reads —
    /// the mask over the engine's mutation counters that defines crash
    /// equivalence for the explorer (see [`KeyMask`]).
    fn crash_key_mask(&self) -> KeyMask {
        KeyMask::tracked()
    }

    /// Whether thread `t` is in conservative-flush fallback (deadlock
    /// diagnostics only).
    fn debug_conservative(&self, _t: usize) -> bool {
        false
    }
}

/// Closed-world choice of one of the five concrete persistency models.
///
/// The engine's run loop, flows and hooks are generic over
/// `M: PersistencyModel`. [`Sim`](super::Sim) matches this enum once
/// per entry point (`each_model!`: the run loop, the build-time crash
/// key, the crash preview), so a whole run executes on the concrete
/// model and every hook is a direct, inlinable call. This is the only
/// place a `ModelKind` is mapped to protocol behaviour.
pub(super) enum ModelDispatch {
    /// Synchronous write-back baseline (`clwb + sfence` persist path).
    Baseline(super::baseline::BaselineModel),
    /// HOPS: tracked persist buffers with a global timestamp protocol.
    Hops(super::hops::HopsModel),
    /// ASAP: speculative early flushes guarded by a recovery table.
    Asap(super::asap::AsapModel),
    /// eADR: the whole cache hierarchy is battery-backed.
    Eadr(super::eadr_bbb::EadrModel),
    /// BBB: battery-backed persist buffers, no tracking.
    Bbb(super::eadr_bbb::BbbModel),
}

impl ModelDispatch {
    /// The model for `kind`, with per-thread state sized for `n` cores.
    pub(super) fn new(kind: ModelKind, n: usize) -> ModelDispatch {
        match kind {
            ModelKind::Baseline => ModelDispatch::Baseline(super::baseline::BaselineModel::new(n)),
            ModelKind::Hops => ModelDispatch::Hops(super::hops::HopsModel::new(n)),
            ModelKind::Asap => ModelDispatch::Asap(super::asap::AsapModel::new(n)),
            ModelKind::Eadr => ModelDispatch::Eadr(super::eadr_bbb::EadrModel),
            ModelKind::Bbb => ModelDispatch::Bbb(super::eadr_bbb::BbbModel),
        }
    }
}

/// Expand `$body` once per variant with `$m` bound to the inner model
/// (by reference when `$model` is one): the one place a run crosses from
/// the enum to the concrete model.
macro_rules! each_model {
    ($model:expr, $m:ident => $body:expr) => {
        match $model {
            ModelDispatch::Baseline($m) => $body,
            ModelDispatch::Hops($m) => $body,
            ModelDispatch::Asap($m) => $body,
            ModelDispatch::Eadr($m) => $body,
            ModelDispatch::Bbb($m) => $body,
        }
    };
}
pub(super) use each_model;
