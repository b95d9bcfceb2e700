//! **ASAP** — the paper's persistency architecture, plus the designs it is
//! evaluated against.
//!
//! This crate is the primary contribution of the reproduction: a timing
//! simulator of five persistency hardware designs over the shared
//! cache/memory-controller substrate:
//!
//! * [`ModelKind::Baseline`] — Intel-like synchronous ordering
//!   (`clwb` + `sfence` stalls at every persist barrier);
//! * [`ModelKind::Hops`] — persist buffers with *conservative* flushing
//!   and a polled global timestamp register for cross-thread
//!   dependencies;
//! * [`ModelKind::Asap`] — the paper's design: **eager, possibly
//!   out-of-order flushing** with *early* bits, speculative memory
//!   updates guarded by per-MC **recovery tables**, commit/CDR
//!   messages, and NACK fallback to conservative flushing (the §V-F
//!   write-back buffer and NACK Bloom filter are not modelled: the
//!   caches never write a PM line back, so there is no eviction for
//!   them to hold back);
//! * [`ModelKind::Eadr`] — eADR: everything in the cache hierarchy is
//!   effectively durable, fences are (nearly) free. The "ideal" bound.
//! * [`ModelKind::Bbb`] — BBB: battery-backed persist buffers — durable
//!   at buffer insertion, draining to NVM in the background; the paper
//!   plots it with eADR.
//!
//! Each model supports both epoch persistency ([`Flavor::Epoch`]) and
//! release persistency ([`Flavor::Release`]) where the distinction is
//! meaningful.
//!
//! ## Structure
//!
//! * [`ops`] — the micro-op stream interface between workloads and the
//!   simulator: [`ThreadProgram`]s generate [`MemOp`]s through a
//!   [`BurstCtx`] that performs the *functional* execution.
//! * [`PersistBuffer`] / [`EpochTable`] — the per-core hardware ASAP adds
//!   (Fig. 6).
//! * [`DepGraph`] — the global epoch-dependency DAG (Fig. 7), used both
//!   by the protocol bookkeeping and the correctness oracle.
//! * [`Sim`] — the event-driven system simulator tying cores, caches,
//!   persist hardware and memory controllers together. Internally it is
//!   split along the protocol seam: a model-agnostic *engine* (per-core
//!   state, event queue, run loop) plus shared *flows* (core execution,
//!   load/store path, flush pipeline, commit protocol) on one side, and
//!   one `PersistencyModel` trait implementation per design on the
//!   other. The engine never branches on [`ModelKind`]; the
//!   `ModelDispatch` enum picks the implementation when
//!   [`SimBuilder::build`] runs, `Sim` matches it once per run so the
//!   engine executes on the concrete model, and each design keeps its
//!   private per-core state (baseline's dirty sets, HOPS' timestamp
//!   registers, ASAP's conservative-mode flags) inside its own model
//!   struct. See the `sim` module docs for the hook contract.
//! * [`oracle`] — the machine-checked version of §VI: after a simulated
//!   crash, verifies that recovered NVM is ordering-consistent.
//!
//! # Example: run a tiny program under ASAP and crash it
//!
//! ```
//! use asap_core::ops::{BurstCtx, BurstStatus, ThreadProgram};
//! use asap_core::{Sim, SimBuilder};
//! use asap_sim_core::{Cycle, Flavor, ModelKind, SimConfig, ThreadId};
//!
//! struct TwoEpochs(u32);
//! impl ThreadProgram for TwoEpochs {
//!     fn next_burst(&mut self, _t: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
//!         if self.0 == 0 {
//!             return BurstStatus::Finished;
//!         }
//!         self.0 -= 1;
//!         ctx.store_u64(0x1000, 1); // "log"
//!         ctx.ofence();
//!         ctx.store_u64(0x2000, 2); // "data"
//!         ctx.ofence();
//!         BurstStatus::Running
//!     }
//! }
//!
//! let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
//!     .with_journal()
//!     .program(Box::new(TwoEpochs(3)))
//!     .build();
//! sim.run_to_completion();
//! // Crash *after* completion: trivially consistent. The `Err` case is
//! // building without `.with_journal()`.
//! let report = sim.crash_and_check().unwrap();
//! assert!(report.is_consistent());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod deps;
pub mod et;
pub mod ops;
pub mod oracle;
pub mod pb;
pub mod race;
mod sim;

pub use deps::DepGraph;
pub use et::{EpochStatus, EpochTable};
pub use ops::{BurstCtx, BurstStatus, MemOp, ThreadProgram};
pub use oracle::{CrashReport, OracleError, Violation, ViolationRule};
pub use pb::{PbEntry, PbEntryState, PersistBuffer};
pub use race::{RaceFinding, RaceReport};
pub use sim::{BoundaryKind, CrashPoints, KeyMask, Sim, SimBuilder, SimOutcome};

// Re-export the model/flavor selectors where users expect them.
pub use asap_sim_core::{Flavor, ModelKind};
