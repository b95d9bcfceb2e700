//! # asap — a reproduction of *ASAP: A Speculative Approach to Persistence* (HPCA 2022)
//!
//! This facade crate re-exports the whole workspace so examples and
//! downstream users can depend on a single crate:
//!
//! * [`sim`] — discrete-event engine, configuration (Table II), stats
//!   (Table VI names), deterministic RNG.
//! * [`pm`] — functional persistent-memory space, MC interleaving,
//!   allocator, timing-accurate NVM image and write journal.
//! * [`cache`] — MESI private caches and directory LLC.
//! * [`mc`] — memory controllers: WPQ, NVM timing, recovery tables
//!   (undo/delay records), NACK backpressure, ADR crash drain.
//! * [`model`] — the persistency hardware models: Intel-like baseline,
//!   HOPS, **ASAP** (the paper's contribution) and eADR/BBB, in both
//!   epoch- and release-persistency flavours.
//! * [`workloads`] — the Table III workload suite re-implemented as
//!   instrumented persistent data structures.
//! * [`analysis`] — static analysis over the workload IR: the
//!   `persist_lint` flush/fence-discipline rules and the driver for the
//!   happens-before persist-race detector.
//! * [`harness`] — experiment drivers reproducing every figure and table
//!   in the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use asap::harness::{run_once, RunSpec};
//! use asap::sim::{Flavor, ModelKind, SimConfig};
//! use asap::workloads::WorkloadKind;
//!
//! let spec = RunSpec {
//!     config: SimConfig::paper(),
//!     model: ModelKind::Asap,
//!     flavor: Flavor::Release,
//!     workload: WorkloadKind::Queue,
//!     ops_per_thread: 50,
//!     seed: 1,
//! };
//! let outcome = run_once(&spec);
//! assert!(outcome.stats.ops_completed > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use asap_analysis as analysis;
pub use asap_cache_sim as cache;
pub use asap_core as model;
pub use asap_harness as harness;
pub use asap_memctrl as mc;
pub use asap_pm_mem as pm;
pub use asap_sim_core as sim;
pub use asap_workloads as workloads;
