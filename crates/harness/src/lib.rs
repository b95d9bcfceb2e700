//! Experiment harness: regenerates every table and figure of the ASAP
//! paper's evaluation (§VII).
//!
//! Each figure is one entry of the [`experiments::FIGURES`] registry: a
//! spec builder plus a table builder whose rows mirror the figure's
//! series. [`exec::sweep_figure`] runs any entry through the sweep
//! executor, and the `asap_sweep <name>` binary prints its tables
//! (markdown to stdout, optionally CSV).
//!
//! Every sweep first builds a flat `Vec<RunSpec>` and then fans it out
//! across the [`pool`] executor (all cores by default; `ASAP_THREADS`
//! or `--threads N` to override), optionally behind the outcome cache.
//! Each simulation is deterministic and results are collected in input
//! order, so the emitted tables are byte-identical to a serial run —
//! only the wall clock changes.
//!
//! | registry entry | paper artefact |
//! |---|---|
//! | `fig02` | Fig. 2 — epochs & cross-thread deps per 1 ms |
//! | `fig03` | Fig. 3 — % cycles persist buffers blocked (HOPS) |
//! | `fig08` | Fig. 8 — speedups over the Intel baseline, plus §VII-A headline numbers |
//! | `fig09` | Fig. 9 — PM write operations, ASAP vs HOPS |
//! | `fig10` | Fig. 10 — core-count sensitivity |
//! | `fig11` | Fig. 11 — PB occupancy avg / p99 |
//! | `fig12` | Fig. 12 — RT max occupancy, 4 vs 8 threads |
//! | `fig13` | Fig. 13 — system write-bandwidth utilization |
//! | `ablations` | DESIGN.md ablations (RT/PB size, NVM latency, MC count) |
//! | `tab05` | Table V — hardware cost ([`hwcost::table5`], no legs) |
//!
//! Table V is an analytical CACTI substitute, so its entry has no legs:
//! its tables come straight from [`hwcost`].
//!
//! # Example
//!
//! ```
//! use asap_harness::{run_once, RunSpec};
//! use asap_sim_core::{Flavor, ModelKind, SimConfig};
//! use asap_workloads::WorkloadKind;
//!
//! let spec = RunSpec {
//!     config: SimConfig::paper(),
//!     model: ModelKind::Asap,
//!     flavor: Flavor::Release,
//!     workload: WorkloadKind::Queue,
//!     ops_per_thread: 30,
//!     seed: 1,
//! };
//! let out = run_once(&spec);
//! assert!(out.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod args;
pub mod cache;
pub mod exec;
pub mod experiments;
pub mod hwcost;
pub mod pool;
mod report;
mod runner;
pub mod traffic;

pub use report::Table;
pub use runner::{
    prewarm_workloads, run_once, run_race_check, run_window, workload_bank_stats, RunManifest,
    RunOutcome, RunSpec,
};

/// Print a wall-clock footer for a sweep binary on stderr (stdout stays
/// clean for piped table output), seeding per-figure timing visibility.
pub fn cli_footer(started: std::time::Instant) {
    eprintln!(
        "# wall-clock {:.3?} on {} worker(s)",
        started.elapsed(),
        pool::num_workers()
    );
}

/// Emit a result table per the shared CLI convention: markdown to stdout,
/// plus CSV when `--csv` was passed.
pub fn cli_emit(table: &Table) {
    println!("{}", table.to_markdown());
    if std::env::args().any(|a| a == "--csv") {
        println!("{}", table.to_csv());
    }
}
