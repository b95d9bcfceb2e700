//! Experiment harness: regenerates every table and figure of the ASAP
//! paper's evaluation (§VII).
//!
//! Each `figXX_*` function runs the necessary simulations and returns a
//! [`Table`] whose rows mirror the corresponding figure's series; the
//! binaries in `src/bin/` are thin CLI wrappers that print the tables
//! (markdown to stdout, optionally CSV).
//!
//! Every sweep first builds a flat `Vec<RunSpec>` and then fans it out
//! across the [`pool`] executor (all cores by default; `ASAP_THREADS`
//! or `--threads N` to override). Each simulation is deterministic and
//! results are collected in input order, so the emitted tables are
//! byte-identical to a serial run — only the wall clock changes.
//!
//! | entry point | paper artefact |
//! |---|---|
//! | [`experiments::fig02_epochs`] | Fig. 2 — epochs & cross-thread deps per 1 ms |
//! | [`experiments::fig03_pb_stalls`] | Fig. 3 — % cycles persist buffers blocked (HOPS) |
//! | [`experiments::fig08_performance`] | Fig. 8 — speedups over the Intel baseline |
//! | [`experiments::fig09_writes`] | Fig. 9 — PM write operations, ASAP vs HOPS |
//! | [`experiments::fig10_scaling`] | Fig. 10 — core-count sensitivity |
//! | [`experiments::fig11_pb_occupancy`] | Fig. 11 — PB occupancy avg / p99 |
//! | [`experiments::fig12_rt_occupancy`] | Fig. 12 — RT max occupancy, 4 vs 8 threads |
//! | [`experiments::fig13_bandwidth`] | Fig. 13 — system write-bandwidth utilization |
//! | [`hwcost::table5`] | Table V — hardware cost (analytical CACTI substitute) |
//! | [`experiments::ablations`] | DESIGN.md ablations (RT/PB size, NVM latency, MC count) |
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
pub mod proto;
mod report;
mod runner;
pub mod traffic;

pub use report::Table;
pub use runner::{
    prewarm_workloads, run_once, run_race_check, run_roi, run_window, workload_bank_stats,
    RunManifest, RunOutcome, RunSpec,
};

/// Parse the shared CLI convention of the harness binaries — one call
/// to [`args::SweepArgs::init`], which handles `--full`, `--seed N`,
/// `--threads N`/`--workers N` ([`pool::num_workers`]), `--progress`
/// and the sweep-executor flags,
/// then installs the process-global settings. Binaries that only need
/// the scale (fig02–fig13) call this; binaries that also cache/fan out
/// keep the returned [`args::SweepArgs`] via `SweepArgs::init()`.
///
/// Malformed numeric values exit with status 2 and a diagnostic
/// (see [`args`]) instead of silently running with defaults.
pub fn cli_scale() -> experiments::ExperimentScale {
    args::SweepArgs::init().scale()
}

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
/// plus CSV when `--csv` was passed, plus an ASCII bar chart of a chosen
/// column when `--bars <column>` was passed.
pub fn cli_emit(table: &Table) {
    println!("{}", table.to_markdown());
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--csv") {
        println!("{}", table.to_csv());
    }
    if let Some(i) = args.iter().position(|a| a == "--bars") {
        if let Some(col) = args.get(i + 1) {
            println!("{}", table.to_bars(col));
        }
    }
}
