//! `asap_bench`: one benchmark for the ASAP reproduction's real jobs —
//! the paper-scale Figure 8 sweep, the quick open-loop traffic sweep, the
//! crash-explore suite and cached executor sweeps — plus a traced
//! per-layer ledger of where their host time and simulated cycles go.
//!
//! The benchmark calls the public functions of `harness`,
//! `analysis::explore`, `cache-sim` and `sim-core` and times each call
//! from outside; it changes nothing in them. `BENCHMARK.json` at the
//! repository root declares the workloads and metrics, `plan.json` beside
//! this crate the repeats, pinned output digests and layer map. See
//! `README.md` for the workloads, metrics and protocol.

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod compare;
pub mod jobs;
pub mod json;
pub mod ledger;
pub mod parent;
pub mod probe;
pub mod replay;
pub mod spans;
pub mod spec;
pub mod stats;
