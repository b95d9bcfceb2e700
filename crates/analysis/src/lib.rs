//! Static analysis for the ASAP reproduction.
//!
//! Two passes over workload behaviour, neither of which needs a timing
//! simulation to *interpret* its results:
//!
//! 1. **`persist_lint`** ([`lint`] + [`rules`]) — a purely static walker
//!    over the micro-op streams a workload generates ([`extract`]). It
//!    segments each thread's stream into persist epochs and checks the
//!    flush/fence discipline: stores left unpersisted at program end,
//!    redundant flushes, fences with nothing to order, stores that dirty
//!    a line after it was flushed, and programs with no persist barriers
//!    at all. The rules are an `(id, check)` table, [`rules::RULES`],
//!    that [`lint_streams`] runs; findings are machine-readable
//!    ([`Finding`]) and render to a deterministic text/JSON report
//!    ([`report`]).
//!
//! 2. **persist-race detection** — a happens-before check over the write
//!    journal and epoch dependency DAG of a *real* simulation run
//!    (`asap_core::race`; driven per-workload by the harness's
//!    `run_race_check`, its findings mapped by [`driver::race_findings`]).
//!    Conflicting persists to the same cache line that no
//!    fence/dependency chain orders are flagged as races: after a crash,
//!    recovery could observe them in either order.
//!
//! Known-benign findings in the shipped workloads are waived via the
//! built-in [`waivers`] table; waived findings still appear in reports,
//! annotated `#[allow(persist_lint::<rule>)]`-style, but do not fail the
//! `--deny-warnings` CI gate.
//!
//! Deliberately-broken mini-workloads for exercising each rule live in
//! [`fixtures`].
//!
//! 3. **crash-space exploration** ([`explore`]) — the dynamic
//!    counterpart to the lint pass: machine-checks the paper's recovery
//!    theorems (crash consistency under Theorems 1–2) over *every*
//!    crash instant of a workload run, pruned by a crash-state
//!    equivalence relation so ~10⁶-point spaces verify in seconds. See
//!    the module docs for the two-pass collect/verify architecture; the
//!    `crash_explore` harness binary fans the verify pass out over a
//!    worker pool with byte-identical reports at any worker count.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod driver;
pub mod explore;
pub mod extract;
pub mod fixtures;
pub mod lint;
pub mod report;
pub mod rules;
pub mod waivers;

pub use driver::AnalysisParams;
pub use explore::{explore_all, CrashSpaceReport, ExploreParams, PruneMode};
pub use extract::{extract_streams, ExtractedStreams};
pub use lint::{lint_streams, Finding, Severity, ThreadStream};
pub use report::{LintRun, WorkloadLintReport};
pub use waivers::Waiver;
