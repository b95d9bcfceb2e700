//! The sweep executor: incremental, and resumable through its cache.
//!
//! [`run_sweep`] is the one engine behind every sweep: each registry
//! figure ([`sweep_figure`]), the traffic sweep ([`sweep_traffic`]) and
//! the binaries built on them. Given `n` legs (a digest, a run closure
//! and a codec per leg) plus the shared [`SweepArgs`], it:
//!
//! 1. **probes** — with `--cache-dir`, loads every leg's entry from the
//!    [`crate::cache::OutcomeCache`] and strict-decodes it (corrupted ⇒
//!    miss ⇒ re-run);
//! 2. **executes** — the missing legs run on the in-process pool
//!    ([`pool::par_map`]), each completion stored in the cache *before*
//!    the sweep finishes;
//! 3. **assembles** — results land in input order, so a table built
//!    from them is byte-identical however the legs were executed:
//!    serial, pooled or cached. That is the `par_map` contract of the
//!    pool, extended across process restarts.
//!
//! The outcome cache is the sweep's only record of a finished leg. A
//! killed sweep loses only its in-flight legs: rerunning it into the
//! same `--cache-dir` loads every stored leg and simulates the rest.

use crate::args::SweepArgs;
use crate::cache::{self, OutcomeCache};
use crate::experiments::{ExperimentScale, Figure};
use crate::pool;
use crate::report::Table;
use crate::runner::{run_once, run_window, RunOutcome, RunSpec};
use crate::traffic::{run_traffic, TrafficOutcome, TrafficSpec};
use asap_sim_core::Cycle;
use std::time::Instant;

/// What a sweep did, for stderr summaries and the CI cache-stats
/// artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Sweep label: the figure name, `traffic` or `crash_explore`.
    pub label: String,
    /// Total legs in the sweep.
    pub legs: usize,
    /// Legs answered from the outcome cache.
    pub cached: usize,
    /// Legs simulated by this run.
    pub simulated: usize,
    /// Pool worker threads.
    pub workers: usize,
    /// Wall-clock of the whole sweep, milliseconds.
    pub wall_ms: f64,
}

impl SweepReport {
    /// One-line stderr summary (the `(cached)` marker of reports).
    pub fn summary(&self) -> String {
        format!(
            "# sweep {}: {} legs = {} cached + {} simulated in {:.1} ms on {} worker(s)",
            self.label, self.legs, self.cached, self.simulated, self.wall_ms, self.workers,
        )
    }

    /// Hand-rolled JSON for the `--cache-stats` artifact.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"sweep\":\"{}\",\"legs\":{},\"cached\":{},\"simulated\":{},",
                "\"workers\":{},\"wall_ms\":{:.3}}}"
            ),
            self.label, self.legs, self.cached, self.simulated, self.workers, self.wall_ms,
        )
    }
}

/// Run an `n`-leg sweep through the cache pipeline (see the module
/// docs). Returns one outcome per leg in input order, plus the report.
/// An unusable `--cache-dir` terminates the process with a diagnostic.
pub fn run_sweep<O, FDig, FRun, FEnc, FDec>(
    label: &str,
    n: usize,
    digest_of: FDig,
    run: FRun,
    encode: FEnc,
    decode: FDec,
    sa: &SweepArgs,
) -> (Vec<O>, SweepReport)
where
    O: Send,
    FDig: Fn(usize) -> u64,
    FRun: Fn(usize) -> O + Sync,
    FEnc: Fn(&O) -> String + Sync,
    FDec: Fn(&str) -> Option<O> + Sync,
{
    let digests: Vec<u64> = (0..n).map(digest_of).collect();
    let started = Instant::now();
    let cache = sa.cache_dir.as_ref().map(|d| {
        OutcomeCache::open(d).unwrap_or_else(|e| {
            eprintln!("error: cannot open --cache-dir {d}: {e}");
            std::process::exit(2);
        })
    });

    // Probe the cache for every leg.
    let mut results: Vec<Option<O>> = digests
        .iter()
        .map(|&d| cache.as_ref()?.load(d).and_then(|p| decode(&p)))
        .collect();
    let todo: Vec<usize> = (0..n).filter(|&i| results[i].is_none()).collect();

    if !todo.is_empty() {
        // The pool prints its own progress over `todo`. Each leg is
        // stored as it completes, so a killed sweep loses only the legs
        // in flight.
        let outs = pool::par_map(&todo, |&i| {
            let o = run(i);
            if let Some(c) = &cache {
                if let Err(e) = c.store(digests[i], &encode(&o)) {
                    eprintln!("# warning: cache store failed for leg {i}: {e}");
                }
            }
            o
        });
        for (&i, o) in todo.iter().zip(outs) {
            results[i] = Some(o);
        }
    }

    let report = SweepReport {
        label: label.to_string(),
        legs: n,
        cached: n - todo.len(),
        simulated: todo.len(),
        workers: pool::num_workers(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    };
    let outs = results
        .into_iter()
        .collect::<Option<Vec<O>>>()
        .expect("every leg is cached or simulated");
    (outs, report)
}

/// [`run_sweep`] over closed-loop [`RunSpec`] legs run to completion
/// ([`crate::run_once`]), or for `window` cycles ([`crate::run_window`])
/// under their own cache keys.
fn sweep_runs(
    label: &str,
    specs: &[RunSpec],
    window: Option<Cycle>,
    sa: &SweepArgs,
) -> (Vec<RunOutcome>, SweepReport) {
    let mode = window.map_or_else(|| "complete".to_string(), |w| format!("window:{}", w.0));
    run_sweep(
        label,
        specs.len(),
        |i| cache::run_spec_digest(&specs[i], &mode),
        |i| match window {
            Some(w) => run_window(&specs[i], w),
            None => run_once(&specs[i]),
        },
        cache::encode_outcome,
        cache::decode_outcome,
        sa,
    )
}

/// [`run_sweep`] over closed-loop [`RunSpec`] legs run to completion:
/// the non-windowed case of [`sweep_figure`].
pub fn sweep_run_once(
    label: &str,
    specs: &[RunSpec],
    sa: &SweepArgs,
) -> (Vec<RunOutcome>, SweepReport) {
    sweep_runs(label, specs, None, sa)
}

/// Run registry figure `fig` at `scale` through [`run_sweep`], labelled
/// by its name. Returns the figure's tables plus the sweep report.
pub fn sweep_figure(
    fig: &Figure,
    scale: ExperimentScale,
    sa: &SweepArgs,
) -> (Vec<Table>, SweepReport) {
    let specs = (fig.specs)(scale);
    let window = fig.windowed.then_some(scale.window);
    let (outs, report) = sweep_runs(fig.name, &specs, window, sa);
    ((fig.tables)(&outs), report)
}

/// [`run_sweep`] over open-loop [`TrafficSpec`] legs via
/// [`crate::traffic::run_traffic`]. Only generated banks are cacheable;
/// the `--replay` path must not come through here (its bank is outside
/// the digest).
pub fn sweep_traffic(
    label: &str,
    specs: &[TrafficSpec],
    sa: &SweepArgs,
) -> (Vec<TrafficOutcome>, SweepReport) {
    run_sweep(
        label,
        specs.len(),
        |i| cache::traffic_spec_digest(&specs[i]),
        |i| run_traffic(&specs[i]),
        cache::encode_traffic,
        cache::decode_traffic,
        sa,
    )
}

/// `Some(outs)`: every sweep returns all of its legs. Kept only for the
/// three `complete_outcomes(..).expect(..)` call sites of the benchmark
/// crate (`perfledger/src/jobs.rs`), which is changed only together with
/// the benchmark; no harness code calls it.
pub fn complete_outcomes<O>(outs: Vec<O>) -> Option<Vec<O>> {
    Some(outs)
}
