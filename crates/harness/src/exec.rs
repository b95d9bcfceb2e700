//! The sweep executor: incremental and resumable.
//!
//! [`run_sweep`] is the one engine behind every sweep: each registry
//! figure ([`sweep_figure`]), the traffic sweep ([`sweep_traffic`]) and
//! the binaries built on them. Given `n` legs (a digest, a run closure
//! and a codec per leg) plus the shared [`SweepArgs`], it:
//!
//! 1. **probes** — with `--cache-dir`, loads every leg's entry from the
//!    [`crate::cache::OutcomeCache`] and strict-decodes it (corrupted ⇒
//!    miss ⇒ re-run);
//! 2. **filters** — drops cached legs and, with `--shard i/n`, legs
//!    owned by other machines;
//! 3. **executes** — the surviving legs run on the in-process pool
//!    ([`pool::par_map`]), each completion persisted to the cache and
//!    appended to the journal *before* the sweep finishes — killing the
//!    sweep loses at most in-flight legs;
//! 4. **assembles** — results land in input order, so a table built
//!    from them is byte-identical however the legs were executed:
//!    serial, pooled, cached, resumed or sharded then assembled. That is
//!    the `par_map` contract of the pool, extended across crash and
//!    machine boundaries.
//!
//! The journal (`<label>.journal` inside the cache dir) records one
//! `done <idx> <digest>` line per completed leg. `--resume` replays it
//! for reporting ("how much did the killed run finish?") — correctness
//! never depends on it, because resume re-probes the cache itself.

use crate::args::SweepArgs;
use crate::cache::{self, OutcomeCache};
use crate::experiments::{ExperimentScale, Figure};
use crate::pool;
use crate::report::Table;
use crate::runner::{run_once, run_window, RunOutcome, RunSpec};
use crate::traffic::{run_traffic, TrafficOutcome, TrafficSpec};
use asap_sim_core::Cycle;
use std::collections::HashSet;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// What a sweep did, for stderr summaries and the CI cache-stats
/// artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Sweep label (also the journal file stem).
    pub label: String,
    /// Total legs in the sweep.
    pub legs: usize,
    /// Legs answered from the outcome cache.
    pub cached: usize,
    /// Legs simulated by this run.
    pub simulated: usize,
    /// Legs skipped because another shard owns them.
    pub shard_skipped: usize,
    /// Cached legs that a previous (killed) run had journaled.
    pub resumed: usize,
    /// Pool worker threads.
    pub workers: usize,
    /// Wall-clock of the whole sweep, milliseconds.
    pub wall_ms: f64,
    /// Every leg has an outcome (false only under `--shard`).
    pub complete: bool,
}

impl SweepReport {
    /// One-line stderr summary (the `(cached)` marker of reports).
    pub fn summary(&self) -> String {
        format!(
            "# sweep {}: {} legs = {} cached + {} simulated + {} shard-skipped \
             ({} resumed) in {:.1} ms on {} worker(s)",
            self.label,
            self.legs,
            self.cached,
            self.simulated,
            self.shard_skipped,
            self.resumed,
            self.wall_ms,
            self.workers,
        )
    }

    /// Hand-rolled JSON for the `--cache-stats` artifact.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"sweep\":\"{}\",\"legs\":{},\"cached\":{},\"simulated\":{},",
                "\"shard_skipped\":{},\"resumed\":{},\"workers\":{},",
                "\"wall_ms\":{:.3},\"complete\":{}}}"
            ),
            self.label,
            self.legs,
            self.cached,
            self.simulated,
            self.shard_skipped,
            self.resumed,
            self.workers,
            self.wall_ms,
            self.complete,
        )
    }
}

/// Journal header for sweep `label`.
fn journal_header(label: &str) -> String {
    format!("# asap-sweep-journal v1 sweep={label}")
}

/// Parse a journal: the completed-leg digests of a previous run.
/// `None` when missing or written by a different sweep; a torn final
/// line (the kill happened mid-append) is tolerated and skipped.
fn read_journal(path: &std::path::Path, label: &str) -> Option<HashSet<u64>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    if lines.next()? != journal_header(label) {
        return None;
    }
    let mut done = HashSet::new();
    for line in lines {
        let mut it = line.split_whitespace();
        if it.next() != Some("done") {
            continue;
        }
        let (Some(_idx), Some(digest), None) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        if let Ok(d) = u64::from_str_radix(digest, 16) {
            done.insert(d);
        }
    }
    Some(done)
}

/// Cache + journal sink of the pool's legs: persist the payload under
/// the leg's digest, then append-and-flush the journal line, in that
/// order — a journaled leg is always loadable on resume.
struct Sink<'a> {
    cache: Option<&'a OutcomeCache>,
    journal: Option<Mutex<std::fs::File>>,
    digests: &'a [u64],
}

impl Sink<'_> {
    fn record(&self, idx: usize, payload: &str) {
        let Some(cache) = self.cache else { return };
        if let Err(e) = cache.store(self.digests[idx], payload) {
            eprintln!("# warning: cache store failed for leg {idx}: {e}");
            return;
        }
        if let Some(j) = &self.journal {
            let mut f = j.lock().expect("journal lock");
            let _ = writeln!(f, "done {idx} {:016x}", self.digests[idx]);
            let _ = f.flush();
        }
    }
}

/// Run an `n`-leg sweep through the cache/resume/shard pipeline (see
/// the module docs). Returns one outcome per leg in input order —
/// `None` only for legs excluded by `--shard` — plus the report. An
/// unusable `--cache-dir` terminates the process with a diagnostic.
pub fn run_sweep<O, FDig, FRun, FEnc, FDec>(
    label: &str,
    n: usize,
    digest_of: FDig,
    run: FRun,
    encode: FEnc,
    decode: FDec,
    sa: &SweepArgs,
) -> (Vec<Option<O>>, SweepReport)
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
    let journal_path: Option<PathBuf> = cache
        .as_ref()
        .map(|c| c.dir().join(format!("{label}.journal")));

    // Resume bookkeeping: which digests did the previous run journal?
    let journaled: HashSet<u64> = match (&journal_path, sa.resume) {
        (Some(p), true) => read_journal(p, label).unwrap_or_default(),
        _ => HashSet::new(),
    };

    // Probe the cache for every leg.
    let mut results: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let mut cached = 0usize;
    let mut resumed = 0usize;
    if let Some(c) = &cache {
        for i in 0..n {
            if let Some(o) = c.load(digests[i]).and_then(|p| decode(&p)) {
                if journaled.contains(&digests[i]) {
                    resumed += 1;
                }
                results[i] = Some(o);
                cached += 1;
            }
        }
    }

    let todo: Vec<usize> = (0..n)
        .filter(|&i| results[i].is_none())
        .filter(|&i| sa.shard.is_none_or(|s| s.owns(i)))
        .collect();
    let shard_skipped = n - cached - todo.len();

    // (Re)open the journal: fresh runs rewrite it, resumed runs append
    // (re-run legs are re-journaled; duplicate lines are harmless).
    let journal = journal_path.as_ref().and_then(|p| {
        let keep = sa.resume && read_journal(p, label).is_some();
        let file = if keep {
            std::fs::OpenOptions::new().append(true).open(p).ok()
        } else {
            let mut f = std::fs::File::create(p).ok()?;
            writeln!(f, "{}", journal_header(label)).ok()?;
            Some(f)
        };
        file.map(Mutex::new)
    });
    let sink = Sink {
        cache: cache.as_ref(),
        journal,
        digests: &digests,
    };

    if !todo.is_empty() {
        // The pool prints its own progress over `todo`.
        let outs = pool::par_map(&todo, |&i| {
            let o = run(i);
            sink.record(i, &encode(&o));
            o
        });
        for (&i, o) in todo.iter().zip(outs) {
            results[i] = Some(o);
        }
    }

    let complete = results.iter().all(|r| r.is_some());
    let report = SweepReport {
        label: label.to_string(),
        legs: n,
        cached,
        simulated: todo.len(),
        shard_skipped,
        resumed,
        workers: pool::num_workers(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        complete,
    };
    (results, report)
}

/// [`run_sweep`] over closed-loop [`RunSpec`] legs run to completion
/// ([`crate::run_once`]), or for `window` cycles ([`crate::run_window`])
/// under their own cache keys.
fn sweep_runs(
    label: &str,
    specs: &[RunSpec],
    window: Option<Cycle>,
    sa: &SweepArgs,
) -> (Vec<Option<RunOutcome>>, SweepReport) {
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
) -> (Vec<Option<RunOutcome>>, SweepReport) {
    sweep_runs(label, specs, None, sa)
}

/// Run registry figure `fig` at `scale` through [`run_sweep`], labelled
/// by its name. Returns the figure's tables — `None` when `--shard`
/// left legs to other machines — plus the sweep report.
pub fn sweep_figure(
    fig: &Figure,
    scale: ExperimentScale,
    sa: &SweepArgs,
) -> (Option<Vec<Table>>, SweepReport) {
    let specs = (fig.specs)(scale);
    let window = fig.windowed.then_some(scale.window);
    let (results, report) = sweep_runs(fig.name, &specs, window, sa);
    (
        complete_outcomes(results).map(|outs| (fig.tables)(&outs)),
        report,
    )
}

/// [`run_sweep`] over open-loop [`TrafficSpec`] legs via
/// [`crate::traffic::run_traffic`]. Only generated banks are cacheable;
/// the `--replay` path must not come through here (its bank is outside
/// the digest).
pub fn sweep_traffic(
    label: &str,
    specs: &[TrafficSpec],
    sa: &SweepArgs,
) -> (Vec<Option<TrafficOutcome>>, SweepReport) {
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

/// Unwrap a complete sweep's outcomes, or `None` if any leg is missing
/// (a sharded run): the binary then prints the report summary instead
/// of a partial table.
pub fn complete_outcomes<O>(results: Vec<Option<O>>) -> Option<Vec<O>> {
    results.into_iter().collect()
}
