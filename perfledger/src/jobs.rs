//! The four workloads, as one child process runs them.
//!
//! Every repeat of a workload is a fresh process (`asap_bench run-one`):
//! the program bank of `harness::runner` and the request bank of
//! `harness::traffic` are process-wide statics, so a second repeat in the
//! same process would skip set-up and share its peak memory. A child
//! sets up, runs its legs on a pool of two workers (a leg is one
//! `run_once`, `run_traffic`, `pass1` or `verify_chunk` call), checks
//! every leg, digests what the real binary would print, and reports one
//! JSON line. Two workers is what the harness binaries use on a 2-CPU
//! host, and halving a repeat's wall time doubles the repeats a run's
//! median is taken over.
//!
//! A traced child (`--traced`) additionally counts allocations, keeps
//! host-time spans, rebuilds each simulated leg with a counting tracer
//! attached, and fills the per-layer [`Ledger`].

use crate::json::{self, Value};
use crate::ledger::{ratio, Ledger, SimTally};
use crate::{probe, replay, spans, stats};
use asap_analysis::explore::{
    assemble_config, pass1, verify_chunk, ChunkResult, CrashSpaceReport, ExploreParams,
};
use asap_core::{SimBuilder, ThreadProgram};
use asap_harness::args::SweepArgs;
use asap_harness::cache::{self, fnv1a, OutcomeCache};
use asap_harness::exec::{complete_outcomes, run_sweep, sweep_run_once};
use asap_harness::experiments::{fig08_specs, fig08_summary, fig08_table_from, ExperimentScale};
use asap_harness::traffic::{
    request_bank, run_traffic, table_from_runs, TrafficApp, TrafficOutcome, TrafficScale,
    TrafficSpec,
};
use asap_harness::{
    pool, prewarm_workloads, run_once, workload_bank_stats, RunManifest, RunOutcome, RunSpec,
};
use asap_sim_core::LatencySplit;
use asap_workloads::traffic::{
    new_sink, EchoService, MemcachedService, NstoreService, OpenLoop, RequestService,
};
use asap_workloads::{make_workload, WorkloadParams};
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The benchmark's workloads. Names are fixed; later changes cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale Figure 8: 84 `run_once` legs at 600 ops/thread.
    Fig08Full,
    /// The quick open-loop traffic sweep: 30 `run_traffic` legs, 1.05M requests.
    TrafficQuick,
    /// The crash-explore suite at 24 ops/thread.
    ExploreOps24,
    /// The quick fig08 sweep through the executor: one cold pass into a
    /// fresh outcome cache, then [`WARM_PASSES`] warm passes.
    SweepCached,
}

/// Warm passes per `sweep_cached` repeat.
pub(crate) const WARM_PASSES: usize = 50;

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig08Full,
        Workload::TrafficQuick,
        Workload::ExploreOps24,
        Workload::SweepCached,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig08Full => "fig08_full",
            Workload::TrafficQuick => "traffic_quick",
            Workload::ExploreOps24 => "explore_ops24",
            Workload::SweepCached => "sweep_cached",
        }
    }

    /// Parse a workload name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Legs charged as failed when a child dies before reporting its own
    /// count (the `explore_ops24` plan size depends on the seed; its ten
    /// `pass1` legs are the floor).
    pub fn nominal_legs(self) -> u64 {
        match self {
            Workload::Fig08Full => 84,
            Workload::TrafficQuick => 30,
            Workload::ExploreOps24 => 10,
            Workload::SweepCached => 84 * (1 + WARM_PASSES as u64),
        }
    }
}

/// What one child run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Repeat {
    /// `CLOCK_MONOTONIC` when the first leg started (set-up ends here).
    pub first_leg_ns: u64,
    /// Host milliseconds of every timed leg.
    pub legs_ms: Vec<f64>,
    /// Simulated end cycles summed over the timed legs.
    pub sim_cycles: u64,
    /// Legs attempted (warm cache loads included).
    pub attempted: u64,
    /// Legs that failed a check.
    pub failed: u64,
    /// FNV-1a of the text the real binary prints for this job.
    pub output_digest: u64,
    /// FNV-1a of every leg's full outcome (wall time excluded): traced
    /// and untraced runs must agree on it.
    pub outcome_digest: u64,
    /// CPU seconds of the child.
    pub cpu_s: f64,
    /// Peak resident memory of the child, MB.
    pub peak_rss_mb: f64,
    /// The per-layer ledger (traced runs only).
    pub ledger: Option<Vec<(String, f64)>>,
}

fn hex(d: u64) -> String {
    json::quote(&format!("{d:016x}"))
}

fn parse_hex(v: Option<&Value>) -> Option<u64> {
    u64::from_str_radix(v?.as_str()?, 16).ok()
}

impl Repeat {
    /// One JSON line (the child → parent protocol).
    pub fn to_json(&self) -> String {
        let legs: Vec<String> = self.legs_ms.iter().map(|&m| json::num(m)).collect();
        let ledger = match &self.ledger {
            None => "null".to_string(),
            Some(l) => format!(
                "{{{}}}",
                l.iter()
                    .map(|(k, v)| format!("{}:{}", json::quote(k), json::num(*v)))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        };
        format!(
            "{{\"first_leg_ns\":{},\"legs_ms\":[{}],\"sim_cycles\":{},\"attempted\":{},\
             \"failed\":{},\"output_digest\":{},\"outcome_digest\":{},\"cpu_s\":{},\
             \"peak_rss_mb\":{},\"ledger\":{}}}",
            self.first_leg_ns,
            legs.join(","),
            self.sim_cycles,
            self.attempted,
            self.failed,
            hex(self.output_digest),
            hex(self.outcome_digest),
            json::num(self.cpu_s),
            json::num(self.peak_rss_mb),
            ledger
        )
    }

    /// Parse [`Repeat::to_json`]'s output.
    pub fn from_json(line: &str) -> Result<Repeat, String> {
        let v = json::parse(line)?;
        let u = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("child result: {k}"))
        };
        let f = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("child result: {k}"))
        };
        let legs_ms = v
            .get("legs_ms")
            .and_then(Value::as_arr)
            .ok_or("child result: legs_ms")?
            .iter()
            .map(|m| m.as_f64().ok_or("child result: legs_ms"))
            .collect::<Result<Vec<_>, _>>()?;
        let ledger = match v.get("ledger") {
            Some(Value::Null) => None,
            Some(Value::Obj(m)) => Some(
                m.iter()
                    .map(|(k, x)| Ok((k.clone(), x.as_f64().ok_or("child result: ledger")?)))
                    .collect::<Result<Vec<_>, String>>()?,
            ),
            _ => return Err("child result: ledger".into()),
        };
        Ok(Repeat {
            first_leg_ns: u("first_leg_ns")?,
            legs_ms,
            sim_cycles: u("sim_cycles")?,
            attempted: u("attempted")?,
            failed: u("failed")?,
            output_digest: parse_hex(v.get("output_digest"))
                .ok_or("child result: output_digest")?,
            outcome_digest: parse_hex(v.get("outcome_digest"))
                .ok_or("child result: outcome_digest")?,
            cpu_s: f("cpu_s")?,
            peak_rss_mb: f("peak_rss_mb")?,
            ledger,
        })
    }

    /// Host seconds spent inside the timed legs.
    pub fn leg_s(&self) -> f64 {
        self.legs_ms.iter().sum::<f64>() / 1e3
    }
}

/// Leg bookkeeping shared by the four workloads.
#[derive(Debug, Default)]
struct Legs {
    first_ns: Option<u64>,
    ms: Vec<f64>,
    sim_cycles: u64,
    ops: u64,
    attempted: u64,
    failed: u64,
    alloc_first: u64,
    alloc_last: u64,
}

impl Legs {
    /// Set-up ends when the first leg starts.
    fn start(&mut self) {
        if self.first_ns.is_none() {
            self.alloc_first = probe::alloc_counters().0;
            self.first_ns = Some(probe::mono_ns());
        }
    }

    /// Add one timed leg.
    fn record(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
        self.alloc_last = probe::alloc_counters().0;
    }

    /// Count one attempted leg and whether its checks passed.
    fn check(&mut self, sim_cycles: u64, ops: u64, ok: bool) {
        self.sim_cycles += sim_cycles;
        self.ops += ops;
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The host-time, simulated-cycle and allocation part of the ledger.
    fn fill(&self, ledger: &mut Ledger) {
        let sim_ms: f64 = self.ms.iter().sum();
        ledger.set("engine.sim_ms", sim_ms);
        ledger.set(
            "engine.ns_per_sim_cycle",
            ratio(sim_ms * 1e6, self.sim_cycles as f64),
        );
        ledger.set("engine.ns_per_op", ratio(sim_ms * 1e6, self.ops as f64));
        ledger.set("sim_cycles", self.sim_cycles as f64);
        ledger.set("alloc.setup", self.alloc_first as f64);
        ledger.set(
            "alloc.simulate",
            (self.alloc_last - self.alloc_first) as f64,
        );
        ledger.set("alloc.bytes", probe::alloc_counters().1 as f64);
    }
}

/// Workers for the in-process pool: two, or fewer on a smaller host.
fn pool_workers() -> usize {
    probe::nproc().min(2)
}

/// Run `f(i, &items[i])` for every item on the pool, timing each call
/// as one leg; outputs and leg times come back in input order.
fn par_legs<T: Sync, U: Send>(
    legs: &mut Legs,
    name: &'static str,
    items: &[T],
    f: impl Fn(usize, &T) -> U + Sync,
) -> Vec<U> {
    legs.start();
    let parent = spans::current();
    let first = legs.ms.len();
    let idx: Vec<usize> = (0..items.len()).collect();
    let timed = pool::par_map_with(&idx, pool_workers(), |&i| {
        spans::span_under(parent, name, Some((first + i) as u32), || f(i, &items[i]))
    });
    timed
        .into_iter()
        .map(|(out, d)| {
            legs.record(d);
            out
        })
        .collect()
}

/// What one repeat produced, before the final process probes.
struct Done {
    legs: Legs,
    output_digest: u64,
    outcome_digest: u64,
    ledger: Option<Ledger>,
}

/// Run one repeat of `w` in this process. `tmp` is a scratch directory
/// this call may create and must leave empty.
pub fn run_one(w: Workload, seed: u64, traced: bool, tmp: &std::path::Path) -> Repeat {
    if traced {
        probe::count_allocations(true);
        spans::start_recording();
    }
    let (done, _) = spans::span("job", None, || match w {
        Workload::Fig08Full => fig08(seed, traced),
        Workload::TrafficQuick => traffic(seed, traced),
        Workload::ExploreOps24 => explore(seed, traced),
        Workload::SweepCached => sweep_cached(seed, traced, tmp),
    });
    let Done {
        legs,
        output_digest,
        outcome_digest,
        mut ledger,
    } = done;
    if let Some(l) = ledger.as_mut() {
        legs.fill(l);
        l.set(
            "report.assemble_ms",
            spans::total_ms(&spans::recorded(), "report.assemble"),
        );
    }
    Repeat {
        first_leg_ns: legs.first_ns.expect("every workload runs a leg"),
        legs_ms: legs.ms,
        sim_cycles: legs.sim_cycles,
        attempted: legs.attempted,
        failed: legs.failed,
        output_digest,
        outcome_digest,
        cpu_s: probe::cpu_s(),
        peak_rss_mb: probe::peak_rss_mb(),
        ledger: ledger.map(|l| l.iter().map(|(k, v)| (k.to_string(), v)).collect()),
    }
}

/// FNV-1a over newline-joined canonical leg encodings.
fn digest_lines(lines: impl Iterator<Item = String>) -> u64 {
    fnv1a(&lines.collect::<Vec<_>>().join("\n"))
}

/// A closed-loop outcome's exact encoding with the host wall time
/// zeroed (two runs of one spec are the same run however long they took).
fn canonical_run(o: &RunOutcome) -> String {
    let mut o = o.clone();
    o.manifest.wall = Duration::ZERO;
    cache::encode_outcome(&o)
}

/// The markdown `asap_sweep fig08` prints: the table, then the summary.
fn fig08_text(outs: &[RunOutcome]) -> (String, asap_harness::Table, asap_harness::Table) {
    let t = fig08_table_from(outs);
    let s = fig08_summary(&t);
    (format!("{}\n{}\n", t.to_markdown(), s.to_markdown()), t, s)
}

fn ops_of(spec: &RunSpec) -> u64 {
    spec.config.num_cores as u64 * spec.ops_per_thread
}

/// `run_once` rebuilt from the public `SimBuilder` + `make_workload` with
/// a counting tracer attached; the outcome must equal `run_once`'s.
fn traced_run_once(leg: usize, spec: &RunSpec, tally: &SimTally) -> RunOutcome {
    let params = WorkloadParams {
        threads: spec.config.num_cores,
        ops_per_thread: spec.ops_per_thread,
        seed: spec.seed,
        ..WorkloadParams::default()
    };
    let mut sim = SimBuilder::new(spec.config.clone(), spec.model, spec.flavor)
        .programs(make_workload(spec.workload, &params))
        .tracer(tally.tracer())
        .build();
    let all_done = sim.run_to_completion().all_done;
    tally.add_leg(leg, &sim);
    let stats = sim.take_stats();
    RunOutcome {
        cycles: sim.now().raw(),
        ops: stats.ops_completed,
        rt_max_occupancy: sim.rt_max_occupancy(),
        media_writes: sim.media_writes(),
        media_utilization: sim.media_utilization(),
        all_done,
        stats,
        manifest: RunManifest::of_spec(spec),
    }
}

fn fig08(seed: u64, traced: bool) -> Done {
    let scale = ExperimentScale {
        seed,
        ..ExperimentScale::full()
    };
    let specs = fig08_specs(scale);
    let ((), gen) = spans::span("workloads.prewarm", None, || prewarm_workloads(&specs));
    let mut legs = Legs::default();
    let tally = SimTally::default();
    let outs = par_legs(&mut legs, "engine.run_once", &specs, |i, spec| {
        if traced {
            traced_run_once(i, spec, &tally)
        } else {
            run_once(spec)
        }
    });
    for (spec, out) in specs.iter().zip(&outs) {
        legs.check(out.cycles, out.ops, out.all_done && out.ops == ops_of(spec));
    }
    let ((text, table, summary), _) = spans::span("report.assemble", None, || fig08_text(&outs));
    let outcome_digest = digest_lines(outs.iter().map(canonical_run));

    let ledger = traced.then(|| {
        let mut l = Ledger::default();
        let (hits, misses) = workload_bank_stats();
        l.set("workloads.gen_ms", gen.as_secs_f64() * 1e3);
        l.set("workloads.sets_generated", misses as f64);
        l.set("workloads.bank_hits", hits as f64);
        tally.fill(&mut l);
        let r = replay::run(scale.ops, seed);
        l.set("cache_sim.ns_per_access", r.ns_per_access);
        l.set("cache_sim.accesses", r.accesses as f64);
        l.set("cache_sim.l1_hits", r.stats.l1_hits as f64);
        l.set("cache_sim.l2_hits", r.stats.l2_hits as f64);
        l.set("cache_sim.llc_hits", r.stats.llc_hits as f64);
        l.set("cache_sim.misses", r.stats.misses as f64);
        l.set("cache_sim.c2c_transfers", r.stats.c2c_transfers as f64);
        l.set("cache_sim.invalidations", r.stats.invalidations as f64);
        let avg = |col| table.cell_f64("average", col).unwrap_or(0.0);
        l.set("fidelity.asap_ep_speedup", avg("asap_ep"));
        l.set("fidelity.asap_rp_speedup", avg("asap_rp"));
        l.set(
            "fidelity.asap_rp_over_hops_rp_pct",
            summary
                .cell_f64("ASAP_RP improvement over HOPS_RP (%)", "value")
                .unwrap_or(0.0),
        );
        l
    });
    Done {
        legs,
        output_digest: fnv1a(&text),
        outcome_digest,
        ledger,
    }
}

fn service(
    app: TrafficApp,
    thread: usize,
    params: &WorkloadParams,
) -> Box<dyn RequestService + Send + Sync> {
    match app {
        TrafficApp::Memcached => Box::new(MemcachedService::new(thread, params)),
        TrafficApp::Nstore => Box::new(NstoreService::new(thread, params)),
        TrafficApp::Echo => Box::new(EchoService::new(thread, params)),
    }
}

/// `run_traffic` rebuilt from the public `asap_workloads::traffic`
/// services with a counting tracer attached; the outcome must equal
/// `run_traffic`'s.
fn traced_traffic(leg: usize, spec: &TrafficSpec, tally: &SimTally) -> TrafficOutcome {
    let bank = request_bank(&spec.traffic);
    let threads = spec.config.num_cores;
    let sink = new_sink(threads);
    let params = WorkloadParams {
        threads,
        ops_per_thread: 0,
        seed: spec.traffic.seed,
        ..WorkloadParams::default()
    };
    let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
        .map(|t| -> Box<dyn ThreadProgram> {
            Box::new(OpenLoop::new(
                service(spec.app, t, &params),
                Arc::clone(&bank),
                t,
                threads,
                spec.think,
                Arc::clone(&sink),
            ))
        })
        .collect();
    let mut sim = SimBuilder::new(spec.config.clone(), spec.model, spec.flavor)
        .programs(programs)
        .tracer(tally.tracer())
        .build();
    sim.run_to_completion();
    tally.add_leg(leg, &sim);
    let mut lat = LatencySplit::new();
    for split in sink.lock().expect("latency sink poisoned").iter() {
        lat.merge(split);
    }
    TrafficOutcome {
        cycles: sim.now().raw(),
        requests: bank.len() as u64,
        lat,
        config_digest: spec.config.digest(),
    }
}

fn traffic(seed: u64, traced: bool) -> Done {
    let scale = TrafficScale {
        seed,
        ..TrafficScale::quick()
    };
    let specs = scale.specs();
    let ((banks, requests), gen) = spans::span("workloads.request_bank", None, || {
        let mut seen: Vec<&asap_workloads::traffic::TrafficConfig> = Vec::new();
        let mut requests = 0;
        for s in &specs {
            if !seen.contains(&&s.traffic) {
                requests += request_bank(&s.traffic).len();
                seen.push(&s.traffic);
            }
        }
        (seen.len(), requests)
    });
    let mut legs = Legs::default();
    let tally = SimTally::default();
    let outs = par_legs(&mut legs, "engine.run_traffic", &specs, |i, spec| {
        if traced {
            traced_traffic(i, spec, &tally)
        } else {
            run_traffic(spec)
        }
    });
    for out in &outs {
        let ok = out.requests == scale.requests && out.lat.count() == scale.requests;
        legs.check(out.cycles, out.requests, ok);
    }
    let (text, _) = spans::span("report.assemble", None, || {
        format!("{}\n", table_from_runs(&specs, &outs).to_markdown())
    });
    let outcome_digest = digest_lines(outs.iter().map(cache::encode_traffic));

    let ledger = traced.then(|| {
        let mut l = Ledger::default();
        l.set("workloads.gen_ms", gen.as_secs_f64() * 1e3);
        l.set("workloads.sets_generated", banks as f64);
        l.set("workloads.bank_hits", specs.len() as f64);
        l.set("workloads.requests_generated", requests as f64);
        tally.fill(&mut l);
        l
    });
    Done {
        legs,
        output_digest: fnv1a(&text),
        outcome_digest,
        ledger,
    }
}

/// The `explore_ops24` parameters: `crash_explore`'s default suite
/// ({queue, cceh} × 5 models, 2 threads, pad 8, budget 2048, prune on)
/// at 24 ops/thread. Chunks of 64 survivors (the CLI default is 512)
/// split the verify pass into ~110 legs of similar size, so leg
/// percentiles are well defined within one run; the report does not
/// depend on the chunk size and re-simulating up to each chunk costs
/// little next to its oracle checks.
pub(crate) fn explore_params(seed: u64) -> ExploreParams {
    ExploreParams {
        ops_per_thread: 24,
        seed,
        chunk: 64,
        ..ExploreParams::default()
    }
}

/// Size of the suite's crash space at `seed`, from pass 1 alone: Σ over
/// configs of distinct states × raw points. Verify time tracks it (each
/// checked state re-walks a journal as long as the run so far).
fn crash_space_size(seed: u64) -> f64 {
    let p = explore_params(seed);
    p.configs()
        .into_iter()
        .map(|(w, m)| {
            let p1 = pass1(&p, w, m);
            p1.distinct_states as f64 * p1.raw_points as f64
        })
        .sum()
}

/// Crash-space sizes within this share of seed 42's count as equal.
const EXPLORE_SIZE_TOLERANCE: f64 = 0.015;

/// The suite seed `explore_ops24` explores for benchmark seed `seed`:
/// `seed` itself if its crash-space size is within
/// [`EXPLORE_SIZE_TOLERANCE`] of seed 42's, otherwise the first seed that
/// is, scanning up from a hash of `seed` (so neighbouring benchmark seeds
/// still get different inputs). The queue's write count varies ±15%
/// across seeds and verify time grows with its square, so unscreened
/// seeds would spread the job's time ±25% run to run; screened ones keep
/// different inputs at one size. Seed 42 maps to itself.
pub(crate) fn explore_seed(seed: u64) -> u64 {
    let target = crash_space_size(42);
    let fits = |s: u64| (crash_space_size(s) / target - 1.0).abs() <= EXPLORE_SIZE_TOLERANCE;
    if fits(seed) {
        return seed;
    }
    let start = asap_sim_core::mix64(seed);
    (0..1000)
        .map(|i| start.wrapping_add(i))
        .find(|&s| fits(s))
        .unwrap_or(seed)
}

fn explore(seed: u64, traced: bool) -> Done {
    let p = explore_params(seed);
    let grid = p.configs();
    let mut legs = Legs::default();
    // crash_explore's own shape: every config's pass 1, then every
    // config's verify chunks as one flat job list.
    let plans = par_legs(&mut legs, "explore.pass1", &grid, |_, &(w, m)| {
        pass1(&p, w, m)
    });
    for p1 in &plans {
        legs.check(p1.end_cycle, 0, true);
    }
    let jobs: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(pi, p1)| (0..p1.chunks.len()).map(move |ci| (pi, ci)))
        .collect();
    let results = par_legs(&mut legs, "explore.verify_chunk", &jobs, |_, &(pi, ci)| {
        let (w, m) = grid[pi];
        verify_chunk(&p, w, m, &plans[pi].chunks[ci])
    });
    let mut by_plan: Vec<Vec<ChunkResult>> = plans.iter().map(|_| Vec::new()).collect();
    for (&(pi, ci), r) in jobs.iter().zip(results) {
        let c = &plans[pi].chunks[ci];
        let clean = r.rule_counts.iter().all(|&n| n == 0) && r.verify_mismatches == 0;
        let last = c.points.last().copied().unwrap_or(0);
        legs.check(last, 0, clean && r.checked == c.points.len() as u64);
        by_plan[pi].push(r);
    }
    let (report, _) = spans::span("report.assemble", None, || CrashSpaceReport {
        flavor: p.flavor,
        threads: p.threads,
        ops_per_thread: p.ops_per_thread,
        seed: p.seed,
        pad: p.pad,
        points_budget: p.points_budget,
        prune: p.prune,
        broken_undo_every: p.broken_undo_every,
        configs: plans
            .iter()
            .zip(&by_plan)
            .map(|(p1, results)| assemble_config(&p, p1, results))
            .collect(),
    });
    let text = report.to_text();

    let ledger = traced.then(|| {
        let mut l = Ledger::default();
        let recorded = spans::recorded();
        let verify_ms = spans::total_ms(&recorded, "explore.verify_chunk");
        let checked = report.total_checked();
        l.set(
            "explore.pass1_ms",
            spans::total_ms(&recorded, "explore.pass1"),
        );
        l.set("explore.verify_ms", verify_ms);
        l.set("explore.raw_points", report.total_raw() as f64);
        l.set(
            "explore.distinct_states",
            report
                .configs
                .iter()
                .map(|c| c.distinct_states)
                .sum::<u64>() as f64,
        );
        l.set("explore.checked", checked as f64);
        l.set("explore.prune_pct", report.prune_ratio() * 100.0);
        l.set("explore.chunks", jobs.len() as f64);
        l.set(
            "oracle.us_per_check",
            ratio(verify_ms * 1e3, checked as f64),
        );
        l.set("explore.violations", report.total_violations() as f64);
        l
    });
    Done {
        legs,
        output_digest: fnv1a(&text),
        outcome_digest: fnv1a(&report.to_json()),
        ledger,
    }
}

/// A fresh directory under `tmp`, unique to this process and call.
fn scratch_dir(tmp: &std::path::Path, tag: &str) -> PathBuf {
    let dir = tmp.join(format!("{tag}-{}-{}", std::process::id(), probe::mono_ns()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn sweep_args(extra: &[String]) -> SweepArgs {
    let argv: Vec<String> = std::iter::once("asap_bench".to_string())
        .chain(extra.iter().cloned())
        .collect();
    SweepArgs::parse(&argv)
}

fn sweep_cached(seed: u64, traced: bool, tmp: &std::path::Path) -> Done {
    let specs = fig08_specs(ExperimentScale {
        seed,
        ..ExperimentScale::quick()
    });
    let n = specs.len();
    let ((), gen) = spans::span("workloads.prewarm", None, || prewarm_workloads(&specs));
    let dir = scratch_dir(tmp, "sweep");
    let workers = pool_workers();
    let sa = sweep_args(&[
        "--threads".into(),
        workers.to_string(),
        "--cache-dir".into(),
        dir.display().to_string(),
    ]);
    sa.apply();

    // Cold pass: `sweep_run_once`'s exact `run_sweep` call, with each
    // `run_once` timed on the pool thread that runs it.
    let mut legs = Legs::default();
    let times = Mutex::new(vec![Duration::ZERO; n]);
    legs.start();
    let ((results, cold_report), _) = spans::span("exec.cold_pass", None, || {
        let parent = spans::current();
        run_sweep(
            "fig08",
            n,
            |i| cache::run_spec_digest(&specs[i], "complete"),
            |i| {
                let (o, d) = spans::span_under(parent, "engine.run_once", Some(i as u32), || {
                    run_once(&specs[i])
                });
                times.lock().expect("leg times poisoned")[i] = d;
                o
            },
            cache::encode_outcome,
            cache::decode_outcome,
            &sa,
        )
    });
    let cold = complete_outcomes(results).expect("an unsharded sweep returns every leg");
    let times = times.into_inner().expect("leg times poisoned");
    for ((d, o), spec) in times.into_iter().zip(&cold).zip(&specs) {
        legs.record(d);
        let ok = cold_report.simulated == n && o.all_done && o.ops == ops_of(spec);
        legs.check(o.cycles, o.ops, ok);
    }
    let ((cold_text, _, _), _) = spans::span("report.assemble", None, || fig08_text(&cold));

    // Warm passes: every leg must load from the cache and match the cold
    // pass exactly, table bytes included.
    let mut warm_ms = Vec::with_capacity(WARM_PASSES);
    let (mut hits, mut corrupt) = (0, 0);
    for _ in 0..WARM_PASSES {
        let ((results, report), _) = spans::span("exec.warm_pass", None, || {
            sweep_run_once("fig08", &specs, &sa)
        });
        warm_ms.push(report.wall_ms);
        hits += report.cached;
        corrupt += report.simulated;
        let warm = complete_outcomes(results).expect("an unsharded sweep returns every leg");
        let same_text = fig08_text(&warm).0 == cold_text;
        for (w, c) in warm.iter().zip(&cold) {
            legs.check(0, 0, same_text && report.simulated == 0 && w == c);
        }
    }
    let outcome_digest = digest_lines(cold.iter().map(canonical_run));
    let _ = std::fs::remove_dir_all(&dir);

    let ledger = traced.then(|| {
        let mut l = Ledger::default();
        let (bank_hits, bank_misses) = workload_bank_stats();
        l.set("workloads.gen_ms", gen.as_secs_f64() * 1e3);
        l.set("workloads.sets_generated", bank_misses as f64);
        l.set("workloads.bank_hits", bank_hits as f64);
        cache_ledger(&mut l, &specs, &cold, tmp);
        l.set("cache.hits", hits as f64);
        l.set("cache.misses", cold_report.simulated as f64);
        l.set("cache.corrupt", corrupt as f64);
        l.set("exec.cold_pass_ms", cold_report.wall_ms);
        l.set("exec.warm_pass_ms", stats::median(&warm_ms));
        let busy_ms: f64 = legs.ms.iter().sum();
        l.set(
            "pool.busy_pct",
            100.0 * ratio(busy_ms, workers as f64 * cold_report.wall_ms),
        );
        let cold_digest = fnv1a(&cold_text);
        for (name, procs, threads) in [
            ("pool.cold_pass_ms", 1, workers),
            ("proto.cold_pass_ms", workers, 1),
        ] {
            let (wall_ms, digest) = spawn_sweep_pass(seed, procs, threads, tmp);
            legs.check(0, 0, digest == cold_digest);
            l.set(name, wall_ms);
        }
        l
    });
    Done {
        legs,
        output_digest: fnv1a(&cold_text),
        outcome_digest,
        ledger,
    }
}

/// Time the outcome cache's four steps per leg on the cold outcomes, in
/// a directory of their own (inside `run_sweep` they cannot be told
/// apart from outside).
fn cache_ledger(l: &mut Ledger, specs: &[RunSpec], cold: &[RunOutcome], tmp: &std::path::Path) {
    let dir = scratch_dir(tmp, "codec");
    let store = OutcomeCache::open(&dir).expect("open codec scratch cache");
    let mut total = [Duration::ZERO; 4];
    let mut bytes = 0;
    for (spec, o) in specs.iter().zip(cold) {
        let key = cache::run_spec_digest(spec, "complete");
        let (payload, d0) = spans::span("cache.encode", None, || cache::encode_outcome(o));
        let (stored, d1) = spans::span("cache.store", None, || store.store(key, &payload));
        let (loaded, d2) = spans::span("cache.load", None, || store.load(key));
        let loaded = loaded.expect("codec scratch entry loads");
        let (decoded, d3) = spans::span("cache.decode", None, || cache::decode_outcome(&loaded));
        stored.expect("codec scratch store");
        assert_eq!(decoded.as_ref(), Some(o), "outcome codec must round-trip");
        for (t, d) in total.iter_mut().zip([d0, d1, d2, d3]) {
            *t += d;
        }
        bytes += payload.len();
    }
    let _ = std::fs::remove_dir_all(&dir);
    let per_leg_us = |d: Duration| d.as_secs_f64() * 1e6 / cold.len().max(1) as f64;
    l.set("cache.encode_us_per_leg", per_leg_us(total[0]));
    l.set("cache.store_us_per_leg", per_leg_us(total[1]));
    l.set("cache.load_us_per_leg", per_leg_us(total[2]));
    l.set("cache.decode_us_per_leg", per_leg_us(total[3]));
    l.set(
        "cache.bytes_per_leg",
        ratio(bytes as f64, cold.len() as f64),
    );
}

/// Run a cold `asap_sweep fig08`-equivalent pass in a child process:
/// `--procs 1 --threads N` uses the in-process pool, `--procs N` the
/// multi-process protocol. Returns the sweep's wall ms and table digest.
fn spawn_sweep_pass(seed: u64, procs: usize, threads: usize, tmp: &std::path::Path) -> (f64, u64) {
    let dir = scratch_dir(tmp, "pass");
    let exe = std::env::current_exe().expect("locate own executable");
    let out = Command::new(exe)
        .args(["sweep-pass", "--seed"])
        .arg(seed.to_string())
        .arg("--procs")
        .arg(procs.to_string())
        .arg("--threads")
        .arg(threads.to_string())
        .arg("--cache-dir")
        .arg(&dir)
        .output()
        .expect("spawn sweep-pass");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "sweep-pass failed: {}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    let v = json::parse(text.trim()).expect("sweep-pass prints one JSON object");
    let wall = v.get("wall_ms").and_then(Value::as_f64).expect("wall_ms");
    let digest = parse_hex(v.get("digest")).expect("digest");
    (wall, digest)
}

/// The `sweep-pass` subcommand: one cold quick-fig08 sweep through
/// `sweep_run_once` with the shared sweep flags in `argv`. Prints the
/// sweep's wall ms and table digest. A `--procs N` coordinator re-executes
/// this binary with the worker flag, and those children serve legs here.
pub fn sweep_pass(argv: &[String]) -> String {
    let sa = SweepArgs::parse(argv);
    sa.apply();
    let specs = fig08_specs(ExperimentScale {
        seed: sa.seed.unwrap_or(42),
        ..ExperimentScale::quick()
    });
    let (results, report) = sweep_run_once("fig08", &specs, &sa);
    let outs = complete_outcomes(results).expect("an unsharded sweep returns every leg");
    format!(
        "{{\"wall_ms\":{},\"digest\":{}}}",
        json::num(report.wall_ms),
        hex(fnv1a(&fig08_text(&outs).0))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("fig08"), None);
    }

    #[test]
    fn repeat_json_round_trips() {
        let r = Repeat {
            first_leg_ns: 123,
            legs_ms: vec![1.5, 0.25],
            sim_cycles: 99,
            attempted: 2,
            failed: 0,
            output_digest: 0xdead_beef,
            outcome_digest: u64::MAX,
            cpu_s: 0.5,
            peak_rss_mb: 12.25,
            ledger: Some(vec![("sim_cycles".into(), 99.0)]),
        };
        assert_eq!(Repeat::from_json(&r.to_json()), Ok(r.clone()));
        let untraced = Repeat { ledger: None, ..r };
        assert_eq!(Repeat::from_json(&untraced.to_json()), Ok(untraced));
        assert!(Repeat::from_json("{}").is_err());
    }
}
