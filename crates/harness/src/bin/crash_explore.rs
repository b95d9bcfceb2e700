//! `crash_explore`: the systematic crash-space explorer CLI.
//!
//! ```text
//! crash_explore [--workloads W1,W2|all] [--models M1,M2|all]
//!               [--flavor ep|rp] [--threads N] [--ops N] [--seed N]
//!               [--pad N] [--points-budget N] [--prune off|on|verify]
//!               [--chunk N] [--workers N] [--json PATH]
//!               [--cache-dir DIR] [--broken-fixture]
//!               [--broken-undo-every N] [--expect-violation]
//!               [--assert-min-points N] [--assert-min-prune PCT]
//! ```
//!
//! Machine-checks the recovery theorems over every crash instant of
//! each (workload, model) configuration: one instrumented collect run
//! per config, then the pruned survivor set verified by deterministic
//! re-runs fanned out over the worker pool. Chunk results assemble in
//! input order, so the report is byte-identical at any `--workers`
//! count. Text report to stdout; `--json PATH` writes the CI artifact
//! (`-` for stdout).
//!
//! `--cache-dir DIR` caches clean per-config results keyed by a digest
//! of the config's run manifest (hardware digest, workload, model,
//! flavor, threads, ops, seed) plus every explorer parameter — any
//! change re-explores. Entries live in the shared checksummed store
//! ([`asap_harness::cache::OutcomeCache`]), so a truncated or corrupted
//! file is a miss that re-explores, never a wrong report. Configs with
//! violations are never cached.
//!
//! `--broken-fixture` injects the deliberately-broken recovery table
//! (every undo record dropped) and, with `--expect-violation`, flips
//! the exit contract: status 0 *iff* the explorer caught at least one
//! violation. This is the CI proof that a Theorem 2 regression cannot
//! slip through.
//!
//! Exit status: 0 clean, 1 violations or failed assertion (inverted by
//! `--expect-violation`), 2 bad usage or an unwritable `--json` path.

use asap_analysis::explore::{
    assemble_config, pass1, verify_chunk, ChunkResult, ConfigReport, CrashSpaceReport,
    ExploreParams, Pass1,
};
use asap_harness::args::{arg_value as arg, has_flag, parse_arg, parse_arg_or};
use asap_harness::cache::OutcomeCache;
use asap_harness::pool;
use asap_sim_core::{Flavor, ModelKind, SimConfig};
use asap_workloads::WorkloadKind;

fn usage() -> ! {
    println!(
        "usage: crash_explore [--workloads W1,W2|all] [--models M1,M2|all] \
         [--flavor ep|rp] [--threads N] [--ops N] [--seed N] [--pad N] \
         [--points-budget N] [--prune off|on|verify] [--chunk N] [--workers N] \
         [--json PATH] [--cache-dir DIR] [--broken-fixture] [--broken-undo-every N] \
         [--expect-violation] [--assert-min-points N] [--assert-min-prune PCT]\n\n\
         workloads: {}\nmodels: {}",
        WorkloadKind::all()
            .iter()
            .map(|w| w.label())
            .collect::<Vec<_>>()
            .join(", "),
        ModelKind::all()
            .iter()
            .map(|m| m.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(0)
}

fn parse_list<T>(raw: &str, flag: &str, all: &[T]) -> Vec<T>
where
    T: std::str::FromStr + Copy,
{
    if raw == "all" {
        return all.to_vec();
    }
    raw.split(',')
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                eprintln!("error: invalid value '{s}' for {flag}; see --help");
                std::process::exit(2);
            })
        })
        .collect()
}

/// FNV-1a digest of the cache identity: the run manifest fields that
/// pin the collect run, plus every explorer parameter.
fn cache_key(p: &ExploreParams, workload: WorkloadKind, model: ModelKind) -> u64 {
    let mut cfg = SimConfig::paper();
    cfg.num_cores = cfg.num_cores.max(p.threads);
    let identity = format!(
        "config={:016x} workload={} model={} flavor={:?} threads={} ops={} seed={} \
         pad={} budget={} prune={} chunk={} broken={}",
        cfg.digest(),
        workload.label(),
        model.label(),
        p.flavor,
        p.threads,
        p.ops_per_thread,
        p.seed,
        p.pad,
        p.points_budget,
        p.prune.as_str(),
        p.chunk,
        p.broken_undo_every
    );
    asap_harness::cache::fnv1a(&identity)
}

fn u64s(v: &[u64]) -> String {
    v.iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Serialize a clean config report as `key value` lines.
fn cache_render(c: &ConfigReport) -> String {
    format!(
        "workload {}\nmodel {}\nendCycle {}\nrawPoints {}\ndistinctStates {}\n\
         checked {}\nsampledOut {}\npruned {}\nverifyChecked {}\nundoMax {}\n\
         boundaryCounts {}\nboundaryCovered {}\n",
        c.workload,
        c.model,
        c.end_cycle,
        c.raw_points,
        c.distinct_states,
        c.checked,
        c.sampled_out,
        c.pruned,
        c.verify_checked,
        c.undo_max,
        u64s(&c.boundary_counts),
        u64s(&c.boundary_covered),
    )
}

/// Parse [`cache_render`]'s format; `None` on any malformed content
/// (treated as a cache miss, never an error).
fn cache_parse(text: &str) -> Option<ConfigReport> {
    let mut c = ConfigReport {
        workload: String::new(),
        model: String::new(),
        end_cycle: 0,
        raw_points: 0,
        distinct_states: 0,
        checked: 0,
        sampled_out: 0,
        pruned: 0,
        boundary_counts: [0; 10],
        boundary_covered: [0; 10],
        rule_counts: [0; 6],
        violations: Vec::new(),
        verify_checked: 0,
        verify_mismatches: 0,
        undo_max: 0,
        from_cache: true,
    };
    let mut seen = 0;
    for line in text.lines() {
        let (k, v) = line.split_once(' ')?;
        seen += 1;
        match k {
            "workload" => c.workload = v.to_string(),
            "model" => c.model = v.to_string(),
            "endCycle" => c.end_cycle = v.parse().ok()?,
            "rawPoints" => c.raw_points = v.parse().ok()?,
            "distinctStates" => c.distinct_states = v.parse().ok()?,
            "checked" => c.checked = v.parse().ok()?,
            "sampledOut" => c.sampled_out = v.parse().ok()?,
            "pruned" => c.pruned = v.parse().ok()?,
            "verifyChecked" => c.verify_checked = v.parse().ok()?,
            "undoMax" => c.undo_max = v.parse().ok()?,
            "boundaryCounts" | "boundaryCovered" => {
                let mut arr = [0u64; 10];
                let mut it = v.split(',');
                for slot in &mut arr {
                    *slot = it.next()?.parse().ok()?;
                }
                if it.next().is_some() {
                    return None;
                }
                if k == "boundaryCounts" {
                    c.boundary_counts = arr;
                } else {
                    c.boundary_covered = arr;
                }
            }
            _ => return None,
        }
    }
    if seen != 12 || c.workload.is_empty() || c.model.is_empty() {
        return None;
    }
    Some(c)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }

    let mut p = ExploreParams {
        workloads: parse_list(
            arg(&argv, "--workloads").as_deref().unwrap_or("queue,cceh"),
            "--workloads",
            &WorkloadKind::all(),
        ),
        models: parse_list(
            arg(&argv, "--models").as_deref().unwrap_or("all"),
            "--models",
            &ModelKind::all(),
        ),
        ..ExploreParams::default()
    };
    if let Some(v) = arg(&argv, "--flavor") {
        p.flavor = v.parse::<Flavor>().unwrap_or_else(|_| {
            eprintln!("error: invalid value '{v}' for --flavor; known: ep|rp");
            std::process::exit(2);
        });
    }
    p.threads = parse_arg_or(&argv, "--threads", p.threads);
    p.ops_per_thread = parse_arg_or(&argv, "--ops", p.ops_per_thread);
    p.seed = parse_arg_or(&argv, "--seed", p.seed);
    p.pad = parse_arg_or(&argv, "--pad", p.pad);
    p.points_budget = parse_arg_or(&argv, "--points-budget", p.points_budget);
    p.prune = parse_arg_or(&argv, "--prune", p.prune);
    p.chunk = parse_arg_or(&argv, "--chunk", p.chunk);
    if has_flag(&argv, "--broken-fixture") {
        p.broken_undo_every = 1;
    }
    if let Some(n) = parse_arg(&argv, "--broken-undo-every") {
        p.broken_undo_every = n;
    }
    let workers: usize = parse_arg_or(&argv, "--workers", pool::num_workers());
    let cache_dir = arg(&argv, "--cache-dir");
    let expect_violation = has_flag(&argv, "--expect-violation");

    if p.workloads.is_empty() || p.models.is_empty() {
        eprintln!("error: empty --workloads or --models");
        std::process::exit(2);
    }

    let t0 = std::time::Instant::now();
    let grid = p.configs();

    // Cache probe — only for healthy runs (a broken fixture must always
    // re-explore so the violation is re-proven).
    let cache = cache_dir.as_deref().map(|d| {
        OutcomeCache::open(d).unwrap_or_else(|e| {
            eprintln!("error: cannot open --cache-dir {d}: {e}");
            std::process::exit(2);
        })
    });
    let cached: Vec<Option<ConfigReport>> = grid
        .iter()
        .map(|&(w, m)| {
            if p.broken_undo_every != 0 {
                return None;
            }
            let text = cache.as_ref()?.load(cache_key(&p, w, m))?;
            cache_parse(&text)
        })
        .collect();

    // Pass 1 (collect + plan) over the non-cached configs, in parallel.
    let todo: Vec<(WorkloadKind, ModelKind)> = grid
        .iter()
        .zip(&cached)
        .filter(|(_, c)| c.is_none())
        .map(|(&g, _)| g)
        .collect();
    let plans: Vec<Pass1> = pool::par_map_with(&todo, workers, |&(w, m)| pass1(&p, w, m));

    // Pass 2 (verify) as one flat job list across every config's
    // chunks; par_map_with returns results in input order, which is
    // what makes the assembled report independent of worker count.
    let jobs: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(pi, plan)| (0..plan.chunks.len()).map(move |ci| (pi, ci)))
        .collect();
    let chunk_results: Vec<ChunkResult> = pool::par_map_with(&jobs, workers, |&(pi, ci)| {
        let (w, m) = todo[pi];
        verify_chunk(&p, w, m, &plans[pi].chunks[ci])
    });

    // Assemble per config, interleaving cached and fresh results back
    // into grid order.
    let mut by_plan: Vec<Vec<ChunkResult>> = plans.iter().map(|_| Vec::new()).collect();
    for ((pi, _), r) in jobs.into_iter().zip(chunk_results) {
        by_plan[pi].push(r);
    }
    let mut fresh = plans.iter().zip(&by_plan);
    let configs: Vec<ConfigReport> = grid
        .iter()
        .zip(cached)
        .map(|(_, c)| match c {
            Some(hit) => hit,
            None => {
                let (plan, results) = fresh.next().expect("one plan per non-cached config");
                assemble_config(&p, plan, results)
            }
        })
        .collect();

    // Populate the cache with the clean, freshly-computed configs.
    if let (Some(cache), 0) = (&cache, p.broken_undo_every) {
        for c in configs.iter().filter(|c| !c.from_cache && c.is_clean()) {
            let w: WorkloadKind = c.workload.parse().expect("label round-trips");
            let m: ModelKind = c.model.parse().expect("label round-trips");
            let _ = cache.store(cache_key(&p, w, m), &cache_render(c));
        }
    }

    let report = CrashSpaceReport {
        flavor: p.flavor,
        threads: p.threads,
        ops_per_thread: p.ops_per_thread,
        seed: p.seed,
        pad: p.pad,
        points_budget: p.points_budget,
        prune: p.prune,
        broken_undo_every: p.broken_undo_every,
        configs,
    };

    print!("{}", report.to_text());
    if let Some(path) = arg(&argv, "--json") {
        if path == "-" {
            println!("{}", report.to_json());
        } else {
            if let Err(e) = std::fs::write(&path, report.to_json()) {
                eprintln!("error: cannot write --json {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("# JSON report written to {path}");
        }
    }
    if let Some(cache) = &cache {
        let s = cache.stats();
        eprintln!(
            "# cache: {} hit(s), {} miss(es), {} store(s) in {}",
            s.hits,
            s.misses,
            s.stores,
            cache.dir().display()
        );
    }
    eprintln!("# wall-clock {:.3?} on {workers} worker(s)", t0.elapsed());

    let mut failed = false;
    if let Some(min) = parse_arg::<u64>(&argv, "--assert-min-points") {
        if report.total_raw() < min {
            eprintln!(
                "error: raw crash points {} below --assert-min-points {min}",
                report.total_raw()
            );
            failed = true;
        }
    }
    if let Some(min) = parse_arg::<f64>(&argv, "--assert-min-prune") {
        let pct = report.prune_ratio() * 100.0;
        if pct < min {
            eprintln!("error: prune ratio {pct:.1}% below --assert-min-prune {min}%");
            failed = true;
        }
    }

    let violated = report.total_violations() > 0 || report.total_verify_mismatches() > 0;
    if expect_violation {
        if !violated {
            eprintln!("error: --expect-violation set but the explorer found none");
            std::process::exit(1);
        }
        eprintln!(
            "# broken fixture caught: {} violation(s) as expected",
            report.total_violations()
        );
        if failed {
            std::process::exit(1);
        }
        return;
    }
    if violated || failed {
        std::process::exit(1);
    }
}
