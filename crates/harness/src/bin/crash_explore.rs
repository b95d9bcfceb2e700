//! `crash_explore`: the systematic crash-space explorer CLI.
//!
//! ```text
//! crash_explore [--workloads W1,W2|all] [--models M1,M2|all]
//!               [--flavor ep|rp] [--threads N] [--ops N] [--seed N]
//!               [--points-budget N] [--prune off|on|verify]
//!               [--chunk N] [--workers N] [--json PATH]
//!               [--broken-fixture] [--expect-violation]
//!               [--assert-min-points N] [--assert-min-prune PCT]
//! ```
//!
//! Machine-checks the recovery theorems over every crash instant of
//! each (workload, model) configuration: one instrumented collect run
//! per config, then the pruned survivor set verified by deterministic
//! re-runs fanned out over the worker pool. Chunk results assemble in
//! input order, so the report is byte-identical at any `--workers`
//! count and equal to the serial
//! [`explore_all`](asap_analysis::explore::explore_all). Text report to
//! stdout; `--json PATH` writes the CI artifact (`-` for stdout).
//!
//! Every run re-verifies every chunk: nothing is cached, so a report
//! always describes the build that printed it.
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
    assemble_config, pass1, verify_chunk, ChunkResult, CrashSpaceReport, ExploreParams, Pass1,
};
use asap_harness::args::{
    arg_value as arg, has_flag, parse_arg, parse_arg_or, parse_label, threads_config, usage_error,
};
use asap_harness::pool;
use asap_sim_core::ModelKind;
use asap_workloads::WorkloadKind;
use std::num::NonZeroUsize;

fn usage() -> ! {
    println!(
        "usage: crash_explore [--workloads W1,W2|all] [--models M1,M2|all] \
         [--flavor ep|rp] [--threads N] [--ops N] [--seed N] \
         [--points-budget N] [--prune off|on|verify] [--chunk N] [--workers N] \
         [--json PATH] [--broken-fixture] [--expect-violation] \
         [--assert-min-points N] [--assert-min-prune PCT]\n\n\
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
                usage_error(&format!("invalid value '{s}' for {flag}; see --help"))
            })
        })
        .collect()
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
    if let Some(flavor) = parse_label(&argv, "--flavor", "ep|rp") {
        p.flavor = flavor;
    }
    p.threads = threads_config(&argv, p.threads).num_cores;
    p.ops_per_thread = parse_arg_or(&argv, "--ops", p.ops_per_thread);
    p.seed = parse_arg_or(&argv, "--seed", p.seed);
    // A zero budget or chunk is a usage error (exit 2): parsing as
    // `NonZeroUsize` rejects it.
    p.points_budget =
        parse_arg(&argv, "--points-budget").map_or(p.points_budget, NonZeroUsize::get);
    p.prune = parse_arg_or(&argv, "--prune", p.prune);
    p.chunk = parse_arg(&argv, "--chunk").map_or(p.chunk, NonZeroUsize::get);
    if has_flag(&argv, "--broken-fixture") {
        p.broken_undo_every = 1;
    }
    let expect_violation = has_flag(&argv, "--expect-violation");
    let json = arg(&argv, "--json");
    let min_points = parse_arg::<u64>(&argv, "--assert-min-points");
    let min_prune = parse_arg::<f64>(&argv, "--assert-min-prune");
    // A percentage outside [0, 100], NaN included, could never gate.
    if let Some(pct) = min_prune.filter(|pct| !(0.0..=100.0).contains(pct)) {
        usage_error(&format!(
            "--assert-min-prune must be within [0,100], got {pct}"
        ));
    }
    if let Some(n) = parse_arg(&argv, "--workers") {
        pool::set_worker_override(n);
    }

    if p.workloads.is_empty() || p.models.is_empty() {
        usage_error("empty --workloads or --models");
    }

    let t0 = std::time::Instant::now();
    let grid = p.configs();

    // Pass 1 (collect + plan) for every config, in parallel.
    let plans: Vec<Pass1> = pool::par_map(&grid, |&(w, m)| pass1(&p, w, m));

    // Pass 2 (verify): every config's chunks as one flat job list on
    // the pool. Results come back in input order, which is what makes
    // the report independent of the worker count.
    let jobs: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(pi, plan)| (0..plan.chunks.len()).map(move |ci| (pi, ci)))
        .collect();
    let mut results = pool::par_map(&jobs, |&(pi, ci)| {
        let (w, m) = grid[pi];
        verify_chunk(&p, w, m, &plans[pi].chunks[ci])
    })
    .into_iter();

    // Assemble per config, in grid order.
    let configs = plans
        .iter()
        .map(|plan| {
            let chunks: Vec<ChunkResult> = results.by_ref().take(plan.chunks.len()).collect();
            assemble_config(&p, plan, &chunks)
        })
        .collect();
    let report = CrashSpaceReport::new(&p, configs);

    print!("{}", report.to_text());
    if let Some(path) = json {
        if path == "-" {
            println!("{}", report.to_json());
        } else {
            if let Err(e) = std::fs::write(&path, report.to_json()) {
                usage_error(&format!("cannot write --json {path}: {e}"));
            }
            eprintln!("# JSON report written to {path}");
        }
    }
    asap_harness::cli_footer(t0);

    let mut failed = false;
    if let Some(min) = min_points {
        if report.total_raw() < min {
            eprintln!(
                "error: raw crash points {} below --assert-min-points {min}",
                report.total_raw()
            );
            failed = true;
        }
    }
    if let Some(min) = min_prune {
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
