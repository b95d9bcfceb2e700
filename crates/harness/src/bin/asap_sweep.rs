//! `asap_sweep`: the incremental, resumable, multi-process sweep
//! coordinator.
//!
//! ```text
//! asap_sweep <fig08|traffic> [--full] [--seed N] [--ops N] [--requests N]
//!            [--gap CYCLES] [--workers N] [--procs N] [--chunk N]
//!            [--cache-dir DIR] [--resume] [--shard i/n] [--progress]
//!            [--csv] [--cache-stats PATH]
//! ```
//!
//! Runs the named sweep through the executor layer
//! ([`asap_harness::exec`]): with `--cache-dir`, completed legs persist
//! to a digest-keyed outcome cache and re-runs only simulate changed
//! legs; with `--procs N`, legs fan out over N worker processes (this
//! same binary, re-executed with an internal flag) over a
//! work-stealing chunk queue; `--resume` continues a killed sweep;
//! `--shard i/n` runs one machine's slice. However the legs were
//! executed — pooled, multi-process, cached, resumed — the table on
//! stdout is byte-identical, because results assemble in input order
//! and cached outcomes decode exactly.
//!
//! The sweep report (leg counts, cache hits, wall time) goes to stderr;
//! `--cache-stats PATH` additionally writes it as JSON for CI gates.
//! Under `--shard` the table is suppressed (legs are missing by
//! design): run every shard into a shared `--cache-dir`, then assemble
//! with a final `--resume` run.

use asap_harness::args::{self, SweepArgs};
use asap_harness::exec::{complete_outcomes, sweep_run_once, sweep_traffic, SweepReport};
use asap_harness::experiments::{fig08_specs, fig08_summary, fig08_table_from};
use asap_harness::traffic::{table_from_runs, TrafficScale};

fn usage() -> ! {
    println!(
        "usage: asap_sweep <fig08|traffic> [--full] [--seed N] [--ops N] \
         [--requests N] [--gap CYCLES] [--workers N] \
         [--procs N] [--chunk N] [--cache-dir DIR] [--resume] [--shard i/n] \
         [--progress] [--csv] [--cache-stats PATH]"
    );
    std::process::exit(0);
}

fn finish(report: &SweepReport, argv: &[String], t0: std::time::Instant) {
    eprintln!("{}", report.summary());
    if let Some(path) = args::arg_value(argv, "--cache-stats") {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: cannot write --cache-stats {path}: {e}");
            std::process::exit(2);
        }
    }
    if !report.complete {
        eprintln!(
            "# partial sweep (sharded): table suppressed; run the other shards \
             into this --cache-dir, then assemble with --resume"
        );
    }
    asap_harness::cli_footer(t0);
}

fn main() {
    let t0 = std::time::Instant::now();
    let argv: Vec<String> = std::env::args().collect();
    if args::has_flag(&argv, "--help") || args::has_flag(&argv, "-h") {
        usage();
    }
    let sub = match argv.get(1) {
        Some(s) if !s.starts_with('-') => s.clone(),
        _ => {
            eprintln!("error: asap_sweep needs a sweep name: fig08 | traffic");
            std::process::exit(2);
        }
    };
    let sa = SweepArgs::init();

    match sub.as_str() {
        "fig08" => {
            let mut scale = sa.scale();
            if let Some(ops) = args::parse_arg(&argv, "--ops") {
                scale.ops = ops;
            }
            let specs = fig08_specs(scale);
            let (results, report) = sweep_run_once("fig08", &specs, &sa);
            if let Some(outs) = complete_outcomes(results) {
                let t = fig08_table_from(&outs);
                asap_harness::cli_emit(&t);
                asap_harness::cli_emit(&fig08_summary(&t));
            }
            finish(&report, &argv, t0);
        }
        "traffic" => {
            let mut scale = if sa.full {
                TrafficScale::full()
            } else {
                TrafficScale::quick()
            };
            if let Some(s) = sa.seed {
                scale.seed = s;
            }
            if let Some(n) = args::parse_arg(&argv, "--requests") {
                scale.requests = n;
            }
            if let Some(gap) = args::parse_arg::<u64>(&argv, "--gap") {
                if gap == 0 {
                    eprintln!("error: --gap must be at least one cycle");
                    std::process::exit(2);
                }
                scale.gaps = vec![gap];
            }
            let specs = scale.specs();
            let (results, report) = sweep_traffic("traffic", &specs, &sa);
            if let Some(outs) = complete_outcomes(results) {
                asap_harness::cli_emit(&table_from_runs(&specs, &outs));
            }
            finish(&report, &argv, t0);
        }
        other => {
            eprintln!("error: unknown sweep '{other}'; known: fig08 | traffic");
            std::process::exit(2);
        }
    }
}
