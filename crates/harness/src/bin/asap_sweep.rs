//! `asap_sweep`: regenerates any figure of the evaluation, or the
//! traffic sweep, through the incremental, resumable sweep executor.
//!
//! ```text
//! asap_sweep <fig02|fig03|fig08|fig09|fig10|fig11|fig12|fig13|ablations|traffic>
//!            [--full] [--seed N] [--ops N] [--requests N] [--gap CYCLES]
//!            [--workers N] [--cache-dir DIR] [--resume] [--shard i/n]
//!            [--progress] [--csv] [--cache-stats PATH]
//! ```
//!
//! A figure name selects an entry of the
//! [`asap_harness::experiments::FIGURES`] registry; `--ops N` overrides
//! its ops per thread. Every sweep runs through the executor layer
//! ([`asap_harness::exec`]): with `--cache-dir`, completed legs persist
//! to a digest-keyed outcome cache and re-runs only simulate changed
//! legs (figures that share legs share cache entries); `--resume`
//! continues a killed sweep; `--shard i/n` runs one machine's slice.
//! However the legs were executed — pooled, cached, resumed — the
//! tables on stdout are byte-identical, because results assemble in
//! input order and cached outcomes decode exactly.
//!
//! The sweep report (leg counts, cache hits, wall time) goes to stderr;
//! `--cache-stats PATH` additionally writes it as JSON for CI gates.
//! Under `--shard` the tables are suppressed (legs are missing by
//! design): run every shard into a shared `--cache-dir`, then assemble
//! with a final `--resume` run.

use asap_harness::args::{self, SweepArgs};
use asap_harness::exec::{complete_outcomes, sweep_figure, sweep_traffic, SweepReport};
use asap_harness::experiments::{figure, FIGURES};
use asap_harness::traffic::{table_from_runs, TrafficScale};

/// The accepted sweep names: every registry figure, then `traffic`.
fn known() -> String {
    let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    names.push("traffic");
    names.join(" | ")
}

fn usage() -> ! {
    println!(
        "usage: asap_sweep <{}> [--full] [--seed N] [--ops N] \
         [--requests N] [--gap CYCLES] [--workers N] \
         [--cache-dir DIR] [--resume] [--shard i/n] \
         [--progress] [--csv] [--cache-stats PATH]",
        known().replace(" | ", "|")
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
            eprintln!("error: asap_sweep needs a sweep name: {}", known());
            std::process::exit(2);
        }
    };
    let sa = SweepArgs::init();

    let report = if let Some(fig) = figure(&sub) {
        let mut scale = sa.scale();
        if let Some(ops) = args::parse_arg(&argv, "--ops") {
            scale.ops = ops;
        }
        let (tables, report) = sweep_figure(fig, scale, &sa);
        for t in tables.iter().flatten() {
            asap_harness::cli_emit(t);
        }
        report
    } else if sub == "traffic" {
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
        report
    } else {
        eprintln!("error: unknown sweep '{sub}'; known: {}", known());
        std::process::exit(2);
    };
    finish(&report, &argv, t0);
}
