//! `asap_sweep`: regenerates any figure or table of the evaluation, or
//! the open-loop traffic sweep, through the incremental sweep executor.
//!
//! ```text
//! asap_sweep <fig02|fig03|fig08|fig09|fig10|fig11|fig12|fig13|ablations|tab05>
//!            [--full] [--seed N] [--ops N] [--workers N] [--cache-dir DIR]
//!            [--progress] [--csv] [--cache-stats PATH]
//! asap_sweep traffic [--full] [--seed N] [--app memcached|nstore|echo]
//!            [--model baseline|hops|asap|eadr|bbb] [--flavor ep|rp]
//!            [--arrival fixed|poisson|bursty|diurnal] [--gap CYCLES]
//!            [--requests N] [--update-fraction F] [--zipf THETA] [--json]
//!            [--emit-trace PATH] [--replay PATH] [--workers N]
//!            [--cache-dir DIR] [--progress] [--csv] [--cache-stats PATH]
//! ```
//!
//! A figure name selects an entry of the
//! [`asap_harness::experiments::FIGURES`] registry; `--ops N` overrides
//! its ops per thread (N ≥ 1). Every sweep runs through the executor layer
//! ([`asap_harness::exec`]): with `--cache-dir`, completed legs persist
//! to a digest-keyed outcome cache and re-runs only simulate missing or
//! changed legs (figures that share legs share cache entries), so a
//! plain rerun continues a killed sweep. However the legs were executed
//! — pooled or cached — the tables on stdout are byte-identical,
//! because results assemble in input order and cached outcomes decode
//! exactly.
//!
//! `traffic` fans `3 apps × 5 models × 2 offered loads` (≥ 1 M
//! requests) at quick scale and prints p50/p95/p99/p99.9 of the total
//! sojourn time plus the p99 queueing-delay / service-time split, all
//! in cycles. `--app`/`--model`/`--flavor`/`--arrival`/`--gap`/
//! `--requests`/`--update-fraction`/`--zipf` narrow the sweep to one
//! axis value; `--json` adds one provenance JSON line per leg after the
//! table. Trace files (`# asap-traffic v1`, one
//! `<cycle> <get|set> <key>` line per request): `--emit-trace` writes
//! the first leg's request bank and exits; `--replay` replays a trace
//! file on every (app, model) pair instead of generating banks. Replayed
//! legs never touch the outcome cache: their bank comes from a file the
//! spec digest cannot see. A `--gap` × `--requests` product, or a
//! replayed arrival, past [`MAX_ARRIVAL_CYCLE`] (2^48 cycles) exits 2,
//! as does a `--requests` of 0 or above [`MAX_REQUESTS`] (2^24).
//!
//! The sweep report (leg counts, cache hits, wall time) goes to stderr;
//! `--cache-stats PATH` additionally writes it as JSON for CI gates.
//! Malformed flag values are hard errors (exit status 2), never silent
//! fallbacks — see [`asap_harness::args`].

use asap_harness::args::{self, parse_arg, parse_label, usage_error, SweepArgs};
use asap_harness::exec::{sweep_figure, sweep_traffic, SweepReport};
use asap_harness::experiments::{figure, FIGURES};
use asap_harness::pool;
use asap_harness::traffic::{
    replay_table, run_traffic_bank, table_from_runs, TrafficApp, TrafficOutcome, TrafficScale,
    TrafficSpec,
};
use asap_sim_core::{Flavor, ModelKind};
use asap_workloads::traffic::{
    format_trace, generate, parse_trace, ArrivalKind, MAX_ARRIVAL_CYCLE, MAX_REQUESTS,
};
use std::num::NonZeroU64;
use std::sync::Arc;

/// The accepted sweep names: every registry entry, then `traffic`.
fn known() -> String {
    let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    names.push("traffic");
    names.join(" | ")
}

fn usage() -> ! {
    let figures: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    println!(
        "usage: asap_sweep <{}> [--full] [--seed N] [--ops N] \
         [--workers N] [--cache-dir DIR] [--progress] [--csv] \
         [--cache-stats PATH]\n       \
         asap_sweep traffic [--full] [--seed N] [--app memcached|nstore|echo] \
         [--model baseline|hops|asap|eadr|bbb] [--flavor ep|rp] \
         [--arrival fixed|poisson|bursty|diurnal] [--gap CYCLES] \
         [--requests N] [--update-fraction F] [--zipf THETA] [--json] \
         [--emit-trace PATH] [--replay PATH] [--workers N] \
         [--cache-dir DIR] [--progress] [--csv] [--cache-stats PATH]",
        figures.join("|")
    );
    std::process::exit(0);
}

fn finish(report: &SweepReport, cache_stats: Option<&str>, t0: std::time::Instant) {
    eprintln!("{}", report.summary());
    if let Some(path) = cache_stats {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            usage_error(&format!("cannot write --cache-stats {path}: {e}"));
        }
    }
    asap_harness::cli_footer(t0);
}

/// The traffic sweep's scale: quick or `--full`, narrowed by the axis
/// flags.
fn traffic_scale(argv: &[String], sa: &SweepArgs) -> TrafficScale {
    let mut scale = if sa.full {
        TrafficScale::full()
    } else {
        TrafficScale::quick()
    };
    if let Some(app) = parse_label::<TrafficApp>(argv, "--app", "memcached|nstore|echo") {
        scale.apps = vec![app];
    }
    if let Some(model) = parse_label::<ModelKind>(argv, "--model", "baseline|hops|asap|eadr|bbb") {
        scale.models = vec![model];
    }
    if let Some(flavor) = parse_label::<Flavor>(argv, "--flavor", "ep|rp") {
        scale.flavor = flavor;
    }
    if let Some(kind) =
        parse_label::<ArrivalKind>(argv, "--arrival", "fixed|poisson|bursty|diurnal")
    {
        scale.arrival = kind;
    }
    if let Some(gap) = parse_arg::<u64>(argv, "--gap") {
        if gap == 0 {
            usage_error("--gap must be at least one cycle");
        }
        scale.gaps = vec![gap];
    }
    if let Some(n) = parse_arg::<NonZeroU64>(argv, "--requests") {
        if n.get() > MAX_REQUESTS {
            usage_error(&format!(
                "invalid value '{n}' for --requests: at most {MAX_REQUESTS} requests a leg"
            ));
        }
        scale.requests = n.get();
    }
    // A leg's arrivals span about gap × requests cycles.
    for &gap in &scale.gaps {
        let end = gap.checked_mul(scale.requests);
        if end.is_none_or(|end| end > MAX_ARRIVAL_CYCLE) {
            let n = scale.requests;
            usage_error(&format!(
                "--gap {gap} × --requests {n} passes cycle {MAX_ARRIVAL_CYCLE}"
            ));
        }
    }
    if let Some(f) = parse_arg::<f64>(argv, "--update-fraction") {
        if !(0.0..=1.0).contains(&f) {
            usage_error(&format!("--update-fraction must be within 0..=1, got {f}"));
        }
        scale.update_fraction = f;
    }
    if let Some(theta) = args::parse_zipf(argv) {
        scale.zipf_theta = theta;
    }
    if let Some(seed) = sa.seed {
        scale.seed = seed;
    }
    scale
}

/// Print one provenance JSON line per leg when `--json` was passed.
fn emit_json(argv: &[String], specs: &[TrafficSpec], outs: &[TrafficOutcome]) {
    if args::has_flag(argv, "--json") {
        for (spec, out) in specs.iter().zip(outs) {
            println!("{}", out.to_json(spec));
        }
    }
}

/// Write the request bank of the sweep's first leg as a trace file.
fn emit_trace(scale: &TrafficScale, path: &str) {
    let specs = scale.specs();
    let Some(spec) = specs.first() else {
        usage_error("sweep has no legs to emit");
    };
    let bank = generate(&spec.traffic);
    if let Err(e) = std::fs::write(path, format_trace(&bank)) {
        usage_error(&format!("cannot write --emit-trace {path}: {e}"));
    }
    eprintln!(
        "# wrote {} requests ({} arrivals/{} gap, seed {}) to {path}",
        bank.len(),
        spec.traffic.arrival,
        spec.traffic.mean_gap,
        spec.traffic.seed
    );
}

/// Replay the trace file `path` on every (app, model) pair of `scale`,
/// on the pool and outside the outcome cache.
fn replay(argv: &[String], scale: &TrafficScale, path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(&format!("cannot read --replay {path}: {e}")));
    let bank =
        Arc::new(parse_trace(&text).unwrap_or_else(|e| usage_error(&format!("{path}: {e}"))));
    let mut specs = scale.specs();
    // The replayed bank replaces generation; one leg per (app, model)
    // suffices, so drop the offered-load axis.
    specs.dedup_by(|a, b| a.app == b.app && a.model == b.model);
    let outs = pool::par_map(&specs, |s| run_traffic_bank(s, Arc::clone(&bank)));
    asap_harness::cli_emit(&replay_table(path, &specs, &outs));
    emit_json(argv, &specs, &outs);
}

/// The `traffic` subcommand. `None` for `--emit-trace` and `--replay`,
/// which run no cached sweep and so have no report.
fn traffic(argv: &[String], sa: &SweepArgs) -> Option<SweepReport> {
    let scale = traffic_scale(argv, sa);
    if let Some(path) = args::arg_value(argv, "--emit-trace") {
        emit_trace(&scale, &path);
        return None;
    }
    if let Some(path) = args::arg_value(argv, "--replay") {
        replay(argv, &scale, &path);
        return None;
    }
    let specs = scale.specs();
    let (outs, report) = sweep_traffic("traffic", &specs, sa);
    asap_harness::cli_emit(&table_from_runs(&specs, &outs));
    emit_json(argv, &specs, &outs);
    Some(report)
}

fn main() {
    let t0 = std::time::Instant::now();
    let argv: Vec<String> = std::env::args().collect();
    if args::has_flag(&argv, "--help") || args::has_flag(&argv, "-h") {
        usage();
    }
    let sub = match argv.get(1) {
        Some(s) if !s.starts_with('-') => s.clone(),
        _ => usage_error(&format!("asap_sweep needs a sweep name: {}", known())),
    };
    let sa = SweepArgs::init();
    let cache_stats = args::arg_value(&argv, "--cache-stats");

    let report = if let Some(fig) = figure(&sub) {
        let mut scale = sa.scale();
        if let Some(ops) = parse_arg::<NonZeroU64>(&argv, "--ops") {
            scale.ops = ops.get();
        }
        let (tables, report) = sweep_figure(fig, scale, &sa);
        for t in &tables {
            asap_harness::cli_emit(t);
        }
        report
    } else if sub == "traffic" {
        let Some(report) = traffic(&argv, &sa) else {
            asap_harness::cli_footer(t0);
            return;
        };
        report
    } else {
        usage_error(&format!("unknown sweep '{sub}'; known: {}", known()));
    };
    finish(&report, cache_stats.as_deref(), t0);
}
