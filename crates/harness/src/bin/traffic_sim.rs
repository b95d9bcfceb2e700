//! `traffic_sim`: open-loop trace-driven latency sweeps.
//!
//! ```text
//! traffic_sim [--full] [--app memcached|nstore|echo] \
//!             [--model baseline|hops|asap|eadr|bbb] [--flavor ep|rp] \
//!             [--arrival fixed|poisson|bursty|diurnal] [--gap CYCLES] \
//!             [--requests N] [--update-fraction F] [--zipf THETA] \
//!             [--seed N] [--workers N] [--json] [--csv] [--progress] \
//!             [--emit-trace PATH] [--replay PATH]
//! ```
//!
//! Default (quick) scale fans `3 apps × 5 models × 2 offered loads`
//! (≥ 1 M replayed requests) across the worker pool and prints the
//! latency table: p50/p95/p99/p99.9 of the total sojourn time plus the
//! p99 queueing-delay / service-time split, all in cycles. Every leg is
//! deterministic and rows are assembled in input order, so the table is
//! byte-identical at any `--workers` count. `--threads` is accepted as
//! an alias of `--workers`.
//!
//! `--app`/`--model`/`--arrival`/`--gap`/`--requests` narrow the sweep
//! to the given axis value instead of the built-in lists.
//!
//! Trace files (`# asap-traffic v1`, one `<cycle> <get|set> <key>` line
//! per request): `--emit-trace` writes the configured request bank and
//! exits; `--replay` replays a trace file through the sweep instead of
//! generating banks.
//!
//! The main sweep runs through the executor layer
//! ([`asap_harness::exec`]), so the shared sweep flags work here too:
//! `--cache-dir DIR` persists each leg's outcome and makes re-runs
//! incremental, `--resume` continues a killed sweep and `--shard i/n`
//! splits it across machines — the table stays byte-identical
//! throughout. The
//! `--replay` path bypasses the cache (its bank comes from a file the
//! spec digest cannot see).
//!
//! `--json` additionally emits one provenance JSON line per leg on
//! stdout after the table. Malformed flag values are hard errors (exit
//! status 2), never silent fallbacks — see [`asap_harness::args`].

use asap_harness::args::{self, parse_arg, SweepArgs};
use asap_harness::exec::{complete_outcomes, sweep_traffic};
use asap_harness::traffic::{
    run_traffic_bank, table_from_runs, TrafficApp, TrafficScale, TRAFFIC_HEADERS,
};
use asap_harness::{pool, Table};
use asap_sim_core::{Flavor, ModelKind};
use asap_workloads::traffic::{format_trace, generate, parse_trace, ArrivalKind};
use std::sync::Arc;

fn parse_label<T: std::str::FromStr>(argv: &[String], name: &str, known: &str) -> Option<T> {
    let v = args::arg_value(argv, name)?;
    match v.parse() {
        Ok(t) => Some(t),
        Err(_) => {
            eprintln!("error: invalid value '{v}' for {name}; known: {known}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let t0 = std::time::Instant::now();
    let argv: Vec<String> = std::env::args().collect();
    if args::has_flag(&argv, "--help") || args::has_flag(&argv, "-h") {
        println!(
            "usage: traffic_sim [--full] [--app memcached|nstore|echo] \
             [--model baseline|hops|asap|eadr|bbb] [--flavor ep|rp] \
             [--arrival fixed|poisson|bursty|diurnal] [--gap CYCLES] \
             [--requests N] [--update-fraction F] [--zipf THETA] [--seed N] \
             [--workers N] [--json] [--csv] \
             [--progress] [--emit-trace PATH] [--replay PATH] \
             [--cache-dir DIR] [--resume] [--shard i/n]"
        );
        return;
    }

    let sa = SweepArgs::init();
    let mut scale = if sa.full {
        TrafficScale::full()
    } else {
        TrafficScale::quick()
    };
    if let Some(app) = parse_label::<TrafficApp>(&argv, "--app", "memcached|nstore|echo") {
        scale.apps = vec![app];
    }
    if let Some(model) = parse_label::<ModelKind>(&argv, "--model", "baseline|hops|asap|eadr|bbb") {
        scale.models = vec![model];
    }
    if let Some(flavor) = parse_label::<Flavor>(&argv, "--flavor", "ep|rp") {
        scale.flavor = flavor;
    }
    if let Some(kind) =
        parse_label::<ArrivalKind>(&argv, "--arrival", "fixed|poisson|bursty|diurnal")
    {
        scale.arrival = kind;
    }
    if let Some(gap) = parse_arg::<u64>(&argv, "--gap") {
        if gap == 0 {
            eprintln!("error: --gap must be at least one cycle");
            std::process::exit(2);
        }
        scale.gaps = vec![gap];
    }
    if let Some(n) = parse_arg::<u64>(&argv, "--requests") {
        scale.requests = n;
    }
    if let Some(f) = parse_arg::<f64>(&argv, "--update-fraction") {
        if !(0.0..=1.0).contains(&f) {
            eprintln!("error: --update-fraction must be within 0..=1, got {f}");
            std::process::exit(2);
        }
        scale.update_fraction = f;
    }
    if let Some(theta) = parse_arg::<f64>(&argv, "--zipf") {
        if !(0.0..1.0).contains(&theta) {
            eprintln!("error: --zipf must be within [0,1), got {theta}");
            std::process::exit(2);
        }
        scale.zipf_theta = theta;
    }
    if let Some(seed) = sa.seed {
        scale.seed = seed;
    }

    if let Some(path) = args::arg_value(&argv, "--emit-trace") {
        // Write the bank of the sweep's first leg as a trace file.
        let specs = scale.specs();
        let Some(spec) = specs.first() else {
            eprintln!("error: sweep has no legs to emit");
            std::process::exit(2);
        };
        let bank = generate(&spec.traffic);
        if let Err(e) = std::fs::write(&path, format_trace(&bank)) {
            eprintln!("error: cannot write --emit-trace {path}: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "# wrote {} requests ({} arrivals/{} gap, seed {}) to {path}",
            bank.len(),
            spec.traffic.arrival,
            spec.traffic.mean_gap,
            spec.traffic.seed
        );
        return;
    }

    if let Some(path) = args::arg_value(&argv, "--replay") {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot read --replay {path}: {e}");
            std::process::exit(2);
        });
        let bank = Arc::new(parse_trace(&text).unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        }));
        let mut specs = scale.specs();
        // The replayed bank replaces generation; one leg per (app, model)
        // suffices, so drop the offered-load axis.
        specs.dedup_by(|a, b| a.app == b.app && a.model == b.model);
        let outs = pool::par_map(&specs, |s| run_traffic_bank(s, Arc::clone(&bank)));
        let mut table = Table::new(
            format!("Open-loop traffic: replay of {path} (cycles)"),
            &TRAFFIC_HEADERS,
        );
        for (spec, out) in specs.iter().zip(&outs) {
            let mut row = vec![
                spec.app.to_string(),
                spec.model.to_string(),
                "replay".to_string(),
                "-".to_string(),
                out.requests.to_string(),
                format!("{:.2}", out.throughput_per_mcycle()),
            ];
            for p in [50.0, 95.0, 99.0, 99.9] {
                row.push(out.lat.total.percentile(p).to_string());
            }
            row.push(out.lat.queueing.percentile(99.0).to_string());
            row.push(out.lat.service.percentile(99.0).to_string());
            table.push_row(row);
        }
        asap_harness::cli_emit(&table);
        if args::has_flag(&argv, "--json") {
            for (spec, out) in specs.iter().zip(&outs) {
                println!("{}", out.to_json(spec));
            }
        }
        asap_harness::cli_footer(t0);
        return;
    }

    let specs = scale.specs();
    let (results, report) = sweep_traffic("traffic", &specs, &sa);
    if let Some(outs) = complete_outcomes(results) {
        asap_harness::cli_emit(&table_from_runs(&specs, &outs));
        if args::has_flag(&argv, "--json") {
            for (spec, out) in specs.iter().zip(&outs) {
                println!("{}", out.to_json(spec));
            }
        }
    } else {
        eprintln!("# partial sweep (sharded): table suppressed");
    }
    eprintln!("{}", report.summary());
    asap_harness::cli_footer(t0);
}
