//! `asap_bench`: the benchmark's command line.
//!
//! ```text
//! asap_bench bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//! asap_bench run [--workload NAME] [--seed S] [--repeats N] [--out DIR]
//! asap_bench trace [--workload NAME] [--seed S] [--out DIR]
//! asap_bench compare BASE_DIR HEAD_DIR
//! ```
//!
//! `bench` measures one workload for `--seconds` (default: the
//! `run_seconds` of `BENCHMARK.json`) and prints one JSON result line
//! last: end-to-end metrics untraced, per-layer metrics with `--trace 1`.
//! `run` and `trace` write result files (`BENCH_<workload>.json`,
//! `TRACE_<workload>.json`) for every workload or the one named;
//! `compare` judges two `run` result sets. The internal subcommands
//! `run-one` (one repeat in a fresh process) and `sweep-pass` (one cold
//! sweep for the pool/protocol ledger) are spawned by the others.
//!
//! Exit status: 0 success, 1 failed legs or a regression, 2 bad usage or
//! a name mismatch with `BENCHMARK.json`.

use asap_harness::args::{arg_value, has_flag, parse_arg, parse_arg_or};
use asap_perfledger::jobs::{self, Workload};
use asap_perfledger::spec::Spec;
use asap_perfledger::{compare, parent, probe, spans};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: asap_bench bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]\n\
         \x20      asap_bench run [--workload NAME] [--seed S] [--repeats N] [--out DIR]\n\
         \x20      asap_bench trace [--workload NAME] [--seed S] [--out DIR]\n\
         \x20      asap_bench compare BASE_DIR HEAD_DIR"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn workload(name: &str) -> Workload {
    Workload::from_name(name).unwrap_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        fail(&format!(
            "unknown workload {name:?}; known: {}",
            known.join(", ")
        ))
    })
}

/// `BENCHMARK.json` and `plan.json`, checked against this program.
fn spec() -> Spec {
    let spec = Spec::load().unwrap_or_else(|e| fail(&e));
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    spec.check_workloads(&known).unwrap_or_else(|e| fail(&e));
    spec
}

fn selected(argv: &[String]) -> Vec<Workload> {
    match arg_value(argv, "--workload") {
        Some(name) => vec![workload(&name)],
        None => Workload::ALL.to_vec(),
    }
}

fn out_dir(argv: &[String]) -> PathBuf {
    arg_value(argv, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results/latest")))
}

fn finish(r: Result<i32, String>) -> ! {
    match r {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let seed: u64 = parse_arg_or(&argv, "--seed", 42);
    match argv.get(1).map(String::as_str) {
        Some("bench") => {
            let spec = spec();
            let w = workload(&arg_value(&argv, "--workload").unwrap_or_else(|| usage()));
            let seconds = parse_arg_or(&argv, "--seconds", spec.run_seconds);
            let traced = match parse_arg::<u8>(&argv, "--trace") {
                None | Some(0) => false,
                Some(1) => true,
                Some(other) => fail(&format!("--trace must be 0 or 1, got {other}")),
            };
            std::process::exit(parent::bench(&spec, w, seed, seconds, traced));
        }
        Some("run") => {
            let spec = spec();
            let repeats = parse_arg::<usize>(&argv, "--repeats");
            if repeats == Some(0) {
                fail("--repeats must be at least 1");
            }
            let out = out_dir(&argv);
            finish(parent::run(&spec, &selected(&argv), seed, repeats, &out))
        }
        Some("trace") => {
            let spec = spec();
            finish(parent::trace(
                &spec,
                &selected(&argv),
                seed,
                &out_dir(&argv),
            ))
        }
        Some("compare") => {
            let (Some(base), Some(head)) = (argv.get(2), argv.get(3)) else {
                usage()
            };
            let spec = spec();
            finish(compare::compare(&spec, base.as_ref(), head.as_ref()).map(i32::from))
        }
        Some("run-one") => {
            probe::die_with_parent();
            let w = workload(argv.get(2).unwrap_or_else(|| usage()));
            let traced = has_flag(&argv, "--traced");
            let repeat = jobs::run_one(w, seed, traced, &parent::scratch_root());
            if let Some(path) = arg_value(&argv, "--spans-out") {
                let trace = spans::chrome_json(&spans::recorded());
                if let Err(e) = std::fs::write(&path, trace) {
                    fail(&format!("{path}: {e}"));
                }
            }
            println!("{}", repeat.to_json());
        }
        Some("sweep-pass") => {
            probe::die_with_parent();
            println!("{}", jobs::sweep_pass(&argv))
        }
        _ => usage(),
    }
}
