//! Prints a gem5-style stats listing (Table VI names) for one run.
//! Usage: `stats_txt [workload] [model] [flavor]`; an unknown name exits
//! with status 2 and lists the known ones.
use asap_core::{Flavor, ModelKind};
use asap_harness::experiments::{stats_txt, ExperimentScale};
use asap_workloads::WorkloadKind;
use std::str::FromStr;

/// Positional argument `i` parsed as a `what`, or `default` when absent.
fn positional<T: FromStr>(args: &[String], i: usize, what: &str, known: &str, default: T) -> T {
    match args.get(i) {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("error: unknown {what} '{s}'; known: {known}");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let t0 = std::time::Instant::now();
    let args: Vec<String> = std::env::args().collect();
    let workloads = WorkloadKind::all()
        .iter()
        .map(|w| w.label())
        .collect::<Vec<_>>()
        .join("|");
    let w = positional(&args, 1, "workload", &workloads, WorkloadKind::Cceh);
    let model = positional(
        &args,
        2,
        "model",
        "baseline|hops|asap|eadr|bbb",
        ModelKind::Asap,
    );
    let flavor = positional(&args, 3, "flavor", "ep|rp", Flavor::Release);
    print!("{}", stats_txt(model, flavor, w, ExperimentScale::quick()));
    eprintln!("# wall-clock {:.3?}", t0.elapsed());
}
