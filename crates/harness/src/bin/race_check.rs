//! `race_check`: the happens-before persist-race detector CLI.
//!
//! ```text
//! race_check [--workload W | --all-workloads] [--model hops|asap|eadr|bbb]
//!            [--flavor ep|rp] [--threads N] [--ops N] [--seed N] [-v]
//! ```
//!
//! Runs each workload to completion under the chosen model with the
//! write journal enabled, then checks every pair of cross-thread
//! persists to the same cache line for a happens-before ordering (fence
//! and dependency edges, with epoch-commit timestamps as a real-time
//! fallback). Unordered pairs are persist races: after a crash,
//! recovery could observe them in either order. Exit status 1 if any
//! unwaived race is found. Races acknowledged in the `asap-analysis`
//! waiver table (rule `persist-race`) are reported but not fatal.
//!
//! Baseline is rejected: it records no release/acquire ordering
//! evidence, so verdicts there would be noise (see `Sim::race_check`).

use asap_analysis::driver::{race_findings, AnalysisParams};
use asap_analysis::waivers::{partition, BUILTIN_WAIVERS};
use asap_harness::args::{has_flag, parse_arg_or, parse_label};
use asap_harness::{run_race_check, RunSpec};
use asap_sim_core::{Flavor, ModelKind, SimConfig};
use asap_workloads::WorkloadKind;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workloads: Vec<&str> = WorkloadKind::all().iter().map(|w| w.label()).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: race_check [--workload W | --all-workloads] \
             [--model hops|asap|eadr|bbb] [--flavor ep|rp] \
             [--threads N] [--ops N] [--seed N] [-v]\n\nworkloads: {}",
            workloads.join(", ")
        );
        return;
    }

    let model = parse_label(&args, "--model", "hops|asap|eadr|bbb").unwrap_or(ModelKind::Asap);
    if model == ModelKind::Baseline {
        eprintln!(
            "race_check needs a model that records ordering evidence; \
             Baseline does not (see Sim::race_check docs)"
        );
        std::process::exit(2);
    }
    let flavor = parse_label(&args, "--flavor", "ep|rp").unwrap_or(Flavor::Release);
    let defaults = AnalysisParams::default();
    let threads: usize = parse_arg_or(&args, "--threads", defaults.threads);
    let ops: u64 = parse_arg_or(&args, "--ops", defaults.ops_per_thread);
    let seed: u64 = parse_arg_or(&args, "--seed", defaults.seed);
    let verbose = has_flag(&args, "-v");

    let kinds: Vec<WorkloadKind> = if has_flag(&args, "--all-workloads") {
        WorkloadKind::all().to_vec()
    } else {
        vec![parse_label(&args, "--workload", &workloads.join("|")).unwrap_or(WorkloadKind::Cceh)]
    };

    let config = SimConfig::builder()
        .cores(threads)
        .build()
        .expect("valid config");
    let mut fatal = 0usize;
    for kind in kinds {
        let spec = RunSpec {
            config: config.clone(),
            model,
            flavor,
            workload: kind,
            ops_per_thread: ops,
            seed,
        };
        let (out, report) = run_race_check(&spec);
        let (active, waived) = partition(race_findings(&report), kind.label(), BUILTIN_WAIVERS);
        fatal += active.len();
        println!(
            "{kind}: {} race(s) ({} waived) — {} lines, {} cross-thread pairs, \
             {} commit-order suppressed, {} epochs, {} cycles",
            active.len(),
            waived.len(),
            report.lines_checked,
            report.pairs_checked,
            report.suppressed_by_commit_order,
            report.epochs_with_writes,
            out.cycles,
        );
        if report.cycle {
            println!("  DEPENDENCY CYCLE — protocol bug; verdicts unavailable");
            fatal += 1;
        }
        for f in &active {
            println!("  {}", f.message);
        }
        for (f, reason) in &waived {
            println!(
                "  #[allow(persist_lint::persist_race)] {} (waived: {reason})",
                f.message
            );
        }
        if verbose {
            for r in &report.races {
                println!("  detail: {r:?}");
            }
        }
    }
    if fatal > 0 {
        std::process::exit(1);
    }
}
