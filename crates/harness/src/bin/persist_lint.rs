//! `persist_lint`: the static workload-IR lint CLI.
//!
//! ```text
//! persist_lint [--workload W | --all-workloads] [--flavor ep|rp]
//!              [--threads N] [--ops N] [--seed N]
//!              [--json PATH] [--no-waivers] [--deny-warnings]
//! ```
//!
//! Extracts each workload's micro-op streams (no timing simulation) and
//! runs the `asap-analysis` persist-discipline rules over them. Prints
//! the text report to stdout; `--json PATH` additionally writes the
//! machine-readable report (`-` for stdout). Exit status: 1 if any
//! unwaived error-severity finding remains, or — under
//! `--deny-warnings`, the CI gate — if *any* unwaived finding remains
//! or the stale-waiver audit fires (a waiver this run could have
//! exercised that matched nothing; see
//! `asap_analysis::waivers::stale_waivers`). `--no-waivers` disables
//! the built-in waiver table to show the raw findings.

use asap_analysis::driver::{lint_run_with, AnalysisParams};
use asap_analysis::waivers::BUILTIN_WAIVERS;
use asap_harness::args::{arg_value as arg, has_flag, parse_arg, parse_label};
use asap_sim_core::{Flavor, ModelKind};
use asap_workloads::WorkloadKind;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workloads: Vec<&str> = WorkloadKind::all().iter().map(|w| w.label()).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: persist_lint [--workload W | --all-workloads] [--flavor ep|rp] \
             [--threads N] [--ops N] [--seed N] [--json PATH] \
             [--no-waivers] [--deny-warnings]\n\nworkloads: {}",
            workloads.join(", ")
        );
        return;
    }

    let flavor = parse_label(&args, "--flavor", "ep|rp").unwrap_or(Flavor::Release);
    let mut p = AnalysisParams {
        flavor,
        ..AnalysisParams::default()
    };
    if let Some(n) = parse_arg(&args, "--threads") {
        p.threads = n;
    }
    if let Some(n) = parse_arg(&args, "--ops") {
        p.ops_per_thread = n;
    }
    if let Some(n) = parse_arg(&args, "--seed") {
        p.seed = n;
    }
    // Lint never simulates; the model field only matters to race runs.
    p.model = ModelKind::Asap;

    let kinds: Vec<WorkloadKind> = if has_flag(&args, "--all-workloads") {
        WorkloadKind::all().to_vec()
    } else {
        vec![parse_label(&args, "--workload", &workloads.join("|")).unwrap_or(WorkloadKind::Cceh)]
    };
    let waivers: &[asap_analysis::Waiver] = if has_flag(&args, "--no-waivers") {
        &[]
    } else {
        BUILTIN_WAIVERS
    };

    let json = arg(&args, "--json");

    let run = lint_run_with(&kinds, &p, waivers);
    print!("{}", run.to_text());
    if let Some(path) = json {
        if path == "-" {
            println!("{}", run.to_json());
        } else {
            std::fs::write(&path, run.to_json()).expect("write JSON report");
            eprintln!("# JSON report written to {path}");
        }
    }

    let errors: usize = run.reports.iter().map(|r| r.errors()).sum();
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    // Under the CI gate a stale waiver is as fatal as a finding: it no
    // longer excuses anything and would silently mask the next
    // regression of its rule.
    if errors > 0 || (deny_warnings && (run.has_findings() || !run.stale_waivers.is_empty())) {
        std::process::exit(1);
    }
}
