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
//! `asap_analysis::waivers::stale_waivers`); 2 on bad usage or an
//! unwritable `--json` path, before anything is linted. `--no-waivers`
//! disables the built-in waiver table to show the raw findings.

use asap_analysis::driver::{lint_run_with, AnalysisParams};
use asap_analysis::waivers::BUILTIN_WAIVERS;
use asap_harness::args::{
    arg_value as arg, has_flag, parse_arg, parse_label, threads_config, usage_error,
};
use asap_sim_core::Flavor;
use asap_workloads::WorkloadKind;
use std::fs::File;
use std::io::Write;

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
    p.threads = threads_config(&args, p.threads).num_cores;
    if let Some(n) = parse_arg(&args, "--ops") {
        p.ops_per_thread = n;
    }
    if let Some(n) = parse_arg(&args, "--seed") {
        p.seed = n;
    }

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

    // The report file is opened before linting, so an unwritable path
    // exits 2 with nothing printed.
    let cannot_write = |path: &str, e: std::io::Error| -> ! {
        usage_error(&format!("cannot write --json {path}: {e}"))
    };
    let json = arg(&args, "--json").map(|path| {
        let file =
            (path != "-").then(|| File::create(&path).unwrap_or_else(|e| cannot_write(&path, e)));
        (path, file)
    });

    let run = lint_run_with(&kinds, &p, waivers);
    print!("{}", run.to_text());
    match json {
        Some((_, None)) => println!("{}", run.to_json()),
        Some((path, Some(mut file))) => {
            if let Err(e) = file.write_all(run.to_json().as_bytes()) {
                cannot_write(&path, e);
            }
            eprintln!("# JSON report written to {path}");
        }
        None => {}
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
