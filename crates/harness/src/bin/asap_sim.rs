//! `asap-sim`: the general-purpose simulator CLI.
//!
//! ```text
//! asap_sim [--workload cceh] [--model asap] [--flavor rp] [--threads 4]
//!          [--ops 200] [--seed 42] [--zipf THETA] [--crash-at CYCLES]
//!          [--verify] [--trace] [--trace-out PATH]
//!          [--sample-out PATH] [--sample-every CYCLES]
//! ```
//!
//! Runs one simulation and prints the gem5-style statistics (Table VI
//! names); EXPERIMENTS.md quotes the listing of `asap_sim --workload
//! cceh --model asap --flavor rp --ops 60`. An unknown workload, model
//! or flavor exits with status 2 and lists the known labels. With
//! `--crash-at`, cuts power at the given cycle, runs the §VI
//! consistency oracle and (with `--verify`) the structure's recovery
//! verifier.
//!
//! Observability:
//! - `--trace` streams the structured event trace to stderr as text
//!   (same as `ASAP_TRACE=1`).
//! - `--trace-out PATH` writes a Chrome `trace_event` JSON file —
//!   load it in Perfetto / `chrome://tracing`.
//! - `--sample-out PATH` writes a time-series CSV of queue occupancies
//!   and per-MC NVM write bandwidth, sampled every `--sample-every`
//!   cycles (default 10000).
//!
//! Every run prints its provenance manifest (model, workload, seed,
//! `--zipf` when given, config digest, wall time) as one JSON line on
//! stderr.
//!
//! Malformed flag values are hard errors (exit status 2), not silent
//! fallbacks to defaults — see [`asap_harness::args`].

use asap_core::{Flavor, ModelKind, SimBuilder};
use asap_harness::args::{self, parse_arg, parse_arg_or, parse_label};
use asap_harness::{RunManifest, RunSpec};
use asap_sim_core::{ChromeTracer, Cycle, TextTracer};
use asap_workloads::{make_workload, recovery, WorkloadKind, WorkloadParams};
use std::fs::File;
use std::io::BufWriter;

fn main() {
    let code = run();
    // `run` owns the simulation; by the time we get here it has been
    // dropped, so trace/sample sinks are flushed and closed.
    std::process::exit(code);
}

fn run() -> i32 {
    let argv: Vec<String> = std::env::args().collect();
    let workloads: Vec<&str> = WorkloadKind::all().iter().map(|w| w.label()).collect();
    if args::has_flag(&argv, "--help") || args::has_flag(&argv, "-h") {
        println!(
            "usage: asap_sim [--workload W] [--model baseline|hops|asap|eadr|bbb] \
             [--flavor ep|rp] [--threads N] [--ops N] [--seed N] \
             [--zipf THETA] [--crash-at CYCLES] [--verify] \
             [--trace] [--trace-out PATH] \
             [--sample-out PATH] [--sample-every CYCLES]\n\nworkloads: {}",
            workloads.join(", ")
        );
        return 0;
    }

    let workload =
        parse_label(&argv, "--workload", &workloads.join("|")).unwrap_or(WorkloadKind::Cceh);
    let model =
        parse_label(&argv, "--model", "baseline|hops|asap|eadr|bbb").unwrap_or(ModelKind::Asap);
    let flavor = parse_label(&argv, "--flavor", "ep|rp").unwrap_or(Flavor::Release);
    let cfg = args::threads_config(&argv, 4);
    let threads = cfg.num_cores;
    let ops: u64 = parse_arg_or(&argv, "--ops", 200);
    let seed: u64 = parse_arg_or(&argv, "--seed", 42);
    let crash_at: Option<u64> = parse_arg(&argv, "--crash-at");
    let zipf = args::parse_zipf(&argv);
    let sample_every: u64 = parse_arg_or(&argv, "--sample-every", 10_000);
    let verify = args::has_flag(&argv, "--verify");

    let params = WorkloadParams {
        threads,
        ops_per_thread: ops,
        seed,
        zipf_theta: zipf,
        ..Default::default()
    };
    let mut builder = SimBuilder::new(cfg.clone(), model, flavor)
        .programs(make_workload(workload, &params))
        .with_journal();

    if let Some(path) = args::arg_value(&argv, "--trace-out") {
        let file = File::create(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot create --trace-out {path}: {e}");
            std::process::exit(2);
        });
        builder = builder.tracer(Box::new(ChromeTracer::new(Box::new(BufWriter::new(file)))));
    } else if args::has_flag(&argv, "--trace") {
        builder = builder.tracer(Box::new(TextTracer::stderr()));
    }
    if let Some(path) = args::arg_value(&argv, "--sample-out") {
        if sample_every == 0 {
            args::usage_error(
                "invalid value '0' for --sample-every: the interval must be >= 1 cycle",
            );
        }
        let file = File::create(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot create --sample-out {path}: {e}");
            std::process::exit(2);
        });
        builder = builder.sample(Cycle(sample_every), Box::new(BufWriter::new(file)));
    }
    let mut sim = builder.build();

    // The manifest derives from a RunSpec so the CLI and the sweep
    // harness report identical provenance for identical runs.
    let mut manifest = RunManifest::of_spec(&RunSpec {
        config: cfg,
        model,
        flavor,
        workload,
        ops_per_thread: ops,
        seed,
    });
    manifest.zipf_theta = zipf;

    eprintln!("simulating {workload} under {model}_{flavor} on {threads} threads, {ops} ops/thread (seed {seed})");
    let t0 = std::time::Instant::now();
    let mut code = 0;

    if let Some(at) = crash_at {
        let report = sim.crash_at(Cycle(at)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        println!("--- crash at {at} cycles ---");
        println!("undo records applied : {}", report.undo_records_applied);
        println!("epochs committed     : {}", report.epochs_committed);
        println!("epochs visible       : {}", report.epochs_visible);
        if report.is_consistent() {
            println!("oracle               : CONSISTENT");
        } else {
            println!("oracle               : VIOLATIONS");
            for v in &report.violations {
                println!("  - {v}");
            }
            code = 1;
        }
        if verify {
            match recovery::verifier_for(workload) {
                Some(f) => {
                    let r = f(sim.nvm());
                    println!(
                        "recovery walk        : {} live, {} torn, {}",
                        r.live_entries,
                        r.torn_entries,
                        if r.is_recoverable() {
                            "RECOVERABLE"
                        } else {
                            "BROKEN"
                        }
                    );
                    for v in &r.violations {
                        println!("  - {v}");
                    }
                    if !r.is_recoverable() {
                        code = 1;
                    }
                }
                None => println!("recovery walk        : (no verifier for {workload})"),
            }
        }
    } else {
        let out = sim.run_to_completion();
        println!(
            "--- run complete: {} cycles, {} ops ---",
            out.cycles.raw(),
            sim.stats().ops_completed
        );
        print!("{}", sim.stats().snapshot().to_stats_txt());
        println!("rtMaxOccupancy           {}", sim.rt_max_occupancy());
        println!("mediaUtilization         {:.3}", sim.media_utilization());
    }
    manifest.wall = t0.elapsed();
    eprintln!("# manifest {}", manifest.to_json());
    code
}
