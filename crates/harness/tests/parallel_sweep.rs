//! Reproducibility contract of the parallel sweep executor: fanning a
//! sweep out across worker threads must not change a single byte of any
//! result — per-sim determinism plus ordered collection means only the
//! wall clock differs from a serial run.

use asap_harness::args::SweepArgs;
use asap_harness::exec::sweep_figure;
use asap_harness::experiments::{fig08_specs, figure, ExperimentScale};
use asap_harness::{pool, run_once, RunOutcome};

/// A sub-quick scale: the equivalence property is scale-independent and
/// CI pays for the fig08 sweep several times over in this file.
fn test_scale() -> ExperimentScale {
    ExperimentScale {
        ops: 12,
        seed: 42,
        ..ExperimentScale::quick()
    }
}

#[test]
fn parallel_matches_serial() {
    let specs = fig08_specs(test_scale());
    let serial: Vec<RunOutcome> = specs.iter().map(run_once).collect();
    let parallel = pool::par_map(&specs, run_once);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s, p,
            "spec {i} ({:?} {:?} {:?}) diverged between serial and parallel",
            specs[i].workload, specs[i].model, specs[i].flavor
        );
    }
}

#[test]
fn deterministic_across_worker_counts() {
    let specs = fig08_specs(test_scale());
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(3);
    let one = pool::par_map_with(&specs, 1, run_once);
    for workers in [2, n] {
        let outs = pool::par_map_with(&specs, workers, run_once);
        assert_eq!(
            one, outs,
            "outcomes must not depend on worker count (1 vs {workers})"
        );
    }
}

#[test]
fn repeated_parallel_tables_identical() {
    // End to end through the registry's fig08 entry: repeated parallel
    // runs must render byte-identical tables.
    let run = || {
        let fig = figure("fig08").expect("registered figure");
        sweep_figure(fig, test_scale(), &SweepArgs::default()).0
    };
    let (a, b) = (run(), run());
    for (a, b) in a.iter().zip(&b) {
        assert_eq!(a.to_markdown(), b.to_markdown());
        assert_eq!(a.to_csv(), b.to_csv());
    }
}
