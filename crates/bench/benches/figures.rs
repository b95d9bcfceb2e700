//! Benches regenerating every figure of the paper's evaluation at a
//! reduced (bench-friendly) scale: one bench per
//! [`asap_harness::experiments::FIGURES`] entry, each body the full
//! in-process sweep for that figure. The printed tables for
//! EXPERIMENTS.md come from `asap_sweep <name> --full`.

use asap_bench::Bench;
use asap_harness::args::SweepArgs;
use asap_harness::exec::sweep_figure;
use asap_harness::experiments::{ExperimentScale, FIGURES};
use asap_harness::hwcost;
use asap_sim_core::Cycle;

fn bench_scale() -> ExperimentScale {
    ExperimentScale {
        ops: 15,
        window: Cycle(30_000),
        seed: 42,
    }
}

fn main() {
    let b = Bench::new().sample_size(10);
    let sa = SweepArgs::default();
    for fig in &FIGURES {
        b.run(fig.name, || sweep_figure(fig, bench_scale(), &sa));
    }
    b.run("tab05_hwcost", || {
        (hwcost::table5(), hwcost::drain_comparison(32))
    });
}
