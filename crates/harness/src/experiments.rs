//! The evaluation's figures as data (paper §VII).
//!
//! Every figure, and Table V, is one [`Figure`] of [`FIGURES`]: a spec
//! builder that lays the whole sweep out as a flat `Vec<RunSpec>`
//! (empty for the analytical Table V), and a table builder that
//! assembles rows from the outcomes by index. One runner,
//! [`crate::exec::sweep_figure`], drives any entry through the sweep
//! executor (pool, outcome cache, resume journal, shards), and
//! `asap_sweep <name>` is its command line. Outcomes come back in spec
//! order and each run is deterministic given the seed embedded in
//! [`ExperimentScale`], so a figure's tables are byte-identical however
//! its legs were executed. A new model's columns are an edit to a spec
//! and a table builder, not a new binary.

use crate::hwcost;
use crate::report::{f2, Table};
use crate::runner::{RunOutcome, RunSpec};
use asap_core::{Flavor, ModelKind};
use asap_sim_core::{Cycle, SimConfig, SimConfigBuilder};
use asap_workloads::WorkloadKind;

/// How big to run the experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Logical ops per thread for run-to-completion experiments.
    pub ops: u64,
    /// Simulated window for windowed experiments (Figure 2's 1 ms at the
    /// paper scale).
    pub window: Cycle,
    /// RNG seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Fast settings for tests, CI and the default `asap_sweep` run.
    pub fn quick() -> ExperimentScale {
        ExperimentScale {
            ops: 60,
            window: Cycle(200_000),
            seed: 42,
        }
    }

    /// Paper-scale settings for report generation (minutes of wall
    /// clock on one core; the sweeps parallelize across all of them).
    pub fn full() -> ExperimentScale {
        ExperimentScale {
            ops: 600,
            window: Cycle(2_000_000), // 1 ms at 2 GHz
            seed: 42,
        }
    }
}

/// One figure (or group of tables) of the evaluation, as data.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Registry name: the `asap_sweep` subcommand and the sweep label.
    pub name: &'static str,
    /// The flat leg list of the figure's sweep at a scale.
    pub specs: fn(ExperimentScale) -> Vec<RunSpec>,
    /// Legs run for `scale.window` cycles ([`crate::run_window`])
    /// instead of to completion ([`run_once`]).
    pub windowed: bool,
    /// The figure's tables, from one outcome per leg in
    /// [`Figure::specs`] order.
    pub tables: fn(&[RunOutcome]) -> Vec<Table>,
}

/// Every figure of the evaluation in paper order, then Table V.
pub static FIGURES: [Figure; 10] = [
    Figure {
        name: "fig02",
        specs: fig02_specs,
        windowed: true,
        tables: fig02_tables,
    },
    Figure {
        name: "fig03",
        specs: fig03_specs,
        windowed: false,
        tables: fig03_tables,
    },
    Figure {
        name: "fig08",
        specs: fig08_specs,
        windowed: false,
        tables: fig08_tables,
    },
    Figure {
        name: "fig09",
        specs: hops_asap_rp_specs,
        windowed: false,
        tables: fig09_tables,
    },
    Figure {
        name: "fig10",
        specs: fig10_specs,
        windowed: false,
        tables: fig10_tables,
    },
    Figure {
        name: "fig11",
        specs: hops_asap_rp_specs,
        windowed: false,
        tables: fig11_tables,
    },
    Figure {
        name: "fig12",
        specs: fig12_specs,
        windowed: false,
        tables: fig12_tables,
    },
    Figure {
        name: "fig13",
        specs: fig13_specs,
        windowed: false,
        tables: fig13_tables,
    },
    Figure {
        name: "ablations",
        specs: ablation_specs,
        windowed: false,
        tables: ablation_tables,
    },
    Figure {
        name: "tab05",
        specs: |_| Vec::new(),
        windowed: false,
        tables: tab05_tables,
    },
];

/// The [`FIGURES`] entry called `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

fn spec(
    model: ModelKind,
    flavor: Flavor,
    workload: WorkloadKind,
    scale: ExperimentScale,
) -> RunSpec {
    RunSpec {
        config: SimConfig::paper(),
        model,
        flavor,
        workload,
        ops_per_thread: scale.ops,
        seed: scale.seed,
    }
}

/// A release-persistency leg on a paper system with `threads` cores.
fn spec_cores(
    model: ModelKind,
    workload: WorkloadKind,
    threads: usize,
    scale: ExperimentScale,
) -> RunSpec {
    let mut s = spec(model, Flavor::Release, workload, scale);
    s.config = SimConfig::builder().cores(threads).build().expect("valid");
    s
}

/// A leg of the bandwidth microbenchmark on one core of `config`, at
/// four times the scale's ops. One thread isolates ordering cost from
/// raw demand (§III): with many threads every design saturates the
/// media and the contrast vanishes.
fn probe_spec(model: ModelKind, config: SimConfigBuilder, scale: ExperimentScale) -> RunSpec {
    let mut s = spec(model, Flavor::Release, WorkloadKind::Bandwidth, scale);
    s.config = config.cores(1).build().expect("valid");
    s.ops_per_thread = scale.ops * 4;
    s
}

/// The workload list of the figures (Table III order).
pub fn figure_workloads() -> Vec<WorkloadKind> {
    WorkloadKind::all().to_vec()
}

/// The figure workloads minus the Fig. 13 bandwidth microbenchmark —
/// the per-workload bar charts (Figures 8–12) all skip it.
fn bar_chart_workloads() -> Vec<WorkloadKind> {
    figure_workloads()
        .into_iter()
        .filter(|&w| w != WorkloadKind::Bandwidth)
        .collect()
}

// -------------------------------------------------------------------
// Figure 2
// -------------------------------------------------------------------

/// Figure 2's legs: HOPS under release and epoch persistency for every
/// workload, each run for the measurement window. Measured under HOPS,
/// like the paper's methodology (§III runs the dependency study with
/// HOPS): a dependency is counted when the source epoch is still in
/// flight, and HOPS's conservative commit timing is what exposes them.
fn fig02_specs(scale: ExperimentScale) -> Vec<RunSpec> {
    figure_workloads()
        .into_iter()
        .flat_map(|w| {
            [
                spec(ModelKind::Hops, Flavor::Release, w, scale).windowed(),
                spec(ModelKind::Hops, Flavor::Epoch, w, scale).windowed(),
            ]
        })
        .collect()
}

/// Figure 2: number of epochs and cross-thread dependencies within the
/// measurement window (paper: 1 ms, 4 threads, release persistency). The
/// EP columns are our extension showing why EP sees far more
/// dependencies.
fn fig02_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 2: epochs and cross-thread dependencies per window (4 threads)",
        &[
            "workload",
            "epochs_rp",
            "cross_deps_rp",
            "epochs_ep",
            "cross_deps_ep",
        ],
    );
    for (w, pair) in figure_workloads().iter().zip(outs.chunks_exact(2)) {
        let (rp, ep) = (&pair[0], &pair[1]);
        t.push_row(vec![
            w.label().into(),
            rp.stats.epochs_created.to_string(),
            rp.stats.inter_t_epoch_conflict.to_string(),
            ep.stats.epochs_created.to_string(),
            ep.stats.inter_t_epoch_conflict.to_string(),
        ]);
    }
    vec![t]
}

// -------------------------------------------------------------------
// Figure 3
// -------------------------------------------------------------------

fn fig03_specs(scale: ExperimentScale) -> Vec<RunSpec> {
    figure_workloads()
        .into_iter()
        .map(|w| spec(ModelKind::Hops, Flavor::Release, w, scale))
        .collect()
}

/// Figure 3: percentage of cycles the persist buffers are blocked from
/// flushing under HOPS (release persistency).
fn fig03_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 3: % of cycles persist buffers are blocked (HOPS_RP)",
        &["workload", "blocked_pct"],
    );
    let mut total = 0.0;
    let mut n = 0;
    for (w, out) in figure_workloads().iter().zip(outs) {
        let threads = SimConfig::paper().num_cores as f64;
        let pct = 100.0 * out.stats.cycles_blocked as f64 / (out.cycles as f64 * threads);
        total += pct;
        n += 1;
        t.push_row(vec![w.label().into(), f2(pct)]);
    }
    t.push_row(vec!["average".into(), f2(total / n as f64)]);
    vec![t]
}

// -------------------------------------------------------------------
// Figure 8
// -------------------------------------------------------------------

const FIG8_MODELS: [(&str, ModelKind, Flavor); 6] = [
    ("baseline", ModelKind::Baseline, Flavor::Release),
    ("hops_ep", ModelKind::Hops, Flavor::Epoch),
    ("hops_rp", ModelKind::Hops, Flavor::Release),
    ("asap_ep", ModelKind::Asap, Flavor::Epoch),
    ("asap_rp", ModelKind::Asap, Flavor::Release),
    ("eadr", ModelKind::Eadr, Flavor::Release),
];

/// The flat spec list behind Figure 8: every (workload, model) pair of
/// the paper's headline sweep, in row-major order. Exposed so the
/// benchmark and the parallel/serial equivalence tests can drive the
/// exact production sweep.
pub fn fig08_specs(scale: ExperimentScale) -> Vec<RunSpec> {
    bar_chart_workloads()
        .into_iter()
        .flat_map(|w| {
            FIG8_MODELS
                .iter()
                .map(move |&(_, m, f)| spec(m, f, w, scale))
        })
        .collect()
}

/// Figure 8: speedup over the Intel baseline for every model and
/// workload in a 4-core, 2-MC system, assembled from outcomes in
/// [`fig08_specs`] order (simulated or loaded from the outcome cache).
///
/// # Panics
///
/// Panics if `outs` is not one outcome per [`fig08_specs`] leg.
pub fn fig08_table_from(outs: &[RunOutcome]) -> Table {
    assert_eq!(
        outs.len(),
        bar_chart_workloads().len() * FIG8_MODELS.len(),
        "one outcome per fig08 spec"
    );
    let mut t = Table::new(
        "Figure 8: speedup over baseline (4 cores, 2 MCs)",
        &[
            "workload", "baseline", "hops_ep", "hops_rp", "asap_ep", "asap_rp", "eadr",
        ],
    );
    let mut sums = [0.0f64; 6];
    let mut n = 0;
    for (w, models) in bar_chart_workloads()
        .iter()
        .zip(outs.chunks_exact(FIG8_MODELS.len()))
    {
        let base = models[0].cycles as f64;
        let mut row = vec![w.label().to_string()];
        for (i, out) in models.iter().enumerate() {
            let speedup = base / out.cycles as f64;
            sums[i] += speedup;
            row.push(f2(speedup));
        }
        n += 1;
        t.push_row(row);
    }
    let mut avg = vec!["average".to_string()];
    for s in sums {
        avg.push(f2(s / n as f64));
    }
    t.push_row(avg);
    t
}

/// Headline numbers derived from Figure 8 (§VII-A): average speedups and
/// the gap to eADR.
pub fn fig08_summary(fig8: &Table) -> Table {
    let avg = |col: &str| fig8.cell_f64("average", col).unwrap_or(0.0);
    let mut t = Table::new("§VII-A headline numbers", &["metric", "value"]);
    t.push_row(vec![
        "ASAP_EP speedup over baseline".into(),
        f2(avg("asap_ep")),
    ]);
    t.push_row(vec![
        "ASAP_RP speedup over baseline".into(),
        f2(avg("asap_rp")),
    ]);
    t.push_row(vec![
        "ASAP_EP improvement over HOPS_EP (%)".into(),
        f2(100.0 * (avg("asap_ep") / avg("hops_ep") - 1.0)),
    ]);
    t.push_row(vec![
        "ASAP_RP improvement over HOPS_RP (%)".into(),
        f2(100.0 * (avg("asap_rp") / avg("hops_rp") - 1.0)),
    ]);
    t.push_row(vec![
        "ASAP_RP gap to eADR (%)".into(),
        f2(100.0 * (avg("eadr") / avg("asap_rp") - 1.0)),
    ]);
    t
}

fn fig08_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let t = fig08_table_from(outs);
    let summary = fig08_summary(&t);
    vec![t, summary]
}

// -------------------------------------------------------------------
// Figures 9 and 11
// -------------------------------------------------------------------

/// The legs of Figures 9 and 11: HOPS then ASAP, both under release
/// persistency, for every bar-chart workload.
fn hops_asap_rp_specs(scale: ExperimentScale) -> Vec<RunSpec> {
    bar_chart_workloads()
        .into_iter()
        .flat_map(|w| {
            [
                spec(ModelKind::Hops, Flavor::Release, w, scale),
                spec(ModelKind::Asap, Flavor::Release, w, scale),
            ]
        })
        .collect()
}

/// Figure 9: PM write operations of ASAP normalized to HOPS, plus the
/// extra PM reads ASAP's undo records cost (§VII-A reports +5.3% reads;
/// we normalize the extra reads per 100 media writes since our
/// cache-resident workloads issue almost no demand PM reads to divide
/// by).
fn fig09_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 9: PM write operations, ASAP vs HOPS (release persistency)",
        &[
            "workload",
            "hops_writes",
            "asap_writes",
            "normalized",
            "undo_reads_per_100_writes",
        ],
    );
    let mut norm_sum = 0.0;
    let mut read_sum = 0.0;
    let mut n = 0;
    for (w, pair) in bar_chart_workloads().iter().zip(outs.chunks_exact(2)) {
        let (h, a) = (&pair[0], &pair[1]);
        let norm = a.media_writes as f64 / h.media_writes.max(1) as f64;
        let extra_reads = a.stats.nvm_reads.saturating_sub(h.stats.nvm_reads) as f64;
        let dreads = 100.0 * extra_reads / a.media_writes.max(1) as f64;
        norm_sum += norm;
        read_sum += dreads;
        n += 1;
        t.push_row(vec![
            w.label().into(),
            h.media_writes.to_string(),
            a.media_writes.to_string(),
            f2(norm),
            f2(dreads),
        ]);
    }
    t.push_row(vec![
        "average".into(),
        "-".into(),
        "-".into(),
        f2(norm_sum / n as f64),
        f2(read_sum / n as f64),
    ]);
    vec![t]
}

/// Figure 11: persist-buffer occupancy — time-weighted average and 99th
/// percentile, HOPS vs ASAP.
fn fig11_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 11: PB occupancy (avg and p99), HOPS vs ASAP",
        &["workload", "hops_avg", "hops_p99", "asap_avg", "asap_p99"],
    );
    for (w, pair) in bar_chart_workloads().iter().zip(outs.chunks_exact(2)) {
        let (h, a) = (&pair[0], &pair[1]);
        t.push_row(vec![
            w.label().into(),
            f2(h.stats.pb_occupancy.mean()),
            h.stats.pb_occupancy.percentile(99.0).to_string(),
            f2(a.stats.pb_occupancy.mean()),
            a.stats.pb_occupancy.percentile(99.0).to_string(),
        ]);
    }
    vec![t]
}

// -------------------------------------------------------------------
// Figure 10
// -------------------------------------------------------------------

const FIG10_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Figure 10's legs: the 1-thread HOPS baseline of every bar-chart
/// workload first, then the HOPS/ASAP pair for every (thread count,
/// workload) cell.
fn fig10_specs(scale: ExperimentScale) -> Vec<RunSpec> {
    let workloads = bar_chart_workloads();
    let mut specs: Vec<RunSpec> = workloads
        .iter()
        .map(|&w| spec_cores(ModelKind::Hops, w, 1, scale))
        .collect();
    for threads in FIG10_THREADS {
        for &w in &workloads {
            specs.push(spec_cores(ModelKind::Hops, w, threads, scale));
            specs.push(spec_cores(ModelKind::Asap, w, threads, scale));
        }
    }
    specs
}

/// Figure 10: throughput scaling with core count — HOPS vs ASAP
/// normalized to single-thread HOPS (paper shows best = P-ART, worst =
/// skiplist, plus the average).
fn fig10_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 10: speedup over 1-thread HOPS (release persistency, 2 MCs)",
        &[
            "threads",
            "hops_avg",
            "asap_avg",
            "hops_p-art",
            "asap_p-art",
            "hops_skiplist",
            "asap_skiplist",
        ],
    );
    let workloads = bar_chart_workloads();
    let tput = |o: &RunOutcome| o.ops as f64 / o.cycles as f64;
    let base: Vec<f64> = outs[..workloads.len()].iter().map(tput).collect();
    let mut idx = workloads.len();
    for threads in FIG10_THREADS {
        let mut hops_sum = 0.0;
        let mut asap_sum = 0.0;
        let mut hops_part = 0.0;
        let mut asap_part = 0.0;
        let mut hops_sl = 0.0;
        let mut asap_sl = 0.0;
        for (i, &w) in workloads.iter().enumerate() {
            let h = tput(&outs[idx]) / base[i];
            let a = tput(&outs[idx + 1]) / base[i];
            idx += 2;
            hops_sum += h;
            asap_sum += a;
            if w == WorkloadKind::PArt {
                hops_part = h;
                asap_part = a;
            }
            if w == WorkloadKind::Skiplist {
                hops_sl = h;
                asap_sl = a;
            }
        }
        let n = base.len() as f64;
        t.push_row(vec![
            threads.to_string(),
            f2(hops_sum / n),
            f2(asap_sum / n),
            f2(hops_part),
            f2(asap_part),
            f2(hops_sl),
            f2(asap_sl),
        ]);
    }
    vec![t]
}

// -------------------------------------------------------------------
// Figure 12
// -------------------------------------------------------------------

fn fig12_specs(scale: ExperimentScale) -> Vec<RunSpec> {
    bar_chart_workloads()
        .into_iter()
        .flat_map(|w| {
            [
                spec_cores(ModelKind::Asap, w, 4, scale),
                spec_cores(ModelKind::Asap, w, 8, scale),
            ]
        })
        .collect()
}

/// Figure 12: recovery-table maximum occupancy with 4 and 8 threads.
fn fig12_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 12: recovery table max occupancy (ASAP_RP)",
        &["workload", "rt_max_4t", "rt_max_8t"],
    );
    for (w, pair) in bar_chart_workloads().iter().zip(outs.chunks_exact(2)) {
        t.push_row(vec![
            w.label().into(),
            pair[0].rt_max_occupancy.to_string(),
            pair[1].rt_max_occupancy.to_string(),
        ]);
    }
    vec![t]
}

// -------------------------------------------------------------------
// Figure 13
// -------------------------------------------------------------------

const FIG13_MODELS: [(&str, ModelKind); 4] = [
    ("baseline", ModelKind::Baseline),
    ("hops", ModelKind::Hops),
    ("asap", ModelKind::Asap),
    ("eadr", ModelKind::Eadr),
];

fn fig13_specs(scale: ExperimentScale) -> Vec<RunSpec> {
    FIG13_MODELS
        .iter()
        .map(|&(_, m)| probe_spec(m, SimConfig::builder(), scale))
        .collect()
}

/// Figure 13: write-bandwidth utilization of the alternating-MC
/// microbenchmark.
fn fig13_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 13: system write-bandwidth utilization (256B ofence-ordered writes across 2 MCs)",
        &["model", "utilization_pct", "cycles"],
    );
    for (&(name, _), out) in FIG13_MODELS.iter().zip(outs) {
        t.push_row(vec![
            name.into(),
            f2(out.media_utilization * 100.0),
            out.cycles.to_string(),
        ]);
    }
    vec![t]
}

// -------------------------------------------------------------------
// Ablations (DESIGN.md §7)
// -------------------------------------------------------------------

const ABL_RT_ENTRIES: [usize; 5] = [4, 8, 16, 32, 64];
const ABL_PB_ENTRIES: [usize; 5] = [4, 8, 16, 32, 64];
const ABL_NVM_WRITE_NS: [u64; 4] = [45, 90, 180, 360];
const ABL_MCS: [usize; 3] = [1, 2, 4];

/// The four ablation sweeps as one leg list: ASAP_RP cceh per RT size,
/// then per PB size, then a HOPS/ASAP bandwidth-probe pair per NVM write
/// latency, then per MC count.
fn ablation_specs(scale: ExperimentScale) -> Vec<RunSpec> {
    let cceh = |config: SimConfigBuilder| RunSpec {
        config: config.build().expect("valid"),
        ..spec(ModelKind::Asap, Flavor::Release, WorkloadKind::Cceh, scale)
    };
    let pair = |config: SimConfigBuilder| {
        [ModelKind::Hops, ModelKind::Asap].map(|m| probe_spec(m, config.clone(), scale))
    };
    let mut specs: Vec<RunSpec> = Vec::new();
    specs.extend(ABL_RT_ENTRIES.map(|n| cceh(SimConfig::builder().rt_entries(n))));
    specs.extend(ABL_PB_ENTRIES.map(|n| cceh(SimConfig::builder().pb_entries(n))));
    for ns in ABL_NVM_WRITE_NS {
        specs.extend(pair(SimConfig::builder().nvm_write_ns(ns)));
    }
    for mcs in ABL_MCS {
        specs.extend(pair(SimConfig::builder().mcs(mcs)));
    }
    specs
}

/// The ablation tables, in [`ablation_specs`] order:
///
/// 1. RT size: NACK fallback frequency and performance (§V-D);
/// 2. PB size: back-pressure onto the core;
/// 3. NVM write latency on the bandwidth probe: the paper's claim that
///    ASAP "offers greater performance benefit with increasing NVM write
///    bandwidth" — faster media widens the gap (ordering dominates),
///    slower media saturates every design and narrows it;
/// 4. MC count on the bandwidth probe (§III's multi-MC motivation).
fn ablation_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let (rt, rest) = outs.split_at(ABL_RT_ENTRIES.len());
    let (pb, rest) = rest.split_at(ABL_PB_ENTRIES.len());
    let (nvm, mc) = rest.split_at(2 * ABL_NVM_WRITE_NS.len());

    let mut rt_table = Table::new(
        "Ablation: recovery-table size (ASAP_RP, cceh)",
        &["rt_entries", "cycles", "nacks", "tot_spec_writes"],
    );
    for (&n, out) in ABL_RT_ENTRIES.iter().zip(rt) {
        rt_table.push_row(vec![
            n.to_string(),
            out.cycles.to_string(),
            out.stats.nacks.to_string(),
            out.stats.tot_spec_writes.to_string(),
        ]);
    }
    let mut pb_table = Table::new(
        "Ablation: persist-buffer size (ASAP_RP, cceh)",
        &["pb_entries", "cycles", "cyclesStalled"],
    );
    for (&n, out) in ABL_PB_ENTRIES.iter().zip(pb) {
        pb_table.push_row(vec![
            n.to_string(),
            out.cycles.to_string(),
            out.stats.cycles_stalled.to_string(),
        ]);
    }
    vec![
        rt_table,
        pb_table,
        hops_asap_table(
            "Ablation: NVM write latency (ASAP vs HOPS, 1-thread bandwidth probe)",
            "nvm_write_ns",
            &ABL_NVM_WRITE_NS,
            nvm,
        ),
        hops_asap_table(
            "Ablation: memory-controller count (bandwidth microbenchmark)",
            "mcs",
            &ABL_MCS,
            mc,
        ),
    ]
}

/// One row per sweep key from (HOPS, ASAP) outcome pairs: both cycle
/// counts and ASAP's speedup over HOPS.
fn hops_asap_table<K: ToString>(title: &str, key: &str, keys: &[K], outs: &[RunOutcome]) -> Table {
    let mut t = Table::new(
        title,
        &[key, "hops_cycles", "asap_cycles", "asap_over_hops"],
    );
    for (k, pair) in keys.iter().zip(outs.chunks_exact(2)) {
        let (h, a) = (pair[0].cycles, pair[1].cycles);
        t.push_row(vec![
            k.to_string(),
            h.to_string(),
            a.to_string(),
            f2(h as f64 / a as f64),
        ]);
    }
    t
}

// -------------------------------------------------------------------
// Table V
// -------------------------------------------------------------------

/// Table V (hardware cost) and the §VII-D drain comparison: analytical,
/// so the entry has no legs.
fn tab05_tables(_: &[RunOutcome]) -> Vec<Table> {
    vec![hwcost::table5(), hwcost::drain_comparison(32)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::SweepArgs;
    use crate::exec::sweep_figure;
    use crate::runner::run_once;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            ops: 12,
            window: Cycle(30_000),
            seed: 1,
        }
    }

    /// The tables of registry entry `name`, run in-process at `scale`.
    fn tables(name: &str, scale: ExperimentScale) -> Vec<Table> {
        let fig = figure(name).expect("registered figure");
        sweep_figure(fig, scale, &SweepArgs::default())
            .0
            .expect("an unsharded sweep is complete")
    }

    #[test]
    fn fig13_shape_asap_beats_hops() {
        let t = &tables("fig13", tiny())[0];
        let hops = t.cell_f64("hops", "utilization_pct").unwrap();
        let asap = t.cell_f64("asap", "utilization_pct").unwrap();
        assert!(
            asap > hops,
            "ASAP must out-utilize HOPS (asap={asap}, hops={hops})"
        );
        let bc: f64 = t.cell_f64("baseline", "cycles").unwrap();
        let ac: f64 = t.cell_f64("asap", "cycles").unwrap();
        assert!(ac < bc);
    }

    #[test]
    fn fig08_shape_on_subset() {
        // Full fig08 is exercised by the sweep tests/benches; here check the
        // model ordering on one representative workload.
        let s = tiny();
        let cycles: Vec<u64> = FIG8_MODELS
            .iter()
            .map(|&(_, m, f)| run_once(&spec(m, f, WorkloadKind::Queue, s)).cycles)
            .collect();
        let base = cycles[0];
        let asap_rp = cycles[4];
        let eadr = cycles[5];
        assert!(base > asap_rp, "baseline slower than ASAP");
        // Lock-serialized workloads show a few % of hand-off phase noise
        // at tiny scales; eADR must still be within tolerance of the
        // lower bound.
        assert!(
            (eadr as f64) < asap_rp as f64 * 1.10,
            "eADR ({eadr}) should not exceed ASAP ({asap_rp}) by >10%"
        );
    }

    #[test]
    fn fig08_specs_cover_models_by_workload() {
        let specs = fig08_specs(tiny());
        assert_eq!(specs.len(), bar_chart_workloads().len() * FIG8_MODELS.len());
        // Row-major: the first chunk is all six models of the first
        // workload, in FIG8_MODELS column order.
        for (s, &(_, m, f)) in specs.iter().zip(FIG8_MODELS.iter()) {
            assert_eq!(s.workload, bar_chart_workloads()[0]);
            assert_eq!(s.model, m);
            assert_eq!(s.flavor, f);
        }
    }

    #[test]
    fn fig02_window_counts_epochs() {
        let s = ExperimentScale {
            ops: 0,
            window: Cycle(50_000),
            seed: 1,
        };
        // Only two workloads to keep the test fast: build a table inline.
        let spec_rp = spec(ModelKind::Asap, Flavor::Release, WorkloadKind::Cceh, s).windowed();
        let rp = crate::run_window(&spec_rp, s.window);
        assert!(rp.stats.epochs_created > 0);
        assert!(!rp.all_done);
        let windowed: Vec<&str> = FIGURES
            .iter()
            .filter(|f| f.windowed)
            .map(|f| f.name)
            .collect();
        assert_eq!(windowed, ["fig02"], "fig02 is the one windowed figure");
    }

    #[test]
    fn abl_mc_count_single_mc_less_advantage() {
        let t = &tables("ablations", tiny())[3];
        let one = t.cell_f64("1", "asap_over_hops").unwrap();
        let two = t.cell_f64("2", "asap_over_hops").unwrap();
        // The multi-MC motivation: ASAP's edge grows with MC count.
        assert!(
            two >= one * 0.95,
            "2-MC advantage ({two}) should not collapse vs 1-MC ({one})"
        );
    }

    #[test]
    fn summary_derives_from_fig8() {
        let mut t = Table::new(
            "Figure 8: speedup over baseline (4 cores, 2 MCs)",
            &[
                "workload", "baseline", "hops_ep", "hops_rp", "asap_ep", "asap_rp", "eadr",
            ],
        );
        t.push_row(vec![
            "average".into(),
            "1.00".into(),
            "1.53".into(),
            "1.86".into(),
            "2.10".into(),
            "2.29".into(),
            "2.38".into(),
        ]);
        let s = fig08_summary(&t);
        assert_eq!(
            s.cell("ASAP_RP speedup over baseline", "value"),
            Some("2.29")
        );
        let gap: f64 = s.cell_f64("ASAP_RP gap to eADR (%)", "value").unwrap();
        assert!((gap - 3.93).abs() < 0.1);
    }
}
