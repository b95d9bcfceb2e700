//! Golden model-equivalence fixture.
//!
//! One small pinned-seed run per workload × ModelKind × Flavor, asserting
//! the externally visible outcome (`cycles`, `ops`, `media_writes`,
//! `rt_max_occupancy`) and an FNV-1a digest over every [`Stats`] field
//! (counters and histograms) against committed values. Any refactor of
//! the simulator core (e.g. the `sim/` protocol-trait split) must keep
//! these bit-identical; a legitimate modelling change must update this
//! table in the same commit and say why.
//!
//! The CCEH rows run the paper configuration. The memcached and queue
//! rows shrink the recovery table and persist buffer so that NACKs,
//! ASAP's conservative fallback and PB-full stalls all occur, and run
//! long enough for BBB's flush engine to drain to the media.
//!
//! Regenerate with:
//! ```text
//! GOLDEN_PRINT=1 cargo test --test golden_model_equivalence -- --nocapture
//! ```

use asap::harness::{run_once, RunOutcome, RunSpec};
use asap::model::{Flavor, ModelKind};
use asap::sim::{fnv1a_fold, SimConfig, StatRef, Stats, FNV_OFFSET};
use asap::workloads::WorkloadKind;

/// Pinned outcomes at seed 2024, one run per line: workload, model,
/// flavor, cycles, ops, media writes, max RT occupancy and the
/// [`stats_digest`] in hex. The CCEH cycle, op, media-write and RT
/// columns were captured from the pre-refactor (monolithic `sim.rs`)
/// simulator.
const GOLDEN: &str = "\
cceh      baseline EP   23042  48  126 0 1410a47b37e574c4
cceh      baseline RP   23042  48  126 0 1410a47b37e574c4
cceh      hops     EP   26740  48  126 0 86ad099e610a941f
cceh      hops     RP   25606  48  168 0 776648b573b566d8
cceh      asap     EP   18604  48  127 5 566b2ec340d8ebef
cceh      asap     RP   19264  48  126 8 4e793522fe5dcc02
cceh      eadr     EP   14582  48    0 0 6f87054160fcbc8f
cceh      eadr     RP   14582  48    0 0 6f87054160fcbc8f
cceh      bbb      EP   14582  48  124 0 01f792d6352400e5
cceh      bbb      RP   14582  48  124 0 01f792d6352400e5
memcached baseline EP  305874 600 2735 0 e80ed37a0d02a698
memcached baseline RP  305874 600 2735 0 e80ed37a0d02a698
memcached hops     EP  423503 600 3048 0 37af9689ea996e3e
memcached hops     RP  326834 600 3218 0 f12548814a330045
memcached asap     EP  280166 600 3269 4 5fe4b20582502395
memcached asap     RP  278020 600 3280 4 9999bd21cd28e000
memcached eadr     EP  203595 600    0 0 d03bc64d18ef5555
memcached eadr     RP  203595 600    0 0 d03bc64d18ef5555
memcached bbb      EP  223797 600 3281 0 0ed9ba187c4103f7
memcached bbb      RP  223797 600 3281 0 0ed9ba187c4103f7
queue     baseline EP  803484 600 3924 0 b5e17abe388ad9e3
queue     baseline RP  803484 600 3924 0 b5e17abe388ad9e3
queue     hops     EP 2752068 600 3953 0 8531f41e26772c8d
queue     hops     RP  655158 600 4132 0 3ba044852b6cf0c0
queue     asap     EP  624642 600 3879 4 d93cf34237b43894
queue     asap     RP  313933 600 4609 4 939ae748cb1fb604
queue     eadr     EP  229762 600    0 0 ddc6d468c5f9fde7
queue     eadr     RP  229762 600    0 0 ddc6d468c5f9fde7
queue     bbb      EP  280126 600 4831 0 49ed19ab262bfa8a
queue     bbb      RP  280126 600 4831 0 49ed19ab262bfa8a
";

const WORKLOADS: [WorkloadKind; 3] = [
    WorkloadKind::Cceh,
    WorkloadKind::Memcached,
    WorkloadKind::Queue,
];

const MODELS: [ModelKind; 5] = [
    ModelKind::Baseline,
    ModelKind::Hops,
    ModelKind::Asap,
    ModelKind::Eadr,
    ModelKind::Bbb,
];

/// Recovery-table and persist-buffer sizes of the memcached and queue
/// rows, and their length.
const RT_ENTRIES: usize = 4;
const PB_ENTRIES: usize = 4;
const OPS_PER_THREAD: u64 = 150;

fn spec(workload: WorkloadKind, model: ModelKind, flavor: Flavor) -> RunSpec {
    let (config, ops_per_thread) = match workload {
        WorkloadKind::Cceh => (SimConfig::paper(), 12),
        _ => (
            SimConfig::builder()
                .rt_entries(RT_ENTRIES)
                .pb_entries(PB_ENTRIES)
                .build()
                .expect("valid config"),
            OPS_PER_THREAD,
        ),
    };
    RunSpec {
        config,
        model,
        flavor,
        workload,
        ops_per_thread,
        seed: 2024,
    }
}

/// FNV-1a over every [`Stats`] field in declaration order: its name, then
/// a counter's value or a histogram's exact aggregates and buckets.
fn stats_digest(stats: &Stats) -> u64 {
    let mut h = FNV_OFFSET;
    for (field, value) in stats.fields() {
        h = fnv1a_fold(h, field.as_bytes());
        match value {
            StatRef::Counter(v) => h = fnv1a_fold(h, &v.to_le_bytes()),
            StatRef::Histogram(hist) => {
                h = fnv1a_fold(h, &hist.sum().to_le_bytes());
                h = fnv1a_fold(h, &hist.min_raw().to_le_bytes());
                h = fnv1a_fold(h, &hist.max().to_le_bytes());
                for (bucket, count) in hist.nonzero_buckets() {
                    h = fnv1a_fold(h, &(bucket as u64).to_le_bytes());
                    h = fnv1a_fold(h, &count.to_le_bytes());
                }
            }
        }
    }
    h
}

/// One run rendered as its [`GOLDEN`] line.
fn golden_line(spec: &RunSpec, out: &RunOutcome) -> String {
    format!(
        "{:<9} {:<8} {} {:>7} {:>3} {:>4} {} {:016x}",
        spec.workload.to_string(),
        spec.model.to_string(),
        spec.flavor,
        out.cycles,
        out.ops,
        out.media_writes,
        out.rt_max_occupancy,
        stats_digest(&out.stats)
    )
}

#[test]
fn outcomes_match_golden_snapshots() {
    let mut got = Vec::new();
    for workload in WORKLOADS {
        for model in MODELS {
            for flavor in [Flavor::Epoch, Flavor::Release] {
                let spec = spec(workload, model, flavor);
                let out = run_once(&spec);
                got.push(golden_line(&spec, &out));
                // The shrunken-buffer rows must reach the paths they are
                // there for.
                let s = &out.stats;
                if workload != WorkloadKind::Cceh {
                    match model {
                        ModelKind::Asap => assert!(s.nacks > 0 && s.cycles_stalled > 0, "{spec:?}"),
                        ModelKind::Bbb => {
                            assert!(s.nvm_writes > 0 && s.cycles_stalled > 0, "{spec:?}")
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("{}", got.join("\n"));
        return; // regeneration mode: table printed above, don't assert
    }
    let want: Vec<&str> = GOLDEN.lines().collect();
    let drift: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("expected {w}\n     got {g}"))
        .collect();
    assert_eq!(want.len(), got.len(), "one golden line per run");
    assert!(
        drift.is_empty(),
        "golden snapshot drift:\n{}",
        drift.join("\n")
    );
}
