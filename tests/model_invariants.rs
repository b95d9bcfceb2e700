//! Cross-crate invariants that must hold regardless of the persistency
//! model: functional equivalence, performance ordering, and accounting
//! identities.

use asap::harness::{run_once, RunSpec};
use asap::model::SimBuilder;
use asap::sim::{Cycle, Flavor, ModelKind, SimConfig};
use asap::workloads::{make_workload, WorkloadKind, WorkloadParams};

fn spec(model: ModelKind, w: WorkloadKind, threads: usize, ops: u64) -> RunSpec {
    RunSpec {
        config: SimConfig::builder()
            .cores(threads)
            .build()
            .expect("valid config"),
        model,
        flavor: Flavor::Release,
        workload: w,
        ops_per_thread: ops,
        seed: 77,
    }
}

/// Single-thread runs are functionally deterministic: every model must
/// complete the same logical work (the persistency hardware may reorder
/// persists, never architectural results).
#[test]
fn single_thread_ops_identical_across_models() {
    for w in [
        WorkloadKind::Cceh,
        WorkloadKind::FastFair,
        WorkloadKind::Nstore,
    ] {
        let counts: Vec<u64> = [
            ModelKind::Baseline,
            ModelKind::Hops,
            ModelKind::Asap,
            ModelKind::Eadr,
        ]
        .iter()
        .map(|&m| run_once(&spec(m, w, 1, 30)).ops)
        .collect();
        assert!(
            counts.windows(2).all(|p| p[0] == p[1]),
            "{w}: op counts diverge across models: {counts:?}"
        );
    }
}

/// The paper's headline ordering must hold on every workload:
/// eADR <= ASAP (cycles) within a small tolerance. Lock-serialized
/// workloads (vacation) can show a few percent of hand-off phase noise —
/// the spinners' backoff windows align differently when the critical
/// sections end at different instants — so a 10% margin is allowed.
#[test]
fn eadr_is_the_lower_bound_everywhere() {
    for w in WorkloadKind::all() {
        let asap = run_once(&spec(ModelKind::Asap, w, 2, 25)).cycles;
        let eadr = run_once(&spec(ModelKind::Eadr, w, 2, 25)).cycles;
        assert!(
            eadr as f64 <= asap as f64 * 1.10,
            "{w}: eADR ({eadr}) more than 10% slower than ASAP ({asap})"
        );
    }
}

/// ASAP must beat the baseline on the concurrent index structures — the
/// paper's headline case.
#[test]
fn asap_beats_baseline_on_concurrent_structures() {
    for w in [
        WorkloadKind::Cceh,
        WorkloadKind::PClht,
        WorkloadKind::DashLh,
        WorkloadKind::Queue,
        WorkloadKind::FastFair,
    ] {
        let base = run_once(&spec(ModelKind::Baseline, w, 4, 40)).cycles;
        let asap = run_once(&spec(ModelKind::Asap, w, 4, 40)).cycles;
        assert!(
            asap < base,
            "{w}: ASAP ({asap}) not faster than baseline ({base})"
        );
    }
}

/// Write-count accounting: media writes can never exceed journal-issued
/// stores (coalescing only reduces), and every model persists a similar
/// amount of data for the same work.
#[test]
fn media_writes_bounded_by_stores() {
    for m in [ModelKind::Baseline, ModelKind::Hops, ModelKind::Asap] {
        let out = run_once(&spec(m, WorkloadKind::Echo, 2, 40));
        assert!(out.media_writes > 0, "{m}: no media writes");
        assert!(
            out.media_writes <= out.stats.stores,
            "{m}: media writes ({}) exceed stores ({})",
            out.media_writes,
            out.stats.stores
        );
    }
}

/// ASAP-specific identities: undo records come only from early flushes,
/// and commits clean every one of them by the end of a successful run.
#[test]
fn asap_record_identities() {
    let out = run_once(&spec(ModelKind::Asap, WorkloadKind::PClht, 4, 40));
    let s = &out.stats;
    assert!(
        s.total_undo <= s.tot_spec_writes,
        "undo records need early flushes"
    );
    assert!(s.total_delay <= s.tot_spec_writes);
    // Each undo-creating early flush reads the old value first.
    assert!(s.nvm_reads >= s.total_undo);
    assert!(out.rt_max_occupancy <= SimConfig::paper().rt_entries);
}

/// HOPS-specific identities: no speculation machinery engages.
#[test]
fn hops_never_speculates() {
    let out = run_once(&spec(ModelKind::Hops, WorkloadKind::Cceh, 4, 40));
    assert_eq!(out.stats.tot_spec_writes, 0);
    assert_eq!(out.stats.total_undo, 0);
    assert_eq!(out.stats.nacks, 0);
    assert_eq!(out.stats.commit_msgs, 0);
    assert_eq!(out.rt_max_occupancy, 0);
}

/// Baseline-specific identities: no buffering at all.
#[test]
fn baseline_has_no_persist_buffers() {
    let out = run_once(&spec(ModelKind::Baseline, WorkloadKind::Heap, 2, 30));
    assert_eq!(out.stats.entries_inserted, 0);
    assert_eq!(out.stats.cycles_blocked, 0);
    assert!(out.stats.ofence_stalled + out.stats.dfence_stalled > 0);
}

/// Runs are bit-deterministic: same spec, same cycle count, same stats.
#[test]
fn determinism_across_repeats() {
    for m in [ModelKind::Asap, ModelKind::Hops] {
        let a = run_once(&spec(m, WorkloadKind::Skiplist, 3, 25));
        let b = run_once(&spec(m, WorkloadKind::Skiplist, 3, 25));
        assert_eq!(a.cycles, b.cycles, "{m} nondeterministic");
        assert_eq!(a.media_writes, b.media_writes);
        assert_eq!(
            a.stats.inter_t_epoch_conflict,
            b.stats.inter_t_epoch_conflict
        );
    }
}

/// Seeds actually change the run (the RNG is plumbed through).
#[test]
fn seed_changes_runs() {
    let mut s1 = spec(ModelKind::Asap, WorkloadKind::Cceh, 2, 40);
    let mut s2 = s1.clone();
    s1.seed = 1;
    s2.seed = 2;
    let a = run_once(&s1);
    let b = run_once(&s2);
    assert_ne!(
        (a.cycles, a.media_writes),
        (b.cycles, b.media_writes),
        "different seeds should differ"
    );
}

/// The snapshot pool makes the store → persist buffer → flush → ack
/// cycle allocation-free once warm: over the second half of a run no
/// fresh snapshot box is allocated, while recycled boxes keep tracking
/// the stores.
#[test]
fn snapshot_pool_allocates_nothing_in_steady_state() {
    let params = WorkloadParams {
        threads: 4,
        ops_per_thread: 60,
        seed: 42,
        ..WorkloadParams::default()
    };
    // Queue keeps a stationary burst structure, so the pool's high-water
    // mark settles in the first half; segment-splitting structures keep
    // raising the peak live-snapshot count all run.
    let build = || {
        SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(make_workload(WorkloadKind::Queue, &params))
            .build()
    };
    // A first run learns the end cycle, so warm-up is "the first half
    // of the run" whatever its length.
    let mut probe = build();
    assert!(probe.run_to_completion().all_done);
    let end = probe.now().raw();

    let mut sim = build();
    sim.run_for(Cycle(end / 2));
    let (fresh_warm, _) = sim.snapshot_pool_counters();
    assert!(sim.run_to_completion().all_done);
    let (fresh, recycled) = sim.snapshot_pool_counters();
    assert_eq!(
        fresh,
        fresh_warm,
        "snapshot pool allocated {} boxes after warm-up",
        fresh - fresh_warm
    );
    assert!(
        recycled > fresh,
        "{recycled} recycled vs {fresh} fresh boxes"
    );
}
