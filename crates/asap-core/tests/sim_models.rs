//! End-to-end simulator tests: the four persistency models, cross-thread
//! dependencies, NACK fallback, and crash consistency.

use asap_core::ops::{BurstCtx, BurstStatus, ThreadProgram};
use asap_core::{Flavor, ModelKind, Sim, SimBuilder};
use asap_sim_core::{Cycle, SimConfig, ThreadId};

/// Wrap a closure as a thread program.
struct FnProgram<F>(F, &'static str);

impl<F> ThreadProgram for FnProgram<F>
where
    F: FnMut(ThreadId, &mut BurstCtx<'_>) -> BurstStatus,
{
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        (self.0)(tid, ctx)
    }
    fn name(&self) -> &str {
        self.1
    }
}

fn prog<F>(f: F) -> Box<dyn ThreadProgram>
where
    F: FnMut(ThreadId, &mut BurstCtx<'_>) -> BurstStatus + 'static,
{
    Box::new(FnProgram(f, "test"))
}

/// A single-thread writer: `epochs` epochs of `lines` stores each,
/// separated by ofence, dfence at the end.
fn writer(epochs: u64, lines: u64, base: u64) -> Box<dyn ThreadProgram> {
    let mut e = 0;
    prog(move |_t, ctx| {
        if e >= epochs {
            ctx.dfence();
            return BurstStatus::Finished;
        }
        for l in 0..lines {
            ctx.store_u64(base + (e * lines + l) * 64, e * 1000 + l);
        }
        ctx.ofence();
        ctx.op_completed();
        e += 1;
        BurstStatus::Running
    })
}

fn build(model: ModelKind, flavor: Flavor, programs: Vec<Box<dyn ThreadProgram>>) -> Sim {
    SimBuilder::new(SimConfig::paper(), model, flavor)
        .programs(programs)
        .with_journal()
        .build()
}

fn run_model(model: ModelKind, flavor: Flavor) -> (u64, Sim) {
    let mut sim = build(model, flavor, vec![writer(40, 4, 0x10_0000)]);
    let out = sim.run_to_completion();
    assert!(out.all_done);
    (out.cycles.raw(), sim)
}

#[test]
fn all_models_complete_single_thread() {
    for model in [
        ModelKind::Baseline,
        ModelKind::Hops,
        ModelKind::Asap,
        ModelKind::Eadr,
        ModelKind::Bbb,
    ] {
        let (cycles, sim) = run_model(model, Flavor::Release);
        assert!(cycles > 0, "{model}: zero cycles");
        assert_eq!(sim.stats().ops_completed, 40, "{model}");
    }
}

#[test]
fn model_performance_ordering_holds() {
    // The paper's headline ordering: baseline slowest, eADR fastest, ASAP
    // within a whisker of eADR, HOPS in between.
    let (base, _) = run_model(ModelKind::Baseline, Flavor::Release);
    let (hops, _) = run_model(ModelKind::Hops, Flavor::Release);
    let (asap, _) = run_model(ModelKind::Asap, Flavor::Release);
    let (eadr, _) = run_model(ModelKind::Eadr, Flavor::Release);
    assert!(
        base > hops && hops >= asap && asap >= eadr,
        "ordering violated: baseline={base} hops={hops} asap={asap} eadr={eadr}"
    );
}

#[test]
fn asap_commits_all_epochs() {
    let (_, sim) = run_model(ModelKind::Asap, Flavor::Release);
    let s = sim.stats();
    assert!(s.epochs_created > 0);
    // Every write was inserted into the PBs.
    assert_eq!(s.entries_inserted, 40 * 4);
    // All stores persisted: NVM media writes >= distinct lines written.
    assert!(s.nvm_writes >= 160, "nvm_writes = {}", s.nvm_writes);
}

#[test]
fn crash_after_completion_is_consistent_for_every_model() {
    for model in [
        ModelKind::Baseline,
        ModelKind::Hops,
        ModelKind::Asap,
        ModelKind::Eadr,
    ] {
        let mut sim = build(model, Flavor::Release, vec![writer(20, 3, 0x20_0000)]);
        sim.run_to_completion();
        let r = sim.crash_and_check().expect("journal enabled");
        assert!(r.is_consistent(), "{model}: {:?}", r.violations);
    }
}

#[test]
fn midrun_crashes_are_consistent() {
    // Crash ASAP at many points through the run; recovery must always be
    // ordering-consistent (Theorem 2).
    for at in [500u64, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000] {
        let mut sim = build(
            ModelKind::Asap,
            Flavor::Release,
            vec![writer(60, 4, 0x30_0000), writer(60, 4, 0x40_0000)],
        );
        let r = sim.crash_at(Cycle(at)).expect("journal enabled");
        assert!(r.is_consistent(), "crash at {at}: {:?}", r.violations);
    }
}

#[test]
fn midrun_crashes_consistent_for_hops_and_baseline() {
    for model in [ModelKind::Hops, ModelKind::Baseline] {
        for at in [1_000u64, 10_000, 60_000] {
            let mut sim = build(model, Flavor::Release, vec![writer(40, 4, 0x50_0000)]);
            let r = sim.crash_at(Cycle(at)).expect("journal enabled");
            assert!(
                r.is_consistent(),
                "{model} crash at {at}: {:?}",
                r.violations
            );
        }
    }
}

/// Two threads ping-pong over a lock and write shared lines: generates
/// cross-thread dependencies and (under ASAP) early flushes to the same
/// addresses, exercising undo/delay records.
fn locked_sharer(rounds: u64, lock: u64, shared_base: u64) -> Box<dyn ThreadProgram> {
    // Three-phase lock protocol: (1) acquire-CAS burst, (2) critical
    // section burst, (3) release burst. The release occupies its own
    // burst so the functional unlock only becomes visible to other
    // threads after the critical section has *executed* in simulated
    // time — mirroring how real stores publish through coherence.
    let mut done = 0;
    let mut phase = 0u8;
    prog(move |t, ctx| {
        if done >= rounds {
            ctx.dfence();
            return BurstStatus::Finished;
        }
        match phase {
            0 => {
                if ctx.acquire_cas(lock, 0, t.0 as u64 + 1) {
                    phase = 1;
                } else {
                    ctx.compute(50); // backoff and retry
                }
            }
            1 => {
                for i in 0..4u64 {
                    let v = ctx.load_u64(shared_base + i * 64);
                    ctx.store_u64(shared_base + i * 64, v + 1);
                }
                ctx.ofence();
                phase = 2;
            }
            _ => {
                ctx.release_store(lock, 0);
                ctx.op_completed();
                phase = 0;
                done += 1;
            }
        }
        BurstStatus::Running
    })
}

#[test]
fn cross_thread_dependencies_detected_under_rp() {
    let mut sim = build(
        ModelKind::Asap,
        Flavor::Release,
        vec![
            locked_sharer(30, 0x1000, 0x60_0000),
            locked_sharer(30, 0x1000, 0x60_0000),
        ],
    );
    let out = sim.run_to_completion();
    assert!(out.all_done);
    let s = sim.stats();
    assert!(
        s.inter_t_epoch_conflict > 0,
        "expected cross-thread dependencies, got none"
    );
    assert!(s.cdr_msgs > 0, "ASAP resolves deps with CDR messages");
    // The shared counters must reflect all 60 increments.
    assert_eq!(sim.pm().read_u64(0x60_0000), 60);
}

#[test]
fn ep_detects_more_conflicts_than_rp() {
    let run = |flavor| {
        let mut sim = build(
            ModelKind::Asap,
            flavor,
            vec![
                locked_sharer(20, 0x1000, 0x70_0000),
                locked_sharer(20, 0x1000, 0x70_0000),
            ],
        );
        sim.run_to_completion();
        sim.stats().inter_t_epoch_conflict
    };
    let ep = run(Flavor::Epoch);
    let rp = run(Flavor::Release);
    assert!(
        ep >= rp,
        "epoch persistency should see at least as many conflicts (ep={ep} rp={rp})"
    );
    assert!(ep > 0);
}

#[test]
fn hops_resolves_deps_by_polling() {
    let mut sim = build(
        ModelKind::Hops,
        Flavor::Release,
        vec![
            locked_sharer(15, 0x1000, 0x80_0000),
            locked_sharer(15, 0x1000, 0x80_0000),
        ],
    );
    let out = sim.run_to_completion();
    assert!(out.all_done);
    let s = sim.stats();
    assert!(s.inter_t_epoch_conflict > 0);
    assert!(
        s.global_ts_reads > 0,
        "HOPS should poll the global TS register"
    );
    assert_eq!(s.cdr_msgs, 0, "HOPS does not send CDR messages");
}

#[test]
fn shared_write_crashes_are_consistent() {
    for at in [2_000u64, 8_000, 25_000, 80_000, 200_000] {
        let mut sim = build(
            ModelKind::Asap,
            Flavor::Release,
            vec![
                locked_sharer(40, 0x1000, 0x90_0000),
                locked_sharer(40, 0x1000, 0x90_0000),
                locked_sharer(40, 0x1000, 0x90_0000),
            ],
        );
        let r = sim.crash_at(Cycle(at)).expect("journal enabled");
        assert!(r.is_consistent(), "crash at {at}: {:?}", r.violations);
    }
}

#[test]
fn asap_speculates_and_creates_undo_records() {
    // Two dependent threads writing across both MCs: the dependent thread
    // flushes early, producing speculative writes and undo records.
    let mut sim = build(
        ModelKind::Asap,
        Flavor::Release,
        vec![
            locked_sharer(40, 0x1000, 0xa0_0000),
            locked_sharer(40, 0x1000, 0xa0_0000),
        ],
    );
    sim.run_to_completion();
    let s = sim.stats();
    assert!(
        s.tot_spec_writes > 0,
        "eager flushing should produce early flushes"
    );
    assert!(s.total_undo > 0, "early flushes create undo records");
    assert!(s.commit_msgs > 0, "commits must clean the recovery tables");
}

#[test]
fn tiny_rt_forces_nacks_but_run_still_completes() {
    let cfg = SimConfig::builder().rt_entries(2).build().unwrap();
    let mut sim = SimBuilder::new(cfg, ModelKind::Asap, Flavor::Release)
        .programs(vec![
            locked_sharer(25, 0x1000, 0xb0_0000),
            locked_sharer(25, 0x1000, 0xb0_0000),
        ])
        .with_journal()
        .build();
    let out = sim.run_to_completion();
    assert!(out.all_done, "NACK fallback must preserve forward progress");
    let r = sim.crash_and_check().expect("journal enabled");
    assert!(r.is_consistent(), "{:?}", r.violations);
}

#[test]
fn tiny_rt_crash_storm_is_consistent() {
    for at in [3_000u64, 12_000, 40_000, 150_000] {
        let cfg = SimConfig::builder().rt_entries(2).build().unwrap();
        let mut sim = SimBuilder::new(cfg, ModelKind::Asap, Flavor::Release)
            .programs(vec![
                locked_sharer(30, 0x1000, 0xc0_0000),
                locked_sharer(30, 0x1000, 0xc0_0000),
            ])
            .with_journal()
            .build();
        let r = sim.crash_at(Cycle(at)).expect("journal enabled");
        assert!(r.is_consistent(), "crash at {at}: {:?}", r.violations);
    }
}

#[test]
fn pb_full_backpressure_stalls_core() {
    // A tiny PB and long NVM latency force the core to stall on stores.
    let cfg = SimConfig::builder()
        .pb_entries(2)
        .nvm_write_ns(2000)
        .nvm_banks(1)
        .build()
        .unwrap();
    let mut sim = SimBuilder::new(cfg, ModelKind::Asap, Flavor::Release)
        .programs(vec![writer(10, 6, 0xd0_0000)])
        .build();
    sim.run_to_completion();
    assert!(
        sim.stats().cycles_stalled > 0,
        "full PB must back-pressure the core"
    );
}

#[test]
fn dfence_waits_for_durability() {
    // Stores immediately followed by dfence in the same burst cannot all
    // have persisted yet: the dfence must stall. Rewriting the same warm
    // lines keeps per-store latency (L1 hits) far below the flush round
    // trip.
    let mut e = 0u64;
    let mut sim = build(
        ModelKind::Asap,
        Flavor::Release,
        vec![prog(move |_t, ctx| {
            if e >= 10 {
                return BurstStatus::Finished;
            }
            for l in 0..8u64 {
                ctx.store_u64(0x100_0000 + l * 64, e * 8 + l);
            }
            ctx.dfence();
            e += 1;
            BurstStatus::Running
        })],
    );
    sim.run_to_completion();
    assert!(sim.stats().dfence_stalled > 0);
    assert!(sim.deps().topological_order().is_some());
}

#[test]
fn baseline_stalls_on_every_fence() {
    let (_, sim) = run_model(ModelKind::Baseline, Flavor::Release);
    let s = sim.stats();
    assert!(s.ofence_stalled > 0, "baseline ofences stall synchronously");
    assert_eq!(s.entries_inserted, 0, "baseline has no persist buffers");
}

#[test]
fn bbb_tracks_eadr_but_drains_to_nvm() {
    // The paper plots eADR and BBB as one curve: BBB must be within a
    // few percent of eADR while still writing NVM in the background.
    let (eadr, _) = run_model(ModelKind::Eadr, Flavor::Release);
    let (bbb, sim) = run_model(ModelKind::Bbb, Flavor::Release);
    assert!(
        (bbb as f64) < eadr as f64 * 1.15,
        "BBB ({bbb}) should be within ~15% of eADR ({eadr})"
    );
    assert!(sim.stats().nvm_writes > 0, "BBB still drains to NVM");
    assert_eq!(sim.stats().dfence_stalled, 0, "BBB fences are free");
    assert_eq!(sim.stats().nacks, 0);
}

#[test]
fn bbb_crash_drains_buffers() {
    // Crash mid-run: the battery drains the persist buffers, so recovery
    // must be consistent and every executed epoch durable.
    for at in [2_000u64, 20_000, 100_000] {
        let mut sim = build(
            ModelKind::Bbb,
            Flavor::Release,
            vec![writer(60, 4, 0xf8_0000)],
        );
        let r = sim.crash_at(Cycle(at)).expect("journal enabled");
        assert!(r.is_consistent(), "BBB crash at {at}: {:?}", r.violations);
    }
}

#[test]
fn eadr_never_stalls_and_never_flushes() {
    let (_, sim) = run_model(ModelKind::Eadr, Flavor::Release);
    let s = sim.stats();
    assert_eq!(s.nvm_writes, 0);
    assert_eq!(s.dfence_stalled, 0);
    assert_eq!(s.cycles_stalled, 0);
}

#[test]
fn stats_snapshot_has_paper_names() {
    let (_, sim) = run_model(ModelKind::Asap, Flavor::Release);
    let snap = sim.stats().snapshot();
    for name in [
        "cyclesBlocked",
        "cyclesStalled",
        "dfenceStalled",
        "entriesInserted",
        "interTEpochConflict",
        "totSpecWrites",
        "totalUndo",
    ] {
        assert!(snap.get(name).is_some(), "missing stat {name}");
    }
}

#[test]
fn determinism_same_seedless_run_is_identical() {
    let run = || {
        let mut sim = build(
            ModelKind::Asap,
            Flavor::Release,
            vec![
                locked_sharer(20, 0x1000, 0xe0_0000),
                locked_sharer(20, 0x1000, 0xe0_0000),
            ],
        );
        let out = sim.run_to_completion();
        (
            out.cycles,
            sim.stats().nvm_writes,
            sim.stats().inter_t_epoch_conflict,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn run_for_truncates_at_limit() {
    let mut sim = build(
        ModelKind::Asap,
        Flavor::Release,
        vec![writer(1000, 4, 0xf0_0000)],
    );
    let out = sim.run_for(Cycle(5_000));
    assert!(!out.all_done);
    assert!(out.cycles <= Cycle(5_000));
    assert_eq!(sim.now(), Cycle(5_000));
}

#[test]
fn pb_occupancy_is_tracked() {
    let (_, sim) = run_model(ModelKind::Asap, Flavor::Release);
    assert!(sim.stats().pb_occupancy.count() > 0);
    // Occupancy can never exceed capacity.
    assert!(sim.stats().pb_occupancy.max() <= SimConfig::paper().pb_entries as u64);
}

#[test]
fn media_utilization_is_sane() {
    let (_, sim) = run_model(ModelKind::Asap, Flavor::Release);
    let u = sim.media_utilization();
    assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
    assert!(u > 0.0);
}
