//! Edge cases of the crash-consistency oracle entry points: crashing
//! before anything ran, crashing without a journal, crashing after
//! completion, and crashing repeatedly.

use asap_core::{Flavor, ModelKind, OracleError, SimBuilder, ThreadProgram};
use asap_sim_core::{Cycle, SimConfig, ThreadId};

/// Two epochs of stores with proper barriers, then done.
struct TwoEpochs {
    done: bool,
}

impl ThreadProgram for TwoEpochs {
    fn next_burst(
        &mut self,
        tid: ThreadId,
        ctx: &mut asap_core::BurstCtx<'_>,
    ) -> asap_core::BurstStatus {
        if !self.done {
            self.done = true;
            let base = 0x4000 + tid.0 as u64 * 0x200;
            ctx.store_u64(base, 1);
            ctx.ofence();
            ctx.store_u64(base + 64, 2);
            ctx.dfence();
        }
        asap_core::BurstStatus::Finished
    }
}

fn sim(journal: bool) -> asap_core::Sim {
    let mut b = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
        .program(Box::new(TwoEpochs { done: false }))
        .program(Box::new(TwoEpochs { done: false }));
    if journal {
        b = b.with_journal();
    }
    b.build()
}

#[test]
fn crash_at_cycle_zero_is_trivially_consistent() {
    let mut s = sim(true);
    let report = s.crash_at(Cycle(0)).expect("journal enabled");
    assert!(
        report.is_consistent(),
        "violations: {:?}",
        report.violations
    );
    assert_eq!(report.epochs_visible, 0);
}

#[test]
fn crash_without_journal_is_a_typed_error() {
    let mut s = sim(false);
    s.run_to_completion();
    let err = s.crash_and_check().expect_err("journal disabled");
    assert_eq!(err, OracleError::JournalDisabled);
    // The guidance survives in the Display form.
    assert!(err.to_string().contains("crash checking requires"));
    // The non-destructive path reports the same condition.
    assert_eq!(
        s.crash_check_now().expect_err("journal disabled"),
        OracleError::JournalDisabled
    );
}

#[test]
#[should_panic(expected = "race checking requires")]
fn race_check_without_journal_panics_with_guidance() {
    let mut s = sim(false);
    s.run_to_completion();
    s.race_check();
}

#[test]
fn crash_after_completion_sees_everything_durable() {
    let mut s = sim(true);
    let out = s.run_to_completion();
    assert!(out.all_done);
    let report = s.crash_and_check().expect("journal enabled");
    assert!(
        report.is_consistent(),
        "violations: {:?}",
        report.violations
    );
    // Both threads' epochs executed writes and all of them are visible;
    // committed may exceed visible (epoch splits create empty epochs
    // that commit without ever holding a write).
    assert!(report.epochs_visible >= 4, "report: {report:?}");
    assert!(report.epochs_visible <= report.epochs_committed);
}

/// A cycle at which [`sim`]'s ASAP run holds live undo records.
const MID_RUN_UNDO: u64 = 200;

#[test]
fn repeated_crash_checks_are_stable() {
    // The recovery tables keep their undo records across a crash, so a
    // second crash re-applies them to the recovered image: a crash
    // during recovery. That must change neither the image nor the
    // report. After completion every undo record is cleaned; mid-run
    // under ASAP some are still live.
    for (at, live_undo) in [(None, false), (Some(Cycle(MID_RUN_UNDO)), true)] {
        let mut s = sim(true);
        match at {
            Some(c) => s.run_for(c),
            None => s.run_to_completion(),
        };
        let first = s.crash_and_check().expect("journal enabled");
        let recovered = s.nvm().content_digest();
        let second = s.crash_and_check().expect("journal enabled");
        assert!(first.is_consistent(), "{at:?}: {:?}", first.violations);
        assert_eq!(first, second, "{at:?}: a repeated crash reports the same");
        assert_eq!(s.nvm().content_digest(), recovered, "{at:?}");
        assert_eq!(
            first.undo_records_applied > 0,
            live_undo,
            "{at:?}: {first:?}"
        );
    }
}

#[test]
fn crash_check_now_matches_crash_at_for_every_model() {
    // The explorer's non-destructive probe must agree exactly with the
    // destructive one-shot oracle at the same instant, for every model
    // and several crash cycles.
    for model in [
        ModelKind::Baseline,
        ModelKind::Hops,
        ModelKind::Asap,
        ModelKind::Eadr,
        ModelKind::Bbb,
    ] {
        for cycle in [0u64, 80, 150, 400, 100_000] {
            let build = || {
                SimBuilder::new(SimConfig::paper(), model, Flavor::Release)
                    .program(Box::new(TwoEpochs { done: false }))
                    .program(Box::new(TwoEpochs { done: false }))
                    .with_journal()
                    .build()
            };
            let mut crashed = build();
            let destructive = crashed.crash_at(Cycle(cycle)).expect("journal enabled");
            let mut probe = build();
            probe.run_for(Cycle(cycle));
            let (preview, image) = probe.crash_check_now().expect("journal enabled");
            assert_eq!(
                preview, destructive,
                "{model:?} at cycle {cycle}: preview and crash_at disagree"
            );
            assert_eq!(
                image.content_digest(),
                crashed.nvm().content_digest(),
                "{model:?} at cycle {cycle}: crash_at installed another image"
            );
            // The probe is non-destructive: checking again and then
            // running further must still work and stay consistent.
            assert_eq!(probe.crash_check_now().expect("journal enabled").0, preview);
            probe.run_to_completion();
            assert!(probe
                .crash_check_now()
                .expect("journal enabled")
                .0
                .is_consistent());
        }
    }
}

#[test]
fn crash_mid_run_stays_consistent_for_every_model() {
    for model in [
        ModelKind::Baseline,
        ModelKind::Hops,
        ModelKind::Asap,
        ModelKind::Eadr,
        ModelKind::Bbb,
    ] {
        let mut s = SimBuilder::new(SimConfig::paper(), model, Flavor::Release)
            .program(Box::new(TwoEpochs { done: false }))
            .program(Box::new(TwoEpochs { done: false }))
            .with_journal()
            .build();
        let report = s.crash_at(Cycle(150)).expect("journal enabled");
        assert!(
            report.is_consistent(),
            "{model:?} violations: {:?}",
            report.violations
        );
    }
}
