//! Deliberately-broken (and deliberately-clean) mini-workloads.
//!
//! Each fixture is a tiny [`ThreadProgram`] constructed so that exactly
//! one analysis rule fires on it — they are the positive controls for
//! the lint rules and the race detector, and the clean variants are the
//! negative controls. Workspace-level tests assert the exact
//! rule-to-fixture mapping.
//!
//! The lint fixtures are single-threaded and analyzed statically
//! ([`crate::extract`]); the race fixtures are two-thread programs meant
//! to run under a real simulation with the journal enabled
//! (`SimBuilder::with_journal()` + `Sim::race_check()`).

use asap_core::{BurstCtx, BurstStatus, ThreadProgram};
use asap_sim_core::ThreadId;

/// Base address of the fixture data region (clear of workload arenas).
pub const FIXTURE_BASE: u64 = 0x8000;
/// The shared line the race fixtures contend on.
pub const SHARED_ADDR: u64 = FIXTURE_BASE + 0x400;
/// The lock word used by [`LockedWriters`].
pub const LOCK_ADDR: u64 = FIXTURE_BASE + 0x480;

fn per_thread(tid: ThreadId, slot: u64) -> u64 {
    FIXTURE_BASE + tid.0 as u64 * 0x100 + slot * 64
}

/// Fires `missing-persist`: a fenced store followed by one that is
/// never fenced.
#[derive(Debug, Default)]
pub struct MissingPersistFixture {
    done: bool,
}

impl ThreadProgram for MissingPersistFixture {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        if !self.done {
            self.done = true;
            ctx.store_u64(per_thread(tid, 0), 1);
            ctx.ofence();
            ctx.store_u64(per_thread(tid, 1), 2); // never fenced
        }
        BurstStatus::Finished
    }
    fn name(&self) -> &str {
        "fixture-missing-persist"
    }
}

/// Fires `redundant-flush`: the same line flushed twice with no
/// intervening store.
#[derive(Debug, Default)]
pub struct DoubleFlushFixture {
    done: bool,
}

impl ThreadProgram for DoubleFlushFixture {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        if !self.done {
            self.done = true;
            let a = per_thread(tid, 0);
            ctx.store_u64(a, 1);
            ctx.flush(a);
            ctx.flush(a); // redundant
            ctx.ofence();
        }
        BurstStatus::Finished
    }
    fn name(&self) -> &str {
        "fixture-double-flush"
    }
}

/// Fires `useless-fence`: an `ofence` closing an epoch with nothing in
/// it.
#[derive(Debug, Default)]
pub struct UselessFenceFixture {
    done: bool,
}

impl ThreadProgram for UselessFenceFixture {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        if !self.done {
            self.done = true;
            ctx.store_u64(per_thread(tid, 0), 1);
            ctx.ofence();
            ctx.ofence(); // empty epoch
        }
        BurstStatus::Finished
    }
    fn name(&self) -> &str {
        "fixture-useless-fence"
    }
}

/// Fires `store-after-flush`: a line re-dirtied after its flush and not
/// re-flushed before the fence.
#[derive(Debug, Default)]
pub struct StoreAfterFlushFixture {
    done: bool,
}

impl ThreadProgram for StoreAfterFlushFixture {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        if !self.done {
            self.done = true;
            let a = per_thread(tid, 0);
            ctx.store_u64(a, 1);
            ctx.flush(a);
            ctx.store_u64(a, 2); // re-dirtied after flush
            ctx.ofence();
        }
        BurstStatus::Finished
    }
    fn name(&self) -> &str {
        "fixture-store-after-flush"
    }
}

/// Fires `malformed-epoch`: stores with no persist barrier anywhere.
#[derive(Debug, Default)]
pub struct UnboundedEpochFixture {
    done: bool,
}

impl ThreadProgram for UnboundedEpochFixture {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        if !self.done {
            self.done = true;
            ctx.store_u64(per_thread(tid, 0), 1);
            ctx.store_u64(per_thread(tid, 1), 2);
        }
        BurstStatus::Finished
    }
    fn name(&self) -> &str {
        "fixture-unbounded-epoch"
    }
}

/// Fires nothing: textbook `store; clwb; ofence` discipline with a
/// final `dfence`.
#[derive(Debug, Default)]
pub struct CleanFixture {
    done: bool,
}

impl ThreadProgram for CleanFixture {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        if !self.done {
            self.done = true;
            let a = per_thread(tid, 0);
            ctx.store_u64(a, 1);
            ctx.flush(a);
            ctx.ofence();
            ctx.store_u64(per_thread(tid, 1), 2);
            ctx.dfence();
        }
        BurstStatus::Finished
    }
    fn name(&self) -> &str {
        "fixture-clean"
    }
}

/// Race-positive fixture: every thread persists to [`SHARED_ADDR`] with
/// no synchronization whatsoever, then fences. Run two of these under
/// release persistency with the journal on and `Sim::race_check()`
/// reports one race on the shared line.
#[derive(Debug, Default)]
pub struct UnsyncedWriters {
    done: bool,
}

impl ThreadProgram for UnsyncedWriters {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        if !self.done {
            self.done = true;
            ctx.store_u64(SHARED_ADDR, tid.0 as u64 + 1);
            ctx.ofence();
        }
        BurstStatus::Finished
    }
    fn name(&self) -> &str {
        "fixture-unsynced-writers"
    }
}

/// Race-negative fixture: the same contended store, but guarded by a
/// spin lock ([`LOCK_ADDR`]). The release/acquire pair on the lock word
/// orders the epochs (or the source epoch is already durable when the
/// next writer runs), so `Sim::race_check()` stays clean.
#[derive(Debug, Default)]
pub struct LockedWriters {
    done: bool,
}

impl ThreadProgram for LockedWriters {
    fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        if self.done {
            return BurstStatus::Finished;
        }
        if ctx.acquire_cas(LOCK_ADDR, 0, 1) {
            self.done = true;
            ctx.store_u64(SHARED_ADDR, tid.0 as u64 + 1);
            ctx.release_store(LOCK_ADDR, 0);
            BurstStatus::Finished
        } else {
            ctx.compute(25); // backoff, retry next burst
            BurstStatus::Running
        }
    }
    fn name(&self) -> &str {
        "fixture-locked-writers"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_streams;
    use crate::lint::lint_streams;
    use asap_sim_core::Flavor;

    fn lint_fixture(p: Box<dyn ThreadProgram>) -> Vec<&'static str> {
        let mut programs = vec![p];
        let out = extract_streams(&mut programs, 1_000);
        assert!(out.complete);
        lint_streams(&out.streams, Flavor::Release)
            .iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn each_lint_fixture_fires_exactly_its_rule() {
        let cases: Vec<(Box<dyn ThreadProgram>, &str)> = vec![
            (Box::<MissingPersistFixture>::default(), "missing-persist"),
            (Box::<DoubleFlushFixture>::default(), "redundant-flush"),
            (Box::<UselessFenceFixture>::default(), "useless-fence"),
            (
                Box::<StoreAfterFlushFixture>::default(),
                "store-after-flush",
            ),
            (Box::<UnboundedEpochFixture>::default(), "malformed-epoch"),
        ];
        for (program, rule) in cases {
            let name = program.name().to_string();
            let fired = lint_fixture(program);
            assert_eq!(fired, vec![rule], "{name}");
        }
    }

    #[test]
    fn clean_fixture_is_silent() {
        assert!(lint_fixture(Box::<CleanFixture>::default()).is_empty());
    }
}
