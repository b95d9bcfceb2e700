//! The lint rules: [`RULES`], an `(id, check)` table in fixed
//! reporting order.
//!
//! All five rules are *thread-local*: they judge one thread's stream
//! against the epoch discipline, never cross-thread interleavings (the
//! persist-race detector covers those). Rule identifiers are stable —
//! waivers and CI reference them by string.
//!
//! | id | severity | flags |
//! |---|---|---|
//! | `missing-persist`    | error   | stores after the last barrier (never ordered before program end) |
//! | `malformed-epoch`    | error   | a stream that stores but contains no persist barrier at all |
//! | `store-after-flush`  | warning | a line dirtied again after its flush, with no re-flush before the epoch closes |
//! | `redundant-flush`    | warning | a flush of a line with no pending store in the epoch |
//! | `useless-fence`      | warning | an `ofence` closing an empty epoch, or a `dfence` with nothing to drain |

use crate::lint::{Finding, Severity, ThreadStream};
use asap_core::MemOp;
use asap_sim_core::LineAddr;
use std::collections::HashMap;

/// A rule's check: judge one thread's stream, appending findings tagged
/// with the rule's `id` to `out`.
pub type Check = fn(id: &'static str, s: &ThreadStream<'_>, out: &mut Vec<Finding>);

/// Every rule as `(id, check)`, in fixed reporting order.
pub const RULES: [(&str, Check); 5] = [
    ("missing-persist", missing_persist),
    ("malformed-epoch", malformed_epoch),
    ("store-after-flush", store_after_flush),
    ("redundant-flush", redundant_flush),
    ("useless-fence", useless_fence),
];

/// Stores in the trailing unclosed epoch: nothing in the program orders
/// them before the end of execution, so their durability rests entirely
/// on the simulator's implicit retire drain — on real hardware, on luck.
///
/// Streams with *no* barrier at all are skipped; `malformed_epoch` owns
/// that case (flagging every store there would drown its one finding).
fn missing_persist(id: &'static str, s: &ThreadStream<'_>, out: &mut Vec<Finding>) {
    if !s.has_barrier() {
        return;
    }
    let Some(tail) = s.epochs.last().filter(|e| e.closer.is_none()) else {
        return;
    };
    for (i, line) in s.stores_in(tail) {
        out.push(s.finding(
            id,
            Severity::Error,
            i,
            tail.ts,
            Some(line),
            format!(
                "store to {:#x} is never followed by a persist barrier; \
                 its durability depends on the implicit drain at thread retire",
                line.byte_addr()
            ),
        ));
    }
}

/// A stream that writes persistent memory but never issues a persist
/// barrier: the whole run is one unbounded epoch and *no* write has any
/// durability ordering. One finding per thread, anchored at the first
/// store.
fn malformed_epoch(id: &'static str, s: &ThreadStream<'_>, out: &mut Vec<Finding>) {
    if s.has_barrier() {
        return;
    }
    let Some((i, line)) = s.epochs.first().and_then(|span| s.stores_in(span).next()) else {
        return;
    };
    let stores: usize = s.epochs.iter().map(|e| s.stores_in(e).count()).sum();
    out.push(s.finding(
        id,
        Severity::Error,
        i,
        0,
        Some(line),
        format!(
            "{stores} store(s) but no ofence/dfence/release anywhere in the stream; \
             the whole program is one unbounded epoch"
        ),
    ));
}

/// A store that re-dirties a line *after* the line was flushed in the
/// same epoch, with no re-flush before the epoch closes: under the
/// `clwb` + `sfence` idiom the fence then orders the stale flushed
/// image, not the final value. One finding per (line, epoch), anchored
/// at the first offending store.
fn store_after_flush(id: &'static str, s: &ThreadStream<'_>, out: &mut Vec<Finding>) {
    for span in &s.epochs {
        // line -> first un-reflushed store index after a flush
        let mut flushed: HashMap<LineAddr, ()> = HashMap::new();
        let mut hazard: HashMap<LineAddr, usize> = HashMap::new();
        for i in span.start..span.end {
            match &s.ops[i] {
                MemOp::Flush { addr } => {
                    let line = LineAddr::containing(*addr);
                    flushed.insert(line, ());
                    hazard.remove(&line); // re-flushed: hazard cleared
                }
                op if op.is_store() => {
                    let line = op.line().expect("stores have a line");
                    if flushed.contains_key(&line) {
                        hazard.entry(line).or_insert(i);
                    }
                }
                _ => {}
            }
        }
        let mut pending: Vec<_> = hazard.into_iter().collect();
        pending.sort_by_key(|&(_, i)| i);
        for (line, i) in pending {
            out.push(s.finding(
                id,
                Severity::Warning,
                i,
                span.ts,
                Some(line),
                format!(
                    "store re-dirties {:#x} after its flush and the line is not \
                     flushed again before the epoch closes",
                    line.byte_addr()
                ),
            ));
        }
    }
}

/// A flush of a line with no pending (unflushed) store in the current
/// epoch: either the line was already flushed and not re-dirtied, or it
/// was never stored this epoch. Pure overhead on the `clwb` path.
fn redundant_flush(id: &'static str, s: &ThreadStream<'_>, out: &mut Vec<Finding>) {
    for span in &s.epochs {
        // line -> true when flushed and not re-dirtied since
        let mut clean: HashMap<LineAddr, bool> = HashMap::new();
        for i in span.start..span.end {
            match &s.ops[i] {
                MemOp::Flush { addr } => {
                    let line = LineAddr::containing(*addr);
                    match clean.get(&line) {
                        Some(false) => {
                            // pending store: this flush does real work
                            clean.insert(line, true);
                        }
                        Some(true) => {
                            out.push(s.finding(
                                id,
                                Severity::Warning,
                                i,
                                span.ts,
                                Some(line),
                                format!(
                                    "line {:#x} already flushed in this epoch with \
                                     no intervening store",
                                    line.byte_addr()
                                ),
                            ));
                        }
                        None => {
                            out.push(s.finding(
                                id,
                                Severity::Warning,
                                i,
                                span.ts,
                                Some(line),
                                format!(
                                    "flush of {:#x}, which has no store in this epoch",
                                    line.byte_addr()
                                ),
                            ));
                            clean.insert(line, true);
                        }
                    }
                }
                op if op.is_store() => {
                    let line = op.line().expect("stores have a line");
                    clean.insert(line, false);
                }
                _ => {}
            }
        }
    }
}

/// Fences that order nothing: an `ofence` closing an epoch with neither
/// stores nor flushes, or a `dfence` when no store has happened since
/// the previous `dfence` (nothing new to drain).
fn useless_fence(id: &'static str, s: &ThreadStream<'_>, out: &mut Vec<Finding>) {
    let mut stores_since_dfence = false;
    for span in &s.epochs {
        let span_active = (span.start..span.end)
            .any(|i| s.ops[i].is_store() || matches!(s.ops[i], MemOp::Flush { .. }));
        let Some(closer) = span.closer else {
            continue;
        };
        match &s.ops[closer] {
            MemOp::OFence => {
                if !span_active {
                    out.push(s.finding(
                        id,
                        Severity::Warning,
                        closer,
                        span.ts,
                        None,
                        "ofence closes an epoch with no stores or flushes to order".to_string(),
                    ));
                }
                stores_since_dfence |= span_active;
            }
            MemOp::DFence => {
                if !stores_since_dfence && !span_active {
                    out.push(
                        s.finding(
                            id,
                            Severity::Warning,
                            closer,
                            span.ts,
                            None,
                            "dfence with no stores since the previous dfence; \
                             nothing to drain"
                                .to_string(),
                        ),
                    );
                }
                stores_since_dfence = false;
            }
            // A release closer is itself a store: always active.
            _ => stores_since_dfence = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint_streams;
    use asap_pm_mem::{PmSpace, WriteJournal};
    use asap_sim_core::Flavor;

    fn ops(build: impl FnOnce(&mut asap_core::BurstCtx<'_>)) -> Vec<MemOp> {
        let mut pm = PmSpace::new();
        let mut j = WriteJournal::disabled();
        let mut ctx = asap_core::BurstCtx::new(&mut pm, &mut j);
        build(&mut ctx);
        ctx.into_parts().0
    }

    fn lint_one(ops: Vec<MemOp>) -> Vec<Finding> {
        lint_streams(&[ops], Flavor::Epoch)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<_> = RULES.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len());
    }

    #[test]
    fn clean_discipline_is_silent() {
        let f = lint_one(ops(|c| {
            c.store_u64(0x100, 1);
            c.flush(0x100);
            c.ofence();
            c.store_u64(0x140, 2);
            c.dfence();
        }));
        assert!(f.is_empty(), "unexpected findings: {f:?}");
    }

    #[test]
    fn missing_persist_fires_on_trailing_store() {
        let f = lint_one(ops(|c| {
            c.store_u64(0x100, 1);
            c.ofence();
            c.store_u64(0x140, 2); // never fenced
        }));
        assert_eq!(rules_of(&f), vec!["missing-persist"]);
        assert_eq!(f[0].op_index, 2);
        assert_eq!(f[0].severity, Severity::Error);
        assert_eq!(f[0].line, Some(LineAddr::containing(0x140)));
    }

    #[test]
    fn malformed_epoch_owns_barrier_free_streams() {
        let f = lint_one(ops(|c| {
            c.store_u64(0x100, 1);
            c.store_u64(0x140, 2);
        }));
        // Exactly one finding: malformed-epoch, not two missing-persists.
        assert_eq!(rules_of(&f), vec!["malformed-epoch"]);
        assert_eq!(f[0].op_index, 0);
        assert!(f[0].message.contains("2 store(s)"));
    }

    #[test]
    fn store_only_load_stream_is_silent() {
        let f = lint_one(ops(|c| {
            c.load_u64(0x100);
            c.compute(5);
        }));
        assert!(f.is_empty());
    }

    #[test]
    fn store_after_flush_fires_without_reflush() {
        let f = lint_one(ops(|c| {
            c.store_u64(0x100, 1);
            c.flush(0x100);
            c.store_u64(0x100, 2); // re-dirtied, never re-flushed
            c.ofence();
        }));
        assert_eq!(rules_of(&f), vec!["store-after-flush"]);
        assert_eq!(f[0].op_index, 2);
    }

    #[test]
    fn store_after_flush_silent_when_reflushed() {
        let f = lint_one(ops(|c| {
            c.store_u64(0x100, 1);
            c.flush(0x100);
            c.store_u64(0x100, 2);
            c.flush(0x100); // hazard cleared
            c.ofence();
        }));
        assert!(f.is_empty(), "unexpected findings: {f:?}");
    }

    #[test]
    fn redundant_flush_fires_on_double_flush() {
        let f = lint_one(ops(|c| {
            c.store_u64(0x100, 1);
            c.flush(0x100);
            c.flush(0x100); // nothing new to flush
            c.ofence();
        }));
        assert_eq!(rules_of(&f), vec!["redundant-flush"]);
        assert_eq!(f[0].op_index, 2);
    }

    #[test]
    fn redundant_flush_fires_on_never_stored_line() {
        let f = lint_one(ops(|c| {
            c.store_u64(0x100, 1);
            c.flush(0x100);
            c.flush(0x1000); // line untouched this epoch
            c.ofence();
        }));
        assert_eq!(rules_of(&f), vec!["redundant-flush"]);
        assert!(f[0].message.contains("no store in this epoch"));
    }

    #[test]
    fn useless_fence_fires_on_empty_ofence() {
        let f = lint_one(ops(|c| {
            c.store_u64(0x100, 1);
            c.ofence();
            c.ofence(); // empty epoch
        }));
        assert_eq!(rules_of(&f), vec!["useless-fence"]);
        assert_eq!(f[0].op_index, 2);
    }

    #[test]
    fn useless_fence_fires_on_drained_dfence() {
        let f = lint_one(ops(|c| {
            c.store_u64(0x100, 1);
            c.dfence();
            c.dfence(); // nothing stored since the last drain
        }));
        assert_eq!(rules_of(&f), vec!["useless-fence"]);
        assert_eq!(f[0].op_index, 2);
    }

    #[test]
    fn publish_pattern_dfence_after_ofence_is_fine() {
        // store; ofence; dfence — the dfence drains the store: not useless.
        let f = lint_one(ops(|c| {
            c.store_u64(0x100, 1);
            c.ofence();
            c.dfence();
        }));
        assert!(f.is_empty(), "unexpected findings: {f:?}");
    }

    #[test]
    fn release_flavor_treats_release_as_closing_barrier() {
        let stream = ops(|c| {
            c.store_u64(0x100, 1);
            c.release_store(0x200, 1);
        });
        // Under release persistency the release closes the epoch: clean.
        let f = lint_streams(std::slice::from_ref(&stream), Flavor::Release);
        assert!(f.is_empty(), "unexpected findings: {f:?}");
        // Under epoch persistency there is no barrier at all.
        let f = lint_streams(&[stream], Flavor::Epoch);
        assert_eq!(rules_of(&f), vec!["malformed-epoch"]);
    }

    #[test]
    fn findings_are_sorted_and_carry_thread_ids() {
        let t0 = ops(|c| {
            c.store_u64(0x100, 1);
            c.ofence();
            c.store_u64(0x140, 2);
        });
        let t1 = ops(|c| {
            c.store_u64(0x200, 1);
            c.ofence();
            c.ofence();
        });
        let f = lint_streams(&[t0, t1], Flavor::Epoch);
        assert_eq!(rules_of(&f), vec!["missing-persist", "useless-fence"]);
        assert_eq!((f[0].thread, f[1].thread), (0, 1));
    }
}
