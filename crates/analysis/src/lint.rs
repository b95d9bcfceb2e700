//! The lint framework: findings, epoch segmentation and the runner.
//!
//! A [`ThreadStream`] wraps one thread's generation-order micro-op stream
//! together with its segmentation into *epoch spans*. Segmentation
//! follows the simulator's epoch boundaries: `ofence` and `dfence` always
//! close an epoch; a `release` additionally closes one under release
//! persistency (the flavor is an argument of [`lint_streams`] so both
//! disciplines can be checked). The barrier op itself belongs to the
//! span it closes; ops after the last barrier form a trailing,
//! *unclosed* span.
//!
//! [`lint_streams`] runs the rule table [`crate::rules::RULES`] over one
//! thread at a time — all five rules are thread-local, which is what
//! makes static (no-timing) checking sound. Cross-thread ordering is the
//! persist-race detector's job (`asap_core::race`).

use asap_core::MemOp;
use asap_sim_core::{Flavor, LineAddr};
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious pattern; wasted work or fragile discipline.
    Warning,
    /// Crash-consistency correctness is at risk.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One machine-readable lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (kebab-case), e.g. `missing-persist`.
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Thread whose stream the finding is in.
    pub thread: usize,
    /// Index of the offending op within that thread's stream.
    pub op_index: usize,
    /// Per-thread index of the epoch span containing the op.
    pub epoch_ts: u64,
    /// The cache line involved, when the rule concerns one.
    pub line: Option<LineAddr>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] T{} op#{} epoch {}",
            self.severity, self.rule, self.thread, self.op_index, self.epoch_ts
        )?;
        if let Some(line) = self.line {
            write!(f, " L{:#x}", line.byte_addr())?;
        }
        write!(f, ": {}", self.message)
    }
}

/// One epoch span within a thread's stream: ops `start..end`, where
/// `closer` (if any) is the index of the barrier op that ends the epoch
/// (`end == closer + 1`). A span with `closer == None` is the trailing
/// run of ops after the last barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSpan {
    /// Per-thread epoch index (0-based).
    pub ts: u64,
    /// First op index of the span.
    pub start: usize,
    /// One past the last op index of the span.
    pub end: usize,
    /// Index of the closing barrier op, if the span is closed.
    pub closer: Option<usize>,
}

/// One thread's stream plus its epoch segmentation; the unit rules
/// operate on.
#[derive(Debug)]
pub struct ThreadStream<'a> {
    /// Thread index.
    pub thread: usize,
    /// The full generation-order stream.
    pub ops: &'a [MemOp],
    /// Epoch spans covering `ops` (a trailing unclosed span is included
    /// only when non-empty).
    pub epochs: Vec<EpochSpan>,
}

/// Whether `op` closes an epoch under `flavor`.
pub fn is_epoch_barrier(op: &MemOp, flavor: Flavor) -> bool {
    match op {
        MemOp::OFence | MemOp::DFence => true,
        MemOp::Release { .. } => flavor == Flavor::Release,
        _ => false,
    }
}

impl<'a> ThreadStream<'a> {
    /// Segment `ops` into epoch spans under `flavor`.
    pub fn new(thread: usize, flavor: Flavor, ops: &'a [MemOp]) -> ThreadStream<'a> {
        let mut epochs = Vec::new();
        let mut start = 0usize;
        let mut ts = 0u64;
        for (i, op) in ops.iter().enumerate() {
            if is_epoch_barrier(op, flavor) {
                epochs.push(EpochSpan {
                    ts,
                    start,
                    end: i + 1,
                    closer: Some(i),
                });
                start = i + 1;
                ts += 1;
            }
        }
        if start < ops.len() {
            epochs.push(EpochSpan {
                ts,
                start,
                end: ops.len(),
                closer: None,
            });
        }
        ThreadStream {
            thread,
            ops,
            epochs,
        }
    }

    /// Whether the stream contains at least one closed epoch (i.e. any
    /// persist barrier at all).
    pub fn has_barrier(&self) -> bool {
        self.epochs.iter().any(|e| e.closer.is_some())
    }

    /// The stores (persistent writes) within `span`, as
    /// `(op_index, line)` pairs.
    pub fn stores_in(&self, span: &EpochSpan) -> impl Iterator<Item = (usize, LineAddr)> + '_ {
        let ops = self.ops;
        (span.start..span.end).filter_map(move |i| {
            if ops[i].is_store() {
                ops[i].line().map(|l| (i, l))
            } else {
                None
            }
        })
    }

    /// Convenience constructor for a [`Finding`] anchored in this stream.
    pub fn finding(
        &self,
        rule: &'static str,
        severity: Severity,
        op_index: usize,
        epoch_ts: u64,
        line: Option<LineAddr>,
        message: String,
    ) -> Finding {
        Finding {
            rule,
            severity,
            thread: self.thread,
            op_index,
            epoch_ts,
            line,
            message,
        }
    }
}

/// Run [`crate::rules::RULES`] over every thread's stream, segmented
/// under `flavor`; findings come back sorted by `(thread, op_index,
/// rule)` so reports are deterministic.
pub fn lint_streams(streams: &[Vec<MemOp>], flavor: Flavor) -> Vec<Finding> {
    let mut out = Vec::new();
    for (t, ops) in streams.iter().enumerate() {
        let stream = ThreadStream::new(t, flavor, ops);
        for (id, check) in crate::rules::RULES {
            check(id, &stream, &mut out);
        }
    }
    out.sort_by(|a, b| (a.thread, a.op_index, a.rule).cmp(&(b.thread, b.op_index, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_pm_mem::{PmSpace, WriteJournal};

    /// Build a stream through a real `BurstCtx` so stores carry journal
    /// payloads.
    pub(crate) fn stream(build: impl FnOnce(&mut asap_core::BurstCtx<'_>)) -> Vec<MemOp> {
        let mut pm = PmSpace::new();
        let mut j = WriteJournal::disabled();
        let mut ctx = asap_core::BurstCtx::new(&mut pm, &mut j);
        build(&mut ctx);
        ctx.into_parts().0
    }

    #[test]
    fn segmentation_splits_on_fences() {
        let ops = stream(|c| {
            c.store_u64(0x100, 1);
            c.ofence();
            c.store_u64(0x140, 2);
            c.dfence();
            c.store_u64(0x180, 3); // trailing, unclosed
        });
        let s = ThreadStream::new(0, Flavor::Epoch, &ops);
        assert_eq!(s.epochs.len(), 3);
        assert_eq!(
            s.epochs[0],
            EpochSpan {
                ts: 0,
                start: 0,
                end: 2,
                closer: Some(1)
            }
        );
        assert_eq!(
            s.epochs[1],
            EpochSpan {
                ts: 1,
                start: 2,
                end: 4,
                closer: Some(3)
            }
        );
        assert_eq!(
            s.epochs[2],
            EpochSpan {
                ts: 2,
                start: 4,
                end: 5,
                closer: None
            }
        );
        assert!(s.has_barrier());
    }

    #[test]
    fn release_closes_epochs_only_under_release_flavor() {
        let ops = stream(|c| {
            c.store_u64(0x100, 1);
            c.release_store(0x200, 1);
            c.store_u64(0x140, 2);
            c.ofence();
        });
        let rel = ThreadStream::new(0, Flavor::Release, &ops);
        assert_eq!(rel.epochs.len(), 2);
        assert_eq!(rel.epochs[0].closer, Some(1));
        let ep = ThreadStream::new(0, Flavor::Epoch, &ops);
        assert_eq!(ep.epochs.len(), 1);
        assert_eq!(ep.epochs[0].closer, Some(3));
    }

    #[test]
    fn no_trailing_span_when_stream_ends_on_barrier() {
        let ops = stream(|c| {
            c.store_u64(0x100, 1);
            c.ofence();
        });
        let s = ThreadStream::new(0, Flavor::Epoch, &ops);
        assert_eq!(s.epochs.len(), 1);
        assert_eq!(s.epochs[0].closer, Some(1));
    }

    #[test]
    fn stores_in_finds_stores_and_releases() {
        let ops = stream(|c| {
            c.store_u64(0x100, 1);
            c.load_u64(0x100);
            c.release_store(0x140, 2);
            c.ofence();
        });
        let s = ThreadStream::new(0, Flavor::Epoch, &ops);
        let stores: Vec<_> = s.stores_in(&s.epochs[0]).collect();
        assert_eq!(
            stores,
            vec![
                (0, LineAddr::containing(0x100)),
                (2, LineAddr::containing(0x140))
            ]
        );
    }

    #[test]
    fn finding_display_is_greppable() {
        let f = Finding {
            rule: "missing-persist",
            severity: Severity::Error,
            thread: 2,
            op_index: 17,
            epoch_ts: 4,
            line: Some(LineAddr::containing(0x1040)),
            message: "store never persisted".into(),
        };
        let s = f.to_string();
        assert_eq!(
            s,
            "error[missing-persist] T2 op#17 epoch 4 L0x1040: store never persisted"
        );
    }
}
