//! Functional extraction of workload micro-op streams.
//!
//! The lint pass analyzes the ops a workload *generates*, not how the
//! timing simulator plays them out, so it drives [`ThreadProgram`]s
//! directly: round-robin over the threads, one burst per turn, against a
//! fresh functional [`PmSpace`] with a disabled journal. Round-robin
//! matters — synchronization (CAS winners, lock hand-offs) resolves
//! functionally at generation, so a spinning thread only makes progress
//! if the holder gets its turn between retries.
//!
//! Extraction is bounded by a burst budget; workloads that spin forever
//! in the generation domain (none of ours do) terminate with
//! `complete == false` rather than hanging the lint.

use asap_core::{BurstCtx, BurstStatus, MemOp, ThreadProgram};
use asap_pm_mem::{PmSpace, WriteJournal};
use asap_sim_core::ThreadId;

/// The generation-order micro-op streams of one workload instance.
#[derive(Debug)]
pub struct ExtractedStreams {
    /// One op stream per thread, in generation order.
    pub streams: Vec<Vec<MemOp>>,
    /// Bursts generated across all threads.
    pub bursts: u64,
    /// `false` if the burst budget ran out before every thread finished.
    pub complete: bool,
}

impl ExtractedStreams {
    /// Total micro-ops across all threads.
    pub fn total_ops(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }
}

/// Run the programs to completion in the generation domain (no timing),
/// collecting each thread's micro-op stream. Stops early after
/// `burst_budget` total bursts.
pub fn extract_streams(
    programs: &mut [Box<dyn ThreadProgram>],
    burst_budget: u64,
) -> ExtractedStreams {
    let n = programs.len();
    let mut pm = PmSpace::new();
    let mut journal = WriteJournal::disabled();
    let mut streams = vec![Vec::new(); n];
    let mut finished = vec![false; n];
    let mut bursts = 0u64;

    while finished.iter().any(|f| !f) {
        for (t, program) in programs.iter_mut().enumerate() {
            if finished[t] {
                continue;
            }
            if bursts >= burst_budget {
                return ExtractedStreams {
                    streams,
                    bursts,
                    complete: false,
                };
            }
            bursts += 1;
            let mut ctx = BurstCtx::new(&mut pm, &mut journal);
            let status = program.next_burst(ThreadId(t), &mut ctx);
            let (ops, _, _) = ctx.into_parts();
            streams[t].extend(ops);
            if status == BurstStatus::Finished {
                finished[t] = true;
            }
        }
    }
    ExtractedStreams {
        streams,
        bursts,
        complete: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Emits `bursts` bursts of one store each, then finishes.
    struct Counted {
        left: u32,
    }

    impl ThreadProgram for Counted {
        fn next_burst(&mut self, tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
            if self.left == 0 {
                return BurstStatus::Finished;
            }
            self.left -= 1;
            ctx.store_u64(0x1000 + tid.0 as u64 * 64, u64::from(self.left));
            ctx.ofence();
            BurstStatus::Running
        }
    }

    #[test]
    fn collects_per_thread_streams_in_generation_order() {
        let mut programs: Vec<Box<dyn ThreadProgram>> =
            vec![Box::new(Counted { left: 3 }), Box::new(Counted { left: 1 })];
        let out = extract_streams(&mut programs, 1_000);
        assert!(out.complete);
        assert_eq!(out.streams.len(), 2);
        assert_eq!(out.streams[0].len(), 6); // 3 × (store + ofence)
        assert_eq!(out.streams[1].len(), 2);
        assert!(matches!(out.streams[0][0], MemOp::Store { .. }));
        assert_eq!(out.total_ops(), 8);
    }

    #[test]
    fn burst_budget_bounds_runaway_programs() {
        struct Forever;
        impl ThreadProgram for Forever {
            fn next_burst(&mut self, _: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
                ctx.compute(1);
                BurstStatus::Running
            }
        }
        let mut programs: Vec<Box<dyn ThreadProgram>> = vec![Box::new(Forever)];
        let out = extract_streams(&mut programs, 50);
        assert!(!out.complete);
        assert_eq!(out.bursts, 50);
    }
}
