//! Capture-and-replay microbenchmark of `cache-sim`.
//!
//! Event-queue and memory-controller host time cannot be split out of a
//! `run_once` call from outside, but the coherence hub can be driven on
//! its own: capture the per-thread micro-op streams of three `fig08_full`
//! programs with `extract_streams`, then replay their loads and stores
//! round-robin through `CoherenceHub::access` with empty caches. The hit
//! and miss counts are a pure function of the streams and repeat exactly.

use crate::spans;
use asap_analysis::extract_streams;
use asap_cache_sim::{CacheStats, CoherenceHub};
use asap_core::MemOp;
use asap_sim_core::{LineAddr, SimConfig, ThreadId};
use asap_workloads::{make_workload, WorkloadKind, WorkloadParams};
use std::hint::black_box;

/// The programs replayed: a lock-serialized queue, a hash table and a
/// tree, so the hub sees hand-offs, scattered lines and shared paths.
pub(crate) const PROGRAMS: [WorkloadKind; 3] = [
    WorkloadKind::Queue,
    WorkloadKind::Cceh,
    WorkloadKind::PMasstree,
];

/// Timed passes over the captured streams; the median is reported.
const PASSES: usize = 9;

/// One coherent access: thread, line, write.
type Access = (ThreadId, LineAddr, bool);

/// What the replay measured.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Replay {
    /// Median host nanoseconds per `CoherenceHub::access` call.
    pub ns_per_access: f64,
    /// Accesses per pass.
    pub accesses: u64,
    /// Hub statistics of one pass, summed over the programs.
    pub stats: CacheStats,
}

/// Interleave per-thread streams one load/store at a time, thread by
/// thread, skipping everything that is not a load or a store.
fn round_robin(streams: &[Vec<MemOp>]) -> Vec<Access> {
    let per: Vec<Vec<(LineAddr, bool)>> = streams
        .iter()
        .map(|s| {
            s.iter()
                .filter_map(|op| match op {
                    MemOp::Load { addr } => Some((LineAddr::containing(*addr), false)),
                    MemOp::Store { addr, .. } => Some((LineAddr::containing(*addr), true)),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let longest = per.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(per.iter().map(Vec::len).sum());
    for i in 0..longest {
        for (t, s) in per.iter().enumerate() {
            if let Some(&(line, write)) = s.get(i) {
                out.push((ThreadId(t), line, write));
            }
        }
    }
    out
}

fn add(total: &mut CacheStats, s: CacheStats) {
    total.l1_hits += s.l1_hits;
    total.l2_hits += s.l2_hits;
    total.llc_hits += s.llc_hits;
    total.misses += s.misses;
    total.c2c_transfers += s.c2c_transfers;
    total.invalidations += s.invalidations;
    total.dirty_evictions += s.dirty_evictions;
}

/// Capture [`PROGRAMS`] as `fig08_full` builds them (4 threads,
/// `ops_per_thread` ops, `seed`), then replay them [`PASSES`] times.
///
/// # Panics
///
/// Panics if a pass's statistics differ from the first pass's: the hub is
/// deterministic, so that would be a bug in it.
pub(crate) fn run(ops_per_thread: u64, seed: u64) -> Replay {
    let cfg = SimConfig::paper();
    let params = WorkloadParams {
        threads: cfg.num_cores,
        ops_per_thread,
        seed,
        ..WorkloadParams::default()
    };
    let (captured, _) = spans::span("cache_sim.capture", None, || {
        PROGRAMS
            .iter()
            .map(|&w| {
                let mut programs = make_workload(w, &params);
                let ex = extract_streams(&mut programs, u64::MAX);
                assert!(ex.complete, "{w} did not finish generating");
                round_robin(&ex.streams)
            })
            .collect::<Vec<_>>()
    });
    let accesses: usize = captured.iter().map(Vec::len).sum();

    let mut times = Vec::with_capacity(PASSES);
    let mut first: Option<CacheStats> = None;
    for _ in 0..PASSES {
        // Fresh, empty hubs every pass; building their tag arrays is not
        // part of an access, so it stays outside the timed region.
        let mut hubs: Vec<CoherenceHub> =
            captured.iter().map(|_| CoherenceHub::new(&cfg)).collect();
        let ((), d) = spans::span("cache_sim.replay", None, || {
            for (hub, stream) in hubs.iter_mut().zip(&captured) {
                for &(t, line, write) in stream {
                    black_box(hub.access(t, line, write));
                }
            }
        });
        times.push(d.as_nanos() as f64);
        let mut total = CacheStats::default();
        for hub in &hubs {
            add(&mut total, hub.stats());
        }
        match first {
            None => first = Some(total),
            Some(f) => assert_eq!(f, total, "cache-sim replay must repeat exactly"),
        }
    }
    Replay {
        ns_per_access: crate::stats::median(&times) / accesses.max(1) as f64,
        accesses: accesses as u64,
        stats: first.expect("at least one pass"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_alternates_threads_and_keeps_only_loads_and_stores() {
        let load = |addr| MemOp::Load { addr };
        let streams = vec![
            vec![load(0), MemOp::OFence, load(64), load(128)],
            vec![load(4096)],
        ];
        let got: Vec<(usize, u64)> = round_robin(&streams)
            .into_iter()
            .map(|(t, l, _)| (t.0, l.byte_addr()))
            .collect();
        assert_eq!(got, vec![(0, 0), (1, 4096), (0, 64), (0, 128)]);
    }

    #[test]
    fn replay_counts_repeat_exactly() {
        let a = run(20, 3);
        let b = run(20, 3);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.accesses, b.accesses);
        assert!(a.stats.l1_hits > 0 && a.stats.misses > 0);
        assert!(a.ns_per_access > 0.0);
    }
}
