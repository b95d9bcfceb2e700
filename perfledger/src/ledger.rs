//! The per-layer ledger a traced run fills: the metric names, a counting
//! [`Tracer`] attached to every rebuilt leg, and the tally of simulated
//! statistics across legs.
//!
//! Every traced run emits every name in [`LAYER_METRICS`]; a layer that
//! the workload does not exercise reads 0 (for example `explore.*` on
//! `fig08_full`), which is the "flat" prediction `plan.json` records.

use asap_sim_core::{Cycle, Stats, TraceRecord, Tracer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Every per-layer metric a traced run emits, by layer.
pub const LAYER_METRICS: [&str; 83] = [
    // workload generation and the request/program banks
    "workloads.gen_ms",
    "workloads.sets_generated",
    "workloads.bank_hits",
    "workloads.requests_generated",
    // engine host time
    "engine.sim_ms",
    "engine.ns_per_sim_cycle",
    "engine.ns_per_op",
    // simulated cycles and core stalls
    "sim_cycles",
    "core.ops",
    "core.loads",
    "core.stores",
    "core.stall_cycles",
    "core.dfence_stall_cycles",
    "core.ofence_stall_cycles",
    "stall.pb_full_cycles",
    "stall.et_full_cycles",
    "stall.dfence_cycles",
    "stall.sync_fence_cycles",
    // persist buffer, epoch table, dependencies
    "pb.flushes",
    "pb.early_flushes",
    "pb.acks",
    "pb.nacks",
    "pb.coalesced",
    "pb.blocked_cycles",
    "pb.occupancy_p99",
    "et.epochs_created",
    "et.epochs_committed",
    "et.commit_msgs",
    "et.occupancy_p99",
    "deps.cross_thread",
    "deps.cdr_msgs",
    // memory controller
    "memctrl.wpq_busy",
    "memctrl.wpq_coalesced",
    "memctrl.wpq_occupancy_p99",
    "memctrl.rt_undo",
    "memctrl.rt_delay",
    "memctrl.rt_nacks",
    "memctrl.rt_max_occupancy",
    "memctrl.suppressed_writes",
    "memctrl.media_writes",
    "memctrl.nvm_reads",
    "memctrl.xpbuffer_hits",
    "memctrl.media_utilization",
    // persistent-memory snapshots and the host allocator
    "pm_mem.snapshot_fresh",
    "pm_mem.snapshot_recycled",
    "alloc.setup",
    "alloc.simulate",
    "alloc.bytes",
    // cache-sim capture-and-replay
    "cache_sim.ns_per_access",
    "cache_sim.accesses",
    "cache_sim.l1_hits",
    "cache_sim.l2_hits",
    "cache_sim.llc_hits",
    "cache_sim.misses",
    "cache_sim.c2c_transfers",
    "cache_sim.invalidations",
    // crash-space explorer and oracle
    "explore.pass1_ms",
    "explore.verify_ms",
    "explore.raw_points",
    "explore.distinct_states",
    "explore.checked",
    "explore.prune_pct",
    "explore.chunks",
    "oracle.us_per_check",
    "explore.violations",
    // outcome cache
    "cache.encode_us_per_leg",
    "cache.store_us_per_leg",
    "cache.load_us_per_leg",
    "cache.decode_us_per_leg",
    "cache.bytes_per_leg",
    "cache.hits",
    "cache.misses",
    "cache.corrupt",
    // sweep executor, in-process pool, multi-process protocol
    "exec.cold_pass_ms",
    "exec.warm_pass_ms",
    "pool.busy_pct",
    "pool.cold_pass_ms",
    "proto.cold_pass_ms",
    // table/report assembly
    "report.assemble_ms",
    // simulated vs paper
    "fidelity.asap_ep_speedup",
    "fidelity.asap_rp_speedup",
    "fidelity.asap_rp_over_hops_rp_pct",
    // tracing itself
    "trace.overhead_pct",
];

/// One traced run's layer values, every [`LAYER_METRICS`] name present.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Ledger(BTreeMap<&'static str, f64>);

impl Default for Ledger {
    fn default() -> Ledger {
        Ledger(LAYER_METRICS.iter().map(|&n| (n, 0.0)).collect())
    }
}

impl Ledger {
    /// Set `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`LAYER_METRICS`] (a typo in this
    /// crate) or `v` is not finite.
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(v.is_finite(), "{name} = {v}");
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}")) = v;
    }

    /// `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(&k, &v)| (k, v))
    }
}

/// `a / b`, or 0 when nothing was measured.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Record counts from the engine's trace stream: one per record kind,
/// plus stall-span cycles summed by reason.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TraceCounts {
    /// `FlushIssue` records.
    pub flushes: u64,
    /// `FlushIssue` records marked early (speculative).
    pub early_flushes: u64,
    /// `FlushAck` records.
    pub acks: u64,
    /// `FlushNack` records.
    pub nacks: u64,
    /// `WpqBusy` records.
    pub wpq_busy: u64,
    /// `RtUndo` records.
    pub rt_undo: u64,
    /// `RtDelay` records.
    pub rt_delay: u64,
    /// `RtNack` records.
    pub rt_nacks: u64,
    /// Stall cycles by reason: PbFull, EtFull, DFence, SyncFence.
    pub stall_cycles: [u64; 4],
}

const STALL_REASONS: [&str; 4] = ["PbFull", "EtFull", "DFence", "SyncFence"];

impl TraceCounts {
    fn merge(&mut self, o: &TraceCounts) {
        self.flushes += o.flushes;
        self.early_flushes += o.early_flushes;
        self.acks += o.acks;
        self.nacks += o.nacks;
        self.wpq_busy += o.wpq_busy;
        self.rt_undo += o.rt_undo;
        self.rt_delay += o.rt_delay;
        self.rt_nacks += o.rt_nacks;
        for (a, b) in self.stall_cycles.iter_mut().zip(o.stall_cycles) {
            *a += b;
        }
    }
}

/// A [`Tracer`] that only counts. It accumulates privately and merges
/// into the shared total when the simulator drops it, so the hot path
/// takes no lock.
pub(crate) struct CountingTracer {
    local: TraceCounts,
    open: Vec<Option<(usize, u64)>>,
    total: Arc<Mutex<TraceCounts>>,
}

impl CountingTracer {
    /// A tracer whose counts land in `total` when it drops.
    pub fn new(total: Arc<Mutex<TraceCounts>>) -> CountingTracer {
        CountingTracer {
            local: TraceCounts::default(),
            open: Vec::new(),
            total,
        }
    }
}

impl Tracer for CountingTracer {
    fn record(&mut self, at: Cycle, rec: TraceRecord) {
        let c = &mut self.local;
        match rec {
            TraceRecord::FlushIssue { early, .. } => {
                c.flushes += 1;
                c.early_flushes += u64::from(early);
            }
            TraceRecord::FlushAck { .. } => c.acks += 1,
            TraceRecord::FlushNack { .. } => c.nacks += 1,
            TraceRecord::WpqBusy { .. } => c.wpq_busy += 1,
            TraceRecord::RtUndo { .. } => c.rt_undo += 1,
            TraceRecord::RtDelay { .. } => c.rt_delay += 1,
            TraceRecord::RtNack { .. } => c.rt_nacks += 1,
            TraceRecord::StallBegin { tid, reason } => {
                let r = STALL_REASONS
                    .iter()
                    .position(|&s| s == reason)
                    .unwrap_or_else(|| panic!("unknown stall reason {reason}"));
                if self.open.len() <= tid {
                    self.open.resize(tid + 1, None);
                }
                self.open[tid] = Some((r, at.raw()));
            }
            TraceRecord::StallEnd { tid, .. } => {
                if let Some((r, began)) = self.open.get_mut(tid).and_then(Option::take) {
                    c.stall_cycles[r] += at.raw() - began;
                }
            }
            _ => {}
        }
    }
}

impl Drop for CountingTracer {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned total only loses this leg's
        // counts, and the traced-vs-untraced checks still run.
        if let Ok(mut t) = self.total.lock() {
            t.merge(&self.local);
        }
    }
}

/// One finished leg's simulated statistics.
#[derive(Debug)]
struct LegTally {
    stats: Stats,
    rt_max: u64,
    media_writes: u64,
    media_util: f64,
    snapshots: (u64, u64),
}

/// Simulated statistics of a traced run's legs, which may finish on any
/// pool thread in any order; [`SimTally::fill`] folds them in leg order.
#[derive(Debug, Default)]
pub(crate) struct SimTally {
    trace: Arc<Mutex<TraceCounts>>,
    legs: Mutex<Vec<(usize, LegTally)>>,
}

impl SimTally {
    /// A counting tracer feeding this tally.
    pub fn tracer(&self) -> Box<dyn Tracer> {
        Box::new(CountingTracer::new(Arc::clone(&self.trace)))
    }

    /// Add finished leg number `leg`.
    pub fn add_leg(&self, leg: usize, sim: &asap_core::Sim) {
        let t = LegTally {
            stats: sim.stats().clone(),
            rt_max: sim.rt_max_occupancy() as u64,
            media_writes: sim.media_writes(),
            media_util: sim.media_utilization(),
            snapshots: sim.snapshot_pool_counters(),
        };
        self.legs.lock().expect("leg tally poisoned").push((leg, t));
    }

    /// Write the simulated-layer metrics into `ledger`.
    pub fn fill(&self, ledger: &mut Ledger) {
        let mut legs = self.legs.lock().expect("leg tally poisoned");
        legs.sort_by_key(|(i, _)| *i);
        let mut s = Stats::new();
        let (mut rt_max, mut media_writes, mut util, mut fresh, mut recycled) = (0, 0, 0.0, 0, 0);
        for (_, l) in legs.iter() {
            s.merge(&l.stats);
            rt_max = rt_max.max(l.rt_max);
            media_writes += l.media_writes;
            util += l.media_util;
            fresh += l.snapshots.0;
            recycled += l.snapshots.1;
        }
        let t = self.trace.lock().expect("trace counts poisoned").clone();
        for (name, v) in [
            ("core.ops", s.ops_completed),
            ("core.loads", s.loads),
            ("core.stores", s.stores),
            ("core.stall_cycles", s.cycles_stalled),
            ("core.dfence_stall_cycles", s.dfence_stalled),
            ("core.ofence_stall_cycles", s.ofence_stalled),
            ("stall.pb_full_cycles", t.stall_cycles[0]),
            ("stall.et_full_cycles", t.stall_cycles[1]),
            ("stall.dfence_cycles", t.stall_cycles[2]),
            ("stall.sync_fence_cycles", t.stall_cycles[3]),
            ("pb.flushes", t.flushes),
            ("pb.early_flushes", t.early_flushes),
            ("pb.acks", t.acks),
            ("pb.nacks", t.nacks),
            ("pb.coalesced", s.pb_coalesced),
            ("pb.blocked_cycles", s.cycles_blocked),
            ("pb.occupancy_p99", s.pb_occupancy.percentile(99.0) as u64),
            ("et.epochs_created", s.epochs_created),
            ("et.epochs_committed", s.epochs_committed),
            ("et.commit_msgs", s.commit_msgs),
            ("et.occupancy_p99", s.et_occupancy.percentile(99.0) as u64),
            ("deps.cross_thread", s.inter_t_epoch_conflict),
            ("deps.cdr_msgs", s.cdr_msgs),
            ("memctrl.wpq_busy", t.wpq_busy),
            ("memctrl.wpq_coalesced", s.wpq_coalesced),
            (
                "memctrl.wpq_occupancy_p99",
                s.wpq_occupancy.percentile(99.0) as u64,
            ),
            ("memctrl.rt_undo", t.rt_undo),
            ("memctrl.rt_delay", t.rt_delay),
            ("memctrl.rt_nacks", t.rt_nacks),
            ("memctrl.rt_max_occupancy", rt_max),
            ("memctrl.suppressed_writes", s.mc_suppressed_writes),
            ("memctrl.media_writes", media_writes),
            ("memctrl.nvm_reads", s.nvm_reads),
            ("memctrl.xpbuffer_hits", s.xpbuffer_hits),
            ("pm_mem.snapshot_fresh", fresh),
            ("pm_mem.snapshot_recycled", recycled),
        ] {
            ledger.set(name, v as f64);
        }
        ledger.set("memctrl.media_utilization", ratio(util, legs.len() as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_tracer_sums_stall_spans_by_reason() {
        let total = Arc::new(Mutex::new(TraceCounts::default()));
        let mut t = CountingTracer::new(Arc::clone(&total));
        let stall = |tid, reason, begin| {
            if begin {
                TraceRecord::StallBegin { tid, reason }
            } else {
                TraceRecord::StallEnd { tid, reason }
            }
        };
        t.record(Cycle(10), stall(1, "DFence", true));
        t.record(Cycle(12), stall(0, "PbFull", true));
        t.record(Cycle(15), stall(1, "DFence", false));
        t.record(Cycle(30), stall(0, "PbFull", false));
        t.record(
            Cycle(31),
            TraceRecord::FlushIssue {
                tid: 0,
                entry: 1,
                line: 64,
                mc: 0,
                early: true,
            },
        );
        drop(t);
        let c = total.lock().unwrap().clone();
        assert_eq!(c.stall_cycles, [18, 0, 5, 0]);
        assert_eq!((c.flushes, c.early_flushes), (1, 1));
    }

    #[test]
    fn ledger_starts_with_every_metric_at_zero() {
        let mut l = Ledger::default();
        assert_eq!(l.iter().count(), LAYER_METRICS.len());
        l.set("sim_cycles", 3.0);
        assert!(l.iter().any(|(n, v)| n == "sim_cycles" && v == 3.0));
        let unique: std::collections::BTreeSet<_> = LAYER_METRICS.iter().collect();
        assert_eq!(unique.len(), LAYER_METRICS.len());
    }
}
