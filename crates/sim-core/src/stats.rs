//! Simulation statistics.
//!
//! The counters follow the *exact* stat names of Table VI in the paper's
//! artifact appendix so experiment output can be compared line-by-line
//! with the original gem5 stats:
//!
//! | stat | description |
//! |---|---|
//! | `cyclesBlocked` | cycles for which the PB is unable to flush |
//! | `cyclesStalled` | CPU stall cycles because of a full PB |
//! | `dfenceStalled` | CPU stall cycles because of `dfence` |
//! | `entriesInserted` | writes enqueued in the PBs |
//! | `interTEpochConflict` | cross-thread dependencies |
//! | `totSpecWrites` | early (speculative) flushes |
//! | `totalUndo` | undo records created |
//!
//! Beyond Table VI, [`Stats`] carries the memory-system counters needed by
//! Figures 9 and 13 (PM reads/writes, NACKs) and the time-weighted PB
//! occupancy histogram of Figure 11. Its RT, ET and WPQ histograms are
//! not time-weighted; see each field for what it samples.

use crate::time::Cycle;
use std::collections::BTreeMap;

/// A streaming histogram over small non-negative integer samples
/// (buffer occupancies), supporting mean and arbitrary percentiles.
///
/// Samples are bucketed exactly (one bucket per value) because occupancies
/// are bounded by buffer capacity (≤ 64 in every configuration we run).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: usize) {
        if self.counts.len() <= value {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += 1;
        self.total += 1;
    }

    /// Record `weight` occurrences of `value` (used for time-weighted
    /// occupancy sampling: weight = cycles spent at that occupancy).
    pub fn record_weighted(&mut self, value: usize, weight: u64) {
        if weight == 0 {
            return;
        }
        if self.counts.len() <= value {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += weight;
        self.total += weight;
    }

    /// Number of recorded samples (including weights).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of the samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u128 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u128 * c as u128)
            .sum();
        sum as f64 / self.total as f64
    }

    /// The `p`-th percentile (0.0..=100.0) of the samples, or 0 if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> usize {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return v;
            }
        }
        self.counts.len().saturating_sub(1)
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> usize {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (v, &c) in other.counts.iter().enumerate() {
            self.record_weighted(v, c);
        }
    }

    /// The non-empty `(value, count)` pairs in ascending value order — a
    /// sparse view for exact serialization. Because no operation ever
    /// leaves a trailing zero bucket (the counts vector only grows when
    /// a bucket is actually hit), [`Histogram::from_buckets`] over this
    /// view reconstructs a structurally identical histogram.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(v, &c)| (v, c))
            .collect()
    }

    /// Rebuild a histogram from sparse `(value, count)` pairs (zero
    /// counts are ignored, mirroring [`Histogram::record_weighted`]).
    pub fn from_buckets(buckets: &[(usize, u64)]) -> Histogram {
        let mut h = Histogram::new();
        for &(v, c) in buckets {
            h.record_weighted(v, c);
        }
        h
    }
}

/// All counters for one simulation run.
///
/// Field names are snake_case versions of the paper's camelCase stat
/// names; [`Stats::snapshot`] renders them under the original names.
/// `PartialEq` lets the parallel-sweep equivalence tests compare whole
/// run outcomes structurally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    // ---- Table VI stats ----
    /// Cycles for which persist buffers were unable to flush
    /// (non-empty but blocked by ordering). Summed over all cores.
    pub cycles_blocked: u64,
    /// CPU stall cycles because the persist buffer was full.
    pub cycles_stalled: u64,
    /// CPU stall cycles caused by `dfence` (waiting for durability).
    pub dfence_stalled: u64,
    /// Total writes enqueued into persist buffers.
    pub entries_inserted: u64,
    /// Number of cross-thread dependencies detected.
    pub inter_t_epoch_conflict: u64,
    /// Number of early (speculative) flushes sent to the MCs.
    pub tot_spec_writes: u64,
    /// Number of undo records created in recovery tables.
    pub total_undo: u64,

    // ---- additional counters needed by the evaluation ----
    /// CPU stall cycles caused by `ofence`/`sfence` (baseline only).
    pub ofence_stalled: u64,
    /// Writes actually issued to NVM media (Figure 9).
    pub nvm_writes: u64,
    /// Reads issued to NVM media, including undo-record reads (§VII-A:
    /// "number of PM reads increases by 5.3%").
    pub nvm_reads: u64,
    /// Undo-record reads that hit the XPBuffer model.
    pub xpbuffer_hits: u64,
    /// Number of delay records created (write collisions, Fig. 5).
    pub total_delay: u64,
    /// Number of flushes NACKed because the RT was full (§V-D).
    pub nacks: u64,
    /// Epoch commit messages sent to MCs.
    pub commit_msgs: u64,
    /// Cross-dependency-resolved messages between threads.
    pub cdr_msgs: u64,
    /// Writes coalesced into an existing PB entry (never reached NVM
    /// separately).
    pub pb_coalesced: u64,
    /// Writes coalesced inside the WPQ.
    pub wpq_coalesced: u64,
    /// Writes suppressed at the MC because a newer value was already in
    /// memory (safe flush absorbed into an undo record).
    pub mc_suppressed_writes: u64,
    /// Total epochs created (ofence/acquire/release/dependency splits).
    pub epochs_created: u64,
    /// Total committed epochs.
    pub epochs_committed: u64,
    /// Total simulated cycles of the run (set by the driver at the end).
    pub total_cycles: u64,
    /// Number of logical workload operations completed.
    pub ops_completed: u64,
    /// Number of loads executed.
    pub loads: u64,
    /// Number of stores executed.
    pub stores: u64,
    /// HOPS: accesses to the global timestamp register.
    pub global_ts_reads: u64,
    /// Explicit `clwb`-style flush hints executed (see `MemOp::Flush`
    /// in `asap-core`; pure hints, no ordering effect).
    pub flush_hints: u64,

    // ---- occupancy distributions ----
    /// Time-weighted persist-buffer occupancy (Figure 11).
    pub pb_occupancy: Histogram,
    /// Recovery-table occupancy, one sample per RT event (an undo or
    /// delay record created, an epoch commit) plus the largest per-MC
    /// maximum at the end of the run. Not time-weighted: Figure 12 reads
    /// the harness's `RunOutcome::rt_max_occupancy`, not this histogram.
    pub rt_occupancy: Histogram,
    /// Epoch-table occupancy: one end-of-run sample per core.
    pub et_occupancy: Histogram,
    /// WPQ occupancy. Never recorded by the engine, so it stays empty
    /// and its percentiles read 0 on every workload.
    pub wpq_occupancy: Histogram,
}

impl Stats {
    /// Create a zeroed stats block.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Merge the counters of another run into this one (used when
    /// aggregating per-core stat blocks).
    pub fn merge(&mut self, o: &Stats) {
        self.cycles_blocked += o.cycles_blocked;
        self.cycles_stalled += o.cycles_stalled;
        self.dfence_stalled += o.dfence_stalled;
        self.entries_inserted += o.entries_inserted;
        self.inter_t_epoch_conflict += o.inter_t_epoch_conflict;
        self.tot_spec_writes += o.tot_spec_writes;
        self.total_undo += o.total_undo;
        self.ofence_stalled += o.ofence_stalled;
        self.nvm_writes += o.nvm_writes;
        self.nvm_reads += o.nvm_reads;
        self.xpbuffer_hits += o.xpbuffer_hits;
        self.total_delay += o.total_delay;
        self.nacks += o.nacks;
        self.commit_msgs += o.commit_msgs;
        self.cdr_msgs += o.cdr_msgs;
        self.pb_coalesced += o.pb_coalesced;
        self.wpq_coalesced += o.wpq_coalesced;
        self.mc_suppressed_writes += o.mc_suppressed_writes;
        self.epochs_created += o.epochs_created;
        self.epochs_committed += o.epochs_committed;
        self.total_cycles = self.total_cycles.max(o.total_cycles);
        self.ops_completed += o.ops_completed;
        self.loads += o.loads;
        self.stores += o.stores;
        self.global_ts_reads += o.global_ts_reads;
        self.flush_hints += o.flush_hints;
        self.pb_occupancy.merge(&o.pb_occupancy);
        self.rt_occupancy.merge(&o.rt_occupancy);
        self.et_occupancy.merge(&o.et_occupancy);
        self.wpq_occupancy.merge(&o.wpq_occupancy);
    }

    /// Render the Table VI counters (plus the extended set) under the
    /// paper's original stat names, suitable for printing as a
    /// gem5-`stats.txt`-style listing.
    pub fn snapshot(&self) -> StatSnapshot {
        let mut m = BTreeMap::new();
        m.insert("cyclesBlocked".to_string(), self.cycles_blocked);
        m.insert("cyclesStalled".to_string(), self.cycles_stalled);
        m.insert("dfenceStalled".to_string(), self.dfence_stalled);
        m.insert("entriesInserted".to_string(), self.entries_inserted);
        m.insert(
            "interTEpochConflict".to_string(),
            self.inter_t_epoch_conflict,
        );
        m.insert("totSpecWrites".to_string(), self.tot_spec_writes);
        m.insert("totalUndo".to_string(), self.total_undo);
        m.insert("ofenceStalled".to_string(), self.ofence_stalled);
        m.insert("nvmWrites".to_string(), self.nvm_writes);
        m.insert("nvmReads".to_string(), self.nvm_reads);
        m.insert("xpbufferHits".to_string(), self.xpbuffer_hits);
        m.insert("totalDelay".to_string(), self.total_delay);
        m.insert("nacks".to_string(), self.nacks);
        m.insert("commitMsgs".to_string(), self.commit_msgs);
        m.insert("cdrMsgs".to_string(), self.cdr_msgs);
        m.insert("pbCoalesced".to_string(), self.pb_coalesced);
        m.insert("wpqCoalesced".to_string(), self.wpq_coalesced);
        m.insert("mcSuppressedWrites".to_string(), self.mc_suppressed_writes);
        m.insert("epochsCreated".to_string(), self.epochs_created);
        m.insert("epochsCommitted".to_string(), self.epochs_committed);
        m.insert("totalCycles".to_string(), self.total_cycles);
        m.insert("opsCompleted".to_string(), self.ops_completed);
        m.insert("loads".to_string(), self.loads);
        m.insert("stores".to_string(), self.stores);
        m.insert("globalTsReads".to_string(), self.global_ts_reads);
        m.insert("flushHints".to_string(), self.flush_hints);
        StatSnapshot { counters: m }
    }

    /// Convenience: record the end-of-run time.
    pub fn finish(&mut self, end: Cycle) {
        self.total_cycles = end.raw();
    }
}

/// An ordered name→value view of the counters, for report emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatSnapshot {
    counters: BTreeMap<String, u64>,
}

impl StatSnapshot {
    /// Look up a counter by its paper name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Render as a gem5-style `stats.txt` block.
    pub fn to_stats_txt(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.iter() {
            out.push_str(&format!("{k:<24} {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_percentile() {
        let mut h = Histogram::new();
        for v in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert!((h.mean() - 5.5).abs() < 1e-9);
        assert_eq!(h.percentile(50.0), 5);
        assert_eq!(h.percentile(99.0), 10);
        assert_eq!(h.percentile(100.0), 10);
        assert_eq!(h.max(), 10);
    }

    #[test]
    fn histogram_weighted() {
        let mut h = Histogram::new();
        h.record_weighted(0, 90);
        h.record_weighted(10, 10);
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 1.0).abs() < 1e-9);
        assert_eq!(h.percentile(89.0), 0);
        assert_eq!(h.percentile(99.0), 10);
        h.record_weighted(5, 0); // zero weight is a no-op
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn histogram_percentile_validates() {
        Histogram::new().percentile(101.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(1);
        let mut b = Histogram::new();
        b.record(3);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 3);
    }

    #[test]
    fn histogram_percentile_zero_is_smallest_recorded_value() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(5);
        h.record(9);
        // p=0 clamps to rank 1: the smallest recorded value, not bucket 0.
        assert_eq!(h.percentile(0.0), 3);
        let empty = Histogram::new();
        assert_eq!(empty.percentile(0.0), 0);
    }

    #[test]
    fn histogram_weighted_boundary_ranks() {
        // 90 samples at 0, 10 samples at 10: the 90th percentile's rank
        // lands exactly on the last 0-sample; the first rank past it
        // must move to the next bucket.
        let mut h = Histogram::new();
        h.record_weighted(0, 90);
        h.record_weighted(10, 10);
        assert_eq!(h.percentile(90.0), 0);
        assert_eq!(h.percentile(90.5), 10);
        assert_eq!(h.percentile(91.0), 10);
        assert_eq!(h.percentile(100.0), 10);
        // A single-sample histogram answers every percentile with it.
        let mut one = Histogram::new();
        one.record(7);
        assert_eq!(one.percentile(0.0), 7);
        assert_eq!(one.percentile(50.0), 7);
        assert_eq!(one.percentile(100.0), 7);
    }

    #[test]
    fn histogram_merge_is_commutative() {
        let mut a = Histogram::new();
        a.record_weighted(0, 40);
        a.record_weighted(2, 3);
        a.record(7);
        let mut b = Histogram::new();
        b.record_weighted(1, 12);
        b.record_weighted(9, 2);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);

        assert_eq!(ab.count(), ba.count());
        assert_eq!(ab.max(), ba.max());
        assert!((ab.mean() - ba.mean()).abs() < 1e-12);
        for p in [0.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            assert_eq!(ab.percentile(p), ba.percentile(p), "p{p}");
        }
        // And associative with a third operand.
        let mut c = Histogram::new();
        c.record_weighted(4, 5);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn histogram_buckets_round_trip_exactly() {
        let mut h = Histogram::new();
        h.record_weighted(0, 90);
        h.record_weighted(10, 10);
        h.record(3);
        let rebuilt = Histogram::from_buckets(&h.nonzero_buckets());
        assert_eq!(rebuilt, h, "sparse buckets must reconstruct exactly");
        // Empty round-trips, and zero counts are ignored.
        assert_eq!(Histogram::from_buckets(&[]), Histogram::new());
        assert_eq!(Histogram::from_buckets(&[(5, 0)]), Histogram::new());
    }

    #[test]
    fn snapshot_uses_paper_names() {
        let mut s = Stats::new();
        s.cycles_blocked = 7;
        s.tot_spec_writes = 9;
        s.total_undo = 3;
        let snap = s.snapshot();
        assert_eq!(snap.get("cyclesBlocked"), Some(7));
        assert_eq!(snap.get("totSpecWrites"), Some(9));
        assert_eq!(snap.get("totalUndo"), Some(3));
        assert_eq!(snap.get("interTEpochConflict"), Some(0));
        assert!(snap.to_stats_txt().contains("cyclesBlocked"));
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = Stats::new();
        a.entries_inserted = 5;
        a.total_cycles = 100;
        let mut b = Stats::new();
        b.entries_inserted = 7;
        b.total_cycles = 80;
        b.pb_occupancy.record(4);
        a.merge(&b);
        assert_eq!(a.entries_inserted, 12);
        assert_eq!(a.total_cycles, 100); // max, not sum
        assert_eq!(a.pb_occupancy.count(), 1);
    }

    #[test]
    fn finish_records_cycles() {
        let mut s = Stats::new();
        s.finish(Cycle(1234));
        assert_eq!(s.total_cycles, 1234);
    }

    #[test]
    fn snapshot_covers_every_scalar_counter() {
        // Assign each scalar a distinct value; every one must surface in
        // the snapshot under its paper name with that exact value.
        let s = Stats {
            cycles_blocked: 1,
            cycles_stalled: 2,
            dfence_stalled: 3,
            entries_inserted: 4,
            inter_t_epoch_conflict: 5,
            tot_spec_writes: 6,
            total_undo: 7,
            ofence_stalled: 8,
            nvm_writes: 9,
            nvm_reads: 10,
            xpbuffer_hits: 11,
            total_delay: 12,
            nacks: 13,
            commit_msgs: 14,
            cdr_msgs: 15,
            pb_coalesced: 16,
            wpq_coalesced: 17,
            mc_suppressed_writes: 18,
            epochs_created: 19,
            epochs_committed: 20,
            total_cycles: 21,
            ops_completed: 22,
            loads: 23,
            stores: 24,
            global_ts_reads: 25,
            flush_hints: 26,
            ..Stats::new()
        };
        let snap = s.snapshot();
        let expect = [
            ("cyclesBlocked", 1),
            ("cyclesStalled", 2),
            ("dfenceStalled", 3),
            ("entriesInserted", 4),
            ("interTEpochConflict", 5),
            ("totSpecWrites", 6),
            ("totalUndo", 7),
            ("ofenceStalled", 8),
            ("nvmWrites", 9),
            ("nvmReads", 10),
            ("xpbufferHits", 11),
            ("totalDelay", 12),
            ("nacks", 13),
            ("commitMsgs", 14),
            ("cdrMsgs", 15),
            ("pbCoalesced", 16),
            ("wpqCoalesced", 17),
            ("mcSuppressedWrites", 18),
            ("epochsCreated", 19),
            ("epochsCommitted", 20),
            ("totalCycles", 21),
            ("opsCompleted", 22),
            ("loads", 23),
            ("stores", 24),
            ("globalTsReads", 25),
            ("flushHints", 26),
        ];
        assert_eq!(snap.iter().count(), expect.len());
        for (name, value) in expect {
            assert_eq!(snap.get(name), Some(value), "counter {name}");
        }
    }

    #[test]
    fn stats_txt_is_deterministic_and_sorted() {
        let mut s = Stats::new();
        s.nvm_writes = 42;
        s.cycles_blocked = 17;
        let a = s.snapshot().to_stats_txt();
        let b = s.snapshot().to_stats_txt();
        assert_eq!(a, b);
        let snap = s.snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| k).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "iteration must be in sorted key order");
    }
}
