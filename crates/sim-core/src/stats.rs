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
//! not time-weighted; see each field for what it samples. Occupancies
//! are [`LogHistogram`]s, which count every value below 128 exactly.
//!
//! Every field is declared once, in the `stats_schema!` table below:
//! it generates the struct, [`Stats::merge`], [`Stats::snapshot`], the
//! borrowing [`Stats::fields`] view and the by-name [`Stats::field_mut`]
//! view that the outcome cache's codec loops over. A new counter is a
//! one-row change.

use crate::hist::LogHistogram;
use crate::time::Cycle;
use std::collections::BTreeMap;

/// One [`Stats`] field, borrowed by [`Stats::fields`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatRef<'a> {
    /// A scalar counter's value.
    Counter(u64),
    /// An occupancy histogram.
    Histogram(&'a LogHistogram),
}

/// One [`Stats`] field, mutably borrowed by [`Stats::field_mut`].
#[derive(Debug)]
pub enum StatMut<'a> {
    /// A scalar counter.
    Counter(&'a mut u64),
    /// An occupancy histogram.
    Histogram(&'a mut LogHistogram),
}

/// Merge rules a counter row can name.
mod rule {
    /// Add the two runs' counts (per-core blocks, per-run totals).
    pub fn sum(a: u64, b: u64) -> u64 {
        a + b
    }

    /// Keep the larger value (run length: the cores run concurrently).
    pub fn max(a: u64, b: u64) -> u64 {
        a.max(b)
    }
}

/// Expands the one declaration of [`Stats`]: counter rows are
/// `field: "paperName", rule;` with `rule` a function of [`rule`],
/// histogram rows are `field;`, each after its doc comment.
macro_rules! stats_schema {
    (
        $(#[$meta:meta])*
        pub struct Stats {
            counters {
                $( $(#[$cmeta:meta])* $counter:ident: $paper:literal, $rule:ident; )*
            }
            histograms {
                $( $(#[$hmeta:meta])* $hist:ident; )*
            }
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct Stats {
            $( $(#[$cmeta])* pub $counter: u64, )*
            $( $(#[$hmeta])* pub $hist: LogHistogram, )*
        }

        impl Stats {
            /// Every field name, counters then histograms, in declaration
            /// order: the names [`Stats::fields`] yields and
            /// [`Stats::field_mut`] accepts.
            pub const FIELDS: &'static [&'static str] =
                &[$(stringify!($counter),)* $(stringify!($hist),)*];

            /// Merge the counters of another run into this one (used when
            /// aggregating per-core stat blocks): each counter by its
            /// row's rule, each histogram by [`LogHistogram::merge`].
            pub fn merge(&mut self, o: &Stats) {
                $( self.$counter = rule::$rule(self.$counter, o.$counter); )*
                $( self.$hist.merge(&o.$hist); )*
            }

            /// Render the Table VI counters (plus the extended set) under
            /// the paper's original stat names, suitable for printing as a
            /// gem5-`stats.txt`-style listing.
            pub fn snapshot(&self) -> StatSnapshot {
                StatSnapshot {
                    counters: BTreeMap::from([$(($paper.to_string(), self.$counter),)*]),
                }
            }

            /// Every field as `(field name, value)`, in [`Stats::FIELDS`]
            /// order, borrowing the histograms.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, StatRef<'_>)> {
                [
                    $((stringify!($counter), StatRef::Counter(self.$counter)),)*
                    $((stringify!($hist), StatRef::Histogram(&self.$hist)),)*
                ]
                .into_iter()
            }

            /// The field named `field`, mutably, or `None` if [`Stats`]
            /// has no such field.
            pub fn field_mut(&mut self, field: &str) -> Option<StatMut<'_>> {
                Some(match field {
                    $(stringify!($counter) => StatMut::Counter(&mut self.$counter),)*
                    $(stringify!($hist) => StatMut::Histogram(&mut self.$hist),)*
                    _ => return None,
                })
            }
        }
    };
}

stats_schema! {
    /// All counters for one simulation run.
    ///
    /// Field names are snake_case versions of the paper's camelCase stat
    /// names; [`Stats::snapshot`] renders them under the original names.
    /// `PartialEq` lets the parallel-sweep equivalence tests compare whole
    /// run outcomes structurally.
    pub struct Stats {
        counters {
            // ---- Table VI stats ----
            /// Cycles for which persist buffers were unable to flush
            /// (non-empty but blocked by ordering). Summed over all cores.
            cycles_blocked: "cyclesBlocked", sum;
            /// CPU stall cycles because the persist buffer was full.
            cycles_stalled: "cyclesStalled", sum;
            /// CPU stall cycles caused by `dfence` (waiting for durability).
            dfence_stalled: "dfenceStalled", sum;
            /// Total writes enqueued into persist buffers.
            entries_inserted: "entriesInserted", sum;
            /// Number of cross-thread dependencies detected.
            inter_t_epoch_conflict: "interTEpochConflict", sum;
            /// Number of early (speculative) flushes sent to the MCs.
            tot_spec_writes: "totSpecWrites", sum;
            /// Number of undo records created in recovery tables.
            total_undo: "totalUndo", sum;

            // ---- additional counters needed by the evaluation ----
            /// CPU stall cycles caused by `ofence`/`sfence` (baseline only).
            ofence_stalled: "ofenceStalled", sum;
            /// Writes actually issued to NVM media (Figure 9).
            nvm_writes: "nvmWrites", sum;
            /// Reads issued to NVM media, including undo-record reads (§VII-A:
            /// "number of PM reads increases by 5.3%").
            nvm_reads: "nvmReads", sum;
            /// Undo-record reads that hit the XPBuffer model.
            xpbuffer_hits: "xpbufferHits", sum;
            /// Number of delay records created (write collisions, Fig. 5).
            total_delay: "totalDelay", sum;
            /// Number of flushes NACKed because the RT was full (§V-D).
            nacks: "nacks", sum;
            /// Epoch commit messages sent to MCs.
            commit_msgs: "commitMsgs", sum;
            /// Cross-dependency-resolved messages between threads.
            cdr_msgs: "cdrMsgs", sum;
            /// Writes coalesced into an existing PB entry (never reached NVM
            /// separately).
            pb_coalesced: "pbCoalesced", sum;
            /// Writes coalesced inside the WPQ.
            wpq_coalesced: "wpqCoalesced", sum;
            /// Writes suppressed at the MC because a newer value was already in
            /// memory (safe flush absorbed into an undo record).
            mc_suppressed_writes: "mcSuppressedWrites", sum;
            /// Total epochs created (ofence/acquire/release/dependency splits).
            epochs_created: "epochsCreated", sum;
            /// Total committed epochs.
            epochs_committed: "epochsCommitted", sum;
            /// Total simulated cycles of the run (set by the driver at the end).
            total_cycles: "totalCycles", max;
            /// Number of logical workload operations completed.
            ops_completed: "opsCompleted", sum;
            /// Number of loads executed.
            loads: "loads", sum;
            /// Number of stores executed.
            stores: "stores", sum;
            /// HOPS: accesses to the global timestamp register.
            global_ts_reads: "globalTsReads", sum;
            /// Explicit `clwb`-style flush hints executed (see `MemOp::Flush`
            /// in `asap-core`; pure hints, no ordering effect).
            flush_hints: "flushHints", sum;
        }
        histograms {
            /// Time-weighted persist-buffer occupancy (Figure 11).
            pb_occupancy;
            /// Recovery-table occupancy, one sample per RT event (an undo or
            /// delay record created, an epoch commit) plus the largest per-MC
            /// maximum at the end of the run. Not time-weighted: Figure 12 reads
            /// the harness's `RunOutcome::rt_max_occupancy`, not this histogram.
            rt_occupancy;
            /// Epoch-table occupancy: one end-of-run sample per core.
            et_occupancy;
            /// WPQ occupancy. Never recorded by the engine, so it stays empty
            /// and its percentiles read 0 on every workload.
            wpq_occupancy;
        }
    }
}

impl Stats {
    /// Create a zeroed stats block.
    pub fn new() -> Stats {
        Stats::default()
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
        // Give each counter a distinct value through the generated view.
        let mut s = Stats::new();
        let mut counters = 0;
        for &field in Stats::FIELDS {
            match s.field_mut(field).expect("declared field") {
                StatMut::Counter(v) => {
                    counters += 1;
                    *v = counters;
                }
                StatMut::Histogram(h) => h.record(counters),
            }
        }
        assert!(s.field_mut("no_such_counter").is_none());

        // The borrowing view reads back every field, in declaration order.
        let names: Vec<&str> = s.fields().map(|(f, _)| f).collect();
        assert_eq!(names, Stats::FIELDS);
        let read: Vec<u64> = s
            .fields()
            .filter_map(|(_, v)| match v {
                StatRef::Counter(c) => Some(c),
                StatRef::Histogram(_) => None,
            })
            .collect();
        assert_eq!(read, (1..=counters).collect::<Vec<_>>());

        // One snapshot entry per counter, under distinct paper names (a
        // shared name would collapse two entries), carrying every value.
        let snap = s.snapshot();
        let mut values: Vec<u64> = snap.iter().map(|(_, v)| v).collect();
        values.sort_unstable();
        assert_eq!(values, read);

        // Merging into a zeroed block reproduces every field.
        let mut merged = Stats::new();
        merged.merge(&s);
        assert_eq!(merged, s);
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
