//! The workload suite of the ASAP paper (Table III), re-implemented as
//! instrumented persistent data structures.
//!
//! Each workload is a [`ThreadProgram`]: ordinary Rust code operating on
//! the simulated persistent memory through a
//! [`BurstCtx`](asap_core::BurstCtx), with `ofence`/`dfence`/
//! `acquire`/`release` placed the way the original code places them. What
//! the persistency models see — epoch sizes, fence rates, cross-thread
//! dependency rates, address spread over the memory controllers — is
//! therefore produced by real data-structure logic, not synthetic traces.
//!
//! | paper workload | module | programming model |
//! |---|---|---|
//! | Nstore | [`apps::nstore`] | PM-native DBMS: undo-log + table updates per txn |
//! | Echo | [`apps::echo`] | scalable KV: thread-local logs + locked master index |
//! | Vacation | [`apps::vacation`] | coarse-grained lock, volatile bookkeeping in the critical section |
//! | Memcached | [`apps::memcached`] | chained hash table, per-bucket locks, PMDK-style txns |
//! | Atlas heap / queue / skiplist | [`atlas`] | lock-delimited failure-atomic sections with undo logging |
//! | CCEH | [`exthash`] | extendible hashing, CAS-based inserts, segment splits |
//! | Fast_Fair | [`btree`] | B+-tree with 8-byte-atomic sorted shifts |
//! | Dash-LH | [`levelhash`] | level hashing with fingerprints and stash |
//! | Dash-EH | [`exthash`] | extendible hashing with bucket displacement |
//! | P-ART | [`art`] | RECIPE-converted adaptive radix tree |
//! | P-CLHT | [`clht`] | RECIPE-converted cache-line hash table |
//! | P-Masstree | [`btree`] | trie-of-B+-trees (masstree-shaped key layers) |
//!
//! Plus [`bandwidth`]: the Figure 13 microbenchmark (256-byte writes
//! alternating across the two memory controllers, ordered by `ofence`).
//!
//! # Example
//!
//! ```
//! use asap_workloads::{make_workload, WorkloadKind, WorkloadParams};
//! use asap_core::{Flavor, ModelKind, SimBuilder};
//! use asap_sim_core::SimConfig;
//!
//! let params = WorkloadParams { threads: 2, ops_per_thread: 20, seed: 7, ..Default::default() };
//! let programs = make_workload(WorkloadKind::Cceh, &params);
//! let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
//!     .programs(programs)
//!     .build();
//! let out = sim.run_to_completion();
//! assert!(out.all_done);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod apps;
pub mod art;
pub mod atlas;
pub mod bandwidth;
pub mod btree;
pub mod clht;
mod common;
pub mod exthash;
pub mod levelhash;
pub mod recovery;
pub mod traffic;

pub use common::{
    Arena, KeySampler, SpinLock, WorkloadParams, GLOBALS_BASE, LOCK_CELL_BYTES, STATIC_BASE,
};

use asap_core::ThreadProgram;
use std::fmt;
use std::str::FromStr;

/// The 14 workloads of Table III plus the Figure 13 microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum WorkloadKind {
    Nstore,
    Echo,
    Vacation,
    Memcached,
    Heap,
    Queue,
    Skiplist,
    Cceh,
    FastFair,
    DashLh,
    DashEh,
    PArt,
    PClht,
    PMasstree,
    Bandwidth,
}

impl WorkloadKind {
    /// The Table III workloads, in the order the paper's figures use.
    pub fn all() -> [WorkloadKind; 14] {
        use WorkloadKind::*;
        [
            Nstore, Echo, Vacation, Memcached, Heap, Queue, Skiplist, Cceh, FastFair, DashLh,
            DashEh, PArt, PClht, PMasstree,
        ]
    }

    /// Figure x-axis label.
    pub fn label(self) -> &'static str {
        use WorkloadKind::*;
        match self {
            Nstore => "nstore",
            Echo => "echo",
            Vacation => "vacation",
            Memcached => "memcached",
            Heap => "heap",
            Queue => "queue",
            Skiplist => "skiplist",
            Cceh => "cceh",
            FastFair => "fast_fair",
            DashLh => "dash-lh",
            DashEh => "dash-eh",
            PArt => "p-art",
            PClht => "p-clht",
            PMasstree => "p-masstree",
            Bandwidth => "bandwidth",
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for WorkloadKind {
    type Err = String;
    fn from_str(s: &str) -> Result<WorkloadKind, String> {
        use WorkloadKind::*;
        Ok(match s {
            "nstore" => Nstore,
            "echo" => Echo,
            "vacation" => Vacation,
            "memcached" => Memcached,
            "heap" => Heap,
            "queue" => Queue,
            "skiplist" => Skiplist,
            "cceh" => Cceh,
            "fast_fair" | "fastfair" => FastFair,
            "dash-lh" | "dash_lh" => DashLh,
            "dash-eh" | "dash_eh" => DashEh,
            "p-art" | "p_art" => PArt,
            "p-clht" | "p_clht" => PClht,
            "p-masstree" | "p_masstree" => PMasstree,
            "bandwidth" => Bandwidth,
            other => return Err(format!("unknown workload: {other}")),
        })
    }
}

fn make_program(kind: WorkloadKind, t: usize, params: &WorkloadParams) -> Box<dyn ThreadProgram> {
    use WorkloadKind::*;
    match kind {
        Nstore => Box::new(apps::nstore::Nstore::new(t, params)),
        Echo => Box::new(apps::echo::Echo::new(t, params)),
        Vacation => Box::new(apps::vacation::Vacation::new(t, params)),
        Memcached => Box::new(apps::memcached::Memcached::new(t, params)),
        Heap => Box::new(atlas::heap::AtlasHeap::new(t, params)),
        Queue => Box::new(atlas::queue::AtlasQueue::new(t, params)),
        Skiplist => Box::new(atlas::skiplist::AtlasSkiplist::new(t, params)),
        Cceh => Box::new(exthash::ExtHash::new_cceh(t, params)),
        FastFair => Box::new(btree::FastFair::new(t, params)),
        DashLh => Box::new(levelhash::LevelHash::new(t, params)),
        DashEh => Box::new(exthash::ExtHash::new_dash(t, params)),
        PArt => Box::new(art::PArt::new(t, params)),
        PClht => Box::new(clht::PClht::new(t, params)),
        PMasstree => Box::new(btree::FastFair::new_masstree(t, params)),
        Bandwidth => Box::new(bandwidth::Bandwidth::new(t, params)),
    }
}

/// Build the thread programs for `kind`: one program per thread, sharing
/// one structure instance.
pub fn make_workload(kind: WorkloadKind, params: &WorkloadParams) -> Vec<Box<dyn ThreadProgram>> {
    (0..params.threads)
        .map(|t| make_program(kind, t, params))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_str() {
        for k in WorkloadKind::all() {
            let parsed: WorkloadKind = k.label().parse().unwrap();
            assert_eq!(parsed, k);
        }
        assert!("nope".parse::<WorkloadKind>().is_err());
    }

    #[test]
    fn all_lists_fourteen() {
        assert_eq!(WorkloadKind::all().len(), 14);
    }

    #[test]
    fn make_workload_builds_per_thread_programs() {
        let params = WorkloadParams {
            threads: 3,
            ops_per_thread: 5,
            seed: 1,
            ..Default::default()
        };
        for k in WorkloadKind::all() {
            let ps = make_workload(k, &params);
            assert_eq!(ps.len(), 3, "{k}");
        }
    }
}
