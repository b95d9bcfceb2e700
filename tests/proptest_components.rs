//! Randomized property tests on the core data structures and invariants:
//! allocator disjointness, recovery-table state machine, Bloom filter,
//! event-queue ordering, histogram percentiles and the dependency DAG.
//!
//! Cases are generated with the workspace's own [`DetRng`] (seeded per
//! case, so every failure is reproducible from the printed case number)
//! rather than an external property-testing framework, which keeps the
//! test suite dependency-free.

use asap::cache::CountingBloom;
use asap::mc::RecoveryTable;
use asap::model::DepGraph;
use asap::pm::{NvmImage, PmAllocator, PmSpace};
use asap::sim::{
    Cycle, DetRng, EpochId, EventQueue, LineAddr, LineIdx, LineTable, LogHistogram, ThreadId,
};
use std::collections::{HashMap, HashSet};

const CASES: u64 = 64;

/// Per-case RNG: derived from the test name so suites stay independent.
fn case_rng(test: u64, case: u64) -> DetRng {
    DetRng::seed(0xA5A9 ^ (test << 32) ^ case)
}

// ---- allocator ----

#[test]
fn allocations_never_overlap() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let n = rng.index(63) + 1;
        let mut a = PmAllocator::new(0x1000, 1 << 22);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for _ in 0..n {
            let s = rng.range_inclusive(1, 511);
            let addr = a.alloc(s).unwrap();
            let rounded = s.div_ceil(64) * 64;
            for &(b, len) in &ranges {
                assert!(
                    addr + rounded <= b || b + len <= addr,
                    "case {case}: overlap: [{addr},{}) vs [{b},{})",
                    addr + rounded,
                    b + len
                );
            }
            ranges.push((addr, rounded));
        }
    }
}

#[test]
fn freed_blocks_are_reused_not_leaked() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let count = rng.index(31) + 1;
        let mut a = PmAllocator::new(0, 1 << 20);
        let addrs: Vec<u64> = (0..count).map(|_| a.alloc(64).unwrap()).collect();
        for &x in &addrs {
            a.free(x, 64);
        }
        let again: Vec<u64> = (0..count).map(|_| a.alloc(64).unwrap()).collect();
        let mut sorted_a = addrs.clone();
        let mut sorted_b = again.clone();
        sorted_a.sort_unstable();
        sorted_b.sort_unstable();
        assert_eq!(
            sorted_a, sorted_b,
            "case {case}: free list must recycle exactly"
        );
    }
}

// ---- functional memory ----

#[test]
fn pm_space_reads_back_writes() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let n = rng.index(49) + 1;
        let mut pm = PmSpace::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for _ in 0..n {
            let addr = rng.below(0x10_000) & !7; // aligned
            let v = rng.next_u64();
            pm.write_u64(addr, v);
            model.insert(addr, v);
        }
        for (addr, v) in model {
            assert_eq!(pm.read_u64(addr), v, "case {case}");
        }
    }
}

// ---- recovery table state machine ----

/// Random interleavings of early/safe flushes from two epochs to a
/// small address pool, then either a crash or a commit sequence: the
/// final value of each line must be the last *surviving* write.
#[test]
fn rt_crash_never_leaks_uncommitted_early_values() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let n = rng.index(39) + 1;
        let crash = rng.chance(0.5);
        let mut rt = RecoveryTable::new(64);
        let mut nvm = NvmImage::new();
        let e_old = EpochId::new(ThreadId(0), 0);
        let e_new = EpochId::new(ThreadId(0), 1);
        let mut seq = 0u64;
        // Track the last safe write per line (what a crash must recover
        // at minimum if no early values survive).
        let mut last_safe: HashMap<LineAddr, u8> = HashMap::new();
        for _ in 0..n {
            let slot = rng.below(4);
            let early = rng.chance(0.5);
            let val = rng.range_inclusive(1, 254) as u8;
            let line = LineAddr::containing(slot * 64);
            // The slot number doubles as the interned index (the RT only
            // compares indices for equality).
            let idx = LineIdx(slot as u32);
            seq += 1;
            // Early flushes come from the NEW (unsafe) epoch; safe ones
            // from the OLD epoch.
            let epoch = if early { e_new } else { e_old };
            let _ = rt.handle_flush(line, idx, [val; 64], seq, epoch, early, &mut nvm);
            if !early {
                last_safe.insert(line, val);
            }
        }
        if crash {
            rt.crash_drain(&mut nvm);
            // After the crash drain no uncommitted early value may be
            // visible where a safe value existed: the recovered value
            // must be the last safe write (or zero).
            for (line, val) in last_safe {
                let got = nvm.line(line).data[0];
                assert_eq!(
                    got, val,
                    "case {case}: line {line:?} recovered {got} but last safe write was {val}"
                );
            }
        } else {
            // Commit both epochs in dependency order: all records drain.
            rt.commit_epoch(e_old, &mut nvm);
            rt.commit_epoch(e_new, &mut nvm);
            assert_eq!(rt.occupancy(), 0, "case {case}");
        }
    }
}

// ---- Bloom filter ----

#[test]
fn bloom_has_no_false_negatives() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let n = rng.index(127) + 1;
        let lines: Vec<u64> = (0..n).map(|_| rng.below(10_000)).collect();
        let mut f = CountingBloom::new(4096, 3);
        for &l in &lines {
            f.insert(LineAddr::containing(l * 64));
        }
        for &l in &lines {
            assert!(
                f.maybe_contains(LineAddr::containing(l * 64)),
                "case {case}: false negative for {l}"
            );
        }
    }
}

#[test]
fn bloom_remove_restores_absence() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let n = rng.index(31) + 1;
        let mut unique: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        unique.sort_unstable();
        unique.dedup();
        let mut f = CountingBloom::new(4096, 3);
        for &l in &unique {
            f.insert(LineAddr::containing(l * 64));
        }
        for &l in &unique {
            f.remove(LineAddr::containing(l * 64));
        }
        assert!(f.is_empty(), "case {case}");
        for &l in &unique {
            assert!(
                !f.maybe_contains(LineAddr::containing(l * 64)),
                "case {case}: stale entry for {l}"
            );
        }
    }
}

// ---- event queue ----

#[test]
fn event_queue_pops_in_time_then_fifo_order() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let n = rng.index(99) + 1;
        let times: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycle(t), i);
        }
        let mut last: Option<(Cycle, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t >= lt, "case {case}: time went backwards");
                if t == lt {
                    assert!(i > li, "case {case}: FIFO violated for same-cycle events");
                }
            }
            last = Some((t, i));
        }
    }
}

// ---- histogram ----

#[test]
fn histogram_percentiles_are_monotonic() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        let n = rng.index(199) + 1;
        let samples: Vec<u64> = (0..n).map(|_| rng.below(64)).collect();
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut prev = 0;
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= prev, "case {case}: percentile not monotonic");
            prev = v;
        }
        assert_eq!(h.percentile(100.0), h.max(), "case {case}");
        let max = *samples.iter().max().unwrap() as f64;
        let min = *samples.iter().min().unwrap() as f64;
        assert!(h.mean() <= max && h.mean() >= min, "case {case}");
    }
}

// ---- log-bucketed histogram vs the exact sorted samples ----

/// Exact percentile of ascending `sorted` under the histogram's rank
/// convention: `ceil(p/100 · n)`, clamped to at least 1.
fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

/// [`LogHistogram`] must agree with the dense reference, every sample
/// kept and sorted, on every percentile within its documented relative
/// error bound, across value magnitudes spanning many octaves.
#[test]
fn log_histogram_percentiles_match_dense_within_error_bound() {
    for case in 0..CASES {
        let mut rng = case_rng(14, case);
        let n = rng.index(400) + 1;
        // Mix magnitudes: exact linear range, mid octaves, and
        // million-cycle tails like real request latencies.
        let samples: Vec<u64> = (0..n)
            .map(|_| {
                let octave = rng.index(21) as u32;
                rng.below(1u64 << octave)
            })
            .collect();
        let mut log = LogHistogram::new();
        for &s in &samples {
            log.record(s);
        }
        let mut dense = samples.clone();
        dense.sort_unstable();
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let exact = exact_percentile(&dense, p);
            let approx = log.percentile(p);
            let bound = exact as f64 * LogHistogram::REL_ERROR + 0.5;
            assert!(
                approx.abs_diff(exact) as f64 <= bound,
                "case {case}: p{p}: dense={exact} log={approx} bound={bound}"
            );
        }
        let mean = dense.iter().map(|&s| s as f64).sum::<f64>() / n as f64;
        assert_eq!(log.count(), n as u64, "case {case}");
        assert_eq!(log.max(), dense[n - 1], "case {case}");
        assert!((log.mean() - mean).abs() < 1e-6, "case {case}");
    }
}

/// Merging shards must be exactly equivalent to recording the
/// concatenated stream (the reduction the per-thread latency sinks do).
#[test]
fn log_histogram_sharded_merge_equals_single_stream() {
    for case in 0..CASES {
        let mut rng = case_rng(15, case);
        let shards = rng.index(4) + 2;
        let mut merged = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for _ in 0..shards {
            let mut shard = LogHistogram::new();
            for _ in 0..rng.index(100) {
                let v = rng.below(1 << 24);
                shard.record(v);
                whole.record(v);
            }
            merged.merge(&shard);
        }
        assert_eq!(merged, whole, "case {case}");
    }
}

// ---- dependency DAG ----

/// Building a graph the way the protocol does (dependencies always
/// point to *older* epochs of other threads) keeps it acyclic.
#[test]
fn protocol_shaped_dep_graphs_are_acyclic() {
    for case in 0..CASES {
        let mut rng = case_rng(9, case);
        let n = rng.index(60);
        let mut g = DepGraph::new();
        for _ in 0..n {
            let t1 = rng.index(3);
            let ts1 = rng.below(20);
            let t2 = rng.index(3);
            let ts2 = rng.below(20);
            if t1 == t2 {
                continue;
            }
            // Protocol rule: a dependent epoch is created *after* the
            // source epoch closes; model by forcing source.ts <= dep.ts.
            let (src, dep) = if ts1 <= ts2 {
                (
                    EpochId::new(ThreadId(t1), ts1),
                    EpochId::new(ThreadId(t2), ts2 + 1),
                )
            } else {
                (
                    EpochId::new(ThreadId(t2), ts2),
                    EpochId::new(ThreadId(t1), ts1 + 1),
                )
            };
            g.add_cross_dep(dep, src);
        }
        assert!(
            g.topological_order().is_some(),
            "case {case}: protocol-shaped graph must be a DAG"
        );
    }
}

// ---- address interning ----

/// [`LineTable`] agrees with a model `HashMap` on every intern/lookup,
/// and hands out dense first-touch indices — including across the
/// open-addressed table's growth (footprint overflow past the initial
/// capacity).
#[test]
fn line_table_matches_hashmap_model() {
    for case in 0..CASES {
        let mut rng = case_rng(10, case);
        // Small initial capacity so most cases overflow and rehash.
        let mut table = LineTable::with_capacity(4);
        let mut model: HashMap<LineAddr, usize> = HashMap::new();
        let universe = rng.below(300) + 1;
        let ops = rng.index(400) + 1;
        for _ in 0..ops {
            let line = LineAddr::containing(rng.below(universe) * 64);
            if rng.chance(0.7) {
                let next = model.len();
                let expect = *model.entry(line).or_insert(next);
                let idx = table.intern(line);
                assert_eq!(
                    idx.as_usize(),
                    expect,
                    "case {case}: dense first-touch order"
                );
            } else {
                assert_eq!(
                    table.lookup(line).map(LineIdx::as_usize),
                    model.get(&line).copied(),
                    "case {case}: lookup must agree with the model"
                );
            }
        }
        assert_eq!(table.len(), model.len(), "case {case}");
        for (&line, &idx) in &model {
            let got = table.lookup(line).expect("interned line must resolve");
            assert_eq!(got.as_usize(), idx, "case {case}");
            assert_eq!(table.addr_of(got), line, "case {case}: addr_of round-trip");
        }
    }
}

// ---- dense dependency graph vs map-based model ----

/// The old map-based `DepGraph` semantics, re-implemented as the test
/// model: the dense per-thread-lane version must agree with it on every
/// query after a random protocol-shaped op sequence.
#[derive(Default)]
struct MapDepGraph {
    created: HashMap<EpochId, u64>,
    committed: HashMap<EpochId, u64>,
    cross: HashMap<EpochId, Vec<EpochId>>,
    clock: u64,
}

impl MapDepGraph {
    fn ensure(&mut self, e: EpochId) {
        if !self.created.contains_key(&e) {
            self.clock += 1;
            self.created.insert(e, self.clock);
        }
    }

    fn add_cross_dep(&mut self, dependent: EpochId, source: EpochId) {
        self.ensure(dependent);
        self.ensure(source);
        self.cross.entry(dependent).or_default().push(source);
    }

    fn mark_committed(&mut self, e: EpochId) {
        self.ensure(e);
        if !self.committed.contains_key(&e) {
            self.clock += 1;
            self.committed.insert(e, self.clock);
        }
    }

    fn direct_deps(&self, e: EpochId) -> Vec<EpochId> {
        let mut out = Vec::new();
        if e.ts > 0 {
            out.push(EpochId::new(e.thread, e.ts - 1));
        }
        if let Some(cs) = self.cross.get(&e) {
            out.extend(cs.iter().copied());
        }
        out
    }

    fn transitive_deps(&self, e: EpochId) -> HashSet<EpochId> {
        let mut seen = HashSet::new();
        let mut queue = self.direct_deps(e);
        while let Some(d) = queue.pop() {
            if seen.insert(d) {
                queue.extend(self.direct_deps(d));
            }
        }
        seen
    }
}

#[test]
fn dense_dep_graph_matches_map_model() {
    for case in 0..CASES {
        let mut rng = case_rng(11, case);
        let mut dense = DepGraph::new();
        let mut model = MapDepGraph::default();
        let ops = rng.index(120) + 1;
        for _ in 0..ops {
            let e = EpochId::new(ThreadId(rng.index(4)), rng.below(24));
            match rng.index(3) {
                0 => {
                    dense.ensure(e);
                    model.ensure(e);
                }
                1 => {
                    let src = EpochId::new(ThreadId(rng.index(4)), rng.below(24));
                    dense.add_cross_dep(e, src);
                    model.add_cross_dep(e, src);
                }
                _ => {
                    dense.mark_committed(e);
                    model.mark_committed(e);
                }
            }
        }

        assert_eq!(dense.len(), model.created.len(), "case {case}");
        assert_eq!(dense.now(), model.clock, "case {case}");
        let nodes: Vec<EpochId> = dense.nodes().collect();
        let mut expect_nodes: Vec<EpochId> = model.created.keys().copied().collect();
        expect_nodes.sort();
        assert_eq!(
            nodes, expect_nodes,
            "case {case}: thread-major ts-minor order"
        );

        let committed: Vec<EpochId> = dense.committed().collect();
        let mut expect_committed: Vec<EpochId> = model.committed.keys().copied().collect();
        expect_committed.sort();
        assert_eq!(committed, expect_committed, "case {case}");

        // Probe registered epochs and never-registered neighbours alike.
        for t in 0..5 {
            for ts in 0..26 {
                let e = EpochId::new(ThreadId(t), ts);
                assert_eq!(
                    dense.is_committed(e),
                    model.committed.contains_key(&e),
                    "case {case} {e:?}"
                );
                assert_eq!(
                    dense.creation_stamp(e),
                    model.created.get(&e).copied(),
                    "case {case} {e:?}"
                );
                assert_eq!(
                    dense.commit_stamp(e),
                    model.committed.get(&e).copied(),
                    "case {case} {e:?}"
                );
                let empty = Vec::new();
                assert_eq!(
                    dense.cross_deps_of(e),
                    model
                        .cross
                        .get(&e)
                        .filter(|_| model.created.contains_key(&e))
                        .unwrap_or(&empty)
                        .as_slice(),
                    "case {case} {e:?}"
                );
                assert_eq!(
                    dense.direct_deps(e),
                    model.direct_deps(e),
                    "case {case} {e:?}"
                );
                assert_eq!(
                    dense.transitive_deps(e),
                    model.transitive_deps(e),
                    "case {case} {e:?}"
                );
            }
        }
    }
}
