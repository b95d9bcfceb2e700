//! Randomized property tests on the core data structures and invariants:
//! allocator disjointness, recovery-table state machine,
//! event-queue ordering, histogram percentiles, the dependency DAG and
//! the crash oracle (against a quadratic reference). The event queue,
//! XPBuffer, set-associative array and persist buffer are also checked
//! op by op against simple reference models.
//!
//! Cases are generated with the workspace's own [`DetRng`] (seeded per
//! case, so every failure is reproducible from the printed case number)
//! rather than an external property-testing framework, which keeps the
//! test suite dependency-free.

use asap::cache::SetAssoc;
use asap::mc::{RecoveryTable, XpBuffer};
use asap::model::oracle::{self, CrashReport, Violation, ViolationRule};
use asap::model::{DepGraph, PbEntryState, PersistBuffer};
use asap::pm::{NvmImage, PmAllocator, PmSpace, WriteJournal, WriteSeq};
use asap::sim::{
    Cycle, DetRng, EpochId, EventQueue, LineAddr, LineIdx, LineTable, LogHistogram, ThreadId,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

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

/// [`EventQueue`] agrees with a `BTreeMap` keyed by `(time, push
/// order)` on every pop, peek and length, through random pushes, pops
/// and clears. Each case first builds more than 1,000 pending events and
/// then churns, so the slab reuses vacated slots many times over.
#[test]
fn event_queue_matches_btreemap_model() {
    for case in 0..CASES {
        let mut rng = case_rng(17, case);
        let mut q = EventQueue::new();
        let mut model: BTreeMap<(Cycle, u64), u64> = BTreeMap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut max_pending = 0;
        let build = 1500 + rng.below(500);
        let churn = rng.index(3000) + 1;
        for step in 0..build + churn as u64 {
            let push_p = if step < build { 0.9 } else { 0.5 };
            if step >= build && rng.chance(0.001) {
                q.clear();
                model.clear();
            } else if rng.chance(push_p) {
                // Near-future times with many same-cycle ties.
                let at = Cycle(now + rng.below(64));
                q.push(at, seq);
                model.insert((at, seq), seq);
                seq += 1;
            } else {
                let want = model.pop_first().map(|((t, _), e)| (t, e));
                let got = q.pop();
                assert_eq!(got, want, "case {case} step {step}");
                if let Some((t, _)) = got {
                    now = t.raw();
                }
            }
            max_pending = max_pending.max(q.len());
            assert_eq!(q.len(), model.len(), "case {case} step {step}");
            assert_eq!(
                q.peek_time(),
                model.keys().next().map(|&(t, _)| t),
                "case {case} step {step}"
            );
        }
        assert!(
            max_pending > 1000,
            "case {case}: only {max_pending} pending"
        );
        while let Some(got) = q.pop() {
            let want = model.pop_first().map(|((t, _), e)| (t, e));
            assert_eq!(Some(got), want, "case {case}: drain");
        }
        assert!(model.is_empty(), "case {case}");
    }
}

// ---- XPBuffer ----

/// The XPBuffer's first implementation, kept as the model: a
/// `VecDeque` in recency order, scanned on every touch.
struct VecDequeLru {
    lru: VecDeque<LineIdx>,
    capacity: usize,
}

impl VecDequeLru {
    fn touch(&mut self, line: LineIdx) -> bool {
        if let Some(pos) = self.lru.iter().position(|&l| l == line) {
            self.lru.remove(pos);
            self.lru.push_back(line);
            true
        } else {
            if self.lru.len() >= self.capacity {
                self.lru.pop_front();
            }
            self.lru.push_back(line);
            false
        }
    }
}

#[test]
fn xpbuffer_hits_match_vecdeque_lru() {
    for capacity in [1usize, 2, 7, 256] {
        for case in 0..CASES {
            let mut rng = case_rng(18, case ^ ((capacity as u64) << 16));
            let mut xp = XpBuffer::new(capacity);
            let mut model = VecDequeLru {
                lru: VecDeque::new(),
                capacity,
            };
            // A universe a little larger than the buffer, with a hot
            // subset, so hits, misses and evictions all occur.
            let universe = capacity as u64 * 2 + rng.below(8) + 1;
            let hot = capacity as u64 / 2 + 1;
            let ops = rng.index(2000) + 1;
            for step in 0..ops {
                let line = if rng.chance(0.5) {
                    rng.below(hot)
                } else {
                    rng.below(universe)
                };
                let line = LineIdx(line as u32);
                assert_eq!(
                    xp.touch(line),
                    model.touch(line),
                    "capacity {capacity} case {case} step {step}: {line:?}"
                );
            }
        }
    }
}

// ---- set-associative array ----

/// The set-associative array's first layout, kept as the model: per set,
/// the valid `(line, last-use tick)` tuples, evicting the oldest tick.
struct TupleSetAssoc {
    sets: Vec<Vec<(LineIdx, u64)>>,
    ways: usize,
    tick: u64,
}

impl TupleSetAssoc {
    fn set(&self, line: LineAddr) -> usize {
        line.index() as usize & (self.sets.len() - 1)
    }

    fn contains(&self, line: LineAddr, idx: LineIdx) -> bool {
        self.sets[self.set(line)].iter().any(|&(l, _)| l == idx)
    }

    fn touch(&mut self, line: LineAddr, idx: LineIdx) -> Option<LineIdx> {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        let s = self.set(line);
        let set = &mut self.sets[s];
        if let Some(entry) = set.iter_mut().find(|(l, _)| *l == idx) {
            entry.1 = tick;
            return None;
        }
        if set.len() < ways {
            set.push((idx, tick));
            return None;
        }
        let pos = (0..set.len()).min_by_key(|&i| set[i].1).unwrap();
        Some(std::mem::replace(&mut set[pos], (idx, tick)).0)
    }

    fn invalidate(&mut self, line: LineAddr, idx: LineIdx) -> bool {
        let s = self.set(line);
        let set = &mut self.sets[s];
        match set.iter().position(|&(l, _)| l == idx) {
            Some(pos) => {
                set.swap_remove(pos);
                true
            }
            None => false,
        }
    }
}

#[test]
fn set_assoc_matches_tuple_array_model() {
    for case in 0..CASES {
        let mut rng = case_rng(19, case);
        let num_sets = 1 << rng.below(4);
        let ways = [1, 2, 4, 8, 16][rng.index(5)];
        let mut c = SetAssoc::new(num_sets, ways);
        let mut model = TupleSetAssoc {
            sets: vec![Vec::new(); num_sets],
            ways,
            tick: 0,
        };
        // Interned indices differ from the address bits that pick the
        // set, as in the cache hierarchy.
        let mut lines = LineTable::new();
        let universe = (num_sets * ways) as u64 * 2 + 1;
        let ops = rng.index(3000) + 1;
        for step in 0..ops {
            let line = LineAddr::containing(rng.below(universe) * 64);
            let idx = lines.intern(line);
            let roll = rng.below(10);
            if roll < 6 {
                assert_eq!(
                    c.touch(line, idx),
                    model.touch(line, idx),
                    "case {case} step {step}: victim"
                );
            } else if roll < 8 {
                assert_eq!(
                    c.contains(line, idx),
                    model.contains(line, idx),
                    "case {case} step {step}: contains"
                );
            } else {
                assert_eq!(
                    c.invalidate(line, idx),
                    model.invalidate(line, idx),
                    "case {case} step {step}: invalidate"
                );
            }
        }
        let occupancy: usize = model.sets.iter().map(Vec::len).sum();
        assert_eq!(c.occupancy(), occupancy, "case {case}");
    }
}

// ---- persist buffer vs the pairwise model ----

/// One entry of the persist-buffer model: (id, line, epoch ts, state).
type PbModelEntry = (u64, LineAddr, u64, PbEntryState);

/// `PersistBuffer::next_flushable` by its definition: the oldest
/// waiting, eligible entry that no *older* entry on its line blocks. An
/// older same-line entry blocks when the policy is strict, when it sits
/// NACKed, or when it shares the candidate's epoch.
fn model_next_flushable(
    entries: &[PbModelEntry],
    eligible: impl Fn(u64) -> bool,
    strict_lines: bool,
) -> Option<u64> {
    entries
        .iter()
        .enumerate()
        .find_map(|(i, &(id, line, ts, state))| {
            let blocked = entries[..i].iter().any(|&(_, l, t, s)| {
                l == line && (strict_lines || s == PbEntryState::Nacked || t == ts)
            });
            (state == PbEntryState::Waiting && eligible(ts) && !blocked).then_some(id)
        })
}

/// A random entry of `entries` in `state`, if any.
fn model_pick(rng: &mut DetRng, entries: &[PbModelEntry], state: PbEntryState) -> Option<u64> {
    let ids: Vec<u64> = entries
        .iter()
        .filter(|e| e.3 == state)
        .map(|e| e.0)
        .collect();
    (!ids.is_empty()).then(|| ids[rng.index(ids.len())])
}

/// [`PersistBuffer`] agrees with a plain entry list on every
/// `enqueue`/`mark_inflight`/`mark_nacked`/`wake_nacked`/`ack`, and
/// after every step on `next_flushable` (under eligibility of every
/// epoch, none, and only the oldest, with both line policies),
/// `holds_line`, `has_waiting` and `has_nacked`. A few lines at every
/// capacity keep same-line entries, NACKed blockers and coalescing
/// common.
#[test]
fn persist_buffer_matches_pairwise_model() {
    let t = ThreadId(0);
    for capacity in [1usize, 4, 32, 64] {
        for case in 0..CASES / 4 {
            let mut rng = case_rng(20 + capacity as u64, case);
            let mut pb = PersistBuffer::new(capacity);
            let mut model: Vec<PbModelEntry> = Vec::new();
            let mut next_id = 0u64;
            let mut ts = 0u64;
            let lines = (capacity as u64 / 4).max(2);
            let la = |i: u64| LineAddr::containing(i * 64);
            for step in 0..300u64 {
                let ctx = format!("capacity {capacity} case {case} step {step}");
                match rng.below(8) {
                    0..=2 => {
                        if rng.chance(0.25) {
                            ts += 1;
                        }
                        let line = la(rng.below(lines));
                        let e = EpochId::new(t, ts);
                        let got = pb.enqueue(line, Box::new([step as u8; 64]), step, e);
                        // A store coalesces into its line's waiting
                        // entry of the same epoch.
                        let same = model.iter().any(|&(_, l, et, s)| {
                            l == line && et == ts && s == PbEntryState::Waiting
                        });
                        if same {
                            assert!(matches!(got, Ok(Some(_))), "{ctx}: coalesce");
                        } else if model.len() >= capacity {
                            assert!(got.is_err(), "{ctx}: full");
                        } else {
                            assert_eq!(got, Ok(None), "{ctx}: new entry");
                            model.push((next_id, line, ts, PbEntryState::Waiting));
                            next_id += 1;
                        }
                    }
                    3 => {
                        if let Some(id) = model_pick(&mut rng, &model, PbEntryState::Waiting) {
                            pb.mark_inflight(id);
                            model.iter_mut().find(|e| e.0 == id).unwrap().3 =
                                PbEntryState::Inflight;
                        }
                    }
                    4 => {
                        if let Some(id) = model_pick(&mut rng, &model, PbEntryState::Inflight) {
                            pb.mark_nacked(id);
                            model.iter_mut().find(|e| e.0 == id).unwrap().3 = PbEntryState::Nacked;
                        }
                    }
                    5 => {
                        let safe = rng.below(ts + 1);
                        let mut woken = 0;
                        for e in model.iter_mut() {
                            if e.3 == PbEntryState::Nacked && e.2 <= safe {
                                e.3 = PbEntryState::Waiting;
                                woken += 1;
                            }
                        }
                        assert_eq!(pb.wake_nacked(|e| e.ts <= safe), woken, "{ctx}: woken");
                    }
                    _ => {
                        let id = if rng.chance(0.1) {
                            next_id // never allocated yet
                        } else {
                            model_pick(&mut rng, &model, PbEntryState::Inflight).unwrap_or(next_id)
                        };
                        let pos = model.iter().position(|e| e.0 == id);
                        let got = pb.ack(id).map(|e| e.id);
                        assert_eq!(got, pos.map(|p| model.remove(p).0), "{ctx}: ack");
                    }
                }
                let listed: Vec<PbModelEntry> = pb
                    .iter()
                    .map(|e| (e.id, e.line, e.epoch.ts, e.state))
                    .collect();
                assert_eq!(listed, model, "{ctx}: entries");
                let oldest = model.first().map(|e| e.2);
                let policies: [(&str, &dyn Fn(u64) -> bool); 3] = [
                    ("every", &|_| true),
                    ("none", &|_| false),
                    ("oldest", &|ts| Some(ts) == oldest),
                ];
                for strict in [false, true] {
                    for (name, eligible) in policies {
                        assert_eq!(
                            pb.next_flushable(|e| eligible(e.ts), strict).map(|e| e.id),
                            model_next_flushable(&model, eligible, strict),
                            "{ctx}: next_flushable, {name} eligible, strict {strict}"
                        );
                    }
                }
                for i in 0..=lines {
                    assert_eq!(
                        pb.holds_line(la(i)),
                        model.iter().any(|e| e.1 == la(i)),
                        "{ctx}: holds_line({i})"
                    );
                }
                let has = |s: PbEntryState| model.iter().any(|e| e.3 == s);
                assert_eq!(pb.has_waiting(), has(PbEntryState::Waiting), "{ctx}");
                assert_eq!(pb.has_nacked(), has(PbEntryState::Nacked), "{ctx}");
            }
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

    /// Every cycle takes a cross edge, whose dependent is registered, so
    /// the graph is acyclic iff no registered epoch reaches itself.
    fn is_acyclic(&self) -> bool {
        !self
            .created
            .keys()
            .any(|&e| self.transitive_deps(e).contains(&e))
    }

    /// Each thread's slots `0..=max registered ts`, thread-major.
    fn lane_slots(&self) -> Vec<EpochId> {
        let mut top: BTreeMap<usize, u64> = BTreeMap::new();
        for e in self.created.keys() {
            let t = top.entry(e.thread.0).or_insert(0);
            *t = (*t).max(e.ts);
        }
        top.iter()
            .flat_map(|(&t, &max)| (0..=max).map(move |ts| EpochId::new(ThreadId(t), ts)))
            .collect()
    }
}

#[test]
fn dense_dep_graph_matches_map_model() {
    let (mut acyclic_cases, mut cyclic_cases) = (0, 0);
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
            }
        }

        // Kahn over the dense lanes: `Some` exactly when the model is
        // acyclic, and then a permutation of the lane slots (gap slots
        // included) that puts every dependency before its dependent.
        match dense.topological_order() {
            Some(order) => {
                acyclic_cases += 1;
                assert!(model.is_acyclic(), "case {case}: order despite a cycle");
                let mut sorted = order.clone();
                sorted.sort();
                assert_eq!(sorted, model.lane_slots(), "case {case}: a permutation");
                let pos: HashMap<EpochId, usize> =
                    order.iter().enumerate().map(|(i, &e)| (e, i)).collect();
                for &e in &order {
                    for d in model.direct_deps(e) {
                        assert!(pos[&d] < pos[&e], "case {case}: edge {d} -> {e}");
                    }
                }
            }
            None => {
                cyclic_cases += 1;
                assert!(!model.is_acyclic(), "case {case}: no order for a DAG");
            }
        }
    }
    assert!(
        acyclic_cases > 0 && cyclic_cases > 0,
        "both outcomes covered"
    );
}

// ---- crash oracle vs the quadratic reference ----

/// A quadratic reference oracle: one `transitive_deps` closure per
/// visible and per committed epoch, ordered maps throughout.
/// `oracle::check` must produce an equal report, violation order
/// included.
fn reference_check(journal: &WriteJournal, g: &MapDepGraph, nvm: &NvmImage) -> CrashReport {
    let mut report = CrashReport {
        epochs_committed: g.committed.len(),
        ..CrashReport::default()
    };
    if !g.is_acyclic() {
        report.violations.push(Violation {
            rule: ViolationRule::DepCycle,
            message: "epoch dependency graph contains a cycle (Lemma 0.1 violated)".to_string(),
        });
    }

    let mut epoch_writes: BTreeMap<EpochId, Vec<(LineAddr, u64)>> = BTreeMap::new();
    for e in journal.entries() {
        let Some(epoch) = e.epoch else { continue };
        let writes = epoch_writes.entry(epoch).or_default();
        match writes.iter_mut().find(|(l, _)| *l == e.line) {
            Some((_, s)) => *s = (*s).max(e.seq.0),
            None => writes.push((e.line, e.seq.0)),
        }
    }

    let mut visible: BTreeSet<EpochId> = BTreeSet::new();
    for (line, rec) in nvm.iter() {
        report.lines_checked += 1;
        let Some(seq) = rec.seq else {
            if !nvm.is_preinit(line) && rec.data.iter().any(|&b| b != 0) {
                report.violations.push(Violation {
                    rule: ViolationRule::UntaggedNonZero,
                    message: format!("line {line}: untagged recovered line is non-zero"),
                });
            }
            continue;
        };
        let Some(entry) = journal.get(WriteSeq(seq)) else {
            report.violations.push(Violation {
                rule: ViolationRule::JournalIntegrity,
                message: format!("line {line}: owner seq {seq} not in journal"),
            });
            continue;
        };
        if entry.line != line {
            report.violations.push(Violation {
                rule: ViolationRule::JournalIntegrity,
                message: format!(
                    "line {line}: owner seq {seq} journaled for different line {}",
                    entry.line
                ),
            });
            continue;
        }
        if entry.data != rec.data {
            report.violations.push(Violation {
                rule: ViolationRule::TornValue,
                message: format!(
                    "line {line}: recovered bytes differ from journaled write seq {seq} \
                     (Fig. 5-style lost update?)"
                ),
            });
        }
        visible.extend(rec.epoch);
    }
    report.epochs_visible = visible.len();

    let mut obligated: BTreeSet<EpochId> = BTreeSet::new();
    for &v in &visible {
        obligated.extend(g.transitive_deps(v));
    }
    for &c in g.committed.keys() {
        obligated.insert(c);
        obligated.extend(g.transitive_deps(c));
    }
    for e in obligated {
        let Some(writes) = epoch_writes.get(&e) else {
            continue;
        };
        for &(line, max_seq) in writes {
            let rec = nvm.line(line);
            if rec.seq.is_some_and(|s| s >= max_seq) {
                continue;
            }
            let (rule, why) = if g.committed.contains_key(&e) {
                (
                    ViolationRule::CommittedWriteLost,
                    "committed epoch lost a write (Lemma 1.1 violated)",
                )
            } else {
                (
                    ViolationRule::OrderingViolated,
                    "dependency of a visible epoch lost a write (ordering violated)",
                )
            };
            report.violations.push(Violation {
                rule,
                message: format!(
                    "epoch {e}: write seq {max_seq} to {line} did not survive \
                     (recovered owner seq {:?}): {why}",
                    rec.seq
                ),
            });
        }
    }
    report
}

/// `oracle::check` equals the quadratic reference on random crash
/// states: protocol-shaped and arbitrary graphs (cycles, self-loops,
/// gap slots, journal epochs the graph never registered), journals with
/// unexecuted entries, and images mixing current, stale, lost, torn,
/// dangling, misattributed and untagged lines.
#[test]
fn oracle_matches_quadratic_reference() {
    let mut rules: BTreeMap<ViolationRule, usize> = BTreeMap::new();
    let mut consistent = 0;
    for case in 0..CASES * 4 {
        let mut rng = case_rng(16, case);
        let threads = rng.index(4) + 1;
        let epoch = |rng: &mut DetRng| EpochId::new(ThreadId(rng.index(threads)), rng.below(10));

        // Graph: the same ops on the dense graph and the map model.
        let mut dense = DepGraph::new();
        let mut model = MapDepGraph::default();
        let protocol = rng.chance(0.5);
        for _ in 0..rng.index(40) {
            let e = epoch(&mut rng);
            match rng.index(4) {
                0 => {
                    dense.ensure(e);
                    model.ensure(e);
                }
                1 | 2 => {
                    let mut src = epoch(&mut rng);
                    if protocol {
                        // Sources are older epochs of other threads.
                        if src.thread == e.thread || src.ts >= e.ts {
                            continue;
                        }
                    } else if rng.chance(0.1) {
                        src = e; // self-loop
                    }
                    dense.add_cross_dep(e, src);
                    model.add_cross_dep(e, src);
                }
                _ => {
                    dense.mark_committed(e);
                    model.mark_committed(e);
                }
            }
        }

        // Journal over a small line universe; some entries never execute.
        let universe = rng.below(12) + 1;
        let mut journal = WriteJournal::enabled();
        for _ in 0..rng.index(48) {
            let line = LineAddr::containing(rng.below(universe) * 64);
            let mut data = [0u8; 64];
            rng.fill_bytes(&mut data);
            let seq = journal.record(line, data);
            if rng.chance(0.85) {
                journal.assign_epoch(seq, epoch(&mut rng));
            }
        }
        let entries = journal.entries().to_vec();

        // Image: per line, one of the recovery outcomes.
        let mut nvm = NvmImage::new();
        for idx in 0..universe {
            let line = LineAddr::containing(idx * 64);
            let writes: Vec<_> = entries.iter().filter(|e| e.line == line).collect();
            let pick = |rng: &mut DetRng| writes[rng.index(writes.len())];
            match rng.index(10) {
                // Current (last journaled) or stale (any earlier) owner.
                0..=3 if !writes.is_empty() => {
                    let w = if rng.chance(0.6) {
                        writes[writes.len() - 1]
                    } else {
                        pick(&mut rng)
                    };
                    let tag = if rng.chance(0.9) {
                        w.epoch
                    } else {
                        Some(epoch(&mut rng))
                    };
                    nvm.persist(line, w.data, Some(w.seq.0), tag);
                }
                4 if !writes.is_empty() => {
                    let w = pick(&mut rng);
                    let mut torn = w.data;
                    torn[rng.index(64)] ^= 0xff;
                    nvm.persist(line, torn, Some(w.seq.0), w.epoch);
                }
                5 => {
                    let dangling = entries.len() as u64 + rng.below(4);
                    nvm.persist(line, [1; 64], Some(dangling), Some(epoch(&mut rng)));
                }
                6 if !entries.is_empty() => {
                    let w = &entries[rng.index(entries.len())];
                    nvm.persist(line, w.data, Some(w.seq.0), w.epoch);
                }
                7 => {
                    let fill = rng.below(2) as u8;
                    nvm.persist(line, [fill; 64], None, None);
                }
                8 => nvm.preinit(line, [3; 64]),
                _ => {} // lost: never reached the media
            }
        }

        let got = oracle::check(&journal, &dense, &nvm);
        assert_eq!(got, reference_check(&journal, &model, &nvm), "case {case}");
        consistent += usize::from(got.is_consistent());
        for v in &got.violations {
            *rules.entry(v.rule).or_default() += 1;
        }
    }
    assert!(consistent > 0, "some cases must be consistent");
    for rule in ViolationRule::ALL {
        assert!(
            rules.get(&rule).is_some_and(|&n| n > 0),
            "{rule} never fired: {rules:?}"
        );
    }
}
