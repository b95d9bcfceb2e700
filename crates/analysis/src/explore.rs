//! The systematic crash-space explorer: machine-checks the paper's
//! recovery theorems over *every* crash instant of a workload run.
//!
//! For each (workload, model) configuration the explorer runs two
//! passes:
//!
//! 1. **Collect** ([`pass1`]) — one instrumented run with the journal
//!    and the engine's crash-point collector attached. The collector
//!    records every persistency boundary (flush issue/ack/NACK, epoch
//!    commits, recovery-table undo/delay/NACK transitions, WPQ
//!    back-pressure, CDR messages) and the *crash-state timeline*: a
//!    digest of the monotonic mutation counters of every
//!    crash-relevant state component, appended on change. The raw
//!    crash space is every cycle in `0..=end_cycle`; the timeline
//!    partitions it into equivalence intervals whose members provably
//!    recover to byte-identical NVM images (see
//!    `asap_core::sim::collect`). One representative per interval is
//!    enough — the rest are *pruned* (90%+ in practice): a measured
//!    1.06M-point single-workload run prunes to 47k classes.
//! 2. **Verify** ([`verify_chunk`]) — the surviving representatives,
//!    split into chunks, are checked by deterministic re-runs: a fresh
//!    simulation advances to each survivor in ascending order and runs
//!    the non-destructive oracle (`Sim::crash_check_now`). The oracle
//!    is linear in the journal, image and graph (tens of µs per check
//!    at quick scale), so with `--prune off` the quick CI suite checks
//!    every one of its ~2×10⁵ raw points in about a second. Chunks are
//!    independent jobs, so a harness can fan them out across a worker
//!    pool; results assemble in input order ([`assemble_config`]),
//!    keeping reports byte-identical at any worker count.
//!
//! When the survivor set exceeds `points_budget`, importance sampling
//! keeps the boundary-adjacent intervals (± [`ExploreParams::pad`]
//! cycles) first and fills the remainder with a seeded pseudo-random
//! draw — deterministic under `--seed`, and the report counts what was
//! dropped (`sampled_out`) so truncation is never silent.
//!
//! [`PruneMode::Verify`] additionally checks each interval's *last*
//! cycle against its first: report and recovered-image digest must
//! match, turning the equivalence relation itself into a tested claim.

use crate::report::json_str;
use asap_core::{BoundaryKind, CrashPoints, CrashReport, Sim, SimBuilder, ViolationRule};
use asap_sim_core::{Cycle, DetRng, Flavor, ModelKind, SimConfig};
use asap_workloads::{make_workload, WorkloadKind, WorkloadParams};
use std::fmt::Write as _;

/// How the explorer treats the crash-space equivalence relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneMode {
    /// No pruning: candidates are raw cycles (budget sampling still
    /// applies). Cross-check mode; orders of magnitude more work for
    /// the same theorem coverage.
    Off,
    /// Prune by crash-state equivalence; verify one representative per
    /// interval (the default).
    On,
    /// Prune, and *also* re-check each interval's last cycle against
    /// its first — report and recovered image must be identical.
    Verify,
}

impl PruneMode {
    /// Stable identifier (CLI value / JSON key).
    pub fn as_str(self) -> &'static str {
        match self {
            PruneMode::Off => "off",
            PruneMode::On => "on",
            PruneMode::Verify => "verify",
        }
    }
}

impl std::str::FromStr for PruneMode {
    type Err = String;
    fn from_str(s: &str) -> Result<PruneMode, String> {
        match s {
            "off" => Ok(PruneMode::Off),
            "on" => Ok(PruneMode::On),
            "verify" => Ok(PruneMode::Verify),
            other => Err(format!(
                "unknown prune mode {other:?} (expected off|on|verify)"
            )),
        }
    }
}

/// Parameters of one explorer invocation.
#[derive(Debug, Clone)]
pub struct ExploreParams {
    /// Workloads to explore.
    pub workloads: Vec<WorkloadKind>,
    /// Models to explore (each workload × each model is one config).
    pub models: Vec<ModelKind>,
    /// Persistency flavor.
    pub flavor: Flavor,
    /// Threads (programs) per workload.
    pub threads: usize,
    /// Logical operations per thread.
    pub ops_per_thread: u64,
    /// Workload RNG seed; also salts importance sampling.
    pub seed: u64,
    /// Half-width (cycles) of the boundary neighbourhoods that get
    /// sampling priority: 8 by default, and no `crash_explore` flag
    /// changes it.
    pub pad: u64,
    /// Maximum survivors verified per config; the excess is
    /// importance-sampled away (and counted as `sampled_out`).
    pub points_budget: usize,
    /// Pruning mode.
    pub prune: PruneMode,
    /// Survivors per verification chunk (one chunk = one worker job =
    /// one deterministic re-run).
    pub chunk: usize,
    /// Fault injection: drop every n-th recovery-table undo record
    /// (`0` = off). The broken-model fixture (`--broken-fixture`) sets
    /// it to 1 to prove the explorer catches Theorem 2 violations.
    pub broken_undo_every: u64,
}

impl Default for ExploreParams {
    fn default() -> ExploreParams {
        ExploreParams {
            workloads: vec![WorkloadKind::Queue, WorkloadKind::Cceh],
            models: ModelKind::all().to_vec(),
            flavor: Flavor::Release,
            threads: 2,
            ops_per_thread: 12,
            seed: 7,
            pad: 8,
            points_budget: 2048,
            prune: PruneMode::On,
            chunk: 512,
            broken_undo_every: 0,
        }
    }
}

impl ExploreParams {
    /// The simulated machine: the paper configuration with at least
    /// [`ExploreParams::threads`] cores. Both passes run on it.
    pub fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper();
        cfg.num_cores = cfg.num_cores.max(self.threads);
        cfg
    }

    fn workload_params(&self) -> WorkloadParams {
        WorkloadParams {
            threads: self.threads,
            ops_per_thread: self.ops_per_thread,
            seed: self.seed,
            ..WorkloadParams::default()
        }
    }

    /// The configuration grid in report order (workload-major).
    pub fn configs(&self) -> Vec<(WorkloadKind, ModelKind)> {
        let mut out = Vec::with_capacity(self.workloads.len() * self.models.len());
        for &w in &self.workloads {
            for &m in &self.models {
                out.push((w, m));
            }
        }
        out
    }
}

/// Build the simulation for one config — shared by both passes so the
/// verify re-runs replay exactly the run the collector observed.
fn build_sim(p: &ExploreParams, workload: WorkloadKind, model: ModelKind, collect: bool) -> Sim {
    let programs = make_workload(workload, &p.workload_params());
    let mut b = SimBuilder::new(p.config(), model, p.flavor)
        .programs(programs)
        .with_journal();
    if collect {
        b = b.collect_crash_points();
    }
    let mut sim = b.build();
    if p.broken_undo_every != 0 {
        sim.inject_undo_drop(p.broken_undo_every);
    }
    sim
}

/// One verification chunk: ascending survivor cycles, plus (in
/// [`PruneMode::Verify`]) each survivor's interval-end cycle.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Representative crash cycles, ascending.
    pub points: Vec<u64>,
    /// Interval-end cycles parallel to `points` (empty unless verify
    /// mode).
    pub ends: Vec<u64>,
}

/// Everything pass 1 learned about one config's crash space.
#[derive(Debug, Clone)]
pub struct Pass1 {
    /// Workload explored.
    pub workload: WorkloadKind,
    /// Model explored.
    pub model: ModelKind,
    /// Final cycle of the instrumented run.
    pub end_cycle: u64,
    /// Raw crash points: every cycle in `0..=end_cycle`.
    pub raw_points: u64,
    /// Distinct crash-equivalence states (timeline intervals).
    pub distinct_states: u64,
    /// Candidates dropped by the points budget.
    pub sampled_out: u64,
    /// Boundary events observed, by kind (indexed per
    /// [`BoundaryKind::ALL`]).
    pub boundary_counts: [u64; 10],
    /// Boundary events whose crash cycle's representative survived
    /// sampling (== `boundary_counts` when nothing was sampled out).
    pub boundary_covered: [u64; 10],
    /// Verification chunks (ascending, non-overlapping).
    pub chunks: Vec<Chunk>,
}

/// Collect pass: one instrumented run; returns the pruned, sampled,
/// chunked survivor plan plus the coverage statistics.
pub fn pass1(p: &ExploreParams, workload: WorkloadKind, model: ModelKind) -> Pass1 {
    let mut sim = build_sim(p, workload, model, true);
    sim.run_to_completion();
    let points: CrashPoints = sim
        .take_crash_points()
        .expect("collector attached by build_sim");
    plan_from_points(p, workload, model, &points)
}

/// Deterministic survivor planning from a collected crash space (split
/// from [`pass1`] so unit tests can feed synthetic timelines).
fn plan_from_points(
    p: &ExploreParams,
    workload: WorkloadKind,
    model: ModelKind,
    points: &CrashPoints,
) -> Pass1 {
    let end = points.end_cycle;
    let raw = end + 1;

    // Observable intervals: crashing "at" a cycle means after all its
    // events, so only the last timeline entry per cycle is reachable.
    let cycles = points.timeline.iter().map(|&(c, _)| c);
    let mut starts: Vec<u64> = cycles.take_while(|&c| c <= end).collect();
    starts.dedup();
    if starts.is_empty() {
        starts.push(0);
    }
    let ends = starts.iter().skip(1).map(|&next| next - 1).chain([end]);
    let intervals: Vec<(u64, u64)> = starts.iter().copied().zip(ends).collect();
    let distinct = intervals.len() as u64;

    // Candidates: intervals when pruning, raw cycles otherwise.
    let candidates: Vec<(u64, u64)> = match p.prune {
        PruneMode::On | PruneMode::Verify => intervals.clone(),
        PruneMode::Off => (0..=end).map(|c| (c, c)).collect(),
    };

    // Importance: a candidate whose range intersects any boundary's
    // ±pad neighbourhood is kept first when the budget bites.
    let mut boundary_counts = [0u64; 10];
    for &(_, kind) in &points.boundaries {
        boundary_counts[kind.index()] += 1;
    }
    let important: Vec<bool> = {
        // Sorted, merged padded windows around boundary cycles.
        let mut windows: Vec<(u64, u64)> = points
            .boundaries
            .iter()
            .map(|&(c, _)| (c.saturating_sub(p.pad), (c + p.pad).min(end)))
            .collect();
        windows.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (lo, hi) in windows {
            match merged.last_mut() {
                Some(m) if lo <= m.1 + 1 => m.1 = m.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        candidates
            .iter()
            .map(|&(s, e)| {
                // Any merged window intersecting [s, e]?
                let i = merged.partition_point(|&(_, whi)| whi < s);
                i < merged.len() && merged[i].0 <= e
            })
            .collect()
    };

    // Budget selection: everything if it fits; otherwise important
    // candidates first, then a seeded pseudo-random draw over the rest.
    // Selection works on index sets so the final plan is ascending.
    let budget = p.points_budget.max(1);
    let selected_idx: Vec<usize> = if candidates.len() <= budget {
        (0..candidates.len()).collect()
    } else {
        let mut rng = DetRng::seed(p.seed).split(config_salt(workload, model));
        let salt = rng.next_u64();
        let rank = |i: usize| {
            // Order-independent deterministic priority per candidate.
            asap_sim_core::mix64(candidates[i].0 ^ salt)
        };
        let (imp, rest): (Vec<usize>, Vec<usize>) =
            (0..candidates.len()).partition(|&i| important[i]);
        let take = |pool: &[usize], n: usize| -> Vec<usize> {
            if pool.len() <= n {
                return pool.to_vec();
            }
            let mut keyed: Vec<(u64, usize)> = pool.iter().map(|&i| (rank(i), i)).collect();
            keyed.sort_unstable();
            keyed.truncate(n);
            keyed.into_iter().map(|(_, i)| i).collect()
        };
        let mut sel = take(&imp, budget);
        let remaining = budget - sel.len();
        sel.extend(take(&rest, remaining));
        sel.sort_unstable();
        sel
    };
    let sampled_out = (candidates.len() - selected_idx.len()) as u64;

    // Coverage: a boundary is covered when its cycle falls inside a
    // selected candidate's range.
    let sel_ranges: Vec<(u64, u64)> = selected_idx.iter().map(|&i| candidates[i]).collect();
    let mut boundary_covered = [0u64; 10];
    for &(c, kind) in &points.boundaries {
        let i = sel_ranges.partition_point(|&(s, _)| s <= c);
        if i > 0 && sel_ranges[i - 1].1 >= c {
            boundary_covered[kind.index()] += 1;
        }
    }

    // Chunk the plan.
    let chunk_len = p.chunk.max(1);
    let chunks = sel_ranges
        .chunks(chunk_len)
        .map(|w| Chunk {
            points: w.iter().map(|&(s, _)| s).collect(),
            ends: if p.prune == PruneMode::Verify {
                w.iter().map(|&(_, e)| e).collect()
            } else {
                Vec::new()
            },
        })
        .collect();

    Pass1 {
        workload,
        model,
        end_cycle: end,
        raw_points: raw,
        distinct_states: distinct,
        sampled_out,
        boundary_counts,
        boundary_covered,
        chunks,
    }
}

/// Deterministic per-config RNG salt (stable label hash, not `Hash`).
fn config_salt(workload: WorkloadKind, model: ModelKind) -> u64 {
    let label = format!("{}/{}", workload.label(), model.label());
    asap_sim_core::fnv1a_fold(asap_sim_core::FNV_OFFSET, label.as_bytes())
}

/// One oracle violation found at a crash point.
#[derive(Debug, Clone)]
pub struct ViolationHit {
    /// Crash cycle.
    pub cycle: u64,
    /// Violated rule.
    pub rule: ViolationRule,
    /// Human-readable detail from the oracle.
    pub message: String,
}

/// Cap on the verbatim violations kept per config (counts are always
/// complete; this only bounds report memory).
pub const MAX_KEPT_VIOLATIONS: usize = 20;

/// Result of verifying one chunk.
#[derive(Debug, Clone, Default)]
pub struct ChunkResult {
    /// Crash points actually checked.
    pub checked: u64,
    /// Violations by rule (indexed per [`ViolationRule::ALL`]).
    pub rule_counts: [u64; 6],
    /// Kept violations (capped at [`MAX_KEPT_VIOLATIONS`] per chunk).
    pub violations: Vec<ViolationHit>,
    /// Interval-end cross-checks performed (verify mode).
    pub verify_checked: u64,
    /// Interval ends whose report or recovered image differed from the
    /// interval start — equivalence-relation failures.
    pub verify_mismatches: u64,
    /// Max undo records any checked crash point would apply.
    pub undo_max: usize,
}

/// Verify pass: re-run the config deterministically, stopping at every
/// survivor in `chunk` (ascending) for a non-destructive oracle check.
pub fn verify_chunk(
    p: &ExploreParams,
    workload: WorkloadKind,
    model: ModelKind,
    chunk: &Chunk,
) -> ChunkResult {
    let mut sim = build_sim(p, workload, model, false);
    let mut out = ChunkResult::default();
    for (i, &c) in chunk.points.iter().enumerate() {
        sim.run_for(Cycle(c));
        let (report, img) = sim.crash_check_now().expect("journal enabled by build_sim");
        out.checked += 1;
        out.undo_max = out.undo_max.max(report.undo_records_applied);
        record_violations(&mut out, c, &report);
        if let Some(&e) = chunk.ends.get(i) {
            // Equivalence audit: the interval's last cycle must recover
            // identically to its first.
            sim.run_for(Cycle(e));
            let (end_report, end_img) = sim.crash_check_now().expect("journal enabled");
            out.verify_checked += 1;
            if end_report != report || end_img.content_digest() != img.content_digest() {
                out.verify_mismatches += 1;
            }
        }
    }
    out
}

fn record_violations(out: &mut ChunkResult, cycle: u64, report: &CrashReport) {
    for v in &report.violations {
        let idx = ViolationRule::ALL
            .iter()
            .position(|r| *r == v.rule)
            .expect("rule in ALL");
        out.rule_counts[idx] += 1;
        if out.violations.len() < MAX_KEPT_VIOLATIONS {
            out.violations.push(ViolationHit {
                cycle,
                rule: v.rule,
                message: v.message.clone(),
            });
        }
    }
}

/// Assembled per-config result.
#[derive(Debug, Clone)]
pub struct ConfigReport {
    /// Workload label.
    pub workload: String,
    /// Model label.
    pub model: String,
    /// Final cycle of the instrumented run.
    pub end_cycle: u64,
    /// Raw crash points (`end_cycle + 1`).
    pub raw_points: u64,
    /// Distinct crash-equivalence states.
    pub distinct_states: u64,
    /// Representatives actually verified.
    pub checked: u64,
    /// Candidates dropped by the budget.
    pub sampled_out: u64,
    /// Raw points proven redundant by equivalence (0 with pruning off).
    pub pruned: u64,
    /// Boundary events by kind.
    pub boundary_counts: [u64; 10],
    /// Boundary events inside verified representatives' ranges.
    pub boundary_covered: [u64; 10],
    /// Violations by rule across all checked points.
    pub rule_counts: [u64; 6],
    /// Kept violations (capped).
    pub violations: Vec<ViolationHit>,
    /// Interval-end cross-checks performed / failed (verify mode).
    pub verify_checked: u64,
    /// Equivalence-relation failures (must be 0).
    pub verify_mismatches: u64,
    /// Max undo records any checked crash point would apply.
    pub undo_max: usize,
}

impl ConfigReport {
    /// Total violations across all rules.
    pub fn total_violations(&self) -> u64 {
        self.rule_counts.iter().sum()
    }

    /// `true` when every checked point recovered consistently and every
    /// equivalence cross-check matched.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0 && self.verify_mismatches == 0
    }
}

/// Merge one config's pass-1 plan with its chunk results (chunks in
/// input order — determinism at any worker count relies on it).
pub fn assemble_config(p: &ExploreParams, p1: &Pass1, chunks: &[ChunkResult]) -> ConfigReport {
    let mut rule_counts = [0u64; 6];
    let mut violations = Vec::new();
    let mut checked = 0;
    let mut verify_checked = 0;
    let mut verify_mismatches = 0;
    let mut undo_max = 0;
    for c in chunks {
        checked += c.checked;
        verify_checked += c.verify_checked;
        verify_mismatches += c.verify_mismatches;
        undo_max = undo_max.max(c.undo_max);
        for (i, n) in c.rule_counts.iter().enumerate() {
            rule_counts[i] += n;
        }
        for v in &c.violations {
            if violations.len() < MAX_KEPT_VIOLATIONS {
                violations.push(v.clone());
            }
        }
    }
    let pruned = match p.prune {
        PruneMode::Off => 0,
        _ => p1.raw_points - p1.distinct_states,
    };
    ConfigReport {
        workload: p1.workload.label().to_string(),
        model: p1.model.label().to_string(),
        end_cycle: p1.end_cycle,
        raw_points: p1.raw_points,
        distinct_states: p1.distinct_states,
        checked,
        sampled_out: p1.sampled_out,
        pruned,
        boundary_counts: p1.boundary_counts,
        boundary_covered: p1.boundary_covered,
        rule_counts,
        violations,
        verify_checked,
        verify_mismatches,
        undo_max,
    }
}

/// The whole explorer run: parameters echoed plus one entry per config,
/// in grid order.
#[derive(Debug, Clone)]
pub struct CrashSpaceReport {
    /// Flavor explored.
    pub flavor: Flavor,
    /// Threads per workload.
    pub threads: usize,
    /// Ops per thread.
    pub ops_per_thread: u64,
    /// Seed (workload + sampling).
    pub seed: u64,
    /// Boundary pad.
    pub pad: u64,
    /// Survivor budget per config.
    pub points_budget: usize,
    /// Pruning mode.
    pub prune: PruneMode,
    /// Fault-injection knob echoed (0 = healthy run).
    pub broken_undo_every: u64,
    /// Per-config results in grid order.
    pub configs: Vec<ConfigReport>,
}

impl CrashSpaceReport {
    /// The report of a run with parameters `p`: `p` echoed, plus
    /// `configs` in grid order.
    pub fn new(p: &ExploreParams, configs: Vec<ConfigReport>) -> CrashSpaceReport {
        CrashSpaceReport {
            flavor: p.flavor,
            threads: p.threads,
            ops_per_thread: p.ops_per_thread,
            seed: p.seed,
            pad: p.pad,
            points_budget: p.points_budget,
            prune: p.prune,
            broken_undo_every: p.broken_undo_every,
            configs,
        }
    }

    /// Total raw crash points across configs.
    pub fn total_raw(&self) -> u64 {
        self.configs.iter().map(|c| c.raw_points).sum()
    }

    /// Total equivalence-pruned points.
    pub fn total_pruned(&self) -> u64 {
        self.configs.iter().map(|c| c.pruned).sum()
    }

    /// Total verified representatives.
    pub fn total_checked(&self) -> u64 {
        self.configs.iter().map(|c| c.checked).sum()
    }

    /// Total violations.
    pub fn total_violations(&self) -> u64 {
        self.configs.iter().map(|c| c.total_violations()).sum()
    }

    /// Total equivalence cross-check failures.
    pub fn total_verify_mismatches(&self) -> u64 {
        self.configs.iter().map(|c| c.verify_mismatches).sum()
    }

    /// Fraction of the raw space proven redundant (0.0 with pruning
    /// off or an empty space).
    pub fn prune_ratio(&self) -> f64 {
        let raw = self.total_raw();
        if raw == 0 {
            return 0.0;
        }
        self.total_pruned() as f64 / raw as f64
    }

    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# crash-space exploration ({:?}, {} threads, {} ops/thread, seed {}, \
             budget {}, pad {}, prune {}{})",
            self.flavor,
            self.threads,
            self.ops_per_thread,
            self.seed,
            self.points_budget,
            self.pad,
            self.prune.as_str(),
            if self.broken_undo_every != 0 {
                format!(", BROKEN undo drop 1/{}", self.broken_undo_every)
            } else {
                String::new()
            }
        );
        for c in &self.configs {
            let _ = writeln!(out, "## {}/{}", c.workload, c.model);
            let _ = writeln!(
                out,
                "  raw {} | distinct {} | pruned {} | checked {} | sampled-out {} | end cycle {}",
                c.raw_points, c.distinct_states, c.pruned, c.checked, c.sampled_out, c.end_cycle
            );
            let boundaries: Vec<String> = BoundaryKind::ALL
                .iter()
                .enumerate()
                .filter(|&(i, _)| c.boundary_counts[i] > 0)
                .map(|(i, k)| {
                    format!(
                        "{}={}/{}",
                        k.as_str(),
                        c.boundary_covered[i],
                        c.boundary_counts[i]
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                "  boundaries (covered/total): {}",
                if boundaries.is_empty() {
                    "none".to_string()
                } else {
                    boundaries.join(" ")
                }
            );
            if c.verify_checked > 0 {
                let _ = writeln!(
                    out,
                    "  equivalence cross-checks: {} ({} mismatches)",
                    c.verify_checked, c.verify_mismatches
                );
            }
            if c.is_clean() {
                let _ = writeln!(out, "  clean (max undo applied {})", c.undo_max);
            } else {
                for (i, r) in ViolationRule::ALL.iter().enumerate() {
                    if c.rule_counts[i] > 0 {
                        let _ = writeln!(out, "  VIOLATION {}: {}", r.as_str(), c.rule_counts[i]);
                    }
                }
                for v in &c.violations {
                    let _ = writeln!(out, "    - cycle {}: [{}] {}", v.cycle, v.rule, v.message);
                }
            }
        }
        let _ = writeln!(
            out,
            "total: {} raw, {} distinct, {} pruned ({:.1}%), {} checked, {} violation(s), \
             {} mismatch(es)",
            self.total_raw(),
            self.configs.iter().map(|c| c.distinct_states).sum::<u64>(),
            self.total_pruned(),
            self.prune_ratio() * 100.0,
            self.total_checked(),
            self.total_violations(),
            self.total_verify_mismatches()
        );
        out
    }

    /// The CI-artifact JSON form (hand-rolled; zero-dep workspace).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"flavor\":{},\"threads\":{},\"opsPerThread\":{},\"seed\":{},\"pad\":{},\
             \"pointsBudget\":{},\"prune\":{},\"brokenUndoEvery\":{},\"configs\":[",
            json_str(&format!("{:?}", self.flavor).to_lowercase()),
            self.threads,
            self.ops_per_thread,
            self.seed,
            self.pad,
            self.points_budget,
            json_str(self.prune.as_str()),
            self.broken_undo_every
        );
        for (i, c) in self.configs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"workload\":{},\"model\":{},\"endCycle\":{},\"rawPoints\":{},\
                 \"distinctStates\":{},\"checked\":{},\"sampledOut\":{},\"pruned\":{},\
                 \"verifyChecked\":{},\"verifyMismatches\":{},\"undoMax\":{},\
                 \"boundaries\":{{",
                json_str(&c.workload),
                json_str(&c.model),
                c.end_cycle,
                c.raw_points,
                c.distinct_states,
                c.checked,
                c.sampled_out,
                c.pruned,
                c.verify_checked,
                c.verify_mismatches,
                c.undo_max
            );
            let mut first = true;
            for (j, k) in BoundaryKind::ALL.iter().enumerate() {
                if c.boundary_counts[j] == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{}:{{\"total\":{},\"covered\":{}}}",
                    json_str(k.as_str()),
                    c.boundary_counts[j],
                    c.boundary_covered[j]
                );
            }
            out.push_str("},\"ruleCounts\":{");
            let mut first = true;
            for (j, r) in ViolationRule::ALL.iter().enumerate() {
                if c.rule_counts[j] == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "{}:{}", json_str(r.as_str()), c.rule_counts[j]);
            }
            out.push_str("},\"violations\":[");
            for (j, v) in c.violations.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"cycle\":{},\"rule\":{},\"message\":{}}}",
                    v.cycle,
                    json_str(v.rule.as_str()),
                    json_str(&v.message)
                );
            }
            out.push_str("]}");
        }
        let _ = write!(
            out,
            "],\"totalRaw\":{},\"totalPruned\":{},\"totalChecked\":{},\"totalViolations\":{},\
             \"totalVerifyMismatches\":{},\"pruneRatio\":{:.6}}}",
            self.total_raw(),
            self.total_pruned(),
            self.total_checked(),
            self.total_violations(),
            self.total_verify_mismatches(),
            self.prune_ratio()
        );
        out
    }
}

/// Serial end-to-end driver: pass 1 then every chunk, per config, in
/// grid order. The `crash_explore` binary runs the same passes with the
/// chunks fanned out over its worker pool; both paths produce
/// byte-identical reports.
pub fn explore_all(p: &ExploreParams) -> CrashSpaceReport {
    let configs: Vec<ConfigReport> = p
        .configs()
        .into_iter()
        .map(|(w, m)| {
            let p1 = pass1(p, w, m);
            let results: Vec<ChunkResult> =
                p1.chunks.iter().map(|c| verify_chunk(p, w, m, c)).collect();
            assemble_config(p, &p1, &results)
        })
        .collect();
    CrashSpaceReport::new(p, configs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExploreParams {
        ExploreParams {
            workloads: vec![WorkloadKind::Queue],
            models: vec![ModelKind::Asap],
            ops_per_thread: 6,
            points_budget: 256,
            chunk: 64,
            ..ExploreParams::default()
        }
    }

    #[test]
    fn explores_a_real_config_clean() {
        let p = quick();
        let r = explore_all(&p);
        assert_eq!(r.configs.len(), 1);
        let c = &r.configs[0];
        assert!(c.raw_points > 1000, "raw space too small: {}", c.raw_points);
        assert!(c.distinct_states > 10, "no state variety: {c:?}");
        assert!(c.checked > 0);
        assert!(c.is_clean(), "violations: {:?}", c.violations);
        // Pruning must be doing real work even on a tiny run.
        assert!(
            c.pruned > c.raw_points / 2,
            "pruned {} of {}",
            c.pruned,
            c.raw_points
        );
    }

    #[test]
    fn verify_mode_confirms_equivalence_relation() {
        let p = ExploreParams {
            prune: PruneMode::Verify,
            ..quick()
        };
        let r = explore_all(&p);
        let c = &r.configs[0];
        assert!(c.verify_checked > 0);
        assert_eq!(c.verify_mismatches, 0, "equivalence relation broken");
    }

    #[test]
    fn broken_model_is_caught() {
        // Drop every undo record: ASAP's speculative persists lose
        // their Theorem 2 protection and some crash point must violate.
        let p = ExploreParams {
            workloads: vec![WorkloadKind::Queue],
            models: vec![ModelKind::Asap],
            broken_undo_every: 1,
            points_budget: 2048,
            ..ExploreParams::default()
        };
        let r = explore_all(&p);
        assert!(
            r.total_violations() > 0,
            "broken model not caught: {}",
            r.to_text()
        );
    }

    #[test]
    fn budget_sampling_is_deterministic_and_counted() {
        let p = ExploreParams {
            points_budget: 32,
            chunk: 8,
            ..quick()
        };
        let a = explore_all(&p);
        let b = explore_all(&p);
        assert_eq!(a.to_json(), b.to_json());
        let c = &a.configs[0];
        assert!(c.sampled_out > 0, "budget did not bite: {c:?}");
        assert_eq!(c.checked, 32);
        assert!(c.is_clean());
    }

    #[test]
    fn report_json_is_wellformed_enough() {
        let r = explore_all(&quick());
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(
            j.bytes().filter(|&b| b == b'{').count(),
            j.bytes().filter(|&b| b == b'}').count()
        );
        assert!(j.contains("\"rawPoints\""));
        assert!(r.to_text().contains("clean"));
    }

    #[test]
    fn synthetic_plan_prunes_and_pads() {
        let p = ExploreParams {
            pad: 2,
            points_budget: 4,
            chunk: 16,
            ..quick()
        };
        let mut pts = CrashPoints::new();
        pts.end_cycle = 99;
        // 6 intervals: starts 0, 10, 20, 30, 40, 50.
        for (i, s) in [0u64, 10, 20, 30, 40, 50].iter().enumerate() {
            pts.note_key(*s, i as u64 + 1);
        }
        // One boundary at 21 -> interval starting at 20 is important.
        pts.note_boundary(21, BoundaryKind::FlushAck);
        let plan = plan_from_points(&p, WorkloadKind::Queue, ModelKind::Asap, &pts);
        assert_eq!(plan.raw_points, 100);
        assert_eq!(plan.distinct_states, 6);
        assert_eq!(plan.sampled_out, 2);
        let points: Vec<u64> = plan.chunks.iter().flat_map(|c| c.points.clone()).collect();
        assert_eq!(points.len(), 4);
        assert!(
            points.contains(&20),
            "important interval dropped: {points:?}"
        );
        let mut sorted = points.clone();
        sorted.sort_unstable();
        assert_eq!(points, sorted, "plan must be ascending");
        assert_eq!(plan.boundary_covered[BoundaryKind::FlushAck.index()], 1);
    }
}
