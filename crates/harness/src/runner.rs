//! One-simulation runner: builds the system for a (config, model,
//! flavour, workload) tuple and extracts the metrics the figures need.

use asap_core::{Flavor, ModelKind, SimBuilder};
use asap_sim_core::{Cycle, SimConfig, Stats};
use asap_workloads::{make_workload, WorkloadKind, WorkloadParams};
use std::time::{Duration, Instant};

/// Everything needed to reproduce one simulation.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Hardware configuration (Table II defaults via
    /// [`SimConfig::paper`]).
    pub config: SimConfig,
    /// Persistency hardware design.
    pub model: ModelKind,
    /// Persistency flavour (EP/RP).
    pub flavor: Flavor,
    /// Workload to run.
    pub workload: WorkloadKind,
    /// Logical operations per thread.
    pub ops_per_thread: u64,
    /// RNG seed.
    pub seed: u64,
}

impl RunSpec {
    /// Ops-per-thread sentinel for windowed runs: far larger than any
    /// window can retire, yet far from `u64::MAX` so per-thread offset
    /// arithmetic in the workload generators cannot overflow.
    pub const NEVER_FINISH: u64 = u64::MAX / 2;

    /// Convert this spec into the windowed form used with
    /// [`run_window`]: the thread programs are sized to
    /// [`RunSpec::NEVER_FINISH`] so no thread retires inside the
    /// measurement window and the window length alone decides what is
    /// observed (Figure 2's 1 ms methodology).
    pub fn windowed(mut self) -> RunSpec {
        self.ops_per_thread = Self::NEVER_FINISH;
        self
    }
}

/// Provenance block attached to every [`RunOutcome`]: everything needed
/// to attribute a number in a report to the exact simulation that
/// produced it, plus the host wall-clock time of the run.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Persistency hardware design.
    pub model: ModelKind,
    /// Persistency flavour (EP/RP).
    pub flavor: Flavor,
    /// Workload label.
    pub workload: WorkloadKind,
    /// Simulated thread count.
    pub threads: usize,
    /// Logical operations per thread.
    pub ops_per_thread: u64,
    /// RNG seed.
    pub seed: u64,
    /// [`SimConfig::digest`] of the hardware configuration.
    pub config_digest: u64,
    /// Zipf skew of key popularity, when the run overrode the
    /// workload's default (`asap_sim --zipf`).
    pub zipf_theta: Option<f64>,
    /// Host wall-clock duration of the run. Excluded from equality:
    /// two runs of the same spec are the same run, however long the
    /// host happened to take.
    pub wall: Duration,
}

impl PartialEq for RunManifest {
    fn eq(&self, other: &RunManifest) -> bool {
        self.model == other.model
            && self.flavor == other.flavor
            && self.workload == other.workload
            && self.threads == other.threads
            && self.ops_per_thread == other.ops_per_thread
            && self.seed == other.seed
            && self.config_digest == other.config_digest
            && self.zipf_theta == other.zipf_theta
    }
}

impl RunManifest {
    /// Derive the provenance of `spec` (wall time is filled in when the
    /// run finishes).
    pub fn of_spec(spec: &RunSpec) -> RunManifest {
        RunManifest {
            model: spec.model,
            flavor: spec.flavor,
            workload: spec.workload,
            threads: spec.config.num_cores,
            ops_per_thread: spec.ops_per_thread,
            seed: spec.seed,
            config_digest: spec.config.digest(),
            zipf_theta: None,
            wall: Duration::ZERO,
        }
    }

    /// Render as a single JSON object (hand-rolled; every field is a
    /// number, a known label or a hex digest, so no escaping is needed).
    /// `zipf_theta` appears only when set.
    pub fn to_json(&self) -> String {
        let zipf = self
            .zipf_theta
            .map_or_else(String::new, |z| format!("\"zipf_theta\":{z},"));
        format!(
            concat!(
                "{{\"model\":\"{}\",\"flavor\":\"{}\",\"workload\":\"{}\",",
                "\"threads\":{},\"ops_per_thread\":{},\"seed\":{},{}",
                "\"config_digest\":\"{:016x}\",\"wall_ms\":{:.3}}}"
            ),
            self.model,
            self.flavor,
            self.workload,
            self.threads,
            self.ops_per_thread,
            self.seed,
            zipf,
            self.config_digest,
            self.wall.as_secs_f64() * 1e3,
        )
    }
}

/// Metrics extracted from one finished (or truncated) run.
///
/// Runs are deterministic, so two outcomes of the same [`RunSpec`]
/// compare equal — the property the parallel-sweep tests pin down (the
/// manifest's wall-clock field is excluded from equality).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// End time in cycles.
    pub cycles: u64,
    /// Logical operations completed.
    pub ops: u64,
    /// Full statistics block.
    pub stats: Stats,
    /// Max recovery-table occupancy across MCs (Figure 12).
    pub rt_max_occupancy: usize,
    /// NVM media line writes (Figure 9).
    pub media_writes: u64,
    /// Write-bandwidth utilization fraction (Figure 13).
    pub media_utilization: f64,
    /// Whether every thread retired (false for windowed runs).
    pub all_done: bool,
    /// Provenance of the run (seed, config digest, model, wall time…).
    pub manifest: RunManifest,
}

fn params_for(spec: &RunSpec) -> WorkloadParams {
    WorkloadParams {
        threads: spec.config.num_cores,
        ops_per_thread: spec.ops_per_thread,
        seed: spec.seed,
        ..WorkloadParams::default()
    }
}

/// Does nothing: every leg generates its own programs. Kept only for the
/// two `prewarm_workloads` call sites of the benchmark crate
/// (`perfledger/src/jobs.rs`), which is changed only together with the
/// benchmark; no harness code calls it.
pub fn prewarm_workloads(_specs: &[RunSpec]) {}

/// `(0, 0)`: there is no program bank to hit or miss. Kept only for the
/// two `workload_bank_stats` call sites of the benchmark crate, like
/// [`prewarm_workloads`].
pub fn workload_bank_stats() -> (u64, u64) {
    (0, 0)
}

/// The one way a closed-loop leg is built: generate `spec`'s thread
/// programs and hand them to a fresh builder. Legs share nothing:
/// generating a set takes well under a microsecond and one allocation
/// per program plus the vector, no more than cloning a shared set would
/// (DESIGN.md §10).
fn build_sim(spec: &RunSpec) -> SimBuilder {
    SimBuilder::new(spec.config.clone(), spec.model, spec.flavor)
        .programs(make_workload(spec.workload, &params_for(spec)))
}

fn outcome(
    sim: &mut asap_core::Sim,
    all_done: bool,
    spec: &RunSpec,
    started: Instant,
) -> RunOutcome {
    // The simulator is done measuring: move the stats out instead of
    // cloning the histograms (visible on multi-thousand-run sweeps).
    let stats = sim.take_stats();
    let mut manifest = RunManifest::of_spec(spec);
    manifest.wall = started.elapsed();
    RunOutcome {
        cycles: sim.now().raw(),
        ops: stats.ops_completed,
        rt_max_occupancy: sim.rt_max_occupancy(),
        media_writes: sim.media_writes(),
        media_utilization: sim.media_utilization(),
        all_done,
        stats,
        manifest,
    }
}

/// Run the workload to completion and collect metrics.
pub fn run_once(spec: &RunSpec) -> RunOutcome {
    let started = Instant::now();
    let mut sim = build_sim(spec).build();
    let out = sim.run_to_completion();
    outcome(&mut sim, out.all_done, spec, started)
}

/// Run the workload to completion with the write journal enabled, then
/// hand the journal and dependency graph to the happens-before
/// persist-race detector (`asap_core::race`). Returns the usual metrics
/// alongside the race report. Journalling costs memory proportional to
/// the store count, so this is for analysis runs, not sweeps.
pub fn run_race_check(spec: &RunSpec) -> (RunOutcome, asap_core::RaceReport) {
    let started = Instant::now();
    let mut sim = build_sim(spec).with_journal().build();
    let out = sim.run_to_completion();
    let report = sim.race_check();
    (outcome(&mut sim, out.all_done, spec, started), report)
}

/// Run for a fixed simulated window (Figure 2 uses 1 ms) and collect
/// metrics; the workload is sized by `spec.ops_per_thread` and should be
/// large enough not to finish early (see [`RunSpec::windowed`]).
pub fn run_window(spec: &RunSpec, window: Cycle) -> RunOutcome {
    let started = Instant::now();
    let mut sim = build_sim(spec).build();
    let out = sim.run_for(window);
    outcome(&mut sim, out.all_done, spec, started)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(model: ModelKind, workload: WorkloadKind) -> RunSpec {
        RunSpec {
            config: SimConfig::paper(),
            model,
            flavor: Flavor::Release,
            workload,
            ops_per_thread: 20,
            seed: 7,
        }
    }

    #[test]
    fn run_once_produces_metrics() {
        let out = run_once(&spec(ModelKind::Asap, WorkloadKind::Queue));
        assert!(out.all_done);
        assert!(out.cycles > 0);
        assert_eq!(out.ops, 80); // 4 threads x 20 ops
        assert!(out.media_writes > 0);
    }

    #[test]
    fn run_window_truncates() {
        let s = spec(ModelKind::Asap, WorkloadKind::Cceh).windowed();
        let out = run_window(&s, Cycle(20_000));
        assert!(!out.all_done);
        assert!(out.cycles <= 20_000);
    }

    #[test]
    fn windowed_sets_sentinel() {
        let s = spec(ModelKind::Asap, WorkloadKind::Cceh).windowed();
        assert_eq!(s.ops_per_thread, RunSpec::NEVER_FINISH);
        assert_eq!(RunSpec::NEVER_FINISH, u64::MAX / 2);
    }

    #[test]
    fn run_race_check_reports_on_a_clean_workload() {
        let (out, report) = run_race_check(&spec(ModelKind::Asap, WorkloadKind::Queue));
        assert!(out.all_done);
        assert!(report.is_clean(), "races: {:?}", report.races);
        assert!(report.epochs_with_writes > 0);
        // `race_check` filters one lint-style finding per race through
        // the waiver table.
        let findings = asap_analysis::driver::race_findings(&report);
        assert_eq!(findings.len(), report.races.len());
    }

    #[test]
    fn same_spec_same_outcome() {
        let a = run_once(&spec(ModelKind::Hops, WorkloadKind::PClht));
        let b = run_once(&spec(ModelKind::Hops, WorkloadKind::PClht));
        assert_eq!(a, b, "identical specs must give identical outcomes");
    }

    #[test]
    fn manifest_captures_provenance_and_ignores_wall_time() {
        let s = spec(ModelKind::Asap, WorkloadKind::Queue);
        let out = run_once(&s);
        let m = &out.manifest;
        assert_eq!(m.model, ModelKind::Asap);
        assert_eq!(m.flavor, Flavor::Release);
        assert_eq!(m.workload, WorkloadKind::Queue);
        assert_eq!(m.threads, 4);
        assert_eq!(m.ops_per_thread, 20);
        assert_eq!(m.seed, 7);
        assert_eq!(m.config_digest, s.config.digest());

        // Wall time varies run to run but must not break equality.
        let mut other = m.clone();
        other.wall = m.wall + std::time::Duration::from_secs(5);
        assert_eq!(*m, other);
        // Any provenance field difference must break it.
        let mut diff = m.clone();
        diff.seed = 8;
        assert_ne!(*m, diff);
        let mut diff = m.clone();
        diff.zipf_theta = Some(0.9);
        assert_ne!(*m, diff);
    }

    #[test]
    fn manifest_json_shape() {
        let s = spec(ModelKind::Hops, WorkloadKind::Queue);
        let mut m = RunManifest::of_spec(&s);
        m.wall = std::time::Duration::from_millis(12);
        let j = m.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        for key in [
            "\"model\":\"hops\"",
            "\"flavor\":\"RP\"",
            "\"workload\":\"queue\"",
            "\"threads\":4",
            "\"ops_per_thread\":20",
            "\"seed\":7",
            "\"config_digest\":\"",
            "\"wall_ms\":12.000",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(!j.contains("zipf"), "unset zipf_theta rendered: {j}");
        m.zipf_theta = Some(0.9);
        let j = m.to_json();
        assert!(
            j.contains("\"seed\":7,\"zipf_theta\":0.9,\"config_digest\""),
            "{j}"
        );
    }
}
