//! Open-loop traffic sweeps: fan `(app × model × arrival-rate)` legs
//! over the worker pool and assemble byte-identical latency tables.
//!
//! Each leg replays a deterministic request bank (see
//! [`asap_workloads::traffic`]) through one WHISPER app on one
//! persistency model and reports the queueing/service latency split from
//! bounded-memory [`LatencySplit`] reducers. Banks are generated once
//! per distinct [`TrafficConfig`] and shared `Arc`'d across every leg
//! that replays them (the workload bank's get-or-generate store);
//! results are collected in input order, so the emitted table is
//! identical at any `--workers` count.

use crate::args::SweepArgs;
use crate::report::Table;
use crate::runner::Bank;
use asap_core::{SimBuilder, ThreadProgram};
use asap_sim_core::{Flavor, LatencySplit, ModelKind, SimConfig};
use asap_workloads::traffic::{
    generate, new_sink, ArrivalKind, EchoService, MemcachedService, NstoreService, OpenLoop,
    Request, RequestService, TrafficConfig,
};
use asap_workloads::WorkloadParams;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, LazyLock};

/// The WHISPER apps that can serve an open-loop request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficApp {
    /// Chained hash table, striped bucket locks on SET.
    Memcached,
    /// WAL storage engine, one transaction per SET.
    Nstore,
    /// Thread-local logs with batched master-index merges.
    Echo,
}

impl TrafficApp {
    /// All servable apps, in report order.
    pub fn all() -> [TrafficApp; 3] {
        [TrafficApp::Memcached, TrafficApp::Nstore, TrafficApp::Echo]
    }

    /// CLI / report label.
    pub fn label(self) -> &'static str {
        match self {
            TrafficApp::Memcached => "memcached",
            TrafficApp::Nstore => "nstore",
            TrafficApp::Echo => "echo",
        }
    }

    fn service(
        self,
        thread: usize,
        params: &WorkloadParams,
    ) -> Box<dyn RequestService + Send + Sync> {
        match self {
            TrafficApp::Memcached => Box::new(MemcachedService::new(thread, params)),
            TrafficApp::Nstore => Box::new(NstoreService::new(thread, params)),
            TrafficApp::Echo => Box::new(EchoService::new(thread, params)),
        }
    }
}

impl fmt::Display for TrafficApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for TrafficApp {
    type Err = String;
    fn from_str(s: &str) -> Result<TrafficApp, String> {
        Ok(match s {
            "memcached" => TrafficApp::Memcached,
            "nstore" => TrafficApp::Nstore,
            "echo" => TrafficApp::Echo,
            other => return Err(format!("unknown traffic app: {other}")),
        })
    }
}

/// Everything needed to reproduce one open-loop simulation leg.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// Hardware configuration.
    pub config: SimConfig,
    /// Persistency hardware design.
    pub model: ModelKind,
    /// Persistency flavour.
    pub flavor: Flavor,
    /// Serving application.
    pub app: TrafficApp,
    /// The request stream (fully determines the bank).
    pub traffic: TrafficConfig,
    /// Per-request client think/parse compute, in cycles.
    pub think: u64,
}

/// Results of one leg: the merged latency split plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficOutcome {
    /// Simulated end time in cycles.
    pub cycles: u64,
    /// Requests measured (equals the bank size).
    pub requests: u64,
    /// Latency split merged across server threads, in thread order.
    pub lat: LatencySplit,
    /// [`SimConfig::digest`] of the hardware configuration.
    pub config_digest: u64,
}

impl TrafficOutcome {
    /// Offered-vs-achieved summary: requests per million cycles.
    pub fn throughput_per_mcycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.requests as f64 * 1e6 / self.cycles as f64
        }
    }

    /// Render the leg as one JSON object (hand-rolled like
    /// [`crate::RunManifest::to_json`]; labels need no escaping).
    pub fn to_json(&self, spec: &TrafficSpec) -> String {
        format!(
            concat!(
                "{{\"app\":\"{}\",\"model\":\"{}\",\"flavor\":\"{}\",",
                "\"arrival\":\"{}\",\"mean_gap\":{},\"requests\":{},",
                "\"seed\":{},\"config_digest\":\"{:016x}\",\"cycles\":{},",
                "\"p50\":{},\"p95\":{},\"p99\":{},\"p999\":{},",
                "\"queueing_p99\":{},\"service_p99\":{}}}"
            ),
            spec.app,
            spec.model,
            spec.flavor,
            spec.traffic.arrival,
            spec.traffic.mean_gap,
            self.requests,
            spec.traffic.seed,
            self.config_digest,
            self.cycles,
            self.lat.total.percentile(50.0),
            self.lat.total.percentile(95.0),
            self.lat.total.percentile(99.0),
            self.lat.total.percentile(99.9),
            self.lat.queueing.percentile(99.0),
            self.lat.service.percentile(99.0),
        )
    }
}

/// Bank cache key: every [`TrafficConfig`] field, floats by bit pattern.
type BankKey = (u64, ArrivalKind, u64, u64, u64, u64, u64);

fn bank_key(cfg: &TrafficConfig) -> BankKey {
    (
        cfg.requests,
        cfg.arrival,
        cfg.mean_gap,
        cfg.zipf_theta.to_bits(),
        cfg.key_space,
        cfg.update_fraction.to_bits(),
        cfg.seed,
    )
}

/// Process-wide bank of generated request streams: generation runs once
/// per distinct [`TrafficConfig`] and every leg replaying that config
/// shares the same immutable `Arc`'d bank (the same `Bank` as the
/// closed-loop sweeps' pristine program sets).
pub fn request_bank(cfg: &TrafficConfig) -> Arc<Vec<Request>> {
    static BANKS: LazyLock<Bank<BankKey, Vec<Request>>> = LazyLock::new(Bank::new);
    BANKS.get(bank_key(cfg), || generate(cfg))
}

/// Run one leg over an explicit bank (the `--replay` path; the bank need
/// not match `spec.traffic` beyond being time-ordered).
pub fn run_traffic_bank(spec: &TrafficSpec, bank: Arc<Vec<Request>>) -> TrafficOutcome {
    let threads = spec.config.num_cores;
    let sink = new_sink(threads);
    let params = WorkloadParams {
        threads,
        ops_per_thread: 0,
        seed: spec.traffic.seed,
        ..WorkloadParams::default()
    };
    let requests = bank.len() as u64;
    let programs: Vec<Box<dyn ThreadProgram>> = (0..threads)
        .map(|t| -> Box<dyn ThreadProgram> {
            Box::new(OpenLoop::new(
                spec.app.service(t, &params),
                Arc::clone(&bank),
                t,
                threads,
                spec.think,
                Arc::clone(&sink),
            ))
        })
        .collect();
    let mut sim = SimBuilder::new(spec.config.clone(), spec.model, spec.flavor)
        .programs(programs)
        .build();
    let out = sim.run_to_completion();
    assert!(out.all_done, "open-loop legs always drain their bank");
    let mut lat = LatencySplit::new();
    for split in sink.lock().expect("latency sink poisoned").iter() {
        lat.merge(split);
    }
    debug_assert_eq!(lat.count(), requests);
    TrafficOutcome {
        cycles: sim.now().raw(),
        requests,
        lat,
        config_digest: spec.config.digest(),
    }
}

/// Run one leg, generating (or reusing) the bank from `spec.traffic`.
pub fn run_traffic(spec: &TrafficSpec) -> TrafficOutcome {
    run_traffic_bank(spec, request_bank(&spec.traffic))
}

/// Scale of a traffic sweep: which legs to run and how many requests
/// each replays.
#[derive(Debug, Clone)]
pub struct TrafficScale {
    /// Requests per leg.
    pub requests: u64,
    /// Mean inter-arrival gaps (cycles) swept as the offered-load axis.
    pub gaps: Vec<u64>,
    /// Arrival process shape.
    pub arrival: ArrivalKind,
    /// Apps swept.
    pub apps: Vec<TrafficApp>,
    /// Models swept.
    pub models: Vec<ModelKind>,
    /// Persistency flavour.
    pub flavor: Flavor,
    /// SET fraction of the request mix.
    pub update_fraction: f64,
    /// Zipf skew of key popularity (0 = uniform).
    pub zipf_theta: f64,
    /// Key-space size.
    pub key_space: u64,
    /// Master seed.
    pub seed: u64,
}

impl TrafficScale {
    /// CI scale: ≥ 1 M replayed requests total (3 apps × 5 models ×
    /// 2 offered loads × 35 k requests = 1.05 M) in a few minutes.
    pub fn quick() -> TrafficScale {
        TrafficScale {
            requests: 35_000,
            gaps: vec![500, 2_000],
            arrival: ArrivalKind::Poisson,
            apps: TrafficApp::all().to_vec(),
            models: ModelKind::all().to_vec(),
            flavor: Flavor::Release,
            update_fraction: 0.5,
            zipf_theta: 0.99,
            key_space: 1 << 16,
            seed: 42,
        }
    }

    /// Paper scale: a finer offered-load axis and 200 k requests per leg.
    pub fn full() -> TrafficScale {
        TrafficScale {
            requests: 200_000,
            gaps: vec![300, 500, 1_000, 2_000, 4_000],
            ..TrafficScale::quick()
        }
    }

    /// The flat leg list, in table row order.
    pub fn specs(&self) -> Vec<TrafficSpec> {
        let mut specs = Vec::new();
        for &app in &self.apps {
            for &model in &self.models {
                for &gap in &self.gaps {
                    specs.push(TrafficSpec {
                        config: SimConfig::paper(),
                        model,
                        flavor: self.flavor,
                        app,
                        traffic: TrafficConfig {
                            requests: self.requests,
                            arrival: self.arrival,
                            mean_gap: gap,
                            zipf_theta: self.zipf_theta,
                            key_space: self.key_space,
                            update_fraction: self.update_fraction,
                            seed: self.seed,
                        },
                        think: 0,
                    });
                }
            }
        }
        specs
    }
}

/// Append one leg's row to a traffic table.
pub fn push_traffic_row(table: &mut Table, spec: &TrafficSpec, out: &TrafficOutcome) {
    let load = [
        spec.traffic.arrival.to_string(),
        spec.traffic.mean_gap.to_string(),
    ];
    push_row(table, spec, load, out);
}

/// The one row builder of generated and replayed legs: `arrival` and
/// `gap` fill the offered-load columns.
fn push_row(
    table: &mut Table,
    spec: &TrafficSpec,
    [arrival, gap]: [String; 2],
    out: &TrafficOutcome,
) {
    table.push_row(vec![
        spec.app.to_string(),
        spec.model.to_string(),
        arrival,
        gap,
        out.requests.to_string(),
        format!("{:.2}", out.throughput_per_mcycle()),
        out.lat.total.percentile(50.0).to_string(),
        out.lat.total.percentile(95.0).to_string(),
        out.lat.total.percentile(99.0).to_string(),
        out.lat.total.percentile(99.9).to_string(),
        out.lat.queueing.percentile(99.0).to_string(),
        out.lat.service.percentile(99.0).to_string(),
    ]);
}

/// Column headers of [`traffic_table`] (shared with the CI validator).
pub const TRAFFIC_HEADERS: [&str; 12] = [
    "app",
    "model",
    "arrival",
    "gap",
    "requests",
    "req_per_Mcyc",
    "p50",
    "p95",
    "p99",
    "p99.9",
    "queue_p99",
    "service_p99",
];

/// Run every leg of `scale` through the sweep executor (in-process, no
/// cache) and assemble the latency table (input-order rows;
/// byte-identical at any worker count).
pub fn traffic_table(scale: &TrafficScale) -> Table {
    let specs = scale.specs();
    let (outs, _) = crate::exec::sweep_traffic("traffic", &specs, &SweepArgs::default());
    table_from_runs(&specs, &outs)
}

/// Assemble the latency table from precomputed legs (row `i` comes from
/// `specs[i]` / `outs[i]`); the binaries use this to render and emit
/// JSON provenance from one sweep.
pub fn table_from_runs(specs: &[TrafficSpec], outs: &[TrafficOutcome]) -> Table {
    assert_eq!(specs.len(), outs.len(), "one outcome per spec");
    let mut table = Table::new(
        "Open-loop traffic: latency percentiles (cycles)",
        &TRAFFIC_HEADERS,
    );
    for (spec, out) in specs.iter().zip(outs) {
        push_traffic_row(&mut table, spec, out);
    }
    table
}

/// The latency table of legs that replayed the trace file `path`: the
/// trace fixes the arrivals, so the offered-load columns read `replay`
/// and `-`.
pub fn replay_table(path: &str, specs: &[TrafficSpec], outs: &[TrafficOutcome]) -> Table {
    assert_eq!(specs.len(), outs.len(), "one outcome per spec");
    let mut table = Table::new(
        format!("Open-loop traffic: replay of {path} (cycles)"),
        &TRAFFIC_HEADERS,
    );
    for (spec, out) in specs.iter().zip(outs) {
        push_row(&mut table, spec, ["replay".into(), "-".into()], out);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool;

    fn tiny_scale() -> TrafficScale {
        TrafficScale {
            requests: 400,
            gaps: vec![1_500],
            apps: vec![TrafficApp::Nstore, TrafficApp::Memcached],
            models: vec![ModelKind::Asap, ModelKind::Baseline],
            ..TrafficScale::quick()
        }
    }

    #[test]
    fn app_labels_round_trip() {
        for app in TrafficApp::all() {
            assert_eq!(app.label().parse::<TrafficApp>().unwrap(), app);
        }
        assert!("vacation".parse::<TrafficApp>().is_err());
    }

    #[test]
    fn run_traffic_measures_every_request() {
        let spec = &tiny_scale().specs()[0];
        let out = run_traffic(spec);
        assert_eq!(out.requests, 400);
        assert_eq!(out.lat.count(), 400);
        assert!(out.cycles > 0);
        assert!(out.throughput_per_mcycle() > 0.0);
    }

    #[test]
    fn bank_is_shared_across_legs() {
        let cfg = tiny_scale().specs()[0].traffic.clone();
        let a = request_bank(&cfg);
        let b = request_bank(&cfg);
        assert!(Arc::ptr_eq(&a, &b), "same config must share one bank");
    }

    #[test]
    fn table_rows_follow_spec_order_and_shape() {
        let scale = tiny_scale();
        let t = traffic_table(&scale);
        assert_eq!(t.len(), scale.specs().len());
        assert_eq!(t.headers.len(), TRAFFIC_HEADERS.len());
        assert_eq!(t.rows[0][0], "nstore");
        assert_eq!(t.rows[2][0], "memcached");
        // Latency columns are integers (cycles) and non-zero.
        for row in &t.rows {
            assert!(row[6].parse::<u64>().unwrap() > 0, "p50 in {row:?}");
        }
    }

    #[test]
    fn tables_are_identical_across_worker_counts() {
        let scale = tiny_scale();
        let mut tables = Vec::new();
        for workers in [1, 4] {
            pool::set_worker_override(workers);
            tables.push(traffic_table(&scale).to_markdown());
        }
        pool::set_worker_override(0);
        assert_eq!(
            tables[0], tables[1],
            "traffic tables must be byte-identical across worker counts"
        );
    }

    #[test]
    fn slower_offered_load_means_less_queueing() {
        let scale = tiny_scale();
        let mut spec = scale.specs()[0].clone();
        spec.traffic.mean_gap = 120;
        let hot = run_traffic(&spec);
        spec.traffic.mean_gap = 40_000;
        let cold = run_traffic(&spec);
        assert!(
            hot.lat.queueing.percentile(99.0) > cold.lat.queueing.percentile(99.0),
            "higher offered load must queue more ({} vs {})",
            hot.lat.queueing.percentile(99.0),
            cold.lat.queueing.percentile(99.0)
        );
        assert_eq!(cold.lat.queueing.max(), 0, "unloaded run must not queue");
    }

    #[test]
    fn json_rows_carry_provenance() {
        let spec = &tiny_scale().specs()[0];
        let out = run_traffic(spec);
        let j = out.to_json(spec);
        for key in [
            "\"app\":\"nstore\"",
            "\"model\":\"asap\"",
            "\"arrival\":\"poisson\"",
            "\"requests\":400",
            "\"config_digest\":\"",
            "\"p999\":",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
