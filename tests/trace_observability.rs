//! Observability-layer integration tests: the Chrome trace sink, the
//! time-series sampler and — most importantly — the invariant that
//! attaching either changes *nothing* about the simulation itself.
//!
//! The golden fixture pins the exact trace bytes of a small
//! deterministic run. Regenerate after a deliberate modelling or
//! trace-format change with:
//! ```text
//! TRACE_GOLDEN_PRINT=1 cargo test --test trace_observability -- --nocapture
//! ```

use asap::model::{Flavor, ModelKind, SimBuilder};
use asap::sim::{ChromeTracer, Cycle, SharedBuf, SimConfig, TraceRecord, Tracer};
use asap::workloads::{make_workload, WorkloadKind, WorkloadParams};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

fn small_config() -> SimConfig {
    SimConfig::builder().cores(2).build().expect("valid config")
}

fn small_builder() -> SimBuilder {
    let params = WorkloadParams {
        threads: 2,
        ops_per_thread: 8,
        seed: 11,
        ..Default::default()
    };
    SimBuilder::new(small_config(), ModelKind::Asap, Flavor::Release)
        .programs(make_workload(WorkloadKind::Queue, &params))
}

/// Run the pinned small workload with a [`ChromeTracer`] attached and
/// return the complete trace bytes (the sim is dropped so the sink is
/// finalized — closing `]` written).
fn traced_run() -> String {
    let buf = SharedBuf::default();
    let mut sim = small_builder()
        .tracer(Box::new(ChromeTracer::new(Box::new(buf.clone()))))
        .build();
    let out = sim.run_to_completion();
    assert!(out.all_done);
    drop(sim);
    buf.contents_string()
}

#[test]
fn chrome_trace_matches_golden_fixture() {
    let got = traced_run();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/trace_golden.json"
    );
    if std::env::var("TRACE_GOLDEN_PRINT").is_ok() {
        std::fs::write(path, &got).expect("write regenerated fixture");
        println!("regenerated {path} ({} bytes)", got.len());
        return;
    }
    let want = std::fs::read_to_string(path).expect("committed trace fixture");
    assert_eq!(
        got, want,
        "trace output diverged from tests/fixtures/trace_golden.json; \
         if the change is deliberate, regenerate with TRACE_GOLDEN_PRINT=1"
    );
}

#[test]
fn chrome_trace_is_structurally_valid() {
    let got = traced_run();
    let t = got.trim();
    assert!(t.starts_with('[') && t.ends_with(']'), "not a JSON array");
    assert!(!got.contains(",\n]"), "trailing comma before close");

    let records: Vec<&str> = got
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| l.trim_end_matches(','))
        .collect();
    assert!(records.len() > 10, "expected a non-trivial trace");

    let mut begins = 0usize;
    let mut ends = 0usize;
    for r in &records {
        // Every record is a single-line object with the required
        // trace_event keys.
        assert!(r.starts_with('{') && r.ends_with('}'), "bad record: {r}");
        for key in ["\"name\":", "\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":"] {
            assert!(r.contains(key), "record missing {key}: {r}");
        }
        if r.contains("\"ph\":\"B\"") {
            begins += 1;
        }
        if r.contains("\"ph\":\"E\"") {
            ends += 1;
        }
    }
    assert_eq!(begins, ends, "unbalanced B/E span records");
    assert!(
        records.iter().any(|r| r.contains("\"ph\":\"M\"")),
        "process_name metadata missing"
    );
}

#[test]
fn tracing_does_not_change_the_simulation() {
    let mut plain = small_builder().build();
    let buf = SharedBuf::default();
    let mut traced = small_builder()
        .tracer(Box::new(ChromeTracer::new(Box::new(buf.clone()))))
        .build();

    let a = plain.run_to_completion();
    let b = traced.run_to_completion();
    assert_eq!(a.cycles, b.cycles, "tracing altered the end time");
    assert_eq!(a.all_done, b.all_done);
    assert_eq!(
        plain.stats().snapshot(),
        traced.stats().snapshot(),
        "tracing altered the statistics"
    );
    assert_eq!(plain.media_writes(), traced.media_writes());
    assert!(!buf.contents_string().is_empty());
}

#[test]
fn sampler_emits_csv_and_does_not_change_the_simulation() {
    let mut plain = small_builder().build();
    let buf = SharedBuf::default();
    let mut sampled = small_builder()
        .sample(Cycle(500), Box::new(buf.clone()))
        .build();

    let a = plain.run_to_completion();
    let b = sampled.run_to_completion();
    assert_eq!(a.cycles, b.cycles, "sampling altered the end time");
    assert_eq!(
        plain.stats().snapshot(),
        sampled.stats().snapshot(),
        "sampling altered the statistics"
    );
    drop(sampled);

    let csv = buf.contents_string();
    let mut lines = csv.lines();
    let header = lines.next().expect("csv header");
    assert!(
        header.starts_with("cycle,pb,et,rt,wpq,mc0_wr"),
        "unexpected header: {header}"
    );
    let cols = header.split(',').count();
    let mut prev_cycle = 0u64;
    let mut rows = 0usize;
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), cols, "ragged row: {line}");
        let cycle: u64 = fields[0].parse().expect("numeric cycle");
        assert!(cycle > prev_cycle, "cycles must increase: {line}");
        assert_eq!(cycle % 500, 0, "off-interval sample: {line}");
        prev_cycle = cycle;
        for f in &fields[1..] {
            let _: u64 = f.parse().expect("numeric occupancy/bandwidth field");
        }
        rows += 1;
    }
    assert!(rows > 0, "expected at least one sample row");
}

/// Stall spans seen by [`SpanSum`]: the open span per core, and the
/// closed cycles summed per reason.
#[derive(Default)]
struct Spans {
    open: HashMap<usize, (&'static str, Cycle)>,
    cycles: HashMap<&'static str, u64>,
}

/// A tracer that sums stall-span lengths by reason.
struct SpanSum(Arc<Mutex<Spans>>);

impl Tracer for SpanSum {
    fn record(&mut self, at: Cycle, rec: TraceRecord) {
        let mut s = self.0.lock().unwrap();
        match rec {
            TraceRecord::StallBegin { tid, reason } => {
                let prev = s.open.insert(tid, (reason, at));
                assert!(
                    prev.is_none(),
                    "core {tid} stalled twice: {prev:?}, {reason}"
                );
            }
            TraceRecord::StallEnd { tid, reason } => {
                let (begun, since) = s.open.remove(&tid).expect("stall end without begin");
                assert_eq!(begun, reason, "core {tid}'s span changed reason");
                *s.cycles.entry(reason).or_default() += at.raw() - since.raw();
            }
            _ => {}
        }
    }
}

/// The `Stats` stall counters and the traced stall spans count the same
/// cycles, cause by cause: PB-full spans are `cycles_stalled`, ET-full
/// spans `ofence_stalled`, dfence spans `dfence_stalled`, and a baseline
/// fence's sync-fence span the counter of its fence kind. Runs the
/// golden fixture's memcached and queue configuration (4-entry RT and
/// PB, 4 threads, 150 ops, seed 2024) under every model and flavour,
/// with the default epoch table and with a 2-entry one, which makes
/// ET-full stalls happen.
#[test]
fn stall_spans_match_stall_counters() {
    let mut seen: HashMap<&str, u64> = HashMap::new();
    for workload in [WorkloadKind::Memcached, WorkloadKind::Queue] {
        for model in [
            ModelKind::Baseline,
            ModelKind::Hops,
            ModelKind::Asap,
            ModelKind::Eadr,
            ModelKind::Bbb,
        ] {
            for flavor in [Flavor::Epoch, Flavor::Release] {
                for et_entries in [None, Some(2)] {
                    let mut cfg = SimConfig::builder()
                        .rt_entries(4)
                        .pb_entries(4)
                        .build()
                        .expect("valid config");
                    if let Some(n) = et_entries {
                        cfg.et_entries = n;
                    }
                    let params = WorkloadParams {
                        threads: cfg.num_cores,
                        ops_per_thread: 150,
                        seed: 2024,
                        ..Default::default()
                    };
                    let spans = Arc::new(Mutex::new(Spans::default()));
                    let mut sim = SimBuilder::new(cfg, model, flavor)
                        .programs(make_workload(workload, &params))
                        .tracer(Box::new(SpanSum(spans.clone())))
                        .build();
                    assert!(sim.run_to_completion().all_done);
                    let case = format!("{workload:?}/{model}/{flavor}/et={et_entries:?}");
                    let s = spans.lock().unwrap();
                    assert!(s.open.is_empty(), "{case}: open spans {:?}", s.open);
                    let span = |reason: &str| s.cycles.get(reason).copied().unwrap_or(0);
                    let st = sim.stats();
                    assert_eq!(st.cycles_stalled, span("PbFull"), "{case}: PB-full");
                    if model == ModelKind::Baseline {
                        assert_eq!(
                            st.ofence_stalled + st.dfence_stalled,
                            span("SyncFence"),
                            "{case}: sync fences"
                        );
                    } else {
                        assert_eq!(st.ofence_stalled, span("EtFull"), "{case}: ET-full");
                        assert_eq!(st.dfence_stalled, span("DFence"), "{case}: dfence");
                    }
                    for reason in ["PbFull", "EtFull", "DFence", "SyncFence"] {
                        *seen.entry(reason).or_default() += span(reason);
                    }
                }
            }
        }
    }
    for reason in ["PbFull", "EtFull", "DFence", "SyncFence"] {
        assert!(seen[reason] > 0, "no {reason} stall anywhere in the matrix");
    }
}
