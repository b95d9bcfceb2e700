//! Determinism suite for the open-loop traffic frontend: the same seed
//! must yield byte-identical request banks, trace files, replayed
//! outcomes and latency tables — regardless of sweep worker count.
//!
//! The golden fixture pins a tiny sweep's full latency table. To
//! regenerate after an intentional change:
//!
//! ```text
//! cargo test -q --test traffic_determinism golden -- --nocapture
//! ```
//!
//! and copy the `--- got ---` block into
//! `tests/fixtures/traffic_golden.md`.

use asap::harness::pool;
use asap::harness::traffic::{
    run_traffic, run_traffic_bank, traffic_table, TrafficApp, TrafficScale,
};
use asap::sim::{Flavor, ModelKind};
use asap::workloads::traffic::{format_trace, generate, parse_trace, ArrivalKind, TrafficConfig};
use std::sync::Arc;

/// A sweep small enough for a debug-build integration test, with every
/// axis pinned explicitly (the golden fixture depends on it).
fn pinned_scale() -> TrafficScale {
    TrafficScale {
        requests: 600,
        gaps: vec![900],
        arrival: ArrivalKind::Poisson,
        apps: vec![TrafficApp::Memcached, TrafficApp::Echo],
        models: vec![ModelKind::Baseline, ModelKind::Asap, ModelKind::Eadr],
        flavor: Flavor::Release,
        update_fraction: 0.5,
        zipf_theta: 0.99,
        key_space: 1 << 14,
        seed: 9,
    }
}

#[test]
fn banks_and_trace_files_are_byte_identical_across_generations() {
    let cfg = TrafficConfig {
        requests: 4_000,
        ..TrafficConfig::default()
    };
    let a = generate(&cfg);
    let b = generate(&cfg);
    assert_eq!(a, b, "same config must expand to the same bank");
    assert_eq!(format_trace(&a), format_trace(&b));
    // The arrival timeline alone is also reproducible.
    let at: Vec<u64> = a.iter().map(|r| r.at).collect();
    assert!(at.windows(2).all(|w| w[0] <= w[1]), "time-ordered");
    assert_eq!(at, b.iter().map(|r| r.at).collect::<Vec<_>>());
}

#[test]
fn trace_replay_reproduces_the_generated_outcome() {
    for spec in pinned_scale().specs().iter().take(2) {
        let generated = run_traffic(spec);
        let text = format_trace(&generate(&spec.traffic));
        let replayed = parse_trace(&text).expect("own trace must parse");
        let replay = run_traffic_bank(spec, Arc::new(replayed));
        assert_eq!(
            generated, replay,
            "replaying an exported trace must reproduce the leg bit-for-bit"
        );
    }
}

#[test]
fn latency_tables_are_identical_across_workers() {
    let scale = pinned_scale();
    let mut tables = Vec::new();
    for workers in [1, 3] {
        pool::set_worker_override(workers);
        tables.push(traffic_table(&scale).to_markdown());
    }
    pool::set_worker_override(0);
    assert_eq!(
        tables[0], tables[1],
        "latency tables must not depend on worker count"
    );
}

#[test]
fn golden_traffic_table_is_stable() {
    let golden = include_str!("fixtures/traffic_golden.md");
    let got = traffic_table(&pinned_scale()).to_markdown();
    assert!(
        got == golden,
        "traffic table drifted from tests/fixtures/traffic_golden.md — if \
         the change is intentional, regenerate it (see module docs).\n\
         --- got ---\n{got}\n--- expected ---\n{golden}"
    );
}
