//! Open-loop, trace-driven traffic frontend.
//!
//! The closed-loop workloads (each thread issues its next op the moment
//! the previous one completes) measure *throughput*; real services are
//! driven by request streams that arrive whether or not the server is
//! ready, and the interesting number is the *latency distribution* —
//! especially its tail — under a given offered load. This module supplies
//! that frontend:
//!
//! - open-loop [`ArrivalProcess`]es (fixed, Poisson, bursty MMPP,
//!   diurnal ramp), all on the deterministic [`DetRng`];
//! - Zipf-skewed key popularity via [`crate::KeySampler`];
//! - [`generate`]: a `(config, seed)` pair deterministically expanded
//!   into a time-ordered request bank;
//! - a text trace format ([`format_trace`] / [`parse_trace`]) so banks
//!   can be exported, inspected and replayed byte-identically;
//! - [`RequestService`] adapters mapping requests onto the WHISPER apps'
//!   persist-critical sections (memcached, echo, nstore);
//! - the [`OpenLoop`] driver: a [`ThreadProgram`](asap_core::ThreadProgram)
//!   that sleeps until each arrival, serves it, and records the
//!   queueing-delay / service-time split in constant memory
//!   ([`LatencySplit`](asap_sim_core::LatencySplit)).
//!
//! Determinism contract: a request bank is a pure function of its
//! [`TrafficConfig`]; the measured latency tables are a pure function of
//! bank × app × timing model — independent of host threads and worker
//! counts.

mod arrivals;
mod driver;
mod service;
mod trace;

pub use arrivals::{ArrivalKind, ArrivalProcess, BURST_FACTOR};
pub use driver::{new_sink, LatencySink, OpenLoop};
pub use service::{EchoService, MemcachedService, NstoreService, RequestService, ServiceStep};
pub use trace::{format_trace, parse_trace, TraceError, TRACE_HEADER};

use crate::common::KeySampler;
use asap_sim_core::DetRng;
use std::fmt;

/// What a request asks the service to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestOp {
    /// Read the value of a key.
    Get,
    /// Write (insert or update) a key.
    Set,
}

impl RequestOp {
    /// Trace-file / report label.
    pub fn label(self) -> &'static str {
        match self {
            RequestOp::Get => "get",
            RequestOp::Set => "set",
        }
    }
}

impl fmt::Display for RequestOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One request in an open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Absolute arrival instant, in simulated cycles.
    pub at: u64,
    /// The operation.
    pub op: RequestOp,
    /// The key operated on (1-based, as [`KeySampler`] produces).
    pub key: u64,
}

/// Parameters fully determining a generated request bank.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Number of requests in the bank.
    pub requests: u64,
    /// Arrival process shape.
    pub arrival: ArrivalKind,
    /// Mean inter-arrival gap in cycles (offered load = `1 / mean_gap`).
    pub mean_gap: u64,
    /// Zipf skew of key popularity; `0.0` means uniform.
    pub zipf_theta: f64,
    /// Key-space size.
    pub key_space: u64,
    /// Fraction of requests that are SETs (the rest are GETs).
    pub update_fraction: f64,
    /// Master seed; every derived stream (arrivals, keys, op mix) is
    /// split from it.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> TrafficConfig {
        TrafficConfig {
            requests: 10_000,
            arrival: ArrivalKind::Poisson,
            mean_gap: 600,
            zipf_theta: 0.99,
            key_space: 1 << 16,
            update_fraction: 0.5,
            seed: 42,
        }
    }
}

/// Deterministically expand a [`TrafficConfig`] into a time-ordered
/// request bank. Same config ⇒ byte-identical bank, on any host.
pub fn generate(cfg: &TrafficConfig) -> Vec<Request> {
    let mut base = DetRng::seed(cfg.seed);
    // Independent derived streams so e.g. changing the arrival process
    // does not perturb which keys are popular.
    let arrival_rng = base.split(0x5452_4146_4649_4301);
    let mut key_rng = base.split(0x5452_4146_4649_4302);
    let mut op_rng = base.split(0x5452_4146_4649_4303);

    let mut arrivals = ArrivalProcess::new(cfg.arrival, cfg.mean_gap, arrival_rng);
    let sampler = KeySampler::zipf(cfg.key_space, cfg.zipf_theta);

    let mut bank = Vec::with_capacity(cfg.requests as usize);
    for _ in 0..cfg.requests {
        let at = arrivals.next_at();
        let key = sampler.sample(&mut key_rng);
        let op = if op_rng.chance(cfg.update_fraction) {
            RequestOp::Set
        } else {
            RequestOp::Get
        };
        bank.push(Request { at, op, key });
    }
    bank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_time_ordered() {
        let cfg = TrafficConfig {
            requests: 5_000,
            ..TrafficConfig::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5_000);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.iter().all(|r| (1..=cfg.key_space).contains(&r.key)));
    }

    #[test]
    fn update_fraction_shapes_the_op_mix() {
        let mut cfg = TrafficConfig {
            requests: 20_000,
            update_fraction: 0.25,
            ..TrafficConfig::default()
        };
        let sets = generate(&cfg)
            .iter()
            .filter(|r| r.op == RequestOp::Set)
            .count();
        let frac = sets as f64 / cfg.requests as f64;
        assert!((0.22..0.28).contains(&frac), "set fraction {frac}");

        cfg.update_fraction = 0.0;
        assert!(generate(&cfg).iter().all(|r| r.op == RequestOp::Get));
        cfg.update_fraction = 1.0;
        assert!(generate(&cfg).iter().all(|r| r.op == RequestOp::Set));
    }

    #[test]
    fn zipf_skews_key_popularity() {
        let cfg = TrafficConfig {
            requests: 30_000,
            zipf_theta: 0.99,
            key_space: 1 << 14,
            ..TrafficConfig::default()
        };
        let bank = generate(&cfg);
        // Under YCSB-default skew the single hottest key draws far more
        // than its uniform share (which would be ~2 hits here).
        let mut counts = std::collections::HashMap::new();
        for r in &bank {
            *counts.entry(r.key).or_insert(0u64) += 1;
        }
        let hottest = counts.values().max().copied().unwrap();
        assert!(hottest > 500, "zipf 0.99 hot key only {hottest} hits");

        let uniform = TrafficConfig {
            zipf_theta: 0.0,
            ..cfg
        };
        let bank = generate(&uniform);
        let mut counts = std::collections::HashMap::new();
        for r in &bank {
            *counts.entry(r.key).or_insert(0u64) += 1;
        }
        let hottest = counts.values().max().copied().unwrap();
        assert!(hottest < 50, "uniform hot key drew {hottest} hits");
    }

    #[test]
    fn changing_the_arrival_kind_keeps_keys_and_ops() {
        // Derived-stream isolation: the key/op sequences only depend on
        // the seed, not on which arrival process is in front.
        let poisson = TrafficConfig::default();
        let bursty = TrafficConfig {
            arrival: ArrivalKind::Bursty,
            ..poisson.clone()
        };
        let a = generate(&poisson);
        let b = generate(&bursty);
        assert_ne!(
            a.iter().map(|r| r.at).collect::<Vec<_>>(),
            b.iter().map(|r| r.at).collect::<Vec<_>>()
        );
        assert_eq!(
            a.iter().map(|r| (r.op, r.key)).collect::<Vec<_>>(),
            b.iter().map(|r| (r.op, r.key)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn banks_round_trip_through_the_trace_format() {
        let cfg = TrafficConfig {
            requests: 1_000,
            ..TrafficConfig::default()
        };
        let bank = generate(&cfg);
        let text = format_trace(&bank);
        assert_eq!(parse_trace(&text).unwrap(), bank);
    }
}
