//! Discrete-event simulation substrate for the ASAP reproduction.
//!
//! The ASAP paper (HPCA 2022) evaluates its persistency architecture on a
//! gem5 full-system simulation. This crate provides the foundation of our
//! purpose-built replacement simulator:
//!
//! * [`Cycle`] — simulated time in CPU cycles (2 GHz per Table II of the
//!   paper), with nanosecond conversion helpers.
//! * [`EventQueue`] — a deterministic priority queue of timed events with
//!   FIFO tie-breaking, the heart of the event-driven engine.
//! * [`SimConfig`] — the hardware configuration from Table II, with a
//!   builder for sensitivity studies.
//! * [`Stats`] — simulation counters using the exact stat names from
//!   Table VI of the paper's artifact appendix, plus occupancy
//!   histograms used by Figures 11 and 12, all declared in one table.
//! * [`LogHistogram`] / [`LatencySplit`] — bounded-memory HDR-style
//!   reducers with bounded relative error (exact below 128), for buffer
//!   occupancies and the open-loop traffic frontend's latency tables.
//! * [`DetRng`] — a seeded deterministic random number generator so every
//!   experiment is exactly reproducible.
//! * [`fnv1a_fold`] — the 64-bit FNV-1a digest every crate shares.
//! * [`LineTable`] — per-run address interning ([`LineAddr`] →
//!   dense [`LineIdx`]) so hot per-line state can live in flat vectors
//!   with deterministic first-touch iteration order.
//! * [`Tracer`] — structured trace sinks ([`NullTracer`], [`TextTracer`],
//!   Chrome/Perfetto-format [`ChromeTracer`]) fed typed [`TraceRecord`]s
//!   by the engine, and [`Sampler`] — a periodic occupancy/bandwidth
//!   time-series recorder. Both observe only; they never schedule
//!   simulation work, so determinism is untouched.
//!
//! # Example
//!
//! ```
//! use asap_sim_core::{Cycle, EventQueue, SimConfig};
//!
//! let cfg = SimConfig::paper();
//! assert_eq!(cfg.num_cores, 4);
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(Cycle(10), "later");
//! q.push(Cycle(5), "sooner");
//! assert_eq!(q.pop(), Some((Cycle(5), "sooner")));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod config;
mod events;
mod fnv;
mod hist;
mod ids;
mod intern;
mod rng;
mod sample;
mod stats;
mod time;
mod trace;

pub use config::{ConfigError, Flavor, ModelKind, SimConfig, SimConfigBuilder};
pub use events::EventQueue;
pub use fnv::{fnv1a_fold, FNV_OFFSET};
pub use hist::{LatencySplit, LogHistogram};
pub use ids::{EpochId, LineAddr, McId, ThreadId, CACHE_LINE_BYTES, CACHE_LINE_SHIFT};
pub use intern::{mix64, LineIdx, LineTable};
pub use rng::DetRng;
pub use sample::Sampler;
pub use stats::{StatMut, StatRef, StatSnapshot, Stats};
pub use time::{Cycle, CYCLES_PER_NS};
pub use trace::{
    env_trace_enabled, render_record, trace_value_enables, ChromeTracer, NullTracer, SharedBuf,
    TextTracer, TraceRecord, Tracer,
};
