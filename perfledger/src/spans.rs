//! Host-time spans around each call the benchmark makes into a layer.
//!
//! [`span`] always times its closure (the untraced run needs leg times
//! too); only while recording is on does it also keep a [`Span`] —
//! name, start, end, parent and leg id — in memory. Traced runs write the
//! kept spans out once, at exit, as Chrome trace JSON, and derive the
//! host-time ledger from them. Spans sit in this crate's code, around
//! calls into `harness`, `analysis`, `cache-sim` and `sim-core`; nothing
//! inside those crates is instrumented.

use crate::json;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, nanoseconds since recording began.
    pub start_ns: u64,
    /// End, nanoseconds since recording began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The leg this span belongs to (`None` for set-up and reduction).
    pub leg: Option<u32>,
    /// Small per-thread id for the trace viewer.
    pub thread: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

fn store() -> &'static Mutex<Vec<Span>> {
    static SPANS: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Start keeping spans for the rest of the process.
pub(crate) fn start_recording() {
    origin();
    RECORDING.store(true, Ordering::Relaxed);
}

/// The innermost open span on this thread (pass it to [`span_under`] to
/// parent spans opened on pool threads).
pub(crate) fn current() -> Option<usize> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Time `f` as a span named `name`, parented to this thread's innermost
/// open span.
pub(crate) fn span<T>(
    name: &'static str,
    leg: Option<u32>,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    span_under(current(), name, leg, f)
}

/// Time `f` as a span named `name` under an explicit parent.
pub(crate) fn span_under<T>(
    parent: Option<usize>,
    name: &'static str,
    leg: Option<u32>,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    if !RECORDING.load(Ordering::Relaxed) {
        let t0 = Instant::now();
        let out = f();
        return (out, t0.elapsed());
    }
    let t0 = Instant::now();
    let start_ns = t0.duration_since(origin()).as_nanos() as u64;
    let idx = {
        let mut spans = store().lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            leg,
            thread: THREAD.with(|t| *t),
        });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    let out = f();
    let elapsed = t0.elapsed();
    STACK.with(|s| s.borrow_mut().pop());
    store().lock().expect("span store poisoned")[idx].end_ns = start_ns + elapsed.as_nanos() as u64;
    (out, elapsed)
}

/// Every span kept so far, in start order per thread.
pub fn recorded() -> Vec<Span> {
    store().lock().expect("span store poisoned").clone()
}

/// Total duration of the spans named `name`, in milliseconds.
pub(crate) fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum()
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children, as on a worker pool,
/// are counted once).
pub(crate) fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// The spans as a Chrome `trace_event` JSON array (complete `X` events,
/// microseconds), self time and leg id in each event's args.
pub fn chrome_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let cat = s.name.split('.').next().unwrap_or(s.name);
        let _ = write!(
            out,
            "{}{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\
             \"args\":{{\"span\":{i},\"parent\":{},\"leg\":{},\"self_us\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            json::quote(s.name),
            json::quote(cat),
            json::num(s.start_ns as f64 / 1e3),
            json::num(s.dur_ns() as f64 / 1e3),
            s.thread,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.leg.map_or("null".to_string(), |l| l.to_string()),
            json::num(self_ns as f64 / 1e3),
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            leg: None,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            sp("job", 0, 100, None),
            sp("a", 10, 30, Some(0)),
            // Two overlapping pool-thread children cover 40..70 once.
            sp("b", 40, 60, Some(0)),
            sp("c", 50, 70, Some(0)),
            // A grandchild counts against its own parent only.
            sp("d", 12, 20, Some(1)),
            // A child running past its parent is clipped.
            sp("e", 95, 120, Some(0)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 20 - 30 - 5, 20 - 8, 20, 20, 8, 25]
        );
        assert_eq!(total_ms(&spans, "b"), 20.0 / 1e6);
        let trace = chrome_json(&spans);
        let parsed = json::parse(&trace).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), spans.len());
    }

    #[test]
    fn unrecorded_spans_still_time_their_closure() {
        let (v, d) = span("noop", None, || 7);
        assert_eq!(v, 7);
        assert!(d < Duration::from_secs(1));
    }
}
