//! Structured simulation tracing.
//!
//! The paper's claims live in *where cycles go* — fence stalls, persist
//! buffer blocking, NACK fallback windows — so the engine emits typed
//! [`TraceRecord`]s at every protocol-visible transition instead of an
//! unstructured debug dump. Records flow into a pluggable [`Tracer`]
//! sink:
//!
//! * [`TextTracer`] — human-readable lines (one per record) to any
//!   writer; the `ASAP_TRACE=1` default sink, replacing the old raw
//!   `eprintln!` event dump.
//! * [`ChromeTracer`] — Chrome `trace_event`-format JSON, loadable in
//!   Perfetto / `chrome://tracing`. Core-side records land on process 0
//!   (one track per core), memory-controller records on process 1 (one
//!   track per MC). Stall records map to `B`/`E` duration spans so stall
//!   windows are visible as bars; everything else is an instant.
//!
//! The engine holds its sink as an `Option`, so running without a
//! tracer costs one predictable branch per emission site.
//!
//! Sinks **observe, never schedule**: a tracer cannot alter simulated
//! time, so golden timing fixtures are unaffected by tracing.
//!
//! The `ASAP_TRACE` environment variable enables the default text sink.
//! Values `0`, empty, `off`, `false` and `no` (any case) are treated as
//! *disabled* — `ASAP_TRACE=0 asap_sim` must not trace.

use crate::time::Cycle;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// One typed event emitted by the simulation engine.
///
/// `line` fields carry the line's byte address; `ts` fields carry the
/// per-thread epoch timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRecord {
    /// A core stopped executing; `reason` names the block
    /// (`PbFull` / `EtFull` / `DFence` / `SyncFence`). Opens a span.
    StallBegin {
        /// Stalled core.
        tid: usize,
        /// Block name.
        reason: &'static str,
    },
    /// The matching stall span closed.
    StallEnd {
        /// Core that resumed.
        tid: usize,
        /// Block name (matches the corresponding [`TraceRecord::StallBegin`]).
        reason: &'static str,
    },
    /// A persist-buffer (or baseline `clwb`) flush left the core for an MC.
    FlushIssue {
        /// Issuing core.
        tid: usize,
        /// Persist-buffer entry id (journal seq for baseline flushes).
        entry: u64,
        /// Line byte address.
        line: u64,
        /// Destination memory controller.
        mc: usize,
        /// Whether the flush is speculative (epoch not yet safe).
        early: bool,
    },
    /// A flush ack returned to the core.
    FlushAck {
        /// Receiving core.
        tid: usize,
        /// Persist-buffer entry id.
        entry: u64,
    },
    /// A flush NACK returned to the core (recovery table full, §V-D).
    FlushNack {
        /// Receiving core.
        tid: usize,
        /// Persist-buffer entry id.
        entry: u64,
    },
    /// An epoch finished committing (dependency graph updated).
    EpochCommit {
        /// Owning core.
        tid: usize,
        /// Epoch timestamp.
        ts: u64,
    },
    /// Commit messages were sent to the MCs that saw early flushes (§V-C).
    CommitSent {
        /// Owning core.
        tid: usize,
        /// Epoch timestamp.
        ts: u64,
        /// Number of MCs messaged.
        mcs: usize,
    },
    /// A cross-dependency-resolved message arrived at `tid`.
    Cdr {
        /// Dependent core.
        tid: usize,
        /// Source epoch's owning core.
        src_tid: usize,
        /// Source epoch timestamp.
        src_ts: u64,
    },
    /// The recovery table created an undo record (speculative persist).
    RtUndo {
        /// Memory controller.
        mc: usize,
        /// Line byte address.
        line: u64,
    },
    /// The recovery table created/extended a delay record (write collision).
    RtDelay {
        /// Memory controller.
        mc: usize,
        /// Line byte address.
        line: u64,
    },
    /// The recovery table NACKed an early flush (table full).
    RtNack {
        /// Memory controller.
        mc: usize,
        /// Line byte address.
        line: u64,
    },
    /// The WPQ back-pressured a flush (queue full; retry scheduled).
    WpqBusy {
        /// Memory controller.
        mc: usize,
        /// Line byte address.
        line: u64,
    },
    /// Power failed.
    Crash,
    /// Crash recovery finished (undo records applied, §V-E).
    Recovery {
        /// Undo records applied across MCs.
        undo_applied: u64,
    },
}

/// A trace sink. Implementations must not influence simulation state —
/// the engine hands out records strictly after the corresponding state
/// change and ignores the sink's behaviour entirely.
pub trait Tracer: Send {
    /// Consume one record emitted at simulated time `at`.
    fn record(&mut self, at: Cycle, rec: TraceRecord);
}

// -------------------------------------------------------------------
// Environment gating
// -------------------------------------------------------------------

/// Does this `ASAP_TRACE` value enable tracing?
///
/// `None` (unset) and the explicit "off" spellings — empty, `0`, `off`,
/// `false`, `no`, in any case and ignoring surrounding whitespace — are
/// disabled; anything else (`1`, `text`, …) enables.
pub fn trace_value_enables(value: Option<&str>) -> bool {
    match value {
        None => false,
        Some(s) => {
            let t = s.trim().to_ascii_lowercase();
            !(t.is_empty() || t == "0" || t == "off" || t == "false" || t == "no")
        }
    }
}

/// Sample the `ASAP_TRACE` environment variable (see
/// [`trace_value_enables`]). Non-UTF-8 values count as disabled.
pub fn env_trace_enabled() -> bool {
    trace_value_enables(std::env::var("ASAP_TRACE").ok().as_deref())
}

// -------------------------------------------------------------------
// Text sink
// -------------------------------------------------------------------

/// Human-readable sink: one line per record. I/O errors are ignored
/// (tracing must never abort a simulation).
pub struct TextTracer {
    out: Box<dyn Write + Send>,
}

impl TextTracer {
    /// Trace into an arbitrary writer.
    pub fn new(out: Box<dyn Write + Send>) -> TextTracer {
        TextTracer { out }
    }

    /// Trace to standard error (the `ASAP_TRACE=1` default).
    pub fn stderr() -> TextTracer {
        TextTracer::new(Box::new(std::io::stderr()))
    }
}

/// Render one record as the text sink prints it (without the timestamp
/// column). Public so tests and other frontends can share the format.
pub fn render_record(rec: &TraceRecord) -> String {
    use TraceRecord::*;
    match *rec {
        StallBegin { tid, reason } => format!("core{tid} stall.{reason} begin"),
        StallEnd { tid, reason } => format!("core{tid} stall.{reason} end"),
        FlushIssue {
            tid,
            entry,
            line,
            mc,
            early,
        } => format!(
            "core{tid} flush.issue entry={entry} line={line:#x} mc={mc}{}",
            if early { " early" } else { "" }
        ),
        FlushAck { tid, entry } => format!("core{tid} flush.ack entry={entry}"),
        FlushNack { tid, entry } => format!("core{tid} flush.nack entry={entry}"),
        EpochCommit { tid, ts } => format!("core{tid} epoch.commit ts={ts}"),
        CommitSent { tid, ts, mcs } => {
            format!("core{tid} epoch.commit_msg ts={ts} mcs={mcs}")
        }
        Cdr {
            tid,
            src_tid,
            src_ts,
        } => format!("core{tid} cdr src=core{src_tid}@{src_ts}"),
        RtUndo { mc, line } => format!("mc{mc} rt.undo line={line:#x}"),
        RtDelay { mc, line } => format!("mc{mc} rt.delay line={line:#x}"),
        RtNack { mc, line } => format!("mc{mc} rt.nack line={line:#x}"),
        WpqBusy { mc, line } => format!("mc{mc} wpq.busy line={line:#x}"),
        Crash => "sim crash".to_string(),
        Recovery { undo_applied } => format!("sim recovery undo_applied={undo_applied}"),
    }
}

impl Tracer for TextTracer {
    fn record(&mut self, at: Cycle, rec: TraceRecord) {
        let _ = writeln!(self.out, "[{:>10}] {}", at.raw(), render_record(&rec));
    }
}

impl Drop for TextTracer {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

// -------------------------------------------------------------------
// Chrome trace_event sink
// -------------------------------------------------------------------

/// Chrome `trace_event` JSON sink (the array form), loadable in
/// Perfetto or `chrome://tracing`.
///
/// Timestamps are raw simulated cycles presented in the format's `ts`
/// field (nominally microseconds — viewers only need monotonicity, and
/// cycles keep the output exact and deterministic). Core records use
/// `pid` 0 with one `tid` per core; MC records use `pid` 1 with one
/// `tid` per controller; whole-machine records (crash/recovery) use
/// `pid` 2. Process-name metadata records label the three.
///
/// The closing `]` is written when the tracer drops, so the file is
/// valid JSON once the owning simulator goes away. I/O errors are
/// ignored (tracing must never abort a simulation).
pub struct ChromeTracer {
    out: Box<dyn Write + Send>,
    wrote_any: bool,
}

impl ChromeTracer {
    /// Trace into an arbitrary writer (`BufWriter<File>` for the CLI's
    /// `--trace-out`, [`SharedBuf`] in tests).
    pub fn new(out: Box<dyn Write + Send>) -> ChromeTracer {
        let mut t = ChromeTracer {
            out,
            wrote_any: false,
        };
        let _ = t.out.write_all(b"[\n");
        // Process-name metadata first, so even an empty trace labels
        // its tracks (and stays byte-deterministic).
        t.emit(
            r#"{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"cores"}}"#,
        );
        t.emit(r#"{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"memory controllers"}}"#);
        t.emit(
            r#"{"name":"process_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"machine"}}"#,
        );
        t
    }

    fn emit(&mut self, line: &str) {
        if self.wrote_any {
            let _ = self.out.write_all(b",\n");
        } else {
            self.wrote_any = true;
        }
        let _ = self.out.write_all(line.as_bytes());
    }
}

impl Tracer for ChromeTracer {
    fn record(&mut self, at: Cycle, rec: TraceRecord) {
        use TraceRecord::*;
        let ts = at.raw();
        let line = match rec {
            StallBegin { tid, reason } => format!(
                r#"{{"name":"stall:{reason}","cat":"core","ph":"B","ts":{ts},"pid":0,"tid":{tid}}}"#
            ),
            StallEnd { tid, reason } => format!(
                r#"{{"name":"stall:{reason}","cat":"core","ph":"E","ts":{ts},"pid":0,"tid":{tid}}}"#
            ),
            FlushIssue {
                tid,
                entry,
                line,
                mc,
                early,
            } => format!(
                r#"{{"name":"flush.issue","cat":"pb","ph":"i","s":"t","ts":{ts},"pid":0,"tid":{tid},"args":{{"entry":{entry},"line":{line},"mc":{mc},"early":{early}}}}}"#
            ),
            FlushAck { tid, entry } => format!(
                r#"{{"name":"flush.ack","cat":"pb","ph":"i","s":"t","ts":{ts},"pid":0,"tid":{tid},"args":{{"entry":{entry}}}}}"#
            ),
            FlushNack { tid, entry } => format!(
                r#"{{"name":"flush.nack","cat":"pb","ph":"i","s":"t","ts":{ts},"pid":0,"tid":{tid},"args":{{"entry":{entry}}}}}"#
            ),
            EpochCommit { tid, ts: ets } => format!(
                r#"{{"name":"epoch.commit","cat":"epoch","ph":"i","s":"t","ts":{ts},"pid":0,"tid":{tid},"args":{{"ts":{ets}}}}}"#
            ),
            CommitSent { tid, ts: ets, mcs } => format!(
                r#"{{"name":"epoch.commit_msg","cat":"epoch","ph":"i","s":"t","ts":{ts},"pid":0,"tid":{tid},"args":{{"ts":{ets},"mcs":{mcs}}}}}"#
            ),
            Cdr {
                tid,
                src_tid,
                src_ts,
            } => format!(
                r#"{{"name":"cdr","cat":"epoch","ph":"i","s":"t","ts":{ts},"pid":0,"tid":{tid},"args":{{"src_tid":{src_tid},"src_ts":{src_ts}}}}}"#
            ),
            RtUndo { mc, line } => format!(
                r#"{{"name":"rt.undo","cat":"rt","ph":"i","s":"t","ts":{ts},"pid":1,"tid":{mc},"args":{{"line":{line}}}}}"#
            ),
            RtDelay { mc, line } => format!(
                r#"{{"name":"rt.delay","cat":"rt","ph":"i","s":"t","ts":{ts},"pid":1,"tid":{mc},"args":{{"line":{line}}}}}"#
            ),
            RtNack { mc, line } => format!(
                r#"{{"name":"rt.nack","cat":"rt","ph":"i","s":"t","ts":{ts},"pid":1,"tid":{mc},"args":{{"line":{line}}}}}"#
            ),
            WpqBusy { mc, line } => format!(
                r#"{{"name":"wpq.busy","cat":"wpq","ph":"i","s":"t","ts":{ts},"pid":1,"tid":{mc},"args":{{"line":{line}}}}}"#
            ),
            Crash => format!(
                r#"{{"name":"crash","cat":"machine","ph":"i","s":"g","ts":{ts},"pid":2,"tid":0}}"#
            ),
            Recovery { undo_applied } => format!(
                r#"{{"name":"recovery","cat":"machine","ph":"i","s":"g","ts":{ts},"pid":2,"tid":0,"args":{{"undo_applied":{undo_applied}}}}}"#
            ),
        };
        self.emit(&line);
    }
}

impl Drop for ChromeTracer {
    fn drop(&mut self) {
        let _ = self.out.write_all(b"\n]\n");
        let _ = self.out.flush();
    }
}

// -------------------------------------------------------------------
// Shared in-memory writer (tests, report capture)
// -------------------------------------------------------------------

/// A clonable in-memory byte buffer implementing [`Write`]: hand one
/// clone to a sink and keep another to read the output back after the
/// simulator (and with it the sink) drops.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// Create an empty buffer.
    pub fn new() -> SharedBuf {
        SharedBuf::default()
    }

    /// Snapshot the bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("SharedBuf poisoned").clone()
    }

    /// Snapshot the bytes written so far as a UTF-8 string (lossy).
    pub fn contents_string(&self) -> String {
        String::from_utf8_lossy(&self.contents()).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("SharedBuf poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_spellings_disable_tracing() {
        for off in [
            None,
            Some(""),
            Some("0"),
            Some("off"),
            Some("OFF"),
            Some("false"),
            Some("no"),
            Some("  0  "),
        ] {
            assert!(!trace_value_enables(off), "{off:?} must disable");
        }
        for on in [Some("1"), Some("text"), Some("yes"), Some("chrome")] {
            assert!(trace_value_enables(on), "{on:?} must enable");
        }
    }

    #[test]
    fn chrome_trace_is_valid_even_when_empty() {
        let buf = SharedBuf::new();
        let t = ChromeTracer::new(Box::new(buf.clone()));
        drop(t);
        let s = buf.contents_string();
        assert!(s.starts_with("[\n"));
        assert!(s.trim_end().ends_with(']'));
        assert!(s.contains(r#""name":"process_name""#));
        // No trailing comma before the closing bracket.
        assert!(!s.contains(",\n]"));
    }

    #[test]
    fn chrome_trace_pairs_spans_and_separates_processes() {
        let buf = SharedBuf::new();
        let mut t = ChromeTracer::new(Box::new(buf.clone()));
        t.record(
            Cycle(5),
            TraceRecord::StallBegin {
                tid: 1,
                reason: "DFence",
            },
        );
        t.record(
            Cycle(9),
            TraceRecord::StallEnd {
                tid: 1,
                reason: "DFence",
            },
        );
        t.record(Cycle(10), TraceRecord::RtUndo { mc: 0, line: 0x40 });
        drop(t);
        let s = buf.contents_string();
        assert!(s.contains(r#""name":"stall:DFence","cat":"core","ph":"B","ts":5"#));
        assert!(s.contains(r#""ph":"E","ts":9"#));
        assert!(
            s.contains(r#""name":"rt.undo","cat":"rt","ph":"i","s":"t","ts":10,"pid":1,"tid":0"#)
        );
    }

    #[test]
    fn text_tracer_renders_one_line_per_record() {
        let buf = SharedBuf::new();
        let mut t = TextTracer::new(Box::new(buf.clone()));
        t.record(Cycle(7), TraceRecord::EpochCommit { tid: 2, ts: 4 });
        t.record(Cycle(8), TraceRecord::Crash);
        drop(t);
        let s = buf.contents_string();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("core2 epoch.commit ts=4"));
        assert!(s.contains("sim crash"));
    }

    #[test]
    fn render_covers_every_variant() {
        use TraceRecord::*;
        let recs = [
            StallBegin {
                tid: 0,
                reason: "PbFull",
            },
            StallEnd {
                tid: 0,
                reason: "PbFull",
            },
            FlushIssue {
                tid: 1,
                entry: 2,
                line: 0x80,
                mc: 1,
                early: true,
            },
            FlushAck { tid: 1, entry: 2 },
            FlushNack { tid: 1, entry: 2 },
            EpochCommit { tid: 0, ts: 3 },
            CommitSent {
                tid: 0,
                ts: 3,
                mcs: 2,
            },
            Cdr {
                tid: 1,
                src_tid: 0,
                src_ts: 3,
            },
            RtUndo { mc: 0, line: 0x40 },
            RtDelay { mc: 0, line: 0x40 },
            RtNack { mc: 0, line: 0x40 },
            WpqBusy { mc: 0, line: 0x40 },
            Crash,
            Recovery { undo_applied: 4 },
        ];
        for r in recs {
            assert!(!render_record(&r).is_empty());
        }
    }
}
