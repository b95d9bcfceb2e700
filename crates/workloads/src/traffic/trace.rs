//! The traffic trace-file format: a line-oriented text format carrying
//! one request per line, plus a strict parser for replay.
//!
//! ```text
//! # asap-traffic v1
//! # cycle op key        (comment lines and blanks are ignored)
//! 412 set 17
//! 903 get 5
//! 1401 set 17
//! ```
//!
//! The first non-blank line must be the [`TRACE_HEADER`] magic.
//! Arrival cycles must be non-decreasing (replay assumes a
//! time-ordered stream) and at most [`MAX_ARRIVAL_CYCLE`]. Parse errors
//! carry 1-based line numbers.

use super::{Request, RequestOp, MAX_ARRIVAL_CYCLE};
use std::fmt;

/// Magic first line of a traffic trace file.
pub const TRACE_HEADER: &str = "# asap-traffic v1";

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number of the offending line (0 = whole file).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TraceError {}

fn err(line: usize, msg: impl Into<String>) -> TraceError {
    TraceError {
        line,
        msg: msg.into(),
    }
}

/// Render requests as a trace file (header + one line per request).
pub fn format_trace(reqs: &[Request]) -> String {
    let mut out = String::with_capacity(reqs.len() * 16 + TRACE_HEADER.len() + 1);
    out.push_str(TRACE_HEADER);
    out.push('\n');
    for r in reqs {
        out.push_str(&format!("{} {} {}\n", r.at, r.op.label(), r.key));
    }
    out
}

/// Parse a trace file back into a request stream.
///
/// Strict: a bad magic line, malformed field, time travel (a request
/// arriving before its predecessor) or an arrival past
/// [`MAX_ARRIVAL_CYCLE`] is an error, never silently skipped.
pub fn parse_trace(text: &str) -> Result<Vec<Request>, TraceError> {
    let mut reqs = Vec::new();
    let mut header_seen = false;
    let mut last_at = 0u64;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if !header_seen {
            if line != TRACE_HEADER {
                return Err(err(
                    lineno,
                    format!("expected header {TRACE_HEADER:?}, found {line:?}"),
                ));
            }
            header_seen = true;
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_ascii_whitespace();
        let (Some(at_s), Some(op_s), Some(key_s), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(err(
                lineno,
                format!("expected `<cycle> <op> <key>`: {line:?}"),
            ));
        };
        let at: u64 = at_s
            .parse()
            .map_err(|_| err(lineno, format!("bad cycle {at_s:?}")))?;
        if at > MAX_ARRIVAL_CYCLE {
            return Err(err(
                lineno,
                format!("arrival {at} is past the last simulable cycle {MAX_ARRIVAL_CYCLE}"),
            ));
        }
        let op = match op_s {
            "get" => RequestOp::Get,
            "set" => RequestOp::Set,
            other => return Err(err(lineno, format!("bad op {other:?} (get|set)"))),
        };
        let key: u64 = key_s
            .parse()
            .map_err(|_| err(lineno, format!("bad key {key_s:?}")))?;
        if at < last_at {
            return Err(err(
                lineno,
                format!("arrival {at} precedes previous arrival {last_at}"),
            ));
        }
        last_at = at;
        reqs.push(Request { at, op, key });
    }
    if !header_seen {
        return Err(err(0, format!("missing header {TRACE_HEADER:?}")));
    }
    Ok(reqs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Request> {
        vec![
            Request {
                at: 412,
                op: RequestOp::Set,
                key: 17,
            },
            Request {
                at: 903,
                op: RequestOp::Get,
                key: 5,
            },
            Request {
                at: 903,
                op: RequestOp::Set,
                key: 17,
            },
        ]
    }

    #[test]
    fn round_trips_byte_identically() {
        let reqs = sample();
        let text = format_trace(&reqs);
        let back = parse_trace(&text).unwrap();
        assert_eq!(back, reqs);
        // And the re-rendered file is byte-identical.
        assert_eq!(format_trace(&back), text);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = format!("{TRACE_HEADER}\n\n# a comment\n10 get 1\n\n20 set 2\n");
        let reqs = parse_trace(&text).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[1].key, 2);
    }

    #[test]
    fn missing_header_is_an_error() {
        let e = parse_trace("10 get 1\n").unwrap_err();
        assert!(e.msg.contains("header"), "{e}");
        let e = parse_trace("").unwrap_err();
        assert_eq!(e.line, 0);
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let text = format!("{TRACE_HEADER}\n10 get 1\n20 frob 2\n");
        let e = parse_trace(&text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("frob"), "{e}");

        let text = format!("{TRACE_HEADER}\nnot-a-number get 1\n");
        assert_eq!(parse_trace(&text).unwrap_err().line, 2);

        let text = format!("{TRACE_HEADER}\n10 get 1 extra\n");
        assert!(parse_trace(&text).is_err());

        let text = format!("{TRACE_HEADER}\n10 get\n");
        assert!(parse_trace(&text).is_err());

        // The last simulable cycle is accepted; past it is an error on
        // the offending line.
        let text = format!("{TRACE_HEADER}\n10 get 1\n{MAX_ARRIVAL_CYCLE} get 2\n");
        assert_eq!(parse_trace(&text).unwrap()[1].at, MAX_ARRIVAL_CYCLE);
        for at in [MAX_ARRIVAL_CYCLE + 1, u64::MAX] {
            let text = format!("{TRACE_HEADER}\n10 get 1\n{at} get 2\n");
            let e = parse_trace(&text).unwrap_err();
            assert_eq!(e.line, 3, "{e}");
            assert!(e.msg.contains(&at.to_string()), "{e}");
        }
    }

    #[test]
    fn time_travel_is_rejected() {
        let text = format!("{TRACE_HEADER}\n100 get 1\n50 get 2\n");
        let e = parse_trace(&text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("precedes"), "{e}");
    }
}
