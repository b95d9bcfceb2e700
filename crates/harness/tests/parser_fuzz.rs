//! Mutation fuzzing of the hand-written line parsers: `parse_trace` and
//! the outcome-cache decoders `decode_outcome` and `decode_traffic`.
//! Each gets thousands of [`DetRng`] mutations of a valid input (byte
//! substitutions, truncations, duplicated spans, numeric tokens set to
//! or past the integer limits) and must reject each one or yield a value
//! whose encoding parses back to itself. Nothing may panic: the debug
//! test build counts an overflow as one.

use asap_harness::cache::{decode_outcome, decode_traffic, encode_outcome, encode_traffic};
use asap_harness::experiments::{fig08_specs, ExperimentScale};
use asap_harness::run_once;
use asap_harness::traffic::{run_traffic, TrafficScale};
use asap_sim_core::DetRng;
use asap_workloads::traffic::{format_trace, generate, parse_trace, MAX_ARRIVAL_CYCLE};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: u64 = 3000;

/// Numeric-token replacements: the integer limits, `-1` and `nan`.
const EXTREMES: [&str; 5] = [
    "18446744073709551615",                    // u64::MAX
    "18446744073709551616",                    // 2^64
    "340282366920938463463374607431768211455", // u128::MAX
    "-1",
    "nan",
];

/// Substitution bytes: both formats' separators, digits and letters.
const ALPHABET: &[u8] = b"0123456789abcdefxyz =;:,-#%.\n\t";

/// One random mutation of `valid`.
fn mutate(valid: &str, rng: &mut DetRng) -> String {
    let mut b = valid.as_bytes().to_vec();
    let n = b.len();
    match rng.index(4) {
        0 => {
            for _ in 0..=rng.index(3) {
                b[rng.index(n)] = ALPHABET[rng.index(ALPHABET.len())];
            }
        }
        1 => b.truncate(rng.index(n + 1)),
        2 => {
            let from = rng.index(n + 1);
            let span = b[from..(from + rng.index(40)).min(n)].to_vec();
            let at = rng.index(n + 1);
            b.splice(at..at, span);
        }
        _ => {
            // Replace the whole run of digits around a random digit.
            let digits: Vec<usize> = (0..n).filter(|&i| b[i].is_ascii_digit()).collect();
            let i = digits[rng.index(digits.len())];
            let start = b[..i]
                .iter()
                .rposition(|c| !c.is_ascii_digit())
                .map_or(0, |p| p + 1);
            let end = b[i..]
                .iter()
                .position(|c| !c.is_ascii_digit())
                .map_or(n, |p| i + p);
            b.splice(start..end, EXTREMES[rng.index(EXTREMES.len())].bytes());
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Feed [`CASES`] mutations of `valid` to `parse`, failing on a panic or
/// on an accepted value whose encoding does not parse back to the same
/// encoding. Returns the accepted values.
fn fuzz<T>(
    salt: u64,
    valid: &str,
    parse: impl Fn(&str) -> Option<T>,
    encode: impl Fn(&T) -> String,
) -> Vec<T> {
    let mut rng = DetRng::seed(0xF022).split(salt);
    let mut accepted = Vec::new();
    for case in 0..CASES {
        let input = mutate(valid, &mut rng);
        let parsed = catch_unwind(AssertUnwindSafe(|| parse(&input)))
            .unwrap_or_else(|_| panic!("case {case} panicked on {input:?}"));
        if let Some(value) = parsed {
            let line = encode(&value);
            let again = parse(&line).map(|back| encode(&back));
            assert_eq!(again, Some(line), "case {case}: {input:?}");
            accepted.push(value);
        }
    }
    assert!(!accepted.is_empty(), "no mutation was accepted");
    accepted
}

#[test]
fn trace_parser_rejects_or_round_trips_every_mutation() {
    let valid = format_trace(&generate(&Default::default())[..24]);
    let parse = |text: &str| parse_trace(text).ok();
    for reqs in fuzz(1, &valid, parse, |r| format_trace(r)) {
        assert!(reqs.windows(2).all(|w| w[0].at <= w[1].at), "{reqs:?}");
        assert!(reqs.iter().all(|r| r.at <= MAX_ARRIVAL_CYCLE), "{reqs:?}");
    }
}

#[test]
fn outcome_decoder_rejects_or_round_trips_every_mutation() {
    // The first Figure 8 workload under ASAP_RP.
    let out = run_once(&fig08_specs(ExperimentScale::quick())[4]);
    fuzz(2, &encode_outcome(&out), decode_outcome, encode_outcome);
}

#[test]
fn traffic_decoder_rejects_or_round_trips_every_mutation() {
    let mut scale = TrafficScale::quick();
    scale.requests = 64;
    let out = run_traffic(&scale.specs()[0]);
    fuzz(3, &encode_traffic(&out), decode_traffic, encode_traffic);
}
