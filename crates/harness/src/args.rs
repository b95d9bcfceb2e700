//! Strict CLI flag parsing shared by the harness binaries.
//!
//! The binaries previously parsed numeric flags with
//! `arg(..).and_then(|s| s.parse().ok()).unwrap_or(default)`, which
//! silently swallowed malformed values: `--threads banana` ran with the
//! default worker count and `--crash-at 12x` ran with *no crash at all*.
//! These helpers make a malformed or missing value a hard error — the
//! binary prints a diagnostic naming the flag and value and exits with
//! status 2 — while an *absent* flag still falls back to its default.
//! A flag is missing its value when nothing follows it or another
//! `--flag` does, for string flags as for numeric ones:
//! `--cache-dir --full` is an error, not a directory named `--full`.

use asap_sim_core::SimConfig;
use std::fmt::Display;
use std::str::FromStr;

/// The raw value following `name`: `Ok(None)` when the flag is absent,
/// an error when it is present without a value.
fn raw_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("flag {name} requires a value")),
    }
}

/// Print `error: {msg}` and exit with status 2, the bad-usage status
/// of every harness binary.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The raw value following `name`, if the flag is present; a flag with
/// no value exits with status 2 and a diagnostic.
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    match raw_value(args, name) {
        Ok(v) => v.map(str::to_string),
        Err(msg) => usage_error(&msg),
    }
}

/// Is the bare flag `name` present?
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parse `--name VALUE`. `Ok(None)` when the flag is absent; an error
/// message when the flag is present without a value or the value does
/// not parse.
pub fn try_parse_arg<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    let Some(v) = raw_value(args, name)? else {
        return Ok(None);
    };
    v.parse()
        .map(Some)
        .map_err(|e| format!("invalid value '{v}' for {name}: {e}"))
}

/// Parse `--name VALUE`, exiting with status 2 and a diagnostic on a
/// malformed value. Absent flag → `None`.
pub fn parse_arg<T: FromStr>(args: &[String], name: &str) -> Option<T>
where
    T::Err: Display,
{
    match try_parse_arg(args, name) {
        Ok(v) => v,
        Err(msg) => usage_error(&msg),
    }
}

/// Parse a labelled flag such as `--model asap`. Absent flag → `None`;
/// an unknown label exits with status 2, listing the `known` ones.
pub fn parse_label<T: FromStr>(args: &[String], name: &str, known: &str) -> Option<T> {
    let v = arg_value(args, name)?;
    match v.parse() {
        Ok(t) => Some(t),
        Err(_) => usage_error(&format!("invalid value '{v}' for {name}; known: {known}")),
    }
}

/// Parse `--name VALUE` with a default for an absent flag; malformed
/// values still exit with status 2.
pub fn parse_arg_or<T: FromStr>(args: &[String], name: &str, default: T) -> T
where
    T::Err: Display,
{
    parse_arg(args, name).unwrap_or(default)
}

/// Parse `--threads N`, the simulated core count, into the paper
/// configuration with that many cores. A count that
/// `SimConfigBuilder::build` rejects (zero, or above `MAX_CORES`) exits
/// with status 2, naming the flag and carrying its `ConfigError`.
pub fn threads_config(args: &[String], default: usize) -> SimConfig {
    let threads = parse_arg_or(args, "--threads", default);
    SimConfig::builder()
        .cores(threads)
        .build()
        .unwrap_or_else(|e| usage_error(&format!("invalid value '{threads}' for --threads: {e}")))
}

/// Parse `--zipf THETA`, the Zipf skew of key popularity. Absent flag
/// → `None`; `0` means uniform keys. A value outside `[0, 1)`, NaN
/// included, exits with status 2 naming the flag.
pub fn parse_zipf(args: &[String]) -> Option<f64> {
    let theta = parse_arg::<f64>(args, "--zipf")?;
    if !(0.0..1.0).contains(&theta) {
        usage_error(&format!("--zipf must be within [0,1), got {theta}"));
    }
    Some(theta)
}

/// The sweep-wide flag set shared by every harness binary,
/// replacing the per-binary copies of `--threads`/`--workers` parsing:
///
/// | flag | effect |
/// |---|---|
/// | `--full` | paper-scale run (default: quick) |
/// | `--seed N` | RNG seed override |
/// | `--workers N` / `--threads N` | pin the worker pool |
/// | `--progress` | stderr `N/M jobs, ETA …` line |
/// | `--cache-dir DIR` | digest-keyed outcome cache (a rerun resumes) |
///
/// Malformed values exit with status 2 ([`parse_arg`]'s contract);
/// flags not in the table are left to the binary. [`SweepArgs::apply`]
/// installs the process-global settings (worker override, progress);
/// [`SweepArgs::init`] is the one-call form the binaries use.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepArgs {
    /// Paper-scale run requested (`--full`).
    pub full: bool,
    /// RNG seed override (`--seed`).
    pub seed: Option<u64>,
    /// Worker-pool pin (`--workers` / `--threads`).
    pub workers: Option<usize>,
    /// Progress reporting (`--progress`).
    pub progress: bool,
    /// Outcome-cache directory (`--cache-dir`).
    pub cache_dir: Option<String>,
}

impl SweepArgs {
    /// Parse the shared flags from `argv` (strict: malformed values exit
    /// with status 2). Pure — process globals are only touched by
    /// [`SweepArgs::apply`].
    pub fn parse(argv: &[String]) -> SweepArgs {
        SweepArgs {
            full: has_flag(argv, "--full"),
            seed: parse_arg(argv, "--seed"),
            workers: parse_arg(argv, "--workers").or_else(|| parse_arg(argv, "--threads")),
            progress: has_flag(argv, "--progress"),
            cache_dir: arg_value(argv, "--cache-dir"),
        }
    }

    /// Install the process-global settings: worker-pool pin, progress
    /// toggle.
    pub fn apply(&self) {
        if let Some(n) = self.workers {
            crate::pool::set_worker_override(n);
        }
        if self.progress {
            crate::pool::set_progress(true);
        }
    }

    /// Parse [`std::env::args`] and [`SweepArgs::apply`] the globals —
    /// the first line of every sweep binary's `main`.
    pub fn init() -> SweepArgs {
        let argv: Vec<String> = std::env::args().collect();
        let sa = SweepArgs::parse(&argv);
        sa.apply();
        sa
    }

    /// The closed-loop experiment scale these flags select.
    pub fn scale(&self) -> crate::experiments::ExperimentScale {
        let mut scale = if self.full {
            crate::experiments::ExperimentScale::full()
        } else {
            crate::experiments::ExperimentScale::quick()
        };
        if let Some(s) = self.seed {
            scale.seed = s;
        }
        scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn sweep_args_defaults_and_flags() {
        assert_eq!(SweepArgs::parse(&argv(&["prog"])), SweepArgs::default());

        // Flags outside the table are ignored, values included: the
        // benchmark's sweep-pass child still passes a flag the harness
        // dropped, and so may scripts that pass `--resume` or `--shard`.
        let sa = SweepArgs::parse(&argv(&[
            "prog",
            "--full",
            "--seed",
            "9",
            "--threads",
            "2",
            "--not-a-sweep-flag",
            "0",
            "--cache-dir",
            "/tmp/c",
            "--resume",
            "--shard",
            "1/2",
            "--progress",
        ]));
        assert!(sa.full && sa.progress);
        assert_eq!(sa.seed, Some(9));
        assert_eq!(sa.workers, Some(2), "--threads is an alias");
        assert_eq!(sa.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(sa.scale().seed, 9);
        assert_eq!(
            sa.scale().ops,
            crate::experiments::ExperimentScale::full().ops
        );
    }

    #[test]
    fn absent_flag_is_none() {
        let args = argv(&["prog", "--other", "1"]);
        assert_eq!(try_parse_arg::<u64>(&args, "--threads"), Ok(None));
        assert_eq!(parse_arg_or(&args, "--threads", 4usize), 4);
        assert!(!has_flag(&args, "--threads"));
    }

    #[test]
    fn present_flag_parses() {
        let args = argv(&["prog", "--threads", "8"]);
        assert_eq!(try_parse_arg::<usize>(&args, "--threads"), Ok(Some(8)));
        assert_eq!(parse_arg_or(&args, "--threads", 4usize), 8);
        assert!(has_flag(&args, "--threads"));
    }

    #[test]
    fn malformed_value_is_an_error_naming_flag_and_value() {
        let args = argv(&["prog", "--threads", "banana"]);
        let err = try_parse_arg::<usize>(&args, "--threads").unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        assert!(err.contains("banana"), "{err}");
    }

    #[test]
    fn trailing_digit_garbage_is_an_error() {
        // The original bug: "12x" parsed to None and silently disabled
        // the crash entirely.
        let args = argv(&["prog", "--crash-at", "12x"]);
        let err = try_parse_arg::<u64>(&args, "--crash-at").unwrap_err();
        assert!(err.contains("12x"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        let args = argv(&["prog", "--threads"]);
        let err = try_parse_arg::<usize>(&args, "--threads").unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn string_flag_missing_its_value_is_an_error() {
        for args in [
            argv(&["prog", "--cache-dir"]),
            argv(&["prog", "--cache-dir", "--resume"]),
        ] {
            let err = raw_value(&args, "--cache-dir").unwrap_err();
            assert!(err.contains("--cache-dir requires a value"), "{err}");
        }
        // A lone dash is a value (`--json -` means stdout).
        let args = argv(&["prog", "--json", "-"]);
        assert_eq!(raw_value(&args, "--json"), Ok(Some("-")));
        // A numeric flag followed by a flag names the missing value too.
        let args = argv(&["prog", "--threads", "--full"]);
        let err = try_parse_arg::<usize>(&args, "--threads").unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn arg_value_returns_raw_string() {
        let args = argv(&["prog", "--workload", "queue"]);
        assert_eq!(arg_value(&args, "--workload").as_deref(), Some("queue"));
        assert_eq!(arg_value(&args, "--model"), None);
    }
}
