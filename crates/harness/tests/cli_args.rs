//! End-to-end CLI argument handling for the `asap_sim` binary.
//!
//! Pins the fix for silent flag swallowing: a malformed numeric value
//! used to parse to `None` and quietly fall back to the default
//! (`--crash-at 12x` ran with *no crash at all*), and a string flag
//! with no value was ignored (`--trace-out` wrote no trace). Now every
//! malformed or missing value must exit non-zero with a diagnostic
//! naming the flag — never a panic. The same holds for a well-formed
//! zero that the simulator cannot run with, in every binary that takes
//! the flag.

use std::process::{Command, Output};

fn asap_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asap_sim"))
        .args(args)
        .output()
        .expect("spawn asap_sim")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn malformed_threads_exits_nonzero_naming_flag_and_value() {
    let out = asap_sim(&["--threads", "banana"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("--threads"),
        "diagnostic must name the flag: {err}"
    );
    assert!(
        err.contains("banana"),
        "diagnostic must name the value: {err}"
    );
}

#[test]
fn malformed_crash_at_exits_nonzero() {
    // The original bug: "12x" silently disabled the crash entirely.
    let out = asap_sim(&["--crash-at", "12x"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("--crash-at"), "{err}");
    assert!(err.contains("12x"), "{err}");
}

#[test]
fn unknown_model_exits_nonzero() {
    let out = asap_sim(&["--model", "nope"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--model"));
}

#[test]
fn flag_missing_its_value_exits_nonzero() {
    // Numeric and string flags alike, at the end or followed directly
    // by another flag.
    for argv in [
        vec!["--ops"],
        vec!["--trace-out"],
        vec!["--workload"],
        vec!["--workload", "--ops", "10"],
        vec!["--sample-out", "--trace"],
    ] {
        let out = asap_sim(&argv);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "argv {argv:?}: {err}");
        assert!(
            err.contains(&format!("{} requires a value", argv[0])),
            "{err}"
        );
    }
}

#[test]
fn valid_tiny_run_succeeds_and_prints_manifest() {
    let out = asap_sim(&[
        "--workload",
        "queue",
        "--threads",
        "2",
        "--ops",
        "10",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("run complete"), "{stdout}");
    let err = stderr_of(&out);
    assert!(err.contains("# manifest {"), "manifest line missing: {err}");
    assert!(err.contains("\"workload\":\"queue\""), "{err}");
    assert!(err.contains("\"seed\":3"), "{err}");
    assert!(err.contains("\"config_digest\":\""), "{err}");
}

/// The `# manifest` JSON line `out` printed on stderr, without its
/// host wall time.
fn manifest_of(out: &Output) -> String {
    let err = stderr_of(out);
    let line = err
        .lines()
        .find_map(|l| l.strip_prefix("# manifest "))
        .unwrap_or_else(|| panic!("manifest line missing: {err}"));
    line[..line.find("\"wall_ms\"").expect("wall_ms")].to_string()
}

#[test]
fn zipf_is_part_of_the_manifest() {
    // Same spec, different key skew: different runs (97,868 and
    // 92,558 cycles), so they must not share one provenance line.
    let base = ["--workload", "memcached", "--ops", "50"];
    let uniform = asap_sim(&base);
    let skewed = asap_sim(&[&base[..], &["--zipf", "0.9"]].concat());
    assert!(uniform.status.success(), "{}", stderr_of(&uniform));
    assert!(skewed.status.success(), "{}", stderr_of(&skewed));
    let (m0, m1) = (manifest_of(&uniform), manifest_of(&skewed));
    assert!(!m0.contains("zipf"), "{m0}");
    assert!(m1.contains("\"zipf_theta\":0.9,"), "{m1}");
    assert_ne!(m0, m1);
}

#[test]
fn unknown_workload_model_flavor_exit_two_listing_known_ones() {
    for (argv, known) in [
        (vec!["--workload", "banana"], "p-clht"),
        (
            vec!["--workload", "cceh", "--model", "nope"],
            "baseline|hops|asap|eadr|bbb",
        ),
        (
            vec!["--workload", "cceh", "--model", "asap", "--flavor", "bogus"],
            "ep|rp",
        ),
    ] {
        let out = asap_sim(&argv);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "argv {argv:?}: {err}");
        assert!(err.contains(argv[argv.len() - 1]), "{err}");
        assert!(err.contains(known), "{err}");
        assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
    }
}

#[test]
fn zero_valued_flags_exit_two_naming_the_flag() {
    // Each of these used to panic (exit 101), or for persist_lint lint
    // zero threads and exit 0. Beside the zeros the simulator cannot run
    // with: a core count above `MAX_CORES` (persist_lint used to allocate
    // for 10^8 threads until killed), a `--zipf` skew outside [0, 1) and
    // an unwritable `--json`.
    let samples = std::env::temp_dir().join(format!("zero_every_{}.csv", std::process::id()));
    let samples = samples.to_str().expect("utf8 temp path");
    for (bin, argv, flag) in [
        (
            env!("CARGO_BIN_EXE_asap_sim"),
            vec!["--threads", "0"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_asap_sim"),
            vec!["--threads", "257"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_asap_sim"),
            vec!["--threads", "100000000"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_asap_sim"),
            vec!["--sample-every", "0", "--sample-out", samples],
            "--sample-every",
        ),
        (
            env!("CARGO_BIN_EXE_race_check"),
            vec!["--workload", "queue", "--threads", "0"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_race_check"),
            vec!["--workload", "queue", "--threads", "257"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_persist_lint"),
            vec!["--workload", "queue", "--threads", "0"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_persist_lint"),
            vec!["--workload", "queue", "--threads", "257"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_persist_lint"),
            vec!["--workload", "queue", "--threads", "100000000"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_asap_sim"),
            vec!["--zipf", "2.0"],
            "--zipf",
        ),
        (
            env!("CARGO_BIN_EXE_asap_sim"),
            vec!["--zipf", "-1"],
            "--zipf",
        ),
        (
            env!("CARGO_BIN_EXE_asap_sim"),
            vec!["--zipf", "nan"],
            "--zipf",
        ),
        (
            env!("CARGO_BIN_EXE_persist_lint"),
            vec!["--workload", "queue", "--json", "/nonexistent/dir/x.json"],
            "--json",
        ),
    ] {
        let out = Command::new(bin).args(&argv).output().expect("spawn");
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{bin} {argv:?}: {err}");
        assert!(err.contains(flag), "diagnostic must name {flag}: {err}");
        assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
        assert!(out.stdout.is_empty(), "{bin} {argv:?} ran");
    }
    assert!(
        !std::path::Path::new(samples).exists(),
        "a rejected --sample-every must not create the CSV"
    );
}
