//! End-to-end CLI argument handling for the `asap_sim` and `stats_txt`
//! binaries.
//!
//! Pins the fix for silent flag swallowing: a malformed numeric value
//! used to parse to `None` and quietly fall back to the default
//! (`--crash-at 12x` ran with *no crash at all*). Now every malformed
//! value must exit non-zero with a diagnostic naming the flag and the
//! offending value — never a panic.

use std::process::{Command, Output};

fn asap_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asap_sim"))
        .args(args)
        .output()
        .expect("spawn asap_sim")
}

fn stats_txt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stats_txt"))
        .args(args)
        .output()
        .expect("spawn stats_txt")
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
    let out = asap_sim(&["--ops"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("requires a value"));
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

#[test]
fn stats_txt_unknown_names_exit_two_listing_known_ones() {
    for (argv, known) in [
        (vec!["banana"], "p-clht"),
        (vec!["cceh", "nope"], "baseline|hops|asap|eadr|bbb"),
        (vec!["cceh", "asap", "bogus"], "ep|rp"),
    ] {
        let out = stats_txt(&argv);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "argv {argv:?}: {err}");
        assert!(err.contains(argv[argv.len() - 1]), "{err}");
        assert!(err.contains(known), "{err}");
        assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
    }
}
