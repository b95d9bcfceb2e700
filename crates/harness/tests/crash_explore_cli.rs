//! End-to-end tests for the `crash_explore` binary: agreement with the
//! serial `explore_all` driver under every prune mode, worker-count
//! independence of the report bytes, the broken-model fixture contract,
//! the coverage assertions and strict flag values.

use asap_analysis::explore::{explore_all, ExploreParams, PruneMode};
use asap_sim_core::ModelKind;
use asap_workloads::WorkloadKind;
use std::process::{Command, Output};

fn explore(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_crash_explore"))
        .args(args)
        .output()
        .expect("spawn crash_explore")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A quick single-config invocation shared by most tests.
const QUICK: &[&str] = &[
    "--workloads",
    "queue",
    "--models",
    "asap",
    "--points-budget",
    "256",
    "--chunk",
    "64",
];

#[test]
fn binary_prints_exactly_what_explore_all_reports() {
    // The binary runs the verify chunks on the worker pool; the serial
    // driver runs them in a loop. Both must print the same bytes.
    let broken = ExploreParams {
        workloads: vec![WorkloadKind::Queue],
        models: vec![ModelKind::Asap],
        broken_undo_every: 1,
        ..ExploreParams::default()
    };
    // Every raw point (`off`) and the interval-end audit (`verify`) on
    // a config small enough for the debug test build.
    let small = |prune| ExploreParams {
        workloads: vec![WorkloadKind::Queue],
        models: vec![ModelKind::Asap, ModelKind::Bbb],
        ops_per_thread: 6,
        points_budget: 100_000,
        prune,
        ..ExploreParams::default()
    };
    let small_flags = "--workloads queue --models asap,bbb --ops 6 --points-budget 100000";
    for (flags, p) in [
        (String::new(), ExploreParams::default()),
        (
            "--workloads queue --models asap --broken-fixture --expect-violation".into(),
            broken,
        ),
        (
            format!("{small_flags} --prune verify"),
            small(PruneMode::Verify),
        ),
        (format!("{small_flags} --prune off"), small(PruneMode::Off)),
    ] {
        let argv: Vec<&str> = flags.split_whitespace().chain(["--json", "-"]).collect();
        let out = explore(&argv);
        assert!(out.status.success(), "{argv:?}: {}", stderr_of(&out));
        let report = explore_all(&p);
        let expected = format!("{}{}\n", report.to_text(), report.to_json());
        assert_eq!(stdout_of(&out), expected, "{argv:?}");
    }
}

#[test]
fn report_is_byte_identical_at_any_worker_count() {
    let args = |workers: &'static str| {
        let mut a = QUICK.to_vec();
        a.extend(["--workers", workers, "--json", "-"]);
        a
    };
    let one = explore(&args("1"));
    let four = explore(&args("4"));
    assert!(one.status.success(), "stderr: {}", stderr_of(&one));
    assert!(four.status.success(), "stderr: {}", stderr_of(&four));
    assert_eq!(
        stdout_of(&one),
        stdout_of(&four),
        "text+JSON must not depend on --workers"
    );
}

#[test]
fn clean_run_exits_zero_and_reports_pruning() {
    let out = explore(QUICK);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let text = stdout_of(&out);
    assert!(text.contains("clean"), "{text}");
    assert!(text.contains("pruned"), "{text}");
    assert!(text.contains("0 violation(s)"), "{text}");
}

#[test]
fn broken_fixture_violates_and_expect_violation_inverts_exit() {
    let mut broken = QUICK.to_vec();
    broken.push("--broken-fixture");
    let out = explore(&broken);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a broken recovery table must fail the explorer; stdout: {}",
        stdout_of(&out)
    );
    let text = stdout_of(&out);
    assert!(
        text.contains("ordering-violated"),
        "Theorem 2 violation must be attributed to a rule: {text}"
    );

    broken.push("--expect-violation");
    let out = explore(&broken);
    assert!(
        out.status.success(),
        "--expect-violation must accept a caught violation; stderr: {}",
        stderr_of(&out)
    );
    assert!(stderr_of(&out).contains("broken fixture caught"));
}

#[test]
fn expect_violation_fails_a_clean_run() {
    let mut args = QUICK.to_vec();
    args.push("--expect-violation");
    let out = explore(&args);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", stdout_of(&out));
    assert!(stderr_of(&out).contains("found none"));
}

#[test]
fn coverage_assertions_gate_the_exit_status() {
    let mut ok = QUICK.to_vec();
    ok.extend(["--assert-min-points", "1000", "--assert-min-prune", "50"]);
    let out = explore(&ok);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));

    let mut too_high = QUICK.to_vec();
    too_high.extend(["--assert-min-points", "999999999"]);
    let out = explore(&too_high);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("--assert-min-points"));
}

#[test]
fn malformed_budget_exits_two_naming_flag_and_value() {
    let out = explore(&["--points-budget", "banana"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("--points-budget"), "{err}");
    assert!(err.contains("banana"), "{err}");

    let out = explore(&["--prune", "sometimes"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("sometimes"));

    // A prune bound outside [0, 100] could never gate: rejected before
    // anything is explored.
    for bad in ["nan", "-5", "101"] {
        let out = explore(&["--assert-min-prune", bad]);
        assert_eq!(out.status.code(), Some(2), "--assert-min-prune {bad}");
        let err = stderr_of(&out);
        assert!(err.contains("--assert-min-prune"), "{bad}: {err}");
        assert!(out.stdout.is_empty(), "{bad}: {}", stdout_of(&out));
    }
}

#[test]
fn unwritable_json_path_exits_two() {
    let out = explore(&[
        "--workloads",
        "queue",
        "--models",
        "baseline",
        "--ops",
        "2",
        "--json",
        "/nonexistent/x.json",
    ]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.contains("--json"), "{err}");
    assert!(err.contains("/nonexistent/x.json"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn string_flag_missing_its_value_exits_two() {
    // A flag at the end, or followed directly by another flag.
    for (flag, next) in [
        ("--json", None),
        ("--workloads", None),
        ("--flavor", None),
        ("--workloads", Some("--expect-violation")),
        ("--models", Some("--broken-fixture")),
    ] {
        let mut args = vec!["--ops", "2", flag];
        args.extend(next);
        let out = explore(&args);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(&format!("{flag} requires a value")), "{err}");
        assert!(stdout_of(&out).is_empty(), "{args:?} ran the explorer");
    }
}

#[test]
fn zero_threads_exits_two_naming_the_flag() {
    // Zero used to panic inside a pool worker ("at least one program
    // required"), re-raised as "a scoped thread panicked". Above
    // `MAX_CORES` the builder rejects the machine too, before any
    // per-core state is allocated.
    for n in ["0", "257", "100000000"] {
        let out = explore(&["--threads", n, "--workloads", "queue", "--models", "asap"]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{n}: {err}");
        assert!(err.contains("--threads") && err.contains(n), "{err}");
        assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
        assert!(stdout_of(&out).is_empty(), "ran the explorer");
    }
}

#[test]
fn zero_budget_or_chunk_exits_two_naming_the_flag() {
    // Both used to clamp to 1: `--points-budget 0` checked a single
    // class and exited 0, `--chunk 0` re-simulated once per point.
    for flag in ["--points-budget", "--chunk"] {
        let out = explore(&[flag, "0", "--workloads", "queue", "--models", "asap"]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
        assert!(err.contains(flag) && err.contains("'0'"), "{err}");
        assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
        assert!(stdout_of(&out).is_empty(), "ran the explorer");
    }
}
