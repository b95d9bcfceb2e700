//! End-to-end tests for the `crash_explore` binary: agreement with the
//! serial `explore_all` driver, worker-count independence of the report
//! bytes, the broken-model fixture contract, the coverage assertions,
//! strict flag values, and the chunk-granular result cache.

use asap_analysis::explore::{explore_all, ExploreParams};
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
    // The binary runs the verify chunks as sweep-executor legs; the
    // serial driver runs them in a loop. Both must print the same bytes.
    let broken = ExploreParams {
        workloads: vec![WorkloadKind::Queue],
        models: vec![ModelKind::Asap],
        broken_undo_every: 1,
        ..ExploreParams::default()
    };
    let broken_flags: &[&str] = &[
        "--workloads",
        "queue",
        "--models",
        "asap",
        "--broken-fixture",
        "--expect-violation",
    ];
    for (flags, p) in [(&[][..], ExploreParams::default()), (broken_flags, broken)] {
        let argv: Vec<&str> = flags.iter().copied().chain(["--json", "-"]).collect();
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
fn cache_round_trips_and_marks_hits() {
    let dir = std::env::temp_dir().join(format!("crash_explore_cache_{}", std::process::id()));
    let dir_s = dir.to_str().expect("utf8 temp dir");
    let mut args = QUICK.to_vec();
    args.extend(["--cache-dir", dir_s]);

    let cold = explore(&args);
    assert!(cold.status.success(), "stderr: {}", stderr_of(&cold));
    assert!(!stdout_of(&cold).contains("(cached)"));

    let warm = explore(&args);
    assert!(warm.status.success(), "stderr: {}", stderr_of(&warm));
    let warm_text = stdout_of(&warm);
    assert!(warm_text.contains("(cached)"), "{warm_text}");
    // Apart from the cache marker, the warm report matches the cold one.
    assert_eq!(warm_text.replace(" (cached)", ""), stdout_of(&cold));

    // A different seed is a different key: no stale hit.
    let mut reseeded = args.clone();
    reseeded.extend(["--seed", "99"]);
    let out = explore(&reseeded);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    assert!(!stdout_of(&out).contains("(cached)"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn string_flag_missing_its_value_exits_two() {
    // A flag at the end, or followed directly by another flag.
    for (flag, next) in [
        ("--json", None),
        ("--cache-dir", None),
        ("--flavor", None),
        ("--cache-dir", Some("--expect-violation")),
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

#[test]
fn deleting_one_chunk_entry_resimulates_exactly_one_leg() {
    let dir = std::env::temp_dir().join(format!("crash_explore_chunks_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().expect("utf8 temp dir");
    // Two configs of several chunks each.
    let args = [
        "--workloads",
        "queue",
        "--models",
        "asap,eadr",
        "--points-budget",
        "256",
        "--chunk",
        "64",
        "--cache-dir",
        dir_s,
    ];

    let cold = explore(&args);
    assert!(cold.status.success(), "stderr: {}", stderr_of(&cold));
    let entries: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir written")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    assert!(entries.len() > 1, "one entry per chunk: {entries:?}");
    let warm = explore(&args);
    assert!(
        stderr_of(&warm).contains(&format!("= {} cached + 0 simulated", entries.len())),
        "{}",
        stderr_of(&warm)
    );

    std::fs::remove_file(&entries[0]).expect("delete one chunk entry");
    let resumed = explore(&args);
    assert!(resumed.status.success(), "stderr: {}", stderr_of(&resumed));
    assert!(
        stderr_of(&resumed).contains(&format!("= {} cached + 1 simulated", entries.len() - 1)),
        "exactly one leg re-runs: {}",
        stderr_of(&resumed)
    );
    let text = stdout_of(&resumed);
    assert_eq!(
        text.matches(" (cached)").count(),
        1,
        "only the untouched config is fully cached: {text}"
    );
    assert_eq!(text.replace(" (cached)", ""), stdout_of(&cold));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn broken_fixture_never_opens_the_cache() {
    let dir = std::env::temp_dir().join(format!("crash_explore_broken_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut args = QUICK.to_vec();
    args.extend(["--broken-fixture", "--cache-dir", dir.to_str().unwrap()]);
    let out = explore(&args);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
    assert!(!dir.exists(), "a broken run must not create the cache");
}
