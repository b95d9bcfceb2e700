//! End-to-end CLI behaviour of `asap_sweep traffic`: strict flag
//! parsing (malformed values exit 2 with a diagnostic, never a silent
//! default), report shape, worker-count byte-equality, and the
//! emit-trace/replay round trip.

use std::process::{Command, Output};

fn traffic(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asap_sweep"))
        .arg("traffic")
        .args(args)
        .output()
        .expect("spawn asap_sweep traffic")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A sweep small enough for a debug-build test binary.
const TINY: &[&str] = &[
    "--app",
    "nstore",
    "--model",
    "asap",
    "--gap",
    "900",
    "--requests",
    "400",
];

#[test]
fn malformed_gap_exits_two_naming_flag_and_value() {
    let out = traffic(&["--gap", "12x"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("--gap"), "{err}");
    assert!(err.contains("12x"), "{err}");
}

#[test]
fn zero_gap_exits_two() {
    let out = traffic(&["--gap", "0"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--gap"));
}

#[test]
fn malformed_requests_exits_two() {
    let out = traffic(&["--requests", "many"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("--requests"), "{err}");
    assert!(err.contains("many"), "{err}");
}

#[test]
fn unknown_app_model_arrival_exit_two() {
    for (flag, bad) in [
        ("--app", "vacation"),
        ("--model", "nope"),
        ("--arrival", "calendar"),
    ] {
        let out = traffic(&[flag, bad]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {bad}: {}",
            stderr_of(&out)
        );
        assert!(
            stderr_of(&out).contains(flag),
            "{flag}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn out_of_range_update_fraction_and_zipf_exit_two() {
    let out = traffic(&["--update-fraction", "1.5"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--update-fraction"));

    let out = traffic(&["--zipf", "1.0"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--zipf"));
}

#[test]
fn flag_missing_its_value_exits_two() {
    for argv in [&["--requests"][..], &["--replay"], &["--app", "--json"]] {
        let out = traffic(argv);
        assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("requires a value"));
    }
}

#[test]
fn tiny_sweep_prints_the_latency_table() {
    let out = traffic(TINY);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("Open-loop traffic"), "{stdout}");
    for col in ["p50", "p99.9", "queue_p99", "service_p99"] {
        assert!(stdout.contains(col), "missing column {col}: {stdout}");
    }
    // One leg: nstore × asap × one gap.
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("| nstore"))
        .collect();
    assert_eq!(rows.len(), 1, "{stdout}");
    assert!(rows[0].contains("| 400 |"), "request count: {}", rows[0]);
    assert!(stderr_of(&out).contains("wall-clock"));
}

#[test]
fn stdout_is_byte_identical_across_worker_counts() {
    let base = traffic(&["--requests", "500", "--gap", "700", "--model", "asap"]);
    assert!(base.status.success(), "stderr: {}", stderr_of(&base));
    for extra in [&["--workers", "1"][..], &["--workers", "4"][..]] {
        let mut args = vec!["--requests", "500", "--gap", "700", "--model", "asap"];
        args.extend_from_slice(extra);
        let out = traffic(&args);
        assert!(out.status.success(), "stderr: {}", stderr_of(&out));
        assert_eq!(
            stdout_of(&base),
            stdout_of(&out),
            "table must not depend on {extra:?}"
        );
    }
}

#[test]
fn json_lines_carry_leg_provenance() {
    let mut args = TINY.to_vec();
    args.push("--json");
    let out = traffic(&args);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let json: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(json.len(), 1, "{stdout}");
    for key in [
        "\"app\":\"nstore\"",
        "\"model\":\"asap\"",
        "\"mean_gap\":900",
        "\"requests\":400",
        "\"config_digest\":\"",
        "\"p999\":",
    ] {
        assert!(json[0].contains(key), "missing {key}: {}", json[0]);
    }
}

#[test]
fn emit_trace_then_replay_round_trips() {
    let dir = std::env::temp_dir().join("asap_traffic_cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("roundtrip.trace");
    let path_s = path.to_str().expect("utf-8 temp path");

    let mut emit = TINY.to_vec();
    emit.extend_from_slice(&["--emit-trace", path_s]);
    let out = traffic(&emit);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let text = std::fs::read_to_string(&path).expect("trace written");
    assert!(text.starts_with("# asap-traffic v1\n"), "{text}");
    assert_eq!(text.lines().count(), 401, "header + one line per request");

    let mut replay = TINY.to_vec();
    replay.extend_from_slice(&["--replay", path_s]);
    let out = traffic(&replay);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(stdout.contains("replay"), "{stdout}");
    assert!(stdout.contains("| nstore | asap | replay |"), "{stdout}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn malformed_trace_file_exits_two_with_line_number() {
    let dir = std::env::temp_dir().join("asap_traffic_cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bad.trace");
    std::fs::write(&path, "# asap-traffic v1\n10 get 1\n20 frob 2\n").expect("write");

    let out = traffic(&["--replay", path.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("line 3"), "{err}");
    assert!(err.contains("frob"), "{err}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_replay_file_exits_two() {
    let out = traffic(&["--replay", "/nonexistent/asap.trace"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--replay"));
}
