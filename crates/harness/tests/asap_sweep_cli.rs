//! End-to-end tests of the `asap_sweep` binary: the table must be
//! byte-identical however the legs were executed — simulated, from a
//! warm cache, or resumed from a partial cache — and the flag contract
//! must fail fast on bad usage.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asap_sweep"))
        .args(args)
        .output()
        .expect("spawn asap_sweep")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("asap-sweep-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The quick fig08 sweep at a tiny op count on one worker, cheap on
/// small CI machines.
const QUICK: &[&str] = &["fig08", "--ops", "8", "--workers", "1"];

#[test]
fn warm_cache_rerun_hits_every_leg_and_matches_bytes() {
    let dir = tmpdir("warm");
    let dir_s = dir.to_str().unwrap();
    let stats = dir.join("stats.json");
    let stats_s = stats.to_str().unwrap();
    let mut argv = QUICK.to_vec();
    argv.extend(["--cache-dir", dir_s, "--cache-stats", stats_s]);

    let cold = sweep(&argv);
    assert!(cold.status.success(), "stderr: {}", stderr_of(&cold));
    let cold_stats = std::fs::read_to_string(&stats).unwrap();
    assert!(cold_stats.contains("\"cached\":0,"), "{cold_stats}");

    let warm = sweep(&argv);
    assert!(warm.status.success(), "stderr: {}", stderr_of(&warm));
    assert_eq!(stdout_of(&cold), stdout_of(&warm));
    let warm_stats = std::fs::read_to_string(&stats).unwrap();
    assert!(warm_stats.contains("\"simulated\":0"), "{warm_stats}");
    let field = |name: &str, json: &str| -> u64 {
        let tail = &json[json.find(&format!("\"{name}\":")).unwrap() + name.len() + 3..];
        tail[..tail.find([',', '}']).unwrap()].parse().unwrap()
    };
    assert_eq!(
        field("cached", &warm_stats),
        field("legs", &warm_stats),
        "every leg must hit on the warm run: {warm_stats}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deleted_entries_resume_into_the_reference_table() {
    let dir = tmpdir("resume");
    let dir_s = dir.to_str().unwrap();
    let mut argv = QUICK.to_vec();
    argv.extend(["--cache-dir", dir_s]);
    let cold = sweep(&argv);
    assert!(cold.status.success(), "stderr: {}", stderr_of(&cold));

    // A sweep killed halfway stored only the legs it finished: delete
    // every other entry, then rerun with no extra flag.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir written")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 84, "one entry per quick fig08 leg");
    for path in entries.iter().step_by(2) {
        std::fs::remove_file(path).expect("delete a cache entry");
    }

    let resumed = sweep(&argv);
    assert!(resumed.status.success(), "stderr: {}", stderr_of(&resumed));
    assert_eq!(
        stdout_of(&cold),
        stdout_of(&resumed),
        "a rerun over a partial cache must print the cold table"
    );
    assert!(
        stderr_of(&resumed).contains("= 42 cached + 42 simulated"),
        "only the deleted legs re-run: {}",
        stderr_of(&resumed)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traffic_subcommand_runs_and_caches() {
    let dir = tmpdir("traffic");
    let dir_s = dir.to_str().unwrap();
    let argv = [
        "traffic",
        "--requests",
        "64",
        "--gap",
        "400",
        "--workers",
        "1",
        "--cache-dir",
        dir_s,
    ];
    let cold = sweep(&argv);
    assert!(cold.status.success(), "stderr: {}", stderr_of(&cold));
    assert!(stdout_of(&cold).contains("p99"), "latency table expected");
    let warm = sweep(&argv);
    assert!(warm.status.success());
    assert_eq!(stdout_of(&cold), stdout_of(&warm));
    assert!(stderr_of(&warm).contains("+ 0 simulated"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_exits_two() {
    for argv in [
        vec![],                           // no sweep name
        vec!["fig99"],                    // unknown sweep
        vec!["fig08", "--ops", "banana"], // malformed number
        vec!["fig13", "--cache-dir"],     // string flag without a value
        vec!["fig13", "--cache-dir", "--resume"],
        vec!["fig13", "--cache-stats"],
        vec!["traffic", "--replay", "--json"],
        vec!["fig10", "--ops", "0"], // a table of NaN
        vec!["traffic", "--requests", "0"],
        vec!["traffic", "--requests", "16777217"], // past MAX_REQUESTS
    ] {
        let out = sweep(&argv);
        assert_eq!(
            out.status.code(),
            Some(2),
            "argv {argv:?}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn unknown_sweep_lists_the_registry() {
    let out = sweep(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    for name in ["fig02", "fig13", "ablations", "traffic"] {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
}

#[test]
fn tab05_prints_table_five_and_the_drain_comparison() {
    let out = sweep(&["tab05"]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert!(
        stdout.contains("### Table V: hardware overheads"),
        "{stdout}"
    );
    assert!(stdout.contains("| Recovery Table |"), "{stdout}");
    assert!(
        stdout.contains("### ADR drain on power failure"),
        "{stdout}"
    );
    assert!(stderr_of(&out).contains("0 legs"), "{}", stderr_of(&out));
}
