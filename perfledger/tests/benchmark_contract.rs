//! The benchmark's contract with `BENCHMARK.json`, checked end to end
//! through the real binary.

use asap_perfledger::jobs::Workload;
use asap_perfledger::json::{self, Value};
use asap_perfledger::ledger::LAYER_METRICS;
use asap_perfledger::parent::E2E_METRICS;
use asap_perfledger::spec::Spec;
use std::collections::BTreeSet;
use std::process::Command;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_asap_bench"))
}

fn names<'a>(it: impl IntoIterator<Item = &'a str>) -> BTreeSet<&'a str> {
    it.into_iter().collect()
}

#[test]
fn declarations_match_the_program() {
    let spec = Spec::load().expect("BENCHMARK.json and plan.json validate");
    assert!(spec.e2e.len() <= 16 && spec.layers.len() <= 128);
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, workloads);
    assert_eq!(
        names(spec.e2e.iter().map(|m| m.name.as_str())),
        names(E2E_METRICS)
    );
    assert_eq!(
        names(spec.layers.iter().map(|m| m.name.as_str())),
        names(LAYER_METRICS)
    );
    for w in &workloads {
        assert!(
            spec.pinned_digest(42, w).is_some(),
            "no pinned digest for {w}"
        );
    }
    let declared = names(spec.e2e.iter().chain(&spec.layers).map(|m| m.name.as_str()));
    for (name, plan) in &spec.plan {
        assert!(!plan.on.is_empty(), "{name} names no workload");
        for m in &plan.moves {
            assert!(declared.contains(m.as_str()), "{name} moves undeclared {m}");
        }
        if plan.paper.is_some() {
            assert!(
                name.starts_with("fidelity."),
                "{name} carries a paper value"
            );
        }
    }
}

#[test]
fn run_emits_every_declared_metric_with_its_unit_and_no_failures() {
    let spec = Spec::load().unwrap();
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract-run");
    let _ = std::fs::remove_dir_all(&out);
    let o = bench()
        .args(["run", "--workload", "sweep_cached", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&o.stdout);
    assert!(
        o.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&o.stderr)
    );
    for m in &spec.e2e {
        let line = stdout
            .lines()
            .find(|l| l.split_whitespace().nth(1) == Some(m.name.as_str()))
            .unwrap_or_else(|| panic!("{} not printed:\n{stdout}", m.name));
        assert_eq!(
            line.split_whitespace().nth(3),
            Some(m.unit.as_str()),
            "{line}"
        );
    }
    let doc = json::parse(&std::fs::read_to_string(out.join("BENCH_sweep_cached.json")).unwrap())
        .unwrap();
    assert_eq!(doc.get("fail_ratio").and_then(Value::as_f64), Some(0.0));
    assert_eq!(
        doc.get("output_digest").and_then(Value::as_str),
        doc.get("pinned_digest").and_then(Value::as_str)
    );
    let metrics = doc.get("metrics").and_then(Value::as_obj).unwrap();
    assert_eq!(
        names(metrics.iter().map(|(k, _)| k.as_str())),
        names(spec.e2e.iter().map(|m| m.name.as_str()))
    );
    let n = spec.repeats["sweep_cached"] as u64;
    for (_, m) in metrics {
        assert_eq!(m.get("n").and_then(Value::as_u64), Some(n));
    }
}

/// The last stdout line of `bench`, parsed, with its exit status.
fn bench_line(trace: &str) -> (bool, Value) {
    let o = bench()
        .args([
            "bench",
            "--workload",
            "sweep_cached",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(trace)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&o.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    (
        o.status.success(),
        json::parse(last).expect("last line is JSON"),
    )
}

#[test]
fn bench_prints_the_contract_line_untraced_and_traced() {
    let spec = Spec::load().unwrap();
    for (trace, declared) in [("0", &spec.e2e), ("1", &spec.layers)] {
        let (ok, v) = bench_line(trace);
        assert!(ok, "--trace {trace}: {v:?}");
        let keys = names(v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()));
        assert_eq!(keys, names(["correct", "attempted", "failed", "metrics"]));
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        assert!(v.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        let metrics = v.get("metrics").and_then(Value::as_obj).unwrap();
        assert_eq!(metrics.len(), declared.len());
        for m in declared {
            let got = v.get("metrics").unwrap().get(&m.name).unwrap();
            assert_eq!(
                got.get("unit").and_then(Value::as_str),
                Some(m.unit.as_str())
            );
            assert!(got.get("value").and_then(Value::as_f64).is_some());
        }
    }
}

#[test]
fn bad_usage_exits_2() {
    for args in [
        &["bench", "--workload", "nope"][..],
        &["bench", "--workload", "sweep_cached", "--trace", "2"],
        &["bench", "--workload", "sweep_cached", "--seconds", "x"],
        &["frobnicate"],
        &["compare", "only-one"],
    ] {
        let o = bench().args(args).output().unwrap();
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        assert!(o.stdout.is_empty(), "{args:?} printed a result");
    }
}
