//! The benchmark's declarations: `BENCHMARK.json` at the repository root
//! (workload names, metric names, units, directions and bounds) plus
//! `plan.json` beside this crate (repeats, pinned output digests,
//! absolute regression floors, and the layer → end-to-end map), both read
//! strictly.
//!
//! `BENCHMARK.json` has a fixed shape that admits no extra keys, so what
//! it cannot hold lives in `plan.json`; the loader cross-checks the two so
//! every name is still declared exactly once.

use crate::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Bigger is better (throughput).
    Higher,
    /// Smaller is better (time, memory).
    Lower,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// What `plan.json` says about one per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    /// Declared metrics (end-to-end or `sim_cycles`) this one should move.
    pub moves: Vec<String>,
    /// Workloads on which it should move.
    pub on: Vec<String>,
    /// Deterministic: must repeat exactly across traced runs.
    pub exact: bool,
    /// The paper's value, for fidelity metrics.
    pub paper: Option<f64>,
}

/// Both declaration files, validated.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (printed by untraced runs).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (printed by traced runs).
    pub layers: Vec<Metric>,
    /// Layer → end-to-end map, by layer metric name.
    pub plan: BTreeMap<String, LayerPlan>,
    /// Seconds one `bench` run measures.
    pub run_seconds: u64,
    /// Child runs per workload for the `run` subcommand.
    pub repeats: BTreeMap<String, usize>,
    /// Pinned output digests: seed → workload → digest.
    pub pinned: BTreeMap<u64, BTreeMap<String, u64>>,
    /// Absolute change, in the metric's unit, below which `compare` calls
    /// no end-to-end metric worse or better (0 where none is given).
    pub floors: BTreeMap<String, f64>,
}

/// Path of `BENCHMARK.json` (the repository root, one level above this
/// crate).
fn benchmark_path() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json").to_string()
}

/// Path of `plan.json`.
fn plan_path() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/plan.json").to_string()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

fn is_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && s.split('/').all(|c| c != "..")
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-/".contains(&b))
}

/// `v` must be an object with exactly the keys `keys`.
fn exact_keys<'a>(v: &'a Value, keys: &[&str], what: &str) -> Result<&'a Value, String> {
    let members = v
        .as_obj()
        .ok_or_else(|| format!("{what}: expected an object"))?;
    let got: BTreeSet<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    let want: BTreeSet<&str> = keys.iter().copied().collect();
    if got != want {
        return Err(format!("{what}: keys {got:?}, expected exactly {want:?}"));
    }
    Ok(v)
}

fn str_of<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{what}: {key} must be a string"))
}

fn list_of<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{what}: {key} must be an array"))
}

fn metric(v: &Value, with_bound: bool, what: &str) -> Result<Metric, String> {
    let keys: &[&str] = if with_bound {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    exact_keys(v, keys, what)?;
    let name = str_of(v, "name", what)?;
    let unit = str_of(v, "unit", what)?;
    if !is_name(name) {
        return Err(format!("{what}: bad name {name:?}"));
    }
    if !is_unit(unit) {
        return Err(format!("{what} {name}: bad unit {unit:?}"));
    }
    let better = match str_of(v, "better", what)? {
        "higher" => Better::Higher,
        "lower" => Better::Lower,
        other => {
            return Err(format!(
                "{what} {name}: better must be higher|lower, got {other:?}"
            ))
        }
    };
    let bound = if with_bound {
        let b = v
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{what} {name}: bound must be a number"))?;
        if !(0.0..=0.25).contains(&b) {
            return Err(format!("{what} {name}: bound {b} outside [0, 0.25]"));
        }
        Some(b)
    } else {
        None
    };
    Ok(Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        better,
        bound,
    })
}

fn names_of(v: &Value, key: &str, what: &str) -> Result<Vec<String>, String> {
    list_of(v, key, what)?
        .iter()
        .map(|n| {
            n.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{what}: {key} must hold strings"))
        })
        .collect()
}

impl Spec {
    /// Read and validate both files from their default paths.
    pub fn load() -> Result<Spec, String> {
        let read = |p: String| std::fs::read_to_string(&p).map_err(|e| format!("{p}: {e}"));
        Spec::parse(&read(benchmark_path())?, &read(plan_path())?)
    }

    /// Validate the two documents' texts.
    pub fn parse(benchmark: &str, plan: &str) -> Result<Spec, String> {
        let b = json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let b = exact_keys(
            &b,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
            "BENCHMARK.json",
        )?;

        let command = list_of(b, "command", "BENCHMARK.json")?;
        if command.is_empty()
            || command.len() > 32
            || command
                .iter()
                .any(|c| c.as_str().is_none_or(|s| s.chars().count() > 200))
        {
            return Err("BENCHMARK.json: command must be 1-32 strings of ≤200 chars".into());
        }
        let paths = names_of(b, "paths", "BENCHMARK.json")?;
        if paths.is_empty() || paths.len() > 16 || !paths.iter().all(|p| is_path(p)) {
            return Err("BENCHMARK.json: paths must be 1-16 relative paths".into());
        }
        let run_seconds = b
            .get("run_seconds")
            .and_then(Value::as_u64)
            .filter(|s| (1..=60).contains(s))
            .ok_or("BENCHMARK.json: run_seconds must be a whole number in 1..=60")?;

        let mut workloads = Vec::new();
        for w in list_of(b, "workloads", "BENCHMARK.json")? {
            exact_keys(w, &["name", "why"], "workload")?;
            let name = str_of(w, "name", "workload")?;
            let why = str_of(w, "why", "workload")?;
            if !is_name(name) || why.is_empty() || why.chars().count() > 200 || why.contains('\n') {
                return Err(format!("workload {name:?}: bad name or why"));
            }
            workloads.push(name.to_string());
        }
        if !(2..=8).contains(&workloads.len()) {
            return Err("BENCHMARK.json: 2 to 8 workloads".into());
        }
        let e2e = list_of(b, "end_to_end", "BENCHMARK.json")?
            .iter()
            .map(|m| metric(m, true, "end_to_end"))
            .collect::<Result<Vec<_>, _>>()?;
        if !(1..=16).contains(&e2e.len()) {
            return Err("BENCHMARK.json: 1 to 16 end_to_end metrics".into());
        }
        let layers = list_of(b, "per_layer", "BENCHMARK.json")?
            .iter()
            .map(|m| metric(m, false, "per_layer"))
            .collect::<Result<Vec<_>, _>>()?;
        if !(1..=128).contains(&layers.len()) {
            return Err("BENCHMARK.json: 1 to 128 per_layer metrics".into());
        }

        let mut seen = BTreeSet::new();
        for n in workloads
            .iter()
            .chain(e2e.iter().map(|m| &m.name))
            .chain(layers.iter().map(|m| &m.name))
        {
            if !seen.insert(n.as_str()) {
                return Err(format!("BENCHMARK.json: name {n:?} used twice"));
            }
        }
        let setup = e2e
            .iter()
            .find(|m| m.name == "setup_s")
            .ok_or("BENCHMARK.json: end_to_end must declare setup_s")?;
        if setup.unit != "s" || setup.better != Better::Lower {
            return Err("BENCHMARK.json: setup_s must be in s, lower is better".into());
        }
        if e2e.iter().any(|m| m.bound > setup.bound) {
            return Err("BENCHMARK.json: setup_s must carry the largest bound".into());
        }

        let p = json::parse(plan).map_err(|e| format!("plan.json: {e}"))?;
        let p = exact_keys(&p, &["repeats", "pinned", "floors", "layers"], "plan.json")?;
        let wanted: BTreeSet<&str> = workloads.iter().map(String::as_str).collect();

        let mut repeats = BTreeMap::new();
        for (w, n) in p
            .get("repeats")
            .and_then(Value::as_obj)
            .ok_or("plan.json: repeats")?
        {
            let n = n
                .as_u64()
                .filter(|&n| (1..=1000).contains(&n))
                .ok_or_else(|| format!("plan.json: repeats of {w} must be 1..=1000"))?;
            repeats.insert(w.clone(), n as usize);
        }
        if repeats.keys().map(String::as_str).collect::<BTreeSet<_>>() != wanted {
            return Err("plan.json: repeats must name every workload exactly once".into());
        }

        let mut pinned = BTreeMap::new();
        for (seed, digests) in p
            .get("pinned")
            .and_then(Value::as_obj)
            .ok_or("plan.json: pinned")?
        {
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("plan.json: pinned seed {seed:?}"))?;
            let mut per = BTreeMap::new();
            for (w, d) in digests.as_obj().ok_or("plan.json: pinned digests")? {
                if !wanted.contains(w.as_str()) {
                    return Err(format!("plan.json: pinned digest for unknown workload {w}"));
                }
                let d = d
                    .as_str()
                    .filter(|d| d.len() == 16)
                    .and_then(|d| u64::from_str_radix(d, 16).ok())
                    .ok_or_else(|| format!("plan.json: digest of {w} must be 16 hex digits"))?;
                per.insert(w.clone(), d);
            }
            pinned.insert(seed, per);
        }

        let mut floors = BTreeMap::new();
        for (m, f) in p
            .get("floors")
            .and_then(Value::as_obj)
            .ok_or("plan.json: floors")?
        {
            if !e2e.iter().any(|d| d.name == *m) {
                return Err(format!("plan.json: floor for undeclared metric {m}"));
            }
            let f = f
                .as_f64()
                .filter(|f| *f >= 0.0)
                .ok_or_else(|| format!("plan.json: floor of {m} must be ≥ 0"))?;
            floors.insert(m.clone(), f);
        }

        let declared: BTreeSet<&str> = e2e.iter().chain(&layers).map(|m| m.name.as_str()).collect();
        let mut plan_map = BTreeMap::new();
        for (name, entry) in p
            .get("layers")
            .and_then(Value::as_obj)
            .ok_or("plan.json: layers")?
        {
            let what = format!("plan.json layer {name}");
            let keys: &[&str] = if entry.get("paper").is_some() {
                &["moves", "on", "exact", "paper"]
            } else {
                &["moves", "on", "exact"]
            };
            exact_keys(entry, keys, &what)?;
            let moves = names_of(entry, "moves", &what)?;
            let on = names_of(entry, "on", &what)?;
            if let Some(m) = moves.iter().find(|m| !declared.contains(m.as_str())) {
                return Err(format!("{what}: moves undeclared metric {m}"));
            }
            if on.is_empty() || on.iter().any(|w| !wanted.contains(w.as_str())) {
                return Err(format!("{what}: on must list declared workloads"));
            }
            let exact = match entry.get("exact") {
                Some(Value::Bool(b)) => *b,
                _ => return Err(format!("{what}: exact must be true|false")),
            };
            let paper = match entry.get("paper") {
                None => None,
                // The paper value divides the signed error, so 0 is refused.
                Some(v) => Some(
                    v.as_f64()
                        .filter(|p| *p != 0.0)
                        .ok_or_else(|| format!("{what}: paper must be a nonzero number"))?,
                ),
            };
            plan_map.insert(
                name.clone(),
                LayerPlan {
                    moves,
                    on,
                    exact,
                    paper,
                },
            );
        }
        let layer_names: BTreeSet<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        if plan_map.keys().map(String::as_str).collect::<BTreeSet<_>>() != layer_names {
            return Err("plan.json: layers must map every per_layer metric exactly once".into());
        }

        Ok(Spec {
            workloads,
            e2e,
            layers,
            plan: plan_map,
            run_seconds,
            repeats,
            pinned,
            floors,
        })
    }

    /// The pinned output digest of `workload` at `seed`, if any.
    pub fn pinned_digest(&self, seed: u64, workload: &str) -> Option<u64> {
        self.pinned.get(&seed)?.get(workload).copied()
    }

    /// The emitted metric names must be exactly the declared ones of
    /// that kind: an undeclared name, or a declared one left out, is a
    /// contract error.
    pub fn check_emitted<'a>(
        &self,
        traced: bool,
        emitted: impl IntoIterator<Item = &'a str>,
    ) -> Result<(), String> {
        let declared: BTreeSet<&str> = if traced { &self.layers } else { &self.e2e }
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        let emitted: BTreeSet<&str> = emitted.into_iter().collect();
        let extra: Vec<_> = emitted.difference(&declared).collect();
        let missing: Vec<_> = declared.difference(&emitted).collect();
        if extra.is_empty() && missing.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "metrics not declared in BENCHMARK.json: {extra:?}; declared but not emitted: {missing:?}"
            ))
        }
    }

    /// The declared workloads must be exactly the ones the program runs.
    pub fn check_workloads(&self, known: &[&str]) -> Result<(), String> {
        let declared: BTreeSet<&str> = self.workloads.iter().map(String::as_str).collect();
        let known: BTreeSet<&str> = known.iter().copied().collect();
        if declared == known {
            Ok(())
        } else {
            Err(format!(
                "BENCHMARK.json workloads {declared:?} differ from the program's {known:?}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{
      "command": ["cargo", "run"], "paths": ["perfledger"], "run_seconds": 10,
      "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
      "end_to_end": [
        {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
      "per_layer": [{"name": "engine.sim_ms", "unit": "ms", "better": "lower"}]
    }"#;
    const PLAN: &str = r#"{"repeats": {"a": 2, "b": 3},
      "pinned": {"42": {"a": "00000000000000ff"}}, "floors": {"setup_s": 0.005},
      "layers": {"engine.sim_ms": {"moves": ["job_s"], "on": ["a"], "exact": false}}}"#;

    #[test]
    fn accepts_a_well_formed_pair() {
        let s = Spec::parse(BENCH, PLAN).unwrap();
        assert_eq!(s.workloads, ["a", "b"]);
        assert_eq!(s.pinned_digest(42, "a"), Some(255));
        assert_eq!(s.pinned_digest(7, "a"), None);
        assert_eq!(s.repeats["b"], 3);
        assert_eq!(s.floors["setup_s"], 0.005);
        assert!(s.check_emitted(false, ["job_s", "setup_s"]).is_ok());
        assert!(s.check_emitted(false, ["job_s"]).is_err());
        assert!(s.check_emitted(true, ["engine.sim_ms", "x"]).is_err());
        assert!(s.check_workloads(&["b", "a"]).is_ok());
        assert!(s.check_workloads(&["a"]).is_err());
    }

    #[test]
    fn rejects_contract_violations() {
        let cases = [
            BENCH.replace("\"run_seconds\": 10", "\"run_seconds\": 61"),
            BENCH.replace("\"bound\": 0.1", "\"bound\": 0.3"),
            BENCH.replace("\"bound\": 0.2", "\"bound\": 0.05"),
            BENCH.replace("\"unit\": \"ms\"", "\"unit\": \"m s\""),
            BENCH.replace("\"name\": \"b\"", "\"name\": \"a\""),
            BENCH.replace("perfledger", "../x"),
            BENCH.replace(
                "\"better\": \"lower\"}]",
                "\"better\": \"lower\", \"bound\": 0.1}]",
            ),
            BENCH.replace("setup_s", "warmup_s"),
        ];
        for bad in cases {
            assert!(Spec::parse(&bad, PLAN).is_err(), "accepted: {bad}");
        }
        for bad in [
            PLAN.replace("\"b\": 3", "\"c\": 3"),
            PLAN.replace("[\"job_s\"]", "[\"nope\"]"),
            PLAN.replace("\"on\": [\"a\"]", "\"on\": []"),
            PLAN.replace("00000000000000ff", "ff"),
            PLAN.replace("engine.sim_ms", "engine.other"),
            PLAN.replace("\"setup_s\": 0.005", "\"warmup_s\": 0.005"),
            PLAN.replace("0.005", "-1"),
        ] {
            assert!(Spec::parse(BENCH, &bad).is_err(), "accepted: {bad}");
        }
    }
}
