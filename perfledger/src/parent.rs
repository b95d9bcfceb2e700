//! The parent side: spawn one child process per repeat, turn the
//! children's reports into end-to-end metrics, judge correctness, and
//! write or print the results.
//!
//! Runs are closed-loop over repeats: each child starts when the
//! previous one exits. Children of one invocation never overlap, so no
//! run uses more threads than one child's leg pool (at most 2, and at
//! most the host's CPU count).

use crate::jobs::{self, Repeat, Workload};
use crate::ledger::LAYER_METRICS;
use crate::spec::Spec;
use crate::{json, probe, stats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// One child process as the parent saw it.
#[derive(Debug, Clone)]
pub(crate) struct Child {
    /// Spawn to exit, seconds.
    pub job_s: f64,
    /// Spawn to the first leg's start, seconds.
    pub setup_s: f64,
    /// The child's own report; `None` if it died or printed garbage.
    pub repeat: Option<Repeat>,
}

/// Scratch space for the children's outcome caches: inside the build
/// directory next to this executable, so runs stay inside the checkout.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("locate own executable");
    exe.parent()
        .expect("executable has a parent directory")
        .join("perfledger-tmp")
}

/// Run one repeat of `w` in a fresh child process and wait for it.
/// Environment switches that would change what the simulator does
/// (`ASAP_TRACE` event dumps, `ASAP_QUEUE`, `ASAP_THREADS`) are cleared.
pub(crate) fn spawn(w: Workload, seed: u64, traced: bool, spans_out: Option<&Path>) -> Child {
    let exe = std::env::current_exe().expect("locate own executable");
    let mut cmd = Command::new(exe);
    cmd.args(["run-one", w.name(), "--seed"])
        .arg(seed.to_string())
        .env_remove("ASAP_TRACE")
        .env_remove("ASAP_QUEUE")
        .env_remove("ASAP_THREADS")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    if let Some(p) = spans_out {
        cmd.arg("--spans-out").arg(p);
    }
    let t0 = probe::mono_ns();
    let out = cmd.output();
    let t1 = probe::mono_ns();
    let repeat = match out {
        Ok(o) if o.status.success() => {
            let text = String::from_utf8_lossy(&o.stdout);
            let line = text
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .unwrap_or("");
            Repeat::from_json(line)
                .map_err(|e| eprintln!("error: {} child: {e}", w.name()))
                .ok()
        }
        Ok(o) => {
            eprintln!("error: {} child exited with {}", w.name(), o.status);
            None
        }
        Err(e) => {
            eprintln!("error: cannot spawn {} child: {e}", w.name());
            None
        }
    };
    Child {
        job_s: (t1 - t0) as f64 / 1e9,
        setup_s: repeat
            .as_ref()
            .map_or(0.0, |r| r.first_leg_ns.saturating_sub(t0) as f64 / 1e9),
        repeat,
    }
}

/// The seed a workload's children get: `explore_ops24` screens for a
/// suite seed whose crash space has the reference size (see
/// [`jobs::explore_seed`]); the other workloads take `seed` as given.
pub(crate) fn input_seed(w: Workload, seed: u64) -> u64 {
    if w != Workload::ExploreOps24 {
        return seed;
    }
    let s = jobs::explore_seed(seed);
    if s != seed {
        eprintln!("# {}: seed {seed} explores suite seed {s}", w.name());
    }
    s
}

/// Keep spawning repeats of one kind while another one fits in
/// `seconds` (judged by the slowest so far); at least one always runs.
fn for_seconds<T>(seconds: f64, mut one: impl FnMut() -> T) -> Vec<T> {
    let t0 = std::time::Instant::now();
    let mut out = Vec::new();
    let mut longest: f64 = 0.0;
    loop {
        let s = std::time::Instant::now();
        out.push(one());
        longest = longest.max(s.elapsed().as_secs_f64());
        if t0.elapsed().as_secs_f64() + longest > seconds {
            return out;
        }
    }
}

/// Legs attempted and failed across a run, under the failure rules: a
/// dead child fails all of its legs; a repeat whose output digest differs
/// from the pinned one (or, with none pinned, from the run's first
/// repeat), or whose full-outcome digest differs from the first repeat's,
/// fails every leg it ran; otherwise its own failed legs count.
pub(crate) fn judge(w: Workload, repeats: &[Option<&Repeat>], pinned: Option<u64>) -> (u64, u64) {
    let first = repeats.iter().flatten().next();
    let reference = pinned.or(first.map(|r| r.output_digest));
    let (mut attempted, mut failed) = (0, 0);
    for r in repeats {
        match r {
            None => {
                attempted += w.nominal_legs();
                failed += w.nominal_legs();
            }
            Some(r) => {
                attempted += r.attempted;
                let consistent = Some(r.output_digest) == reference
                    && first.is_some_and(|f| f.outcome_digest == r.outcome_digest);
                failed += if consistent { r.failed } else { r.attempted };
            }
        }
    }
    (attempted, failed)
}

/// Per-repeat end-to-end values of one workload's children, keyed by
/// metric name, plus the run-level value (median over repeats; leg
/// percentiles over every leg of the run pooled).
pub(crate) struct E2e {
    /// Metric → one value per successful repeat.
    pub per_repeat: BTreeMap<&'static str, Vec<f64>>,
    /// Metric → the run's value.
    pub run: BTreeMap<&'static str, f64>,
    /// Legs pooled for the leg percentiles.
    pub legs: usize,
}

/// The end-to-end metrics this benchmark emits.
pub const E2E_METRICS: [&str; 7] = [
    "job_s",
    "cpu_s",
    "setup_s",
    "sim_mcycles_per_s",
    "leg_ms_p50",
    "leg_ms_p90",
    "peak_rss_mb",
];

/// Turn successful children into end-to-end metrics (`None` if no child
/// succeeded).
pub(crate) fn e2e(children: &[Child]) -> Option<E2e> {
    let ok: Vec<(&Child, &Repeat)> = children
        .iter()
        .filter_map(|c| c.repeat.as_ref().map(|r| (c, r)))
        .filter(|(_, r)| !r.legs_ms.is_empty())
        .collect();
    if ok.is_empty() {
        return None;
    }
    let mut per_repeat: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (c, r) in &ok {
        let values = [
            c.job_s,
            r.cpu_s,
            c.setup_s,
            r.sim_cycles as f64 / r.leg_s().max(1e-9) / 1e6,
            stats::percentile(&r.legs_ms, 50.0),
            stats::percentile(&r.legs_ms, 90.0),
            r.peak_rss_mb,
        ];
        for (name, v) in E2E_METRICS.iter().zip(values) {
            per_repeat.entry(name).or_default().push(v);
        }
    }
    let pooled: Vec<f64> = ok
        .iter()
        .flat_map(|(_, r)| r.legs_ms.iter().copied())
        .collect();
    let run = E2E_METRICS
        .iter()
        .map(|&name| {
            let v = match name {
                "leg_ms_p50" => stats::percentile(&pooled, 50.0),
                "leg_ms_p90" => stats::percentile(&pooled, 90.0),
                _ => stats::median(&per_repeat[name]),
            };
            (name, v)
        })
        .collect();
    Some(E2e {
        per_repeat,
        run,
        legs: pooled.len(),
    })
}

/// The contract's result line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(n),
                json::num(*v),
                json::quote(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Exact per-layer metrics must repeat across traced children; the
/// names of any that did not.
fn unstable_exact(spec: &Spec, ledgers: &[BTreeMap<String, f64>]) -> Vec<String> {
    let Some(first) = ledgers.first() else {
        return Vec::new();
    };
    spec.plan
        .iter()
        .filter(|(_, p)| p.exact)
        .map(|(name, _)| name)
        .filter(|name| ledgers.iter().any(|l| l.get(*name) != first.get(*name)))
        .cloned()
        .collect()
}

/// One traced pair: an untraced child, then a traced one.
fn pair(w: Workload, seed: u64, spans_out: Option<&Path>) -> (Child, Child) {
    (spawn(w, seed, false, None), spawn(w, seed, true, spans_out))
}

/// Merge traced pairs into the ledger (host-time metrics as medians over
/// the traced children) with `trace.overhead_pct`, plus attempted and
/// failed legs. A traced child whose outcomes differ from the untraced
/// ones, or whose exact metrics differ from the other traced children's,
/// fails the run.
fn ledger(
    spec: &Spec,
    w: Workload,
    seed: u64,
    pairs: &[(Child, Child)],
) -> (BTreeMap<String, f64>, u64, u64) {
    let (untraced, traced): (Vec<&Child>, Vec<&Child>) = pairs.iter().map(|(u, t)| (u, t)).unzip();
    let all: Vec<Option<&Repeat>> = untraced
        .iter()
        .chain(&traced)
        .map(|c| c.repeat.as_ref())
        .collect();
    let (attempted, mut failed) = judge(w, &all, spec.pinned_digest(seed, w.name()));
    let ledgers: Vec<BTreeMap<String, f64>> = traced
        .iter()
        .filter_map(|c| c.repeat.as_ref()?.ledger.as_ref())
        .map(|l| l.iter().cloned().collect())
        .collect();
    let unstable = unstable_exact(spec, &ledgers);
    if !unstable.is_empty() {
        eprintln!(
            "error: {}: exact layer metrics differ across traced runs: {unstable:?}",
            w.name()
        );
        failed = attempted;
    }
    let mut merged = BTreeMap::new();
    for name in LAYER_METRICS {
        let values: Vec<f64> = ledgers
            .iter()
            .filter_map(|l| l.get(name).copied())
            .collect();
        if !values.is_empty() {
            merged.insert(name.to_string(), stats::median(&values));
        }
    }
    // Host time inside the legs, so the ledger's extra passes (the
    // cache-sim replay, the codec and pool/protocol passes) stay out.
    let leg_s = |cs: &[&Child]| {
        let v: Vec<f64> = cs
            .iter()
            .filter_map(|c| Some(c.repeat.as_ref()?.leg_s()))
            .collect();
        (!v.is_empty()).then(|| stats::median(&v))
    };
    if let (Some(u), Some(t)) = (leg_s(&untraced), leg_s(&traced)) {
        merged.insert("trace.overhead_pct".to_string(), 100.0 * (t / u - 1.0));
    }
    (merged, attempted, failed)
}

/// `asap_bench bench`: the measurement the benchmark contract runs. One
/// workload, `seconds` of repeats, one JSON line last on stdout. Returns
/// the exit code.
pub fn bench(spec: &Spec, w: Workload, seed: u64, seconds: u64, traced: bool) -> i32 {
    let seed = input_seed(w, seed);
    let (values, attempted, failed) = if traced {
        let pairs = for_seconds(seconds as f64, || pair(w, seed, None));
        ledger(spec, w, seed, &pairs)
    } else {
        let children = for_seconds(seconds as f64, || spawn(w, seed, false, None));
        let repeats: Vec<Option<&Repeat>> = children.iter().map(|c| c.repeat.as_ref()).collect();
        let (attempted, failed) = judge(w, &repeats, spec.pinned_digest(seed, w.name()));
        let values = e2e(&children).map_or_else(BTreeMap::new, |e| {
            e.run.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        });
        (values, attempted, failed)
    };
    if !values.is_empty() {
        if let Err(e) = spec.check_emitted(traced, values.keys().map(String::as_str)) {
            eprintln!("error: {e}");
            return 2;
        }
    }
    let declared = if traced { &spec.layers } else { &spec.e2e };
    let metrics: Vec<(String, f64, String)> = declared
        .iter()
        .filter_map(|m| Some((m.name.clone(), *values.get(&m.name)?, m.unit.clone())))
        .collect();
    let correct = failed == 0 && metrics.len() == declared.len();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        0
    } else {
        1
    }
}

/// Provenance stamped into every result file.
fn provenance(seed: u64) -> String {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "\"seed\":{seed},\"nproc\":{},\"rustc\":{},\"git_rev\":{}",
        probe::nproc(),
        json::quote(&run("rustc", &["-V"])),
        json::quote(&run("git", &["rev-parse", "HEAD"])),
    )
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values_json(v: &[f64]) -> String {
    format!(
        "[{}]",
        v.iter()
            .map(|&x| json::num(x))
            .collect::<Vec<_>>()
            .join(",")
    )
}

/// `asap_bench run`: every selected workload for its `plan.json` repeat
/// count (or `repeats`), children interleaved round-robin across
/// workloads so host drift spreads evenly. Writes `BENCH_<workload>.json`
/// into `out` and prints every end-to-end metric with its unit. Returns
/// the exit code.
pub fn run(
    spec: &Spec,
    workloads: &[Workload],
    seed: u64,
    repeats: Option<usize>,
    out: &Path,
) -> Result<i32, String> {
    let repeats_of = |w: &Workload| repeats.unwrap_or(spec.repeats[w.name()]);
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let seeds: BTreeMap<&str, u64> = workloads
        .iter()
        .map(|w| (w.name(), input_seed(*w, seed)))
        .collect();
    let rounds = workloads.iter().map(repeats_of).max().unwrap_or(0);
    let mut children: BTreeMap<&str, Vec<Child>> = BTreeMap::new();
    for round in 0..rounds {
        for w in workloads {
            if round < repeats_of(w) {
                eprintln!("# {} repeat {}", w.name(), round + 1);
                let child = spawn(*w, seeds[w.name()], false, None);
                children.entry(w.name()).or_default().push(child);
            }
        }
    }
    let prov = provenance(seed);
    let mut code = 0;
    for w in workloads {
        let cs = &children[w.name()];
        let repeats: Vec<Option<&Repeat>> = cs.iter().map(|c| c.repeat.as_ref()).collect();
        let pinned = spec.pinned_digest(seeds[w.name()], w.name());
        let (attempted, failed) = judge(*w, &repeats, pinned);
        let fail_ratio = failed as f64 / attempted.max(1) as f64;
        let digest = repeats.iter().flatten().next().map(|r| r.output_digest);
        let Some(e) = e2e(cs) else {
            return Err(format!("{}: every child failed", w.name()));
        };
        let mut metrics = Vec::new();
        for m in &spec.e2e {
            let vals = &e.per_repeat[m.name.as_str()];
            let (p25, p75) = stats::quartiles(vals);
            let pooled = match m.name.as_str() {
                "leg_ms_p50" | "leg_ms_p90" => format!(
                    ",\"pooled\":{},\"pooled_legs\":{}",
                    json::num(e.run[m.name.as_str()]),
                    e.legs
                ),
                _ => String::new(),
            };
            metrics.push(format!(
                "{}:{{\"unit\":{},\"values\":{},\"median\":{},\"p25\":{},\"p75\":{},\"n\":{}{pooled}}}",
                json::quote(&m.name),
                json::quote(&m.unit),
                values_json(vals),
                json::num(stats::median(vals)),
                json::num(p25),
                json::num(p75),
                vals.len()
            ));
            println!(
                "{:<14} {:<18} {:>14.6} {:<10} (p25 {:.6}, p75 {:.6}, n {})",
                w.name(),
                m.name,
                stats::median(vals),
                m.unit,
                p25,
                p75,
                vals.len()
            );
        }
        let sim_cycles: Vec<f64> = repeats
            .iter()
            .flatten()
            .map(|r| r.sim_cycles as f64)
            .collect();
        println!(
            "{:<14} {:<18} {:>14} {:<10} ({} of {} legs failed; digest {})",
            w.name(),
            "fail_ratio",
            fail_ratio,
            "fraction",
            failed,
            attempted,
            match (digest, pinned) {
                (Some(d), Some(p)) if d == p => "matches the pinned one".to_string(),
                (Some(d), Some(_)) => format!("{d:016x} differs from the pinned one"),
                (Some(d), None) => format!("{d:016x}, none pinned for this seed"),
                (None, _) => "missing".to_string(),
            }
        );
        let text = format!(
            "{{\"workload\":{},{prov},\"input_seed\":{},\"repeats\":{},\"attempted\":{attempted},\"failed\":{failed},\
             \"fail_ratio\":{},\"output_digest\":{},\"pinned_digest\":{},\"sim_cycles\":{},\
             \"metrics\":{{{}}}}}\n",
            json::quote(w.name()),
            seeds[w.name()],
            cs.len(),
            json::num(fail_ratio),
            digest.map_or("null".into(), |d| json::quote(&format!("{d:016x}"))),
            pinned.map_or("null".into(), |d| json::quote(&format!("{d:016x}"))),
            values_json(&sim_cycles),
            metrics.join(",")
        );
        write(&out.join(format!("BENCH_{}.json", w.name())), &text)?;
        if failed > 0 {
            code = 1;
        }
    }
    Ok(code)
}

/// `asap_bench trace`: two traced pairs per workload. Writes
/// `TRACE_<workload>.json` (the ledger, with each metric's layer map and
/// any paper value) and `TRACE_<workload>.spans.json` (Chrome trace of
/// the last traced child). Returns the exit code.
pub fn trace(spec: &Spec, workloads: &[Workload], seed: u64, out: &Path) -> Result<i32, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let prov = provenance(seed);
    let mut code = 0;
    for w in workloads {
        eprintln!("# tracing {}", w.name());
        let spans_path = out.join(format!("TRACE_{}.spans.json", w.name()));
        let child_seed = input_seed(*w, seed);
        let pairs = [
            pair(*w, child_seed, Some(&spans_path)),
            pair(*w, child_seed, Some(&spans_path)),
        ];
        let (ledger, attempted, failed) = ledger(spec, *w, child_seed, &pairs);
        let mut entries = Vec::new();
        for m in &spec.layers {
            let Some(v) = ledger.get(&m.name) else {
                return Err(format!(
                    "{}: traced run did not report {}",
                    w.name(),
                    m.name
                ));
            };
            let plan = &spec.plan[&m.name];
            let paper = plan.paper.map_or(String::new(), |p| {
                format!(
                    ",\"paper\":{},\"error_pct\":{}",
                    json::num(p),
                    json::num(100.0 * (v - p) / p)
                )
            });
            let list = |v: &[String]| {
                format!(
                    "[{}]",
                    v.iter()
                        .map(|s| json::quote(s))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            };
            entries.push(format!(
                "{}:{{\"value\":{},\"unit\":{},\"moves\":{},\"on\":{},\"exact\":{}{paper}}}",
                json::quote(&m.name),
                json::num(*v),
                json::quote(&m.unit),
                list(&plan.moves),
                list(&plan.on),
                plan.exact
            ));
            println!("{:<14} {:<36} {:>16.6} {}", w.name(), m.name, v, m.unit);
        }
        let text = format!(
            "{{\"workload\":{},{prov},\"input_seed\":{child_seed},\"traced_runs\":{},\"attempted\":{attempted},\"failed\":{failed},\
             \"note\":{},\"metrics\":{{{}}}}}\n",
            json::quote(w.name()),
            pairs.len(),
            json::quote(
                "traced children count allocations and keep spans; trace.overhead_pct compares \
                 their host time inside the legs with untraced children's, allocator counting \
                 included"
            ),
            entries.join(",")
        );
        write(&out.join(format!("TRACE_{}.json", w.name())), &text)?;
        if failed > 0 {
            code = 1;
        }
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repeat(digest: u64, attempted: u64, failed: u64) -> Repeat {
        Repeat {
            first_leg_ns: 0,
            legs_ms: vec![1.0; attempted as usize],
            sim_cycles: 10,
            attempted,
            failed,
            output_digest: digest,
            outcome_digest: 7,
            cpu_s: 1.0,
            peak_rss_mb: 1.0,
            ledger: None,
        }
    }

    #[test]
    fn digest_mismatch_fails_every_leg() {
        let good = repeat(0xaa, 84, 0);
        let bad = repeat(0xbb, 84, 0);
        let w = Workload::Fig08Full;
        assert_eq!(judge(w, &[Some(&good), Some(&good)], Some(0xaa)), (168, 0));
        assert_eq!(judge(w, &[Some(&good), Some(&bad)], Some(0xaa)), (168, 84));
        assert_eq!(judge(w, &[Some(&good)], Some(0xbb)), (84, 84));
        // Without a pinned digest the run's first repeat is the reference.
        assert_eq!(judge(w, &[Some(&good), Some(&bad)], None), (168, 84));
        // A dead child fails its nominal legs; a repeat's own failures count.
        let partial = repeat(0xaa, 84, 3);
        assert_eq!(judge(w, &[None, Some(&partial)], None), (168, 84 + 3));
        let mut drifted = repeat(0xaa, 84, 0);
        drifted.outcome_digest = 8;
        assert_eq!(
            judge(w, &[Some(&good), Some(&drifted)], Some(0xaa)),
            (168, 84)
        );
    }

    #[test]
    fn e2e_pools_legs_and_takes_medians() {
        let mut r = repeat(1, 100, 0);
        r.legs_ms = (1..=100).map(f64::from).collect();
        let c = |job_s| Child {
            job_s,
            setup_s: 0.001,
            repeat: Some(r.clone()),
        };
        let e = e2e(&[c(2.0), c(4.0), c(3.0)]).unwrap();
        assert_eq!(e.run["job_s"], 3.0);
        assert_eq!(e.run["leg_ms_p90"], 90.0);
        assert_eq!(e.legs, 300);
        assert_eq!(e.per_repeat["job_s"], vec![2.0, 4.0, 3.0]);
        assert!(e2e(&[Child {
            job_s: 1.0,
            setup_s: 0.0,
            repeat: None
        }])
        .is_none());
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(true, 3, 0, &[("job_s".into(), 1.25, "s".into())]);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(3));
        let m = v.get("metrics").unwrap().get("job_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }
}
