//! `asap_bench compare BASE_DIR HEAD_DIR`: verdicts for every (workload,
//! end-to-end metric) pair of two sides, each one `run` result set or a
//! directory of them (one subdirectory per alternation round, merged in
//! name order so repeat `i` of one side pairs with repeat `i` of the
//! other).
//!
//! The rules:
//!
//! * When the base's interquartile spread, as a share of its median, is
//!   wider than the metric's bound, the verdict is `unresolved` unless
//!   every head repeat beats every base repeat.
//! * Otherwise the head regresses if its median is worse than the base's
//!   by more than the bound.
//! * It improves only if there are at least [`MIN_PAIRS`] repeat pairs,
//!   it wins at least nine tenths of them (ties count for neither), and
//!   the medians differ by more than the base's interquartile distance.
//! * A change no larger than the metric's absolute floor in `plan.json`
//!   (`setup_s`: 5 ms) is none of these.
//! * A higher `fail_ratio` is a regression; `sim_cycles` must match
//!   exactly when both sets used the same seed.

use crate::json::{self, Value};
use crate::spec::{Better, Spec};
use crate::stats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The outcome of comparing one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Better by the rules above.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Within the bound.
    Unchanged,
    /// Too noisy to tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest repeat pairs a gain may rest on.
pub(crate) const MIN_PAIRS: usize = 10;

/// Compare per-repeat `head` values against `base` values. `bound` is the
/// share of the base median the metric may worsen by; a change of no more
/// than `floor` (absolute, in the metric's unit) is never a regression,
/// an improvement or a reason to call the result unresolved.
///
/// # Panics
///
/// Panics if either side is empty.
pub(crate) fn verdict(
    base: &[f64],
    head: &[f64],
    better: Better,
    bound: f64,
    floor: f64,
) -> Verdict {
    let beats = |h: f64, b: f64| match better {
        Better::Lower => h < b,
        Better::Higher => h > b,
    };
    let (mb, mh) = (stats::median(base), stats::median(head));
    let (q1, q3) = stats::quartiles(base);
    let spread = if q3 == q1 { 0.0 } else { (q3 - q1) / mb.abs() };
    let worse = match better {
        Better::Lower => mh - mb,
        Better::Higher => mb - mh,
    };
    let worse_share = if worse == 0.0 {
        0.0
    } else if mb == 0.0 {
        worse.signum() * f64::INFINITY
    } else {
        worse / mb.abs()
    };
    if spread > bound && q3 - q1 > floor {
        let all_beat = head.iter().all(|&h| base.iter().all(|&b| beats(h, b)));
        return if all_beat {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_share > bound && worse > floor {
        return Verdict::Regressed;
    }
    let pairs = base.len().min(head.len());
    let wins = base.iter().zip(head).filter(|(&b, &h)| beats(h, b)).count();
    if worse < -floor && pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && (mh - mb).abs() > q3 - q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One side of a comparison for one workload: every result set found,
/// merged in path order.
struct Side {
    seeds: Vec<u64>,
    attempted: u64,
    failed: u64,
    sim_cycles: Vec<f64>,
    metrics: BTreeMap<String, Vec<f64>>,
}

fn numbers(v: &Value) -> Option<Vec<f64>> {
    v.as_arr()?.iter().map(Value::as_f64).collect()
}

/// The `BENCH_<workload>.json` files of a side: the one in `dir` itself,
/// then one per immediate subdirectory (one per alternation round), in
/// name order.
fn files(dir: &Path, workload: &str) -> Result<Vec<PathBuf>, String> {
    let name = format!("BENCH_{workload}.json");
    let mut subdirs: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.is_dir())
        .collect();
    subdirs.sort();
    Ok(std::iter::once(dir.to_path_buf())
        .chain(subdirs)
        .map(|d| d.join(&name))
        .filter(|p| p.exists())
        .collect())
}

fn load(dir: &Path, workload: &str) -> Result<Option<Side>, String> {
    let paths = files(dir, workload)?;
    if paths.is_empty() {
        return Ok(None);
    }
    let mut side = Side {
        seeds: Vec::new(),
        attempted: 0,
        failed: 0,
        sim_cycles: Vec::new(),
        metrics: BTreeMap::new(),
    };
    for path in paths {
        let bad = |what: &str| format!("{}: {what}", path.display());
        let text = std::fs::read_to_string(&path).map_err(|e| bad(&e.to_string()))?;
        let doc = json::parse(&text).map_err(|e| bad(&e))?;
        let count = |k: &str| doc.get(k).and_then(Value::as_u64).ok_or_else(|| bad(k));
        side.seeds.push(count("seed")?);
        side.attempted += count("attempted")?;
        side.failed += count("failed")?;
        side.sim_cycles.extend(
            doc.get("sim_cycles")
                .and_then(numbers)
                .ok_or_else(|| bad("sim_cycles"))?,
        );
        for (name, m) in doc
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| bad("metrics"))?
        {
            let values = m.get("values").and_then(numbers).ok_or_else(|| bad(name))?;
            side.metrics.entry(name.clone()).or_default().extend(values);
        }
    }
    Ok(Some(side))
}

impl Side {
    fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn summary(v: &[f64]) -> String {
    let f = |x: f64| {
        if x.fract() == 0.0 {
            format!("{x:.0}")
        } else {
            format!("{x:.6}")
        }
    };
    let (q1, q3) = stats::quartiles(v);
    format!("{} [{}, {}]", f(stats::median(v)), f(q1), f(q3))
}

/// Print a verdict for every pair present on both sides; `Ok(true)` when
/// anything regressed.
pub fn compare(spec: &Spec, base: &Path, head: &Path) -> Result<bool, String> {
    let mut regressed = false;
    let mut compared = 0;
    println!(
        "{:<14} {:<18} {:<40} {:<40} verdict",
        "workload", "metric", "base median [p25, p75]", "head median [p25, p75]"
    );
    for w in &spec.workloads {
        let (Some(b), Some(h)) = (load(base, w)?, load(head, w)?) else {
            continue;
        };
        let mut row = |metric: &str, bs: String, hs: String, v: Verdict| {
            println!("{w:<14} {metric:<18} {bs:<40} {hs:<40} {}", v.label());
            regressed |= v == Verdict::Regressed;
            compared += 1;
        };
        for m in &spec.e2e {
            let (Some(bv), Some(hv)) = (b.metrics.get(&m.name), h.metrics.get(&m.name)) else {
                return Err(format!("{w}: {} missing from a result set", m.name));
            };
            if bv.is_empty() || hv.is_empty() {
                return Err(format!("{w}: {} has no values", m.name));
            }
            let floor = spec.floors.get(&m.name).copied().unwrap_or(0.0);
            let v = verdict(bv, hv, m.better, m.bound.unwrap_or(0.0), floor);
            row(&m.name, summary(bv), summary(hv), v);
        }
        let (bf, hf) = (b.fail_ratio(), h.fail_ratio());
        let fv = if hf > bf {
            Verdict::Regressed
        } else if hf < bf {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        row("fail_ratio", json::num(bf), json::num(hf), fv);
        let one_seed = b.seeds.iter().chain(&h.seeds).all(|&s| s == b.seeds[0]);
        let cv = if !one_seed || b.sim_cycles.is_empty() || h.sim_cycles.is_empty() {
            Verdict::Unresolved
        } else {
            verdict(&b.sim_cycles, &h.sim_cycles, Better::Lower, 0.0, 0.0)
        };
        row(
            "sim_cycles",
            summary(&b.sim_cycles),
            summary(&h.sim_cycles),
            cv,
        );
    }
    if compared == 0 {
        return Err("no workload has a BENCH_<workload>.json on both sides".into());
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_of_ten_wins_beyond_the_base_spread_improve() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let mut head = [9.0, 9.1, 8.9, 9.0, 9.05, 8.95, 9.0, 9.1, 8.9, 9.0];
        assert_eq!(
            verdict(&base, &head, Better::Lower, 0.1, 0.0),
            Verdict::Improved
        );
        // One lost pair still clears nine tenths...
        head[0] = 10.5;
        assert_eq!(
            verdict(&base, &head, Better::Lower, 0.1, 0.0),
            Verdict::Improved
        );
        // ...two do not.
        head[1] = 10.5;
        assert_eq!(
            verdict(&base, &head, Better::Lower, 0.1, 0.0),
            Verdict::Unchanged
        );
        // Higher-is-better mirrors it.
        let up: Vec<f64> = base.iter().map(|b| b * 1.1).collect();
        assert_eq!(
            verdict(&base, &up, Better::Higher, 0.1, 0.0),
            Verdict::Improved
        );
        // Five pairs are too few to claim a gain on.
        assert_eq!(
            verdict(&base[..5], &up[..5], Better::Higher, 0.1, 0.0),
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_base_spread_is_unresolved_unless_every_run_wins() {
        let base = [8.0, 12.0, 9.0, 11.0, 10.0];
        let mixed = [9.5, 12.5, 8.5, 10.5, 9.0];
        assert_eq!(
            verdict(&base, &mixed, Better::Lower, 0.1, 0.0),
            Verdict::Unresolved
        );
        // Much worse is still unresolved under that much noise...
        let worse = [13.0, 13.5, 14.0, 13.2, 12.9];
        assert_eq!(
            verdict(&base, &worse, Better::Lower, 0.1, 0.0),
            Verdict::Unresolved
        );
        // ...but a head that beats every base run is an improvement.
        let all_better = [7.0, 7.5, 7.9, 6.8, 7.2];
        assert_eq!(
            verdict(&base, &all_better, Better::Lower, 0.1, 0.0),
            Verdict::Improved
        );
    }

    #[test]
    fn regressions_and_exact_counts() {
        let base = [1.0, 1.01, 0.99, 1.0, 1.0];
        let slower = [1.2, 1.21, 1.19, 1.2, 1.2];
        assert_eq!(
            verdict(&base, &slower, Better::Lower, 0.1, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &base, Better::Lower, 0.1, 0.0),
            Verdict::Unchanged
        );
        // Bound 0 on a deterministic count: any rise regresses.
        assert_eq!(
            verdict(&[5.0; 3], &[6.0; 3], Better::Lower, 0.0, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&[5.0; 3], &[5.0; 3], Better::Lower, 0.0, 0.0),
            Verdict::Unchanged
        );
        // Within the absolute floor, a 30% rise of a 1 ms set-up is noise.
        let setup = [0.00090, 0.00088, 0.00098];
        let later = [0.00118, 0.00119, 0.00093];
        assert_eq!(
            verdict(&setup, &later, Better::Lower, 0.25, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&setup, &later, Better::Lower, 0.25, 0.005),
            Verdict::Unchanged
        );
    }

    #[test]
    fn higher_fail_ratio_regresses() {
        let dir = |name: &str| {
            let d =
                std::env::temp_dir().join(format!("perfledger-cmp-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&d).unwrap();
            d
        };
        let (b, h) = (dir("base"), dir("head"));
        let doc = |failed: u64| {
            format!(
                "{{\"seed\":42,\"attempted\":100,\"failed\":{failed},\"sim_cycles\":[5,5],\
                 \"metrics\":{{\"job_s\":{{\"values\":[1.0,1.0]}},\
                 \"setup_s\":{{\"values\":[0.1,0.1]}}}}}}"
            )
        };
        std::fs::write(b.join("BENCH_a.json"), doc(0)).unwrap();
        std::fs::write(h.join("BENCH_a.json"), doc(1)).unwrap();
        let spec = Spec::parse(
            r#"{"command": ["x"], "paths": ["p"], "run_seconds": 1,
              "workloads": [{"name": "a", "why": "w"}, {"name": "b", "why": "w"}],
              "end_to_end": [{"name": "job_s", "unit": "s", "better": "lower", "bound": 0.1},
                             {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
              "per_layer": [{"name": "sim_cycles", "unit": "cycles", "better": "lower"}]}"#,
            r#"{"repeats": {"a": 1, "b": 1}, "pinned": {}, "floors": {},
              "layers": {"sim_cycles": {"moves": ["job_s"], "on": ["a"], "exact": true}}}"#,
        )
        .unwrap();
        assert_eq!(compare(&spec, &b, &h), Ok(true));
        assert_eq!(compare(&spec, &b, &b), Ok(false));
        // A side may be a directory of alternation rounds, merged.
        let rounds = dir("rounds");
        for r in ["r1", "r2"] {
            std::fs::create_dir_all(rounds.join(r)).unwrap();
            std::fs::write(rounds.join(r).join("BENCH_a.json"), doc(0)).unwrap();
        }
        let merged = load(&rounds, "a").unwrap().unwrap();
        assert_eq!(merged.metrics["job_s"].len(), 4);
        assert_eq!(merged.attempted, 200);
        assert_eq!(compare(&spec, &b, &rounds), Ok(false));
        for d in [b, h, rounds] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}
