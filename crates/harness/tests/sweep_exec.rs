//! Library-level tests of the sweep executor ([`asap_harness::exec`]):
//! cache correctness (hit ⇒ byte-identical results, corruption ⇒
//! re-run), resume after a partial run, shard composition, and every
//! registry figure cold and warm. The `asap_sweep` binary is covered
//! end-to-end by `asap_sweep_cli.rs`.

use asap_harness::args::{Shard, SweepArgs};
use asap_harness::cache::{decode_outcome, encode_outcome, run_spec_digest, OutcomeCache};
use asap_harness::exec::{sweep_figure, sweep_run_once, sweep_traffic};
use asap_harness::experiments::{figure, ExperimentScale, FIGURES};
use asap_harness::traffic::TrafficScale;
use asap_harness::RunSpec;
use asap_sim_core::{Cycle, Flavor, ModelKind, SimConfig};
use asap_workloads::WorkloadKind;
use std::path::{Path, PathBuf};

/// A four-leg sweep small enough to simulate in milliseconds.
fn tiny_specs() -> Vec<RunSpec> {
    [
        (WorkloadKind::Queue, 42),
        (WorkloadKind::Queue, 43),
        (WorkloadKind::Heap, 42),
        (WorkloadKind::Heap, 43),
    ]
    .into_iter()
    .map(|(workload, seed)| RunSpec {
        config: SimConfig::paper(),
        model: ModelKind::Asap,
        flavor: Flavor::Release,
        workload,
        ops_per_thread: 12,
        seed,
    })
    .collect()
}

fn sweep_args(cache_dir: Option<&Path>) -> SweepArgs {
    SweepArgs {
        cache_dir: cache_dir.map(|p| p.to_str().expect("utf8 dir").to_string()),
        ..Default::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("asap-exec-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Encode both result vectors and compare the bytes — the same
/// comparison a table rendering would make, but field-exact. The
/// `wallns` provenance token is stripped: wall clock is the one field
/// excluded from `RunOutcome` equality and from every table.
fn encoded(outs: &[Option<asap_harness::RunOutcome>]) -> Vec<String> {
    outs.iter()
        .map(|o| {
            encode_outcome(o.as_ref().expect("complete sweep"))
                .split_whitespace()
                .filter(|t| !t.starts_with("wallns="))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

#[test]
fn warm_cache_reproduces_identical_outcomes_without_simulating() {
    let dir = tmpdir("warm");
    let specs = tiny_specs();
    let sa = sweep_args(Some(&dir));

    let (cold, cold_report) = sweep_run_once("t", &specs, &sa);
    assert!(cold_report.complete);
    assert_eq!(cold_report.cached, 0);
    assert_eq!(cold_report.simulated, specs.len());

    let (warm, warm_report) = sweep_run_once("t", &specs, &sa);
    assert!(warm_report.complete);
    assert_eq!(warm_report.cached, specs.len(), "every leg must hit");
    assert_eq!(warm_report.simulated, 0, "a warm run simulates nothing");
    assert_eq!(
        encoded(&cold),
        encoded(&warm),
        "cached outcomes must be byte-identical to simulated ones"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entry_is_re_simulated_never_misread() {
    let dir = tmpdir("corrupt");
    let specs = tiny_specs();
    let sa = sweep_args(Some(&dir));
    let (cold, _) = sweep_run_once("t", &specs, &sa);

    // Flip payload bytes of leg 1's entry while keeping the file shape.
    let cache = OutcomeCache::open(&dir).unwrap();
    let path = cache.entry_path(run_spec_digest(&specs[1], "complete"));
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace("cycles=", "cycles=9")).unwrap();

    let (warm, report) = sweep_run_once("t", &specs, &sa);
    assert_eq!(report.cached, specs.len() - 1);
    assert_eq!(report.simulated, 1, "the corrupted leg must re-run");
    assert_eq!(
        encoded(&cold),
        encoded(&warm),
        "corruption never skews results"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_skips_finished_legs_and_matches_bytes() {
    let dir = tmpdir("resume");
    let specs = tiny_specs();
    let sa = sweep_args(Some(&dir));
    let (cold, _) = sweep_run_once("t", &specs, &sa);

    // Simulate a kill after two legs: drop the other two cache entries
    // and their journal lines (a real kill simply never wrote them).
    let cache = OutcomeCache::open(&dir).unwrap();
    for spec in &specs[2..] {
        std::fs::remove_file(cache.entry_path(run_spec_digest(spec, "complete"))).unwrap();
    }
    // Journal lines land in completion order, so keep the header plus
    // the two surviving legs' lines by digest, not by position.
    let survivors: Vec<String> = specs[..2]
        .iter()
        .map(|s| format!("{:016x}", run_spec_digest(s, "complete")))
        .collect();
    let journal = dir.join("t.journal");
    let kept: Vec<String> = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with('#') || survivors.iter().any(|d| l.ends_with(d.as_str())))
        .map(str::to_string)
        .collect();
    assert_eq!(kept.len(), 3, "header + two surviving legs");
    std::fs::write(&journal, kept.join("\n") + "\n").unwrap();

    let sa_resume = SweepArgs {
        resume: true,
        ..sweep_args(Some(&dir))
    };
    let (resumed, report) = sweep_run_once("t", &specs, &sa_resume);
    assert!(report.complete);
    assert_eq!(report.simulated, 2, "only the unfinished legs re-run");
    assert_eq!(report.resumed, 2, "the journaled legs count as resumed");
    assert_eq!(
        encoded(&cold),
        encoded(&resumed),
        "a resumed sweep must be byte-identical to an uninterrupted one"
    );

    // A torn final journal line (kill mid-append) must not break resume.
    let mut torn = std::fs::read_to_string(&journal).unwrap();
    torn.push_str("done 3 abc"); // truncated digest, no newline
    std::fs::write(&journal, torn).unwrap();
    let (again, report) = sweep_run_once("t", &specs, &sa_resume);
    assert!(report.complete);
    assert_eq!(report.simulated, 0);
    assert_eq!(encoded(&cold), encoded(&again));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shards_compose_into_the_full_sweep() {
    let dir = tmpdir("shard");
    let specs = tiny_specs();
    let (reference, _) = sweep_run_once("t", &specs, &sweep_args(None));

    // Shard 0 into the shared dir: half the legs run, half are skipped.
    let sa0 = SweepArgs {
        shard: Some(Shard { index: 0, of: 2 }),
        ..sweep_args(Some(&dir))
    };
    let (outs, report) = sweep_run_once("t", &specs, &sa0);
    assert!(!report.complete, "half a sweep must not claim completeness");
    assert_eq!(report.simulated, 2);
    assert_eq!(report.shard_skipped, 2);
    for (i, o) in outs.iter().enumerate() {
        assert_eq!(o.is_some(), i % 2 == 0, "leg {i} ownership");
    }

    // Shard 1 over the same dir: its own legs simulate, shard 0's legs
    // answer from the shared cache — the run comes out complete.
    let sa1 = SweepArgs {
        shard: Some(Shard { index: 1, of: 2 }),
        ..sweep_args(Some(&dir))
    };
    let (_, report) = sweep_run_once("t", &specs, &sa1);
    assert!(
        report.complete,
        "the last shard sees the whole sweep cached"
    );
    assert_eq!(report.cached, 2);
    assert_eq!(report.simulated, 2);

    // Final assembly pass over the shared cache: all hits, no sims.
    let (full, report) = sweep_run_once("t", &specs, &sweep_args(Some(&dir)));
    assert!(report.complete);
    assert_eq!(report.cached, specs.len());
    assert_eq!(report.simulated, 0);
    assert_eq!(encoded(&reference), encoded(&full));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traffic_sweep_caches_and_round_trips() {
    let dir = tmpdir("traffic");
    let mut scale = TrafficScale::quick();
    scale.requests = 64;
    scale.apps.truncate(1);
    scale.models.truncate(2);
    scale.gaps.truncate(1);
    let specs = scale.specs();
    assert_eq!(specs.len(), 2);
    let sa = sweep_args(Some(&dir));

    let (cold, cold_report) = sweep_traffic("traffic", &specs, &sa);
    assert_eq!(cold_report.simulated, specs.len());
    let (warm, warm_report) = sweep_traffic("traffic", &specs, &sa);
    assert_eq!(warm_report.cached, specs.len());
    assert_eq!(warm_report.simulated, 0);
    let unwrap = |v: Vec<Option<asap_harness::traffic::TrafficOutcome>>| -> Vec<String> {
        v.into_iter()
            .map(|o| asap_harness::cache::encode_traffic(&o.expect("complete")))
            .collect()
    };
    assert_eq!(unwrap(cold), unwrap(warm));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sub-quick scale for running every registry figure twice.
fn tiny_scale() -> ExperimentScale {
    ExperimentScale {
        ops: 12,
        window: Cycle(30_000),
        seed: 42,
    }
}

fn markdown(tables: Option<Vec<asap_harness::Table>>) -> Vec<String> {
    tables
        .expect("an unsharded sweep is complete")
        .iter()
        .map(|t| t.to_markdown())
        .collect()
}

#[test]
fn every_figure_replays_from_a_warm_cache() {
    for fig in &FIGURES {
        let dir = tmpdir(&format!("fig-{}", fig.name));
        let sa = sweep_args(Some(&dir));
        let (cold, cold_report) = sweep_figure(fig, tiny_scale(), &sa);
        assert_eq!(cold_report.cached, 0, "{}", fig.name);
        assert_eq!(cold_report.legs, (fig.specs)(tiny_scale()).len());
        let (warm, warm_report) = sweep_figure(fig, tiny_scale(), &sa);
        assert_eq!(
            warm_report.simulated, 0,
            "{}: warm pass simulated",
            fig.name
        );
        assert_eq!(warm_report.cached, warm_report.legs, "{}", fig.name);
        assert_eq!(
            markdown(cold),
            markdown(warm),
            "{}: cached tables must be byte-identical",
            fig.name
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn cache_keys_do_not_depend_on_the_figure() {
    // Figures 9 and 11 run HOPS_RP and ASAP_RP legs that Figure 8 also
    // runs: after fig08, both answer entirely from its cache entries.
    let dir = tmpdir("shared");
    let sa = sweep_args(Some(&dir));
    let fig = |name| figure(name).expect("registered figure");
    let (_, report) = sweep_figure(fig("fig08"), tiny_scale(), &sa);
    assert_eq!(report.simulated, report.legs);
    for name in ["fig09", "fig11"] {
        let (tables, report) = sweep_figure(fig(name), tiny_scale(), &sa);
        assert!(tables.is_some(), "{name}");
        assert_eq!(report.simulated, 0, "{name} must reuse fig08's legs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn windowed_legs_are_cached_as_unfinished_runs() {
    let dir = tmpdir("window");
    let fig = figure("fig02").expect("registered figure");
    assert!(fig.windowed);
    let (tables, _) = sweep_figure(fig, tiny_scale(), &sweep_args(Some(&dir)));
    assert!(tables.is_some());
    let cache = OutcomeCache::open(&dir).unwrap();
    let mode = format!("window:{}", tiny_scale().window.0);
    for spec in (fig.specs)(tiny_scale()) {
        let payload = cache
            .load(run_spec_digest(&spec, &mode))
            .expect("every windowed leg is stored under its window key");
        let out = decode_outcome(&payload).expect("stored leg decodes");
        assert!(!out.all_done, "a windowed leg stops at the window");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
