//! `sweep_bench`: phase-by-phase wall clock of the Figure 8 sweep.
//!
//! Runs the exact production sweep (`fig08_specs`) in three timed
//! phases — workload generation (the pristine-set bank warm-up),
//! simulation (once as the old serial `for` loop, once through
//! `pool::par_map`), and reduction (the serial-vs-parallel outcome
//! cross-check) — and reports the serial/parallel speedup. Results are
//! appended to stdout and written to `BENCH_sweep.json` so CI can
//! archive the perf trajectory and fail on regressions.
//!
//! The JSON also carries two allocation audits:
//!
//! * the snapshot-pool counters of one representative ASAP run —
//!   `pool_fresh` is bounded by peak in-flight snapshots while
//!   `pool_recycled` tracks the store count, i.e. the persist-buffer
//!   flush loop allocates nothing per store once warm;
//! * with `--features alloc-count`, process-wide allocation counts per
//!   phase from the counting global allocator.
//!
//! ```text
//! sweep_bench [--quick] [--threads N] [--out PATH] [--cache-dir DIR]
//! ```
//!
//! `--quick` uses the tests' quick scale (CI exercises the parallel
//! path on every push without paying paper-scale minutes); the default
//! is paper scale. The shared sweep flags (`--threads`/`--workers`,
//! `--progress`) parse through [`asap_harness::args::SweepArgs`] exactly
//! as in `asap_sweep`.
//!
//! `--cache-dir DIR` adds a fourth timed phase: store every parallel
//! outcome into the digest-keyed outcome cache, then replay the whole
//! sweep from disk and cross-check the decoded outcomes against the
//! simulated ones. The JSON gains `cache_store_ms` / `cache_warm_ms` /
//! `cache_hits`; without the flag the output is unchanged.

use asap_core::{Flavor, ModelKind, SimBuilder};
use asap_harness::args::{arg_value as arg, has_flag, SweepArgs};
use asap_harness::cache::{decode_outcome, encode_outcome, run_spec_digest, OutcomeCache};
use asap_harness::experiments::{fig08_specs, ExperimentScale};
use asap_harness::{pool, prewarm_workloads, run_once, workload_bank_stats, RunOutcome, RunSpec};
use asap_sim_core::SimConfig;
use asap_workloads::{make_workload, WorkloadKind, WorkloadParams};
use std::time::{Duration, Instant};

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Process-wide allocation counters, `(allocations, bytes)`; all zero
/// without the `alloc-count` feature.
fn alloc_counters() -> (u64, u64) {
    #[cfg(feature = "alloc-count")]
    {
        asap_bench::alloc_count::counters()
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        (0, 0)
    }
}

/// Snapshot-pool audit on one representative ASAP run: returns
/// `(fresh_allocs, recycled, steady_state_fresh)` where the last value
/// counts fresh box allocations *after* the pool warmed up over the
/// first half of the run — the number the zero-allocation claim is
/// about.
fn pool_audit(scale: ExperimentScale) -> (u64, u64, u64) {
    let params = WorkloadParams {
        threads: 4,
        ops_per_thread: scale.ops,
        seed: scale.seed,
        ..WorkloadParams::default()
    };
    // Queue keeps a stationary burst structure, so the pool's
    // high-water mark settles during warm-up; Cceh-style segment splits
    // would keep (legitimately) raising the peak live-snapshot count
    // all run and muddy the steady-state reading.
    let build = || {
        SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(make_workload(WorkloadKind::Queue, &params))
            .build()
    };
    // First run learns the end time so the warm-up region can be "the
    // first half of the run" at any scale (a fixed warm-up window
    // under-warms long runs and over-warms short ones).
    let mut probe = build();
    probe.run_to_completion();
    let end = probe.now().raw();

    let mut sim = build();
    sim.run_for(asap_sim_core::Cycle(end / 2));
    let (fresh_warm, _) = sim.snapshot_pool_counters();
    sim.run_to_completion();
    let (fresh, recycled) = sim.snapshot_pool_counters();
    (fresh, recycled, fresh - fresh_warm)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    // Shared sweep flags (`--threads`/`--workers`, `--progress`) parse
    // and install through the one SweepArgs path `asap_sweep` uses.
    let sa = SweepArgs::init();
    let out_path = arg(&args, "--out").unwrap_or_else(|| "BENCH_sweep.json".into());
    let (scale_name, scale) = if quick {
        ("quick", ExperimentScale::quick())
    } else {
        ("full", ExperimentScale::full())
    };

    let specs: Vec<RunSpec> = fig08_specs(scale);
    let workers = pool::num_workers();
    eprintln!(
        "fig08 sweep: {} independent sims at {scale_name} scale, {workers} worker(s)",
        specs.len()
    );

    // Phase 1: workload generation. Warms the pristine-set bank so the
    // timed simulation legs measure simulation only; each (workload,
    // params) set is generated exactly once and cloned per sweep point.
    let a0 = alloc_counters();
    let ((), t_gen) = time(|| prewarm_workloads(&specs));
    let a1 = alloc_counters();

    // Phase 2: simulation, serial then parallel.
    let (serial, t_serial) = time(|| specs.iter().map(run_once).collect::<Vec<_>>());
    let a2 = alloc_counters();
    let (parallel, t_par) = time(|| pool::par_map(&specs, run_once));
    let a3 = alloc_counters();

    // Phase 3: reduction — the serial-vs-parallel equivalence check the
    // figure tables rely on.
    let (diverged, t_reduce) = time(|| {
        serial
            .iter()
            .zip(&parallel)
            .enumerate()
            .filter(|(_, (a, b)): &(usize, (&RunOutcome, &RunOutcome))| a != b)
            .map(|(i, _)| i)
            .collect::<Vec<usize>>()
    });
    let a4 = alloc_counters();
    assert!(
        diverged.is_empty(),
        "parallel outcomes diverged from serial at spec indices {diverged:?}"
    );

    // Phase 4 (optional): the outcome-cache round trip. Store every
    // parallel outcome, replay the sweep from disk, and cross-check —
    // `cache_warm_ms` is the wall clock a fully warm re-run pays.
    let cache_timing = sa.cache_dir.as_deref().map(|dir| {
        let cache = OutcomeCache::open(dir).expect("open --cache-dir");
        let keys: Vec<u64> = specs
            .iter()
            .map(|s| run_spec_digest(s, "complete"))
            .collect();
        let ((), t_store) = time(|| {
            for (key, out) in keys.iter().zip(&parallel) {
                cache
                    .store(*key, &encode_outcome(out))
                    .expect("cache store");
            }
        });
        let (warm, t_warm) = time(|| {
            keys.iter()
                .map(|&k| decode_outcome(&cache.load(k).expect("warm cache hit")))
                .collect::<Vec<_>>()
        });
        let decoded: Vec<RunOutcome> = warm.into_iter().map(|o| o.expect("decode")).collect();
        assert_eq!(decoded, parallel, "cached outcomes diverged from simulated");
        (t_store, t_warm, cache.stats().hits)
    });

    let (bank_hits, bank_misses) = workload_bank_stats();
    let (pool_fresh, pool_recycled, pool_steady) = pool_audit(scale);

    let speedup = t_serial.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
    println!(
        "sweep            fig08 ({} sims, {scale_name} scale)",
        specs.len()
    );
    println!("workload_gen     {t_gen:>10.2?}  ({bank_misses} sets, {bank_hits} bank hits)");
    println!("serial           {t_serial:>10.2?}");
    println!("parallel         {t_par:>10.2?}  ({workers} workers)");
    println!("reduce           {t_reduce:>10.2?}");
    println!("speedup          {speedup:>10.2}x");
    println!("outcomes         identical (serial vs parallel)");
    println!(
        "snapshot pool    {pool_fresh} fresh / {pool_recycled} recycled boxes, {pool_steady} steady-state allocs"
    );
    if let Some((t_store, t_warm, hits)) = cache_timing {
        println!("cache store      {t_store:>10.2?}");
        println!("cache warm       {t_warm:>10.2?}  ({hits} hits, outcomes identical)");
    }
    if cfg!(feature = "alloc-count") {
        println!(
            "allocations      gen {} / serial {} / parallel {} / reduce {}",
            a1.0 - a0.0,
            a2.0 - a1.0,
            a3.0 - a2.0,
            a4.0 - a3.0,
        );
    }

    let alloc_json = if cfg!(feature = "alloc-count") {
        format!(
            ",\n  \"allocs\": {{\"workload_gen\": {}, \"serial\": {}, \"parallel\": {}, \"reduce\": {}, \"bytes_total\": {}}}",
            a1.0 - a0.0,
            a2.0 - a1.0,
            a3.0 - a2.0,
            a4.0 - a3.0,
            a4.1,
        )
    } else {
        String::new()
    };
    let cache_json = match cache_timing {
        Some((t_store, t_warm, hits)) => format!(
            ",\n  \"cache_store_ms\": {:.3},\n  \"cache_warm_ms\": {:.3},\n  \"cache_hits\": {hits}",
            t_store.as_secs_f64() * 1e3,
            t_warm.as_secs_f64() * 1e3,
        ),
        None => String::new(),
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"fig08_sweep\",\n",
            "  \"scale\": \"{scale_name}\",\n",
            "  \"sims\": {sims},\n",
            "  \"workers\": {workers},\n",
            "  \"workload_gen_ms\": {gen:.3},\n",
            "  \"serial_ms\": {serial:.3},\n",
            "  \"parallel_ms\": {par:.3},\n",
            "  \"reduce_ms\": {reduce:.3},\n",
            "  \"speedup\": {speedup:.3},\n",
            "  \"outcomes_identical\": true,\n",
            "  \"bank_hits\": {bank_hits},\n",
            "  \"bank_misses\": {bank_misses},\n",
            "  \"pool_fresh\": {pool_fresh},\n",
            "  \"pool_recycled\": {pool_recycled},\n",
            "  \"pool_steady_state_allocs\": {pool_steady}{alloc_json}{cache_json}\n",
            "}}\n"
        ),
        scale_name = scale_name,
        sims = specs.len(),
        workers = workers,
        gen = t_gen.as_secs_f64() * 1e3,
        serial = t_serial.as_secs_f64() * 1e3,
        par = t_par.as_secs_f64() * 1e3,
        reduce = t_reduce.as_secs_f64() * 1e3,
        speedup = speedup,
        bank_hits = bank_hits,
        bank_misses = bank_misses,
        pool_fresh = pool_fresh,
        pool_recycled = pool_recycled,
        pool_steady = pool_steady,
        alloc_json = alloc_json,
        cache_json = cache_json,
    );
    std::fs::write(&out_path, json).expect("write BENCH_sweep.json");
    eprintln!("wrote {out_path}");
}
