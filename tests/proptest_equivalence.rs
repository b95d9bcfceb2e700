//! Property test for the crash-space equivalence relation the explorer
//! prunes with: two crash instants with equal crash-state keys must
//! recover to **byte-identical** NVM images (full `NvmImage` compare,
//! not just digests) and identical oracle reports.

use asap::model::{Flavor, ModelKind, Sim, SimBuilder};
use asap::sim::{Cycle, DetRng, SimConfig};
use asap::workloads::{make_workload, WorkloadKind, WorkloadParams};

fn build(workload: WorkloadKind, model: ModelKind, collect: bool) -> Sim {
    let params = WorkloadParams {
        threads: 2,
        ops_per_thread: 8,
        seed: 11,
        ..WorkloadParams::default()
    };
    let mut b = SimBuilder::new(SimConfig::paper(), model, Flavor::Release)
        .programs(make_workload(workload, &params))
        .with_journal();
    if collect {
        b = b.collect_crash_points();
    }
    b.build()
}

/// Observable equivalence intervals: the last timeline entry per cycle
/// wins (crashing "at" a cycle happens after all its events), each
/// interval running to the cycle before the next key change.
fn intervals(timeline: &[(u64, u64)], end: u64) -> Vec<(u64, u64, u64)> {
    let mut starts: Vec<(u64, u64)> = Vec::new();
    for &(c, k) in timeline {
        match starts.last_mut() {
            Some(last) if last.0 == c => last.1 = k,
            _ => starts.push((c, k)),
        }
    }
    starts
        .iter()
        .enumerate()
        .map(|(i, &(s, k))| {
            let e = if i + 1 < starts.len() {
                starts[i + 1].0 - 1
            } else {
                end
            };
            (s, e, k)
        })
        .collect()
}

#[test]
fn equal_keys_imply_byte_identical_recovery() {
    let mut checked_pairs = 0u32;
    for (workload, model) in [
        (WorkloadKind::Queue, ModelKind::Asap),
        (WorkloadKind::Queue, ModelKind::Bbb),
        (WorkloadKind::Cceh, ModelKind::Hops),
        (WorkloadKind::Cceh, ModelKind::Eadr),
    ] {
        let mut sim = build(workload, model, true);
        sim.run_to_completion();
        let pts = sim.take_crash_points().expect("collector attached");
        let ivs = intervals(&pts.timeline, pts.end_cycle);
        assert!(!ivs.is_empty());

        // Sample a handful of multi-cycle intervals; within each,
        // crash at the first and last cycle (the most separated
        // pair) plus a seeded interior point.
        let mut rng = DetRng::seed(0xA5A5 ^ pts.end_cycle);
        let wide: Vec<&(u64, u64, u64)> = ivs.iter().filter(|iv| iv.1 > iv.0).collect();
        assert!(
            !wide.is_empty(),
            "{workload:?}/{model:?}: no multi-cycle interval to test"
        );
        for _ in 0..4.min(wide.len()) {
            let &&(s, e, key) = &wide[rng.next_u64() as usize % wide.len()];
            // The collector's own lookup must agree on the pair.
            assert_eq!(pts.key_at(s), key);
            assert_eq!(pts.key_at(e), key);

            let mut a = build(workload, model, false);
            a.run_for(Cycle(s));
            let report_a = a.crash_check_now().expect("journal enabled");
            let (img_a, _) = a.recovered_preview().expect("journal enabled");

            // Independent re-run straight to the far end of the
            // interval (plus an interior stop, which must not
            // change anything — determinism).
            let mid = s + (rng.next_u64() % (e - s + 1).max(1));
            let mut b = build(workload, model, false);
            b.run_for(Cycle(mid));
            b.run_for(Cycle(e));
            let report_b = b.crash_check_now().expect("journal enabled");
            let (img_b, _) = b.recovered_preview().expect("journal enabled");

            // Full byte-level image compare — the property the
            // explorer's pruning rests on.
            assert_eq!(
                img_a, img_b,
                "{workload:?}/{model:?}: cycles {s} and {e} share key {key:#x} \
                 but recover different images"
            );
            assert_eq!(
                report_a, report_b,
                "{workload:?}/{model:?}: cycles {s} and {e} share key {key:#x} \
                 but report differently"
            );
            checked_pairs += 1;
        }

        // Negative control: adjacent intervals carry different keys,
        // so pruning never merges genuinely distinct states.
        for w in ivs.windows(2) {
            assert_ne!(w[0].2, w[1].2, "adjacent intervals share a key");
        }
    }
    assert!(checked_pairs >= 8, "only {checked_pairs} pairs checked");
}
