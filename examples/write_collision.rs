//! The paper's Figure 5 write-collision scenario, step by step.
//!
//! Three threads write the same address A (initially 0). Thread 3's
//! A=3 reaches the memory controller first (early), then thread 2's A=2
//! (also early, but *older* in coherence order). Naive speculation would
//! leave memory holding 2 and lose the recoverable value 0; ASAP's
//! recovery table parks the colliding write in a *delay record* and keeps
//! a single undo record with the safe value.
//!
//! ```text
//! cargo run --example write_collision
//! ```

use asap::mc::{FlushOutcome, FlushPacket, MemController};
use asap::pm::NvmImage;
use asap::sim::{Cycle, EpochId, LineAddr, McId, SimConfig, Stats, ThreadId};

fn pkt(val: u8, seq: u64, thread: usize, ts: u64, early: bool) -> FlushPacket {
    FlushPacket {
        line: LineAddr::containing(0x40),
        data: [val; 64],
        seq,
        epoch: EpochId::new(ThreadId(thread), ts),
        early,
    }
}

fn show(step: &str, mc: &MemController, nvm: &NvmImage) {
    let line = LineAddr::containing(0x40);
    let idx = mc.line_idx(line);
    println!(
        "{step:<46} | A = {} | undo: {} | delay records: {}",
        nvm.line(line).data[0],
        if idx.is_some_and(|i| mc.rt().has_undo(i)) {
            format!("safe={}", {
                // records() exposes the undo's safe data for inspection
                let recs = mc.rt().records();
                recs.iter()
                    .find_map(|r| match r {
                        asap::mc::RtRecord::Undo { safe, .. } => Some(safe.data[0].to_string()),
                        _ => None,
                    })
                    .unwrap_or_default()
            })
        } else {
            "none".into()
        },
        idx.map_or(0, |i| mc.rt().delay_count(i)),
    );
}

fn main() {
    let cfg = SimConfig::paper();
    let mut mc = MemController::new(McId(0), &cfg);
    let mut nvm = NvmImage::new();
    let mut stats = Stats::new();

    println!("Figure 5: write collision at one address (A = 0 initially)\n");
    show("initial state", &mc, &nvm);

    // T3's A=3 (newest write) arrives first, early.
    let out = mc.receive_flush(Cycle(0), &pkt(3, 30, 3, 1, true), &mut nvm, &mut stats);
    assert!(matches!(out, FlushOutcome::Accepted { .. }));
    show("T3's early A=3 arrives (speculative persist)", &mc, &nvm);

    // T2's A=2 (older in coherence order) arrives second, early.
    let out = mc.receive_flush(Cycle(10), &pkt(2, 20, 2, 1, true), &mut nvm, &mut stats);
    assert!(matches!(out, FlushOutcome::Accepted { .. }));
    show("T2's early A=2 arrives (write collision!)", &mc, &nvm);

    // Crash now: memory must recover to A=0. Recovery runs on a copy of
    // the media image, so the run below continues from the live one.
    let mut crashed = nvm.clone();
    mc.crash_preview(&mut crashed);
    println!(
        "{:<46} | A = {} (the initial value — nothing was lost)",
        "…if power failed here: undo applied",
        crashed.line(LineAddr::containing(0x40)).data[0]
    );
    assert_eq!(crashed.line(LineAddr::containing(0x40)).data[0], 0);

    // No crash: epochs commit in dependency order (T2's epoch first).
    mc.commit_epoch(
        Cycle(20),
        EpochId::new(ThreadId(2), 1),
        &mut nvm,
        &mut stats,
    );
    show("T2's epoch commits (delay folds into undo)", &mc, &nvm);

    mc.commit_epoch(
        Cycle(30),
        EpochId::new(ThreadId(3), 1),
        &mut nvm,
        &mut stats,
    );
    show("T3's epoch commits (undo deleted)", &mc, &nvm);

    assert_eq!(nvm.line(LineAddr::containing(0x40)).data[0], 3);
    println!(
        "\nfinal memory: A = 3 — the newest value, with every intermediate state recoverable."
    );
}
