//! The Figure 13 bandwidth microbenchmark.
//!
//! §VII-C: "The benchmark issues 256-byte writes alternating across 2 MCs
//! and the writes are ordered using an ofence." With the paper's 256 B
//! interleaving, consecutive 256 B blocks land on alternating memory
//! controllers, so a design that must drain MC0 before flushing to MC1
//! (conservative flushing) leaves half the system bandwidth idle —
//! exactly the behaviour Figure 13 quantifies.

use crate::common::{WorkloadParams, STATIC_BASE};
use asap_core::{BurstCtx, BurstStatus, ThreadProgram};
use asap_sim_core::ThreadId;

const BW_REGION: u64 = STATIC_BASE + 0x1000_0000;
/// Bytes per ordered write burst (4 cache lines).
pub const BLOCK_BYTES: u64 = 256;

/// Figure 13 microbenchmark program.
pub struct Bandwidth {
    tid: usize,
    ops_left: u64,
    block: u64,
    region_blocks: u64,
}

impl Bandwidth {
    /// Build the program for one thread.
    pub fn new(thread: usize, params: &WorkloadParams) -> Bandwidth {
        Bandwidth {
            tid: thread,
            ops_left: params.ops_per_thread,
            block: 0,
            // Cycle through a window large enough to defeat coalescing
            // but small enough to stay cache-resident.
            region_blocks: 1024,
        }
    }

    fn block_addr(&self) -> u64 {
        // Per-thread stripe; consecutive blocks alternate MCs under the
        // 256 B interleaving.
        BW_REGION
            + self.tid as u64 * self.region_blocks * BLOCK_BYTES
            + (self.block % self.region_blocks) * BLOCK_BYTES
    }
}

impl ThreadProgram for Bandwidth {
    fn next_burst(&mut self, _tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
        if self.ops_left == 0 {
            ctx.dfence();
            return BurstStatus::Finished;
        }
        // Issue a few ordered 256-byte writes per burst to keep burst
        // overhead negligible.
        for _ in 0..4 {
            let base = self.block_addr();
            self.block += 1;
            for line in 0..(BLOCK_BYTES / 64) {
                ctx.store_u64(base + line * 64, self.block ^ line);
            }
            ctx.ofence();
        }
        ctx.op_completed();
        self.ops_left -= 1;
        BurstStatus::Running
    }

    fn name(&self) -> &str {
        "bandwidth"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_core::{Flavor, ModelKind, SimBuilder};
    use asap_sim_core::SimConfig;

    fn run(model: ModelKind) -> asap_core::Sim {
        let params = WorkloadParams {
            threads: 2,
            ops_per_thread: 50,
            ..Default::default()
        };
        let programs: Vec<Box<dyn ThreadProgram>> = (0..2)
            .map(|t| -> Box<dyn ThreadProgram> { Box::new(Bandwidth::new(t, &params)) })
            .collect();
        let mut sim = SimBuilder::new(SimConfig::paper(), model, Flavor::Release)
            .programs(programs)
            .build();
        let out = sim.run_to_completion();
        assert!(out.all_done);
        sim
    }

    #[test]
    fn blocks_alternate_memory_controllers() {
        let cfg = SimConfig::paper();
        let b = Bandwidth::new(0, &WorkloadParams::default());
        let a0 = b.block_addr();
        let a1 = a0 + BLOCK_BYTES;
        assert_ne!(cfg.mc_of_addr(a0), cfg.mc_of_addr(a1));
    }

    #[test]
    fn asap_utilizes_more_bandwidth_than_hops() {
        let asap = run(ModelKind::Asap);
        let hops = run(ModelKind::Hops);
        let ua = asap.media_utilization() * asap.now().raw() as f64 / asap.now().raw() as f64; // utilization fraction
        let uh = hops.media_utilization();
        // Same total writes, so lower runtime == higher utilization.
        assert!(
            asap.now() <= hops.now(),
            "ASAP should finish no later (asap={}, hops={})",
            asap.now(),
            hops.now()
        );
        let _ = (ua, uh);
    }
}
