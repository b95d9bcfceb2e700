//! Simulator configuration (paper Table II) and its builder.

use crate::time::Cycle;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Which persistency-hardware design a simulation models.
///
/// These are the designs compared in §VII of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Current Intel machines: synchronous ordering through `clwb` +
    /// `sfence`; the CPU stalls at every persist barrier.
    Baseline,
    /// HOPS (Nalli et al., ASPLOS'17): persist buffers with *conservative*
    /// flushing and a global timestamp register polled to resolve
    /// cross-thread dependencies.
    Hops,
    /// ASAP (this paper): eager flushing, speculative memory updates, and
    /// recovery tables in the memory controllers.
    Asap,
    /// eADR: the entire cache hierarchy is in the persistence domain, so
    /// fences are (nearly) free. Used as the "ideal" upper bound.
    Eadr,
    /// BBB (HPCA'21): battery-backed persist buffers — stores are durable
    /// once they enter the per-core buffer, fences are free, but the
    /// buffer still drains to NVM in the background and back-pressures
    /// the core when full. The paper reports BBB within a whisker of
    /// eADR and plots them as one curve.
    Bbb,
}

impl ModelKind {
    /// All designs, in the order the paper's figures plot them.
    pub fn all() -> [ModelKind; 5] {
        [
            ModelKind::Baseline,
            ModelKind::Hops,
            ModelKind::Asap,
            ModelKind::Eadr,
            ModelKind::Bbb,
        ]
    }

    /// Figure legend label; also the canonical [`FromStr`] spelling.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Baseline => "baseline",
            ModelKind::Hops => "hops",
            ModelKind::Asap => "asap",
            ModelKind::Eadr => "eadr",
            ModelKind::Bbb => "bbb",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ModelKind {
    type Err = String;
    fn from_str(s: &str) -> Result<ModelKind, String> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "baseline" => ModelKind::Baseline,
            "hops" => ModelKind::Hops,
            "asap" => ModelKind::Asap,
            "eadr" => ModelKind::Eadr,
            "bbb" => ModelKind::Bbb,
            other => return Err(format!("unknown model: {other}")),
        })
    }
}

/// ISA-/language-level persistency flavour (paper §II-A, §IV-A).
///
/// The flavour determines *when cross-thread dependencies arise*:
/// under epoch persistency any conflicting access to data recently written
/// by another thread creates a dependency; under release persistency only
/// acquire→release synchronization does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// Epoch persistency (`_EP` models in the paper).
    Epoch,
    /// Release persistency (`_RP` models in the paper).
    Release,
}

impl Flavor {
    /// Both flavours, epoch first (the paper's column order).
    pub fn all() -> [Flavor; 2] {
        [Flavor::Epoch, Flavor::Release]
    }
}

impl fmt::Display for Flavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Flavor::Epoch => f.write_str("EP"),
            Flavor::Release => f.write_str("RP"),
        }
    }
}

impl FromStr for Flavor {
    type Err = String;
    fn from_str(s: &str) -> Result<Flavor, String> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "ep" | "epoch" => Flavor::Epoch,
            "rp" | "release" => Flavor::Release,
            other => return Err(format!("unknown flavor: {other}")),
        })
    }
}

/// The most cores [`SimConfigBuilder::build`] accepts: 32 times the
/// paper's largest machine (8 cores), far past any sweep here, and small
/// enough that per-core state for every core fits in memory.
pub const MAX_CORES: usize = 256;

/// Error returned by [`SimConfigBuilder::build`] when a configuration is
/// internally inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid simulator configuration: {}", self.0)
    }
}

impl Error for ConfigError {}

/// Full hardware configuration of a simulated system.
///
/// Defaults ([`SimConfig::paper`]) replicate Table II of the paper:
///
/// | parameter | value |
/// |---|---|
/// | CPU cores | 4 cores, 8-way OoO, 2 GHz |
/// | L1D | private, 32 kB, 8-way, 1 ns |
/// | L2 | private, 2 MB, 8-way, 10 ns |
/// | LLC | shared, 16 MB, 16-way |
/// | Coherence | MESI, three-level |
/// | Memory controllers | 2 MCs, 16-entry WPQ, 32-entry RT |
/// | PM | read 175 ns / write 90 ns |
/// | Persist buffers | 32 entries, flush = 60 ns |
///
/// Every field is read by the simulator; parameters of Table II it does
/// not model (the 8-way issue width, the XPBuffer hit latency) have no
/// field. Use [`SimConfig::builder`] to deviate for sensitivity studies
/// (Figures 10, 12 and the ablations in DESIGN.md).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of cores (== number of hardware threads).
    pub num_cores: usize,
    /// Number of memory controllers.
    pub num_mcs: usize,
    /// Interleaving granularity across MCs, in bytes. The paper
    /// interleaves data across controllers (§VII: "Data is interleaved
    /// across memory controllers"); Optane platforms interleave at 256 B
    /// or 4 kB — we default to 256 B like the Fig. 13 microbenchmark.
    pub interleave_bytes: u64,
    /// L1 hit latency.
    pub l1_latency: Cycle,
    /// L2 hit latency.
    pub l2_latency: Cycle,
    /// LLC hit latency (includes interconnect hop).
    pub llc_latency: Cycle,
    /// Latency of a cache-to-cache transfer via the directory (remote L1
    /// forward), on top of the LLC lookup.
    pub c2c_latency: Cycle,
    /// NVM read latency (Optane-like).
    pub nvm_read_latency: Cycle,
    /// NVM write service latency — the per-line occupancy of the NVM
    /// write pipeline, which bounds per-MC write bandwidth.
    pub nvm_write_latency: Cycle,
    /// Number of independent NVM banks per controller: the write pipe
    /// accepts a new line every `nvm_write_latency / nvm_banks` (Optane
    /// DIMMs overlap writes across banks, so per-line *occupancy* is
    /// below per-line *latency*).
    pub nvm_banks: usize,
    /// Number of lines tracked by the XPBuffer (Optane on-DIMM cache)
    /// model.
    pub xpbuffer_lines: usize,
    /// Persist-buffer capacity per core.
    pub pb_entries: usize,
    /// One-way latency for a flush packet from a persist buffer to an MC
    /// (Table II: flush = 60 ns). Acks take the same latency back.
    pub pb_flush_latency: Cycle,
    /// Maximum flushes a persist buffer may have in flight to the MCs.
    pub pb_max_inflight: usize,
    /// Epoch-table capacity per core (in-flight epochs).
    pub et_entries: usize,
    /// Write-pending-queue capacity per MC (ADR domain).
    pub wpq_entries: usize,
    /// Recovery-table capacity per MC (ASAP only).
    pub rt_entries: usize,
    /// HOPS: period between polls of the global timestamp register.
    pub hops_poll_period: Cycle,
    /// HOPS: latency of one access to the global timestamp register.
    pub hops_poll_latency: Cycle,
    /// Latency of an inter-core message (commit ack → CDR delivery).
    pub intercore_latency: Cycle,
    /// Cycles charged per modelled "compute" unit between memory ops.
    pub compute_scale: u64,
}

impl SimConfig {
    /// The configuration of Table II in the paper: 4 cores, 2 MCs, 32-entry
    /// PB/ET/RT, 16-entry WPQ, Optane-like PM timing.
    pub fn paper() -> SimConfig {
        SimConfig {
            num_cores: 4,
            num_mcs: 2,
            interleave_bytes: 256,
            l1_latency: Cycle::from_ns(1),
            l2_latency: Cycle::from_ns(10),
            llc_latency: Cycle::from_ns(20),
            c2c_latency: Cycle::from_ns(15),
            nvm_read_latency: Cycle::from_ns(175),
            nvm_write_latency: Cycle::from_ns(90),
            nvm_banks: 4,
            xpbuffer_lines: 256,
            pb_entries: 32,
            pb_flush_latency: Cycle::from_ns(60),
            pb_max_inflight: 8,
            et_entries: 32,
            wpq_entries: 16,
            rt_entries: 32,
            hops_poll_period: Cycle(500),
            hops_poll_latency: Cycle(50),
            intercore_latency: Cycle::from_ns(15),
            compute_scale: 1,
        }
    }

    /// Start building a configuration from the paper defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig::paper(),
        }
    }

    /// The memory controller owning byte address `addr` under the
    /// configured interleaving.
    pub fn mc_of_addr(&self, addr: u64) -> usize {
        ((addr / self.interleave_bytes) % self.num_mcs as u64) as usize
    }

    /// A 64-bit digest over every configuration field (FNV-1a of the
    /// canonical `Debug` rendering), recorded in run manifests so a
    /// result can be attributed to the exact hardware configuration
    /// that produced it. Stable across runs and platforms for a given
    /// source version; not guaranteed stable across code changes that
    /// add or rename fields (which is the point — a changed
    /// configuration shape yields a new digest).
    pub fn digest(&self) -> u64 {
        crate::fnv1a_fold(crate::FNV_OFFSET, format!("{self:?}").as_bytes())
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig::paper()
    }
}

/// Builder for [`SimConfig`] ([C-BUILDER]); validates invariants on
/// [`build`](SimConfigBuilder::build).
///
/// # Example
///
/// ```
/// use asap_sim_core::SimConfig;
/// let cfg = SimConfig::builder().cores(8).rt_entries(16).build()?;
/// assert_eq!(cfg.num_cores, 8);
/// # Ok::<(), asap_sim_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Set the number of cores.
    pub fn cores(mut self, n: usize) -> Self {
        self.cfg.num_cores = n;
        self
    }

    /// Set the number of memory controllers.
    pub fn mcs(mut self, n: usize) -> Self {
        self.cfg.num_mcs = n;
        self
    }

    /// Set the MC interleaving granularity in bytes (must be a power of
    /// two ≥ 64).
    pub fn interleave_bytes(mut self, b: u64) -> Self {
        self.cfg.interleave_bytes = b;
        self
    }

    /// Set the persist-buffer capacity.
    pub fn pb_entries(mut self, n: usize) -> Self {
        self.cfg.pb_entries = n;
        self
    }

    /// Set the recovery-table capacity.
    pub fn rt_entries(mut self, n: usize) -> Self {
        self.cfg.rt_entries = n;
        self
    }

    /// Set the WPQ capacity.
    pub fn wpq_entries(mut self, n: usize) -> Self {
        self.cfg.wpq_entries = n;
        self
    }

    /// Set the NVM write service latency in nanoseconds.
    pub fn nvm_write_ns(mut self, ns: u64) -> Self {
        self.cfg.nvm_write_latency = Cycle::from_ns(ns);
        self
    }

    /// Set the number of NVM banks per controller.
    pub fn nvm_banks(mut self, n: usize) -> Self {
        self.cfg.nvm_banks = n;
        self
    }

    /// Set the HOPS polling period in cycles.
    pub fn hops_poll_period(mut self, cycles: u64) -> Self {
        self.cfg.hops_poll_period = Cycle(cycles);
        self
    }

    /// Set the maximum in-flight flushes per persist buffer.
    pub fn pb_max_inflight(mut self, n: usize) -> Self {
        self.cfg.pb_max_inflight = n;
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any of the following hold: zero or more
    /// than [`MAX_CORES`] cores, zero MCs, non-power-of-two or sub-line
    /// interleaving, or zero-sized buffers.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        let c = &self.cfg;
        if c.num_cores == 0 {
            return Err(ConfigError("num_cores must be >= 1".into()));
        }
        if c.num_cores > MAX_CORES {
            return Err(ConfigError(format!(
                "num_cores must be <= {MAX_CORES}, got {}",
                c.num_cores
            )));
        }
        if c.num_mcs == 0 {
            return Err(ConfigError("num_mcs must be >= 1".into()));
        }
        if !c.interleave_bytes.is_power_of_two() || c.interleave_bytes < 64 {
            return Err(ConfigError(format!(
                "interleave_bytes must be a power of two >= 64, got {}",
                c.interleave_bytes
            )));
        }
        if c.pb_entries == 0 || c.et_entries == 0 || c.wpq_entries == 0 {
            return Err(ConfigError("buffer sizes must be >= 1".into()));
        }
        if c.pb_max_inflight == 0 {
            return Err(ConfigError("pb_max_inflight must be >= 1".into()));
        }
        if c.nvm_banks == 0 {
            return Err(ConfigError("nvm_banks must be >= 1".into()));
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2() {
        let c = SimConfig::paper();
        assert_eq!(c.num_cores, 4);
        assert_eq!(c.num_mcs, 2);
        assert_eq!(c.pb_entries, 32);
        assert_eq!(c.et_entries, 32);
        assert_eq!(c.rt_entries, 32);
        assert_eq!(c.wpq_entries, 16);
        assert_eq!(c.nvm_read_latency, Cycle::from_ns(175));
        assert_eq!(c.nvm_write_latency, Cycle::from_ns(90));
        assert_eq!(c.pb_flush_latency, Cycle::from_ns(60));
        assert_eq!(c.hops_poll_period, Cycle(500));
        assert_eq!(c.hops_poll_latency, Cycle(50));
    }

    #[test]
    fn builder_overrides() {
        let c = SimConfig::builder()
            .cores(8)
            .mcs(4)
            .rt_entries(8)
            .nvm_write_ns(45)
            .build()
            .unwrap();
        assert_eq!(c.num_cores, 8);
        assert_eq!(c.num_mcs, 4);
        assert_eq!(c.rt_entries, 8);
        assert_eq!(c.nvm_write_latency, Cycle::from_ns(45));
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(SimConfig::builder().cores(0).build().is_err());
        assert!(SimConfig::builder().cores(MAX_CORES).build().is_ok());
        assert!(SimConfig::builder().cores(MAX_CORES + 1).build().is_err());
        assert!(SimConfig::builder().mcs(0).build().is_err());
        assert!(SimConfig::builder().interleave_bytes(100).build().is_err());
        assert!(SimConfig::builder().interleave_bytes(32).build().is_err());
        assert!(SimConfig::builder().pb_entries(0).build().is_err());
        assert!(SimConfig::builder().pb_max_inflight(0).build().is_err());
    }

    #[test]
    fn digest_distinguishes_configs() {
        let a = SimConfig::paper();
        let b = SimConfig::paper();
        assert_eq!(a.digest(), b.digest());
        let c = SimConfig::builder().cores(8).build().unwrap();
        assert_ne!(a.digest(), c.digest());
        let d = SimConfig::builder().nvm_write_ns(45).build().unwrap();
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn config_error_displays() {
        let err = SimConfig::builder().cores(0).build().unwrap_err();
        assert!(err.to_string().contains("num_cores"));
    }

    #[test]
    fn interleaving_alternates_at_granularity() {
        let c = SimConfig::paper(); // 256B interleave, 2 MCs
        assert_eq!(c.mc_of_addr(0), 0);
        assert_eq!(c.mc_of_addr(255), 0);
        assert_eq!(c.mc_of_addr(256), 1);
        assert_eq!(c.mc_of_addr(511), 1);
        assert_eq!(c.mc_of_addr(512), 0);
    }

    #[test]
    fn model_and_flavor_display() {
        assert_eq!(ModelKind::Asap.to_string(), "asap");
        assert_eq!(ModelKind::Baseline.to_string(), "baseline");
        assert_eq!(Flavor::Epoch.to_string(), "EP");
        assert_eq!(Flavor::Release.to_string(), "RP");
    }

    #[test]
    fn model_display_parse_round_trips() {
        for kind in ModelKind::all() {
            let parsed: ModelKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert_eq!("ASAP".parse::<ModelKind>().unwrap(), ModelKind::Asap);
        assert!("pmem".parse::<ModelKind>().is_err());
    }

    #[test]
    fn flavor_display_parse_round_trips() {
        for flavor in Flavor::all() {
            let parsed: Flavor = flavor.to_string().parse().unwrap();
            assert_eq!(parsed, flavor);
        }
        assert_eq!("epoch".parse::<Flavor>().unwrap(), Flavor::Epoch);
        assert_eq!("release".parse::<Flavor>().unwrap(), Flavor::Release);
        assert!("strict".parse::<Flavor>().is_err());
    }
}
