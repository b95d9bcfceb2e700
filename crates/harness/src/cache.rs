//! Digest-keyed on-disk outcome cache for incremental sweeps.
//!
//! Every sweep leg is a pure function of its spec and of the build that
//! simulates it: the simulator is deterministic, so a completed
//! [`RunOutcome`]/`TrafficOutcome` can be persisted once and replayed by
//! the same build — re-running a sweep after a config tweak only
//! simulates the legs whose digests changed, and a rebuilt binary
//! re-simulates every leg. This module provides the three pieces the
//! executor ([`crate::exec`]) composes:
//!
//! 1. **Keys** — [`run_spec_digest`]/[`traffic_spec_digest`] fold every
//!    field that feeds the simulation (config digest, model, flavour,
//!    workload, ops, seed, run mode) through the same FNV-1a used by
//!    `SimConfig::digest`. Any spec change ⇒ a different key ⇒ a miss.
//! 2. **Codecs** — [`encode_outcome`]/[`decode_outcome`] (and the
//!    traffic pair) render an outcome as one `key=value` line and parse
//!    it back **exactly**: histograms as sparse bucket lists, the one
//!    `f64` by bit pattern. A decoded outcome compares equal to the
//!    original, so tables built from cached legs are byte-identical.
//! 3. **Store** — [`OutcomeCache`] holds one checksummed file per key,
//!    written atomically (temp file + rename). Its first line,
//!    `# asap-outcome v3 build=<016x>`, names the build that wrote it:
//!    an FNV-1a of the running executable's bytes. A truncated,
//!    corrupted, wrong-format or other-build entry fails the header,
//!    the checksum or the strict decode and is treated as a miss — the
//!    leg is re-simulated and its entry overwritten, never mis-read.

use crate::runner::{RunManifest, RunOutcome, RunSpec};
use crate::traffic::{TrafficOutcome, TrafficSpec};
use asap_sim_core::{fnv1a_fold, LogHistogram, StatMut, StatRef, Stats, FNV_OFFSET};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// 64-bit FNV-1a over a string — the same digest as `SimConfig::digest`
/// ([`asap_sim_core::fnv1a_fold`]), used for cache keys and entry
/// checksums.
pub fn fnv1a(text: &str) -> u64 {
    fnv1a_fold(FNV_OFFSET, text.as_bytes())
}

/// Cache key of a closed-loop sweep leg. `mode` distinguishes run
/// styles that share a spec but execute differently (`"complete"` for
/// [`crate::run_once`], `"window:N"` for [`crate::run_window`]). Every
/// field that can change the outcome is folded in.
pub fn run_spec_digest(spec: &RunSpec, mode: &str) -> u64 {
    fnv1a(&format!(
        "run cfg={:016x} model={} flavor={} workload={} threads={} ops={} seed={} mode={mode}",
        spec.config.digest(),
        spec.model,
        spec.flavor,
        spec.workload,
        spec.config.num_cores,
        spec.ops_per_thread,
        spec.seed,
    ))
}

/// Cache key of an open-loop traffic leg: the full [`TrafficSpec`],
/// floats by bit pattern. Only generated banks are cacheable — replayed
/// trace files are outside the digest and must bypass the cache.
pub fn traffic_spec_digest(spec: &TrafficSpec) -> u64 {
    fnv1a(&format!(
        "traffic cfg={:016x} model={} flavor={} app={} requests={} arrival={} gap={} \
         zipf={:016x} keys={} update={:016x} seed={} think={}",
        spec.config.digest(),
        spec.model,
        spec.flavor,
        spec.app,
        spec.traffic.requests,
        spec.traffic.arrival,
        spec.traffic.mean_gap,
        spec.traffic.zipf_theta.to_bits(),
        spec.traffic.key_space,
        spec.traffic.update_fraction.to_bits(),
        spec.traffic.seed,
        spec.think,
    ))
}

// -------------------------------------------------------------------
// Outcome codecs
// -------------------------------------------------------------------

/// Parse a `b:c,b:c,…` sparse bucket list (`-` = empty); zero counts
/// are rejected — no record stream produces them.
fn dec_pairs(s: &str) -> Option<Vec<(usize, u64)>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.split(',')
        .map(|p| {
            let (b, c) = p.split_once(':')?;
            let c: u64 = c.parse().ok()?;
            if c == 0 {
                return None;
            }
            Some((b.parse().ok()?, c))
        })
        .collect()
}

/// Append a [`LogHistogram`] as `sum;min;max;buckets` — the exact
/// aggregates plus the sparse `b:c,…` counts (`-` if empty), everything
/// `from_parts` needs.
fn enc_log(out: &mut String, h: &LogHistogram) {
    let _ = write!(out, "{};{};{};", h.sum(), h.min_raw(), h.max());
    let mut sep = "";
    for (b, c) in h.nonzero_buckets() {
        let _ = write!(out, "{sep}{b}:{c}");
        sep = ",";
    }
    if sep.is_empty() {
        out.push('-');
    }
}

fn dec_log(s: &str) -> Option<LogHistogram> {
    let mut it = s.splitn(4, ';');
    let sum: u128 = it.next()?.parse().ok()?;
    let min_raw: u64 = it.next()?.parse().ok()?;
    let max: u64 = it.next()?.parse().ok()?;
    let buckets = dec_pairs(it.next()?)?;
    LogHistogram::from_parts(&buckets, sum, min_raw, max)
}

/// Render a completed run as one `key=value` line (space-separated; no
/// value contains a space). Exact: the one float travels by bit
/// pattern, histograms as sparse bucket lists. Every [`Stats`] field
/// travels under its field name.
pub fn encode_outcome(o: &RunOutcome) -> String {
    let mut out = format!(
        "kind=run cycles={} ops={} rtmax={} mwrites={} mutil={:016x} alldone={} \
         model={} flavor={} workload={} threads={} opst={} seed={} cfg={:016x} wallns={}",
        o.cycles,
        o.ops,
        o.rt_max_occupancy,
        o.media_writes,
        o.media_utilization.to_bits(),
        o.all_done as u8,
        o.manifest.model,
        o.manifest.flavor,
        o.manifest.workload,
        o.manifest.threads,
        o.manifest.ops_per_thread,
        o.manifest.seed,
        o.manifest.config_digest,
        o.manifest.wall.as_nanos().min(u64::MAX as u128),
    );
    if let Some(z) = o.manifest.zipf_theta {
        let _ = write!(out, " zipf={:016x}", z.to_bits());
    }
    for (field, value) in o.stats.fields() {
        let _ = write!(out, " {field}=");
        match value {
            StatRef::Counter(v) => {
                let _ = write!(out, "{v}");
            }
            StatRef::Histogram(h) => enc_log(&mut out, h),
        }
    }
    out
}

/// Split a `key=value` line into a map, rejecting duplicates.
fn token_map(line: &str) -> Option<HashMap<&str, &str>> {
    let mut m = HashMap::new();
    for tok in line.split_whitespace() {
        let (k, v) = tok.split_once('=')?;
        if m.insert(k, v).is_some() {
            return None;
        }
    }
    Some(m)
}

/// Parse a line produced by [`encode_outcome`]. Strict: every expected
/// key must be present exactly once and nothing else may appear —
/// unknown keys, duplicates, or any malformed value return `None` (the
/// cache treats that entry as a miss and re-simulates the leg).
pub fn decode_outcome(line: &str) -> Option<RunOutcome> {
    let mut m = token_map(line)?;
    if m.remove("kind")? != "run" {
        return None;
    }
    let mut stats = Stats::new();
    for &field in Stats::FIELDS {
        let text = m.remove(field)?;
        match stats.field_mut(field)? {
            StatMut::Counter(v) => *v = text.parse().ok()?,
            StatMut::Histogram(h) => *h = dec_log(text)?,
        }
    }
    let manifest = RunManifest {
        model: m.remove("model")?.parse().ok()?,
        flavor: m.remove("flavor")?.parse().ok()?,
        workload: m.remove("workload")?.parse().ok()?,
        threads: m.remove("threads")?.parse().ok()?,
        ops_per_thread: m.remove("opst")?.parse().ok()?,
        seed: m.remove("seed")?.parse().ok()?,
        config_digest: u64::from_str_radix(m.remove("cfg")?, 16).ok()?,
        zipf_theta: match m.remove("zipf") {
            Some(bits) => Some(f64::from_bits(u64::from_str_radix(bits, 16).ok()?)),
            None => None,
        },
        wall: Duration::from_nanos(m.remove("wallns")?.parse().ok()?),
    };
    let out = RunOutcome {
        cycles: m.remove("cycles")?.parse().ok()?,
        ops: m.remove("ops")?.parse().ok()?,
        stats,
        rt_max_occupancy: m.remove("rtmax")?.parse().ok()?,
        media_writes: m.remove("mwrites")?.parse().ok()?,
        media_utilization: f64::from_bits(u64::from_str_radix(m.remove("mutil")?, 16).ok()?),
        all_done: match m.remove("alldone")? {
            "0" => false,
            "1" => true,
            _ => return None,
        },
        manifest,
    };
    m.is_empty().then_some(out)
}

/// Render a completed traffic leg as one `key=value` line.
pub fn encode_traffic(o: &TrafficOutcome) -> String {
    let mut out = format!(
        "kind=traffic cycles={} requests={} cfg={:016x}",
        o.cycles, o.requests, o.config_digest,
    );
    for (key, h) in [
        ("lt", &o.lat.total),
        ("lq", &o.lat.queueing),
        ("ls", &o.lat.service),
    ] {
        let _ = write!(out, " {key}=");
        enc_log(&mut out, h);
    }
    out
}

/// Parse a line produced by [`encode_traffic`]; same strictness
/// contract as [`decode_outcome`].
pub fn decode_traffic(line: &str) -> Option<TrafficOutcome> {
    let mut m = token_map(line)?;
    if m.remove("kind")? != "traffic" {
        return None;
    }
    let out = TrafficOutcome {
        cycles: m.remove("cycles")?.parse().ok()?,
        requests: m.remove("requests")?.parse().ok()?,
        config_digest: u64::from_str_radix(m.remove("cfg")?, 16).ok()?,
        lat: asap_sim_core::LatencySplit {
            total: dec_log(m.remove("lt")?)?,
            queueing: dec_log(m.remove("lq")?)?,
            service: dec_log(m.remove("ls")?)?,
        },
    };
    m.is_empty().then_some(out)
}

// -------------------------------------------------------------------
// On-disk store
// -------------------------------------------------------------------

/// First line of every cache entry file, up to the build identity.
const ENTRY_FORMAT: &str = "# asap-outcome v3";

/// This build's identity: FNV-1a over the running executable's bytes,
/// read once per process. The spec digests cannot see a change to the
/// simulator itself; this can.
fn build_id() -> io::Result<u64> {
    /// Folds every byte written into an FNV-1a state.
    struct Fnv(u64);
    impl io::Write for Fnv {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0 = fnv1a_fold(self.0, bytes);
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    static ID: OnceLock<Result<u64, String>> = OnceLock::new();
    let id = ID.get_or_init(|| {
        let hash = || -> io::Result<u64> {
            let mut fnv = Fnv(FNV_OFFSET);
            io::copy(
                &mut std::fs::File::open(std::env::current_exe()?)?,
                &mut fnv,
            )?;
            Ok(fnv.0)
        };
        hash().map_err(|e| format!("cannot read the running executable: {e}"))
    });
    id.clone().map_err(io::Error::other)
}

/// Stores started by this process: with the pid, a temp-file name no
/// other [`OutcomeCache::store`] call shares.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of checksummed outcome entries, one file per 64-bit key
/// (`<key:016x>.entry`). Concurrency-safe by construction: every write
/// goes to a temp file of its own (pid plus a process-wide counter),
/// then `rename`s over the entry (atomic on POSIX), so a reader never
/// observes a half-written entry and two threads or processes storing
/// the same key just race to an identical file.
#[derive(Debug)]
pub struct OutcomeCache {
    dir: PathBuf,
    /// `# asap-outcome v3 build=<this build's id>`: the first line this
    /// process writes and the only one it loads.
    header: String,
}

impl OutcomeCache {
    /// Open (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// The directory cannot be created, or the running executable cannot
    /// be read to derive the build identity.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<OutcomeCache> {
        let header = format!("{ENTRY_FORMAT} build={:016x}", build_id()?);
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(OutcomeCache {
            dir: dir.as_ref().to_path_buf(),
            header,
        })
    }

    /// Path of `key`'s entry file.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.entry"))
    }

    /// Load the payload stored under `key`. Any failure — no file, bad
    /// header (another format or another build), truncation, checksum
    /// mismatch — is a miss (`None`); corruption can cost a re-run but
    /// never a wrong result.
    pub fn load(&self, key: u64) -> Option<String> {
        std::fs::read_to_string(self.entry_path(key))
            .ok()
            .and_then(|text| self.parse_entry(&text))
    }

    /// Validate an entry file and extract its payload.
    fn parse_entry(&self, text: &str) -> Option<String> {
        let mut lines = text.lines();
        if lines.next()? != self.header {
            return None;
        }
        let body: Vec<&str> = lines.collect();
        let (last, payload_lines) = body.split_last()?;
        let sum = u64::from_str_radix(last.strip_prefix("# end ")?, 16).ok()?;
        let payload = payload_lines.join("\n");
        (fnv1a(&payload) == sum).then_some(payload)
    }

    /// Atomically persist `payload` under `key` (trailing newlines are
    /// trimmed; payloads may span multiple lines but must not contain
    /// lines starting with `# end `).
    pub fn store(&self, key: u64, payload: &str) -> io::Result<()> {
        let payload = payload.trim_end_matches('\n');
        let text = format!(
            "{}\n{payload}\n# end {:016x}\n",
            self.header,
            fnv1a(payload)
        );
        let tmp = self.dir.join(format!(
            "{key:016x}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, self.entry_path(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_once;
    use asap_sim_core::{Flavor, ModelKind, SimConfig};
    use asap_workloads::WorkloadKind;

    fn tiny_spec() -> RunSpec {
        RunSpec {
            config: SimConfig::paper(),
            model: ModelKind::Asap,
            flavor: Flavor::Release,
            workload: WorkloadKind::Queue,
            ops_per_thread: 12,
            seed: 42,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("asap-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// The file names in `dir`, sorted.
    fn dir_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn outcome_codec_round_trips_exactly() {
        let out = run_once(&tiny_spec());
        // Distinct values in every `Stats` field, so two fields swapping
        // keys in the codec cannot round-trip (the real run leaves
        // seven counters at 0), and a Zipf skew, whose key only a run
        // that set one writes.
        let mut distinct = out.clone();
        distinct.manifest.zipf_theta = Some(0.9);
        for (n, &field) in (1u64..).zip(Stats::FIELDS) {
            match distinct.stats.field_mut(field).expect("declared field") {
                StatMut::Counter(v) => *v = n,
                StatMut::Histogram(h) => {
                    *h = LogHistogram::new();
                    h.record_n(n * 1000, n);
                }
            }
        }
        for out in [out, distinct] {
            let line = encode_outcome(&out);
            assert!(!line.contains('\n'));
            assert_eq!(line.contains(" zipf="), out.manifest.zipf_theta.is_some());
            let back = decode_outcome(&line).expect("own encoding must decode");
            for ((field, got), (_, want)) in back.stats.fields().zip(out.stats.fields()) {
                assert_eq!(got, want, "{field}");
            }
            assert_eq!(back, out, "decoded outcome must compare equal");
            // The float survives by bit pattern, beyond PartialEq's ULP.
            assert_eq!(
                back.media_utilization.to_bits(),
                out.media_utilization.to_bits()
            );
            assert_eq!(back.manifest.wall, out.manifest.wall);
        }
    }

    #[test]
    fn decode_rejects_tampered_lines() {
        let line = encode_outcome(&run_once(&tiny_spec()));
        assert!(decode_outcome("").is_none());
        assert!(decode_outcome("kind=run").is_none(), "missing fields");
        assert!(decode_outcome(&format!("{line} extra=1")).is_none());
        assert!(decode_outcome(&format!("{line} cycles=7")).is_none());
        assert!(decode_outcome(&line.replace("kind=run", "kind=x")).is_none());
        assert!(decode_outcome(&line[..line.len() / 2]).is_none());
        assert!(decode_outcome(&line.replace("alldone=1", "alldone=2")).is_none());
        assert!(decode_outcome(&format!("{line} zipf=0.9")).is_none());

        // Checksummed entries guard nothing against these: each must be
        // a miss, never a panic or an abort on a huge allocation.
        let with_pb = |value: &str| {
            line.split(' ')
                .map(|t| {
                    if t.starts_with("pb_occupancy=") {
                        format!("pb_occupancy={value}")
                    } else {
                        t.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert!(decode_outcome(&with_pb("3;3;3;3:1")).is_some());
        for bad in [
            "3;3;3;18446744073709551615:1",
            "3;3;3;1099511627776:1",
            "6;3;3;3:1,3:1",
        ] {
            assert!(decode_outcome(&with_pb(bad)).is_none(), "accepted {bad}");
        }
    }

    #[test]
    fn run_digest_is_sensitive_to_every_axis() {
        let base = tiny_spec();
        let d = run_spec_digest(&base, "complete");
        assert_eq!(d, run_spec_digest(&base.clone(), "complete"));

        let mut seed = base.clone();
        seed.seed = 43;
        let mut model = base.clone();
        model.model = ModelKind::Hops;
        let mut flavor = base.clone();
        flavor.flavor = Flavor::Epoch;
        let mut ops = base.clone();
        ops.ops_per_thread = 13;
        let mut work = base.clone();
        work.workload = WorkloadKind::Heap;
        let mut cfg = base.clone();
        cfg.config.rt_entries = base.config.rt_entries + 1;
        let digests = [
            run_spec_digest(&seed, "complete"),
            run_spec_digest(&model, "complete"),
            run_spec_digest(&flavor, "complete"),
            run_spec_digest(&ops, "complete"),
            run_spec_digest(&work, "complete"),
            run_spec_digest(&cfg, "complete"),
            run_spec_digest(&base, "window:200000"),
        ];
        for (i, &other) in digests.iter().enumerate() {
            assert_ne!(d, other, "axis {i} must change the digest");
        }
    }

    #[test]
    fn store_load_round_trip_and_corruption_is_a_miss() {
        let dir = tmpdir("store");
        let cache = OutcomeCache::open(&dir).unwrap();
        let key = 0xdead_beef_0042u64;
        assert_eq!(cache.load(key), None, "empty cache misses");
        cache.store(key, "kind=test payload=1").unwrap();
        assert_eq!(cache.load(key).as_deref(), Some("kind=test payload=1"));

        // Truncate the entry: checksum line is gone → miss.
        let path = cache.entry_path(key);
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(cache.load(key), None, "truncated entry must miss");

        // Flip a payload byte but keep the shape → checksum miss.
        std::fs::write(&path, full.replace("payload=1", "payload=2")).unwrap();
        assert_eq!(cache.load(key), None, "corrupted entry must miss");

        // Garbage file → miss, never an error.
        std::fs::write(&path, "not a cache entry at all").unwrap();
        assert_eq!(cache.load(key), None);

        // A previous format's entry, checksum and all → miss.
        let payload = "kind=test payload=1";
        let v1 = format!(
            "# asap-outcome v1\n{payload}\n# end {:016x}\n",
            fnv1a(payload)
        );
        assert_eq!(
            full.split_once('\n').unwrap().1,
            v1.split_once('\n').unwrap().1,
            "only the header differs"
        );
        std::fs::write(&path, v1).unwrap();
        assert_eq!(cache.load(key), None, "a v1 entry must miss");

        // The one store wrote the one entry file and no temp file, and
        // no failed load removed or rewrote it.
        assert_eq!(dir_names(&dir), [format!("{key:016x}.entry")]);
        std::fs::write(&path, &full).unwrap();
        assert_eq!(cache.load(key).as_deref(), Some("kind=test payload=1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_of_another_build_or_format_miss() {
        let dir = tmpdir("build");
        let cache = OutcomeCache::open(&dir).unwrap();
        cache.store(3, "kind=test payload=1").unwrap();
        let path = cache.entry_path(3);
        let full = std::fs::read_to_string(&path).unwrap();
        let (header, body) = full.split_once('\n').unwrap();
        let id = build_id().unwrap();
        assert_eq!(header, format!("# asap-outcome v3 build={id:016x}"));

        // Another build's entry, checksum and all → miss.
        let other = format!("# asap-outcome v3 build={:016x}\n{body}", !id);
        std::fs::write(&path, other).unwrap();
        assert_eq!(cache.load(3), None, "another build's entry must miss");
        // The previous format, which named no build → miss.
        std::fs::write(&path, format!("# asap-outcome v2\n{body}")).unwrap();
        assert_eq!(cache.load(3), None, "a v2 entry must miss");

        // The re-simulated leg's store overwrites the stale entry.
        cache.store(3, "kind=test payload=1").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full);
        assert_eq!(cache.load(3).as_deref(), Some("kind=test payload=1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_of_one_key_all_succeed() {
        // A sweep may hold two legs with one digest (an ablation point
        // equal to the paper config); their pool threads store the same
        // key at once and must not share a temp file.
        let dir = tmpdir("race");
        let cache = OutcomeCache::open(&dir).unwrap();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    for _ in 0..50 {
                        cache.store(0x5eed, "kind=test same=1").expect("store");
                    }
                });
            }
        });
        assert_eq!(cache.load(0x5eed).as_deref(), Some("kind=test same=1"));
        // 400 stores of one key leave one entry and no temp file.
        assert_eq!(dir_names(&dir), ["0000000000005eed.entry"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_line_payloads_round_trip() {
        let dir = tmpdir("multiline");
        let cache = OutcomeCache::open(&dir).unwrap();
        let payload = "line_one 1\nline_two 2\nline_three 3";
        cache.store(7, payload).unwrap();
        assert_eq!(cache.load(7).as_deref(), Some(payload));
        // A trailing newline is normalized away, not corrupting.
        cache.store(8, "x 1\n").unwrap();
        assert_eq!(cache.load(8).as_deref(), Some("x 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
