//! 64-bit FNV-1a, the workspace's one digest: configuration digests,
//! outcome-cache keys and checksums, crash-state keys, recovered-image
//! digests and workload key placement all fold bytes through
//! [`fnv1a_fold`]. It is deterministic across runs and platforms and
//! needs no dependency.

/// FNV-1a offset basis: the digest of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the running FNV-1a digest `hash` (start from
/// [`FNV_OFFSET`]). Folding is incremental: two folds equal one fold
/// over the concatenated bytes.
///
/// # Example
///
/// ```
/// use asap_sim_core::{fnv1a_fold, FNV_OFFSET};
///
/// assert_eq!(fnv1a_fold(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
/// let ab = fnv1a_fold(fnv1a_fold(FNV_OFFSET, b"a"), b"b");
/// assert_eq!(ab, fnv1a_fold(FNV_OFFSET, b"ab"));
/// ```
#[inline]
pub fn fnv1a_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
