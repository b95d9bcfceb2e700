//! Cache hierarchy and coherence modelling for the ASAP reproduction.
//!
//! The paper's Table II configures a three-level MESI hierarchy (private
//! 32 kB L1D, private 2 MB L2, shared 16 MB LLC). The role the hierarchy
//! plays in the persistency results is:
//!
//! 1. it sets the *latency* of loads and stores (and therefore how fast a
//!    core can generate persist traffic), and
//! 2. the coherence protocol is how **cross-thread persist dependencies**
//!    are detected: when a core's access is supplied by a remote core's
//!    dirty line, the remote thread's current epoch number rides back on
//!    the coherence reply (§IV-E).
//!
//! [`CoherenceHub`] implements both concerns with an
//! *instant-coherence-with-latency-accounting* model: each access resolves
//! atomically (state transitions apply immediately) while the returned
//! [`AccessOutcome`] carries the latency the access would have taken and
//! the identity of the supplying core, which the persistency models turn
//! into epoch dependencies.
//!
//! Dirty PM lines are never written back on eviction (the persist path
//! owns durability), so the §V-F write-back buffer and NACK Bloom filter
//! that keep an eviction behind its persist-buffer entry have nothing to
//! hold back and are not modelled.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod coherence;
mod setassoc;

pub use coherence::{AccessOutcome, CacheStats, CoherenceHub, HitLevel, SharerSet};
pub use setassoc::SetAssoc;
