//! Memory-controller model for the ASAP reproduction.
//!
//! Each simulated memory controller combines:
//!
//! * a **write-pending queue** ([`Wpq`]) inside the ADR persistence
//!   domain — once a flush is accepted into the WPQ it is durable
//!   (Asynchronous DRAM Refresh drains it on power failure), which is why
//!   flush *acks* are sent at WPQ acceptance;
//! * an **NVM media pipe** with Optane-like timing (serialized 90 ns
//!   writes, 175 ns reads) and a small **XPBuffer** ([`XpBuffer`]) line
//!   cache (§V-A point 3). It is a pure statistic: no undo-record read
//!   costs a cycle, hit or miss, because a flush is acked at WPQ
//!   acceptance; the LRU only counts hits for `Stats::xpbuffer_hits`;
//! * the paper's contribution at the MC: the **Recovery Table**
//!   ([`RecoveryTable`]) holding *undo* and *delay* records, implementing
//!   Table I of the paper exactly, with NACK backpressure when full
//!   (§V-D) and crash-time undo application (§V-E).
//!
//! [`MemController`] glues the three together behind a small API used by
//! the persistency models in `asap-core`: [`MemController::receive_flush`]
//! for incoming flush packets and [`MemController::commit_epoch`] for
//! epoch-commit messages.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod mc;
mod rt;
mod wpq;
mod xpbuffer;

pub use mc::{FlushOutcome, FlushPacket, MemController};
pub use rt::{FlushAction, RecoveryTable, RtRecord};
pub use wpq::Wpq;
pub use xpbuffer::XpBuffer;
