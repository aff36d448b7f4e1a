//! # texid-store — durability layer for the feature store
//!
//! The paper's deployment keeps serialized reference features in a Redis
//! container so GPU shards can reload them after a restart (PAPER.md §IV);
//! `texid_distrib::kv::KvStore` stands in for that container, and this
//! crate is what makes it *durable*: an append-only CRC32C-checksummed
//! write-ahead log, periodic checksummed snapshots with log compaction,
//! and a crash-consistent replay path that powers `Cluster::heal()`.
//!
//! Module map:
//!
//! * [`crc`] — CRC32C (Castagnoli), the checksum under every record and
//!   snapshot, on the SSE4.2 `crc32` instruction where the CPU has it.
//!   Its dispatching call is the crate's one `unsafe` block (hence
//!   `deny`, not `forbid`, below): the store depends on `parking_lot`
//!   alone, so it does not borrow `texid-linalg`'s dispatch.
//! * [`media`] — where bytes live: [`media::MemMedia`] for in-process
//!   clusters and chaos tests, [`media::FileMedia`] for the `texid` CLI.
//! * [`wal`] — the length-prefixed record codec and the damage-classifying
//!   scanner (torn tails stop the scan; bit-flipped records are skipped
//!   without losing alignment).
//! * [`snapshot`] — the compacted, self-verifying image of the store.
//! * [`log`] — [`log::DurableLog`], composing the above into append /
//!   snapshot / replay with mechanism-level fault hooks
//!   ([`log::WriteFault`], [`log::SnapshotFault`]); *when* faults fire is
//!   the cluster fault plan's business, not this crate's.
//!
//! Design notes live in DESIGN.md §12; the `texid_wal_*` /
//! `texid_replay_*` metrics this feeds are cataloged in OBSERVABILITY.md.

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod crc;
pub mod log;
pub mod media;
pub mod snapshot;
pub mod wal;

pub use crc::crc32c;
pub use log::{Blob, DurableLog, LogConfig, ReplayStats, SnapshotFault, WalStats, WriteFault};
pub use media::{FileMedia, Media, MemMedia, Volume};
pub use wal::{Found, Record, Scan};
