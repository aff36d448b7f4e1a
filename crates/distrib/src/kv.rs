//! Redis substrate: a thread-safe key/value store with per-value
//! checksums and an optional durability log.
//!
//! The paper's deployment keeps serialized reference feature matrices in a
//! Redis container so GPU containers can (re)load their shard on startup.
//! This is the equivalent, grown two capabilities past the original
//! in-memory map (DESIGN.md §12):
//!
//! * **Per-value CRC32C** — every `set` seals the value with a checksum,
//!   and [`KvStore::get_with_crc`] hands both back so the cluster's
//!   fault-wrapped read path can tell *corrupt* from *missing* instead of
//!   deserializing garbage.
//! * **Write-ahead logging** — a store built with [`KvStore::durable`]
//!   appends every `set`/`del` to a [`texid_store::DurableLog`] before
//!   mutating the map, can compact into a checksummed snapshot, and can
//!   [`KvStore::replay`] itself strictly from the media — the primitive
//!   `Cluster::heal()` uses to recover crashed shards. Records the fault
//!   plan tore or lost simply never come back, which is exactly the signal
//!   recovery quarantines on.
//!
//! [`KvStore::new`] stays a plain in-memory store (no log, no durability)
//! so unit tests and ephemeral tooling pay nothing.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use texid_store::{crc32c, DurableLog, Record, ReplayStats, SnapshotFault, WalStats, WriteFault};

/// A value plus the checksum sealed over it at write time.
struct Stored {
    bytes: Vec<u8>,
    crc: u32,
}

impl Stored {
    fn seal(bytes: Vec<u8>) -> Stored {
        let crc = crc32c(&bytes);
        Stored { bytes, crc }
    }
}

/// A thread-safe KV store (Redis stand-in) with per-value CRC32C and an
/// optional write-ahead log.
#[derive(Default)]
pub struct KvStore {
    map: RwLock<BTreeMap<String, Stored>>,
    log: Option<DurableLog>,
    /// Append failures from a file-backed log (memory media never fail);
    /// surfaced through [`KvStore::wal_io_errors`] rather than poisoning
    /// the write path.
    wal_io_errors: AtomicU64,
}

impl KvStore {
    /// Create an empty, ephemeral store (no durability log).
    pub fn new() -> KvStore {
        KvStore::default()
    }

    /// Create an empty store journaling through `log`.
    pub fn durable(log: DurableLog) -> KvStore {
        KvStore { log: Some(log), ..KvStore::default() }
    }

    /// Set `key` to `value`, returning the previous value if any.
    pub fn set(&self, key: &str, value: Vec<u8>) -> Option<Vec<u8>> {
        self.set_faulted(key, value, WriteFault::Clean)
    }

    /// [`KvStore::set`] with an explicit durability fault on the WAL
    /// append (the cluster's fault plan decides it; the map mutation
    /// happens regardless — the writer believes the write succeeded, and
    /// only replay reveals what the media really kept).
    pub fn set_faulted(&self, key: &str, value: Vec<u8>, fault: WriteFault) -> Option<Vec<u8>> {
        if let Some(log) = &self.log {
            let rec = Record::Set { key: key.to_string(), value: value.clone() };
            if log.append(&rec, fault).is_err() {
                self.wal_io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.map.write().insert(key.to_string(), Stored::seal(value)).map(|s| s.bytes)
    }

    /// Fetch a copy of the value at `key`.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.map.read().get(key).map(|s| s.bytes.clone())
    }

    /// Fetch a copy of the value plus the CRC32C sealed over it at write
    /// time. Callers that pass the bytes through fault injection verify
    /// them against the checksum to distinguish corrupt from missing.
    pub fn get_with_crc(&self, key: &str) -> Option<(Vec<u8>, u32)> {
        self.map.read().get(key).map(|s| (s.bytes.clone(), s.crc))
    }

    /// Delete `key`, returning whether it existed.
    pub fn del(&self, key: &str) -> bool {
        self.del_faulted(key, WriteFault::Clean)
    }

    /// [`KvStore::del`] with an explicit durability fault on the WAL append.
    pub fn del_faulted(&self, key: &str, fault: WriteFault) -> bool {
        if let Some(log) = &self.log {
            let rec = Record::Del { key: key.to_string() };
            if log.append(&rec, fault).is_err() {
                self.wal_io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.map.write().remove(key).is_some()
    }

    /// True if `key` exists.
    pub fn exists(&self, key: &str) -> bool {
        self.map.read().contains_key(key)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Total payload bytes stored.
    pub fn used_bytes(&self) -> u64 {
        self.map.read().values().map(|s| s.bytes.len() as u64).sum()
    }

    /// True when the log's snapshot schedule says it is time to
    /// [`KvStore::compact`]. Always false for ephemeral stores.
    pub fn snapshot_due(&self) -> bool {
        self.log.as_ref().is_some_and(|l| l.snapshot_due())
    }

    /// Write the current map as a checksummed snapshot and truncate the
    /// WAL behind it. Returns false for ephemeral stores.
    pub fn compact(&self, fault: SnapshotFault) -> bool {
        let Some(log) = &self.log else { return false };
        let entries: BTreeMap<String, Vec<u8>> =
            self.map.read().iter().map(|(k, s)| (k.clone(), s.bytes.clone())).collect();
        if log.write_snapshot(&entries, fault).is_err() {
            self.wal_io_errors.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Discard the in-memory map and rebuild it strictly from the durable
    /// media (verified snapshot + complete WAL records). Torn, lost, and
    /// bit-flipped records simply do not come back. `None` for ephemeral
    /// stores — there is nothing to replay from.
    pub fn replay(&self) -> Option<ReplayStats> {
        let log = self.log.as_ref()?;
        let (entries, stats) = match log.replay() {
            Ok(ok) => ok,
            Err(_) => {
                self.wal_io_errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let mut map = self.map.write();
        map.clear();
        for (k, v) in entries {
            map.insert(k, Stored::seal(v));
        }
        Some(stats)
    }

    /// WAL counters and blob sizes, if durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.log.as_ref().map(|l| l.stats())
    }

    /// Append failures from the underlying media (always 0 for in-memory
    /// volumes).
    pub fn wal_io_errors(&self) -> u64 {
        self.wal_io_errors.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use texid_store::{LogConfig, Volume};

    #[test]
    fn set_get_del_cycle() {
        let kv = KvStore::new();
        assert!(kv.set("a", vec![1, 2, 3]).is_none());
        assert_eq!(kv.get("a"), Some(vec![1, 2, 3]));
        assert_eq!(kv.set("a", vec![9]), Some(vec![1, 2, 3]));
        assert!(kv.del("a"));
        assert!(!kv.del("a"));
        assert_eq!(kv.get("a"), None);
    }

    #[test]
    fn accounting() {
        let kv = KvStore::new();
        kv.set("a", vec![0; 100]);
        kv.set("b", vec![0; 50]);
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.used_bytes(), 150);
        kv.del("a");
        assert_eq!(kv.used_bytes(), 50);
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let kv = Arc::new(KvStore::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let kv = kv.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        kv.set(&format!("k:{t}:{i}"), vec![t as u8]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(kv.len(), 800);
    }

    #[test]
    fn per_value_crc_detects_mangling() {
        let kv = KvStore::new();
        kv.set("k", vec![7; 32]);
        let (mut bytes, crc) = kv.get_with_crc("k").unwrap();
        assert_eq!(texid_store::crc32c(&bytes), crc);
        bytes[3] ^= 0x40;
        assert_ne!(texid_store::crc32c(&bytes), crc);
    }

    #[test]
    fn ephemeral_store_has_no_durability() {
        let kv = KvStore::new();
        kv.set("k", vec![1]);
        assert!(!kv.snapshot_due());
        assert!(!kv.compact(SnapshotFault::Clean));
        assert!(kv.replay().is_none());
        assert!(kv.wal_stats().is_none());
    }

    #[test]
    fn durable_store_replays_clean_history() {
        let kv = KvStore::durable(DurableLog::in_memory());
        kv.set("a", vec![1]);
        kv.set("b", vec![2]);
        kv.del("a");
        kv.set("c", vec![3]);
        // Wipe the map, then rebuild from the WAL alone.
        let stats = kv.replay().unwrap();
        assert_eq!(stats.wal_records_applied, 4);
        assert!(!stats.damaged());
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.get("b"), Some(vec![2]));
        assert_eq!(kv.get("a"), None);
    }

    #[test]
    fn torn_and_lost_writes_vanish_on_replay() {
        let kv = KvStore::durable(DurableLog::in_memory());
        kv.set("kept", vec![1]);
        kv.set_faulted("lost", vec![2], WriteFault::Lose);
        kv.set_faulted("torn", vec![3; 100], WriteFault::Tear);
        // Before replay all three are visible — the writer had no idea.
        assert_eq!(kv.len(), 3);
        let stats = kv.replay().unwrap();
        assert_eq!(kv.len(), 1);
        assert!(kv.exists("kept"));
        assert!(stats.wal_torn_tail_bytes > 0);
        assert!(stats.damaged());
    }

    #[test]
    fn compaction_truncates_and_preserves_contents() {
        let log = DurableLog::new(Volume::in_memory(), LogConfig { snapshot_every: 3 });
        let kv = KvStore::durable(log);
        kv.set("a", vec![1]);
        kv.set("b", vec![2]);
        assert!(!kv.snapshot_due());
        kv.set("c", vec![3]);
        assert!(kv.snapshot_due());
        assert!(kv.compact(SnapshotFault::Clean));
        assert_eq!(kv.wal_stats().unwrap().wal_bytes, 0);
        kv.set("d", vec![4]);
        let stats = kv.replay().unwrap();
        assert_eq!(stats.snapshot_entries, 3);
        assert_eq!(stats.wal_records_applied, 1);
        assert_eq!(kv.len(), 4);
    }

    #[test]
    fn corrupt_snapshot_is_reported_on_replay() {
        let kv = KvStore::durable(DurableLog::in_memory());
        kv.set("pre", vec![1]);
        assert!(kv.compact(SnapshotFault::Corrupt));
        kv.set("post", vec![2]);
        let stats = kv.replay().unwrap();
        assert!(stats.snapshot_error.is_some());
        // The snapshot's contents are gone; the WAL tail survives.
        assert!(!kv.exists("pre"));
        assert!(kv.exists("post"));
    }
}
