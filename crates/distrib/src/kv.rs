//! Redis substrate: a thread-safe key/value store with per-value
//! checksums, kept as a keydir over its own durability log.
//!
//! The paper's deployment keeps serialized reference feature matrices in a
//! Redis container so GPU containers can (re)load their shard on startup.
//! This is the equivalent, grown past the original in-memory map
//! (DESIGN.md §12):
//!
//! * **Per-value CRC32C** — every `set` seals the value with a checksum,
//!   and [`KvStore::get_with_crc`] hands both back so the cluster's
//!   fault-wrapped read path can tell *corrupt* from *missing* instead of
//!   deserializing garbage.
//! * **Write-ahead logging** — every `set`/`del` is appended to a
//!   [`texid_store::DurableLog`]; the store can compact into a checksummed
//!   snapshot and [`KvStore::replay`] itself strictly from the media — the
//!   primitive `Cluster::heal()` uses to recover crashed shards. Records
//!   the fault plan tore or lost never come back, which is exactly the
//!   signal recovery quarantines on.
//! * **One copy of each value** — as in Bitcask's keydir (Sheehy & Smith
//!   2010), the map holds where a value lies (snapshot or WAL, offset,
//!   length) and its checksum, not the value: a read goes to the medium.
//!   A write the fault plan kept off the medium, and every value across a
//!   compaction whose snapshot it corrupted, is *held* in its entry
//!   instead, so the writer still reads what it believes it wrote while
//!   replay shows only what the media kept. Appends, compaction and replay
//!   take the keydir's write lock, so the log's order is the keydir's.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use texid_store::snapshot::Encoder;
use texid_store::{
    crc32c, Blob, DurableLog, Record, ReplayStats, SnapshotFault, WalStats, WriteFault,
};

/// Where a value's bytes are.
enum Value {
    /// On the log's media: this blob, from this offset.
    At(Blob, u64),
    /// In memory: the media do not hold what the writer believes it wrote.
    Held(Vec<u8>),
}

/// One keydir entry: where the value is, its length, and the checksum
/// sealed over it at write time.
struct Slot {
    value: Value,
    len: usize,
    crc: u32,
}

/// A thread-safe KV store (Redis stand-in) with per-value CRC32C, indexing
/// its write-ahead log instead of copying it. A media error (only a
/// file-backed log has them) never poisons the write path: a failed append
/// holds the value in memory, a failed read answers `None`.
pub struct KvStore {
    keydir: RwLock<BTreeMap<String, Slot>>,
    log: DurableLog,
}

impl KvStore {
    /// Create an empty store journaling through `log`.
    pub fn durable(log: DurableLog) -> KvStore {
        KvStore { keydir: RwLock::default(), log }
    }

    /// Set `key` to `value`, returning whether the key already existed.
    pub fn set(&self, key: &str, value: Vec<u8>) -> bool {
        self.set_faulted(key, value, WriteFault::Clean)
    }

    /// [`KvStore::set`] with an explicit durability fault on the WAL
    /// append (the cluster's fault plan decides it). The writer believes
    /// the write succeeded regardless — a lost or torn value is held in
    /// memory and read back — and only replay reveals what the media
    /// really kept.
    pub fn set_faulted(&self, key: &str, value: Vec<u8>, fault: WriteFault) -> bool {
        let (len, crc) = (value.len(), crc32c(&value));
        let rec = Record::Set { key: key.to_string(), value };
        let mut keydir = self.keydir.write();
        let landed = self.log.append(&rec, fault);
        let Record::Set { key, value } = rec else { unreachable!("built as a set") };
        let value = match landed {
            Ok(Some(at)) => Value::At(Blob::Wal, at),
            Ok(None) | Err(_) => Value::Held(value),
        };
        keydir.insert(key, Slot { value, len, crc }).is_some()
    }

    /// Fetch a copy of the value at `key`.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.get_with_crc(key).map(|(bytes, _)| bytes)
    }

    /// Fetch a copy of the value plus the CRC32C sealed over it at write
    /// time. Callers that pass the bytes through fault injection verify
    /// them against the checksum to distinguish corrupt from missing. A
    /// medium that fails the read answers `None`.
    pub fn get_with_crc(&self, key: &str) -> Option<(Vec<u8>, u32)> {
        let keydir = self.keydir.read();
        let slot = keydir.get(key)?;
        let bytes = match &slot.value {
            Value::Held(bytes) => bytes.clone(),
            Value::At(blob, at) => self.log.read_at(*blob, *at, slot.len).ok()?,
        };
        Some((bytes, slot.crc))
    }

    /// Delete `key`, returning whether it existed.
    pub fn del(&self, key: &str) -> bool {
        self.del_faulted(key, WriteFault::Clean)
    }

    /// [`KvStore::del`] with an explicit durability fault on the WAL append.
    pub fn del_faulted(&self, key: &str, fault: WriteFault) -> bool {
        let rec = Record::Del { key: key.to_string() };
        let mut keydir = self.keydir.write();
        // A failed append still deletes: the key is gone from the keydir.
        let _ = self.log.append(&rec, fault);
        keydir.remove(key).is_some()
    }

    /// True if `key` exists.
    pub fn exists(&self, key: &str) -> bool {
        self.keydir.read().contains_key(key)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keydir.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.keydir.read().is_empty()
    }

    /// Total payload bytes stored.
    pub fn used_bytes(&self) -> u64 {
        self.keydir.read().values().map(|s| s.len as u64).sum()
    }

    /// True when the log's snapshot schedule says it is time to
    /// [`KvStore::compact`].
    pub fn snapshot_due(&self) -> bool {
        self.log.snapshot_due()
    }

    /// Stream every live value into a checksummed snapshot, truncate the
    /// WAL behind it, and point the keydir at the snapshot. Under
    /// [`SnapshotFault::Corrupt`] every value is held instead: the writer
    /// does not know its snapshot is damaged. Returns false on a media
    /// error.
    pub fn compact(&self, fault: SnapshotFault) -> bool {
        let mut keydir = self.keydir.write();
        let mut enc = Encoder::with_sizes(keydir.iter().map(|(key, s)| (key.len(), s.len)));
        let mut offsets = Vec::with_capacity(keydir.len());
        for (key, slot) in keydir.iter() {
            let at = match &slot.value {
                Value::Held(bytes) => enc.push(key, bytes),
                Value::At(blob, at) => match self.log.read_at(*blob, *at, slot.len) {
                    Ok(bytes) => enc.push(key, &bytes),
                    Err(_) => return false,
                },
            };
            offsets.push(at);
        }
        let blob = enc.finish();
        let held: Vec<Vec<u8>> = match fault {
            SnapshotFault::Clean => Vec::new(),
            SnapshotFault::Corrupt => keydir
                .values()
                .zip(&offsets)
                .map(|(slot, &at)| blob[at as usize..][..slot.len].to_vec())
                .collect(),
        };
        let installed = self.log.install_snapshot(blob, fault, || {
            let mut held = held.into_iter();
            for (slot, at) in keydir.values_mut().zip(offsets) {
                slot.value = match held.next() {
                    Some(bytes) => Value::Held(bytes),
                    None => Value::At(Blob::Snapshot, at),
                };
            }
        });
        installed.is_ok()
    }

    /// Discard the keydir and rebuild it strictly from the durable media
    /// (verified snapshot + complete WAL records), copying no value. Torn,
    /// lost, and bit-flipped records simply do not come back; held values
    /// are dropped. `None` on a media error, leaving the keydir as it was.
    pub fn replay(&self) -> Option<ReplayStats> {
        let mut keydir = self.keydir.write();
        let mut rebuilt = BTreeMap::new();
        let stats = self.log.replay_indexed(|blob, found| match found.value {
            Some((at, value)) => {
                let slot = Slot {
                    value: Value::At(blob, at as u64),
                    len: value.len(),
                    crc: crc32c(value),
                };
                rebuilt.insert(found.key.to_string(), slot);
            }
            None => {
                rebuilt.remove(found.key);
            }
        });
        match stats {
            Ok(stats) => {
                *keydir = rebuilt;
                Some(stats)
            }
            Err(_) => None,
        }
    }

    /// WAL counters and blob sizes. Always `Some` since every store is
    /// journaled; an `Option` because `benchmarks/` reads it as one.
    pub fn wal_stats(&self) -> Option<WalStats> {
        Some(self.log.stats())
    }

    /// Value bytes held in the keydir rather than on the media.
    #[cfg(test)]
    fn held_bytes(&self) -> usize {
        let keydir = self.keydir.read();
        keydir.values().filter(|s| matches!(s.value, Value::Held(_))).map(|s| s.len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;
    use texid_store::{LogConfig, Media, MemMedia, Volume};

    #[test]
    fn set_get_del_cycle() {
        let kv = KvStore::durable(DurableLog::in_memory());
        assert!(!kv.set("a", vec![1, 2, 3]));
        assert_eq!(kv.get("a"), Some(vec![1, 2, 3]));
        assert!(kv.set("a", vec![9]));
        assert_eq!(kv.get("a"), Some(vec![9]));
        assert!(kv.del("a"));
        assert!(!kv.del("a"));
        assert_eq!(kv.get("a"), None);
    }

    #[test]
    fn accounting() {
        let kv = KvStore::durable(DurableLog::in_memory());
        kv.set("a", vec![0; 100]);
        kv.set("b", vec![0; 50]);
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.used_bytes(), 150);
        kv.del("a");
        assert_eq!(kv.used_bytes(), 50);
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let kv = Arc::new(KvStore::durable(DurableLog::in_memory()));
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
        let kv = KvStore::durable(DurableLog::in_memory());
        kv.set("k", vec![7; 32]);
        let (mut bytes, crc) = kv.get_with_crc("k").unwrap();
        assert_eq!(texid_store::crc32c(&bytes), crc);
        bytes[3] ^= 0x40;
        assert_ne!(texid_store::crc32c(&bytes), crc);
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

    #[test]
    fn a_value_lives_once_and_a_faulted_one_is_held() {
        let kv = KvStore::durable(DurableLog::in_memory());
        kv.set("clean", vec![1; 1000]);
        kv.set("gone", vec![4; 10]);
        kv.del("gone");
        assert_eq!(kv.held_bytes(), 0, "a clean store holds no value bytes of its own");
        kv.set_faulted("lost", vec![2; 300], WriteFault::Lose);
        assert_eq!(kv.held_bytes(), 300);
        kv.set_faulted("torn", vec![3; 70], WriteFault::Tear);
        assert_eq!(kv.held_bytes(), 370);
        let expect = [("clean", vec![1; 1000]), ("lost", vec![2; 300]), ("torn", vec![3; 70])];
        let read_back = |kv: &KvStore| {
            for (key, value) in &expect {
                assert_eq!(kv.get_with_crc(key), Some((value.clone(), crc32c(value))), "{key}");
            }
        };
        read_back(&kv);
        // A clean compaction puts the held values on the media; a corrupt
        // one holds every value, since its snapshot no longer can.
        assert!(kv.compact(SnapshotFault::Clean));
        assert_eq!(kv.held_bytes(), 0);
        read_back(&kv);
        assert!(kv.compact(SnapshotFault::Corrupt));
        assert_eq!(kv.held_bytes(), 1370);
        read_back(&kv);
    }

    /// A snapshot medium whose `replace` reports that it has begun, then
    /// waits to be released.
    struct ParkingMedia {
        inner: MemMedia,
        parked: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl Media for ParkingMedia {
        fn read(&self) -> std::io::Result<Vec<u8>> {
            self.inner.read()
        }

        fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
            self.inner.read_at(offset, len)
        }

        fn append(&self, bytes: &[u8]) -> std::io::Result<u64> {
            self.inner.append(bytes)
        }

        fn replace(&self, bytes: Vec<u8>) -> std::io::Result<()> {
            self.parked.lock().send(()).expect("the test waits for the park");
            self.release.lock().recv().expect("the test releases the park");
            self.inner.replace(bytes)
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    #[test]
    fn a_set_during_compaction_survives_replay() {
        let (parked_tx, parked) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let snapshot = Arc::new(ParkingMedia {
            inner: MemMedia::new(),
            parked: Mutex::new(parked_tx),
            release: Mutex::new(release_rx),
        });
        let volume = Volume { wal: Arc::new(MemMedia::new()), snapshot };
        let kv = &KvStore::durable(DurableLog::new(volume, LogConfig { snapshot_every: 0 }));
        kv.set("a", vec![1]);
        std::thread::scope(|s| {
            let compaction = s.spawn(|| kv.compact(SnapshotFault::Clean));
            parked.recv().unwrap();
            let (acked_tx, acked) = mpsc::channel();
            let writer = s.spawn(move || {
                kv.set("b", vec![2]);
                acked_tx.send(()).unwrap();
            });
            // Without the keydir lock the set is acknowledged right here,
            // between the snapshot write and the WAL truncation; with it the
            // set waits for the compaction, and this wait only bounds how
            // long it is given.
            let _ = acked.recv_timeout(Duration::from_millis(500));
            release.send(()).unwrap();
            assert!(compaction.join().unwrap());
            writer.join().unwrap();
        });
        kv.replay().unwrap();
        assert_eq!(kv.get("a"), Some(vec![1]));
        assert_eq!(kv.get("b"), Some(vec![2]), "an acknowledged set was lost");
    }
}
