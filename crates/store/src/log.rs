//! [`DurableLog`]: the WAL + snapshot pair behind one feature store.
//!
//! Write path: every mutation is framed by [`crate::wal`] and appended to
//! the WAL medium; [`DurableLog::append`] says where a set's value landed,
//! so a caller can index the log instead of copying it, and
//! [`DurableLog::read_at`] reads the value back. Every `snapshot_every`
//! appends the caller is told a snapshot is due;
//! [`DurableLog::install_snapshot`] then atomically replaces the snapshot
//! blob with one the caller encoded ([`crate::snapshot::Encoder`]) and
//! truncates the WAL — compaction in the LSM sense, bounded at one level.
//!
//! Recovery path ([`DurableLog::replay_indexed`]): walk the snapshot
//! (tolerating a truncated or bit-flipped one by starting empty and saying
//! so), then the WAL tail, handing the caller every complete record in
//! order with where its value lies. [`DurableLog::replay`] is its copying
//! projection onto a map. The returned [`ReplayStats`] carries exactly
//! what the cluster's `heal()` reports per shard: records replayed, records
//! quarantined (corrupt-skipped), torn bytes dropped, and whether the
//! snapshot itself was damaged.
//!
//! Fault injection is mechanism-only here: [`WriteFault`] says *how* an
//! append goes wrong (lost before fsync, or torn mid-write); *when* it goes
//! wrong is decided upstream by the cluster's seeded `FaultPlan`, keeping
//! this crate deterministic and policy-free.

use crate::media::Volume;
use crate::snapshot;
use crate::wal::{self, Found, Record};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// How a single WAL append is allowed to fail (decided by the caller's
/// fault plan; [`WriteFault::Clean`] in production).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WriteFault {
    /// Append lands fully and durably.
    #[default]
    Clean,
    /// Crash before fsync: the record never reaches the medium at all.
    Lose,
    /// Torn write: only the first half of the framed record reaches the
    /// medium, leaving a dangling tail for replay to find.
    Tear,
}

/// How a snapshot write is allowed to fail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SnapshotFault {
    /// Snapshot lands intact.
    #[default]
    Clean,
    /// A bit flips inside the blob after the checksum is sealed, so replay
    /// must detect it and fall back to the WAL.
    Corrupt,
}

/// Which of a volume's two blobs a value lies in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Blob {
    /// The last snapshot.
    Snapshot,
    /// The write-ahead log behind it.
    Wal,
}

/// Tuning for one [`DurableLog`].
#[derive(Clone, Copy, Debug)]
pub struct LogConfig {
    /// Appends between snapshots; `0` disables automatic snapshot
    /// scheduling (snapshots can still be forced via `write_snapshot`).
    pub snapshot_every: usize,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig { snapshot_every: 256 }
    }
}

/// Monotonic counters describing a log's life so far (surfaced through
/// `texid_wal_*` metrics and `texid store inspect`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since the log was opened.
    pub appends: u64,
    /// Appends the fault plan lost before fsync.
    pub lost_appends: u64,
    /// Appends the fault plan tore mid-write.
    pub torn_appends: u64,
    /// Snapshots written (each truncates the WAL).
    pub snapshots: u64,
    /// Appends since the last snapshot.
    pub since_snapshot: u64,
    /// Current WAL blob size in bytes.
    pub wal_bytes: u64,
    /// Current snapshot blob size in bytes.
    pub snapshot_bytes: u64,
}

/// What replay found on the media.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Entries loaded from the snapshot.
    pub snapshot_entries: usize,
    /// Damage report if the snapshot failed verification (replay then
    /// started from an empty map).
    pub snapshot_error: Option<String>,
    /// Complete WAL records applied on top of the snapshot.
    pub wal_records_applied: usize,
    /// WAL records skipped for bad CRC or grammar — bit rot.
    pub wal_corrupt_skipped: usize,
    /// Dangling bytes past the last complete record — a torn write.
    pub wal_torn_tail_bytes: usize,
    /// Total WAL bytes scanned.
    pub wal_bytes_scanned: usize,
}

impl ReplayStats {
    /// True when the media carried any damage at all.
    pub fn damaged(&self) -> bool {
        self.snapshot_error.is_some() || self.wal_corrupt_skipped > 0 || self.wal_torn_tail_bytes > 0
    }
}

#[derive(Default)]
struct Counters {
    appends: u64,
    lost_appends: u64,
    torn_appends: u64,
    snapshots: u64,
    since_snapshot: u64,
}

/// The durable WAL + snapshot pair for one store. All methods are
/// `&self`; internal counters are lock-protected.
pub struct DurableLog {
    volume: Volume,
    config: LogConfig,
    counters: Mutex<Counters>,
}

impl DurableLog {
    /// Open a log over `volume` (which may already hold data — nothing is
    /// read until [`DurableLog::replay`]).
    pub fn new(volume: Volume, config: LogConfig) -> DurableLog {
        DurableLog { volume, config, counters: Mutex::new(Counters::default()) }
    }

    /// An in-memory log with default tuning — the standard in-process
    /// cluster configuration.
    pub fn in_memory() -> DurableLog {
        DurableLog::new(Volume::in_memory(), LogConfig::default())
    }

    /// Append one record, subject to `fault`. Lost and torn appends still
    /// count toward the snapshot schedule (the writer believed it wrote).
    /// Returns the WAL offset where the record's value starts (a del's is
    /// empty) when the whole frame landed, `None` when the fault kept it
    /// off the medium.
    ///
    /// # Errors
    /// Media transport errors (never for memory-backed volumes).
    pub fn append(&self, rec: &Record, fault: WriteFault) -> std::io::Result<Option<u64>> {
        let framed = wal::encode(rec);
        {
            let mut c = self.counters.lock();
            c.appends += 1;
            c.since_snapshot += 1;
            match fault {
                WriteFault::Clean => {}
                WriteFault::Lose => c.lost_appends += 1,
                WriteFault::Tear => c.torn_appends += 1,
            }
        }
        match fault {
            WriteFault::Clean => {
                let value_len = match rec {
                    Record::Set { value, .. } => value.len(),
                    Record::Del { .. } => 0,
                };
                let at = self.volume.wal.append(&framed)?;
                Ok(Some(at + (framed.len() - value_len) as u64))
            }
            WriteFault::Lose => Ok(None),
            WriteFault::Tear => self.volume.wal.append(&framed[..framed.len() / 2]).map(|_| None),
        }
    }

    /// Read `len` value bytes at `offset` of `blob`, as [`DurableLog::append`]
    /// or [`DurableLog::replay_indexed`] located them.
    ///
    /// # Errors
    /// A range outside the blob, or a media transport error.
    pub fn read_at(&self, blob: Blob, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        let medium = match blob {
            Blob::Snapshot => &self.volume.snapshot,
            Blob::Wal => &self.volume.wal,
        };
        medium.read_at(offset, len)
    }

    /// True when the snapshot schedule says it is time to compact.
    pub fn snapshot_due(&self) -> bool {
        self.config.snapshot_every > 0
            && self.counters.lock().since_snapshot >= self.config.snapshot_every as u64
    }

    /// Serialize `entries` as the new snapshot, then truncate the WAL
    /// ([`DurableLog::install_snapshot`] of [`snapshot::encode`]).
    ///
    /// # Errors
    /// Media transport errors (never for memory-backed volumes).
    pub fn write_snapshot(
        &self,
        entries: &BTreeMap<String, Vec<u8>>,
        fault: SnapshotFault,
    ) -> std::io::Result<()> {
        self.install_snapshot(snapshot::encode(entries), fault, || {})
    }

    /// Make `blob` (a sealed [`snapshot::Encoder`] blob) the snapshot, then
    /// truncate the WAL. `landed` runs once the snapshot is on the medium
    /// and before the WAL is cut, so a caller indexing values can move them
    /// to the new blob while both hold them. Under [`SnapshotFault::Corrupt`]
    /// one bit of the sealed blob is flipped before it lands — replay must
    /// catch it by checksum.
    ///
    /// # Errors
    /// Media transport errors (never for memory-backed volumes); `landed`
    /// has run if and only if the snapshot write succeeded.
    pub fn install_snapshot(
        &self,
        mut blob: Vec<u8>,
        fault: SnapshotFault,
        landed: impl FnOnce(),
    ) -> std::io::Result<()> {
        if fault == SnapshotFault::Corrupt {
            let mid = blob.len() / 2;
            blob[mid] ^= 0x01;
        }
        self.volume.snapshot.replace(blob)?;
        landed();
        self.volume.wal.replace(Vec::new())?;
        let mut c = self.counters.lock();
        c.snapshots += 1;
        c.since_snapshot = 0;
        Ok(())
    }

    /// Walk the media in replay order — the verified snapshot's entries,
    /// then every complete WAL record — handing `visit` each one with the
    /// blob it lies in. Damage is reported, not fatal: an unverifiable
    /// snapshot contributes no entries. Copies no value.
    ///
    /// # Errors
    /// Media transport errors (never for memory-backed volumes).
    pub fn replay_indexed(
        &self,
        mut visit: impl FnMut(Blob, Found<'_>),
    ) -> std::io::Result<ReplayStats> {
        let mut stats = ReplayStats::default();
        let snap = self.volume.snapshot.read()?;
        let mut entries = 0;
        let walked = snapshot::walk(&snap, |found| {
            entries += 1;
            visit(Blob::Snapshot, found);
        });
        match walked {
            Ok(()) => stats.snapshot_entries = entries,
            Err(err) => stats.snapshot_error = Some(err.to_string()),
        }
        drop(snap);
        let log = self.volume.wal.read()?;
        let mut records = 0;
        let scan = wal::walk(&log, |found| {
            records += 1;
            visit(Blob::Wal, found);
        });
        stats.wal_records_applied = records;
        stats.wal_corrupt_skipped = scan.corrupt_skipped;
        stats.wal_torn_tail_bytes = scan.torn_tail_bytes;
        stats.wal_bytes_scanned = scan.scanned_bytes;
        Ok(stats)
    }

    /// Rebuild the map strictly from the media: verified snapshot first,
    /// then every complete WAL record in order — the copying projection of
    /// [`DurableLog::replay_indexed`]. Damage is reported, not fatal.
    ///
    /// # Errors
    /// Media transport errors (never for memory-backed volumes).
    pub fn replay(&self) -> std::io::Result<(BTreeMap<String, Vec<u8>>, ReplayStats)> {
        let mut map = BTreeMap::new();
        let stats = self.replay_indexed(|_, found| match found.value {
            Some((_, value)) => {
                map.insert(found.key.to_string(), value.to_vec());
            }
            None => {
                map.remove(found.key);
            }
        })?;
        Ok((map, stats))
    }

    /// Current counters and blob sizes.
    pub fn stats(&self) -> WalStats {
        let c = self.counters.lock();
        WalStats {
            appends: c.appends,
            lost_appends: c.lost_appends,
            torn_appends: c.torn_appends,
            snapshots: c.snapshots,
            since_snapshot: c.since_snapshot,
            wal_bytes: self.volume.wal.len(),
            snapshot_bytes: self.volume.snapshot.len(),
        }
    }

    /// The media this log writes through (chaos tests keep their own
    /// handles to the underlying [`crate::media::MemMedia`]).
    pub fn volume(&self) -> &Volume {
        &self.volume
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(k: &str, v: &[u8]) -> Record {
        Record::Set { key: k.into(), value: v.into() }
    }

    #[test]
    fn append_replay_roundtrip() {
        let log = DurableLog::in_memory();
        log.append(&set("a", &[1]), WriteFault::Clean).unwrap();
        log.append(&set("b", &[2, 2]), WriteFault::Clean).unwrap();
        log.append(&Record::Del { key: "a".into() }, WriteFault::Clean).unwrap();
        let (map, stats) = log.replay().unwrap();
        assert_eq!(map.len(), 1);
        assert_eq!(map["b"], vec![2, 2]);
        assert_eq!(stats.wal_records_applied, 3);
        assert!(!stats.damaged());
    }

    #[test]
    fn snapshot_compacts_and_replays() {
        let log = DurableLog::new(Volume::in_memory(), LogConfig { snapshot_every: 2 });
        log.append(&set("a", &[1]), WriteFault::Clean).unwrap();
        assert!(!log.snapshot_due());
        log.append(&set("b", &[2]), WriteFault::Clean).unwrap();
        assert!(log.snapshot_due());
        let mut entries = BTreeMap::new();
        entries.insert("a".to_string(), vec![1]);
        entries.insert("b".to_string(), vec![2]);
        log.write_snapshot(&entries, SnapshotFault::Clean).unwrap();
        assert_eq!(log.stats().wal_bytes, 0);
        log.append(&set("c", &[3]), WriteFault::Clean).unwrap();
        let (map, stats) = log.replay().unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(stats.snapshot_entries, 2);
        assert_eq!(stats.wal_records_applied, 1);
    }

    #[test]
    fn lost_append_vanishes_on_replay() {
        let log = DurableLog::in_memory();
        log.append(&set("kept", &[1]), WriteFault::Clean).unwrap();
        log.append(&set("lost", &[2]), WriteFault::Lose).unwrap();
        let (map, stats) = log.replay().unwrap();
        assert!(map.contains_key("kept") && !map.contains_key("lost"));
        assert_eq!(stats.wal_torn_tail_bytes, 0);
        assert_eq!(log.stats().lost_appends, 1);
    }

    #[test]
    fn torn_append_is_detected_and_dropped() {
        let log = DurableLog::in_memory();
        log.append(&set("kept", &[1]), WriteFault::Clean).unwrap();
        log.append(&set("torn", &[0xAA; 64]), WriteFault::Tear).unwrap();
        let (map, stats) = log.replay().unwrap();
        assert!(map.contains_key("kept") && !map.contains_key("torn"));
        assert!(stats.wal_torn_tail_bytes > 0);
        assert!(stats.damaged());
        assert_eq!(log.stats().torn_appends, 1);
    }

    #[test]
    fn corrupt_snapshot_reported_and_survived() {
        let log = DurableLog::new(Volume::in_memory(), LogConfig::default());
        let mut entries = BTreeMap::new();
        entries.insert("snapped".to_string(), vec![9]);
        log.write_snapshot(&entries, SnapshotFault::Corrupt).unwrap();
        log.append(&set("tail", &[7]), WriteFault::Clean).unwrap();
        let (map, stats) = log.replay().unwrap();
        // Snapshot contents are gone (reported), WAL tail still applies.
        assert!(stats.snapshot_error.is_some());
        assert_eq!(stats.snapshot_entries, 0);
        assert!(!map.contains_key("snapped"));
        assert_eq!(map["tail"], vec![7]);
    }
}
