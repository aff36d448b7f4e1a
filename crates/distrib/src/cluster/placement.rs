//! Which shard owns an id, the fault-wrapped feature store, and the CRUD
//! built on the two.

use super::{Cluster, ClusterError};
use crate::faults::{FaultKind, FaultOp, FaultPlan};
use crate::wire;
use parking_lot::RwLockWriteGuard;
use std::sync::atomic::Ordering;
use texid_core::{EncodedReference, Engine};
use texid_knn::FeatureBlock;
use texid_sift::descriptor::DESCRIPTOR_DIM;
use texid_sift::FeatureMatrix;
use texid_store::{crc32c, SnapshotFault, WriteFault};

/// Outcome of a fault-wrapped, checksum-verified store read: the caller
/// learns whether bytes were absent or present-but-mangled, instead of
/// deserializing garbage.
pub(super) enum StoreRead {
    /// No bytes under the key.
    Missing,
    /// Bytes verified against their per-value CRC32C.
    Value(Vec<u8>),
    /// Bytes present but failing their checksum.
    Corrupt,
}

impl Cluster {
    pub(super) fn key(id: u64) -> String {
        format!("tex:{id:020}")
    }

    /// Verify fetched bytes against the per-value CRC32C sealed at write
    /// time — the line between *missing* and *corrupt*.
    fn verified(read: Option<(Vec<u8>, u32)>) -> StoreRead {
        match read {
            None => StoreRead::Missing,
            Some((bytes, crc)) if crc32c(&bytes) == crc => StoreRead::Value(bytes),
            Some(_) => StoreRead::Corrupt,
        }
    }

    /// Store read through the fault plan: bounded deterministic retries on
    /// transient faults; loss and corruption surfaced as distinct
    /// [`StoreRead`] outcomes (corruption is *detected*, never returned —
    /// mangled bytes fail their per-value checksum).
    pub(super) fn store_get(&self, key: &str) -> Result<StoreRead, ClusterError> {
        match self.decide(FaultOp::kv_read(key), None).0 {
            Some(FaultKind::Transient) => Err(ClusterError::Timeout(format!("kv read {key}"))),
            Some(FaultKind::KvLoss) => Ok(StoreRead::Missing),
            Some(FaultKind::KvCorrupt) => {
                Ok(Self::verified(self.store.get_with_crc(key).map(|(mut bytes, crc)| {
                    FaultPlan::corrupt_bytes(&mut bytes);
                    bytes = if bytes.is_empty() { vec![0] } else { bytes };
                    (bytes, crc)
                })))
            }
            _ => Ok(Self::verified(self.store.get_with_crc(key))),
        }
    }

    /// Store write through the fault plan: bounded deterministic retries
    /// on transient faults, then one durability decision for the WAL
    /// append and, when compaction comes due, one for the snapshot write.
    fn store_set(&self, key: &str, value: Vec<u8>) -> Result<(), ClusterError> {
        if self.decide(FaultOp::kv_write(key), None).0 == Some(FaultKind::Transient) {
            return Err(ClusterError::Unavailable(format!("feature store ({key})")));
        }
        let wal_fault = match self.decide(FaultOp::wal_append(key), None).0 {
            Some(FaultKind::CrashBeforeFsync) => WriteFault::Lose,
            Some(FaultKind::TornWrite) => WriteFault::Tear,
            _ => WriteFault::Clean,
        };
        self.store.set_faulted(key, value, wal_fault);
        if self.store.snapshot_due() {
            let snap_fault = match self.decide(FaultOp::snapshot_write(), None).0 {
                Some(FaultKind::SnapshotCorrupt) => SnapshotFault::Corrupt,
                _ => SnapshotFault::Clean,
            };
            self.store.compact(snap_fault);
        }
        Ok(())
    }

    /// The write-locked engine of the shard that owns `id`, with the
    /// ownership confirmed under that lock, and whether the id was owned
    /// before the call. `place` puts an id nobody owns on the next
    /// round-robin shard (`false` comes back); without it such an id yields
    /// `None`.
    ///
    /// Every mutation of an id's engine entry and of its `shard_of` entry
    /// happens under this guard, so writers racing on one id serialize on
    /// its shard and cannot leave the id indexed twice or indexed but
    /// unowned. The guard is taken first and `shard_of` inside it, never the
    /// other way round.
    fn lock_owner(&self, id: u64, place: bool) -> Option<(RwLockWriteGuard<'_, Engine>, bool)> {
        loop {
            let known = self.shard_of.lock().get(&id).copied();
            let shard = match known {
                Some(shard) => shard,
                None if place => self.next_rr.fetch_add(1, Ordering::Relaxed) % self.shards.len(),
                None => return None,
            };
            let engine = self.shards[shard].engine.write();
            let mut shard_of = self.shard_of.lock();
            match shard_of.get(&id) {
                Some(&owner) if owner == shard => return Some((engine, true)),
                None if known.is_none() => {
                    shard_of.insert(id, shard);
                    return Some((engine, false));
                }
                // Deleted, or placed elsewhere, while this thread waited
                // for the lock: look again.
                _ => {}
            }
        }
    }

    /// Physically delete `id` from the shard that owns it and forget the
    /// ownership: one short hold of that shard's write lock.
    pub(super) fn unindex(&self, id: u64) {
        if let Some((mut engine, _)) = self.lock_owner(id, false) {
            engine.remove_reference(id);
            self.shard_of.lock().remove(&id);
        }
    }

    /// The live ids `shard` owns, ascending.
    pub(super) fn members_of(&self, shard: usize) -> Vec<u64> {
        let shard_of = self.shard_of.lock();
        let mut members: Vec<u64> =
            shard_of.iter().filter(|(_, owner)| **owner == shard).map(|(id, _)| *id).collect();
        members.sort_unstable();
        members
    }

    /// Add a texture's reference features, or replace them: a new id goes to
    /// the next shard round-robin, a live one is rewritten on the shard that
    /// owns it, in the slot it occupies ([`Engine::replace_reference`]). The
    /// overwrite happens under one hold of that shard's write lock — a
    /// search sweeps the shard before or after, and finds exactly one
    /// version either way — and leaves the shard's batches as they were.
    ///
    /// The features are narrowed to storage precision once, here
    /// ([`EncodedReference::new`]), and that block is what the store keeps
    /// ([`wire::encode_block`]) and the engine indexes.
    ///
    /// # Errors
    /// `Dimension` unless the descriptors are [`DESCRIPTOR_DIM`]-dimensional
    /// (a shard cannot batch, and the kernel cannot multiply, columns of two
    /// lengths); `Unstorable` for a component the storage precision cannot
    /// hold ([`FeatureBlock::unstorable`]: non-finite, or an f16 overflow
    /// that a search would score as a match to everything). Either way
    /// nothing is stored or indexed. Propagates shard cache exhaustion;
    /// `Unavailable` if the feature store rejects the write past the retry
    /// budget.
    pub fn add_texture(&self, id: u64, features: &FeatureMatrix) -> Result<(), ClusterError> {
        if features.dim() != DESCRIPTOR_DIM {
            return Err(ClusterError::Dimension(features.dim()));
        }
        let engine_cfg = &self.cfg.engine;
        let (precision, scale) = (engine_cfg.matching.precision, engine_cfg.matching.scale);
        if let Some(x) = FeatureBlock::unstorable(features.mat.as_slice(), precision, scale) {
            return Err(ClusterError::Unstorable(x));
        }
        let reference = EncodedReference::new(engine_cfg, features);
        // Persist first (the paper's Redis holds the authoritative copy).
        let message = wire::encode_block(reference.block(), &features.keypoints, features.rootsift);
        self.store_set(&Self::key(id), message)?;
        let (mut engine, live) = self.lock_owner(id, true).expect("an unowned id is placed");
        // Only a live id has a version to overwrite: enrolling a new one
        // must not pay `replace_encoded`'s walk over the shard's ids.
        if !(live && engine.replace_encoded(id, &reference)) {
            engine.add_encoded(id, &reference)?;
        }
        Ok(())
    }

    /// Delete a texture: its stored features and, in place, its reference
    /// on the shard that owns it.
    ///
    /// # Errors
    /// `NotFound` if the id is unknown.
    pub fn delete_texture(&self, id: u64) -> Result<(), ClusterError> {
        if !self.store.del(&Self::key(id)) {
            return Err(ClusterError::NotFound(id));
        }
        self.unindex(id);
        Ok(())
    }

    /// [`Cluster::add_texture`] for an id that must already exist.
    ///
    /// # Errors
    /// `NotFound` if the id was never added; cache errors from re-indexing.
    pub fn update_texture(&self, id: u64, features: &FeatureMatrix) -> Result<(), ClusterError> {
        if !self.store.exists(&Self::key(id)) {
            return Err(ClusterError::NotFound(id));
        }
        self.add_texture(id, features)
    }

    /// The checksum-verified stored message for `id`.
    pub(super) fn stored(&self, id: u64) -> Result<Vec<u8>, ClusterError> {
        match self.store_get(&Self::key(id))? {
            StoreRead::Value(bytes) => Ok(bytes),
            StoreRead::Missing => Err(ClusterError::NotFound(id)),
            StoreRead::Corrupt => Err(ClusterError::Corrupt(id)),
        }
    }

    /// Fetch the stored features for a texture: the stored block widened
    /// (and, for F16, unscaled) — what was enrolled, as storage precision
    /// kept it.
    ///
    /// # Errors
    /// `NotFound` / `Corrupt` / `Timeout`.
    pub fn get_texture(&self, id: u64) -> Result<FeatureMatrix, ClusterError> {
        wire::decode_features(&self.stored(id)?).map_err(|_| ClusterError::Corrupt(id))
    }

    /// The stored message for a texture, as it was written (f16 bits and
    /// their scale under F16), and its feature count.
    ///
    /// # Errors
    /// `NotFound` / `Corrupt` / `Timeout`.
    pub fn get_texture_message(&self, id: u64) -> Result<(Vec<u8>, usize), ClusterError> {
        let message = self.stored(id)?;
        let stored = wire::decode_block(&message).map_err(|_| ClusterError::Corrupt(id))?;
        Ok((message, stored.block.cols()))
    }

    /// Number of live textures.
    pub fn len(&self) -> usize {
        self.shard_of.lock().len()
    }

    /// True when no textures are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
