//! Recovery: rebuild a shard from the feature store, quarantining what the
//! store cannot give back, and the supervisor pass that replays the
//! durable media first and then heals every unhealthy shard.

use super::placement::StoreRead;
use super::{Cluster, ClusterError, ShardHealth};
use crate::faults::{FaultKind, FaultOp};
use crate::wire;
use std::time::Instant;
use texid_obs::{global_ring, TraceContext};
use texid_sift::descriptor::DESCRIPTOR_DIM;
use texid_store::ReplayStats;

/// Why an entry was quarantined during recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The store has no bytes for the id (lost read, or a torn/unsynced
    /// WAL record that vanished on replay).
    Missing,
    /// Bytes exist but fail their per-value CRC32C or do not decode.
    Corrupt,
}

impl QuarantineReason {
    /// Lowercase name (REST payloads).
    pub fn as_str(&self) -> &'static str {
        match self {
            QuarantineReason::Missing => "missing",
            QuarantineReason::Corrupt => "corrupt",
        }
    }
}

/// One quarantined entry: the id and why it could not be restored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quarantine {
    /// External texture id.
    pub id: u64,
    /// What was wrong with its stored bytes.
    pub reason: QuarantineReason,
}

/// What [`Cluster::recover_container`] accomplished.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Entries re-indexed from the store.
    pub restored: usize,
    /// Ids whose stored bytes were missing or corrupt; their remains were
    /// moved under a `quarantine:` key and the id retired.
    pub quarantined: Vec<Quarantine>,
}

/// Per-shard replay stats from one heal pass (REST `POST /heal` payload,
/// `texid_replay_*` metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardReplay {
    /// Shard index.
    pub shard: usize,
    /// Entries re-indexed into the rebuilt engine.
    pub records_replayed: usize,
    /// Entries quarantined (missing or corrupt).
    pub records_quarantined: usize,
    /// Wall microseconds rebuilding this shard, including injected replay
    /// stalls (which are accounted, not slept).
    pub replay_wall_us: f64,
}

/// What [`Cluster::heal`] accomplished.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealReport {
    /// Shards rebuilt and re-admitted.
    pub healed: Vec<usize>,
    /// Entries re-indexed across all healed shards.
    pub restored: usize,
    /// Entries quarantined across all healed shards.
    pub quarantined: Vec<Quarantine>,
    /// Per-shard replay stats, in heal order.
    pub shards: Vec<ShardReplay>,
    /// What the durable-media replay found (None when no shard needed
    /// healing or the media could not be read).
    pub replay: Option<ReplayStats>,
}

impl Cluster {
    /// Retire an id whose stored bytes are lost or corrupt, preserving the
    /// remains under a `quarantine:` key for offline inspection.
    fn quarantine(&self, id: u64) {
        let key = Self::key(id);
        if let Some(bytes) = self.store.get(&key) {
            self.store.set(&format!("quarantine:{key}"), bytes);
        }
        self.store.del(&key);
        self.unindex(id);
    }

    /// Rebuild one container's engine from the feature store — the reason
    /// the paper keeps serialized feature matrices in Redis: a GPU
    /// container that restarts (re)loads its shard without touching the
    /// original images.
    ///
    /// Entries whose stored bytes are missing or fail to decode are
    /// **skipped and quarantined** (moved under a `quarantine:` key, id
    /// retired) rather than aborting the whole recovery. On success the
    /// shard's breaker is reset to `Healthy`.
    ///
    /// # Errors
    /// Cache errors from re-indexing; `Timeout` if the store stops
    /// answering past the retry budget (shard left untouched).
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn recover_container(&self, shard: usize) -> Result<RecoveryReport, ClusterError> {
        assert!(shard < self.shards.len(), "no such container");
        let mut report = RecoveryReport::default();
        self.shards[shard].rebuild(|engine| {
            // This shard's live textures, in id order so fault-plan
            // consumption stays deterministic.
            for id in self.members_of(shard) {
                // Three-way read: checksum-verified value, missing, or corrupt
                // (verified bytes that fail to decode, or decode to descriptors
                // of the wrong dimension, are corruption too).
                let outcome = match self.store_get(&Self::key(id))? {
                    StoreRead::Value(bytes) => match wire::decode_features(&bytes) {
                        Ok(features) if features.dim() == DESCRIPTOR_DIM => Ok(features),
                        _ => Err(QuarantineReason::Corrupt),
                    },
                    StoreRead::Missing => Err(QuarantineReason::Missing),
                    StoreRead::Corrupt => Err(QuarantineReason::Corrupt),
                };
                match outcome {
                    Ok(features) => {
                        engine.add_reference(id, &features)?;
                        report.restored += 1;
                    }
                    Err(reason) => {
                        self.quarantine(id);
                        report.quarantined.push(Quarantine { id, reason });
                    }
                }
            }
            Ok(())
        })?;
        Ok(report)
    }

    /// Supervisor pass: rebuild every non-`Healthy` shard and re-admit it,
    /// quarantining unrecoverable entries.
    ///
    /// The pass first **replays** the store strictly
    /// from the WAL + snapshot media, so entries whose writes were torn or
    /// lost before fsync vanish and are quarantined as missing — recovery
    /// trusts the media, not the possibly-wrong in-memory map. Per-shard
    /// replay stats land in the report, the `texid_replay_*` metrics, and
    /// (under `ctx`) the trace ring.
    ///
    /// # Errors
    /// Propagates [`Cluster::recover_container`] errors (healing stops at
    /// the first shard that cannot be rebuilt; earlier shards stay healed).
    pub fn heal(&self) -> Result<HealReport, ClusterError> {
        self.heal_traced(None)
    }

    /// [`Cluster::heal`] with span recording under a caller trace context.
    pub fn heal_traced(&self, ctx: Option<&TraceContext>) -> Result<HealReport, ClusterError> {
        let unhealthy: Vec<usize> = self
            .health()
            .iter()
            .filter(|s| s.health != ShardHealth::Healthy)
            .map(|s| s.shard)
            .collect();
        let mut report = HealReport::default();
        if unhealthy.is_empty() {
            return Ok(report);
        }
        self.telemetry.heal_passes.inc();
        let ring = global_ring();
        // Replay the shared durable store once, before any shard rebuild:
        // from here on, reads see only what the media actually kept.
        let mut span = ctx.map(|c| ring.span(c, "store.replay"));
        let replay = self.store.replay();
        if let Some(stats) = &replay {
            span = span.map(|s| {
                s.tag("records", &stats.wal_records_applied.to_string())
                    .tag("corrupt_skipped", &stats.wal_corrupt_skipped.to_string())
                    .tag("torn_tail_bytes", &stats.wal_torn_tail_bytes.to_string())
            });
            self.telemetry.replay_corrupt_records.add(stats.wal_corrupt_skipped as u64);
            self.telemetry.replay_torn_bytes.add(stats.wal_torn_tail_bytes as u64);
        }
        drop(span);
        report.replay = replay;
        for shard in unhealthy {
            // Sequential fault draw: an injected replay stall is accounted
            // into this shard's wall time (simulated, not slept).
            let stall_us = match
                self.fault_plan.as_ref().and_then(|p| p.decide(FaultOp::replay(shard)))
            {
                Some(FaultKind::ReplayStall { us }) => us,
                _ => 0.0,
            };
            let started = Instant::now();
            let span = ctx.map(|c| ring.span(c, "shard.replay"));
            let rec = self.recover_container(shard)?;
            let wall_us = started.elapsed().as_secs_f64() * 1e6 + stall_us;
            drop(span.map(|s| {
                s.tag("shard", &shard.to_string())
                    .tag("restored", &rec.restored.to_string())
                    .tag("quarantined", &rec.quarantined.len().to_string())
            }));
            self.shards[shard].record_replay(rec.restored, rec.quarantined.len(), wall_us);
            report.shards.push(ShardReplay {
                shard,
                records_replayed: rec.restored,
                records_quarantined: rec.quarantined.len(),
                replay_wall_us: wall_us,
            });
            report.restored += rec.restored;
            report.quarantined.extend(rec.quarantined);
            report.healed.push(shard);
        }
        Ok(report)
    }
}
