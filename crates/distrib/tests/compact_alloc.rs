//! Allocation bound of `KvStore::compact`: the store streams each live
//! value into the new snapshot, so what a compaction allocates at its peak
//! is the snapshot blob, one value in flight, and a few words per key —
//! never a copy of the whole store beside the blob.
//!
//! Its own integration-test binary because a `#[global_allocator]` is
//! process-wide.

#[path = "../../linalg/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measure, CountingAlloc};
use texid_distrib::kv::KvStore;
use texid_store::{DurableLog, LogConfig, SnapshotFault, Volume};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A stored f16 reference at the serving shape: 384 × 128 halves plus
/// its keypoints.
const VALUE_LEN: usize = 111_760;

#[test]
fn compaction_peaks_at_one_snapshot_and_one_value() {
    let kv =
        KvStore::durable(DurableLog::new(Volume::in_memory(), LogConfig { snapshot_every: 0 }));
    let keys = 64;
    for i in 0..keys {
        let value: Vec<u8> = (0..VALUE_LEN).map(|b| (b * 7 + i) as u8).collect();
        kv.set(&format!("tex:{i:020}"), value);
    }
    let per_key = 256;
    for round in 0..2 {
        // Round 0 streams the values out of the WAL, round 1 out of the
        // snapshot the first compaction wrote.
        let (ok, heap) = measure(|| kv.compact(SnapshotFault::Clean));
        assert!(ok);
        let blob = kv.wal_stats().expect("journaled").snapshot_bytes as usize;
        assert!(blob > keys * VALUE_LEN);
        let bound = blob + VALUE_LEN + keys * per_key;
        assert!(heap.peak <= bound, "round {round}: peak {} > {bound} (blob {blob})", heap.peak);
        // The blob is sized once, never grown by doubling.
        assert_eq!(heap.largest, blob, "round {round}");
    }
    for i in 0..keys {
        let value = kv.get(&format!("tex:{i:020}")).expect("compacted, not lost");
        assert!(value.iter().enumerate().all(|(b, &v)| v == (b * 7 + i) as u8));
    }
}
