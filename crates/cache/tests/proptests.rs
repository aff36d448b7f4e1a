//! Property-based tests for the hybrid cache: FIFO discipline, budget
//! enforcement and accounting under arbitrary insert sequences.

use proptest::prelude::*;
use texid_cache::{CacheConfig, HybridCache, Payload, Tier};
use texid_gpu::DeviceSpec;
use texid_obs::Registry;

#[derive(Clone, Copy)]
struct Blob(u64);

impl Payload for Blob {
    fn size_bytes(&self) -> u64 {
        self.0
    }
}

fn small_device(mem_mb: u64) -> DeviceSpec {
    let mut spec = DeviceSpec::tesla_p100();
    spec.mem_bytes = mem_mb << 20;
    spec.context_overhead_bytes = 0;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn budgets_never_exceeded(
        sizes in prop::collection::vec(1u64..(48 << 20), 1..40),
        host_mb in 1u64..512,
        reserve_mb in 0u64..64,
    ) {
        let device = small_device(256);
        let cfg = CacheConfig {
            host_capacity_bytes: host_mb << 20,
            device_reserve_bytes: reserve_mb << 20,
            pinned: true,
        };
        let mut cache = HybridCache::new(cfg, &device, &Registry::new());
        let mut accepted = 0usize;
        for (id, &bytes) in sizes.iter().enumerate() {
            if cache.insert(id as u64, Blob(bytes)).is_ok() {
                accepted += 1;
            }
            // Invariants hold after every operation, success or failure.
            prop_assert!(cache.host_used_bytes() <= cfg.host_capacity_bytes);
            prop_assert!(cache.device_used_bytes() <= device.cache_budget(cfg.device_reserve_bytes));
            prop_assert_eq!(cache.len(), cache.device_len() + cache.host_len());
        }
        prop_assert_eq!(cache.len(), accepted);
    }

    #[test]
    fn fifo_discipline_holds(
        n in 2usize..30,
        blob_mb in 1u64..24,
    ) {
        let mut cache = HybridCache::new(
            CacheConfig { host_capacity_bytes: 1 << 30, device_reserve_bytes: 0, pinned: true },
            &small_device(64),
            &Registry::new(),
        );
        for id in 0..n as u64 {
            cache.insert(id, Blob(blob_mb << 20)).expect("host is large");
        }
        // Search order: device entries (newest k) then host entries (oldest
        // first) — ids must be a rotation of insertion order.
        let order: Vec<(u64, Tier)> = cache.iter().map(|(id, _, t)| (id, t)).collect();
        let host_count = order.iter().filter(|(_, t)| *t == Tier::Host).count();
        let expect: Vec<u64> = (host_count as u64..n as u64).chain(0..host_count as u64).collect();
        let got: Vec<u64> = order.iter().map(|(id, _)| *id).collect();
        prop_assert_eq!(got, expect);
        // Host entries are exactly the oldest ones.
        for (id, tier) in &order {
            let expect_tier = if (*id as usize) < host_count { Tier::Host } else { Tier::Device };
            prop_assert_eq!(*tier, expect_tier, "id {}", id);
        }
    }

    #[test]
    fn tier_lookup_consistent_with_iteration(
        sizes in prop::collection::vec(1u64..(16 << 20), 1..25),
    ) {
        let mut cache = HybridCache::new(
            CacheConfig { host_capacity_bytes: 1 << 30, device_reserve_bytes: 0, pinned: true },
            &small_device(64),
            &Registry::new(),
        );
        for (id, &b) in sizes.iter().enumerate() {
            let _ = cache.insert(id as u64, Blob(b));
        }
        let from_iter: Vec<(u64, Tier)> = cache.iter().map(|(id, _, t)| (id, t)).collect();
        for (id, tier) in from_iter {
            prop_assert_eq!(cache.tier_of(id), Some(tier));
        }
        prop_assert_eq!(cache.tier_of(u64::MAX), None);
    }

    /// In-place deletes: after any interleaving of inserts, shrinks and
    /// removals the two tiers account exactly for the payloads they hold, the
    /// survivors keep their relative order and tier, and removing everything
    /// returns the device and the host to their empty-cache values.
    #[test]
    fn shrink_and_remove_account_for_exactly_what_is_left(
        ops in prop::collection::vec((0u8..3, 0u64..12, 1u64..(24 << 20)), 1..60),
    ) {
        let mut cache: HybridCache<Blob> = HybridCache::new(
            CacheConfig { host_capacity_bytes: 2 << 30, device_reserve_bytes: 0, pinned: true },
            &small_device(64),
            &Registry::new(),
        );
        let mut next = 0u64;
        for &(op, pick, bytes) in &ops {
            let before: Vec<(u64, Tier)> = cache.iter().map(|(id, _, t)| (id, t)).collect();
            let target = before.get(pick as usize % before.len().max(1)).map(|(id, _)| *id);
            match (op, target) {
                (1, Some(id)) => {
                    prop_assert!(cache.edit(id, |b| b.0 = (b.0 / 2).max(1)));
                    let after: Vec<(u64, Tier)> = cache.iter().map(|(id, _, t)| (id, t)).collect();
                    prop_assert_eq!(after, before);
                }
                (2, Some(id)) => {
                    prop_assert!(cache.remove(id).is_some());
                    let after: Vec<(u64, Tier)> = cache.iter().map(|(id, _, t)| (id, t)).collect();
                    let expect: Vec<(u64, Tier)> =
                        before.into_iter().filter(|(b, _)| *b != id).collect();
                    prop_assert_eq!(after, expect);
                }
                _ => {
                    cache.insert(next, Blob(bytes)).expect("host is large");
                    next += 1;
                }
            }
            let held = |tier| -> u64 {
                cache.iter().filter(|(_, _, t)| *t == tier).map(|(_, b, _)| b.0).sum()
            };
            prop_assert_eq!(cache.device_used_bytes(), held(Tier::Device));
            prop_assert_eq!(cache.host_used_bytes(), held(Tier::Host));
        }
        for id in 0..next {
            cache.remove(id);
        }
        prop_assert!(cache.is_empty());
        prop_assert_eq!((cache.device_used_bytes(), cache.host_used_bytes()), (0, 0));
    }
}
