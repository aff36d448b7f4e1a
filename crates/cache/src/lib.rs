//! # texid-cache
//!
//! The paper's **hybrid memory cache** (§6.1, Fig. 5): GPU memory is the
//! first-level cache for reference feature batches, the much larger host
//! memory is the second level. Both levels run FIFO; a new batch is enqueued
//! into GPU memory, and once the device is full the *oldest* device batch is
//! swapped out to host memory. The swap granularity is an entire batch (the
//! batched GEMM operand). Host capacity is a hard limit — the paper sizes it
//! explicitly (64 GB per container) and never spills to disk.
//!
//! The cache is generic over the payload so it does not depend on any
//! particular matrix type; `texid-core` instantiates it with reference
//! feature blocks. Each tier keeps a byte ledger: device residency is
//! held to [`DeviceSpec::cache_budget`], host residency to
//! [`CacheConfig::host_capacity_bytes`], so a search engine cannot
//! oversubscribe the simulated card.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use texid_gpu::{cost, DeviceSpec};
use texid_obs::Counter;

/// Cached telemetry handles (one global family per event; all caches in a
/// process share the series, mirroring how every engine shares one card).
struct Telemetry {
    inserts: Counter,
    evictions: Counter,
    device_hits: Counter,
    host_hits: Counter,
}

impl Telemetry {
    fn register() -> Telemetry {
        let reg = texid_obs::global();
        Telemetry {
            inserts: reg.counter(
                "texid_cache_inserts",
                "Reference batches inserted into the hybrid cache.",
                &[],
            ),
            evictions: reg.counter(
                "texid_cache_evictions",
                "Device-to-host FIFO swap-outs (L1 evictions).",
                &[],
            ),
            device_hits: reg.counter(
                "texid_cache_hits",
                "Batches a search pass swept, by the tier holding them; host hits pay a PCIe transfer.",
                &[("tier", "device")],
            ),
            host_hits: reg.counter(
                "texid_cache_hits",
                "Batches a search pass swept, by the tier holding them; host hits pay a PCIe transfer.",
                &[("tier", "host")],
            ),
        }
    }
}

/// Anything storable in the cache.
pub trait Payload {
    /// Bytes this payload occupies in either tier.
    fn size_bytes(&self) -> u64;
}

/// Which tier an entry currently lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Resident in GPU memory — no PCIe transfer needed at search time.
    Device,
    /// Resident in host memory — must cross PCIe per search (§6.1's
    /// bottleneck, mitigated by streams in §6.2).
    Host,
}

/// Cache behaviour configuration.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Host (second-level) capacity, bytes. The paper reserves 64 GB per
    /// container.
    pub host_capacity_bytes: u64,
    /// Device bytes kept free for the search engine's intermediates
    /// (the paper's §8 reserves 4 GB of the 16 GB card).
    pub device_reserve_bytes: u64,
    /// Whether host entries are in pinned (page-locked) memory.
    pub pinned: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            host_capacity_bytes: 64 * (1 << 30),
            device_reserve_bytes: 4 * (1 << 30),
            pinned: true,
        }
    }
}

/// Why an insert failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// Both tiers are full — the system's capacity is exhausted.
    CapacityExhausted {
        /// Bytes the rejected payload needed.
        requested: u64,
    },
    /// A single payload exceeds even an empty device tier.
    PayloadTooLarge {
        /// Bytes the payload needs.
        requested: u64,
        /// Device bytes usable by the cache.
        device_budget: u64,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::CapacityExhausted { requested } => {
                write!(f, "hybrid cache exhausted ({requested} B requested)")
            }
            CacheError::PayloadTooLarge { requested, device_budget } => {
                write!(f, "payload of {requested} B exceeds device budget {device_budget} B")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Running statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Batches inserted.
    pub inserted: u64,
    /// Device→host swap-outs performed.
    pub swaps: u64,
    /// Device-resident batches search passes swept (no transfer).
    pub device_hits: u64,
    /// Host-resident batches search passes swept (PCIe transfer required).
    pub host_hits: u64,
    /// Simulated µs spent on swap-out D2H copies.
    pub swap_copy_us: f64,
}

/// Interior-mutable statistic cells: the search path is `&self` (many
/// concurrent readers share one cache behind a read lock), so hit counts
/// must be atomics rather than plain fields. `swap_copy_us` stores f64
/// bits; it is only written from `insert` (`&mut self`), so a plain
/// load-add-store is race-free.
#[derive(Default)]
struct StatCells {
    inserted: AtomicU64,
    swaps: AtomicU64,
    device_hits: AtomicU64,
    host_hits: AtomicU64,
    swap_copy_us_bits: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            inserted: self.inserted.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            device_hits: self.device_hits.load(Ordering::Relaxed),
            host_hits: self.host_hits.load(Ordering::Relaxed),
            swap_copy_us: f64::from_bits(self.swap_copy_us_bits.load(Ordering::Relaxed)),
        }
    }
}

struct Entry<T> {
    id: u64,
    payload: T,
}

/// The two-level FIFO cache.
///
/// ```
/// use texid_cache::{CacheConfig, HybridCache, Payload, Tier};
/// use texid_gpu::DeviceSpec;
///
/// struct Blob(u64);
/// impl Payload for Blob {
///     fn size_bytes(&self) -> u64 { self.0 }
/// }
///
/// // A 1 GiB device: eleven 100 MB batches force one swap to host.
/// let mut spec = DeviceSpec::tesla_p100();
/// spec.mem_bytes = 1 << 30;
/// spec.context_overhead_bytes = 0;
/// let mut cache = HybridCache::new(
///     CacheConfig { host_capacity_bytes: 64 << 30, device_reserve_bytes: 0, pinned: true },
///     &spec,
/// );
/// for id in 0..11u64 {
///     cache.insert(id, Blob(100 << 20)).unwrap();
/// }
/// assert_eq!(cache.tier_of(0), Some(Tier::Host));   // oldest swapped out
/// assert_eq!(cache.tier_of(10), Some(Tier::Device)); // newest on device
/// ```
pub struct HybridCache<T: Payload> {
    cfg: CacheConfig,
    spec: DeviceSpec,
    device: VecDeque<Entry<T>>,
    host: VecDeque<Entry<T>>,
    device_used: u64,
    host_used: u64,
    stats: StatCells,
    telemetry: Telemetry,
}

impl<T: Payload> HybridCache<T> {
    /// Create an empty cache in front of the card `spec` describes.
    pub fn new(cfg: CacheConfig, spec: &DeviceSpec) -> HybridCache<T> {
        HybridCache {
            cfg,
            spec: spec.clone(),
            device: VecDeque::new(),
            host: VecDeque::new(),
            device_used: 0,
            host_used: 0,
            stats: StatCells::default(),
            telemetry: Telemetry::register(),
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Insert a new batch: enqueue into device memory, swapping the oldest
    /// device batches to host until the new one fits (§6.1's FIFO).
    ///
    /// Each swap-out is charged the D2H copy of the batch it moves.
    pub fn insert(&mut self, id: u64, payload: T) -> Result<(), CacheError> {
        let bytes = payload.size_bytes();
        let reserve = self.cfg.device_reserve_bytes;
        let device_budget = self.spec.cache_budget(reserve);
        if bytes > device_budget {
            return Err(CacheError::PayloadTooLarge { requested: bytes, device_budget });
        }

        loop {
            // Keep the engine's reserve free on the device.
            if self.spec.cache_budget(0) - self.device_used >= bytes + reserve {
                self.device_used += bytes;
                self.device.push_back(Entry { id, payload });
                self.stats.inserted.fetch_add(1, Ordering::Relaxed);
                self.telemetry.inserts.inc();
                return Ok(());
            }
            // Swap the oldest device batch to host.
            let Some(oldest) = self.device.pop_front() else {
                return Err(CacheError::CapacityExhausted { requested: bytes });
            };
            let ob = oldest.payload.size_bytes();
            if self.host_used + ob > self.cfg.host_capacity_bytes {
                // Host full: put the entry back and give up.
                self.device.push_front(oldest);
                return Err(CacheError::CapacityExhausted { requested: bytes });
            }
            let us = f64::from_bits(self.stats.swap_copy_us_bits.load(Ordering::Relaxed))
                + cost::d2h_duration_us(&self.spec, ob);
            self.stats.swap_copy_us_bits.store(us.to_bits(), Ordering::Relaxed);
            self.stats.swaps.fetch_add(1, Ordering::Relaxed);
            self.telemetry.evictions.inc();
            self.device_used -= ob;
            self.host_used += ob;
            self.host.push_back(oldest);
        }
    }

    /// Drop a batch from whichever tier holds it, giving its bytes back to
    /// that tier. The other entries keep their order.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        if let Some(at) = self.device.iter().position(|e| e.id == id) {
            let entry = self.device.remove(at)?;
            self.device_used -= entry.payload.size_bytes();
            return Some(entry.payload);
        }
        let at = self.host.iter().position(|e| e.id == id)?;
        let entry = self.host.remove(at)?;
        self.host_used -= entry.payload.size_bytes();
        Some(entry.payload)
    }

    /// Let `change` edit a cached payload in place (shrink it, or overwrite
    /// it at the same size), then account for its new `size_bytes()` where
    /// it sits — same FIFO slot, same tier, same ledger. Returns `false`
    /// (and never calls `change`) for an unknown id. A payload that `change`
    /// would leave empty is the caller's to [`Self::remove`].
    pub fn edit(&mut self, id: u64, change: impl FnOnce(&mut T)) -> bool {
        let (entry, used) = if let Some(e) = self.device.iter_mut().find(|e| e.id == id) {
            (e, &mut self.device_used)
        } else if let Some(e) = self.host.iter_mut().find(|e| e.id == id) {
            (e, &mut self.host_used)
        } else {
            return false;
        };
        let before = entry.payload.size_bytes();
        change(&mut entry.payload);
        let after = entry.payload.size_bytes();
        debug_assert!(after > 0, "an emptied batch is removed, not edited");
        debug_assert!(after <= before, "an edit shrinks or overwrites a batch, never grows it");
        *used = *used - before + after;
        true
    }

    /// Every cached batch in search order (device-resident first — they
    /// need no PCIe transfer — then host-resident, each FIFO). A search
    /// pairs it with [`Self::note_hit`].
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T, Tier)> {
        let dev = self.device.iter().map(|e| (e.id, &e.payload, Tier::Device));
        let host = self.host.iter().map(|e| (e.id, &e.payload, Tier::Host));
        dev.chain(host)
    }

    /// Count one search-time hit on `tier`. A search pass calls this per
    /// batch that at least one of its queries sweeps: a host hit is a batch
    /// that crossed PCIe, which one the IVF probe pruned did not.
    ///
    /// Takes `&self`: the hit counters are atomic cells, so any number of
    /// concurrent searches may traverse the cache behind a shared read
    /// lock while inserts hold the write lock.
    pub fn note_hit(&self, tier: Tier) {
        let (cell, counter) = match tier {
            Tier::Device => (&self.stats.device_hits, &self.telemetry.device_hits),
            Tier::Host => (&self.stats.host_hits, &self.telemetry.host_hits),
        };
        cell.fetch_add(1, Ordering::Relaxed);
        counter.inc();
    }

    /// Locate a batch by id.
    pub fn tier_of(&self, id: u64) -> Option<Tier> {
        if self.device.iter().any(|e| e.id == id) {
            return Some(Tier::Device);
        }
        if self.host.iter().any(|e| e.id == id) {
            return Some(Tier::Host);
        }
        None
    }

    /// Number of cached batches (both tiers).
    pub fn len(&self) -> usize {
        self.device.len() + self.host.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Batches resident on the device.
    pub fn device_len(&self) -> usize {
        self.device.len()
    }

    /// Batches resident on the host.
    pub fn host_len(&self) -> usize {
        self.host.len()
    }

    /// Device bytes in use (the context overhead and the reserve are not
    /// the cache's, so an empty cache reads 0).
    pub fn device_used_bytes(&self) -> u64 {
        self.device_used
    }

    /// Host bytes in use.
    pub fn host_used_bytes(&self) -> u64 {
        self.host_used
    }

    /// Statistics so far (a point-in-time snapshot of the atomic cells).
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use texid_gpu::DeviceSpec;

    #[derive(Clone)]
    struct Blob(u64);

    impl Payload for Blob {
        fn size_bytes(&self) -> u64 {
            self.0
        }
    }

    fn small_device() -> DeviceSpec {
        // Shrink the card so tests exercise swapping quickly.
        let mut spec = DeviceSpec::tesla_p100();
        spec.mem_bytes = 1 << 30; // 1 GiB
        spec.context_overhead_bytes = 0;
        spec
    }

    fn cfg(host_gb: u64, reserve_mb: u64) -> CacheConfig {
        CacheConfig {
            host_capacity_bytes: host_gb << 30,
            device_reserve_bytes: reserve_mb << 20,
            pinned: true,
        }
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn inserts_go_to_device_first() {
        let mut cache = HybridCache::new(cfg(1, 0), &small_device());
        cache.insert(0, Blob(100 * MB)).unwrap();
        cache.insert(1, Blob(100 * MB)).unwrap();
        assert_eq!(cache.device_len(), 2);
        assert_eq!(cache.host_len(), 0);
        assert_eq!(cache.tier_of(0), Some(Tier::Device));
        assert_eq!(cache.device_used_bytes(), 200 * MB);
    }

    #[test]
    fn fifo_swap_to_host_when_device_full() {
        let mut cache = HybridCache::new(cfg(1, 0), &small_device());
        // 11 × 100 MB: the 11th forces the oldest (id 0) to host.
        for id in 0..11u64 {
            cache.insert(id, Blob(100 * MB)).unwrap();
        }
        assert_eq!(cache.device_len(), 10);
        assert_eq!(cache.host_len(), 1);
        assert_eq!(cache.tier_of(0), Some(Tier::Host), "oldest must swap first");
        assert_eq!(cache.tier_of(10), Some(Tier::Device));
        assert_eq!(cache.stats().swaps, 1);
        assert!(cache.stats().swap_copy_us > 0.0);
    }

    #[test]
    fn device_reserve_respected() {
        // Reserve 512 MB of the 1 GiB: only ~512 MB usable by the cache.
        let mut cache = HybridCache::new(cfg(1, 512), &small_device());
        for id in 0..6u64 {
            cache.insert(id, Blob(100 * MB)).unwrap();
        }
        assert_eq!(cache.device_len(), 5);
        assert_eq!(cache.host_len(), 1);
        assert!(small_device().mem_bytes - cache.device_used_bytes() >= 512 * MB);
    }

    #[test]
    fn capacity_exhausted_when_host_full() {
        let mut cache = HybridCache::new(
            CacheConfig { host_capacity_bytes: 150 * MB, device_reserve_bytes: 0, pinned: true },
            &small_device(),
        );
        for id in 0..10u64 {
            cache.insert(id, Blob(100 * MB)).unwrap();
        }
        // Device (10×100 MB) full; host fits one swap; second insert after
        // that must fail.
        cache.insert(10, Blob(100 * MB)).unwrap(); // swap id 0
        let (device, host) = (cache.device_used_bytes(), cache.host_used_bytes());
        let err = cache.insert(11, Blob(100 * MB)).unwrap_err();
        assert_eq!(err, CacheError::CapacityExhausted { requested: 100 * MB });
        // State stays consistent: the refusal moved no bytes on either ledger.
        assert_eq!(cache.len(), 11);
        assert_eq!(cache.host_len(), 1);
        assert_eq!((cache.device_used_bytes(), cache.host_used_bytes()), (device, host));
    }

    #[test]
    fn oversized_payload_rejected_up_front() {
        let mut cache: HybridCache<Blob> = HybridCache::new(cfg(64, 0), &small_device());
        let err = cache.insert(0, Blob(2 << 30)).unwrap_err();
        assert!(matches!(err, CacheError::PayloadTooLarge { .. }));
    }

    #[test]
    fn search_order_device_then_host_fifo() {
        let mut cache = HybridCache::new(cfg(1, 0), &small_device());
        for id in 0..12u64 {
            cache.insert(id, Blob(100 * MB)).unwrap();
        }
        // ids 0,1 swapped to host; device holds 2..=11.
        let order: Vec<(u64, Tier)> = cache.iter().map(|(id, _, t)| (id, t)).collect();
        let expect: Vec<(u64, Tier)> = (2..12)
            .map(|i| (i, Tier::Device))
            .chain([(0, Tier::Host), (1, Tier::Host)])
            .collect();
        assert_eq!(order, expect);
        // Hits are counted by the sweeper, one per batch it sweeps; the
        // traversal alone counts nothing.
        assert_eq!((cache.stats().device_hits, cache.stats().host_hits), (0, 0));
        for (_, tier) in &order {
            cache.note_hit(*tier);
        }
        let s = cache.stats();
        assert_eq!(s.device_hits, 10);
        assert_eq!(s.host_hits, 2);
    }

    #[test]
    fn multiple_swaps_preserve_fifo_order_on_host() {
        let mut cache = HybridCache::new(cfg(1, 0), &small_device());
        for id in 0..15u64 {
            cache.insert(id, Blob(100 * MB)).unwrap();
        }
        let host_ids: Vec<u64> = cache
            .iter()
            .filter(|(_, _, t)| *t == Tier::Host)
            .map(|(id, _, _)| id)
            .collect();
        assert_eq!(host_ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn big_payload_evicts_several_small_ones() {
        let mut cache = HybridCache::new(cfg(1, 0), &small_device());
        for id in 0..10u64 {
            cache.insert(id, Blob(100 * MB)).unwrap();
        }
        // 300 MB needs three swap-outs.
        cache.insert(100, Blob(300 * MB)).unwrap();
        assert_eq!(cache.stats().swaps, 3);
        assert_eq!(cache.host_len(), 3);
        assert_eq!(cache.tier_of(100), Some(Tier::Device));
    }

    #[test]
    fn shrink_and_remove_account_in_place_on_both_tiers() {
        let mut cache = HybridCache::new(cfg(1, 0), &small_device());
        for id in 0..12u64 {
            cache.insert(id, Blob(100 * MB)).unwrap();
        }
        let order = |c: &HybridCache<Blob>| c.iter().map(|(id, _, t)| (id, t)).collect::<Vec<_>>();
        let before = order(&cache); // device 2..=11, then host 0, 1

        // One on each tier shrinks where it sits: slot and tier stay.
        assert!(cache.edit(5, |b| b.0 = 40 * MB));
        assert!(cache.edit(1, |b| b.0 = 30 * MB));
        assert!(!cache.edit(99, |_| panic!("unknown id must not be edited")));
        assert_eq!(order(&cache), before);
        assert_eq!(cache.device_used_bytes(), 940 * MB);
        assert_eq!(cache.host_used_bytes(), 130 * MB);
        // The room is real: the next insert fits without a swap-out.
        cache.insert(12, Blob(60 * MB)).unwrap();
        assert_eq!(cache.stats().swaps, 2);

        assert_eq!(cache.remove(5).map(|b| b.0), Some(40 * MB));
        assert_eq!(cache.remove(0).map(|b| b.0), Some(100 * MB));
        assert!(cache.remove(5).is_none());
        assert_eq!(cache.tier_of(5).or(cache.tier_of(0)), None);
        assert_eq!(cache.device_used_bytes(), 960 * MB);
        assert_eq!(cache.host_used_bytes(), 30 * MB);

        // Removing everything returns both tiers to their empty values.
        for id in 0..13u64 {
            cache.remove(id);
        }
        assert!(cache.is_empty());
        assert_eq!((cache.device_used_bytes(), cache.host_used_bytes()), (0, 0));
    }

    #[test]
    fn device_ledger_fills_to_the_exact_budget() {
        // A card with a context overhead and an engine reserve: a payload
        // of exactly the budget lands on the device; one byte more never
        // fits, however much host room there is.
        let mut spec = DeviceSpec::tesla_p100();
        spec.mem_bytes = 1 << 30;
        spec.context_overhead_bytes = 100 * MB;
        let reserve = 200 * MB;
        let budget = spec.cache_budget(reserve);
        assert_eq!(budget, 724 * MB);
        let config =
            CacheConfig { host_capacity_bytes: 64 << 30, device_reserve_bytes: reserve, pinned: true };

        let mut cache = HybridCache::new(config, &spec);
        cache.insert(0, Blob(budget)).unwrap();
        assert_eq!((cache.tier_of(0), cache.stats().swaps), (Some(Tier::Device), 0));
        assert_eq!(cache.device_used_bytes(), budget);

        let mut cache = HybridCache::new(config, &spec);
        let err = cache.insert(0, Blob(budget + 1)).unwrap_err();
        assert_eq!(err, CacheError::PayloadTooLarge { requested: budget + 1, device_budget: budget });
        assert!(cache.is_empty());
    }
}
