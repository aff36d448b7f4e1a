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
//! feature blocks. Device residency is charged against the [`GpuSim`]
//! memory budget for real, so a search engine cannot oversubscribe the
//! simulated card.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use texid_gpu::{BufferId, GpuSim};
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

struct DeviceEntry<T> {
    id: u64,
    payload: T,
    buffer: BufferId,
}

struct HostEntry<T> {
    id: u64,
    payload: T,
}

/// The two-level FIFO cache.
///
/// ```
/// use texid_cache::{CacheConfig, HybridCache, Payload, Tier};
/// use texid_gpu::{DeviceSpec, GpuSim};
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
/// let mut sim = GpuSim::new(spec);
/// let mut cache = HybridCache::new(CacheConfig {
///     host_capacity_bytes: 64 << 30,
///     device_reserve_bytes: 0,
///     pinned: true,
/// });
/// for id in 0..11u64 {
///     cache.insert(id, Blob(100 << 20), &mut sim).unwrap();
/// }
/// assert_eq!(cache.tier_of(0), Some(Tier::Host));   // oldest swapped out
/// assert_eq!(cache.tier_of(10), Some(Tier::Device)); // newest on device
/// ```
pub struct HybridCache<T: Payload> {
    cfg: CacheConfig,
    device: VecDeque<DeviceEntry<T>>,
    host: VecDeque<HostEntry<T>>,
    host_used: u64,
    stats: StatCells,
    telemetry: Telemetry,
}

impl<T: Payload> HybridCache<T> {
    /// Create an empty cache.
    pub fn new(cfg: CacheConfig) -> HybridCache<T> {
        HybridCache {
            cfg,
            device: VecDeque::new(),
            host: VecDeque::new(),
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
    /// Swap-outs charge a D2H copy on `sim`'s default stream.
    pub fn insert(&mut self, id: u64, payload: T, sim: &mut GpuSim) -> Result<(), CacheError> {
        let bytes = payload.size_bytes();
        let device_budget = sim
            .spec()
            .mem_bytes
            .saturating_sub(sim.spec().context_overhead_bytes)
            .saturating_sub(self.cfg.device_reserve_bytes);
        if bytes > device_budget {
            return Err(CacheError::PayloadTooLarge { requested: bytes, device_budget });
        }

        loop {
            // Keep the engine's reserve free on the device.
            if sim.mem_free() >= bytes + self.cfg.device_reserve_bytes {
                match sim.alloc(bytes) {
                    Ok(buffer) => {
                        self.device.push_back(DeviceEntry { id, payload, buffer });
                        self.stats.inserted.fetch_add(1, Ordering::Relaxed);
                        self.telemetry.inserts.inc();
                        return Ok(());
                    }
                    Err(_) => { /* fall through to swap */ }
                }
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
            sim.free(oldest.buffer);
            let stream = sim.default_stream();
            let rec = sim.d2h(stream, ob);
            let us = f64::from_bits(self.stats.swap_copy_us_bits.load(Ordering::Relaxed))
                + rec.duration_us();
            self.stats.swap_copy_us_bits.store(us.to_bits(), Ordering::Relaxed);
            self.stats.swaps.fetch_add(1, Ordering::Relaxed);
            self.telemetry.evictions.inc();
            self.host_used += ob;
            self.host.push_back(HostEntry { id: oldest.id, payload: oldest.payload });
        }
    }

    /// Drop a batch from whichever tier holds it, giving its device buffer
    /// or host bytes back. The other entries keep their order.
    pub fn remove(&mut self, id: u64, sim: &mut GpuSim) -> Option<T> {
        if let Some(at) = self.device.iter().position(|e| e.id == id) {
            let entry = self.device.remove(at)?;
            sim.free(entry.buffer);
            return Some(entry.payload);
        }
        let at = self.host.iter().position(|e| e.id == id)?;
        let entry = self.host.remove(at)?;
        self.host_used -= entry.payload.size_bytes();
        Some(entry.payload)
    }

    /// Let `edit` shrink a cached payload in place, then account for its new
    /// `size_bytes()` where it sits — same FIFO slot, same tier; on the
    /// device tier the buffer is traded for one of the new size.
    /// Returns `false` (and never calls `edit`) for an unknown id. A payload
    /// that `edit` would leave empty is the caller's to [`Self::remove`].
    pub fn shrink(&mut self, id: u64, sim: &mut GpuSim, edit: impl FnOnce(&mut T)) -> bool {
        if let Some(entry) = self.device.iter_mut().find(|e| e.id == id) {
            edit(&mut entry.payload);
            debug_assert!(
                entry.payload.size_bytes() > 0,
                "an emptied batch is removed, not shrunk"
            );
            sim.free(entry.buffer);
            entry.buffer = sim
                .alloc(entry.payload.size_bytes())
                .expect("a shrunken batch fits in the buffer it just gave back");
            true
        } else if let Some(entry) = self.host.iter_mut().find(|e| e.id == id) {
            let before = entry.payload.size_bytes();
            edit(&mut entry.payload);
            self.host_used = self.host_used - before + entry.payload.size_bytes();
            true
        } else {
            false
        }
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

    /// Host bytes in use.
    pub fn host_used_bytes(&self) -> u64 {
        self.host_used
    }

    /// Statistics so far (a point-in-time snapshot of the atomic cells).
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// Total cache capacity in bytes (device budget + host), given the
    /// simulated card. This is Fig. 1's "capacity" axis denominator.
    pub fn total_capacity_bytes(&self, sim: &GpuSim) -> u64 {
        let device_budget = sim
            .spec()
            .mem_bytes
            .saturating_sub(sim.spec().context_overhead_bytes)
            .saturating_sub(self.cfg.device_reserve_bytes);
        device_budget + self.cfg.host_capacity_bytes
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

    fn small_device_sim() -> GpuSim {
        // Shrink the card so tests exercise swapping quickly.
        let mut spec = DeviceSpec::tesla_p100();
        spec.mem_bytes = 1 << 30; // 1 GiB
        spec.context_overhead_bytes = 0;
        GpuSim::new(spec)
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
        let mut sim = small_device_sim();
        let mut cache = HybridCache::new(cfg(1, 0));
        cache.insert(0, Blob(100 * MB), &mut sim).unwrap();
        cache.insert(1, Blob(100 * MB), &mut sim).unwrap();
        assert_eq!(cache.device_len(), 2);
        assert_eq!(cache.host_len(), 0);
        assert_eq!(cache.tier_of(0), Some(Tier::Device));
        assert_eq!(sim.mem_used(), 200 * MB);
    }

    #[test]
    fn fifo_swap_to_host_when_device_full() {
        let mut sim = small_device_sim(); // 1 GiB device
        let mut cache = HybridCache::new(cfg(1, 0));
        // 11 × 100 MB: the 11th forces the oldest (id 0) to host.
        for id in 0..11u64 {
            cache.insert(id, Blob(100 * MB), &mut sim).unwrap();
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
        let mut sim = small_device_sim();
        // Reserve 512 MB of the 1 GiB: only ~512 MB usable by the cache.
        let mut cache = HybridCache::new(cfg(1, 512));
        for id in 0..6u64 {
            cache.insert(id, Blob(100 * MB), &mut sim).unwrap();
        }
        assert_eq!(cache.device_len(), 5);
        assert_eq!(cache.host_len(), 1);
        assert!(sim.mem_free() >= 512 * MB);
    }

    #[test]
    fn capacity_exhausted_when_host_full() {
        let mut sim = small_device_sim();
        let mut cache = HybridCache::new(CacheConfig {
            host_capacity_bytes: 150 * MB,
            device_reserve_bytes: 0,
            pinned: true,
        });
        for id in 0..10u64 {
            cache.insert(id, Blob(100 * MB), &mut sim).unwrap();
        }
        // Device (10×100 MB) full; host fits one swap; second insert after
        // that must fail.
        cache.insert(10, Blob(100 * MB), &mut sim).unwrap(); // swap id 0
        let err = cache.insert(11, Blob(100 * MB), &mut sim).unwrap_err();
        assert_eq!(err, CacheError::CapacityExhausted { requested: 100 * MB });
        // State stays consistent.
        assert_eq!(cache.len(), 11);
        assert_eq!(cache.host_len(), 1);
    }

    #[test]
    fn oversized_payload_rejected_up_front() {
        let mut sim = small_device_sim();
        let mut cache: HybridCache<Blob> = HybridCache::new(cfg(64, 0));
        let err = cache.insert(0, Blob(2 << 30), &mut sim).unwrap_err();
        assert!(matches!(err, CacheError::PayloadTooLarge { .. }));
    }

    #[test]
    fn search_order_device_then_host_fifo() {
        let mut sim = small_device_sim();
        let mut cache = HybridCache::new(cfg(1, 0));
        for id in 0..12u64 {
            cache.insert(id, Blob(100 * MB), &mut sim).unwrap();
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
        let mut sim = small_device_sim();
        let mut cache = HybridCache::new(cfg(1, 0));
        for id in 0..15u64 {
            cache.insert(id, Blob(100 * MB), &mut sim).unwrap();
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
        let mut sim = small_device_sim();
        let mut cache = HybridCache::new(cfg(1, 0));
        for id in 0..10u64 {
            cache.insert(id, Blob(100 * MB), &mut sim).unwrap();
        }
        // 300 MB needs three swap-outs.
        cache.insert(100, Blob(300 * MB), &mut sim).unwrap();
        assert_eq!(cache.stats().swaps, 3);
        assert_eq!(cache.host_len(), 3);
        assert_eq!(cache.tier_of(100), Some(Tier::Device));
    }

    #[test]
    fn shrink_and_remove_account_in_place_on_both_tiers() {
        let mut sim = small_device_sim();
        let empty = sim.mem_used();
        let mut cache = HybridCache::new(cfg(1, 0));
        for id in 0..12u64 {
            cache.insert(id, Blob(100 * MB), &mut sim).unwrap();
        }
        let order = |c: &HybridCache<Blob>| c.iter().map(|(id, _, t)| (id, t)).collect::<Vec<_>>();
        let before = order(&cache); // device 2..=11, then host 0, 1

        // One on each tier shrinks where it sits: slot and tier stay.
        assert!(cache.shrink(5, &mut sim, |b| b.0 = 40 * MB));
        assert!(cache.shrink(1, &mut sim, |b| b.0 = 30 * MB));
        assert!(!cache.shrink(99, &mut sim, |_| panic!("unknown id must not be edited")));
        assert_eq!(order(&cache), before);
        assert_eq!(sim.mem_used() - empty, 940 * MB);
        assert_eq!(cache.host_used_bytes(), 130 * MB);
        // The room is real: the next insert fits without a swap-out.
        cache.insert(12, Blob(60 * MB), &mut sim).unwrap();
        assert_eq!(cache.stats().swaps, 2);

        assert_eq!(cache.remove(5, &mut sim).map(|b| b.0), Some(40 * MB));
        assert_eq!(cache.remove(0, &mut sim).map(|b| b.0), Some(100 * MB));
        assert!(cache.remove(5, &mut sim).is_none());
        assert_eq!(cache.tier_of(5).or(cache.tier_of(0)), None);
        assert_eq!(sim.mem_used() - empty, 960 * MB);
        assert_eq!(cache.host_used_bytes(), 30 * MB);

        // Removing everything returns both tiers to their empty values.
        for id in 0..13u64 {
            cache.remove(id, &mut sim);
        }
        assert!(cache.is_empty());
        assert_eq!((sim.mem_used(), cache.host_used_bytes()), (empty, 0));
    }

    #[test]
    fn total_capacity_combines_tiers() {
        let sim = small_device_sim();
        let cache: HybridCache<Blob> = HybridCache::new(cfg(4, 0));
        // 1 GiB device + 4 GiB host.
        assert_eq!(cache.total_capacity_bytes(&sim), 5 << 30);
    }

    #[test]
    fn paper_5x_capacity_claim() {
        // §6.1: 16 GB GPU + 64 GB host ⇒ 5× the GPU-only capacity.
        let spec = DeviceSpec::tesla_p100();
        let sim = GpuSim::new(spec);
        let no_reserve = CacheConfig {
            host_capacity_bytes: 64 * (1 << 30),
            device_reserve_bytes: 0,
            pinned: true,
        };
        let cache: HybridCache<Blob> = HybridCache::new(no_reserve);
        let total = cache.total_capacity_bytes(&sim) as f64;
        let gpu_only = (sim.spec().mem_bytes - sim.spec().context_overhead_bytes) as f64;
        let factor = total / gpu_only;
        assert!((factor - 5.0).abs() < 0.15, "hybrid/device capacity = {factor}");
    }
}
