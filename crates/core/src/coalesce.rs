//! Windowed query coalescing, which the serving path does not run (a
//! cluster's leg pool groups each shard's queued legs at dequeue time, with
//! no window). The socket benchmark's layer ledger times it
//! (`coalesce.solo_overhead_us`, a lone query through the leader).
//!
//! Concurrent searches hitting the same engine within a bounded window are
//! merged into one multi-query sweep ([`Engine::search_encoded`]): the cache
//! is traversed once and each host-resident reference batch crosses PCIe
//! once for all Q in-flight queries, instead of once per query. This is
//! the query-side symmetric of §5.2's reference batching — the paper
//! raises arithmetic intensity on the reference operand, the coalescer
//! amortizes the PCIe transfer over the query operand — and the same shape
//! modern inference servers use for continuous batching.
//!
//! Protocol: the first arriving search becomes the **leader** — it opens a
//! collecting group, holds it open for [`CoalesceConfig::window`] (or
//! until [`CoalesceConfig::max_batch`] queries joined), then runs the
//! merged sweep under a shared read lock and demuxes results to the
//! **followers** that joined the group. Followers block until their slot
//! is filled. While a leader executes, the next arrival opens a fresh
//! group, so serving never stalls behind an in-flight sweep.
//!
//! Determinism: grouping changes only the *cost accounting*
//! (`SearchReport::h2d_us` carries a `1/Q` share; `coalesced_queries`
//! records Q). Ranked results are computed per query against the same
//! cache snapshot and are identical to an uncoalesced search.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use texid_obs::Histogram;
use texid_sift::FeatureMatrix;

use crate::engine::{EncodedQuery, Engine, SearchResult};

/// Coalescing policy.
#[derive(Clone, Copy, Debug)]
pub struct CoalesceConfig {
    /// Queries per merged sweep, at most. `<= 1` is the one way to say "no
    /// coalescing": every search sweeps alone.
    pub max_batch: usize,
    /// How long a leader holds the group open for followers to join.
    pub window: Duration,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            max_batch: 16,
            // Short enough to be invisible next to a multi-batch sweep
            // (hundreds of µs to ms), long enough for a burst of
            // concurrent clients to pile in.
            window: Duration::from_micros(250),
        }
    }
}

/// `texid_coalesced_batch_size` in `registry`: one observation per sweep,
/// of the queries it merged (1 = uncoalesced).
pub fn group_size_histogram(registry: &texid_obs::Registry) -> Histogram {
    registry.histogram_with_bounds(
        "texid_coalesced_batch_size",
        "Queries merged into one coalesced cache sweep (1 = uncoalesced).",
        &[],
        &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
    )
}

/// Shared state behind the coalescer's mutex.
struct Inner {
    /// Monotonic group id; each collecting group gets the next one.
    epoch: u64,
    /// Queries collected for the currently-open group: shared handles, a
    /// member costs the group one reference count.
    queries: Vec<Arc<EncodedQuery>>,
    /// A leader currently holds a group open. Invariant: `collecting`
    /// false ⟺ `queries` empty.
    collecting: bool,
    /// Finished groups awaiting pickup: epoch → per-query result slots.
    done: HashMap<u64, Vec<Option<SearchResult>>>,
}

/// The per-engine query coalescer (leader/follower, bounded window).
pub struct Coalescer {
    cfg: CoalesceConfig,
    inner: Mutex<Inner>,
    cv: Condvar,
    batch_size: Histogram,
}

impl Coalescer {
    /// Build a coalescer whose `texid_coalesced_batch_size` histogram
    /// registers in a registry of its own, which nothing renders.
    pub fn new(cfg: CoalesceConfig) -> Coalescer {
        Coalescer::with_registry(cfg, &texid_obs::Registry::new())
    }

    /// [`Coalescer::new`] registering its histogram in `registry`.
    pub fn with_registry(cfg: CoalesceConfig, registry: &texid_obs::Registry) -> Coalescer {
        Coalescer {
            cfg,
            inner: Mutex::new(Inner {
                epoch: 0,
                queries: Vec::new(),
                collecting: false,
                done: HashMap::new(),
            }),
            cv: Condvar::new(),
            batch_size: group_size_histogram(registry),
        }
    }

    /// Search through the coalescer: encode `query` for the engine's
    /// configuration, then join an open group if one is collecting,
    /// otherwise lead a new one. Blocks until this query's result is
    /// available (bounded by the window plus one sweep).
    pub fn search(&self, engine: &RwLock<Engine>, query: &FeatureMatrix) -> SearchResult {
        let query = Arc::new(EncodedQuery::new(engine.read().config(), query));
        if self.cfg.max_batch <= 1 {
            let r = engine.read().search_encoded(&[&query]).pop().expect("one query, one result");
            self.batch_size.observe(1.0);
            return r;
        }

        let mut inner = self.inner.lock().expect("coalescer lock");
        loop {
            if !inner.collecting {
                break; // become the leader of a fresh group
            }
            if inner.queries.len() < self.cfg.max_batch {
                // Follower: join the open group and wait for our slot.
                let epoch = inner.epoch;
                let idx = inner.queries.len();
                inner.queries.push(query.clone());
                if inner.queries.len() >= self.cfg.max_batch {
                    // Group is full — wake the leader before its window ends.
                    self.cv.notify_all();
                }
                loop {
                    inner = self.cv.wait(inner).expect("coalescer wait");
                    if let Some(slots) = inner.done.get_mut(&epoch) {
                        if let Some(result) = slots[idx].take() {
                            if slots.iter().all(Option::is_none) {
                                inner.done.remove(&epoch);
                            }
                            return result;
                        }
                    }
                }
            }
            // Group full but its leader has not collected it yet: wait for
            // the next group to open.
            inner = self.cv.wait(inner).expect("coalescer wait");
        }

        // Leader: open a group, hold the window, then sweep and demux.
        inner.epoch += 1;
        let epoch = inner.epoch;
        inner.collecting = true;
        debug_assert!(inner.queries.is_empty());
        inner.queries.push(query.clone());
        let deadline = Instant::now() + self.cfg.window;
        while inner.queries.len() < self.cfg.max_batch {
            let now = Instant::now();
            let Some(left) = deadline.checked_duration_since(now).filter(|d| !d.is_zero()) else {
                break;
            };
            let (guard, _) = self.cv.wait_timeout(inner, left).expect("coalescer wait");
            inner = guard;
        }
        inner.collecting = false;
        let queries = std::mem::take(&mut inner.queries);
        drop(inner);

        self.batch_size.observe(queries.len() as f64);
        let refs: Vec<&EncodedQuery> = queries.iter().map(Arc::as_ref).collect();
        let results = engine.read().search_encoded(&refs);
        debug_assert_eq!(results.len(), refs.len());

        let mut inner = self.inner.lock().expect("coalescer lock");
        let mut slots: Vec<Option<SearchResult>> = results.into_iter().map(Some).collect();
        let mine = slots[0].take().expect("leader owns slot 0");
        if slots.iter().any(Option::is_some) {
            inner.done.insert(epoch, slots);
        }
        drop(inner);
        self.cv.notify_all();
        mine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use std::sync::Barrier;
    use texid_cache::CacheConfig;
    use texid_gpu::DeviceSpec;
    use texid_knn::pair::MatchConfig;
    use texid_linalg::Mat;
    use texid_obs::Stage;

    /// Phantom engine whose device holds a single reference batch:
    /// three of the four batches are host-resident, so H2D dominates and
    /// amortization is visible in the reports.
    fn cramped_engine() -> Engine {
        let device = DeviceSpec::tesla_p100();
        let matching = MatchConfig::default();
        let batch_bytes = (64 * 384 * 128 * matching.precision.bytes()) as u64;
        let budget = device.cache_budget(0);
        let mut engine = Engine::new(EngineConfig {
            device,
            matching,
            m_ref: 384,
            n_query: 256,
            batch_size: 64,
            streams: 1,
            cache: CacheConfig {
                device_reserve_bytes: budget.saturating_sub(batch_bytes + batch_bytes / 2),
                ..CacheConfig::default()
            },
        });
        for id in 0..256u64 {
            engine.add_reference_shape(id).unwrap();
        }
        engine.flush().unwrap();
        engine
    }

    fn query(seed: u64) -> FeatureMatrix {
        let mut state = seed | 1;
        let mat = Mat::from_fn(128, 256, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) & 0xffff) as f32 / 65535.0 * 0.1
        });
        FeatureMatrix::from_mat(mat, true)
    }

    #[test]
    fn coalesced_queries_charge_each_host_batch_h2d_once() {
        let engine = cramped_engine();
        let queries: Vec<FeatureMatrix> = (0..4).map(|i| query(0xc0a1 + i)).collect();
        let refs: Vec<&FeatureMatrix> = queries.iter().collect();

        let solo = engine.search(&queries[0]);
        assert!(solo.report.host_batches > 0, "shard must have host-resident batches");
        let merged = engine.search_many(&refs);

        // Each of the Q reports carries a 1/Q share; their sum recovers
        // exactly one full H2D pass over the host-resident batches — not Q.
        let share_sum: f64 = merged.iter().map(|r| r.report.stage_us[Stage::H2d]).sum();
        let full = solo.report.stage_us[Stage::H2d];
        assert!(
            (share_sum - full).abs() <= full * 1e-12,
            "H2D shares must sum to one copy: {share_sum} vs {full}"
        );
        for r in &merged {
            assert_eq!(r.report.coalesced_queries, 4);
            assert!(
                (r.report.stage_us[Stage::H2d] - full / 4.0).abs() <= full * 1e-12,
                "each query gets an equal 1/Q share"
            );
            // Kernel work is NOT amortized — every query still pays its own
            // GEMM/scan/D2H/post against every batch.
            assert_eq!(r.report.stage_us[Stage::Gemm].to_bits(), solo.report.stage_us[Stage::Gemm].to_bits());
            assert_eq!(r.report.stage_us[Stage::Top2].to_bits(), solo.report.stage_us[Stage::Top2].to_bits());
        }
    }

    #[test]
    fn coalescer_groups_concurrent_searches() {
        let engine = RwLock::new(cramped_engine());
        let registry = texid_obs::Registry::new();
        let coalescer = Coalescer::with_registry(
            CoalesceConfig { max_batch: 4, window: Duration::from_millis(500) },
            &registry,
        );
        let solo_h2d = engine.read().search(&query(1)).report.stage_us[Stage::H2d];

        // Four threads released together: one group of exactly 4 forms and
        // together they pay the H2D bill once.
        let barrier = Barrier::new(4);
        let engine_ref = &engine;
        let coalescer_ref = &coalescer;
        let barrier_ref = &barrier;
        let reports: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|i| {
                    s.spawn(move || {
                        let q = query(0xbeef + i);
                        barrier_ref.wait();
                        coalescer_ref.search(engine_ref, &q).report
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client")).collect()
        });

        assert!(reports.iter().all(|r| r.coalesced_queries == 4), "group of 4 must form");
        let share_sum: f64 = reports.iter().map(|r| r.stage_us[Stage::H2d]).sum();
        assert!(
            (share_sum - solo_h2d).abs() <= solo_h2d * 1e-12,
            "grouped searches must pay one H2D pass total: {share_sum} vs {solo_h2d}"
        );
    }

    #[test]
    fn disabled_coalescer_searches_alone() {
        let engine = RwLock::new(cramped_engine());
        let registry = texid_obs::Registry::new();
        let coalescer = Coalescer::with_registry(
            CoalesceConfig { max_batch: 1, ..CoalesceConfig::default() },
            &registry,
        );
        let direct = engine.read().search(&query(9));
        let via = coalescer.search(&engine, &query(9));
        assert_eq!(via.report.coalesced_queries, 1);
        assert_eq!(via.report.stage_us[Stage::H2d].to_bits(), direct.report.stage_us[Stage::H2d].to_bits());
        assert_eq!(via.report.total_us.to_bits(), direct.report.total_us.to_bits());
    }
}
