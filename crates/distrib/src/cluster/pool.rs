//! The leg pool: `min(containers, cores)` persistent workers that run the
//! shard legs of every search.
//!
//! Legs queue in one FIFO. A worker takes the oldest queued leg and, with
//! it, every other leg then queued for the same shard — up to
//! [`CoalesceConfig::max_batch`] — and runs them as one multi-query
//! sweep ([`Shard::run_group`]): continuous batching formed at dequeue time
//! from real backlog, with no window to wait out. A leg carrying an
//! injected crash is never grouped, so it fails only itself. Workers catch
//! each group's panic and live on; dropping the pool stops and joins them.
//!
//! The workers start with the first submitted leg, not with the cluster: a
//! cluster that never searches runs no threads, and the workers' first
//! allocations come after whatever the process did before its first
//! search. (Started with the cluster, they took the allocator arenas that
//! earlier, finished threads had left behind, so enrolment grew fresh ones:
//! the benchmark's `search_ivf_open` read `peak_rss_mb` 214 → 231 in most
//! runs; started lazily, 214 → 214.)
//!
//! [`CoalesceConfig::max_batch`]: texid_core::CoalesceConfig::max_batch

use super::shard::Shard;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;
use texid_core::{EncodedQuery, SearchResult};
use texid_obs::TraceContext;

/// A leg's answer as it comes back to its search: the shard, and its
/// result (`None` when the leg failed — an injected crash, a panic or an
/// engine error).
pub(super) type LegReply = (usize, Option<SearchResult>);

/// A dispatched shard leg, queued for or held by a worker.
pub(super) struct LegJob {
    /// Trace context of the leg (`None` in an untraced search).
    pub(super) ctx: Option<TraceContext>,
    /// The injected crash: the leg panics instead of searching.
    pub(super) crash: bool,
    pub(super) query: Arc<EncodedQuery>,
    /// Where the answer goes.
    pub(super) reply: Sender<LegReply>,
    /// When the leg was submitted; its `queued_us` runs from here.
    pub(super) submitted: Instant,
}

/// The queue behind the pool's mutex.
struct Queue {
    /// Queued legs, oldest first, each with its shard.
    legs: VecDeque<(usize, LegJob)>,
    /// Legs submitted so far.
    submitted: u64,
    stopping: bool,
}

/// What the workers share.
struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
    shards: Vec<Arc<Shard>>,
    max_batch: usize,
}

/// The cluster's leg workers.
pub(super) struct LegPool {
    shared: Arc<Shared>,
    /// Started by the first submission.
    workers: OnceLock<Vec<JoinHandle<()>>>,
}

impl LegPool {
    /// A pool of `min(shards, available_parallelism)` workers over
    /// `shards`, sweeping at most `max_batch` legs of one shard together
    /// (`<= 1`: every leg alone).
    pub(super) fn new(shards: &[Arc<Shard>], max_batch: usize) -> LegPool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { legs: VecDeque::new(), submitted: 0, stopping: false }),
            ready: Condvar::new(),
            shards: shards.to_vec(),
            max_batch: max_batch.max(1),
        });
        LegPool { shared, workers: OnceLock::new() }
    }

    /// Queue `job` for `shard` and wake a worker (starting the workers, the
    /// first time).
    pub(super) fn submit(&self, shard: usize, job: LegJob) {
        self.workers.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
            (0..self.shared.shards.len().min(cores))
                .map(|i| {
                    let shared = Arc::clone(&self.shared);
                    std::thread::Builder::new()
                        .name(format!("texid-leg-{i}"))
                        .spawn(move || shared.work())
                        .expect("start a leg worker")
                })
                .collect()
        });
        let mut queue = self.shared.lock();
        queue.submitted += 1;
        queue.legs.push_back((shard, job));
        drop(queue);
        self.shared.ready.notify_one();
    }

    /// Legs submitted since the pool started.
    #[cfg(test)]
    pub(super) fn submitted(&self) -> u64 {
        self.shared.lock().submitted
    }

    /// A handle that stops upgrading once every worker has exited.
    #[cfg(test)]
    pub(super) fn liveness(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.shared)
    }
}

impl Drop for LegPool {
    fn drop(&mut self) {
        self.shared.lock().stopping = true;
        self.shared.ready.notify_all();
        for worker in self.workers.take().unwrap_or_default() {
            // A worker survives its groups' panics; there is nothing to
            // report if one did not.
            let _ = worker.join();
        }
    }
}

impl Shared {
    /// The queue lock. Nothing panics while holding it, so a poisoned lock
    /// still guards a consistent queue.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker: run groups until the pool stops. Every leg of a group
    /// gets its own reply, so each fails or answers alone.
    fn work(&self) {
        while let Some((shard, group)) = self.next_group() {
            let owner = &self.shards[shard];
            match catch_unwind(AssertUnwindSafe(|| owner.run_group(&group))) {
                Ok(Ok(results)) => {
                    for (leg, result) in group.iter().zip(results) {
                        // A search that stopped listening needs no answer.
                        let _ = leg.reply.send((shard, Some(result)));
                    }
                }
                _ => {
                    for leg in &group {
                        let _ = leg.reply.send((shard, None));
                    }
                }
            }
        }
    }

    /// Block until a leg is queued, then take the oldest queued leg
    /// together with the legs queued behind it for the same shard, up to
    /// `max_batch`. A leg carrying a crash is taken alone and never joins
    /// another's group. `None` once the pool is stopping.
    fn next_group(&self) -> Option<(usize, Vec<LegJob>)> {
        let mut queue = self.lock();
        loop {
            if queue.stopping {
                return None;
            }
            if let Some((shard, first)) = queue.legs.pop_front() {
                let mut group = vec![first];
                let mut i = 0;
                while !group[0].crash && group.len() < self.max_batch && i < queue.legs.len() {
                    let (of, leg) = &queue.legs[i];
                    if *of == shard && !leg.crash {
                        group.extend(queue.legs.remove(i).map(|(_, leg)| leg));
                    } else {
                        i += 1;
                    }
                }
                return Some((shard, group));
            }
            queue = self.ready.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }
}
