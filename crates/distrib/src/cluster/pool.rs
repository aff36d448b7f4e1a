//! The leg pool: `min(containers, cores)` persistent workers that run the
//! shard legs of every search, and help a `/verify` with its sweep.
//!
//! Legs queue in one FIFO. A worker takes the oldest queued leg and, with
//! it, every other leg then queued for the same shard — up to
//! [`CoalesceConfig::max_batch`] — and runs them as one multi-query
//! sweep ([`Shard::run_group`]): continuous batching formed at dequeue time
//! from real backlog, with no window to wait out. A leg carrying an
//! injected crash is never grouped, so it fails only itself. Workers catch
//! each group's panic and live on; dropping the pool stops and joins them.
//!
//! A help job is the other kind of queued work, and is never grouped with
//! legs: a share of one caller's chunked work ([`LegPool::share_chunks`],
//! the query columns of a verification's sweep). The caller and `workers −
//! 1` help jobs claim chunks from one atomic counter; each chunk runs
//! sequentially on whichever thread claimed it. The caller runs chunks
//! until the counter is spent and then waits only for chunks a helper has
//! claimed: a help job still queued behind legs costs it nothing, and finds
//! the counter spent when a worker reaches it. A chunk whose helper panicked
//! is run again by the caller.
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
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

/// Work a help job does: claim and run chunks until none is left. Never
/// panics.
trait Help: Send + Sync {
    fn help(&self);
}

/// Queued work, oldest first.
enum Job {
    /// A shard leg, with its shard.
    Leg(usize, LegJob),
    /// A help job.
    Help(Arc<dyn Help>),
}

/// The queue behind the pool's mutex.
struct Queue {
    jobs: VecDeque<Job>,
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
    /// `min(shards, available_parallelism)`.
    size: usize,
    /// Started by the first submission.
    workers: OnceLock<Vec<JoinHandle<()>>>,
}

impl LegPool {
    /// A pool of `min(shards, available_parallelism)` workers over
    /// `shards`, sweeping at most `max_batch` legs of one shard together
    /// (`<= 1`: every leg alone).
    pub(super) fn new(shards: &[Arc<Shard>], max_batch: usize) -> LegPool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), submitted: 0, stopping: false }),
            ready: Condvar::new(),
            shards: shards.to_vec(),
            max_batch: max_batch.max(1),
        });
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        LegPool { shared, size: shards.len().min(cores), workers: OnceLock::new() }
    }

    /// Queue `job` for `shard` and wake a worker.
    pub(super) fn submit(&self, shard: usize, job: LegJob) {
        self.push(Job::Leg(shard, job));
    }

    /// Run `run(i)` for every chunk `i < count`, on the calling thread and
    /// on up to `workers − 1` help jobs queued on the pool: the results in
    /// chunk order, and how many chunks a pool worker ran. The answer is
    /// the serial `(0..count).map(run)` whoever ran which chunk.
    pub(super) fn share_chunks<T, F>(&self, count: usize, run: F) -> (Vec<T>, usize)
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let chunks = Arc::new(Chunks::new(count, run));
        for _ in 1..self.size.min(count) {
            self.push(Job::Help(Arc::clone(&chunks) as Arc<dyn Help>));
        }
        chunks.finish()
    }

    /// Queue `job` and wake a worker (starting the workers, the first time).
    fn push(&self, job: Job) {
        self.workers.get_or_init(|| {
            (0..self.size)
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
        if matches!(job, Job::Leg(..)) {
            queue.submitted += 1;
        }
        queue.jobs.push_back(job);
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

/// What a worker took off the queue.
enum Taken {
    /// The oldest queued leg and the legs of its shard queued behind it.
    Group(usize, Vec<LegJob>),
    Help(Arc<dyn Help>),
}

impl Shared {
    /// The queue lock. Nothing panics while holding it, so a poisoned lock
    /// still guards a consistent queue.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker: run groups and help jobs until the pool stops.
    fn work(&self) {
        while let Some(taken) = self.next() {
            match taken {
                Taken::Group(shard, group) => self.run_group(shard, &group),
                Taken::Help(job) => job.help(),
            }
        }
    }

    /// Sweep a group of `shard`'s legs. Every leg gets its own reply, so
    /// each fails or answers alone.
    fn run_group(&self, shard: usize, group: &[LegJob]) {
        match catch_unwind(AssertUnwindSafe(|| self.shards[shard].run_group(group))) {
            Ok(Ok(results)) => {
                for (leg, result) in group.iter().zip(results) {
                    // A search that stopped listening needs no answer.
                    let _ = leg.reply.send((shard, Some(result)));
                }
            }
            _ => {
                for leg in group {
                    let _ = leg.reply.send((shard, None));
                }
            }
        }
    }

    /// Block until work is queued, then take the oldest job: a help job
    /// alone, or a leg together with the legs queued behind it for the same
    /// shard, up to `max_batch`. A leg carrying a crash is taken alone and
    /// never joins another's group. `None` once the pool is stopping.
    fn next(&self) -> Option<Taken> {
        let mut queue = self.lock();
        loop {
            if queue.stopping {
                return None;
            }
            match queue.jobs.pop_front() {
                Some(Job::Help(job)) => return Some(Taken::Help(job)),
                Some(Job::Leg(shard, first)) => {
                    let mut group = vec![first];
                    let mut i = 0;
                    while !group[0].crash && group.len() < self.max_batch && i < queue.jobs.len() {
                        match &queue.jobs[i] {
                            Job::Leg(of, leg) if *of == shard && !leg.crash => {
                                if let Some(Job::Leg(_, leg)) = queue.jobs.remove(i) {
                                    group.push(leg);
                                }
                            }
                            _ => i += 1,
                        }
                    }
                    return Some(Taken::Group(shard, group));
                }
                None => queue = self.ready.wait(queue).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

/// One chunk's result as the caller collects it.
enum Slot<T> {
    /// Not run yet, or being run by whoever claimed it.
    Open,
    /// Run, by a pool worker (`true`) or by the caller.
    Done(T, bool),
    /// Claimed by a helper that panicked running it.
    Abandoned,
}

/// Work cut into `count` chunks: the claim counter, and a slot per chunk.
struct Chunks<T, F> {
    count: usize,
    /// The next chunk to claim. `Relaxed`: it only hands out indices; a
    /// chunk's result is published through `slots`' mutex.
    next: AtomicUsize,
    /// Taken by the caller once every chunk is in, so that what `run`
    /// holds is freed on the caller's thread, not by whichever helper
    /// drops the last handle.
    run: RwLock<Option<F>>,
    slots: Mutex<Vec<Slot<T>>>,
    filled: Condvar,
}

impl<T, F: Fn(usize) -> T> Chunks<T, F> {
    fn new(count: usize, run: F) -> Self {
        let slots = Mutex::new((0..count).map(|_| Slot::Open).collect());
        let run = RwLock::new(Some(run));
        Chunks { count, next: AtomicUsize::new(0), run, slots, filled: Condvar::new() }
    }

    /// Run chunk `i`: only ever a claimed chunk, before the caller takes
    /// `run` away.
    fn run(&self, i: usize) -> T {
        let run = self.run.read().unwrap_or_else(PoisonError::into_inner);
        (run.as_ref().expect("a claimed chunk runs before the caller finishes"))(i)
    }

    /// The next unclaimed chunk, claimed; `None` once the counter is spent.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.count).then_some(i)
    }

    /// Nothing panics while holding the lock.
    fn lock(&self) -> MutexGuard<'_, Vec<Slot<T>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fill(&self, i: usize, slot: Slot<T>) {
        self.lock()[i] = slot;
        self.filled.notify_all();
    }

    /// The caller's part: run chunks until the counter is spent, then
    /// collect every chunk in order — waiting for those a helper is still
    /// running, and running again any whose helper panicked.
    fn finish(&self) -> (Vec<T>, usize) {
        while let Some(i) = self.claim() {
            self.fill(i, Slot::Done(self.run(i), false));
        }
        let mut slots = self.lock();
        let mut out = Vec::with_capacity(self.count);
        let mut helped = 0;
        for i in 0..self.count {
            loop {
                match std::mem::replace(&mut slots[i], Slot::Open) {
                    Slot::Done(value, by_worker) => {
                        out.push(value);
                        helped += usize::from(by_worker);
                        break;
                    }
                    Slot::Abandoned => {
                        drop(slots);
                        out.push(self.run(i));
                        slots = self.lock();
                        break;
                    }
                    Slot::Open => {
                        slots = self.filled.wait(slots).unwrap_or_else(PoisonError::into_inner)
                    }
                }
            }
        }
        drop(slots);
        drop(self.run.write().unwrap_or_else(PoisonError::into_inner).take());
        (out, helped)
    }
}

impl<T: Send, F: Fn(usize) -> T + Send + Sync> Help for Chunks<T, F> {
    /// A helper's part: run chunks until the counter is spent. A panic
    /// abandons the chunk it struck, for the caller to run, and ends the
    /// help.
    fn help(&self) {
        while let Some(i) = self.claim() {
            match catch_unwind(AssertUnwindSafe(|| self.run(i))) {
                Ok(value) => self.fill(i, Slot::Done(value, true)),
                Err(_) => return self.fill(i, Slot::Abandoned),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNT: usize = 8;

    /// A chunk's result names the chunk; `calls` counts every run.
    fn chunks(calls: &Arc<AtomicUsize>) -> Chunks<usize, impl Fn(usize) -> usize + Send + Sync> {
        let calls = Arc::clone(calls);
        Chunks::new(COUNT, move |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if std::thread::current().name() == Some("panicking helper") {
                panic!("a helper panics in chunk {i}");
            }
            i * i
        })
    }

    fn serial() -> Vec<usize> {
        (0..COUNT).map(|i| i * i).collect()
    }

    #[test]
    fn a_helper_that_never_starts_costs_the_caller_nothing() {
        let calls = Arc::new(AtomicUsize::new(0));
        let work = Arc::new(chunks(&calls));
        // The queued job's handle, never run.
        let _queued: Arc<dyn Help> = Arc::clone(&work) as Arc<dyn Help>;
        assert_eq!(work.finish(), (serial(), 0));
        assert_eq!(calls.load(Ordering::Relaxed), COUNT);
    }

    #[test]
    fn a_helper_that_starts_late_finds_the_counter_spent() {
        let calls = Arc::new(AtomicUsize::new(0));
        let work = Arc::new(chunks(&calls));
        assert_eq!(work.finish(), (serial(), 0));
        let late = Arc::clone(&work);
        std::thread::spawn(move || late.help()).join().expect("the late helper returns");
        assert_eq!(calls.load(Ordering::Relaxed), COUNT, "the late helper ran a chunk");
    }

    #[test]
    fn a_chunk_whose_helper_panics_is_run_by_the_caller() {
        let calls = Arc::new(AtomicUsize::new(0));
        let work = Arc::new(chunks(&calls));
        let helper = Arc::clone(&work);
        std::thread::Builder::new()
            .name("panicking helper".to_string())
            .spawn(move || helper.help())
            .expect("spawn")
            .join()
            .expect("help catches the panic");
        // The helper claimed chunk 0 and abandoned it.
        assert_eq!(work.finish(), (serial(), 0));
        assert_eq!(calls.load(Ordering::Relaxed), COUNT + 1);
    }

    #[test]
    fn a_helper_running_beside_the_caller_changes_no_result() {
        for _ in 0..20 {
            let calls = Arc::new(AtomicUsize::new(0));
            let work = Arc::new(chunks(&calls));
            let helper = Arc::clone(&work);
            let handle = std::thread::spawn(move || helper.help());
            let (out, helped) = work.finish();
            handle.join().expect("helper");
            assert_eq!(out, serial());
            assert!(helped <= COUNT);
            assert_eq!(calls.load(Ordering::Relaxed), COUNT);
        }
    }
}
