//! Flight recorder: a bounded, lock-free ring of per-query "wide events".
//!
//! Every cluster search emits exactly one [`WideEvent`] — a single
//! structured record that carries everything an operator needs to triage
//! that query after the fact: trace id, outcome, shard fan-out results,
//! coalescing group size, per-stage sim timings, and retry/degraded
//! flags. The ring keeps the most recent `capacity` events; when writers
//! outpace readers the *oldest* records are overwritten and a dropped
//! counter advances exactly once per lost record, mirroring the span
//! ring in [`crate::trace`].
//!
//! The recorder is deliberately "wide and shallow": one row per query,
//! denormalised, so a `GET /events` tail can be grepped without joining
//! against anything else. This is the classic structured-events
//! complement to metrics (aggregates, no context) and traces (context,
//! but sampled by id).

use std::sync::OnceLock;

use crate::metrics::Counter;
use crate::ring::Ring;
use crate::trace::wall_now_us;
use crate::Stage;

/// Default capacity of the global flight-recorder ring.
pub const DEFAULT_EVENT_RING_CAPACITY: usize = 1024;

/// One per-query wide event. All timings are microseconds; `sim_*` and
/// per-stage fields tick on the simulated device clock, `wall_elapsed_us`
/// on the host wall clock (see OBSERVABILITY.md on the two clocks).
#[derive(Clone, Copy, Debug)]
pub struct WideEvent {
    /// Monotonic sequence number assigned by the ring at record time.
    /// Strictly increasing across the process; gaps indicate drops.
    pub seq: u64,
    /// Trace id of the query (0 when the query was not traced).
    pub trace_id: u128,
    /// Wall-clock timestamp (microseconds since the Unix epoch) when the
    /// search started.
    pub start_us: f64,
    /// Host wall-clock time spent in the cluster search call.
    pub wall_elapsed_us: f64,
    /// Simulated device makespan: the max `total_us` across answering
    /// shards (what the paper's Eq. 3/4 model predicts).
    pub sim_wall_us: f64,
    /// Total descriptor comparisons across answering shards.
    pub comparisons: u64,
    /// Shards that answered.
    pub shards_ok: u32,
    /// Shards that failed (crash, fail-fast, join error).
    pub shards_failed: u32,
    /// Shards skipped by an open circuit breaker.
    pub shards_skipped: u32,
    /// Whether the answer was served degraded (some shards missing).
    pub degraded: bool,
    /// Terminal outcome: `"ok"`, `"degraded"`, or `"failed"`.
    pub outcome: &'static str,
    /// Largest coalesced group size among answering shards (1 = solo).
    pub coalesced: u32,
    /// Device-resident reference batches summed over answering shards.
    pub device_batches: u64,
    /// Host-spilled reference batches summed over answering shards.
    pub host_batches: u64,
    /// IVF cells probed summed over answering shards (0 = exhaustive).
    pub cells_probed: u64,
    /// Reference batches the IVF probe pruned, summed over answering shards.
    pub batches_pruned: u64,
    /// Transient-fault retries absorbed while fanning out this query.
    pub retries: u32,
    /// Summed simulated H2D transfer time across answering shards.
    pub h2d_us: f64,
    /// Summed simulated GEMM time across answering shards.
    pub gemm_us: f64,
    /// Summed simulated top-2 selection time across answering shards.
    pub top2_us: f64,
    /// Summed simulated D2H transfer time across answering shards.
    pub d2h_us: f64,
    /// Summed simulated postprocess (ratio-test vote) time.
    pub post_us: f64,
}

impl WideEvent {
    /// A zeroed event with the wall-clock start stamped now. Callers fill
    /// in the rest as the query progresses, then hand it to
    /// [`EventRing::record`], which assigns `seq`.
    pub fn begin(trace_id: u128) -> Self {
        WideEvent {
            seq: 0,
            trace_id,
            start_us: wall_now_us(),
            wall_elapsed_us: 0.0,
            sim_wall_us: 0.0,
            comparisons: 0,
            shards_ok: 0,
            shards_failed: 0,
            shards_skipped: 0,
            degraded: false,
            outcome: "ok",
            coalesced: 1,
            device_batches: 0,
            host_batches: 0,
            cells_probed: 0,
            batches_pruned: 0,
            retries: 0,
            h2d_us: 0.0,
            gemm_us: 0.0,
            top2_us: 0.0,
            d2h_us: 0.0,
            post_us: 0.0,
        }
    }

    /// The field holding `stage`'s summed µs — the one `Stage` ↔ field
    /// mapping of this record.
    pub fn stage_us_mut(&mut self, stage: Stage) -> &mut f64 {
        match stage {
            Stage::H2d => &mut self.h2d_us,
            Stage::Gemm => &mut self.gemm_us,
            Stage::Top2 => &mut self.top2_us,
            Stage::D2h => &mut self.d2h_us,
            Stage::Post => &mut self.post_us,
        }
    }

    /// `stage`'s summed µs (read through a copy, so the mapping above
    /// stays the only one).
    pub fn stage_us(&self, stage: Stage) -> f64 {
        *{ *self }.stage_us_mut(stage)
    }
}

/// Bounded MPMC ring of wide events: never blocks a writer, evicts
/// oldest-first, and counts every lost record exactly once (the shared
/// `Ring` in `crate::ring`).
pub struct EventRing {
    ring: Ring<WideEvent>,
    /// Records successfully written (dropped-on-overwrite still counted
    /// here first; `recorded - dropped` = live lower bound).
    recorded: Counter,
}

impl EventRing {
    /// A ring holding at most `capacity` events, with unregistered
    /// (free-standing) drop/record counters.
    pub fn new(capacity: usize) -> Self {
        EventRing { ring: Ring::new(capacity, Counter::default()), recorded: Counter::default() }
    }

    /// Same, but drop/record counters registered as
    /// `texid_events_dropped_total` / `texid_events_recorded_total` in
    /// `reg`.
    pub fn with_registry(capacity: usize, reg: &crate::Registry) -> Self {
        let dropped = reg.counter(
            "texid_events_dropped",
            "Wide events lost to flight-recorder ring overwrite or slot contention.",
            &[],
        );
        let recorded = reg.counter(
            "texid_events_recorded",
            "Wide events written to the flight recorder (including ones later dropped).",
            &[],
        );
        EventRing { ring: Ring::new(capacity, dropped), recorded }
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total records lost so far.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Total records written so far.
    pub fn recorded(&self) -> u64 {
        self.recorded.get()
    }

    /// Write one event. Assigns and returns its sequence number. Never
    /// blocks: slot contention with a concurrent writer drops one record
    /// and advances the dropped counter exactly once.
    pub fn record(&self, ev: WideEvent) -> u64 {
        self.recorded.inc();
        self.ring.push(|seq| WideEvent { seq, ..ev })
    }

    /// Snapshot of every resident event, oldest first (sorted by `seq`). A
    /// slot being written is waited for, not skipped; a `WideEvent` is `Copy`,
    /// so that wait is one record's `memcpy` per slot (`Ring::for_each`) and a
    /// stalled writer cannot hang a `/events` reader.
    pub fn snapshot(&self) -> Vec<WideEvent> {
        let mut out = Vec::new();
        self.ring.for_each(|e| out.push(*e));
        out.sort_by_key(|e| e.seq);
        out
    }
}

/// Process-wide flight recorder backing `GET /events`, with its counters
/// registered in [`crate::global()`].
pub fn global_events() -> &'static EventRing {
    static GLOBAL: OnceLock<EventRing> = OnceLock::new();
    GLOBAL.get_or_init(|| EventRing::with_registry(DEFAULT_EVENT_RING_CAPACITY, crate::global()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_sorted_and_seq_gaps_reveal_drops() {
        let ring = EventRing::new(3);
        for _ in 0..5 {
            ring.record(WideEvent::begin(0));
        }
        let seqs: Vec<u64> = ring.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!((ring.recorded(), ring.dropped()), (5, 2));
    }
}
