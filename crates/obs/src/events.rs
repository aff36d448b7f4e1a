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

use crate::metrics::Counter;
use crate::ring::Ring;
use crate::StageUs;

/// Capacity of a cluster's flight-recorder ring.
pub const DEFAULT_EVENT_RING_CAPACITY: usize = 1024;

/// One per-query wide event, filed once the search has finished as a
/// projection of its result. All timings are microseconds; `sim_*` and
/// per-stage fields tick on the simulated device clock, `wall_elapsed_us`
/// on the host wall clock (see OBSERVABILITY.md on the two clocks).
#[derive(Clone, Copy, Debug, Default)]
pub struct WideEvent {
    /// Monotonic sequence number assigned by the ring at record time.
    /// Strictly increasing within its ring (one per cluster); gaps
    /// indicate drops.
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
    /// Simulated µs per stage, summed across answering shards.
    pub stage_us: StageUs,
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
    /// A ring holding at most `capacity` events, its drop/record counters
    /// registered as `texid_events_dropped_total` /
    /// `texid_events_recorded_total` in `reg`.
    pub fn new(capacity: usize, reg: &crate::Registry) -> Self {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_sorted_and_seq_gaps_reveal_drops() {
        let ring = EventRing::new(3, &crate::Registry::new());
        for _ in 0..5 {
            ring.record(WideEvent::default());
        }
        let seqs: Vec<u64> = ring.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!((ring.recorded(), ring.dropped()), (5, 2));
    }
}
