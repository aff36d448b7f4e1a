//! Scatter-gather search: one [`Leg`] per shard, each planned and run on its
//! own thread, then accounted and merged by [`Cluster::search_traced`].

use super::Cluster;
use crate::faults::{Backoff, FaultKind, FaultOp, Stage};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use texid_core::{EncodedQuery, SearchReport};
use texid_obs::{global_events, global_ring, TraceContext, WideEvent, STAGE_TOTAL};
use texid_sift::descriptor::DESCRIPTOR_DIM;
use texid_sift::FeatureMatrix;

/// One search's cluster-level outcome.
#[derive(Clone, Debug)]
pub struct ClusterSearchResult {
    /// Top results across all shards, best first.
    pub results: Vec<(u64, usize)>,
    /// Per-shard performance reports (successful shards only).
    pub shard_reports: Vec<SearchReport>,
    /// Simulated wall time = slowest shard, µs.
    pub wall_us: f64,
    /// Total reference comparisons performed.
    pub comparisons: usize,
    /// Shards that answered.
    pub shards_ok: usize,
    /// Shards that failed this search (crash, error, retries exhausted).
    pub shards_failed: usize,
    /// Shards skipped because their breaker was open.
    pub shards_skipped: usize,
    /// True when any shard failed or was skipped: results may be partial.
    pub degraded: bool,
    /// Trace id of the span tree this search recorded (`None` when the
    /// search ran untraced). Hex form via
    /// `texid_obs::TraceContext::with_trace_id(id).trace_id_hex()`; the
    /// tree is retrievable from `texid_obs::global_ring()` or
    /// `GET /trace/<id>`.
    pub trace_id: Option<u128>,
}

impl ClusterSearchResult {
    /// Aggregate comparisons per second across the cluster.
    pub fn images_per_second(&self) -> f64 {
        if self.wall_us <= 0.0 {
            return 0.0;
        }
        self.comparisons as f64 / self.wall_us * 1e6
    }
}

/// What an answering search leg returns.
struct LegAnswer {
    /// The shard's ranking, in external ids.
    ranked: Vec<(u64, usize)>,
    /// The report as the shard measured it: `predicted` with any injected
    /// stall / straggle / backoff applied ([`SearchReport::perturbed`]).
    measured: SearchReport,
    /// The unperturbed report — the analytic model's output for the same
    /// query shape. The drift sentry compares the pair.
    predicted: SearchReport,
}

/// How one shard's leg of one search ended.
// One per shard per search, moved once into its `Leg`: the answer stays
// inline rather than costing every leg an allocation.
#[allow(clippy::large_enum_variant)]
enum LegOutcome {
    /// The breaker was open: the shard sat this search out.
    Skipped,
    /// Transient faults outlasted the retry budget: the leg never ran.
    FailedFast,
    /// The leg ran and did not answer (injected crash, engine error).
    Failed,
    /// The leg answered.
    Answered(LegAnswer),
}

/// One shard's leg of one search — the value [`Cluster::search_traced`]'s
/// phases hand along: run, accounted, merged.
struct Leg {
    shard: usize,
    /// Trace context of the leg (`None` in an untraced search).
    ctx: Option<TraceContext>,
    /// Transient-fault retries taken before the leg ran or failed fast.
    retries: u32,
    outcome: LegOutcome,
}

impl Cluster {
    /// Degraded-mode scatter-gather search.
    ///
    /// Shard failures — injected crashes, cache errors, exhausted retries —
    /// are caught per shard and never escape as panics. Shards whose
    /// breaker is open are skipped (or probed half-open after cooldown);
    /// the result carries quorum metadata and `degraded = true` whenever
    /// coverage was partial.
    pub fn search(&self, query: &FeatureMatrix, top_k: usize) -> ClusterSearchResult {
        self.search_traced(query, top_k, None)
    }

    /// [`Cluster::search`] under an optional trace context (the REST edge
    /// passes the request's [`TraceContext`], library callers may pass
    /// their own). When present, the search records a span tree into
    /// [`texid_obs::global_ring`]: a wall-clock `cluster.search` span, one
    /// wall-clock `shard.leg` span per shard (recorded even when the leg
    /// panics, and as a zero-length span for skipped/fail-fast legs, each
    /// tagged with its `outcome`), zero-length `retry` marks — exactly one
    /// per retry attempt, emitted by the same accounting point as the
    /// retry counters — and, for answered legs, **sim-clock** child spans
    /// of the engine stages (`h2d`, `hgemm`, `top2`, `d2h`, `post`) laid
    /// out serially from sim time 0, on per-shard `… (sim)` tracks so the
    /// two clocks never share a timeline.
    pub fn search_traced(
        &self,
        query: &FeatureMatrix,
        top_k: usize,
        parent: Option<&TraceContext>,
    ) -> ClusterSearchResult {
        self.total_searches.fetch_add(1, Ordering::Relaxed);
        self.telemetry.searches.inc();
        let started = Instant::now();
        let trace_id = parent.map(|p| p.trace_id);
        // One wide event per search, traced or not; filled in as the
        // phases complete and recorded into the flight recorder at the end.
        let mut event = WideEvent::begin(trace_id.unwrap_or(0));
        let cluster_ctx = parent.map(|p| p.child());
        let _cluster_span = cluster_ctx.as_ref().map(|c| {
            global_ring()
                .span(c, "cluster.search")
                .tag("track", "cluster")
                .tag("top_k", &top_k.to_string())
        });

        // Narrowed and packed once; every leg's sweep reads the same panels.
        let query = &Arc::new(EncodedQuery::new(&self.cfg.engine, query));
        // Scatter: one thread per shard, each leg planning and running
        // itself; gather every outcome.
        let legs: Vec<Leg> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.shards.len())
                .map(|shard| {
                    let ctx = cluster_ctx.map(|c| c.child());
                    (shard, ctx, scope.spawn(move || self.leg(shard, ctx, query)))
                })
                .collect();
            handles
                .into_iter()
                .map(|(shard, ctx, handle)| {
                    // The run's panics are caught inside the leg; one
                    // anywhere else in it still fails only this leg.
                    let (retries, outcome) = handle.join().unwrap_or((0, LegOutcome::Failed));
                    Leg { shard, ctx, retries, outcome }
                })
                .collect()
        });
        self.account_legs(&legs, trace_id, &mut event);
        self.merge_and_publish(legs, top_k, trace_id, event, started)
    }

    /// Phase 1, on the leg's own thread: breaker admission, the fault
    /// decision (transient retries included), the perturbation and the run.
    /// Returns the retries taken and the outcome. A leg that never runs
    /// records its own zero-length `shard.leg` span, tagged with why; a run
    /// that panics (an injected crash) fails the leg and keeps its retries.
    fn leg(
        &self,
        shard: usize,
        ctx: Option<TraceContext>,
        query: &Arc<EncodedQuery>,
    ) -> (u32, LegOutcome) {
        let owner = &self.shards[shard];
        let not_run = |why: &str| {
            if let Some(c) = &ctx {
                drop(owner.leg_span(c).tag("outcome", why));
            }
        };
        if !owner.admit() {
            not_run("skipped (breaker open)");
            return (0, LegOutcome::Skipped);
        }
        let (fault, retries) = self.decide(FaultOp::search_shard(shard), ctx.map(|c| (c, shard)));
        let (crash, straggle, stage_stall) = match fault {
            Some(FaultKind::Transient) => {
                not_run("failed (retries exhausted)");
                return (retries, LegOutcome::FailedFast);
            }
            Some(FaultKind::ShardCrash) => (true, None, None),
            Some(FaultKind::Straggler { factor }) => (false, Some(factor), None),
            Some(FaultKind::StageStall { stage, factor }) => (false, None, Some((stage, factor))),
            _ => (false, None, None),
        };
        let backoff_us = Backoff::total_us(retries);
        let outcome = match catch_unwind(AssertUnwindSafe(|| owner.run_leg(ctx, crash, query))) {
            // The unperturbed report *is* the analytic Eq. 3/4 prediction
            // for this exact query shape; the drift sentry compares it with
            // the measured copy.
            Ok(Ok(r)) => LegOutcome::Answered(LegAnswer {
                ranked: r.ranked,
                measured: r.report.perturbed(stage_stall, straggle, backoff_us),
                predicted: r.report,
            }),
            _ => LegOutcome::Failed,
        };
        (retries, outcome)
    }

    /// Phase 2: drive the breakers from the outcomes. This is the *single*
    /// per-leg accounting point — breaker transitions (which publish their
    /// gauge), shard failure/skip counters, latency observations, and every
    /// projection of an answered leg's report (drift pairs, exemplars, the
    /// wide event, trace spans) update here, exactly once per leg per
    /// search, so the Prometheus counters cannot drift from the breaker
    /// bookkeeping.
    fn account_legs(&self, legs: &[Leg], trace_id: Option<u128>, event: &mut WideEvent) {
        for leg in legs {
            let shard = &self.shards[leg.shard];
            event.retries += leg.retries;
            match &leg.outcome {
                LegOutcome::Answered(LegAnswer { measured, predicted, .. }) => {
                    shard.record_answer(measured.total_us, trace_id);
                    // Feed the drift sentry the (measured, predicted) pair
                    // per series, and — for traced searches — stamp
                    // exemplars with the measured values so `/metrics`
                    // buckets link to `GET /trace/{id}`.
                    let (m, p) = (measured.sim_series(), predicted.sim_series());
                    self.drift.observe(&std::array::from_fn(|i| (m[i], p[i])));
                    if let Some(tid) = trace_id {
                        for (series, us) in self.telemetry.stage_sim.iter().zip(m) {
                            series.record_exemplar(us, tid);
                        }
                    }
                    event.coalesced = event.coalesced.max(measured.coalesced_queries as u32);
                    event.device_batches += measured.device_batches as u64;
                    event.host_batches += measured.host_batches as u64;
                    event.cells_probed += measured.cells_probed as u64;
                    event.batches_pruned += measured.batches_pruned as u64;
                    for stage in Stage::ALL {
                        *event.stage_us_mut(stage) += measured.stage_us(stage);
                    }
                    if let Some(ctx) = &leg.ctx {
                        trace_sim_stages(ctx, leg.shard, measured);
                    }
                }
                LegOutcome::Skipped => shard.record_skip(),
                LegOutcome::FailedFast | LegOutcome::Failed => shard.record_failure(),
            }
        }
    }

    /// Phase 3: merge the answers and publish the finished search — its
    /// result, the degraded counter, the live paper gauges, the serving
    /// objectives, and the wide event (one per search, always).
    fn merge_and_publish(
        &self,
        legs: Vec<Leg>,
        top_k: usize,
        trace_id: Option<u128>,
        mut event: WideEvent,
        started: Instant,
    ) -> ClusterSearchResult {
        let shards_skipped = legs.iter().filter(|l| matches!(l.outcome, LegOutcome::Skipped)).count();
        // Every shard answers in external ids, and an id has one version on
        // one shard: the merge is a concatenation.
        let mut results = Vec::new();
        let mut shard_reports = Vec::new();
        let shards = legs.len();
        for leg in legs {
            let LegOutcome::Answered(answer) = leg.outcome else { continue };
            results.extend(answer.ranked);
            shard_reports.push(answer.measured);
        }
        results.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        results.truncate(top_k);
        let shards_ok = shard_reports.len();
        let shards_failed = shards - shards_ok - shards_skipped;
        let degraded = shards_failed > 0 || shards_skipped > 0;
        if degraded {
            // Single accounting point: once per degraded search, never per
            // failed leg.
            self.degraded_searches.fetch_add(1, Ordering::Relaxed);
            self.telemetry.degraded.inc();
        }
        let wall_us = shard_reports.iter().map(|r| r.total_us).fold(0.0f64, f64::max);
        let comparisons: usize = shard_reports.iter().map(|r| r.images).sum();

        // Live paper gauges from this search's outcome: Eq. 3 (achieved
        // over theoretical TFLOPS, per GPU) and Eq. 4 (achieved over the
        // PCIe-bound speed, per GPU). The per-GPU speed divides by the
        // shards that actually answered, so a degraded scatter does not
        // read as an efficiency collapse.
        if shards_ok > 0 && wall_us > 0.0 && comparisons > 0 {
            let e = &self.cfg.engine;
            let speed = comparisons as f64 / wall_us * 1e6;
            let per_gpu = speed / shards_ok as f64;
            let (m, n, d) = (e.m_ref, e.n_query, DESCRIPTOR_DIM);
            self.telemetry
                .achieved_tflops
                .set(texid_core::metrics::achieved_tflops(speed, m, n, d));
            self.telemetry.gpu_efficiency.set(texid_core::metrics::gpu_efficiency(
                &e.device,
                per_gpu,
                m,
                n,
                d,
                e.matching.precision,
                e.matching.tensor_core,
            ));
            let bytes_per_image = (m * d * e.matching.precision.bytes()) as u64;
            let pcie =
                texid_gpu::streams::pcie_bound_speed(&e.device, bytes_per_image, e.cache.pinned);
            self.telemetry
                .schedule_efficiency
                .set(texid_gpu::streams::schedule_efficiency(per_gpu, pcie));
        }
        // Serving objectives: a search is available if any shard answered,
        // and its latency is the simulated makespan.
        self.slo.record(wall_us, shards_ok > 0);

        // Seal and file the wide event — one per search, always.
        event.wall_elapsed_us = started.elapsed().as_secs_f64() * 1e6;
        event.sim_wall_us = wall_us;
        event.comparisons = comparisons as u64;
        event.shards_ok = shards_ok as u32;
        event.shards_failed = shards_failed as u32;
        event.shards_skipped = shards_skipped as u32;
        event.degraded = degraded;
        event.outcome = if shards_ok == 0 {
            "failed"
        } else if degraded {
            "degraded"
        } else {
            "ok"
        };
        global_events().record(event);

        ClusterSearchResult {
            results,
            shard_reports,
            wall_us,
            comparisons,
            shards_ok,
            shards_failed,
            shards_skipped,
            degraded,
            trace_id,
        }
    }
}

/// An answered leg's **sim-clock** engine-stage spans, children of its
/// wall-clock `shard.leg` span, laid out serially from sim time 0 on a
/// per-shard `… (sim)` track so the two clocks never share a timeline.
fn trace_sim_stages(ctx: &TraceContext, shard: usize, measured: &SearchReport) {
    let ring = global_ring();
    let track = format!("shard {shard} (sim)");
    let tags = |stage: &str| {
        vec![
            ("shard".to_string(), shard.to_string()),
            ("stage".to_string(), stage.to_string()),
            ("track".to_string(), track.clone()),
        ]
    };
    ring.record_sim(ctx, "device total", 0.0, measured.total_us, tags(STAGE_TOTAL));
    let mut t = 0.0;
    for stage in Stage::ALL {
        let (name, dur) = (stage.span_name(), measured.stage_us(stage));
        ring.record_sim(ctx, name, t, dur, tags(name));
        t += dur;
    }
}
