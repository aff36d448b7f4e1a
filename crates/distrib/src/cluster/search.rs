//! Scatter-gather search: one [`Leg`] per shard handed through the four
//! phases of [`Cluster::search_traced`] — planned, run, accounted, merged.

use super::Cluster;
use crate::faults::{Backoff, FaultKind, FaultOp, Stage};
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

/// Per-shard dispatch decision for one search, fixed *before* the scatter
/// so fault decisions are drawn sequentially (determinism contract).
#[derive(Clone, Copy)]
enum LegPlan {
    /// Breaker open: shard sits this search out.
    Skip,
    /// Dispatch, with any pre-drawn injected behavior.
    Run {
        crash: bool,
        straggle: Option<f64>,
        stage_stall: Option<(Stage, f64)>,
        backoff_us: f64,
    },
    /// Transient-fault retries already exhausted: fail without dispatching.
    FailFast,
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

/// One shard's leg of one search — the value the phases of
/// [`Cluster::search_traced`] hand along: planned, run, accounted, merged.
struct Leg {
    shard: usize,
    plan: LegPlan,
    /// Trace context of the leg (`None` in an untraced search).
    ctx: Option<TraceContext>,
    /// `None` until the leg answers: a leg planned `Skip` never will, any
    /// other leg left without an answer failed.
    answer: Option<LegAnswer>,
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

        let mut legs = self.plan_legs(cluster_ctx.as_ref(), &mut event);
        // Narrowed and packed once; every leg's sweep reads the same panels.
        let query = &Arc::new(EncodedQuery::new(&self.cfg.engine, query));
        // Scatter to the dispatched legs, one thread each; gather catching
        // all failures — an engine error and a panicked leg alike leave
        // the leg without an answer.
        std::thread::scope(|scope| {
            let handles: Vec<_> = legs
                .iter()
                .map(|leg| {
                    let LegPlan::Run { crash, straggle, stage_stall, backoff_us } = leg.plan else {
                        return None;
                    };
                    let (shard, ctx) = (&self.shards[leg.shard], leg.ctx);
                    Some(scope.spawn(move || {
                        // The unperturbed report *is* the analytic Eq. 3/4
                        // prediction for this exact query shape; the drift
                        // sentry compares it with the measured copy.
                        shard.run_leg(ctx, crash, query).map(|r| LegAnswer {
                            ranked: r.ranked,
                            measured: r.report.perturbed(stage_stall, straggle, backoff_us),
                            predicted: r.report,
                        })
                    }))
                })
                .collect();
            for (leg, handle) in legs.iter_mut().zip(handles) {
                leg.answer = handle.and_then(|h| h.join().ok()?.ok());
            }
        });
        self.account_legs(&legs, trace_id, &mut event);
        self.merge_and_publish(legs, top_k, trace_id, event, started)
    }

    /// Phase 1 (sequential, deterministic): breaker gating and fault
    /// decisions, fixed per shard before any thread is spawned. Leg
    /// contexts are minted here, before any fault decision, so retry marks
    /// drawn while planning already parent to the right leg.
    fn plan_legs(&self, cluster_ctx: Option<&TraceContext>, event: &mut WideEvent) -> Vec<Leg> {
        let backoff: Backoff = self.cfg.resilience.backoff;
        let _one_planner = self.planning.lock();
        let mut legs = Vec::with_capacity(self.shards.len());
        for (shard, owner) in self.shards.iter().enumerate() {
            let ctx = cluster_ctx.map(|c| c.child());
            let mut plan = LegPlan::Skip;
            if owner.admit() {
                // Draw until the plan yields something other than a
                // transient fault still inside the retry budget.
                let op = FaultOp::search_shard(shard);
                let mut retries = 0u32;
                let fault = loop {
                    let fault = self.fault_plan.as_ref().and_then(|fp| fp.decide(op));
                    if fault != Some(FaultKind::Transient) || retries == backoff.max_retries {
                        break fault;
                    }
                    retries += 1;
                    self.note_retry(ctx.map(|c| (c, shard)));
                };
                event.retries += retries;
                let (crash, straggle, stage_stall) = match fault {
                    Some(FaultKind::ShardCrash) => (true, None, None),
                    Some(FaultKind::Straggler { factor }) => (false, Some(factor), None),
                    Some(FaultKind::StageStall { stage, factor }) => {
                        (false, None, Some((stage, factor)))
                    }
                    _ => (false, None, None),
                };
                let backoff_us = backoff.total_us(retries);
                plan = match fault {
                    Some(FaultKind::Transient) => LegPlan::FailFast, // retry budget exhausted
                    _ => LegPlan::Run { crash, straggle, stage_stall, backoff_us },
                };
            }
            legs.push(Leg { shard, plan, ctx, answer: None });
        }
        legs
    }

    /// Phase 3: drive the breakers from the outcomes. This is the *single*
    /// per-leg accounting point — breaker transitions (which publish their
    /// gauge), shard failure/skip counters, latency observations, and every
    /// projection of an answered leg's report (drift pairs, exemplars, the
    /// wide event, trace spans) update here, exactly once per leg per
    /// search, so the Prometheus counters cannot drift from the breaker
    /// bookkeeping.
    fn account_legs(&self, legs: &[Leg], trace_id: Option<u128>, event: &mut WideEvent) {
        for leg in legs {
            let shard = &self.shards[leg.shard];
            match (&leg.answer, leg.plan) {
                (Some(LegAnswer { measured, predicted, .. }), _) => {
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
                }
                (None, LegPlan::Skip) => shard.record_skip(),
                (None, _) => shard.record_failure(),
            }
            self.trace_leg_outcome(leg);
        }
    }

    /// Trace bookkeeping for one accounted leg (nothing in an untraced search).
    /// Dispatched legs already recorded their wall-clock `shard.leg` span
    /// in-thread; here the answered ones additionally get **sim-clock**
    /// engine-stage child spans (serial layout from sim time 0 on a
    /// per-shard `… (sim)` track), while never-dispatched legs get a
    /// zero-length leg span tagged with why they did not run.
    fn trace_leg_outcome(&self, leg: &Leg) {
        let Some(ctx) = &leg.ctx else { return };
        let (ring, shard) = (global_ring(), leg.shard);
        let not_run = |why: &str| {
            drop(
                ring.span(ctx, "shard.leg")
                    .tag("shard", &shard.to_string())
                    .tag("track", &format!("shard {shard}"))
                    .tag("outcome", why),
            )
        };
        match (&leg.plan, &leg.answer) {
            (LegPlan::Skip, _) => not_run("skipped (breaker open)"),
            (LegPlan::FailFast, _) => not_run("failed (retries exhausted)"),
            (_, Some(LegAnswer { measured, .. })) => {
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
            // Dispatched-but-failed: the in-thread span guard already
            // recorded the leg (including panics); nothing to add.
            _ => {}
        }
    }

    /// Phase 4: merge the answers and publish the finished search — its
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
        let shards_skipped = legs.iter().filter(|l| matches!(l.plan, LegPlan::Skip)).count();
        // Every shard answers in external ids, and an id has one version on
        // one shard: the merge is a concatenation.
        let mut results = Vec::new();
        let mut shard_reports = Vec::new();
        let shards = legs.len();
        for answer in legs.into_iter().filter_map(|l| l.answer) {
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
        if let Some(plan) = &self.fault_plan {
            self.telemetry.faults_injected.set(plan.injected() as f64);
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
