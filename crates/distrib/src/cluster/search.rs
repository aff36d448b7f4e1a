//! Scatter-gather search: one [`Leg`] per shard, planned on the calling
//! thread, run on the cluster's leg pool (`pool`), then gathered in shard
//! order, accounted and merged by [`Cluster::search_traced`], which files
//! the finished result's wide event.

use super::pool::{LegJob, LegReply};
use super::Cluster;
use crate::faults::{Backoff, FaultKind, FaultOp, Stage};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::Instant;
use texid_core::{EncodedQuery, SearchReport, SearchResult};
use texid_obs::{wall_now_us, Span, TraceContext, TraceRing, WideEvent, STAGE_TOTAL};
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
    /// tree is retrievable from the cluster's [`Cluster::trace_ring`] or
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

/// What the fault decision does to a dispatched leg's report:
/// [`SearchReport::perturbed`]'s arguments.
struct Perturbation {
    stage_stall: Option<(Stage, f64)>,
    straggle: Option<f64>,
    backoff_us: f64,
}

impl Perturbation {
    /// The leg's answer from its run: the unperturbed report *is* the
    /// analytic Eq. 3/4 prediction for this exact query shape; the drift
    /// sentry compares it with the measured copy.
    fn answer(&self, run: SearchResult) -> LegAnswer {
        LegAnswer {
            ranked: run.ranked,
            measured: run.report.perturbed(self.stage_stall, self.straggle, self.backoff_us),
            predicted: run.report,
        }
    }
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
    /// [`Cluster::trace_ring`]: a wall-clock `cluster.search` span, one
    /// wall-clock `shard.leg` span per shard (from the moment a pool worker
    /// starts the leg, tagged `queued_us` — wall µs since it was submitted —
    /// and `group` — the legs swept with it; recorded even when the leg
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
        self.telemetry.searches.inc();
        let (start_us, started) = (wall_now_us(), Instant::now());
        let trace_id = parent.map(|p| p.trace_id);
        let cluster_ctx = parent.map(|p| p.child());
        let _cluster_span = cluster_ctx.as_ref().map(|c| {
            self.ring
                .span(c, "cluster.search")
                .tag("track", "cluster")
                .tag("top_k", &top_k.to_string())
        });

        // Narrowed and packed once, timed as the `encode` stage; every leg's
        // sweep reads the same panels.
        let query = {
            let _encode = Span::with(self.telemetry.encode.clone());
            Arc::new(EncodedQuery::new(&self.cfg.engine, query))
        };
        // Scatter: plan every leg here, in shard order, handing the ones
        // that run to the pool; their answers come back over one channel.
        let (reply, answers) = mpsc::channel();
        let planned: Vec<_> = (0..self.shards.len())
            .map(|shard| {
                let ctx = cluster_ctx.map(|c| c.child());
                let (retries, plan) = self.plan_leg(shard, ctx, &query, &reply);
                (ctx, retries, plan)
            })
            .collect();
        drop(reply);
        // Gather, until every dispatched leg has answered or been dropped.
        let mut runs: Vec<Option<SearchResult>> = planned.iter().map(|_| None).collect();
        for (shard, run) in answers {
            runs[shard] = run;
        }
        let legs: Vec<Leg> = planned
            .into_iter()
            .zip(runs)
            .enumerate()
            .map(|(shard, ((ctx, retries, plan), run))| {
                let outcome = match (plan, run) {
                    (Err(outcome), _) => outcome,
                    (Ok(perturbation), Some(run)) => LegOutcome::Answered(perturbation.answer(run)),
                    (Ok(_), None) => LegOutcome::Failed,
                };
                Leg { shard, ctx, retries, outcome }
            })
            .collect();
        let retries = legs.iter().map(|leg| leg.retries).sum();
        self.account_legs(&legs, trace_id);
        let out = self.merge_and_publish(legs, top_k, trace_id);

        // One wide event per search, traced or not: the finished result's
        // projection, plus what only the scatter knows.
        let event = WideEvent {
            start_us,
            wall_elapsed_us: started.elapsed().as_secs_f64() * 1e6,
            retries,
            ..wide_event(&out)
        };
        // The prune ratio is the search's: all its answered legs together.
        let (pruned, swept) = (event.batches_pruned, event.device_batches + event.host_batches);
        if pruned + swept > 0 {
            self.telemetry.ivf_prune_ratio.set(pruned as f64 / (pruned + swept) as f64);
        }
        self.events.record(event);
        out
    }

    /// Phase 1, on the calling thread: breaker admission and the fault
    /// decision (transient retries included). A leg that runs is submitted
    /// to the pool, to answer on `reply`, and comes back as the
    /// perturbation its answer takes; one that does not records its own
    /// zero-length `shard.leg` span, tagged with why, and comes back as its
    /// outcome. Either way with the retries taken.
    fn plan_leg(
        &self,
        shard: usize,
        ctx: Option<TraceContext>,
        query: &Arc<EncodedQuery>,
        reply: &Sender<LegReply>,
    ) -> (u32, Result<Perturbation, LegOutcome>) {
        let owner = &self.shards[shard];
        let not_run = |why: &str| {
            if let Some(c) = &ctx {
                drop(owner.leg_span(c).tag("outcome", why));
            }
        };
        if !owner.admit() {
            not_run("skipped (breaker open)");
            return (0, Err(LegOutcome::Skipped));
        }
        let (fault, retries) = self.decide(FaultOp::search_shard(shard), ctx.map(|c| (c, shard)));
        let (crash, straggle, stage_stall) = match fault {
            Some(FaultKind::Transient) => {
                not_run("failed (retries exhausted)");
                return (retries, Err(LegOutcome::FailedFast));
            }
            Some(FaultKind::ShardCrash) => (true, None, None),
            Some(FaultKind::Straggler { factor }) => (false, Some(factor), None),
            Some(FaultKind::StageStall { stage, factor }) => (false, None, Some((stage, factor))),
            _ => (false, None, None),
        };
        let job = LegJob {
            ctx,
            crash,
            query: Arc::clone(query),
            reply: reply.clone(),
            submitted: Instant::now(),
        };
        self.pool.submit(shard, job);
        let backoff_us = Backoff::total_us(retries);
        (retries, Ok(Perturbation { stage_stall, straggle, backoff_us }))
    }

    /// Phase 2: drive the breakers from the outcomes. This is the *single*
    /// per-leg accounting point and the only writer of per-leg series —
    /// breaker transitions (which publish their gauge), shard failure/skip
    /// counters, latency observations, and every series projected from an
    /// answered leg's measured report (the sim-clock stage and probe
    /// histograms with their exemplars, the engine and IVF counters, drift
    /// pairs, trace spans) update here, exactly once per leg per search, so
    /// no two surfaces can disagree about a leg.
    fn account_legs(&self, legs: &[Leg], trace_id: Option<u128>) {
        for leg in legs {
            let shard = &self.shards[leg.shard];
            match &leg.outcome {
                LegOutcome::Answered(LegAnswer { measured, predicted, .. }) => {
                    shard.record_answer(measured.total_us, trace_id);
                    // The measured report is what every series counts (and,
                    // traced, what its exemplar carries); the drift sentry
                    // gets the (measured, predicted) pair per series.
                    self.telemetry.observe_leg(measured, trace_id);
                    let (m, p) = (measured.sim_series(), predicted.sim_series());
                    self.drift.observe(&std::array::from_fn(|i| (m[i], p[i])));
                    if let Some(ctx) = &leg.ctx {
                        trace_sim_stages(&self.ring, ctx, leg.shard, measured);
                    }
                }
                LegOutcome::Skipped => shard.record_skip(),
                LegOutcome::FailedFast | LegOutcome::Failed => shard.record_failure(),
            }
        }
    }

    /// Phase 3: merge the answers and publish the finished search — its
    /// result, the degraded counter, the live paper gauges and the serving
    /// objectives.
    fn merge_and_publish(
        &self,
        legs: Vec<Leg>,
        top_k: usize,
        trace_id: Option<u128>,
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

/// The wide event of a finished search, projected from its result: the
/// quorum and outcome, and the answered legs' measured reports folded in
/// leg order. The scatter adds what the result does not carry — the start,
/// the wall time and the retries.
fn wide_event(out: &ClusterSearchResult) -> WideEvent {
    let mut event = WideEvent {
        trace_id: out.trace_id.unwrap_or(0),
        sim_wall_us: out.wall_us,
        comparisons: out.comparisons as u64,
        shards_ok: out.shards_ok as u32,
        shards_failed: out.shards_failed as u32,
        shards_skipped: out.shards_skipped as u32,
        degraded: out.degraded,
        outcome: if out.shards_ok == 0 {
            "failed"
        } else if out.degraded {
            "degraded"
        } else {
            "ok"
        },
        coalesced: 1,
        ..WideEvent::default()
    };
    for r in &out.shard_reports {
        event.coalesced = event.coalesced.max(r.coalesced_queries as u32);
        event.device_batches += r.device_batches as u64;
        event.host_batches += r.host_batches as u64;
        event.cells_probed += r.cells_probed as u64;
        event.batches_pruned += r.batches_pruned as u64;
        event.stage_us += r.stage_us;
    }
    event
}

/// An answered leg's **sim-clock** engine-stage spans, children of its
/// wall-clock `shard.leg` span, laid out serially from sim time 0 on a
/// per-shard `… (sim)` track so the two clocks never share a timeline.
/// `device total` is the stages' sum scaled by the multi-stream factor, so
/// at `streams > 1` it ends inside the last stage: it gets a track of its
/// own, where no slice can partially overlap it.
fn trace_sim_stages(ring: &TraceRing, ctx: &TraceContext, shard: usize, measured: &SearchReport) {
    let tags = |stage: &str, track: &str| {
        vec![
            ("shard".to_string(), shard.to_string()),
            ("stage".to_string(), stage.to_string()),
            ("track".to_string(), track.to_string()),
        ]
    };
    let total = tags(STAGE_TOTAL, &format!("shard {shard} total (sim)"));
    ring.record_sim(ctx, "device total", 0.0, measured.total_us, total);
    let track = format!("shard {shard} (sim)");
    let mut t = 0.0;
    for stage in Stage::ALL {
        let (name, dur) = (stage.span_name(), measured.stage_us[stage]);
        ring.record_sim(ctx, name, t, dur, tags(name, &track));
        t += dur;
    }
}
