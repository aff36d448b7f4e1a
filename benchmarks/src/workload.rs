//! The four workloads: what each one configures, sends and requires of an
//! answer, the timed set-up, and the untraced (end-to-end) run.

use crate::catalog::Metrics;
use crate::data::{Dataset, N_REFS};
use crate::load::{
    drive, fixed_schedule, issue, poisson_schedule, Bodies, Checker, Drive, Op, Sample,
    SearchCheck, Stream,
};
use crate::stats::{highest_supported_percentile, median, percentile, percentile_or_zero, sorted};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;
use texid_distrib::api;
use texid_distrib::cluster::{Cluster, ClusterConfig};
use texid_distrib::http::{http_call, HttpServer};

/// GPU containers per cluster (the `texid serve` default).
pub const CONTAINERS: usize = 4;
/// Fresh set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Offered rate of the open-loop workload, requests per second.
pub const OPEN_LOOP_RATE: f64 = 3.0;
/// Rewrites per second beside the searches of `enroll_beside_search`.
pub const PUT_RATE: f64 = 3.0;
/// A workload of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SearchExhaustive,
    VerifyEdge,
    SearchIvfOpen,
    EnrollBesideSearch,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SearchExhaustive,
        Kind::VerifyEdge,
        Kind::SearchIvfOpen,
        Kind::EnrollBesideSearch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SearchExhaustive => "search_exhaustive",
            Kind::VerifyEdge => "verify_edge",
            Kind::SearchIvfOpen => "search_ivf_open",
            Kind::EnrollBesideSearch => "enroll_beside_search",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// `ClusterConfig::default()` with 4 containers; the IVF workload turns
    /// the probe on at `batch_size: 1`, the only granularity at which the
    /// probe can prune a 32-reference shard.
    pub fn cluster_config(self) -> ClusterConfig {
        let mut cfg = ClusterConfig {
            containers: CONTAINERS,
            ..ClusterConfig::default()
        };
        if self == Kind::SearchIvfOpen {
            cfg.engine.matching.ivf.enabled = true;
            cfg.engine.batch_size = 1;
        }
        cfg
    }

    /// The request whose latency and rate are the workload's `p50_ms` and
    /// `req_per_s`.
    pub fn primary(self) -> Op {
        if self == Kind::VerifyEdge {
            Op::Verify
        } else {
            Op::Search
        }
    }

    pub fn search_check(self) -> SearchCheck {
        match self {
            Kind::SearchExhaustive | Kind::VerifyEdge => SearchCheck {
                comparisons: Some(N_REFS as u64),
                pruned: false,
                top1_is_truth: true,
                repeatable: true,
            },
            Kind::SearchIvfOpen => SearchCheck {
                comparisons: None,
                pruned: true,
                top1_is_truth: false,
                repeatable: true,
            },
            // Rewrites leave masked entries in the sweep, so `comparisons`
            // grows, and a rewrite in flight may drop out of a top-5.
            Kind::EnrollBesideSearch => SearchCheck {
                comparisons: None,
                pruned: false,
                top1_is_truth: true,
                repeatable: false,
            },
        }
    }

    /// The request streams: a warm-up of `warm_s`, then the measured window
    /// up to `total_s`.
    pub fn streams(self, warm_s: f64, total_s: f64, seed: u64) -> Vec<Stream> {
        let closed = |op| Stream {
            op,
            conns: 1,
            schedule: None,
            first: 0,
        };
        match self {
            Kind::SearchExhaustive => vec![closed(Op::Search)],
            Kind::VerifyEdge => vec![closed(Op::Verify)],
            Kind::SearchIvfOpen => vec![Stream {
                op: Op::Search,
                conns: crate::data::threads().min(2),
                // Warm-up and window are drawn apart, so the window always
                // offers exactly `rate x seconds` requests.
                schedule: Some(
                    [
                        poisson_schedule(OPEN_LOOP_RATE, 0.0, warm_s, seed),
                        poisson_schedule(OPEN_LOOP_RATE, warm_s, total_s, seed),
                    ]
                    .concat(),
                ),
                first: 0,
            }],
            Kind::EnrollBesideSearch => vec![
                closed(Op::Search),
                Stream {
                    op: Op::Put,
                    conns: 1,
                    schedule: Some(fixed_schedule(PUT_RATE, total_s)),
                    first: 0,
                },
            ],
        }
    }
}

/// A cluster behind the REST service on loopback.
pub struct Service {
    pub cluster: Arc<Cluster>,
    pub server: HttpServer,
}

impl Service {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// One timed set-up: build the cluster, serve it, enroll the gallery over
/// `POST /textures` in the run's order, and make the first search — which
/// seals every shard's batches and, where on, trains the IVF quantizers.
///
/// # Errors
/// Describes the first request that failed or answered wrongly.
pub fn set_up(
    kind: Kind,
    data: &Dataset,
    bodies: &Bodies,
    checker: &Checker<'_>,
) -> Result<(Service, f64), String> {
    let started = Instant::now();
    let cluster = Arc::new(Cluster::new(kind.cluster_config()));
    let server = api::serve(cluster.clone(), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    for &t in &data.enroll_order {
        let resp = http_call(addr, "POST", "/textures", bodies.enroll[t].as_bytes())
            .map_err(|e| format!("enroll {t}: {e}"))?;
        if resp.status != 201 {
            return Err(format!("enroll {t}: HTTP {}: {}", resp.status, resp.text()));
        }
    }
    let mut first = Sample::new(u32::MAX, Op::Search, 0.0, 0.0);
    issue(addr, Op::Search, 0, bodies, checker, &mut first);
    if first.failed || first.incorrect {
        return Err(format!(
            "first search after set-up: {:?}",
            checker.offenders()
        ));
    }
    Ok((Service { cluster, server }, started.elapsed().as_secs_f64()))
}

/// Warm-up before the measured window: caches fill, the allocator settles.
pub fn warmup_s(seconds: f64) -> f64 {
    (seconds / 8.0).max(1.0)
}

/// The measured part of a drive, summarised.
pub struct Window {
    /// Requests of every kind intended inside the window.
    pub attempted: usize,
    pub failed: usize,
    pub incorrect: usize,
    pub shed: usize,
    /// Ascending latencies (ms, from intended send time) of the answered
    /// requests, per kind.
    pub primary_ms: Vec<f64>,
    pub put_ms: Vec<f64>,
    /// Answered primary requests per second of window.
    pub req_per_s: f64,
    /// Search only: share of answered searches whose top-1 is the truth.
    pub recall_at_1: f64,
    pub mean_comparisons: f64,
    pub mean_sim_wall_us: f64,
    /// Ascending `sent − intended`, ms, of the scheduled requests.
    pub gen_lag_ms: Vec<f64>,
    pub backlog_end: usize,
}

/// Summarise the samples intended at or after `from_s`.
pub fn window(kind: Kind, streams: &[Stream], out: &Drive, from_s: f64) -> Window {
    let measured: Vec<&Sample> = out
        .samples
        .iter()
        .flatten()
        .filter(|s| s.intended_s >= from_s)
        .collect();
    let answered = |op: Op| {
        measured
            .iter()
            .copied()
            .filter(move |s| s.op == op && !s.failed)
    };
    let primary: Vec<&Sample> = answered(kind.primary()).collect();
    let searches: Vec<&Sample> = answered(Op::Search).collect();
    let mean = |f: &dyn Fn(&Sample) -> f64| {
        if searches.is_empty() {
            0.0
        } else {
            searches.iter().map(|s| f(s)).sum::<f64>() / searches.len() as f64
        }
    };
    let last_done = primary.iter().map(|s| s.done_s).fold(from_s, f64::max);
    Window {
        attempted: measured.len(),
        failed: measured.iter().filter(|s| s.failed).count(),
        incorrect: measured.iter().filter(|s| s.incorrect).count(),
        shed: measured.iter().filter(|s| s.shed).count(),
        primary_ms: sorted(primary.iter().map(|s| s.latency_ms()).collect()),
        put_ms: sorted(answered(Op::Put).map(Sample::latency_ms).collect()),
        req_per_s: primary.len() as f64 / (last_done - from_s).max(1e-9),
        recall_at_1: mean(&|s| f64::from(u8::from(s.top1_hit))),
        mean_comparisons: mean(&|s| s.comparisons as f64),
        mean_sim_wall_us: mean(&|s| s.sim_wall_us),
        gen_lag_ms: sorted(
            out.samples
                .iter()
                .zip(streams)
                .filter(|(_, stream)| stream.schedule.is_some())
                .flat_map(|(got, _)| got.iter().filter(|s| s.intended_s >= from_s))
                .map(|s| (s.sent_s - s.intended_s) * 1e3)
                .collect(),
        ),
        backlog_end: out.backlog_end,
    }
}

/// The process's peak resident set, MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Outcome of a run, before it is printed.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// Every set-up and every answer passed its checks.
    pub correct: bool,
    /// Human-readable notes for stderr.
    pub notes: Vec<String>,
}

/// Drive the workload against `addr` for a warm-up plus `seconds`.
pub fn drive_workload(
    kind: Kind,
    addr: SocketAddr,
    seconds: f64,
    seed: u64,
    bodies: &Bodies,
    checker: &Checker<'_>,
) -> Window {
    let warm = warmup_s(seconds);
    let total = warm + seconds;
    let streams = kind.streams(warm, total, seed);
    let out = drive(&streams, total, &|op, k, s| {
        issue(addr, op, k, bodies, checker, s)
    });
    window(kind, &streams, &out, warm)
}

/// The end-to-end run: tracing off, every `end_to_end` metric.
///
/// # Errors
/// A set-up that failed; the run then has no result to print.
pub fn run_untraced(
    kind: Kind,
    data: &Dataset,
    seconds: f64,
    seed: u64,
) -> Result<Outcome, String> {
    let bodies = Bodies::new(data, kind == Kind::EnrollBesideSearch);
    let checker = Checker::new(data, kind.search_check());
    // Measure on the first set-up and read the peak resident set before the
    // others: what a dropped cluster leaves behind in the allocator differs
    // from run to run (±10 % of the peak), the first one's footprint does not.
    let (service, first_setup_s) = set_up(kind, data, &bodies, &checker)?;
    let w = drive_workload(kind, service.addr(), seconds, seed, &bodies, &checker);
    let peak_rss = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    drop(service);
    let mut setups = vec![first_setup_s];
    for _ in 1..SETUPS {
        // The server is stopped (its threads joined) when `set_up`'s result
        // drops, so set-ups are timed one at a time.
        setups.push(set_up(kind, data, &bodies, &checker)?.1);
    }
    let setup_s = median(&setups);

    let mut notes = Vec::new();
    let mut metrics = Metrics::default();
    let mut correct = w.failed == 0 && w.incorrect == 0;
    if w.primary_ms.is_empty() {
        return Err(format!(
            "no {:?} request was answered: {:?}",
            kind.primary(),
            checker.offenders()
        ));
    }
    // The highest percentile with >= 10 samples beyond it is printed, not
    // bounded: between runs of the same code on this host the tails swing
    // by more than any bound (README, A/A table).
    let tail = highest_supported_percentile(w.primary_ms.len()).unwrap_or(50);
    if kind == Kind::SearchIvfOpen && w.recall_at_1 == 0.0 {
        correct = false;
        notes.push("the IVF index found no query's texture at all".into());
    }
    if w.backlog_end > 2 {
        notes.push(format!(
            "warning: {} scheduled requests were still unsent at the close (> 2): the offered rate was not sustained",
            w.backlog_end
        ));
    }
    metrics.set("setup_s", setup_s);
    metrics.set("peak_rss_mb", peak_rss);
    metrics.set("req_per_s", w.req_per_s);
    metrics.set("p50_ms", percentile(&w.primary_ms, 50));
    notes.push(format!(
        "{}: {} {:?} samples, p50 {:.2} ms, p{tail} {:.2} ms, {:.2} req/s, recall@1 {:.3}, mean comparisons {:.1}, put samples {}, put p50 {:.2} ms, backlog_end {}, setup {:.3} s",
        kind.name(),
        w.primary_ms.len(),
        kind.primary(),
        percentile(&w.primary_ms, 50),
        percentile(&w.primary_ms, tail),
        w.req_per_s,
        w.recall_at_1,
        w.mean_comparisons,
        w.put_ms.len(),
        percentile_or_zero(&w.put_ms, 50),
        w.backlog_end,
        setup_s,
    ));
    notes.extend(checker.offenders());
    Ok(Outcome {
        metrics,
        attempted: w.attempted,
        failed: w.failed,
        correct,
        notes,
    })
}
