//! The traced run: per-layer metrics, measured from outside.
//!
//! Nothing inside `crates/` carries wall-clock spans past extract/encode,
//! so the benchmark plays the server edge itself, single-threaded, in the
//! order `http::serve_connection` + `api::handle` do, with a span around
//! every call into a layer's public function. Levels below `Cluster` are
//! *replays* of the same shapes under a separate root, so a request's self
//! times are never counted twice. Counts at the same boundaries come from
//! `GET /metrics` deltas around a short socket-to-socket window.

use crate::catalog::Metrics;
use crate::data::{time_one_reference, CorpusParams, Dataset, N_REFS};
use crate::load::{drive, issue, Bodies, Checker, Drive, Op, Sample};
use crate::stats::{highest_supported_percentile, median, percentile, percentile_or_zero};
use crate::trace::{chrome_json, self_times_by_name, Tracer};
use crate::workload::{set_up, window, Kind, Outcome, CONTAINERS};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;
use texid_core::{Coalescer, Engine};
use texid_distrib::cluster::Cluster;
use texid_distrib::http::{http_call, read_request, write_response, Response};
use texid_distrib::json::{parse, Json};
use texid_distrib::kv::KvStore;
use texid_distrib::{b64, wire};
use texid_gpu::{DeviceSpec, GpuSim};
use texid_knn::geometry::{verify_matches, RansacParams};
use texid_knn::{match_batch, match_pair, pool_columns, FeatureBlock, IvfIndex};
use texid_linalg::kernel::{gemm_top2_blocked_f16_on, PackedA};
use texid_linalg::{active_backend, Mat};
use texid_obs::{TraceContext, TRACE_HEADER};
use texid_store::{DurableLog, LogConfig, SnapshotFault, Volume};

/// Root span of one request played through the edge.
pub const REQUEST_ROOT: &str = "request";
/// Root span of everything replayed below `Cluster`.
pub const REPLAY_ROOT: &str = "replay";
/// `ledger.coverage_frac` outside this range fails the traced run: the
/// played edge no longer accounts for what a socket-to-socket request costs.
pub const COVERAGE_RANGE: std::ops::RangeInclusive<f64> = 0.85..=1.15;
/// Soundness gates on a traced run's metrics: the reasons, if any, its
/// numbers should not be trusted. `bench run` fails on them; a single
/// workload run only warns, so that host noise between its socket pass and
/// its played pass cannot fail a run whose answers were all correct.
///
/// Coverage is gated on the closed loops only. In the open loop a request
/// also waits behind other arrivals, on both connections and in the shards'
/// coalescers; no single played request contains that wait, which is why
/// it is reported as the `ledger.unaccounted_us` row.
pub fn gate_violations(kind: Kind, layers: &BTreeMap<String, f64>) -> Vec<String> {
    let mut out = Vec::new();
    let closed = kind != Kind::SearchIvfOpen;
    if let Some(c) = layers
        .get("ledger.coverage_frac")
        .filter(|c| closed && !COVERAGE_RANGE.contains(c))
    {
        out.push(format!(
            "ledger.coverage_frac {c:.3} is outside {COVERAGE_RANGE:?}"
        ));
    }
    if let Some(b) = layers.get("bench.backlog_end").filter(|&&b| b > 2.0) {
        out.push(format!(
            "bench.backlog_end {b} > 2: the open loop's offered rate is not sustained"
        ));
    }
    out
}

/// Seconds the socket service is driven before the played service replays
/// what it answered. Host interference here comes in phases of seconds.
const SLICE_S: f64 = 2.0;

/// The bytes `http_call` puts on the socket for this request.
fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Play one request through the edge in process: the calls of
/// `serve_connection` and `api::route` in their order, each in a span.
fn play_edge(t: &mut Tracer, cluster: &Cluster, op: Op, id: u64, raw: &[u8]) {
    t.span(REQUEST_ROOT, |t| {
        let req = t
            .span("http.read_request", |_| read_request(&mut &raw[..]))
            .expect("well-formed request")
            .expect("non-empty request");
        let ctx = TraceContext::root();
        let body = String::from_utf8_lossy(&req.body);
        let v = t
            .span("json.parse", |_| parse(&body))
            .expect("request body parses");
        let text = v
            .get("features")
            .and_then(Json::as_str)
            .expect("features field");
        let bytes = t
            .span("b64.decode", |_| b64::decode(text))
            .expect("valid base64");
        let features = t
            .span("wire.decode_features", |_| wire::decode_features(&bytes))
            .expect("valid wire");
        let (status, answer) = match op {
            Op::Search => {
                let top = v.get("top").and_then(Json::as_u64).unwrap_or(5) as usize;
                let out = t.span("cluster.search", |_| {
                    cluster.search_traced(&features, top, Some(&ctx))
                });
                let json = t.span("json.encode", |_| {
                    let results = Json::Arr(
                        out.results
                            .iter()
                            .map(|(id, score)| {
                                Json::obj([
                                    ("id", Json::Num(*id as f64)),
                                    ("score", Json::Num(*score as f64)),
                                ])
                            })
                            .collect(),
                    );
                    Json::obj([
                        ("results", results),
                        ("comparisons", Json::Num(out.comparisons as f64)),
                        ("wall_us", Json::Num(out.wall_us)),
                        ("images_per_second", Json::Num(out.images_per_second())),
                        ("degraded", Json::Bool(out.degraded)),
                        ("shards_ok", Json::Num(out.shards_ok as f64)),
                        ("shards_failed", Json::Num(out.shards_failed as f64)),
                        ("shards_skipped", Json::Num(out.shards_skipped as f64)),
                        ("trace_id", Json::Str(ctx.trace_id_hex())),
                    ])
                    .to_string()
                });
                (200, json)
            }
            Op::Verify => {
                let r = t
                    .span("cluster.verify", |_| cluster.verify(id, &features, 10, 8))
                    .expect("claimed id is enrolled");
                let json = t.span("json.encode", |_| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("accepted", Json::Bool(r.accepted)),
                        ("good_matches", Json::Num(r.good_matches as f64)),
                        ("geometric_inliers", Json::Num(r.geometric_inliers as f64)),
                        ("scale", Json::Num(r.transform_scale as f64)),
                        (
                            "rotation_deg",
                            Json::Num(r.transform_rotation.to_degrees() as f64),
                        ),
                    ])
                    .to_string()
                });
                (200, json)
            }
            Op::Put => {
                t.span("cluster.update_texture", |_| {
                    cluster.update_texture(id, &features)
                })
                .expect("rewritten id is enrolled");
                (200, r#"{"ok":true}"#.to_string())
            }
        };
        let resp = Response::json(status, answer).with_header(TRACE_HEADER, &ctx.trace_id_hex());
        let mut wire_out = Vec::with_capacity(resp.body.len() + 256);
        t.span("http.write_response", |_| {
            write_response(&mut wire_out, &resp)
        })
        .expect("write to memory");
        std::hint::black_box(wire_out);
    })
}

/// Sum every series of a metric family in a Prometheus text exposition.
fn family_sum(exposition: &str, family: &str) -> f64 {
    exposition
        .lines()
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// `GET /metrics`, with the round trip timed.
fn scrape(addr: SocketAddr) -> Result<(String, f64), String> {
    let t = Instant::now();
    let resp = http_call(addr, "GET", "/metrics", b"").map_err(|e| format!("GET /metrics: {e}"))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if resp.status != 200 {
        return Err(format!("GET /metrics: HTTP {}", resp.status));
    }
    Ok((resp.text(), ms))
}

/// Median of `reps` timings of `f`, µs, each inside a replay span.
fn timed_us<T>(t: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let runs: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(t.span(name, |_| f()));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&runs)
}

/// Replays below `Cluster`, on the shapes this workload's shards hold.
/// Returns the sum over the shard replicas of their `engine.search_us`.
fn replay_layers(t: &mut Tracer, kind: Kind, data: &Dataset, m: &mut Metrics) -> f64 {
    let cfg = kind.cluster_config();
    let matching = cfg.engine.matching;
    let be = active_backend();
    let query = &data.queries[0];
    let mut search_sum_us = 0.0;
    t.begin_request(0);
    t.span(REPLAY_ROOT, |t| {
        // --- core::engine: shard replicas holding the same round-robin refs.
        let mut add_us = Vec::new();
        let mut flush_us = Vec::new();
        let mut engines: Vec<Engine> = (0..CONTAINERS)
            .map(|_| Engine::new(cfg.engine.clone()))
            .collect();
        for (j, &tex) in data.enroll_order.iter().enumerate() {
            let engine = &mut engines[j % CONTAINERS];
            let started = Instant::now();
            t.span("engine.add_reference", |_| {
                engine.add_reference(j as u64, &data.refs[tex])
            })
            .expect("replica cache has room");
            add_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        for engine in &mut engines {
            let started = Instant::now();
            t.span("engine.flush", |_| engine.flush())
                .expect("replica cache has room");
            flush_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        m.set("engine.add_reference_us", median(&add_us));
        m.set("engine.flush_us", median(&flush_us));
        let per_shard: Vec<f64> = engines
            .iter()
            .map(|e| timed_us(t, "engine.search", 3, || e.search(&query.features)))
            .collect();
        m.set("engine.search_us", median(&per_shard));
        search_sum_us = per_shard.iter().sum();
        let reports: Vec<_> = engines
            .iter()
            .map(|e| e.search(&query.features).report)
            .collect();
        let host: usize = reports.iter().map(|r| r.host_batches).sum();
        let device: usize = reports.iter().map(|r| r.device_batches).sum();
        m.set(
            "cache.host_batch_frac",
            host as f64 / (host + device).max(1) as f64,
        );

        // --- core::coalesce: a lone query through the leader path, on a
        // one-reference engine so the 250 us window is not lost in the
        // run-to-run noise of a 60 ms sweep. Median of paired differences.
        let mut small = Engine::new(cfg.engine.clone());
        small
            .add_reference(0, &data.refs[0])
            .expect("replica cache has room");
        small.flush().expect("replica cache has room");
        let shared = RwLock::new(small);
        let coalescer = Coalescer::new(cfg.coalesce);
        let overhead: Vec<f64> = (0..15)
            .map(|_| {
                timed_us(t, "coalesce.search", 1, || {
                    coalescer.search(&shared, &query.features)
                }) - timed_us(t, "engine.search", 1, || {
                    shared.read().search(&query.features)
                })
            })
            .collect();
        m.set("coalesce.solo_overhead_us", median(&overhead));

        // --- knn: one shard's worth of references against one query.
        let shard_refs: Vec<&Mat> = data
            .enroll_order
            .iter()
            .step_by(CONTAINERS)
            .map(|&tex| &data.refs[tex].mat)
            .collect();
        let batch = shard_refs.len();
        let m_ref = cfg.engine.m_ref;
        let blocks: Vec<FeatureBlock> = shard_refs
            .iter()
            .map(|r| FeatureBlock::from_mat((*r).clone(), matching.precision, matching.scale))
            .collect();
        let r_cat = FeatureBlock::hconcat(&blocks.iter().collect::<Vec<_>>());
        let qmat = query.features.mat.clone();
        m.set(
            "knn.encode_query_us",
            timed_us(t, "knn.encode_query", 9, || {
                FeatureBlock::from_mat(qmat.clone(), matching.precision, matching.scale)
            }),
        );
        let qblock = FeatureBlock::from_mat(qmat.clone(), matching.precision, matching.scale);
        let mut sim = GpuSim::new(DeviceSpec::tesla_p100());
        let stream = sim.default_stream();
        // One sealed batch as this workload's shards hold them: all 32
        // references, or a single one where `batch_size` is 1.
        let sealed = cfg.engine.batch_size.min(batch);
        let r_sealed = FeatureBlock::hconcat(&blocks.iter().take(sealed).collect::<Vec<_>>());
        m.set(
            "knn.match_batch_us",
            timed_us(t, "knn.match_batch", 3, || {
                match_batch(
                    &matching, &r_sealed, sealed, m_ref, &qblock, &mut sim, stream,
                )
            }),
        );
        let truth = &data.refs[query.truth as usize];
        let rblock = FeatureBlock::from_mat(truth.mat.clone(), matching.precision, matching.scale);
        m.set(
            "knn.match_pair_us",
            timed_us(t, "knn.match_pair", 9, || {
                match_pair(&matching, &rblock, &qblock, &mut sim, stream)
            }),
        );
        let pair = match_pair(&matching, &rblock, &qblock, &mut sim, stream);
        m.set(
            "knn.ransac_us",
            timed_us(t, "knn.ransac", 9, || {
                verify_matches(
                    &pair.matches,
                    &truth.keypoints,
                    &query.features.keypoints,
                    &RansacParams::default(),
                )
            }),
        );
        let pools: Vec<f32> = shard_refs.iter().flat_map(|r| pool_columns(r)).collect();
        let pooled = Mat::from_col_major(pools.len() / batch, batch, pools);
        let ivf = matching.ivf;
        m.set(
            "knn.ivf_train_ms",
            timed_us(t, "knn.ivf_train", 3, || {
                IvfIndex::train(&pooled, ivf.nlist.min(batch), ivf.seed, ivf.train_iters)
            }) / 1e3,
        );
        let index = IvfIndex::train(&pooled, ivf.nlist.min(batch), ivf.seed, ivf.train_iters);
        let qpool = pool_columns(&qmat);
        m.set(
            "knn.ivf_probe_us",
            timed_us(t, "knn.ivf_probe", 9, || index.probe(&qpool, ivf.nprobe)),
        );

        // --- linalg: the fused f16 GEMM + top-2 on the batched and the
        // batch-1 shape; FLOPs are computed (2·m·n·d), not counted.
        let (
            FeatureBlock::F16 { mat: a32, .. },
            FeatureBlock::F16 { mat: a1, .. },
            FeatureBlock::F16 { mat: b, .. },
        ) = (&r_cat, &rblock, &qblock)
        else {
            panic!("the default matching precision is f16");
        };
        let gflops =
            |rows: usize, us: f64| 2.0 * rows as f64 * b.cols() as f64 * b.rows() as f64 / us / 1e3;
        let b32_us = timed_us(t, "linalg.gemm_top2", 3, || {
            gemm_top2_blocked_f16_on(be, -2.0, a32, b, batch, m_ref)
        });
        m.set("linalg.gemm_top2_b32_gflops", gflops(a32.cols(), b32_us));
        let b1_us = timed_us(t, "linalg.gemm_top2", 9, || {
            gemm_top2_blocked_f16_on(be, -2.0, a1, b, 1, m_ref)
        });
        m.set("linalg.gemm_top2_b1_gflops", gflops(a1.cols(), b1_us));
        m.set(
            "linalg.pack_us",
            timed_us(t, "linalg.pack", 5, || PackedA::from_f16_on(be, a32)),
        );
        let src = qmat.as_slice();
        let mut dst = vec![texid_linalg::F16::from_f32(0.0); src.len()];
        let narrow_us = timed_us(t, "linalg.f16_narrow", 9, || {
            texid_linalg::f16::narrow_slice_scaled_on(be, src, matching.scale, &mut dst)
        });
        m.set(
            "linalg.f16_narrow_mb_per_s",
            (src.len() * 4) as f64 / narrow_us,
        );

        // --- distrib::cluster: ingest without the edge.
        let cluster = Cluster::new(cfg.clone());
        let mut next = 0usize;
        m.set(
            "cluster.add_texture_us",
            timed_us(t, "cluster.add_texture", 32, || {
                next += 1;
                cluster.add_texture(next as u64 - 1, &data.refs[next - 1])
            }),
        );
        drop(cluster);

        // --- distrib::kv + store: journaled writes of real feature payloads.
        let payloads: Vec<Vec<u8>> = data
            .refs
            .iter()
            .take(64)
            .map(wire::encode_features)
            .collect();
        let user_bytes: usize = payloads.iter().map(Vec::len).sum();
        let kv = KvStore::durable(DurableLog::new(
            Volume::in_memory(),
            LogConfig { snapshot_every: 0 },
        ));
        let mut next = 0usize;
        m.set(
            "kv.set_us",
            timed_us(t, "kv.set", payloads.len(), || {
                next += 1;
                kv.set(&format!("tex:{:020}", next - 1), payloads[next - 1].clone())
            }),
        );
        let mut next = 0usize;
        m.set(
            "kv.get_us",
            timed_us(t, "kv.get", payloads.len(), || {
                next += 1;
                kv.get(&format!("tex:{:020}", next - 1))
            }),
        );
        let wal = kv.wal_stats().expect("durable store");
        m.set(
            "store.wal_bytes_per_user_byte",
            wal.wal_bytes as f64 / user_bytes as f64,
        );
        m.set(
            "store.replay_ms",
            timed_us(t, "store.replay", 3, || kv.replay()) / 1e3,
        );
        m.set(
            "store.compact_ms",
            timed_us(t, "store.compact", 3, || kv.compact(SnapshotFault::Clean)) / 1e3,
        );
    });
    search_sum_us
}

/// The traced run: every `per_layer` metric.
///
/// # Errors
/// A set-up or scrape that failed; the run then has no result to print.
pub fn run_traced(
    kind: Kind,
    data: &Dataset,
    seconds: f64,
    seed: u64,
    trace_out: Option<&std::path::Path>,
) -> Result<Outcome, String> {
    let bodies = Bodies::new(data, kind == Kind::EnrollBesideSearch);
    let checker = Checker::new(data, kind.search_check());
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    // --- Two identical services: one driven socket to socket with tracing
    // off, one whose edge the benchmark plays in process. They take turns
    // in slices of SLICE_S seconds — the played service replays exactly the
    // requests the socket service just answered — so that both medians of
    // the ledger see the same phases of a noisy host. Every other played
    // request runs with the tracer off: the gap is the tracing overhead.
    let (service, _) = set_up(kind, data, &bodies, &checker)?;
    let (played, _) = set_up(kind, data, &bodies, &checker)?;
    let addr = service.addr();
    let slices = ((seconds / 2.0 / SLICE_S).ceil() as usize).max(1);
    let mut traced = Tracer::new(true);
    let mut untraced = Tracer::new(false);
    let mut plain_us = Vec::new();
    let mut spanned_us = Vec::new();
    let mut merged = Drive {
        samples: Vec::new(),
        backlog_end: 0,
        elapsed_s: 0.0,
    };
    let mut streams = kind.streams(0.0, SLICE_S, seed);
    let (before, _) = scrape(addr)?;
    // Slice 0 warms both services up and is not measured.
    for slice in 0..=slices {
        for (stream, fresh) in
            streams
                .iter_mut()
                .zip(kind.streams(0.0, SLICE_S, seed ^ slice as u64))
        {
            stream.schedule = fresh.schedule;
        }
        let out = drive(&streams, SLICE_S, &|op, k, s| {
            issue(addr, op, k, &bodies, &checker, s)
        });
        for (stream, got) in streams.iter_mut().zip(&out.samples) {
            stream.first += got.len();
        }

        let mut sequence: Vec<&Sample> =
            out.samples.iter().flatten().filter(|s| !s.failed).collect();
        sequence.sort_by(|a, b| a.sent_s.partial_cmp(&b.sent_s).expect("finite times"));
        let slice_started = Instant::now();
        for (i, s) in sequence.iter().enumerate() {
            let stream = s.req as usize / 1_000_000;
            let k = s.req as usize % 1_000_000;
            // Scheduled requests are played at their intended times, so the
            // played edge sees the idle gaps (cold caches, sleeping workers)
            // the socket pass saw; closed loops are played back to back.
            if streams[stream].schedule.is_some() {
                let due = std::time::Duration::from_secs_f64(s.intended_s);
                std::thread::sleep(due.saturating_sub(slice_started.elapsed()));
            }
            let (id, raw) = match s.op {
                Op::Search => (
                    0,
                    raw_request(
                        addr,
                        "POST",
                        "/search",
                        &bodies.search[k % bodies.search.len()],
                    ),
                ),
                Op::Verify => {
                    let qi = k % bodies.verify.len();
                    (
                        data.queries[qi].claim,
                        raw_request(addr, "POST", "/verify", &bodies.verify[qi]),
                    )
                }
                Op::Put => {
                    let pi = k % bodies.put.len();
                    let id = data.unqueried[pi] as u64;
                    (
                        id,
                        raw_request(addr, "PUT", &format!("/textures/{id}"), &bodies.put[pi]),
                    )
                }
            };
            let spanned = slice > 0 && i % 2 == 0;
            let tracer = if spanned { &mut traced } else { &mut untraced };
            tracer.begin_request(s.req);
            let started = Instant::now();
            play_edge(tracer, &played.cluster, s.op, id, &raw);
            let us = started.elapsed().as_secs_f64() * 1e6;
            if slice > 0 && s.op == kind.primary() {
                if spanned {
                    &mut spanned_us
                } else {
                    &mut plain_us
                }
                .push(us);
            }
        }

        // Splice the measured slices onto one socket-time axis.
        if slice > 0 {
            merged.samples.resize_with(out.samples.len(), Vec::new);
            for (all, got) in merged.samples.iter_mut().zip(out.samples) {
                all.extend(got.into_iter().map(|s| Sample {
                    intended_s: s.intended_s + merged.elapsed_s,
                    sent_s: s.sent_s + merged.elapsed_s,
                    done_s: s.done_s + merged.elapsed_s,
                    ..s
                }));
            }
            merged.backlog_end += out.backlog_end;
            merged.elapsed_s += out.elapsed_s;
        }
    }
    let (after, scrape_ms) = scrape(addr)?;
    let w = window(kind, &streams, &merged, 0.0);
    if w.primary_ms.is_empty() {
        return Err(format!(
            "no {:?} request was answered: {:?}",
            kind.primary(),
            checker.offenders()
        ));
    }
    let delta = |family: &str| family_sum(&after, family) - family_sum(&before, family);
    let socket_p50_us = percentile(&w.primary_ms, 50) * 1e3;
    // Transport: the primary request's own body sent to a path no route
    // matches, so the server does everything `serve_connection` does for it
    // (accept, queue, worker wake, `read_request`, a 404, close) and nothing
    // else. `read_request` is a ledger row already and is taken out below.
    let primary_body = match kind.primary() {
        Op::Verify => &bodies.verify[0],
        _ => &bodies.search[0],
    };
    let unrouted: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            let _ = http_call(addr, "POST", "/nope", primary_body.as_bytes());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let stats = service.cluster.stats();
    let live_refs = service.cluster.len();
    drop((service, played));
    if spanned_us.is_empty() || plain_us.is_empty() {
        return Err("too few requests in the window to play back; use a longer --seconds".into());
    }

    // --- Replays below Cluster, then the ledger.
    let engine_search_sum_us = replay_layers(&mut traced, kind, data, &mut m);
    let by_name = self_times_by_name(traced.spans(), REQUEST_ROOT);
    let self_us = |name: &str| by_name.get(name).map_or(0.0, |v| median(v));
    for name in [
        "http.read_request",
        "http.write_response",
        "json.parse",
        "json.encode",
        "b64.decode",
        "wire.decode_features",
        "cluster.search",
        "cluster.verify",
        "cluster.update_texture",
    ] {
        m.set(&format!("{name}_us"), self_us(name));
    }
    // What `api::handle` does between the layer calls (lossy UTF-8 view of
    // the body, response assembly): the request span's own self time.
    m.set("api.glue_us", self_us(REQUEST_ROOT));
    m.set(
        "b64.decode_mb_per_s",
        primary_body.len() as f64 / self_us("b64.decode").max(1e-9),
    );
    m.set("wire.encode_features_us", {
        let f = &data.queries[0].features;
        let mut t = Tracer::new(false);
        timed_us(&mut t, "wire.encode_features", 9, || {
            wire::encode_features(f)
        })
    });
    let transport_us = median(&unrouted) - self_us("http.read_request");
    m.set("http.transport_us", transport_us);
    m.set("http.shed_503", w.shed as f64);
    m.set("obs.metrics_scrape_ms", scrape_ms);

    let searches = delta("texid_cluster_searches_total").max(delta("texid_cluster_searches"));
    m.set(
        "cluster.lock_wait_us",
        if searches > 0.0 {
            delta("texid_shard_lock_wait_us_sum") / searches
        } else {
            0.0
        },
    );
    let groups = delta("texid_coalesced_batch_size_count");
    m.set(
        "coalesce.mean_group",
        if groups > 0.0 {
            delta("texid_coalesced_batch_size_sum") / groups
        } else {
            0.0
        },
    );
    let pruned = delta("texid_ivf_batches_pruned_total").max(delta("texid_ivf_batches_pruned"));
    let swept = delta("texid_ivf_batches_swept_total").max(delta("texid_ivf_batches_swept"));
    m.set(
        "knn.ivf_prune_frac",
        if pruned + swept > 0.0 {
            pruned / (pruned + swept)
        } else {
            0.0
        },
    );
    m.set("cluster.swept_per_search", w.mean_comparisons);
    m.set("cluster.live_refs", live_refs as f64);
    m.set(
        "cluster.cmp_per_s",
        if kind.primary() == Op::Search {
            N_REFS as f64 * w.req_per_s
        } else {
            0.0
        },
    );
    m.set(
        "cluster.gather_residual_us",
        // The legs run on min(shards, cores) cores at once; what is left is
        // scatter, gather and what the legs cost each other. May be negative.
        if kind.primary() == Op::Search {
            self_us("cluster.search")
                - engine_search_sum_us / CONTAINERS.min(crate::data::threads()) as f64
        } else {
            0.0
        },
    );
    m.set(
        "store.snapshots",
        stats.wal.map_or(0.0, |wal| wal.snapshots as f64),
    );

    let sim_us = w.mean_sim_wall_us;
    m.set("gpu.sim_search_us", sim_us);
    m.set(
        "gpu.sim_cmp_per_s",
        if sim_us > 0.0 {
            w.mean_comparisons / sim_us * 1e6
        } else {
            0.0
        },
    );
    m.set(
        "gpu.wall_over_sim",
        if sim_us > 0.0 {
            self_us("cluster.search") / sim_us
        } else {
            0.0
        },
    );

    let cost = time_one_reference(&CorpusParams::default());
    m.set("image.generate_ms", cost.generate_ms);
    m.set("sift.extract_ref_ms", cost.extract_ms);
    m.set("sift.extract_query_ms", data.extract_query_ms);

    let played_us = median(&spanned_us);
    let coverage = (played_us + transport_us) / socket_p50_us;
    m.set("ledger.coverage_frac", coverage);
    m.set(
        "ledger.unaccounted_us",
        socket_p50_us - played_us - transport_us,
    );
    m.set(
        "bench.trace_overhead_frac",
        median(&spanned_us) / median(&plain_us) - 1.0,
    );
    m.set(
        "bench.gen_lag_p90_ms",
        percentile_or_zero(&w.gen_lag_ms, 90),
    );
    m.set("bench.backlog_end", w.backlog_end as f64);

    // End-to-end figures too unsteady between runs of the same code to carry
    // a bound (A/A table in the README).
    m.set(
        "e2e.correct_frac",
        if kind.primary() == Op::Search {
            w.recall_at_1
        } else {
            1.0 - w.incorrect as f64 / w.attempted.max(1) as f64
        },
    );
    m.set("e2e.enroll_p50_ms", percentile_or_zero(&w.put_ms, 50));
    let tail_pct = highest_supported_percentile(w.primary_ms.len()).unwrap_or(50);
    m.set("e2e.tail_pct", f64::from(tail_pct));
    m.set("e2e.tail_ms", percentile(&w.primary_ms, tail_pct));

    let correct = w.failed == 0 && w.incorrect == 0;
    notes.extend(
        gate_violations(kind, m.values())
            .into_iter()
            .map(|v| format!("UNSOUND: {v}")),
    );
    notes.push(format!(
        "{}: socket p50 {:.0} us over {} samples, played {:.0} us over {} requests + transport {transport_us:.0} us, coverage {:.3}",
        kind.name(),
        socket_p50_us,
        w.primary_ms.len(),
        played_us,
        spanned_us.len(),
        coverage
    ));
    notes.extend(checker.offenders());
    if let Some(path) = trace_out {
        std::fs::write(path, chrome_json(traced.spans()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("trace written to {}", path.display()));
    }
    Ok(Outcome {
        metrics: m,
        attempted: w.attempted,
        failed: w.failed,
        correct,
        notes,
    })
}
