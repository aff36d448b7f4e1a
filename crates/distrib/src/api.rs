//! The RESTful texture API (§8: "we can add, delete, update, and search a
//! texture image through the provided APIs").
//!
//! | route | method | body | effect |
//! |---|---|---|---|
//! | `/textures` | POST | `{"id": N, "features": "<base64 wire>"}` | add |
//! | `/textures/{id}` | GET | — | fetch stored features |
//! | `/textures/{id}` | PUT | `{"features": "<base64 wire>"}` | update |
//! | `/textures/{id}` | DELETE | — | delete |
//! | `/search` | POST | `{"features": "<base64 wire>", "top": K}` | search |
//! | `/verify` | POST | `{"id": N, "features": "<base64 wire>"}` | 1:1 verification |
//! | `/stats` | GET | — | cluster statistics |
//! | `/health` | GET | — | per-shard breaker state (503 when no shard serves) |
//! | `/heal` | POST | — | rebuild unhealthy shards from the feature store |
//! | `/metrics` | GET | — | Prometheus text exposition of all telemetry |
//! | `/trace/{id}` | GET | — | span tree of one traced request |
//! | `/traces` | GET | — | recent trace index + dropped-event count |
//! | `/events` | GET | — | flight recorder: per-query wide events as JSON Lines |
//! | `/slo` | GET | — | burn-rate status of every configured objective |
//!
//! Feature payloads travel as base64-encoded protobuf-style bytes
//! ([`crate::wire`]), matching the paper's protobuf serialization. Their
//! descriptors must have the system's one dimension
//! ([`DESCRIPTOR_DIM`]); any other is a 400 on every route that takes
//! features. A numeric field (`id`, `top`, `min_matches`, `min_inliers`)
//! is a whole number from 0 to 2⁵³ − 1 or the request is a 400; an absent
//! one keeps its default.
//!
//! Search responses carry the degraded-mode quorum metadata
//! (`degraded`, `shards_ok`, `shards_failed`, `shards_skipped`) so clients
//! can tell a partial answer from a full one.
//!
//! # Request tracing
//!
//! Every non-observability request runs under a [`TraceContext`]: the
//! edge honors an incoming `X-Texid-Trace-Id` header (32 hex chars) or
//! mints a fresh id, records a root span named `"<METHOD> <path>"`
//! tagged with the response status, and echoes the id back in the same
//! header on **every** response. `/search` threads the context through
//! [`Cluster::search_traced`], so its span tree (cluster → shard legs →
//! retries → sim-clock engine stages) is retrievable at `GET /trace/<id>`
//! the moment the response arrives, and the response body carries the id
//! as `"trace_id"`. `/verify` threads it through
//! [`Cluster::verify_traced`]: one `verify.sweep` span under the request's.
//! `/metrics`, `/trace/…`, `/traces`, `/events`, and `/slo` are served
//! untraced so observability polling cannot wash real
//! requests out of the cluster's bounded ring ([`Cluster::trace_ring`]).
//! Every surface reads the served cluster's own telemetry: `/metrics`
//! renders its registry, `/events` its flight recorder.
//!
//! `HEAD` is accepted on every GET route (the HTTP layer strips the body
//! but keeps `Content-Length`); unsupported methods on known routes get
//! `405` with an `Allow` header.

use crate::b64;
use crate::cluster::{Cluster, ClusterError, ShardHealth, ShardStatus};
use crate::http::{HttpServer, PoolConfig, Request, Response};
use crate::json::{parse, Json};
use crate::wire;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use texid_obs::{Clock, SpanRecord, Stage, TraceContext, WideEvent, TRACE_HEADER};
use texid_sift::descriptor::DESCRIPTOR_DIM;
use texid_sift::FeatureMatrix;

fn err_json(status: u16, msg: &str) -> Response {
    Response::json(status, Json::obj([("error", Json::Str(msg.to_string()))]).to_string())
}

/// The request body as JSON, or the 400 that answers it. The bytes are
/// validated as UTF-8 once and parsed where they lie: a body that is not
/// UTF-8 is refused, never repaired into something the client did not send.
fn json_body(req: &Request) -> Result<Json, Response> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| err_json(400, "body is not valid UTF-8"))?;
    parse(text).map_err(|e| err_json(400, &e.to_string()))
}

/// An optional integer field of a request body: absent is `None`; present,
/// it must be a whole number `Json::as_u64` takes, or the request is a 400 —
/// refused, never rounded or defaulted into a value the client did not send.
fn uint_field(v: &Json, field: &str) -> Result<Option<u64>, Response> {
    let refuse = || err_json(400, &format!("{field} must be an integer from 0 to 2^53 - 1"));
    v.get(field).map(|x| x.as_u64().ok_or_else(refuse)).transpose()
}

/// The one place a route decodes features. What comes out is what the
/// engines can take: descriptors of any other dimension than the system's
/// are a client error here, not a panic in a kernel later.
fn parse_features_field(v: &Json, field: &str) -> Result<FeatureMatrix, Response> {
    let b64_text = v
        .get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| err_json(400, "missing features field"))?;
    let bytes = b64::decode(b64_text).map_err(|_| err_json(400, "invalid base64"))?;
    let features =
        wire::decode_features(&bytes).map_err(|_| err_json(400, "invalid feature payload"))?;
    if features.dim() != DESCRIPTOR_DIM {
        return Err(cluster_err(ClusterError::Dimension(features.dim())));
    }
    Ok(features)
}

fn cluster_err(e: ClusterError) -> Response {
    match e {
        ClusterError::Dimension(_) | ClusterError::Unstorable(_) => err_json(400, &e.to_string()),
        ClusterError::NotFound(_) => err_json(404, &e.to_string()),
        ClusterError::Unavailable(_) | ClusterError::Timeout(_) => err_json(503, &e.to_string()),
        _ => err_json(500, &e.to_string()),
    }
}

/// One wide event as a flat JSON object (one `GET /events` line).
fn event_json(e: &WideEvent) -> Json {
    let stages = Stage::ALL.map(|stage| (stage.event_key(), Json::Num(e.stage_us[stage])));
    let fields = [
        ("seq", Json::Num(e.seq as f64)),
        (
            "trace_id",
            if e.trace_id == 0 {
                Json::Null
            } else {
                Json::Str(format!("{:032x}", e.trace_id))
            },
        ),
        ("start_us", Json::Num(e.start_us)),
        ("wall_elapsed_us", Json::Num(e.wall_elapsed_us)),
        ("sim_wall_us", Json::Num(e.sim_wall_us)),
        ("comparisons", Json::Num(e.comparisons as f64)),
        ("shards_ok", Json::Num(e.shards_ok as f64)),
        ("shards_failed", Json::Num(e.shards_failed as f64)),
        ("shards_skipped", Json::Num(e.shards_skipped as f64)),
        ("degraded", Json::Bool(e.degraded)),
        ("outcome", Json::Str(e.outcome.to_string())),
        ("coalesced", Json::Num(e.coalesced as f64)),
        ("device_batches", Json::Num(e.device_batches as f64)),
        ("host_batches", Json::Num(e.host_batches as f64)),
        ("cells_probed", Json::Num(e.cells_probed as f64)),
        ("batches_pruned", Json::Num(e.batches_pruned as f64)),
        ("retries", Json::Num(e.retries as f64)),
    ];
    Json::obj(fields.into_iter().chain(stages))
}

/// One span as a JSON tree node, children nested and sorted by start.
fn span_node(span: &SpanRecord, by_parent: &HashMap<u64, Vec<&SpanRecord>>) -> Json {
    let children: Vec<Json> = by_parent
        .get(&span.span_id)
        .map(|kids| kids.iter().map(|c| span_node(c, by_parent)).collect())
        .unwrap_or_default();
    let tags: BTreeMap<String, Json> = span
        .tags
        .iter()
        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
        .collect();
    Json::obj([
        ("span_id", Json::Str(format!("{:016x}", span.span_id))),
        ("parent_id", Json::Str(format!("{:016x}", span.parent_id))),
        ("name", Json::Str(span.name.clone())),
        ("clock", Json::Str(span.clock.as_str().to_string())),
        ("start_us", Json::Num(span.start_us)),
        ("dur_us", Json::Num(span.dur_us)),
        ("tags", Json::Obj(tags)),
        ("children", Json::Arr(children)),
    ])
}

/// The `GET /trace/{id}` body: the trace's spans as a forest of
/// [`span_node`]s. Roots are true roots plus orphans whose parent was
/// evicted, so a pressured ring still yields a renderable forest.
fn trace_json(trace_id: u128, spans: &[SpanRecord]) -> Json {
    let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut by_parent: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        by_parent.entry(s.parent_id).or_default().push(s);
    }
    let roots: Vec<Json> = spans
        .iter()
        .filter(|s| s.parent_id == 0 || !ids.contains(&s.parent_id))
        .map(|s| span_node(s, &by_parent))
        .collect();
    Json::obj([
        ("trace_id", Json::Str(format!("{trace_id:032x}"))),
        ("span_count", Json::Num(spans.len() as f64)),
        ("spans", Json::Arr(roots)),
    ])
}

/// The inverse of `trace_json`: a `GET /trace/{id}` body back into its
/// [`SpanRecord`]s, flattened parents first, every time the bits the ring
/// held (tags come back sorted by key). `Err` names the first missing
/// field, bad hex id or unknown clock.
pub fn trace_spans(body: &Json) -> Result<Vec<SpanRecord>, String> {
    let trace_id = body
        .get("trace_id")
        .and_then(Json::as_str)
        .and_then(TraceContext::parse_trace_id)
        .ok_or("missing or bad trace_id")?;
    let roots = body.get("spans").and_then(Json::as_arr).ok_or("missing spans")?;
    let mut stack: Vec<&Json> = roots.iter().rev().collect();
    let mut out = Vec::new();
    while let Some(node) = stack.pop() {
        let text = |key: &str| {
            node.get(key).and_then(Json::as_str).ok_or_else(|| format!("span without {key}"))
        };
        let num = |key: &str| {
            node.get(key).and_then(Json::as_f64).ok_or_else(|| format!("span without {key}"))
        };
        let id = |key: &str| {
            let hex = text(key)?;
            if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("bad {key} {hex:?}"));
            }
            u64::from_str_radix(hex, 16).map_err(|e| e.to_string())
        };
        let clock = match text("clock")? {
            "wall" => Clock::Wall,
            "sim" => Clock::Sim,
            other => return Err(format!("unknown clock {other:?}")),
        };
        let Some(Json::Obj(tags)) = node.get("tags") else {
            return Err("span without tags".to_string());
        };
        let tags = tags
            .iter()
            .map(|(k, v)| match v {
                Json::Str(v) => Ok((k.clone(), v.clone())),
                _ => Err(format!("tag {k:?} is not a string")),
            })
            .collect::<Result<_, String>>()?;
        let children = node.get("children").and_then(Json::as_arr).ok_or("span without children")?;
        out.push(SpanRecord {
            trace_id,
            span_id: id("span_id")?,
            parent_id: id("parent_id")?,
            name: text("name")?.to_string(),
            clock,
            start_us: num("start_us")?,
            dur_us: num("dur_us")?,
            tags,
        });
        stack.extend(children.iter().rev());
    }
    Ok(out)
}

/// What a handler is given besides the cluster.
struct Call<'a> {
    req: &'a Request,
    ctx: &'a TraceContext,
    /// The segment the route's `{id}` matched (`""` on a route without one).
    id: &'a str,
}

/// `Err` is a request turned away before it reached the cluster (bad id,
/// body, or payload): a response like any other, raised with `?`.
type Handler = fn(&Cluster, &Call<'_>) -> Result<Response, Response>;

/// One row of the route table.
struct Route {
    method: &'static str,
    /// `/`-separated; `{id}` matches any one segment.
    path: &'static str,
    /// Observability reads are not themselves traced: a dashboard polling
    /// `/metrics` or `/traces` must not wash real requests out of the ring.
    traced: bool,
    handler: Handler,
}

const fn route(method: &'static str, path: &'static str, traced: bool, handler: Handler) -> Route {
    Route { method, path, traced, handler }
}

/// The route table. Dispatch, the `Allow` header of a 405 and the
/// untraced-observability rule are all read off these rows.
const ROUTES: [Route; 14] = [
    route("POST", "/textures", true, add_texture),
    route("GET", "/textures/{id}", true, get_texture),
    route("PUT", "/textures/{id}", true, update_texture),
    route("DELETE", "/textures/{id}", true, delete_texture),
    route("POST", "/search", true, search),
    route("POST", "/verify", true, verify),
    route("GET", "/stats", true, stats),
    route("GET", "/health", true, health),
    route("POST", "/heal", true, heal),
    route("GET", "/metrics", false, metrics),
    route("GET", "/trace/{id}", false, trace),
    route("GET", "/traces", false, traces),
    route("GET", "/events", false, events),
    route("GET", "/slo", false, slo),
];

/// Match `path` against a route's pattern: `Some` of the segment `{id}`
/// matched (`""` without one), `None` when they differ. Leading and
/// trailing slashes do not count.
fn capture<'a>(pattern: &str, path: &'a str) -> Option<&'a str> {
    let mut want = pattern.trim_matches('/').split('/');
    let mut got = path.trim_matches('/').split('/');
    let mut id = "";
    loop {
        match (want.next(), got.next()) {
            (None, None) => return Some(id),
            (Some("{id}"), Some(segment)) => id = segment,
            (Some(w), Some(g)) if w == g => {}
            _ => return None,
        }
    }
}

/// Route one request against the cluster.
///
/// Minting the trace context, recording the request's root span, and
/// echoing `X-Texid-Trace-Id` all happen here, so in-process callers
/// (tests, embedding) get identical tracing behavior to the HTTP path.
pub fn handle(cluster: &Cluster, req: &Request) -> Response {
    // HEAD is routed exactly like GET; the transport withholds the body
    // while keeping the headers and Content-Length (RFC 9110 §9.3.2).
    let method = if req.method == "HEAD" { "GET" } else { req.method.as_str() };
    let ctx = req
        .header(TRACE_HEADER)
        .and_then(TraceContext::parse_trace_id)
        .map(TraceContext::with_trace_id)
        .unwrap_or_else(TraceContext::root);
    // The rows this path matches, whatever the method, with their `{id}`.
    let on_path: Vec<_> = ROUTES
        .iter()
        .filter_map(|route| Some((route, capture(route.path, &req.path)?)))
        .collect();
    let traced = on_path.iter().all(|(route, _)| route.traced);
    let start_us = texid_obs::wall_now_us();
    let started = std::time::Instant::now();
    let resp = match on_path.iter().find(|(route, _)| route.method == method) {
        Some((route, id)) => {
            (route.handler)(cluster, &Call { req, ctx: &ctx, id }).unwrap_or_else(|early| early)
        }
        None if on_path.is_empty() => err_json(404, "no such route"),
        None => {
            // Methods sorted, `HEAD` beside the `GET` it is routed as.
            let mut allow: Vec<&str> = on_path.iter().map(|(route, _)| route.method).collect();
            if allow.contains(&"GET") {
                allow.push("HEAD");
            }
            allow.sort_unstable();
            err_json(405, "method not allowed").with_header("Allow", &allow.join(", "))
        }
    };
    if traced {
        cluster.trace_ring().record(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: 0,
            name: format!("{} {}", req.method, req.path),
            clock: Clock::Wall,
            start_us,
            dur_us: started.elapsed().as_secs_f64() * 1e6,
            tags: vec![
                ("track".to_string(), "request".to_string()),
                ("status".to_string(), resp.status.to_string()),
            ],
        });
    }
    resp.with_header(TRACE_HEADER, &ctx.trace_id_hex())
}

/// The `{id}` of a `/textures/{id}` route.
fn texture_id(call: &Call<'_>) -> Result<u64, Response> {
    call.id.parse().map_err(|_| err_json(400, "bad id"))
}

/// `Ok(())` from the cluster as `{"ok":true}`, an error as its status.
fn ok_or_cluster_err(outcome: Result<(), ClusterError>) -> Response {
    match outcome {
        Ok(()) => Response::json(200, r#"{"ok":true}"#.to_string()),
        Err(e) => cluster_err(e),
    }
}

fn add_texture(cluster: &Cluster, call: &Call<'_>) -> Result<Response, Response> {
    let v = json_body(call.req)?;
    let id = uint_field(&v, "id")?.ok_or_else(|| err_json(400, "missing id"))?;
    let features = parse_features_field(&v, "features")?;
    Ok(match cluster.add_texture(id, &features) {
        Ok(()) => Response::json(
            201,
            Json::obj([("id", Json::Num(id as f64)), ("ok", Json::Bool(true))]).to_string(),
        ),
        Err(e) => cluster_err(e),
    })
}

fn get_texture(cluster: &Cluster, call: &Call<'_>) -> Result<Response, Response> {
    let id = texture_id(call)?;
    Ok(match cluster.get_texture_message(id) {
        Ok((message, count)) => Response::json(
            200,
            Json::obj([
                ("id", Json::Num(id as f64)),
                ("count", Json::Num(count as f64)),
                ("features", Json::Str(b64::encode(&message))),
            ])
            .to_string(),
        ),
        Err(e) => cluster_err(e),
    })
}

fn update_texture(cluster: &Cluster, call: &Call<'_>) -> Result<Response, Response> {
    let id = texture_id(call)?;
    let v = json_body(call.req)?;
    let features = parse_features_field(&v, "features")?;
    Ok(ok_or_cluster_err(cluster.update_texture(id, &features)))
}

fn delete_texture(cluster: &Cluster, call: &Call<'_>) -> Result<Response, Response> {
    Ok(ok_or_cluster_err(cluster.delete_texture(texture_id(call)?)))
}

fn search(cluster: &Cluster, call: &Call<'_>) -> Result<Response, Response> {
    let v = json_body(call.req)?;
    let features = parse_features_field(&v, "features")?;
    let top = uint_field(&v, "top")?.unwrap_or(5) as usize;
    let out = cluster.search_traced(&features, top, Some(call.ctx));
    let results = Json::Arr(
        out.results
            .iter()
            .map(|(id, score)| {
                Json::obj([("id", Json::Num(*id as f64)), ("score", Json::Num(*score as f64))])
            })
            .collect(),
    );
    Ok(Response::json(
        200,
        Json::obj([
            ("results", results),
            ("comparisons", Json::Num(out.comparisons as f64)),
            ("wall_us", Json::Num(out.wall_us)),
            ("images_per_second", Json::Num(out.images_per_second())),
            ("degraded", Json::Bool(out.degraded)),
            ("shards_ok", Json::Num(out.shards_ok as f64)),
            ("shards_failed", Json::Num(out.shards_failed as f64)),
            ("shards_skipped", Json::Num(out.shards_skipped as f64)),
            ("trace_id", Json::Str(call.ctx.trace_id_hex())),
        ])
        .to_string(),
    ))
}

fn verify(cluster: &Cluster, call: &Call<'_>) -> Result<Response, Response> {
    let v = json_body(call.req)?;
    let id = uint_field(&v, "id")?.ok_or_else(|| err_json(400, "missing id"))?;
    let features = parse_features_field(&v, "features")?;
    let min_matches = uint_field(&v, "min_matches")?.unwrap_or(10) as usize;
    let min_inliers = uint_field(&v, "min_inliers")?.unwrap_or(8) as usize;
    Ok(match cluster.verify_traced(id, &features, min_matches, min_inliers, Some(call.ctx)) {
        Ok(r) => Response::json(
            200,
            Json::obj([
                ("id", Json::Num(id as f64)),
                ("accepted", Json::Bool(r.accepted)),
                ("good_matches", Json::Num(r.good_matches as f64)),
                ("geometric_inliers", Json::Num(r.geometric_inliers as f64)),
                ("scale", Json::Num(r.transform_scale as f64)),
                ("rotation_deg", Json::Num(r.transform_rotation.to_degrees() as f64)),
            ])
            .to_string(),
        ),
        Err(e) => cluster_err(e),
    })
}

fn stats(cluster: &Cluster, _: &Call<'_>) -> Result<Response, Response> {
    let s = cluster.stats();
    let wal = match &s.wal {
        Some(w) => Json::obj([
            ("appends", Json::Num(w.appends as f64)),
            ("lost_appends", Json::Num(w.lost_appends as f64)),
            ("torn_appends", Json::Num(w.torn_appends as f64)),
            ("snapshots", Json::Num(w.snapshots as f64)),
            ("since_snapshot", Json::Num(w.since_snapshot as f64)),
            ("wal_bytes", Json::Num(w.wal_bytes as f64)),
            ("snapshot_bytes", Json::Num(w.snapshot_bytes as f64)),
        ]),
        None => Json::Null,
    };
    let drift = Json::Arr(
        s.drift
            .iter()
            .map(|d| {
                Json::obj([
                    ("stage", Json::Str(d.stage.clone())),
                    ("ratio", Json::Num(d.ratio)),
                    ("samples", Json::Num(d.samples as f64)),
                ])
            })
            .collect(),
    );
    Ok(Response::json(
        200,
        Json::obj([
            ("wal", wal),
            ("drift", drift),
            ("containers", Json::Num(s.containers as f64)),
            ("textures", Json::Num(s.textures as f64)),
            ("store_bytes", Json::Num(s.store_bytes as f64)),
            ("capacity_images", Json::Num(s.capacity_images as f64)),
            ("shards_healthy", Json::Num(s.shards_healthy as f64)),
            ("shards_suspect", Json::Num(s.shards_suspect as f64)),
            ("shards_down", Json::Num(s.shards_down as f64)),
            ("total_searches", Json::Num(s.total_searches as f64)),
            ("degraded_searches", Json::Num(s.degraded_searches as f64)),
            ("retries", Json::Num(s.retries as f64)),
            ("faults_injected", Json::Num(s.faults_injected as f64)),
            ("schedule_efficiency", Json::Num(s.schedule_efficiency)),
            ("achieved_tflops", Json::Num(s.achieved_tflops)),
            ("gpu_efficiency", Json::Num(s.gpu_efficiency)),
        ])
        .to_string(),
    ))
}

fn metrics(cluster: &Cluster, _: &Call<'_>) -> Result<Response, Response> {
    // The gauges that mirror state kept elsewhere are brought up to
    // date by the scrape that reads them.
    texid_obs::touch_process_metrics(cluster.registry());
    cluster.refresh_gauges();
    Ok(Response::prometheus(200, cluster.registry().render_prometheus()))
}

fn events(cluster: &Cluster, _: &Call<'_>) -> Result<Response, Response> {
    // JSON Lines, oldest first: tail-friendly, grep-friendly.
    let mut body = String::new();
    for e in cluster.events().snapshot() {
        body.push_str(&event_json(&e).to_string());
        body.push('\n');
    }
    Ok(Response::ndjson(200, body))
}

/// Every objective's burn-rate status (`/slo`, and `/health`'s `slos`).
fn slos_json(cluster: &Cluster) -> Json {
    Json::Arr(
        cluster
            .slo_status()
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("target", Json::Num(s.target)),
                    ("good", Json::Num(s.good as f64)),
                    ("bad", Json::Num(s.bad as f64)),
                    ("short_burn", Json::Num(s.short_burn)),
                    ("long_burn", Json::Num(s.long_burn)),
                    ("budget_remaining", Json::Num(s.budget_remaining)),
                    ("fast_burn", Json::Bool(s.fast_burn)),
                ])
            })
            .collect(),
    )
}

fn slo(cluster: &Cluster, _: &Call<'_>) -> Result<Response, Response> {
    Ok(Response::json(200, Json::obj([("slos", slos_json(cluster))]).to_string()))
}

/// One shard's breaker state (one entry of `/health`'s `shards`).
fn shard_status_json(s: &ShardStatus) -> Json {
    Json::obj([
        ("shard", Json::Num(s.shard as f64)),
        ("health", Json::Str(s.health.as_str().to_string())),
        ("consecutive_failures", Json::Num(s.consecutive_failures as f64)),
        ("total_failures", Json::Num(s.total_failures as f64)),
        ("probes", Json::Num(s.probes as f64)),
    ])
}

fn health(cluster: &Cluster, _: &Call<'_>) -> Result<Response, Response> {
    let shards = cluster.health();
    let healthy = shards.iter().filter(|s| s.health == ShardHealth::Healthy).count();
    let serving = shards.iter().filter(|s| s.health != ShardHealth::Down).count();
    // 503 only when no shard can serve a search at all.
    let (status, verdict) = if serving == 0 {
        (503, "unavailable")
    } else if healthy == shards.len() {
        (200, "ok")
    } else {
        (200, "degraded")
    };
    // Durability posture rides along so "shard won't heal" triage
    // starts from one endpoint (OBSERVABILITY.md runbook).
    let w = cluster.refresh_gauges();
    let store = Json::obj([
        ("durable", Json::Bool(true)),
        ("wal_appends", Json::Num(w.appends as f64)),
        ("wal_bytes", Json::Num(w.wal_bytes as f64)),
        ("snapshots", Json::Num(w.snapshots as f64)),
    ]);
    Ok(Response::json(
        status,
        Json::obj([
            ("status", Json::Str(verdict.to_string())),
            ("store", store),
            // SLO burn status rides along too: "are we paging" and "is a
            // shard down" are the same triage conversation.
            ("slos", slos_json(cluster)),
            ("shards", Json::Arr(shards.iter().map(shard_status_json).collect())),
        ])
        .to_string(),
    ))
}

fn heal(cluster: &Cluster, call: &Call<'_>) -> Result<Response, Response> {
    let r = cluster.heal_traced(Some(call.ctx)).map_err(cluster_err)?;
    let shards = Json::Arr(
        r.shards
            .iter()
            .map(|s| {
                Json::obj([
                    ("shard", Json::Num(s.shard as f64)),
                    ("records_replayed", Json::Num(s.records_replayed as f64)),
                    ("records_quarantined", Json::Num(s.records_quarantined as f64)),
                    ("replay_wall_us", Json::Num(s.replay_wall_us)),
                ])
            })
            .collect(),
    );
    let quarantined = Json::Arr(
        r.quarantined
            .iter()
            .map(|q| {
                Json::obj([
                    ("id", Json::Num(q.id as f64)),
                    ("reason", Json::Str(q.reason.as_str().to_string())),
                ])
            })
            .collect(),
    );
    let replay = match &r.replay {
        Some(s) => Json::obj([
            ("snapshot_entries", Json::Num(s.snapshot_entries as f64)),
            (
                "snapshot_error",
                s.snapshot_error.as_ref().map_or(Json::Null, |e| Json::Str(e.clone())),
            ),
            ("wal_records_applied", Json::Num(s.wal_records_applied as f64)),
            ("wal_corrupt_skipped", Json::Num(s.wal_corrupt_skipped as f64)),
            ("wal_torn_tail_bytes", Json::Num(s.wal_torn_tail_bytes as f64)),
            ("wal_bytes_scanned", Json::Num(s.wal_bytes_scanned as f64)),
        ]),
        None => Json::Null,
    };
    Ok(Response::json(
        200,
        Json::obj([
            ("healed", Json::Arr(r.healed.iter().map(|s| Json::Num(*s as f64)).collect())),
            ("restored", Json::Num(r.restored as f64)),
            ("quarantined", quarantined),
            ("shards", shards),
            ("replay", replay),
        ])
        .to_string(),
    ))
}

fn trace(cluster: &Cluster, call: &Call<'_>) -> Result<Response, Response> {
    let trace_id = TraceContext::parse_trace_id(call.id)
        .ok_or_else(|| err_json(400, "bad trace id (expected 1-32 hex digits, not all zero)"))?;
    let spans = cluster.trace_ring().snapshot_trace(trace_id);
    if spans.is_empty() {
        let msg = "unknown trace id (never recorded, or evicted from the ring)";
        return Err(err_json(404, msg));
    }
    Ok(Response::json(200, trace_json(trace_id, &spans).to_string()))
}

fn traces(cluster: &Cluster, _: &Call<'_>) -> Result<Response, Response> {
    let ring = cluster.trace_ring();
    let traces: Vec<Json> = ring
        .recent_traces(50)
        .iter()
        .map(|t| {
            Json::obj([
                ("trace_id", Json::Str(format!("{:032x}", t.trace_id))),
                ("root", t.root.clone().map(Json::Str).unwrap_or(Json::Null)),
                ("start_us", Json::Num(t.start_us)),
                ("dur_us", Json::Num(t.dur_us)),
                ("spans", Json::Num(t.spans as f64)),
            ])
        })
        .collect();
    Ok(Response::json(
        200,
        Json::obj([
            ("traces", Json::Arr(traces)),
            ("ring_capacity", Json::Num(ring.capacity() as f64)),
            ("dropped_events", Json::Num(ring.dropped() as f64)),
        ])
        .to_string(),
    ))
}

/// Spawn the REST service bound to `addr` (use `127.0.0.1:0` in tests),
/// with the default worker pool, its queue-depth gauge in the cluster's
/// registry.
pub fn serve(cluster: Arc<Cluster>, addr: &str) -> std::io::Result<HttpServer> {
    let registry = cluster.registry().clone();
    let handler = Arc::new(move |req: &Request| handle(&cluster, req));
    HttpServer::spawn(addr, handler, PoolConfig::default(), &registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::http::http_call;
    use texid_core::EngineConfig;
    use texid_image::TextureGenerator;
    use texid_sift::{extract, SiftConfig};

    fn test_config() -> ClusterConfig {
        ClusterConfig {
            containers: 2,
            engine: EngineConfig {
                m_ref: 128,
                n_query: 256,
                batch_size: 2,
                streams: 1,
                ..EngineConfig::default()
            },
            ..ClusterConfig::default()
        }
    }

    fn test_cluster() -> Arc<Cluster> {
        Arc::new(Cluster::new(test_config()))
    }

    fn features_b64(seed: u64, n: usize) -> String {
        let im = TextureGenerator::with_size(128).generate(seed);
        let f = extract(&im, &SiftConfig { max_features: n, ..SiftConfig::default() });
        b64::encode(&wire::encode_features(&f))
    }

    #[test]
    fn rest_end_to_end() {
        let cluster = test_cluster();
        let server = serve(cluster, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        // Add three textures.
        for id in 0..3u64 {
            let body = format!(r#"{{"id": {id}, "features": "{}"}}"#, features_b64(id, 128));
            let resp = http_call(addr, "POST", "/textures", body.as_bytes()).unwrap();
            assert_eq!(resp.status, 201, "{}", resp.text());
        }

        // Stats reflect them.
        let stats = http_call(addr, "GET", "/stats", b"").unwrap();
        assert!(stats.text().contains(r#""textures":3"#), "{}", stats.text());

        // Search finds the right one.
        let body = format!(r#"{{"features": "{}", "top": 2}}"#, features_b64(1, 256));
        let resp = http_call(addr, "POST", "/search", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 200);
        let v = parse(&resp.text()).unwrap();
        let results = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results[0].get("id").unwrap().as_u64(), Some(1), "{}", resp.text());

        // Fetch, update, delete.
        let got = http_call(addr, "GET", "/textures/1", b"").unwrap();
        assert_eq!(got.status, 200);
        let body = format!(r#"{{"features": "{}"}}"#, features_b64(1, 128));
        assert_eq!(http_call(addr, "PUT", "/textures/1", body.as_bytes()).unwrap().status, 200);
        assert_eq!(http_call(addr, "DELETE", "/textures/1", b"").unwrap().status, 200);
        assert_eq!(http_call(addr, "DELETE", "/textures/1", b"").unwrap().status, 404);
        assert_eq!(http_call(addr, "GET", "/textures/1", b"").unwrap().status, 404);
    }

    #[test]
    fn verify_endpoint() {
        let cluster = test_cluster();
        let server = serve(cluster, "127.0.0.1:0").unwrap();
        let addr = server.addr();
        for id in 0..2u64 {
            let body = format!(r#"{{"id": {id}, "features": "{}"}}"#, features_b64(id, 128));
            http_call(addr, "POST", "/textures", body.as_bytes()).unwrap();
        }
        // Genuine claim (the exact enrolled image matches itself strongly).
        let body = format!(r#"{{"id": 0, "features": "{}"}}"#, features_b64(0, 256));
        let resp = http_call(addr, "POST", "/verify", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.text().contains(r#""accepted":true"#), "{}", resp.text());
        // Wrong claim.
        let body = format!(r#"{{"id": 1, "features": "{}"}}"#, features_b64(0, 256));
        let resp = http_call(addr, "POST", "/verify", body.as_bytes()).unwrap();
        assert!(resp.text().contains(r#""accepted":false"#), "{}", resp.text());
        // Unknown claim.
        let body = format!(r#"{{"id": 42, "features": "{}"}}"#, features_b64(0, 128));
        assert_eq!(http_call(addr, "POST", "/verify", body.as_bytes()).unwrap().status, 404);
    }

    /// One request through [`handle`], in process.
    fn call(
        cluster: &Cluster,
        method: &str,
        path: &str,
        tid: Option<&str>,
        body: String,
    ) -> Response {
        let headers = tid.map(|t| (TRACE_HEADER.to_ascii_lowercase(), t.to_string()));
        let (method, path, body) = (method.to_string(), path.to_string(), body.into_bytes());
        handle(cluster, &Request { method, path, headers: headers.into_iter().collect(), body })
    }

    /// A texture stored with 0, 1 or 2 features verifies like any other:
    /// the stored block is padded to two columns for the ratio test.
    #[test]
    fn verify_against_a_texture_of_fewer_than_two_features_answers() {
        let cluster = test_cluster();
        let im = TextureGenerator::with_size(128).generate(5);
        let features = extract(&im, &SiftConfig { max_features: 128, ..SiftConfig::default() });
        let query = b64::encode(&wire::encode_features(&features));
        for k in 0..3u64 {
            let stored = b64::encode(&wire::encode_features(&features.truncated(k as usize)));
            let body = format!(r#"{{"id": {k}, "features": "{stored}"}}"#);
            assert_eq!(call(&cluster, "POST", "/textures", None, body).status, 201);
            let body = format!(r#"{{"id": {k}, "features": "{query}"}}"#);
            let resp = call(&cluster, "POST", "/verify", None, body);
            assert_eq!(resp.status, 200, "{k} features: {}", resp.text());
            let v = parse(&resp.text()).unwrap();
            let good = v.get("good_matches").and_then(Json::as_f64).unwrap();
            // The query holds the stored features themselves.
            assert_eq!(good == 0.0, k == 0, "{k} features: {}", resp.text());
        }
    }

    /// A traced `/verify` records one wall-clock `verify.sweep` span under
    /// its request span, tagged with its chunks and the chunks a pool
    /// worker ran; `/trace/{id}` serves it and the Perfetto export keeps it.
    #[test]
    fn a_traced_verify_records_its_sweep_under_the_request_span() {
        let cluster = test_cluster();
        let body = format!(r#"{{"id": 0, "features": "{}"}}"#, features_b64(0, 128));
        assert_eq!(call(&cluster, "POST", "/textures", None, body).status, 201);
        let tid = "0000000000000000000000000000ab5e";
        let body = format!(r#"{{"id": 0, "features": "{}"}}"#, features_b64(0, 256));
        let resp = call(&cluster, "POST", "/verify", Some(tid), body);
        assert!(resp.text().contains(r#""accepted":true"#), "{}", resp.text());

        let resp = call(&cluster, "GET", &format!("/trace/{tid}"), None, String::new());
        assert_eq!(resp.status, 200, "{}", resp.text());
        let v = parse(&resp.text()).unwrap();
        let name = |node: &Json| node.get("name").and_then(Json::as_str).map(str::to_string);
        let roots = v.get("spans").and_then(Json::as_arr).unwrap();
        let root = roots.iter().find(|r| name(r).as_deref() == Some("POST /verify")).expect("root");
        let kids = root.get("children").and_then(Json::as_arr).unwrap();
        let sweeps: Vec<_> =
            kids.iter().filter(|k| name(k).as_deref() == Some("verify.sweep")).collect();
        assert_eq!(sweeps.len(), 1, "{}", resp.text());
        assert_eq!(sweeps[0].get("clock").and_then(Json::as_str), Some("wall"));
        let tag = |key: &str| -> usize {
            let tags = sweeps[0].get("tags").unwrap();
            tags.get(key).and_then(Json::as_str).unwrap().parse().unwrap()
        };
        let n = wire::decode_features(&b64::decode(&features_b64(0, 256)).unwrap()).unwrap().len();
        assert_eq!(tag("chunks"), n.div_ceil(texid_linalg::kernel::NC));
        assert!(tag("helped") <= tag("chunks"));

        let mut chrome = texid_obs::ChromeTrace::new();
        chrome.add_spans(&trace_spans(&v).unwrap());
        assert!(chrome.to_json().contains("verify.sweep"));
    }

    #[test]
    fn rejects_malformed_requests() {
        let cluster = test_cluster();
        let server = serve(cluster, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        assert_eq!(http_call(addr, "POST", "/textures", b"not json").unwrap().status, 400);
        assert_eq!(
            http_call(addr, "POST", "/textures", br#"{"features": "AA=="}"#).unwrap().status,
            400
        ); // missing id
        assert_eq!(
            http_call(addr, "POST", "/textures", br#"{"id": 1, "features": "!!"}"#)
                .unwrap()
                .status,
            400
        ); // bad base64
        assert_eq!(http_call(addr, "GET", "/nope", b"").unwrap().status, 404);
        assert_eq!(http_call(addr, "PATCH", "/stats", b"").unwrap().status, 405);
        assert_eq!(http_call(addr, "GET", "/textures/abc", b"").unwrap().status, 400);
        assert_eq!(http_call(addr, "POST", "/health", b"").unwrap().status, 405);
        assert_eq!(http_call(addr, "GET", "/heal", b"").unwrap().status, 405);
    }

    #[test]
    fn numeric_fields_are_exact_integers_or_refused() {
        let cluster = test_cluster();
        let server = serve(cluster, "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let features = features_b64(0, 128);
        let textures = || {
            let stats = http_call(addr, "GET", "/stats", b"").unwrap();
            parse(&stats.text()).unwrap().get("textures").and_then(Json::as_u64)
        };

        // 2^53 + 1 parses to the f64 2^53: it would be stored as another id.
        let body = format!(r#"{{"id": 9007199254740993, "features": "{features}"}}"#);
        let resp = http_call(addr, "POST", "/textures", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 400, "{}", resp.text());
        assert_eq!(textures(), Some(0), "nothing stored");

        // 2^53 - 1 is exact and round-trips.
        let body = format!(r#"{{"id": 9007199254740991, "features": "{features}"}}"#);
        let resp = http_call(addr, "POST", "/textures", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
        assert!(resp.text().contains(r#""id":9007199254740991"#), "{}", resp.text());
        let resp = http_call(addr, "GET", "/textures/9007199254740991", b"").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(textures(), Some(1));

        // A present field that is not such an integer is refused, not
        // defaulted; an absent one keeps its default.
        for (path, field, value) in [
            ("/search", "top", "-1"),
            ("/search", "top", "1.5"),
            ("/verify", "id", "-1"),
            ("/verify", "min_matches", "-1"),
            ("/verify", "min_inliers", "2.5"),
        ] {
            let body =
                format!(r#"{{"id": 9007199254740991, "features": "{features}", "{field}": {value}}}"#);
            let resp = http_call(addr, "POST", path, body.as_bytes()).unwrap();
            assert_eq!(resp.status, 400, "{path} {field}: {value} -> {}", resp.text());
        }
        for path in ["/search", "/verify"] {
            let body = format!(r#"{{"id": 9007199254740991, "features": "{features}"}}"#);
            assert_eq!(http_call(addr, "POST", path, body.as_bytes()).unwrap().status, 200, "{path}");
        }
    }

    #[test]
    fn descriptors_of_the_wrong_dimension_are_refused_by_every_route() {
        let cluster = test_cluster();
        let server = serve(cluster.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        for id in 0..4u64 {
            let body = format!(r#"{{"id": {id}, "features": "{}"}}"#, features_b64(id, 128));
            assert_eq!(http_call(addr, "POST", "/textures", body.as_bytes()).unwrap().status, 201);
        }

        // A well-formed payload of 64-d descriptors: enrolled, it would take
        // its shard out of every later search; as a query, it would take
        // the worker that served it.
        let narrow = texid_linalg::Mat::from_fn(64, 16, |r, c| ((r + 3 * c) % 7) as f32 * 0.1);
        let narrow = b64::encode(&wire::encode_features(&FeatureMatrix::from_mat(narrow, true)));
        for (method, path, body) in [
            ("POST", "/textures", format!(r#"{{"id": 9, "features": "{narrow}"}}"#)),
            ("PUT", "/textures/1", format!(r#"{{"features": "{narrow}"}}"#)),
            ("POST", "/search", format!(r#"{{"features": "{narrow}"}}"#)),
            ("POST", "/verify", format!(r#"{{"id": 1, "features": "{narrow}"}}"#)),
        ] {
            let resp = http_call(addr, method, path, body.as_bytes()).unwrap();
            assert_eq!(resp.status, 400, "{method} {path}: {}", resp.text());
            assert!(resp.text().contains("64-dimensional"), "{}", resp.text());
        }
        assert_eq!(cluster.len(), 4);

        let body = format!(r#"{{"features": "{}", "top": 2}}"#, features_b64(1, 256));
        let resp = http_call(addr, "POST", "/search", body.as_bytes()).unwrap();
        let v = parse(&resp.text()).unwrap();
        assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(false), "{}", resp.text());
        assert_eq!(v.get("comparisons").and_then(Json::as_u64), Some(4), "{}", resp.text());
    }

    /// RFC 8259 §7: a raw control character inside a string is malformed
    /// JSON, refused before the payload reaches a shard. Between tokens the
    /// same bytes are whitespace.
    #[test]
    fn a_raw_control_character_in_a_string_is_a_400_between_tokens_whitespace() {
        let cluster = Arc::new(Cluster::new(test_config()));
        let server = serve(cluster.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        for id in 0..2u64 {
            let body = format!(r#"{{"id": {id}, "features": "{}"}}"#, features_b64(id, 128));
            assert_eq!(http_call(addr, "POST", "/textures", body.as_bytes()).unwrap().status, 201);
        }
        let features = features_b64(0, 256);
        let (head, tail) = features.split_at(features.len() / 2);
        let body = format!("{{\"features\": \"{head}\n{tail}\", \"top\": 2}}");
        let resp = http_call(addr, "POST", "/search", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 400, "{}", resp.text());
        let at = 14 + head.len();
        let why = format!("JSON error at byte {at}: control character in string");
        assert!(resp.text().contains(&why), "{}", resp.text());
        assert_eq!(cluster.stats().total_searches, 0);

        let body = format!("{{\n\t\"features\" :\r\n \"{features}\",\n\"top\": 2\n}}\n");
        let resp = http_call(addr, "POST", "/search", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(cluster.stats().total_searches, 1);
    }

    #[test]
    fn unstorable_descriptors_are_a_400_and_nothing_is_stored() {
        let cluster = test_cluster();
        let server = serve(cluster.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let body = format!(r#"{{"id": 0, "features": "{}"}}"#, features_b64(0, 64));
        assert_eq!(http_call(addr, "POST", "/textures", body.as_bytes()).unwrap().status, 201);
        let stored = http_call(addr, "GET", "/textures/0", b"").unwrap().text();

        let s = cluster.config().engine.matching.scale;
        let with = |bad: f32| {
            let m = texid_linalg::Mat::from_fn(128, 8, |r, c| if (r, c) == (3, 5) { bad } else { 0.05 });
            b64::encode(&wire::encode_features(&FeatureMatrix::from_mat(m, true)))
        };
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 65_505.0 / s] {
            let payload = with(bad);
            for (method, path, body) in [
                ("POST", "/textures", format!(r#"{{"id": 1, "features": "{payload}"}}"#)),
                ("PUT", "/textures/0", format!(r#"{{"features": "{payload}"}}"#)),
            ] {
                let resp = http_call(addr, method, path, body.as_bytes()).unwrap();
                assert_eq!(resp.status, 400, "{method} {path} ({bad}): {}", resp.text());
                assert!(resp.text().contains("cannot be stored"), "{}", resp.text());
            }
        }
        assert_eq!(cluster.len(), 1);
        assert_eq!(http_call(addr, "GET", "/textures/1", b"").unwrap().status, 404);
        assert_eq!(http_call(addr, "GET", "/textures/0", b"").unwrap().text(), stored);

        // A query is not refused: a non-finite component never counts.
        let body = format!(r#"{{"features": "{}"}}"#, with(f32::NAN));
        assert_eq!(http_call(addr, "POST", "/search", body.as_bytes()).unwrap().status, 200);
    }

    #[test]
    fn a_texture_reads_back_as_the_stored_f16_message() {
        let cluster = test_cluster();
        let server = serve(cluster.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let sent = features_b64(3, 64);
        let body = format!(r#"{{"id": 3, "features": "{sent}"}}"#);
        assert_eq!(http_call(addr, "POST", "/textures", body.as_bytes()).unwrap().status, 201);

        let v = parse(&http_call(addr, "GET", "/textures/3", b"").unwrap().text()).unwrap();
        let got = b64::decode(v.get("features").and_then(Json::as_str).unwrap()).unwrap();
        assert_eq!(Some(&got), cluster.store().get("tex:00000000000000000003").as_ref(), "as stored");
        let stored = wire::decode_block(&got).unwrap();
        let original = wire::decode_features(&b64::decode(&sent).unwrap()).unwrap();
        let s = cluster.config().engine.matching.scale;
        match &stored.block {
            texid_knn::FeatureBlock::F16 { mat, scale } => {
                assert_eq!((mat, *scale), (&original.mat.to_f16_scaled(s), s));
            }
            other => panic!("stored {:?}, not f16", other.precision()),
        }
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(original.len() as u64));
        assert_eq!(stored.keypoints, original.keypoints);
        // Half the f32 payload, give or take the framing.
        assert!(got.len() < b64::decode(&sent).unwrap().len() * 6 / 10);
    }

    #[test]
    fn a_deeply_nested_body_is_a_400_and_the_server_keeps_serving() {
        let server = serve(test_cluster(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        // Unbounded, the parser's recursion overflowed the worker's stack
        // here, and a stack overflow aborts the whole process.
        let resp = http_call(addr, "POST", "/search", "[".repeat(10_000).as_bytes()).unwrap();
        assert_eq!(resp.status, 400, "{}", resp.text());
        assert!(resp.text().contains("nested too deep"), "{}", resp.text());
        assert_eq!(http_call(addr, "GET", "/health", b"").unwrap().status, 200);
    }

    #[test]
    fn a_body_that_is_not_utf8_is_refused_not_repaired() {
        let cluster = test_cluster();
        let server = serve(cluster.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        // Valid JSON but for one 0xFF inside a string field the route never
        // reads: a lossy repair would enroll the texture.
        let enroll = |note: &[u8]| {
            let mut body = br#"{"id": 7, "note": ""#.to_vec();
            body.extend_from_slice(note);
            let rest = format!(r#"", "features": "{}"}}"#, features_b64(7, 128));
            body.extend_from_slice(rest.as_bytes());
            http_call(addr, "POST", "/textures", &body).unwrap()
        };
        let resp = enroll(b"caf\xff");
        assert_eq!(resp.status, 400, "{}", resp.text());
        assert!(resp.text().contains("body is not valid UTF-8"), "{}", resp.text());
        assert_eq!(cluster.len(), 0, "nothing was stored");

        // The same body with the byte in UTF-8 is enrolled.
        assert_eq!(enroll("caf\u{e9}".as_bytes()).status, 201);
        assert_eq!(cluster.len(), 1);
    }

    #[test]
    fn head_and_allow_semantics() {
        let cluster = test_cluster();
        let server = serve(cluster, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        // HEAD mirrors GET: same status and Content-Length, empty body.
        let get = http_call(addr, "GET", "/stats", b"").unwrap();
        let head = http_call(addr, "HEAD", "/stats", b"").unwrap();
        assert_eq!(head.status, 200);
        assert!(head.body.is_empty());
        assert_eq!(
            head.header("content-length").unwrap(),
            get.body.len().to_string(),
            "HEAD must announce the GET body length"
        );

        // HEAD works on /metrics and /health too.
        assert_eq!(http_call(addr, "HEAD", "/metrics", b"").unwrap().status, 200);
        assert_eq!(http_call(addr, "HEAD", "/health", b"").unwrap().status, 200);

        // Every row of the table: each method the table does not list for
        // the row's path is a 405 whose `Allow` is exactly the methods it
        // does list — sorted, `HEAD` beside `GET`.
        let mut allows = std::collections::BTreeSet::new();
        for row in &ROUTES {
            let mut listed: Vec<&str> =
                ROUTES.iter().filter(|r| r.path == row.path).map(|r| r.method).collect();
            if listed.contains(&"GET") {
                listed.push("HEAD");
            }
            listed.sort_unstable();
            let allow = listed.join(", ");
            let path = row.path.replace("{id}", "1");
            for method in ["GET", "HEAD", "POST", "PUT", "DELETE", "PATCH"] {
                if listed.contains(&method) {
                    continue;
                }
                let resp = http_call(addr, method, &path, b"{}").unwrap();
                assert_eq!(resp.status, 405, "{method} {path}");
                assert_eq!(resp.header("allow"), Some(allow.as_str()), "{method} {path}");
            }
            allows.insert(allow);
        }
        // The strings themselves, so the derivation cannot drift with the test.
        assert_eq!(
            allows.into_iter().collect::<Vec<_>>(),
            ["DELETE, GET, HEAD, PUT", "GET, HEAD", "POST"]
        );
        // Unknown paths stay 404 with no Allow.
        for path in ["/nope", "/textures/1/extra", "/trace"] {
            let resp = http_call(addr, "PATCH", path, b"").unwrap();
            assert_eq!(resp.status, 404, "{path}");
            assert_eq!(resp.header("allow"), None, "{path}");
        }
    }

    #[test]
    fn heal_reports_replay_stats_and_wal_rides_stats_and_health() {
        use crate::faults::FaultPlan;

        // 4 ids round-robin over 2 shards; id 3 lands on shard 1. Tear its
        // WAL append (the final one) and crash shard 1 on the next search.
        let plan = FaultPlan::new(88).tear_wal_append_after(3).crash_shard(1);
        let cluster = Arc::new(Cluster::with_faults(test_config(), Some(plan)));
        let server = serve(cluster, "127.0.0.1:0").unwrap();
        let addr = server.addr();
        for id in 0..4u64 {
            let body = format!(r#"{{"id": {id}, "features": "{}"}}"#, features_b64(id, 128));
            assert_eq!(http_call(addr, "POST", "/textures", body.as_bytes()).unwrap().status, 201);
        }

        // /stats carries the WAL counters while the store is durable.
        let stats = http_call(addr, "GET", "/stats", b"").unwrap();
        let v = parse(&stats.text()).unwrap();
        let wal = v.get("wal").expect("durable store exposes wal stats");
        assert_eq!(wal.get("appends").and_then(Json::as_u64), Some(4), "{}", stats.text());
        assert_eq!(wal.get("torn_appends").and_then(Json::as_u64), Some(1), "{}", stats.text());

        // /health reports durability posture.
        let health = http_call(addr, "GET", "/health", b"").unwrap();
        let v = parse(&health.text()).unwrap();
        let store = v.get("store").expect("health exposes store section");
        assert_eq!(store.get("durable"), Some(&Json::Bool(true)), "{}", health.text());

        // Crash the shard, then heal over REST and check the replay body.
        let body = format!(r#"{{"features": "{}", "top": 2}}"#, features_b64(0, 256));
        let resp = http_call(addr, "POST", "/search", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.text().contains(r#""degraded":true"#), "{}", resp.text());

        let resp = http_call(addr, "POST", "/heal", b"").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let v = parse(&resp.text()).unwrap();
        let text = resp.text();
        assert_eq!(v.get("restored").and_then(Json::as_u64), Some(1), "{text}");
        let quarantined = v.get("quarantined").unwrap().as_arr().unwrap();
        assert_eq!(quarantined.len(), 1, "{text}");
        assert_eq!(quarantined[0].get("id").and_then(Json::as_u64), Some(3), "{text}");
        assert_eq!(quarantined[0].get("reason").and_then(Json::as_str), Some("missing"), "{text}");
        let shards = v.get("shards").unwrap().as_arr().unwrap();
        assert_eq!(shards.len(), 1, "{text}");
        assert_eq!(shards[0].get("shard").and_then(Json::as_u64), Some(1), "{text}");
        assert_eq!(shards[0].get("records_replayed").and_then(Json::as_u64), Some(1), "{text}");
        assert_eq!(shards[0].get("records_quarantined").and_then(Json::as_u64), Some(1), "{text}");
        let replay = v.get("replay").expect("durable heal carries replay stats");
        assert_eq!(replay.get("wal_records_applied").and_then(Json::as_u64), Some(3), "{text}");
        assert!(replay.get("wal_torn_tail_bytes").and_then(Json::as_u64).unwrap() > 0, "{text}");
        assert_eq!(replay.get("snapshot_error"), Some(&Json::Null), "{text}");

        // The torn id is gone; the healed shard serves the rest.
        assert_eq!(http_call(addr, "GET", "/textures/3", b"").unwrap().status, 404);
        assert_eq!(http_call(addr, "GET", "/textures/1", b"").unwrap().status, 200);
    }

    #[test]
    fn trace_routes_serve_span_trees() {
        use crate::http::http_call_with_headers;
        let cluster = test_cluster();
        let server = serve(cluster, "127.0.0.1:0").unwrap();
        let addr = server.addr();
        for id in 0..2u64 {
            let body = format!(r#"{{"id": {id}, "features": "{}"}}"#, features_b64(id, 128));
            http_call(addr, "POST", "/textures", body.as_bytes()).unwrap();
        }

        // Search with a caller-chosen trace id.
        let tid = "00000000000000000000000000abc123";
        let body = format!(r#"{{"features": "{}", "top": 2}}"#, features_b64(0, 256));
        let resp = http_call_with_headers(
            addr,
            "POST",
            "/search",
            &[("X-Texid-Trace-Id", tid)],
            body.as_bytes(),
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-texid-trace-id"), Some(tid), "header echoed");
        let v = parse(&resp.text()).unwrap();
        assert_eq!(v.get("trace_id").and_then(Json::as_str), Some(tid), "{}", resp.text());

        // The span tree is retrievable and rooted at the request span.
        let resp = http_call(addr, "GET", &format!("/trace/{tid}"), b"").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let v = parse(&resp.text()).unwrap();
        assert_eq!(v.get("trace_id").and_then(Json::as_str), Some(tid));
        let roots = v.get("spans").unwrap().as_arr().unwrap();
        let root = roots
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some("POST /search"))
            .expect("request root span");
        assert_eq!(root.get("clock").and_then(Json::as_str), Some("wall"));
        let kids = root.get("children").unwrap().as_arr().unwrap();
        let cluster_span = kids
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some("cluster.search"))
            .expect("cluster.search child");
        let legs = cluster_span.get("children").unwrap().as_arr().unwrap();
        assert_eq!(legs.len(), 2, "one leg per shard: {}", resp.text());
        // Each leg carries sim-clock stage children on a separate track.
        for leg in legs {
            let stages = leg.get("children").unwrap().as_arr().unwrap();
            assert!(stages
                .iter()
                .any(|s| s.get("clock").and_then(Json::as_str) == Some("sim")));
        }

        // The index lists the trace; unknown/invalid ids 404/400.
        let resp = http_call(addr, "GET", "/traces", b"").unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.text().contains(tid), "{}", resp.text());
        assert!(resp.text().contains("\"dropped_events\""));
        assert_eq!(http_call(addr, "GET", "/trace/ffffffffffffffff", b"").unwrap().status, 404);
        assert_eq!(http_call(addr, "GET", "/trace/not-hex!", b"").unwrap().status, 400);

        // The dropped counter is registered and scrapeable.
        let metrics = http_call(addr, "GET", "/metrics", b"").unwrap();
        assert!(
            metrics.text().contains("texid_trace_events_dropped_total"),
            "dropped counter must be exported"
        );
    }

    fn span(ids: (u64, u64), name: &str, clock: Clock, start_us: f64, dur_us: f64) -> SpanRecord {
        let tag = |k: &str, v: &str| (k.to_string(), v.to_string());
        SpanRecord {
            trace_id: 0xfeed_0000_0000_0000_0000_0000_0000_0001,
            span_id: ids.0,
            parent_id: ids.1,
            name: name.to_string(),
            clock,
            start_us,
            dur_us,
            tags: vec![tag("shard", "1"), tag("track", "t")],
        }
    }

    /// `trace_spans` inverts the `/trace` body through text: every id,
    /// clock and tag, and every time to the bit (`{:?}` prints an `f64`'s
    /// shortest round-trip digits, so equal text is equal bits).
    #[test]
    fn trace_spans_inverts_the_trace_body() {
        let spans = vec![
            span((1, 0), "POST /search", Clock::Wall, 12.5, 0.1 + 0.2),
            span((u64::MAX, 1), "cluster.search", Clock::Wall, 13.0, 1.0 / 3.0),
            span((3, u64::MAX), "hgemm", Clock::Sim, 0.0, 5e-324),
            span((4, u64::MAX), "top2", Clock::Sim, 7.25, 1e300),
            // An orphan (its parent evicted) comes back as a root.
            span((5, 99), "retry", Clock::Wall, 20.0, 0.0),
        ];
        let body = parse(&trace_json(spans[0].trace_id, &spans).to_string()).unwrap();
        assert_eq!(format!("{:?}", trace_spans(&body)), format!("{:?}", Ok::<_, String>(spans)));
    }

    #[test]
    fn trace_spans_refuses_malformed_trees() {
        let spans = [
            span((1, 0), "POST /search", Clock::Wall, 1.0, 2.0),
            span((2, 1), "hgemm", Clock::Sim, 0.0, 3.0),
        ];
        let good = trace_json(spans[0].trace_id, &spans).to_string();
        assert_eq!(trace_spans(&parse(&good).unwrap()).map(|v| v.len()), Ok(2));
        let child = r#""span_id":"0000000000000002""#;
        for (from, to, why) in [
            (r#""trace_id":"feed"#, r#""trace_id":"+eed"#, "missing or bad trace_id"),
            (r#""clock":"sim""#, r#""clock":"gpu""#, r#"unknown clock "gpu""#),
            (child, r#""span_id":"00000000000000g2""#, r#"bad span_id "00000000000000g2""#),
            (child, r#""span_id":"+000000000000002""#, r#"bad span_id "+000000000000002""#),
            (child, r#""span_id":"02""#, r#"bad span_id "02""#),
            (child, r#""span_id":2"#, "span without span_id"),
            (r#""dur_us":3"#, r#""dur_us":"3""#, "span without dur_us"),
            (r#""name":"hgemm""#, r#""nom":"hgemm""#, "span without name"),
            (r#""shard":"1""#, r#""shard":1"#, r#"tag "shard" is not a string"#),
            (r#""spans":["#, r#""spams":["#, "missing spans"),
        ] {
            assert!(good.contains(from), "{from}");
            let bad = parse(&good.replacen(from, to, 1)).unwrap();
            assert_eq!(trace_spans(&bad).map(|v| v.len()), Err(why.to_string()), "{to}");
        }
        let no_children = parse(&good.replacen(r#""children":[]"#, r#""kids":[]"#, 1)).unwrap();
        let why = "span without children".to_string();
        assert_eq!(trace_spans(&no_children).map(|v| v.len()), Err(why));
        assert!(trace_spans(&Json::Null).is_err());
        assert!(trace_spans(&parse(r#"{"trace_id":"1","spans":[1]}"#).unwrap()).is_err());
    }

    /// The all-zero trace id is no id: the edge mints a fresh root, whose
    /// id the response echoes and the wide event files.
    #[test]
    fn zero_trace_header_gets_a_fresh_id() {
        use crate::http::http_call_with_headers;
        let server = serve(test_cluster(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        for id in 0..2u64 {
            let body = format!(r#"{{"id": {id}, "features": "{}"}}"#, features_b64(id, 128));
            http_call(addr, "POST", "/textures", body.as_bytes()).unwrap();
        }
        let body = format!(r#"{{"features": "{}", "top": 2}}"#, features_b64(0, 256));
        let resp =
            http_call_with_headers(addr, "POST", "/search", &[(TRACE_HEADER, "0")], body.as_bytes())
                .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let tid = resp.header("x-texid-trace-id").unwrap().to_string();
        assert!(TraceContext::parse_trace_id(&tid).is_some(), "fresh non-zero id, got {tid}");
        let v = parse(&resp.text()).unwrap();
        assert_eq!(v.get("trace_id").and_then(Json::as_str), Some(tid.as_str()));
        let events = http_call(addr, "GET", "/events", b"").unwrap().text();
        assert!(events.contains(&format!(r#""trace_id":"{tid}""#)), "{events}");
        for zero in ["0".to_string(), "0".repeat(32)] {
            let resp = http_call(addr, "GET", &format!("/trace/{zero}"), b"").unwrap();
            assert_eq!(resp.status, 400, "{}", resp.text());
        }
    }

    #[test]
    fn events_slo_and_drift_routes() {
        let cluster = test_cluster();
        let server = serve(cluster, "127.0.0.1:0").unwrap();
        let addr = server.addr();
        for id in 0..2u64 {
            let body = format!(r#"{{"id": {id}, "features": "{}"}}"#, features_b64(id, 128));
            http_call(addr, "POST", "/textures", body.as_bytes()).unwrap();
        }
        let body = format!(r#"{{"features": "{}", "top": 2}}"#, features_b64(0, 256));
        assert_eq!(http_call(addr, "POST", "/search", body.as_bytes()).unwrap().status, 200);

        // /events streams the cluster's flight recorder as JSON Lines: its
        // one search filed one wide event.
        let resp = http_call(addr, "GET", "/events", b"").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("application/x-ndjson"));
        let text = resp.text();
        let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), 1, "{text}");
        // Exactly 22 keys per line: 17 fields and the five stages.
        let mut keys = vec![
            "seq", "trace_id", "start_us", "wall_elapsed_us", "sim_wall_us", "comparisons",
            "shards_ok", "shards_failed", "shards_skipped", "degraded", "outcome", "coalesced",
            "device_batches", "host_batches", "cells_probed", "batches_pruned", "retries",
            "h2d_us", "gemm_us", "top2_us", "d2h_us", "post_us",
        ];
        keys.sort_unstable();
        for line in &lines {
            let v = parse(line).expect("each line is standalone JSON");
            let Json::Obj(fields) = &v else { panic!("not an object: {line}") };
            assert_eq!(fields.keys().map(String::as_str).collect::<Vec<_>>(), keys, "{line}");
            assert!(v.get("seq").and_then(Json::as_u64).is_some(), "{line}");
            assert!(v.get("outcome").and_then(Json::as_str).is_some(), "{line}");
            assert!(v.get("sim_wall_us").and_then(Json::as_f64).is_some(), "{line}");
        }
        assert!(text.contains(r#""outcome":"ok""#), "{text}");

        // /slo reports both default objectives with burn-rate fields.
        let resp = http_call(addr, "GET", "/slo", b"").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let v = parse(&resp.text()).unwrap();
        let slos = v.get("slos").unwrap().as_arr().unwrap();
        for name in ["search-latency", "search-availability"] {
            let s = slos
                .iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("{name} missing: {}", resp.text()));
            assert!(s.get("good").and_then(Json::as_u64).is_some());
            assert!(s.get("bad").and_then(Json::as_u64).is_some());
            assert!(s.get("short_burn").and_then(Json::as_f64).is_some());
            assert!(s.get("long_burn").and_then(Json::as_f64).is_some());
            assert!(s.get("budget_remaining").and_then(Json::as_f64).is_some());
            assert!(s.get("fast_burn").and_then(Json::as_bool).is_some());
        }

        // /stats carries the drift sentry; /health surfaces SLO posture.
        let stats = http_call(addr, "GET", "/stats", b"").unwrap();
        let v = parse(&stats.text()).unwrap();
        let drift = v.get("drift").expect("stats exposes drift").as_arr().unwrap();
        assert_eq!(drift.len(), 6, "{}", stats.text());
        for d in drift {
            assert!(d.get("stage").and_then(Json::as_str).is_some());
            assert!(d.get("ratio").and_then(Json::as_f64).is_some());
            assert!(d.get("samples").and_then(Json::as_u64).is_some());
        }
        let health = http_call(addr, "GET", "/health", b"").unwrap();
        let v = parse(&health.text()).unwrap();
        let health_slos = v.get("slos").expect("health exposes slos").as_arr().unwrap();
        assert_eq!(health_slos.len(), 2, "{}", health.text());
        // Each /health entry is the /slo entry of the same name.
        for entry in health_slos {
            let name = entry.get("name");
            let slo = slos.iter().find(|s| s.get("name") == name).expect("same objectives");
            assert_eq!(entry, slo, "{}", health.text());
        }

        // New routes speak GET/HEAD only, like the other read routes.
        for path in ["/events", "/slo"] {
            let resp = http_call(addr, "PATCH", path, b"").unwrap();
            assert_eq!(resp.status, 405, "{path}");
            assert_eq!(resp.header("allow"), Some("GET, HEAD"), "{path}");
            let resp = http_call(addr, "HEAD", path, b"").unwrap();
            assert_eq!(resp.status, 200, "{path}");
        }

        // Process-identity metrics ride every scrape.
        let metrics = http_call(addr, "GET", "/metrics", b"").unwrap();
        let text = metrics.text();
        assert!(text.contains("texid_build_info{"), "build info gauge exported");
        assert!(text.contains("texid_uptime_seconds"), "uptime gauge exported");
        assert!(text.contains("texid_events_recorded_total"), "recorder counters exported");
        assert!(text.contains("texid_events_dropped_total"), "drop counter exported");
        assert!(text.contains("texid_slo_burn_rate{"), "burn-rate gauges exported");
        assert!(text.contains("texid_model_drift_ratio{"), "drift gauges exported");
    }

    #[test]
    fn health_reports_degraded_shards_and_heal_recovers() {
        use crate::faults::FaultPlan;
        // Trip shard 0's breaker with three scripted crashes.
        let plan = FaultPlan::new(31)
            .crash_shard_after(0, 0)
            .crash_shard_after(0, 0)
            .crash_shard_after(0, 0);
        let cluster = Cluster::with_faults(test_config(), Some(plan));
        let server = serve(Arc::new(cluster), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        for id in 0..4u64 {
            let body = format!(r#"{{"id": {id}, "features": "{}"}}"#, features_b64(id, 128));
            assert_eq!(http_call(addr, "POST", "/textures", body.as_bytes()).unwrap().status, 201);
        }

        // All healthy at first.
        let resp = http_call(addr, "GET", "/health", b"").unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.text().contains(r#""status":"ok""#), "{}", resp.text());

        // Three searches hit the crash rules; responses stay 200 but flag
        // the degradation, and the shard ends up Down.
        let search_body = format!(r#"{{"features": "{}", "top": 2}}"#, features_b64(1, 256));
        for _ in 0..3 {
            let resp = http_call(addr, "POST", "/search", search_body.as_bytes()).unwrap();
            assert_eq!(resp.status, 200);
            let v = parse(&resp.text()).unwrap();
            assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(true), "{}", resp.text());
            assert_eq!(v.get("shards_failed").and_then(Json::as_u64), Some(1));
        }
        let resp = http_call(addr, "GET", "/health", b"").unwrap();
        assert_eq!(resp.status, 200, "one shard still serves");
        assert!(resp.text().contains(r#""status":"degraded""#), "{}", resp.text());
        assert!(resp.text().contains(r#""health":"down""#), "{}", resp.text());

        // Heal, then everything reports healthy again.
        let resp = http_call(addr, "POST", "/heal", b"").unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.text().contains(r#""healed":[0]"#), "{}", resp.text());
        let resp = http_call(addr, "GET", "/health", b"").unwrap();
        assert!(resp.text().contains(r#""status":"ok""#), "{}", resp.text());
        let resp = http_call(addr, "POST", "/search", search_body.as_bytes()).unwrap();
        let v = parse(&resp.text()).unwrap();
        assert_eq!(v.get("degraded").and_then(Json::as_bool), Some(false), "{}", resp.text());
        let stats = http_call(addr, "GET", "/stats", b"").unwrap();
        assert!(stats.text().contains(r#""degraded_searches":3"#), "{}", stats.text());
        assert!(stats.text().contains(r#""faults_injected":3"#), "{}", stats.text());
    }
}
