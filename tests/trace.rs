//! Tracing acceptance suite: the Perfetto export of a served request and
//! the distributed request-trace pipeline, end to end.
//!
//! Three layers under test:
//!
//! 1. **Exporter structure** — `texid trace --addr … --id …` against a live
//!    2-container server must write structurally valid Chrome trace-event
//!    JSON (parsed with the repo's own `texid_distrib::json` parser): an
//!    object with a `traceEvents` array of `"X"` complete events and `"M"`
//!    metadata events, every `"X"` carrying `ts`/`dur`/`pid`/`tid`, wall
//!    spans in the wall-clock process and sim stages in the sim-clock one.
//! 2. **Nesting and bits** — at `streams: 8` no two slices on one track
//!    partially overlap (Perfetto can only nest), and each stage's sim
//!    spans, summed over shards, equal that search's `/events` value to the
//!    bit.
//! 3. **Distributed propagation** — a trace id sent over real HTTP in
//!    `X-Texid-Trace-Id` must come back in the search response and
//!    retrieve the full span tree from `GET /trace/<id>`, with retry spans
//!    appearing exactly once per injected transient fault.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Arc;
use texid_core::EngineConfig;
use texid_distrib::api;
use texid_distrib::b64;
use texid_distrib::cluster::{Cluster, ClusterConfig};
use texid_distrib::http::{http_call, http_call_with_headers};
use texid_distrib::json::{parse, Json};
use texid_distrib::wire;
use texid_distrib::FaultPlan;
use texid_image::{CaptureCondition, TextureGenerator};
use texid_obs::{ChromeTrace, Stage};
use texid_sift::{extract, FeatureMatrix, SiftConfig};

fn small_config(containers: usize) -> ClusterConfig {
    ClusterConfig {
        containers,
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

fn reference_features(id: u64) -> FeatureMatrix {
    let im = TextureGenerator::with_size(128).generate(id);
    extract(&im, &SiftConfig { max_features: 128, ..SiftConfig::default() })
}

fn query_features(id: u64) -> FeatureMatrix {
    let im = TextureGenerator::with_size(128).generate(id);
    let mut rng = SmallRng::seed_from_u64(id ^ 0x0b5);
    let q = CaptureCondition::mild(&mut rng).apply(&im, id);
    extract(&q, &SiftConfig { max_features: 256, ..SiftConfig::default() })
}

/// Run `texid trace --addr ADDR --id ID --out <tmp>/NAME`; the output and
/// the file it wrote (if any).
fn texid_trace(addr: std::net::SocketAddr, id: &str, name: &str) -> (Output, Option<String>) {
    let dir = std::env::temp_dir().join(format!("texid-trace-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out: PathBuf = dir.join("request.trace.json");
    let output = Command::new(env!("CARGO_BIN_EXE_texid"))
        .args(["trace", "--addr", &addr.to_string(), "--id", id, "--out"])
        .arg(&out)
        .output()
        .expect("texid binary runs");
    let text = std::fs::read_to_string(&out).ok();
    std::fs::remove_dir_all(&dir).ok();
    (output, text)
}

/// One search served by a live 2-container server at `streams: 8` (the
/// `texid serve` default, where `device total` is shorter than the serial
/// stage sum), exported with `texid trace`: the Chrome file's events, the
/// search's `/events` line, and the command's stdout.
fn served_trace(name: &str) -> (Vec<Json>, Json, String) {
    let base = small_config(2);
    let cfg = ClusterConfig { engine: EngineConfig { streams: 8, ..base.engine }, ..base };
    let server = api::serve(Arc::new(Cluster::new(cfg)), "127.0.0.1:0").unwrap();
    let addr = server.addr();
    for id in 0..4u64 {
        let payload = b64::encode(&wire::encode_features(&reference_features(id)));
        let body = format!(r#"{{"id": {id}, "features": "{payload}"}}"#);
        assert_eq!(http_call(addr, "POST", "/textures", body.as_bytes()).unwrap().status, 201);
    }
    let tid = "7ace0000000000000000000000000001";
    let payload = b64::encode(&wire::encode_features(&query_features(2)));
    let body = format!(r#"{{"features": "{payload}", "top": 2}}"#);
    let resp = http_call_with_headers(
        addr,
        "POST",
        "/search",
        &[("X-Texid-Trace-Id", tid)],
        body.as_bytes(),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());

    let (output, text) = texid_trace(addr, tid, name);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    // The cluster's flight recorder holds its one search.
    let events = http_call(addr, "GET", "/events", b"").unwrap().text();
    let lines: Vec<&str> = events.lines().collect();
    assert_eq!(lines.len(), 1, "{events}");
    let event = parse(lines[0]).unwrap();
    assert_eq!(event.get("trace_id").and_then(Json::as_str), Some(tid));
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    (trace_events(&text.expect("texid trace wrote its file")), event, stdout)
}

/// Parse a trace-event JSON string, returning the events array.
fn trace_events(text: &str) -> Vec<Json> {
    let v = parse(text).unwrap_or_else(|e| panic!("trace JSON failed to parse: {e:?}"));
    assert_eq!(
        v.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms"),
        "object-form trace must set displayTimeUnit"
    );
    v.get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .to_vec()
}

fn str_of<'a>(ev: &'a Json, key: &str) -> Option<&'a str> {
    ev.get(key).and_then(Json::as_str)
}

fn num_of(ev: &Json, key: &str) -> f64 {
    ev.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("event without {key}"))
}

fn complete_events(events: &[Json]) -> impl Iterator<Item = &Json> {
    events.iter().filter(|e| str_of(e, "ph") == Some("X"))
}

/// The exporter's output for a served request is structurally valid
/// Chrome trace-event JSON, with each clock in its own process.
#[test]
fn exporter_emits_valid_trace_event_json() {
    let (events, _, _) = served_trace("structure");
    let mut processes = Vec::new();
    for ev in &events {
        match str_of(ev, "ph").expect("every event has ph") {
            "X" => {
                for field in ["ts", "dur", "pid", "tid"] {
                    assert!(num_of(ev, field) >= 0.0, "{field} must be non-negative");
                }
                assert!(str_of(ev, "name").is_some());
                let want = match str_of(ev, "cat") {
                    Some("sim") => ChromeTrace::SIM_PID,
                    Some("wall") => ChromeTrace::WALL_PID,
                    other => panic!("unexpected category {other:?}"),
                };
                assert_eq!(num_of(ev, "pid"), want as f64, "{}", ev.to_string());
            }
            "M" => {
                let name = str_of(ev, "name").unwrap();
                let label = ev.get("args").and_then(|a| a.get("name")).and_then(Json::as_str);
                match name {
                    "process_name" => processes.push(label.unwrap().to_string()),
                    "thread_name" => assert!(label.is_some()),
                    other => panic!("unexpected metadata event: {other}"),
                }
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(processes.iter().any(|p| p.starts_with("sim clock")), "{processes:?}");
    assert!(processes.iter().any(|p| p.starts_with("wall clock")), "{processes:?}");

    // The request, its scatter, both legs, and every leg's sim stages.
    let names: Vec<&str> = complete_events(&events).filter_map(|e| str_of(e, "name")).collect();
    let count = |n: &str| names.iter().filter(|&&m| m == n).count();
    assert_eq!(count("POST /search"), 1, "{names:?}");
    assert_eq!(count("cluster.search"), 1, "{names:?}");
    assert_eq!(count("shard.leg"), 2, "{names:?}");
    assert_eq!(count("device total"), 2, "{names:?}");
    for stage in Stage::ALL {
        assert_eq!(count(stage.span_name()), 2, "{} per shard: {names:?}", stage.span_name());
    }
}

/// Perfetto nests slices on a track and cannot draw two that partially
/// overlap. At `streams: 8` the stages' serial sum outlasts `device
/// total`, so the two must not share a track.
#[test]
fn no_track_holds_partially_overlapping_slices() {
    let (events, _, _) = served_trace("nesting");
    let mut per_track: HashMap<_, Vec<_>> = HashMap::new();
    for ev in complete_events(&events) {
        let (ts, dur) = (num_of(ev, "ts"), num_of(ev, "dur"));
        let track = (num_of(ev, "pid") as u64, num_of(ev, "tid") as u64);
        per_track.entry(track).or_default().push((ts, ts + dur, str_of(ev, "name").unwrap()));
    }
    assert!(per_track.len() >= 7, "request, cluster, 2 legs, 2 stage + 2 total tracks");
    for (track, slices) in &per_track {
        for (i, a) in slices.iter().enumerate() {
            for b in &slices[i + 1..] {
                let intersect = a.0 < b.1 && b.0 < a.1;
                let nested = (a.0 <= b.0 && b.1 <= a.1) || (b.0 <= a.0 && a.1 <= b.1);
                assert!(!intersect || nested, "track {track:?}: {a:?} and {b:?} partially overlap");
            }
        }
    }
}

/// The Chrome file and the flight recorder are views of one record: each
/// stage's sim spans, summed over shards, are the wide event's value.
#[test]
fn sim_stage_sums_equal_the_wide_event_to_the_bit() {
    let (events, event, _) = served_trace("bits");
    for stage in Stage::ALL {
        let mut by_shard: Vec<(String, f64)> = complete_events(&events)
            .filter(|e| str_of(e, "cat") == Some("sim"))
            .filter(|e| str_of(e, "name") == Some(stage.span_name()))
            .map(|e| {
                let shard = e.get("args").and_then(|a| a.get("shard")).and_then(Json::as_str);
                (shard.expect("stage span names its shard").to_string(), num_of(e, "dur"))
            })
            .collect();
        assert_eq!(by_shard.len(), 2, "{}", stage.span_name());
        // The event adds the legs in shard order, from zero.
        by_shard.sort_by(|a, b| a.0.cmp(&b.0));
        let sum = by_shard.iter().fold(0.0f64, |acc, (_, dur)| acc + dur);
        let want = num_of(&event, stage.event_key());
        let key = stage.event_key();
        assert_eq!(sum.to_bits(), want.to_bits(), "{key}: spans {sum} vs event {want}");
    }
}

/// The `texid trace` subcommand writes a loadable file holding one
/// complete event per span of the requested trace, and says how many.
#[test]
fn texid_trace_subcommand_writes_valid_file() {
    let (events, event, stdout) = served_trace("subcommand");
    let tid = str_of(&event, "trace_id").unwrap();
    let spans: Vec<&Json> = complete_events(&events).collect();
    assert!(
        stdout.starts_with(&format!("wrote {} spans of trace {tid} to ", spans.len())),
        "the summary reports the span count and trace id:\n{stdout}"
    );
    for ev in &spans {
        let arg = ev.get("args").and_then(|a| a.get("trace_id")).and_then(Json::as_str);
        assert_eq!(arg, Some(tid), "{}", ev.to_string());
    }
    assert!(
        spans.iter().any(|e| str_of(e, "name") == Some("hgemm")),
        "compute events present"
    );
}

/// An id the ring never held is the server's 404, and the command fails
/// with its message.
#[test]
fn texid_trace_unknown_id_exits_nonzero_with_the_404() {
    let server = api::serve(Arc::new(Cluster::new(small_config(1))), "127.0.0.1:0").unwrap();
    let (output, text) = texid_trace(server.addr(), "0123456789abcdef0123456789abcdef", "unknown");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("HTTP 404") && stderr.contains("unknown trace id"), "{stderr}");
    assert!(text.is_none(), "no file is written for a failed fetch");
}

/// Trace-id propagation end to end over real HTTP: the header joins the
/// trace, the response echoes it, and `GET /trace/<id>` returns the span
/// tree down to the sim-clock engine stages.
#[test]
fn trace_id_propagates_through_rest_search() {
    let cluster = Arc::new(Cluster::new(small_config(2)));
    let server = api::serve(cluster, "127.0.0.1:0").unwrap();
    let addr = server.addr();
    for id in 0..4u64 {
        let payload = b64::encode(&wire::encode_features(&reference_features(id)));
        let body = format!(r#"{{"id": {id}, "features": "{payload}"}}"#);
        assert_eq!(http_call(addr, "POST", "/textures", body.as_bytes()).unwrap().status, 201);
    }

    let tid = "c0ffee00000000000000000000001234";
    let payload = b64::encode(&wire::encode_features(&query_features(2)));
    let body = format!(r#"{{"features": "{payload}", "top": 2}}"#);
    let resp = http_call_with_headers(
        addr,
        "POST",
        "/search",
        &[("X-Texid-Trace-Id", tid)],
        body.as_bytes(),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("x-texid-trace-id"), Some(tid));
    let v = parse(&resp.text()).unwrap();
    assert_eq!(v.get("trace_id").and_then(Json::as_str), Some(tid));

    let resp = http_call(addr, "GET", &format!("/trace/{tid}"), b"").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let v = parse(&resp.text()).unwrap();
    let roots = v.get("spans").and_then(Json::as_arr).unwrap();
    let root = roots
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some("POST /search"))
        .expect("request root span");
    let cluster_span = root
        .get("children")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some("cluster.search"))
        .expect("cluster.search span")
        .clone();
    let legs = cluster_span.get("children").and_then(Json::as_arr).unwrap();
    assert_eq!(legs.len(), 2, "one leg span per shard");
    for leg in legs {
        assert_eq!(leg.get("name").and_then(Json::as_str), Some("shard.leg"));
        assert_eq!(leg.get("clock").and_then(Json::as_str), Some("wall"));
        // An answered leg tells how long it queued for a worker and how
        // many legs that worker swept with it.
        let tag = |key: &str| leg.get("tags").and_then(|t| t.get(key)).and_then(Json::as_str);
        let queued_us: f64 = tag("queued_us").expect("queued_us tag").parse().unwrap();
        assert!(queued_us >= 0.0, "{queued_us}");
        let group: usize = tag("group").expect("group tag").parse().unwrap();
        assert!(group >= 1, "{group}");
        let stages = leg.get("children").and_then(Json::as_arr).unwrap();
        let sim_names: Vec<&str> = stages
            .iter()
            .filter(|s| s.get("clock").and_then(Json::as_str) == Some("sim"))
            .filter_map(|s| s.get("name").and_then(Json::as_str))
            .collect();
        for stage in ["device total", "h2d", "hgemm", "top2", "d2h", "post"] {
            assert!(sim_names.contains(&stage), "leg missing sim stage {stage}: {sim_names:?}");
        }
    }
}

/// Under injected transient faults the trace shows exactly one retry span
/// per retry the cluster actually performed (`/stats` is the referee), and
/// the ring's drop counter is scrapeable from `/metrics`.
#[test]
fn retries_appear_exactly_once_per_fault_and_drop_counter_is_exported() {
    let plan = FaultPlan::new(0x7e5).transient_search(0, 2);
    let cluster = Arc::new(Cluster::with_faults(small_config(2), Some(plan)));
    let server = api::serve(cluster, "127.0.0.1:0").unwrap();
    let addr = server.addr();
    for id in 0..4u64 {
        let payload = b64::encode(&wire::encode_features(&reference_features(id)));
        let body = format!(r#"{{"id": {id}, "features": "{payload}"}}"#);
        http_call(addr, "POST", "/textures", body.as_bytes()).unwrap();
    }

    let tid = "00000000000000000000000000fa017";
    let payload = b64::encode(&wire::encode_features(&query_features(1)));
    let body = format!(r#"{{"features": "{payload}", "top": 2}}"#);
    let resp = http_call_with_headers(
        addr,
        "POST",
        "/search",
        &[("X-Texid-Trace-Id", tid)],
        body.as_bytes(),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());

    let stats = parse(&http_call(addr, "GET", "/stats", b"").unwrap().text()).unwrap();
    let retries = stats.get("retries").and_then(Json::as_f64).unwrap();
    assert_eq!(retries, 2.0, "fault plan injects exactly two transients");

    // Count retry spans in the retrieved tree: exactly one per retry.
    let resp = http_call(addr, "GET", &format!("/trace/{tid}"), b"").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    fn count_retries(node: &Json) -> usize {
        let own = (node.get("name").and_then(Json::as_str) == Some("retry")) as usize;
        own + node
            .get("children")
            .and_then(Json::as_arr)
            .map(|kids| kids.iter().map(count_retries).sum())
            .unwrap_or(0)
    }
    let v = parse(&resp.text()).unwrap();
    let total: usize = v.get("spans").and_then(Json::as_arr).unwrap().iter().map(count_retries).sum();
    assert_eq!(total, 2, "one retry span per note_retry: {}", resp.text());

    let metrics = http_call(addr, "GET", "/metrics", b"").unwrap();
    assert!(
        metrics.text().contains("texid_trace_events_dropped_total"),
        "trace ring drop counter must be on /metrics"
    );
}
