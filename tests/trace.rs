//! Tracing acceptance suite: the Perfetto exporter and the distributed
//! request-trace pipeline, end to end.
//!
//! Three layers under test:
//!
//! 1. **Exporter structure** — a seeded multi-stream pipeline simulation
//!    must render to structurally valid Chrome trace-event JSON (parsed
//!    with the repo's own `texid_distrib::json` parser): an object with a
//!    `traceEvents` array of `"X"` complete events and `"M"` metadata
//!    events, every `"X"` carrying `ts`/`dur`/`pid`/`tid`.
//! 2. **Engine-track physics** — each device engine (H2D, compute, D2H)
//!    and the driver lock is a serial resource, so its track's events must
//!    be monotonically ordered and non-overlapping on the sim clock.
//! 3. **Distributed propagation** — a trace id sent over real HTTP in
//!    `X-Texid-Trace-Id` must come back in the search response and
//!    retrieve the full span tree from `GET /trace/<id>`, with retry spans
//!    appearing exactly once per injected transient fault.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use texid_core::EngineConfig;
use texid_distrib::api;
use texid_distrib::b64;
use texid_distrib::cluster::{Cluster, ClusterConfig};
use texid_distrib::http::{http_call, http_call_with_headers};
use texid_distrib::json::{parse, Json};
use texid_distrib::wire;
use texid_distrib::FaultPlan;
use texid_gpu::pipeline::{simulate_traced, ChunkSpec};
use texid_gpu::{DeviceSpec, Precision};
use texid_image::{CaptureCondition, TextureGenerator};
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

fn seeded_trace_json() -> String {
    let spec = DeviceSpec::tesla_p100();
    let chunk = ChunkSpec {
        batch: 64,
        m: 768,
        n: 768,
        d: 128,
        precision: Precision::F16,
        pinned: true,
    };
    let (stats, trace) =
        simulate_traced(&spec, &chunk, 16, 4, spec.calib.stream_serial_fraction);
    assert!(stats.makespan_us > 0.0);
    trace.to_json()
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

/// The exporter's output is structurally valid Chrome trace-event JSON.
#[test]
fn exporter_emits_valid_trace_event_json() {
    let events = trace_events(&seeded_trace_json());
    assert!(events.len() > 16 * 5, "a 16-chunk run should emit many events");

    let mut saw_complete = false;
    let mut saw_metadata = false;
    for ev in &events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("every event has ph");
        match ph {
            "X" => {
                saw_complete = true;
                for field in ["ts", "dur", "pid", "tid"] {
                    let n = ev.get(field).and_then(Json::as_f64);
                    assert!(n.is_some(), "X event missing {field}");
                    assert!(n.unwrap() >= 0.0, "{field} must be non-negative");
                }
                assert!(ev.get("name").and_then(Json::as_str).is_some());
            }
            "M" => {
                saw_metadata = true;
                let name = ev.get("name").and_then(Json::as_str).unwrap();
                assert!(
                    name == "process_name" || name == "thread_name",
                    "unexpected metadata event: {name}"
                );
                assert!(ev.get("args").and_then(|a| a.get("name")).is_some());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(saw_complete && saw_metadata);

    // The pipeline names every stage; all five phases appear.
    for stage in ["h2d", "hgemm", "top2", "d2h", "post"] {
        assert!(
            events.iter().any(|e| e.get("name").and_then(Json::as_str) == Some(stage)),
            "stage {stage} missing from timeline"
        );
    }
}

/// Each engine track (and the driver lock) is a serial resource: its
/// events must be monotonically ordered and non-overlapping in sim time.
#[test]
fn engine_tracks_are_monotone_and_non_overlapping() {
    let events = trace_events(&seeded_trace_json());

    // Identify serial-resource tracks from thread_name metadata.
    let mut serial_tids: HashMap<(i64, i64), String> = HashMap::new();
    for ev in &events {
        if ev.get("ph").and_then(Json::as_str) != Some("M")
            || ev.get("name").and_then(Json::as_str) != Some("thread_name")
        {
            continue;
        }
        let track = ev.get("args").and_then(|a| a.get("name")).and_then(Json::as_str).unwrap();
        if track.starts_with("engine: ") || track == "driver lock" {
            let pid = ev.get("pid").and_then(Json::as_f64).unwrap() as i64;
            let tid = ev.get("tid").and_then(Json::as_f64).unwrap() as i64;
            serial_tids.insert((pid, tid), track.to_string());
        }
    }
    assert_eq!(serial_tids.len(), 4, "H2D, compute, D2H engines + driver lock");

    let mut per_track: HashMap<(i64, i64), Vec<(f64, f64)>> = HashMap::new();
    for ev in &events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let pid = ev.get("pid").and_then(Json::as_f64).unwrap() as i64;
        let tid = ev.get("tid").and_then(Json::as_f64).unwrap() as i64;
        if !serial_tids.contains_key(&(pid, tid)) {
            continue;
        }
        let ts = ev.get("ts").and_then(Json::as_f64).unwrap();
        let dur = ev.get("dur").and_then(Json::as_f64).unwrap();
        per_track.entry((pid, tid)).or_default().push((ts, dur));
    }

    for (key, mut spans) in per_track {
        let track = &serial_tids[&key];
        assert!(!spans.is_empty(), "{track} recorded no events");
        spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for pair in spans.windows(2) {
            let (ts0, dur0) = pair[0];
            let (ts1, _) = pair[1];
            assert!(
                ts1 >= ts0 + dur0 - 1e-6,
                "{track} overlaps: [{ts0}, {}) then {ts1}",
                ts0 + dur0
            );
        }
    }
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

    let stats_before = parse(&http_call(addr, "GET", "/stats", b"").unwrap().text()).unwrap();
    let retries_before = stats_before.get("retries").and_then(Json::as_f64).unwrap();

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

    let stats_after = parse(&http_call(addr, "GET", "/stats", b"").unwrap().text()).unwrap();
    let retries = stats_after.get("retries").and_then(Json::as_f64).unwrap() - retries_before;
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

/// The `texid trace` subcommand writes a loadable trace file.
#[test]
fn texid_trace_subcommand_writes_valid_file() {
    let dir = std::env::temp_dir().join(format!("texid-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("pipeline.trace.json");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_texid"))
        .args(["trace", "--streams", "3", "--chunks", "9", "--out"])
        .arg(&out)
        .output()
        .expect("texid binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("H2D busy") && stdout.contains("compute busy"),
        "the summary reports both busy ratios:\n{stdout}"
    );
    let text = std::fs::read_to_string(&out).unwrap();
    let events = trace_events(&text);
    assert!(
        events.iter().any(|e| e.get("name").and_then(Json::as_str) == Some("hgemm")),
        "compute events present"
    );
    std::fs::remove_dir_all(&dir).ok();
}
