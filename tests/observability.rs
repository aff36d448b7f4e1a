//! Observability acceptance suite: the metrics catalog lint and the
//! exemplar → trace → event drill-down path, end to end.
//!
//! Two layers under test:
//!
//! 1. **Catalog lint** — every `texid_*` family a live server actually
//!    exposes on `/metrics` must have a row in OBSERVABILITY.md's metric
//!    catalog, and every family the catalog documents must really be
//!    exposed. Drift in either direction fails CI.
//! 2. **Exemplar drill-down** — a traced search must leave its trace id as
//!    the exemplar on the stage-latency buckets it landed in, so an
//!    operator staring at a slow bucket on `/metrics` can jump straight to
//!    `GET /trace/{id}` (the span tree) and the matching flight-recorder
//!    record on `GET /events`.
//!
//! Each test serves a cluster of its own, and a cluster's surfaces read
//! only its own registry and rings: the exemplar test's search is the only
//! search its cluster runs, so the slowest-bucket exemplar is deterministic.

use std::collections::BTreeSet;
use std::sync::Arc;
use texid_core::EngineConfig;
use texid_distrib::api;
use texid_distrib::b64;
use texid_distrib::cluster::{Cluster, ClusterConfig};
use texid_distrib::http::{http_call, http_call_with_headers, HttpServer};
use texid_distrib::json::{parse, Json};
use texid_distrib::wire;
use texid_image::TextureGenerator;
use texid_sift::{extract, FeatureMatrix, SiftConfig};

/// A 2-container cluster with four enrolled textures, served; no search
/// has run.
fn served() -> HttpServer {
    let cluster = Arc::new(Cluster::new(ClusterConfig {
        containers: 2,
        engine: EngineConfig {
            m_ref: 128,
            n_query: 256,
            batch_size: 2,
            streams: 1,
            ..EngineConfig::default()
        },
        ..ClusterConfig::default()
    }));
    let server = api::serve(cluster, "127.0.0.1:0").unwrap();
    for id in 0..4u64 {
        let payload = b64::encode(&wire::encode_features(&features(id, 128)));
        let body = format!(r#"{{"id": {id}, "features": "{payload}"}}"#);
        let resp = http_call(server.addr(), "POST", "/textures", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 201);
    }
    server
}

fn features(seed: u64, n: usize) -> FeatureMatrix {
    let im = TextureGenerator::with_size(128).generate(seed);
    extract(&im, &SiftConfig { max_features: n, ..SiftConfig::default() })
}

/// Every family the server exposes is documented, and every family the
/// catalog documents is exposed. `# TYPE <name> <kind>` lines are the
/// ground truth for "exposed"; backticked `texid_*` names in the first
/// cell of catalog table rows are the ground truth for "documented".
#[test]
fn metrics_catalog_matches_live_registry_both_ways() {
    let server = served();
    let resp = http_call(server.addr(), "GET", "/metrics", b"").unwrap();
    assert_eq!(resp.status, 200);
    let exposed: BTreeSet<String> = resp
        .text()
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .filter(|name| name.starts_with("texid_"))
        .map(str::to_string)
        .collect();
    assert!(exposed.len() > 20, "harness should expose a rich surface: {exposed:?}");

    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../OBSERVABILITY.md");
    let doc = std::fs::read_to_string(doc_path).expect("OBSERVABILITY.md readable");
    let mut documented: BTreeSet<String> = BTreeSet::new();
    for line in doc.lines() {
        // First cell of a table row: "| `texid_foo` | ...".
        let Some(rest) = line.strip_prefix("| `") else { continue };
        let Some((name, _)) = rest.split_once('`') else { continue };
        if name.starts_with("texid_")
            && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            documented.insert(name.to_string());
        }
    }

    let undocumented: Vec<&String> = exposed.difference(&documented).collect();
    let phantom: Vec<&String> = documented.difference(&exposed).collect();
    assert!(
        undocumented.is_empty() && phantom.is_empty(),
        "metric catalog drift.\n  exposed but missing from OBSERVABILITY.md: {undocumented:?}\n  \
         documented but never exposed: {phantom:?}"
    );
}

/// The full p99-triage path from the runbook: traced search → scrape →
/// slowest stage bucket carries the trace id as its exemplar → the id
/// retrieves the span tree → the flight recorder holds the wide event.
#[test]
fn slow_bucket_exemplar_links_scrape_to_trace_and_event() {
    let server = served();
    let addr = server.addr();
    let tid = "00000000000000000000000000facade";
    let payload = b64::encode(&wire::encode_features(&features(1, 256)));
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

    // Scrape and find the largest exemplar on the stage-latency buckets —
    // the slowest thing any search did. This cluster ran exactly one
    // search, so it must be ours, on the stage="total" track.
    let metrics = http_call(addr, "GET", "/metrics", b"").unwrap().text();
    let mut slowest: Option<(f64, String, String)> = None;
    for line in metrics.lines() {
        if !line.starts_with("texid_stage_duration_us_bucket{") {
            continue;
        }
        let Some((_, annotation)) = line.split_once(" # {trace_id=\"") else { continue };
        let Some((exemplar_tid, rest)) = annotation.split_once('"') else { continue };
        let value: f64 = rest
            .trim_start_matches('}')
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("bad exemplar value in {line}: {e}"));
        if slowest.as_ref().is_none_or(|(v, ..)| value > *v) {
            slowest = Some((value, exemplar_tid.to_string(), line.to_string()));
        }
    }
    let (value, exemplar_tid, line) = slowest.expect("stage buckets carry exemplars");
    assert!(value > 0.0, "{line}");
    assert_eq!(exemplar_tid, tid, "slowest-bucket exemplar is the traced search: {line}");
    assert!(line.contains(r#"stage="total""#), "slowest stage is the end-to-end total: {line}");

    // The exemplar's id retrieves the span tree for that very search.
    let resp = http_call(addr, "GET", &format!("/trace/{exemplar_tid}"), b"").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let v = parse(&resp.text()).unwrap();
    assert_eq!(v.get("trace_id").and_then(Json::as_str), Some(tid));
    let roots = v.get("spans").and_then(Json::as_arr).unwrap();
    let root = roots
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some("POST /search"))
        .expect("request root span");
    let kids = root.get("children").and_then(Json::as_arr).unwrap();
    let cluster_span = kids
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some("cluster.search"))
        .expect("cluster.search child span");
    let legs = cluster_span.get("children").and_then(Json::as_arr).unwrap();
    assert_eq!(legs.len(), 2, "one leg per shard");

    // And the flight recorder holds the same search as a wide event.
    let events = http_call(addr, "GET", "/events", b"").unwrap().text();
    let lines: Vec<&str> = events.lines().collect();
    assert_eq!(lines.len(), 1, "{events}");
    let record = parse(lines[0]).unwrap();
    assert_eq!(record.get("trace_id").and_then(Json::as_str), Some(tid));
    assert_eq!(record.get("outcome").and_then(Json::as_str), Some("ok"));
    assert_eq!(record.get("shards_ok").and_then(Json::as_u64), Some(2));
    assert!(record.get("sim_wall_us").and_then(Json::as_f64).unwrap() > 0.0);
}
