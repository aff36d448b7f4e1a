//! Telemetry acceptance suite: scrape `GET /metrics` end to end and parse
//! the Prometheus text it returns.
//!
//! The first test is the PR's acceptance criterion: bring up a cluster,
//! drive a real search through the REST API, scrape `/metrics`, and assert
//! the exposition is syntactically valid *and* carries every family the
//! observability contract promises — stage latency histograms, cache
//! hit/miss counters, per-shard breaker gauges, retry/degraded counters,
//! and the live Eq. 3 / Eq. 4 efficiency gauges.
//!
//! Every cluster owns its registry, trace ring and event ring, and the
//! server that serves it reads those: counts here are exact, and two
//! clusters served side by side in one process never see each other's.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use texid_core::EngineConfig;
use texid_distrib::api;
use texid_distrib::b64;
use texid_distrib::cluster::{Cluster, ClusterConfig};
use texid_distrib::faults::FaultPlan;
use texid_distrib::http::{http_call, http_call_with_headers};
use texid_distrib::json::{parse, Json};
use texid_distrib::wire;
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

/// One parsed sample: full series name with its label block, and value.
struct Sample {
    series: String,
    value: f64,
}

/// Parse a Prometheus 0.0.4 text body, asserting every line is either a
/// `# HELP` / `# TYPE` comment or a `name{labels} value` sample.
fn parse_exposition(body: &str) -> Vec<Sample> {
    let mut samples = Vec::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(
                rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                "unknown comment line: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without a value: {line}");
        });
        let value = match value {
            "+Inf" => f64::INFINITY,
            v => v.parse::<f64>().unwrap_or_else(|_| panic!("bad value in: {line}")),
        };
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in: {line}"
        );
        if name_end < series.len() {
            assert!(series.ends_with('}'), "unterminated label block: {line}");
        }
        samples.push(Sample { series: series.to_string(), value });
    }
    samples
}

fn series_with<'a>(samples: &'a [Sample], parts: &[&str]) -> Vec<&'a Sample> {
    samples
        .iter()
        .filter(|s| parts.iter().all(|p| s.series.contains(p)))
        .collect()
}

fn assert_present(samples: &[Sample], parts: &[&str]) {
    assert!(
        !series_with(samples, parts).is_empty(),
        "no series matching {parts:?} in scrape"
    );
}

/// The one series matching `parts` reads `value`.
fn assert_value(samples: &[Sample], parts: &[&str], value: f64) {
    let found = series_with(samples, parts);
    assert_eq!(found.len(), 1, "{parts:?} should match one series");
    assert_eq!(found[0].value, value, "{}", found[0].series);
}

/// The acceptance criterion: `/metrics` returns valid Prometheus text
/// carrying stage histograms, cache counters, breaker gauges,
/// retry/degraded counters, and the Eq. 3 / Eq. 4 gauges.
#[test]
fn metrics_endpoint_serves_complete_prometheus_text() {
    let cluster = Arc::new(Cluster::new(small_config(2)));
    let server = api::serve(cluster, "127.0.0.1:0").unwrap();
    let addr = server.addr();

    for id in 0..4u64 {
        let payload = b64::encode(&wire::encode_features(&reference_features(id)));
        let body = format!(r#"{{"id": {id}, "features": "{payload}"}}"#);
        assert_eq!(http_call(addr, "POST", "/textures", body.as_bytes()).unwrap().status, 201);
    }
    let payload = b64::encode(&wire::encode_features(&query_features(2)));
    let body = format!(r#"{{"features": "{payload}", "top": 2}}"#);
    let search = http_call(addr, "POST", "/search", body.as_bytes()).unwrap();
    assert_eq!(search.status, 200);

    let resp = http_call(addr, "GET", "/metrics", b"").unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.content_type.starts_with("text/plain"),
        "content type: {}",
        resp.content_type
    );
    assert!(resp.content_type.contains("version=0.0.4"), "{}", resp.content_type);

    let body = resp.text();
    let samples = parse_exposition(&body);
    assert!(!samples.is_empty(), "empty scrape");

    // Stage latency histograms: the measured wall-clock stage (one encode
    // per search) and the simulated GPU stages (one per shard leg) each
    // expose cumulative buckets, sum, count.
    for (clock, stages, count) in [
        ("wall", &["encode"][..], 1.0),
        ("sim", &["h2d", "gemm", "top2", "d2h", "post", "total"][..], 2.0),
    ] {
        let clock = format!("clock=\"{clock}\"");
        for stage in stages {
            let key = format!("stage=\"{stage}\"");
            assert_present(&samples, &["texid_stage_duration_us_bucket{", &clock, &key]);
            let counted = series_with(&samples, &["texid_stage_duration_us_count{", &clock, &key]);
            assert_eq!(counted[0].value, count, "{stage}");
        }
    }
    // Histogram buckets are cumulative: +Inf bucket equals _count.
    let inf = series_with(
        &samples,
        &["texid_stage_duration_us_bucket{", "stage=\"gemm\"", "le=\"+Inf\""],
    );
    let count = series_with(&samples, &["texid_stage_duration_us_count{", "stage=\"gemm\""]);
    assert_eq!(inf[0].value, count[0].value);

    // Cache tier counters: each shard sealed its two references into one
    // device batch, which the search swept once.
    assert_value(&samples, &["texid_cache_hits_total{", "tier=\"device\""], 2.0);
    assert_value(&samples, &["texid_cache_hits_total{", "tier=\"host\""], 0.0);
    assert_value(&samples, &["texid_cache_inserts_total"], 2.0);
    assert_value(&samples, &["texid_cache_evictions_total"], 0.0);

    // Per-shard breaker gauges (healthy) and failure/skip counters for
    // both shards.
    for shard in ["0", "1"] {
        let key = format!("shard=\"{shard}\"");
        assert_value(&samples, &["texid_shard_breaker_state{", &key], 0.0);
        assert_value(&samples, &["texid_shard_failures_total{", &key], 0.0);
        assert_value(&samples, &["texid_shard_skips_total{", &key], 0.0);
        assert_value(&samples, &["texid_shard_search_duration_us_count{", &key], 1.0);
    }

    // Cluster-level counters and the paper's efficiency gauges.
    assert_value(&samples, &["texid_cluster_searches_total"], 1.0);
    assert_value(&samples, &["texid_cluster_retries_total"], 0.0);
    assert_value(&samples, &["texid_cluster_degraded_searches_total"], 0.0);
    for gauge in ["texid_schedule_efficiency", "texid_achieved_tflops", "texid_gpu_efficiency"] {
        let found = series_with(&samples, &[gauge]);
        assert!(!found.is_empty(), "{gauge} missing");
        assert!(found[0].value.is_finite(), "{gauge} not finite");
    }

    // HELP/TYPE headers accompany the families this test relies on.
    for family in [
        "texid_stage_duration_us",
        "texid_cache_hits_total",
        "texid_shard_breaker_state",
        "texid_cluster_retries_total",
        "texid_schedule_efficiency",
    ] {
        assert!(body.contains(&format!("# TYPE {family} ")), "no TYPE for {family}");
        assert!(body.contains(&format!("# HELP {family} ")), "no HELP for {family}");
    }
}

/// `/stats` folds the telemetry summary in: the Eq. 3 / Eq. 4 gauges ride
/// along with the existing counters, and `/metrics` rejects non-GET.
#[test]
fn stats_folds_in_efficiency_summary() {
    let cluster = Arc::new(Cluster::new(small_config(2)));
    for id in 0..4u64 {
        cluster.add_texture(id, &reference_features(id)).unwrap();
    }
    let _ = cluster.search(&query_features(1), 2);

    let server = api::serve(cluster, "127.0.0.1:0").unwrap();
    let resp = http_call(server.addr(), "GET", "/stats", b"").unwrap();
    assert_eq!(resp.status, 200);
    let v = parse(&resp.text()).unwrap();
    for field in ["schedule_efficiency", "achieved_tflops", "gpu_efficiency"] {
        let g = v.get(field).and_then(|x| x.as_f64());
        assert!(g.is_some(), "missing {field} in /stats: {}", resp.text());
        assert!(g.unwrap() > 0.0, "{field} should be live after a search");
    }

    let resp = http_call(server.addr(), "POST", "/metrics", b"").unwrap();
    assert_eq!(resp.status, 405);
}

/// The efficiency gauges carry the paper's equations: Eq. 4 schedule
/// efficiency lands in (0, 1] and Eq. 3 TFLOPS is positive after a clean
/// search. Uses a private registry so values are this cluster's alone.
#[test]
fn efficiency_gauges_track_the_paper_equations() {
    let cluster = Cluster::new(small_config(2));
    for id in 0..4u64 {
        cluster.add_texture(id, &reference_features(id)).unwrap();
    }
    let out = cluster.search(&query_features(0), 2);
    assert!(!out.degraded);

    // Neither ratio is clamped: a hot device cache can push the achieved
    // speed past the "every image crosses PCIe once" theoretical bound, so
    // only positivity and finiteness are structural invariants.
    let stats = cluster.stats();
    assert!(
        stats.schedule_efficiency > 0.0 && stats.schedule_efficiency.is_finite(),
        "Eq. 4 not live: {}",
        stats.schedule_efficiency
    );
    assert!(stats.achieved_tflops > 0.0, "Eq. 3 numerator not live");
    assert!(
        stats.gpu_efficiency > 0.0 && stats.gpu_efficiency.is_finite(),
        "Eq. 3 not live: {}",
        stats.gpu_efficiency
    );

    // The same values are what the registry scrape reports.
    let body = cluster.registry().render_prometheus();
    let samples = parse_exposition(&body);
    let sched = series_with(&samples, &["texid_schedule_efficiency"]);
    assert!((sched[0].value - stats.schedule_efficiency).abs() < 1e-12);
}

/// The sample of the series spelled exactly `series` (name and labels).
fn sample(samples: &[Sample], series: &str) -> f64 {
    let found: Vec<_> = samples.iter().filter(|s| s.series == series).collect();
    assert_eq!(found.len(), 1, "{series} should be one series in the scrape");
    found[0].value
}

/// Two clusters served side by side in one process, each surface of each
/// server reading its own cluster: `a` takes two clean searches, the first
/// traced; `b` takes one traced search under a fault plan (one transient
/// retry on shard 0, a crash on shard 1). Every count, event and trace id
/// either server shows belongs to its own cluster.
#[test]
fn two_served_clusters_each_report_only_their_own_traffic() {
    const TRACE_A: &str = "a0000000000000000000000000000001";
    const TRACE_B: &str = "b0000000000000000000000000000002";
    let a = Arc::new(Cluster::new(small_config(2)));
    let plan = FaultPlan::new(0x2c).transient_search(0, 1).crash_shard(1);
    let b = Arc::new(Cluster::with_faults(small_config(2), Some(plan)));
    let (server_a, server_b) =
        (api::serve(a, "127.0.0.1:0").unwrap(), api::serve(b, "127.0.0.1:0").unwrap());
    let (addr_a, addr_b) = (server_a.addr(), server_b.addr());

    let enrol = |addr, ids: std::ops::Range<u64>| {
        for id in ids {
            let payload = b64::encode(&wire::encode_features(&reference_features(id)));
            let body = format!(r#"{{"id": {id}, "features": "{payload}"}}"#);
            assert_eq!(http_call(addr, "POST", "/textures", body.as_bytes()).unwrap().status, 201);
        }
    };
    let search = |addr, query: u64, trace: Option<&str>| {
        let payload = b64::encode(&wire::encode_features(&query_features(query)));
        let body = format!(r#"{{"features": "{payload}", "top": 2}}"#);
        let headers: Vec<(&str, &str)> =
            trace.map(|t| ("X-Texid-Trace-Id", t)).into_iter().collect();
        let resp =
            http_call_with_headers(addr, "POST", "/search", &headers, body.as_bytes()).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
    };
    enrol(addr_a, 0..4);
    enrol(addr_b, 4..6);
    search(addr_a, 2, Some(TRACE_A));
    search(addr_b, 5, Some(TRACE_B));
    search(addr_a, 1, None);

    let get = |addr, path: &str| {
        let resp = http_call(addr, "GET", path, b"").unwrap();
        (resp.status, resp.text())
    };
    let json = |addr, path: &str| {
        let (status, text) = get(addr, path);
        assert_eq!(status, 200, "{path}: {text}");
        parse(&text).unwrap()
    };
    let num = |v: &Json, key: &str| v.get(key).and_then(Json::as_f64).unwrap();

    // (server, searches, retries, degraded, shard 1 failures, answered legs,
    //  this server's trace, the other's)
    for (addr, searches, retries, degraded, failed, legs, own, other) in [
        (addr_a, 2.0, 0.0, 0.0, 0.0, 4.0, TRACE_A, TRACE_B),
        (addr_b, 1.0, 1.0, 1.0, 1.0, 1.0, TRACE_B, TRACE_A),
    ] {
        let samples = parse_exposition(&get(addr, "/metrics").1);
        let stats = json(addr, "/stats");
        // `/metrics` and `/stats` are one fact per count.
        assert_eq!(sample(&samples, "texid_cluster_searches_total"), searches);
        assert_eq!(num(&stats, "total_searches"), searches);
        assert_eq!(sample(&samples, "texid_cluster_retries_total"), retries);
        assert_eq!(num(&stats, "retries"), retries);
        assert_eq!(sample(&samples, "texid_cluster_degraded_searches_total"), degraded);
        assert_eq!(num(&stats, "degraded_searches"), degraded);
        assert_eq!(sample(&samples, r#"texid_shard_failures_total{shard="1"}"#), failed);
        assert_eq!(sample(&samples, "texid_engine_searches_total"), legs);
        let encode = r#"texid_stage_duration_us_count{clock="wall",stage="encode"}"#;
        assert_eq!(sample(&samples, encode), searches, "one encode per search");
        assert_eq!(sample(&samples, "texid_events_recorded_total"), searches);
        assert_eq!(sample(&samples, "texid_search_queue_depth"), 0.0);
        assert_eq!(sample(&samples, "texid_trace_events_dropped_total"), 0.0);

        let health = json(addr, "/health");
        let shards = health.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(num(&shards[1], "total_failures"), failed);

        // The flight recorder holds this cluster's searches, in order.
        let events: Vec<Json> =
            get(addr, "/events").1.lines().map(|line| parse(line).unwrap()).collect();
        assert_eq!(events.len() as f64, searches);
        assert_eq!(events[0].get("trace_id").and_then(Json::as_str), Some(own));
        assert_eq!(num(&events[0], "retries"), retries);
        let seqs: Vec<f64> = events.iter().map(|e| num(e, "seq")).collect();
        assert_eq!(seqs, (0..events.len()).map(|i| i as f64).collect::<Vec<_>>());

        // The trace ring holds this cluster's requests only.
        let traces = json(addr, "/traces");
        let ids: Vec<&str> = traces
            .get("traces")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|t| t.get("trace_id").and_then(Json::as_str))
            .collect();
        assert!(ids.contains(&own) && !ids.contains(&other), "{ids:?}");
        assert_eq!(get(addr, &format!("/trace/{own}")).0, 200);
        assert_eq!(get(addr, &format!("/trace/{other}")).0, 404);
    }
    let events_b = get(addr_b, "/events").1;
    assert!(events_b.contains(r#""outcome":"degraded""#), "{events_b}");
}
