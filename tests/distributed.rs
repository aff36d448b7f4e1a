//! Cross-crate integration tests for the distributed system: cluster vs
//! single engine equivalence, persistence via the feature store, and the
//! REST API end-to-end.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use texid_core::{Engine, EngineConfig};
use texid_distrib::api;
use texid_distrib::b64;
use texid_distrib::cluster::{Cluster, ClusterConfig};
use texid_distrib::http::http_call;
use texid_distrib::json::parse;
use texid_distrib::wire;
use texid_image::{CaptureCondition, TextureGenerator};
use texid_sift::{extract, FeatureMatrix, SiftConfig};

fn engine_config() -> EngineConfig {
    EngineConfig { m_ref: 192, n_query: 384, batch_size: 3, streams: 1, ..EngineConfig::default() }
}

fn reference_features(id: u64) -> FeatureMatrix {
    let im = TextureGenerator::with_size(160).generate(id);
    extract(&im, &SiftConfig { max_features: 192, ..SiftConfig::default() })
}

fn query_features(id: u64, seed: u64) -> FeatureMatrix {
    let im = TextureGenerator::with_size(160).generate(id);
    let mut rng = SmallRng::seed_from_u64(seed);
    let q = CaptureCondition::mild(&mut rng).apply(&im, seed);
    extract(&q, &SiftConfig { max_features: 384, ..SiftConfig::default() })
}

#[test]
fn cluster_matches_single_engine_results() {
    const N: u64 = 9;
    let refs: Vec<FeatureMatrix> = (0..N).map(reference_features).collect();

    let mut single = Engine::new(engine_config());
    for (id, f) in refs.iter().enumerate() {
        single.add_reference(id as u64, f).unwrap();
    }
    single.flush().unwrap();

    let cluster = Cluster::new(ClusterConfig { containers: 3, engine: engine_config(), ..ClusterConfig::default() });
    for (id, f) in refs.iter().enumerate() {
        cluster.add_texture(id as u64, f).unwrap();
    }

    for trial in 0..3u64 {
        let q = query_features(trial * 4 % N, 70 + trial);
        let single_result = single.search(&q);
        let cluster_result = cluster.search(&q, N as usize);
        // Same winner and same per-reference scores, regardless of sharding.
        assert_eq!(single_result.ranked[0].0, cluster_result.results[0].0);
        let mut single_sorted = single_result.ranked.clone();
        single_sorted.sort();
        let mut cluster_sorted = cluster_result.results.clone();
        cluster_sorted.sort();
        assert_eq!(single_sorted, cluster_sorted, "trial {trial}");
    }
}

#[test]
fn features_survive_store_serialization() {
    // What goes through the Redis substrate + wire codec must reproduce
    // identical search behaviour: the store keeps the block the engine
    // indexes (f16 at the matching scale), and reads back as that block
    // widened and unscaled.
    let cluster = Cluster::new(ClusterConfig { containers: 2, engine: engine_config(), ..ClusterConfig::default() });
    for id in 0..4u64 {
        cluster.add_texture(id, &reference_features(id)).unwrap();
    }
    let s = engine_config().matching.scale;
    for id in 0..4u64 {
        let restored = cluster.get_texture(id).unwrap();
        let original = reference_features(id);
        let indexed = original.mat.to_f16_scaled(s).to_f32_unscaled(s);
        assert_eq!(restored.mat, indexed, "texture {id} matrix drifted");
        assert_eq!(restored.keypoints.len(), original.keypoints.len());
    }
}

#[test]
fn rest_api_identifies_over_http() {
    let cluster = Arc::new(Cluster::new(ClusterConfig { containers: 2, engine: engine_config(), ..ClusterConfig::default() }));
    let server = api::serve(cluster, "127.0.0.1:0").unwrap();
    let addr = server.addr();

    for id in 0..5u64 {
        let payload = b64::encode(&wire::encode_features(&reference_features(id)));
        let body = format!(r#"{{"id": {id}, "features": "{payload}"}}"#);
        assert_eq!(http_call(addr, "POST", "/textures", body.as_bytes()).unwrap().status, 201);
    }

    let payload = b64::encode(&wire::encode_features(&query_features(3, 11)));
    let body = format!(r#"{{"features": "{payload}", "top": 2}}"#);
    let resp = http_call(addr, "POST", "/search", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    let v = parse(&resp.text()).unwrap();
    let results = v.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results[0].get("id").unwrap().as_u64(), Some(3), "{}", resp.text());
    assert_eq!(v.get("comparisons").unwrap().as_u64(), Some(5));

    // A scraper that never polls `/stats` still sees the WAL move: the
    // gauges are refreshed by the scrape itself. (Exact, because nothing
    // else in this test binary reads `/stats` or `/metrics`.)
    let scrape = http_call(addr, "GET", "/metrics", b"").unwrap().text();
    assert!(scrape.lines().any(|l| l == "texid_wal_appends 5"), "no `texid_wal_appends 5` in scrape");
}

#[test]
fn crud_lifecycle_consistency() {
    let cluster = Cluster::new(ClusterConfig { containers: 2, engine: engine_config(), ..ClusterConfig::default() });
    for id in 0..6u64 {
        cluster.add_texture(id, &reference_features(id)).unwrap();
    }
    assert_eq!(cluster.len(), 6);

    // Delete 2: it leaves the results and the sweep (deleted in place on
    // its shard, not masked).
    cluster.delete_texture(2).unwrap();
    let out = cluster.search(&query_features(2, 5), 6);
    assert!(out.results.iter().all(|(id, _)| *id != 2));
    assert_eq!(out.comparisons, 5);

    // Re-add it: searchable again.
    cluster.add_texture(2, &reference_features(2)).unwrap();
    let out = cluster.search(&query_features(2, 6), 6);
    assert_eq!(out.results[0].0, 2);

    // Update 4 with the features of a *different* texture: a query for the
    // old texture 4 must no longer match id 4 meaningfully (the old
    // version is gone from its shard).
    cluster.update_texture(4, &reference_features(40)).unwrap();
    let out = cluster.search(&query_features(4, 7), 6);
    assert_eq!(out.comparisons, 6, "six live textures, however many were rewritten");
    let score4 = out.results.iter().find(|(id, _)| *id == 4).map_or(0, |(_, s)| *s);
    assert!(score4 < 10, "stale texture 4 still matches: {:?}", out.results);
    // ... but a query for texture 40's surface finds id 4 now.
    let out = cluster.search(&query_features(40, 8), 6);
    assert_eq!(out.results[0].0, 4, "{:?}", out.results);
}

#[test]
fn scatter_gather_timing_model() {
    // With balanced shards, adding containers divides per-shard work, so
    // the simulated wall time drops roughly linearly.
    let refs: Vec<FeatureMatrix> = (0..12).map(reference_features).collect();
    let wall = |containers: usize| {
        let cluster = Cluster::new(ClusterConfig { containers, engine: engine_config(), ..ClusterConfig::default() });
        for (id, f) in refs.iter().enumerate() {
            cluster.add_texture(id as u64, f).unwrap();
        }
        cluster.search(&query_features(0, 9), 1).wall_us
    };
    let w1 = wall(1);
    let w4 = wall(4);
    assert!(w4 < w1 * 0.5, "scatter-gather failed to parallelize: {w1} -> {w4}");
}
