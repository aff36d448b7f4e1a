use super::*;
use crate::faults::FaultPlan;
use rand::SeedableRng;
use texid_image::{CaptureCondition, TextureGenerator};
use texid_sift::{extract, SiftConfig};

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

fn small_cluster(containers: usize) -> Cluster {
    Cluster::new(small_config(containers))
}

fn features(seed: u64, n: usize) -> FeatureMatrix {
    let im = TextureGenerator::with_size(128).generate(seed);
    extract(&im, &SiftConfig { max_features: n, ..SiftConfig::default() })
}

/// References indexed across every shard's engine (pending included).
fn indexed(cluster: &Cluster) -> usize {
    cluster.shards.iter().map(|s| s.engine.read().len()).sum()
}

fn query_for(seed: u64) -> FeatureMatrix {
    let im = TextureGenerator::with_size(128).generate(seed);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xabc);
    let q = CaptureCondition::mild(&mut rng).apply(&im, seed);
    extract(&q, &SiftConfig { max_features: 256, ..SiftConfig::default() })
}

#[test]
fn distributed_identification_end_to_end() {
    let cluster = small_cluster(3);
    for id in 0..6u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let out = cluster.search(&query_for(4), 3);
    assert_eq!(out.results[0].0, 4, "{:?}", out.results);
    assert_eq!(out.comparisons, 6);
    assert_eq!(out.shard_reports.len(), 3);
    assert!(out.images_per_second() > 0.0);
    assert!(!out.degraded);
    assert_eq!(out.shards_ok, 3);
    assert_eq!(out.shards_failed, 0);
}

#[test]
fn traced_search_records_span_tree() {
    let cluster = small_cluster(3);
    for id in 0..6u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let root = TraceContext::root();
    let out = cluster.search_traced(&query_for(4), 3, Some(&root));
    assert_eq!(out.trace_id, Some(root.trace_id));
    // Untraced searches stay untraced.
    assert_eq!(cluster.search(&query_for(4), 3).trace_id, None);

    let spans = global_ring().snapshot_trace(root.trace_id);
    let cluster_span = spans.iter().find(|s| s.name == "cluster.search").unwrap();
    assert_eq!(cluster_span.parent_id, root.span_id);
    assert_eq!(cluster_span.clock, texid_obs::Clock::Wall);
    let legs: Vec<_> = spans.iter().filter(|s| s.name == "shard.leg").collect();
    assert_eq!(legs.len(), 3, "one leg span per shard");
    for leg in &legs {
        assert_eq!(leg.parent_id, cluster_span.span_id);
        // Each answered leg has serial sim-stage children.
        let stages: Vec<_> = spans
            .iter()
            .filter(|s| s.parent_id == leg.span_id && s.clock == texid_obs::Clock::Sim)
            .collect();
        assert_eq!(stages.len(), 6, "total + 5 stages");
        assert!(stages.iter().any(|s| s.name == "hgemm"));
        assert!(stages.iter().all(|s| s.tag("track").unwrap().ends_with("(sim)")));
    }
    assert!(spans.iter().all(|s| s.name != "retry"), "no faults, no retry spans");
}

#[test]
fn stage_stall_flags_drift_on_one_stage_only() {
    // Acceptance: a 2x slowdown injected into ONE stage must push
    // texid_model_drift_ratio{stage="gemm"} past 1.5 while every
    // unperturbed stage stays within +-10% of 1.0.
    let reg = Registry::new();
    let plan = FaultPlan::new(7).stall_stage(0, Stage::Gemm, 2.0, 100);
    let cluster = Cluster::with_faults_in_registry(small_config(1), Some(plan), &reg);
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    for _ in 0..5 {
        cluster.search(&query_for(1), 2);
    }
    let drift = cluster.stats().drift;
    let ratio = |s: &str| drift.iter().find(|d| d.stage == s).unwrap().ratio;
    assert!(ratio("gemm") > 1.5, "gemm drift {}", ratio("gemm"));
    for stage in ["h2d", "top2", "d2h", "post"] {
        assert!((ratio(stage) - 1.0).abs() <= 0.1, "{stage} drifted: {}", ratio(stage));
    }
    assert!(ratio("total") > 1.0, "the stall shows up in total too: {}", ratio("total"));
    let text = reg.render_prometheus();
    assert!(text.contains("texid_model_drift_ratio{stage=\"gemm\"} 2"), "{text}");
    assert!(text.contains("texid_model_drift_ratio{stage=\"h2d\"} 1\n"), "{text}");
}

#[test]
fn slo_status_tracks_good_and_failed_searches() {
    let reg = Registry::new();
    let plan = FaultPlan::new(3).crash_shard(0);
    let cluster = Cluster::with_faults_in_registry(small_config(1), Some(plan), &reg);
    for id in 0..2u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    cluster.search(&query_for(0), 1); // injected crash: unavailable
    cluster.search(&query_for(0), 1); // healthy
    let status = cluster.slo_status();
    let avail = status.iter().find(|s| s.name == "search-availability").unwrap();
    assert_eq!((avail.good, avail.bad), (1, 1));
    assert!(avail.short_burn > 0.0, "a failed search burns budget");
    let lat = status.iter().find(|s| s.name == "search-latency").unwrap();
    assert_eq!(lat.good, 1, "the healthy search lands under 100 ms simulated");
    assert_eq!(lat.bad, 1, "an unavailable search is a latency miss too");
    let text = reg.render_prometheus();
    assert!(text.contains("texid_slo_bad_total{slo=\"search-availability\"} 1"), "{text}");
    assert!(text.contains("texid_slo_burn_rate{slo=\"search-availability\",window=\"short\"}"));
}

#[test]
fn every_search_files_a_wide_event() {
    let cluster = small_cluster(2);
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let root = TraceContext::root();
    cluster.search_traced(&query_for(2), 2, Some(&root));
    let ev = global_events()
        .snapshot()
        .into_iter()
        .find(|e| e.trace_id == root.trace_id)
        .expect("traced search filed a wide event carrying its trace id");
    assert_eq!(ev.outcome, "ok");
    assert_eq!(ev.shards_ok, 2);
    assert!(!ev.degraded);
    assert!(ev.sim_wall_us > 0.0);
    assert!(ev.gemm_us > 0.0, "per-stage sums populated");
    assert!(ev.comparisons > 0);
    assert!(ev.coalesced >= 1);
    // Untraced searches still file events (trace_id 0).
    let before = global_events().recorded();
    cluster.search(&query_for(2), 2);
    assert!(global_events().recorded() > before);
}

#[test]
fn traced_search_marks_retries_and_failed_legs() {
    let plan = FaultPlan::new(42).transient_search(0, 2);
    let cluster = Cluster::with_faults(small_config(2), Some(plan));
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let root = TraceContext::root();
    let out = cluster.search_traced(&query_for(1), 2, Some(&root));
    assert_eq!(out.shards_ok, 2, "transients are retried through");

    let spans = global_ring().snapshot_trace(root.trace_id);
    let retries: Vec<_> = spans.iter().filter(|s| s.name == "retry").collect();
    assert_eq!(retries.len(), 2, "exactly one span per note_retry");
    assert!(retries.iter().all(|s| s.tag("shard") == Some("0")));
    // Retry marks parent to shard 0's leg span.
    let leg0 = spans
        .iter()
        .find(|s| s.name == "shard.leg" && s.tag("shard") == Some("0"))
        .unwrap();
    assert!(retries.iter().all(|s| s.parent_id == leg0.span_id));
}

#[test]
fn traced_search_keeps_crashed_legs_visible() {
    let plan = FaultPlan::new(7).crash_shard(1);
    let cluster = Cluster::with_faults(small_config(2), Some(plan));
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let root = TraceContext::root();
    let out = cluster.search_traced(&query_for(1), 2, Some(&root));
    assert_eq!(out.shards_failed, 1);
    let spans = global_ring().snapshot_trace(root.trace_id);
    let legs: Vec<_> = spans.iter().filter(|s| s.name == "shard.leg").collect();
    assert_eq!(legs.len(), 2, "the crashed leg still records its span");
}

#[test]
fn shards_balanced_round_robin() {
    let cluster = small_cluster(4);
    for id in 0..8u64 {
        cluster.add_texture(id, &features(id, 64)).unwrap();
    }
    let shard_of = cluster.shard_of.lock();
    for s in 0..4 {
        let count = shard_of.values().filter(|&&v| v == s).count();
        assert_eq!(count, 2, "shard {s} holds {count}");
    }
}

#[test]
fn delete_removes_the_reference_physically() {
    let cluster = small_cluster(2);
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    cluster.delete_texture(2).unwrap();
    let out = cluster.search(&query_for(2), 4);
    assert!(out.results.iter().all(|(id, _)| *id != 2), "{:?}", out.results);
    assert_eq!((cluster.len(), out.comparisons), (3, 3), "the sweep is the live set");
    assert_eq!(cluster.delete_texture(2), Err(ClusterError::NotFound(2)));
}

#[test]
fn update_restores_searchability() {
    let cluster = small_cluster(2);
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    cluster.update_texture(1, &features(1, 128)).unwrap();
    let out = cluster.search(&query_for(1), 2);
    assert_eq!(out.results[0].0, 1);
    assert_eq!(cluster.update_texture(99, &features(0, 64)), Err(ClusterError::NotFound(99)));
}

#[test]
fn rewrites_leave_the_sweep_at_the_live_set() {
    let cluster = small_cluster(2);
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let owner = cluster.shard_of.lock()[&1];
    let versions = [features(9, 128), features(1, 128)];
    for round in 0..200 {
        cluster.update_texture(1, &versions[round % 2]).unwrap();
        if round % 50 == 0 {
            // Seals the pending version: later rewrites delete it from
            // (and so empty) a sealed batch, earlier ones from `pending`.
            assert_eq!(cluster.search(&query_for(1), 1).comparisons, 4);
        }
    }
    // POST /textures on a live id is the same rewrite.
    cluster.add_texture(1, &versions[1]).unwrap();
    let out = cluster.search(&query_for(1), 4);
    assert_eq!(
        (out.comparisons, cluster.len()),
        (4, 4),
        "201 rewrites, four references"
    );
    assert_eq!(out.results[0].0, 1);
    assert_eq!(out.results.iter().filter(|(id, _)| *id == 1).count(), 1);
    assert_eq!(
        cluster.shard_of.lock()[&1],
        owner,
        "an id is rewritten where it lives"
    );
    assert_eq!(indexed(&cluster), 4);
}

/// A rewrite overwrites the id in the slot it occupies, so a gallery
/// rewritten 70 times is the gallery enrolled fresh with the final
/// versions: every shard sweeps the same batches for the same simulated
/// time, and every ranking and score agrees.
#[test]
fn rewrites_in_slot_leave_each_shards_batches_and_report_as_fresh() {
    let versions: Vec<FeatureMatrix> = (0..16u64).map(|seed| features(seed, 128)).collect();
    let (fresh, rewritten) = (small_cluster(2), small_cluster(2));
    for id in 0..6u64 {
        fresh.add_texture(id, &versions[id as usize + 10]).unwrap();
        rewritten.add_texture(id, &versions[id as usize]).unwrap();
    }
    let sealed = rewritten.search(&query_for(3), 6);
    assert_eq!(sealed.comparisons, 6);
    for round in 0..64u64 {
        rewritten.update_texture(round % 6, &versions[(round % 10) as usize]).unwrap();
    }
    for id in 0..6u64 {
        rewritten.add_texture(id, &versions[id as usize + 10]).unwrap();
    }
    for seed in [10u64, 12, 15] {
        let (a, b) = (fresh.search(&query_for(seed), 6), rewritten.search(&query_for(seed), 6));
        assert_eq!(a.results, b.results, "query {seed}");
        assert_eq!(b.results[0].0, seed - 10, "query {seed}: {:?}", b.results);
        for (x, y) in a.shard_reports.iter().zip(&b.shard_reports) {
            let batches = |r: &SearchReport| r.device_batches + r.host_batches;
            assert_eq!((batches(x), x.images), (batches(y), y.images), "query {seed}");
            assert_eq!(x.total_us.to_bits(), y.total_us.to_bits(), "query {seed}");
        }
    }
    assert_eq!(indexed(&rewritten), 6);
}

/// The update gap: a search racing a rewrite must find the id exactly
/// once — never neither version (the old delete-then-add window), never
/// both. The searcher's 40 searches all run while the rewriter rewrites.
#[test]
fn every_search_sees_exactly_one_version_of_an_id_under_rewrite() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    let cluster = small_cluster(2);
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let versions = [features(9, 128), features(2, 128)];
    let query = query_for(2);
    let (start, searched) = (Barrier::new(2), AtomicBool::new(false));
    let rewrites = std::thread::scope(|s| {
        let rewriter = s.spawn(|| {
            start.wait();
            let mut rewrites = 0usize;
            while !searched.load(Ordering::SeqCst) {
                cluster.update_texture(2, &versions[rewrites % 2]).unwrap();
                rewrites += 1;
            }
            rewrites
        });
        // Stops the rewriter when the searches are through — or when an
        // assertion below unwinds, which would otherwise never be joined.
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let stop = Stop(&searched);
        start.wait();
        for search in 0..40 {
            let out = cluster.search(&query, 4);
            let mut ids: Vec<u64> = out.results.iter().map(|(id, _)| *id).collect();
            ids.sort_unstable();
            assert_eq!(ids, [0, 1, 2, 3], "search {search}: {:?}", out.results);
            assert_eq!(out.comparisons, 4, "search {search}");
        }
        drop(stop);
        rewriter.join().expect("rewriter")
    });
    assert!(rewrites > 0);
    assert_eq!(cluster.search(&query, 4).comparisons, cluster.len());
}

/// Writers racing on one id serialize on its shard: whatever the
/// interleaving of adds and deletes, the id ends up indexed at most
/// once and owned exactly when it is indexed.
#[test]
fn racing_writers_of_one_id_leave_it_indexed_at_most_once() {
    use std::sync::Barrier;

    let cluster = small_cluster(3);
    for id in 0..3u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let f = features(7, 128);
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4 {
            let (cluster, f, start) = (&cluster, &f, &start);
            s.spawn(move || {
                start.wait();
                for round in 0..25 {
                    if (round + t) % 3 == 0 {
                        let _ = cluster.delete_texture(7);
                    } else {
                        cluster.add_texture(7, f).unwrap();
                    }
                }
            });
        }
    });
    assert_eq!(
        indexed(&cluster),
        cluster.len(),
        "indexed but unowned, or owned twice"
    );
    cluster.add_texture(7, &f).unwrap();
    let out = cluster.search(&query_for(7), 4);
    assert_eq!(
        (out.comparisons, cluster.len(), indexed(&cluster)),
        (4, 4, 4)
    );
    assert_eq!(out.results.iter().filter(|(id, _)| *id == 7).count(), 1);
    cluster.delete_texture(7).unwrap();
    assert_eq!(
        (
            cluster.search(&query_for(7), 4).comparisons,
            indexed(&cluster)
        ),
        (3, 3)
    );
}

#[test]
fn stored_features_roundtrip() {
    let cluster = small_cluster(1);
    let f = features(7, 100);
    cluster.add_texture(7, &f).unwrap();
    let back = cluster.get_texture(7).unwrap();
    assert_eq!(back.mat, f.mat);
    assert!(cluster.get_texture(8).is_err());
}

#[test]
fn wall_time_is_max_not_sum() {
    let cluster = small_cluster(4);
    for id in 0..8u64 {
        cluster.add_texture(id, &features(id, 64)).unwrap();
    }
    let out = cluster.search(&query_for(0), 1);
    let max = out
        .shard_reports
        .iter()
        .map(|r| r.total_us)
        .fold(0.0f64, f64::max);
    let sum: f64 = out.shard_reports.iter().map(|r| r.total_us).sum();
    assert_eq!(out.wall_us, max);
    assert!(out.wall_us < sum);
}

#[test]
fn container_recovery_from_store() {
    // Kill a container (replace its engine with an empty one), recover
    // it from the feature store, and verify search results are intact.
    let cluster = small_cluster(3);
    for id in 0..9u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    cluster.delete_texture(4).unwrap();
    let before = cluster.search(&query_for(6), 3);

    // Simulate a container crash: wipe shard 0.
    *cluster.shards[0].engine.write() = Engine::new(cluster.cfg.engine.clone());
    let degraded = cluster.search(&query_for(6), 3);

    let recovery = cluster.recover_container(0).unwrap();
    assert!(recovery.restored > 0, "shard 0 held nothing?");
    assert!(recovery.quarantined.is_empty());
    let after = cluster.search(&query_for(6), 3);

    assert_eq!(before.results, after.results, "recovery changed results");
    // The degraded cluster lost shard 0's references.
    assert!(degraded.comparisons < before.comparisons);
    assert_eq!(after.comparisons, before.comparisons);
}

#[test]
fn recovery_skips_deleted_textures() {
    let cluster = small_cluster(1);
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    cluster.delete_texture(1).unwrap();
    let recovery = cluster.recover_container(0).unwrap();
    assert_eq!(recovery.restored, 3);
    let out = cluster.search(&query_for(1), 4);
    assert!(out.results.iter().all(|(id, _)| *id != 1));
}

#[test]
fn verification_accepts_genuine_rejects_impostor() {
    let cluster = small_cluster(2);
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let q = query_for(2);
    let genuine = cluster.verify(2, &q, 10, 8).unwrap();
    assert!(genuine.accepted, "{genuine:?}");
    assert!(genuine.good_matches >= 10);
    assert!((genuine.transform_scale - 1.0).abs() < 0.2);

    let impostor = cluster.verify(3, &q, 10, 8).unwrap();
    assert!(!impostor.accepted, "{impostor:?}");

    assert!(matches!(cluster.verify(99, &q, 10, 8), Err(ClusterError::NotFound(99))));
}

#[test]
fn stats_reflect_configuration() {
    let cluster = small_cluster(2);
    cluster.add_texture(0, &features(0, 64)).unwrap();
    let s = cluster.stats();
    assert_eq!(s.containers, 2);
    assert_eq!(s.textures, 1);
    assert!(s.store_bytes > 0);
    assert!(s.capacity_images > 1_000_000, "capacity {}", s.capacity_images);
    assert_eq!(s.shards_healthy, 2);
    assert_eq!(s.shards_down, 0);
    assert_eq!(s.faults_injected, 0);
}

#[test]
fn injected_crash_degrades_but_returns() {
    let plan = FaultPlan::new(11).crash_shard(1);
    let cluster = Cluster::with_faults(small_config(3), Some(plan));
    for id in 0..6u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let out = cluster.search(&query_for(4), 3);
    assert!(out.degraded);
    assert_eq!(out.shards_failed, 1);
    assert_eq!(out.shards_ok, 2);
    assert!(out.comparisons < 6);
    assert_eq!(cluster.fault_plan().unwrap().injected(), 1);

    // The crash is one-shot: the next search is whole again.
    let next = cluster.search(&query_for(4), 3);
    assert!(!next.degraded);
    assert_eq!(next.results[0].0, 4);
    let s = cluster.stats();
    assert_eq!(s.total_searches, 2);
    assert_eq!(s.degraded_searches, 1);
}

#[test]
fn breaker_trips_skips_then_readmits() {
    // Crash shard 0 on three consecutive searches: breaker trips.
    let plan = FaultPlan::new(5)
        .crash_shard_after(0, 0)
        .crash_shard_after(0, 0)
        .crash_shard_after(0, 0);
    let cluster = Cluster::with_faults(small_config(2), Some(plan));
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let q = query_for(1);
    for _ in 0..3 {
        let out = cluster.search(&q, 2);
        assert_eq!(out.shards_failed, 1);
    }
    assert_eq!(cluster.health()[0].health, ShardHealth::Down);

    // Cooldown search 1: skipped, not failed.
    let out = cluster.search(&q, 2);
    assert_eq!(out.shards_skipped, 1);
    assert_eq!(out.shards_failed, 0);
    assert!(out.degraded);

    // Cooldown reached: half-open probe succeeds (budget exhausted),
    // shard re-admitted.
    let out = cluster.search(&q, 2);
    assert_eq!(out.shards_ok, 2);
    assert!(!out.degraded);
    let health = cluster.health();
    assert_eq!(health[0].health, ShardHealth::Healthy);
    assert_eq!(health[0].probes, 1);
    assert_eq!(health[0].total_failures, 3);
}

#[test]
fn degraded_scatter_gather_under_concurrent_load() {
    // Shard 0 crashes on every leg while several clients search
    // concurrently (through the shard RwLocks and the per-shard
    // coalescer): every response must be flagged degraded, carry only
    // the healthy shard's results, and never mix shards up.
    let clients = 4u64;
    let searches_per_client = 2u64;
    let mut plan = FaultPlan::new(11);
    for _ in 0..clients * searches_per_client {
        plan = plan.crash_shard_after(0, 0);
    }
    let cfg = ClusterConfig {
        // Keep the breaker out of the picture: every leg fails, none
        // gets skipped.
        resilience: ResilienceConfig {
            trip_threshold: 1000,
            ..ResilienceConfig::default()
        },
        ..small_config(2)
    };
    let cluster = Cluster::with_faults(cfg, Some(plan));
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }

    // Round-robin placement: even ids on shard 0 (crashed), odd ids on
    // shard 1 (healthy).
    let queries: Vec<FeatureMatrix> = (0..clients).map(query_for).collect();
    let cluster_ref = &cluster;
    let outs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .iter()
            .map(|q| {
                s.spawn(move || {
                    (0..searches_per_client)
                        .map(|_| cluster_ref.search(q, 4))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client")).collect()
    });

    assert_eq!(outs.len(), (clients * searches_per_client) as usize);
    for out in &outs {
        assert!(out.degraded, "crashed shard must mark the response degraded");
        assert_eq!(out.shards_failed, 1);
        assert_eq!(out.shards_ok, 1);
        assert_eq!(out.results.len(), 2, "healthy shard holds 2 references");
        assert!(
            out.results.iter().all(|(id, _)| id % 2 == 1),
            "only shard 1's (odd) ids may appear: {:?}",
            out.results
        );
    }
}

#[test]
fn transient_search_faults_retry_then_exhaust() {
    // Two transient faults: retried within budget, search succeeds.
    let plan = FaultPlan::new(3).transient_search(0, 2);
    let cluster = Cluster::with_faults(small_config(1), Some(plan));
    cluster.add_texture(0, &features(0, 128)).unwrap();
    let out = cluster.search(&query_for(0), 1);
    assert!(!out.degraded, "{out:?}");
    assert_eq!(cluster.stats().retries, 2);

    // More transients than the retry budget: the leg fails fast.
    let plan = FaultPlan::new(3).transient_search(0, 10);
    let cluster = Cluster::with_faults(small_config(1), Some(plan));
    cluster.add_texture(0, &features(0, 128)).unwrap();
    let out = cluster.search(&query_for(0), 1);
    assert!(out.degraded);
    assert_eq!(out.shards_failed, 1);
    assert!(out.results.is_empty());
}

#[test]
fn straggler_slows_wall_time_only() {
    let baseline_cluster = small_cluster(2);
    for id in 0..4u64 {
        baseline_cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let baseline = baseline_cluster.search(&query_for(1), 2);

    let plan = FaultPlan::new(9).straggle_shard(0, 8.0, 1);
    let cluster = Cluster::with_faults(small_config(2), Some(plan));
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let slowed = cluster.search(&query_for(1), 2);
    assert!(!slowed.degraded, "straggler is slow, not failed");
    assert_eq!(slowed.results, baseline.results);
    assert!(slowed.wall_us > baseline.wall_us, "{} vs {}", slowed.wall_us, baseline.wall_us);
}

#[test]
fn corrupt_store_entry_quarantined_on_recover() {
    let plan = FaultPlan::new(21).corrupt_kv_reads(1);
    let cluster = Cluster::with_faults(small_config(1), Some(plan));
    for id in 0..3u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    // Recovery reads members in id order: id 0 draws the corrupt read.
    let recovery = cluster.recover_container(0).unwrap();
    assert_eq!(recovery.restored, 2);
    // The per-value checksum pins the blame: bytes were present but
    // mangled, so the reason is Corrupt, not Missing.
    assert_eq!(
        recovery.quarantined,
        vec![Quarantine { id: 0, reason: QuarantineReason::Corrupt }]
    );
    assert_eq!(cluster.len(), 2);
    assert!(cluster.store().exists("quarantine:tex:00000000000000000000"));
    // Quarantined ids vanish from results.
    let out = cluster.search(&query_for(0), 3);
    assert!(out.results.iter().all(|(id, _)| *id != 0));
}

#[test]
fn wrong_dimension_is_refused_on_write_and_quarantined_on_heal() {
    let plan = FaultPlan::new(5).crash_shard(0);
    let cluster = Cluster::with_faults(small_config(1), Some(plan));
    for id in 0..3u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let narrow = texid_linalg::Mat::from_fn(64, 16, |r, c| ((r + 3 * c) % 7) as f32 * 0.1);
    let narrow = FeatureMatrix::from_mat(narrow, true);
    // The write path refuses it: nothing stored, nothing indexed.
    assert_eq!(cluster.add_texture(9, &narrow), Err(ClusterError::Dimension(64)));
    assert_eq!(cluster.update_texture(1, &narrow), Err(ClusterError::Dimension(64)));
    assert_eq!((cluster.len(), indexed(&cluster)), (3, 3));
    assert!(!cluster.store().exists(&Cluster::key(9)));

    // An entry written before that check existed: intact bytes, wrong
    // shape. Recovery must retire it, not index it (or die trying).
    cluster.store().set(&Cluster::key(1), wire::encode_features(&narrow));
    assert!(cluster.search(&query_for(0), 3).degraded, "the scripted crash");
    let heal = cluster.heal().unwrap();
    assert_eq!(heal.healed, vec![0]);
    assert_eq!(heal.quarantined, vec![Quarantine { id: 1, reason: QuarantineReason::Corrupt }]);
    let after = cluster.search(&query_for(0), 3);
    assert!(!after.degraded);
    assert_eq!((after.comparisons, after.results[0].0), (2, 0));
}

#[test]
fn heal_rebuilds_all_unhealthy_shards() {
    let plan = FaultPlan::new(7).crash_shard(0).crash_shard(2);
    let cluster = Cluster::with_faults(small_config(3), Some(plan));
    for id in 0..6u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let out = cluster.search(&query_for(4), 3);
    assert_eq!(out.shards_failed, 2);

    let heal = cluster.heal().unwrap();
    assert_eq!(heal.healed, vec![0, 2]);
    assert!(heal.restored > 0);
    assert!(heal.quarantined.is_empty());
    assert!(cluster.health().iter().all(|s| s.health == ShardHealth::Healthy));

    let after = cluster.search(&query_for(4), 3);
    assert!(!after.degraded);
    assert_eq!(after.results[0].0, 4);
    assert_eq!(after.comparisons, 6);
}

#[test]
fn lost_store_entry_quarantined_as_missing() {
    let plan = FaultPlan::new(23).lose_kv_reads(1);
    let cluster = Cluster::with_faults(small_config(1), Some(plan));
    for id in 0..3u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let recovery = cluster.recover_container(0).unwrap();
    assert_eq!(recovery.restored, 2);
    assert_eq!(
        recovery.quarantined,
        vec![Quarantine { id: 0, reason: QuarantineReason::Missing }]
    );
}

#[test]
fn heal_replays_durable_store_and_quarantines_torn_write() {
    // Tear the WAL append of the final add (skip the first 3), then
    // crash the only shard so heal has something to rebuild.
    let plan = FaultPlan::new(31).tear_wal_append_after(3).crash_shard(0);
    let cluster = Cluster::with_faults(small_config(1), Some(plan));
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    // Until heal replays, the in-memory map still serves the torn id —
    // the writer had no idea the append never became durable.
    assert!(cluster.get_texture(3).is_ok());
    let out = cluster.search(&query_for(1), 4);
    assert_eq!(out.shards_failed, 1);

    let heal = cluster.heal().unwrap();
    assert_eq!(heal.healed, vec![0]);
    let replay = heal.replay.as_ref().expect("durable store must report replay stats");
    assert!(replay.wal_torn_tail_bytes > 0, "{replay:?}");
    assert_eq!(replay.wal_records_applied, 3);
    assert_eq!(
        heal.quarantined,
        vec![Quarantine { id: 3, reason: QuarantineReason::Missing }]
    );
    assert_eq!(heal.shards.len(), 1);
    assert_eq!(heal.shards[0].shard, 0);
    assert_eq!(heal.shards[0].records_replayed, 3);
    assert_eq!(heal.shards[0].records_quarantined, 1);
    assert!(heal.shards[0].replay_wall_us > 0.0);

    // The torn id is gone for good; the rest survived the crash.
    assert!(matches!(cluster.get_texture(3), Err(ClusterError::NotFound(3))));
    for id in 0..3 {
        assert!(cluster.get_texture(id).is_ok(), "id {id}");
    }
    let after = cluster.search(&query_for(1), 4);
    assert!(!after.degraded);
    assert_eq!(after.comparisons, 3);
}

#[test]
fn replay_stall_is_accounted_into_shard_wall_time() {
    let plan = FaultPlan::new(37).crash_shard(0).stall_replay(0, 250_000.0);
    let cluster = Cluster::with_faults(small_config(1), Some(plan));
    cluster.add_texture(0, &features(0, 128)).unwrap();
    let _ = cluster.search(&query_for(0), 1);
    let heal = cluster.heal().unwrap();
    assert_eq!(heal.healed, vec![0]);
    // 250ms simulated stall dominates the real rebuild time.
    assert!(heal.shards[0].replay_wall_us >= 250_000.0, "{:?}", heal.shards[0]);
}

#[test]
fn stats_expose_wal_counters() {
    let cluster = small_cluster(1);
    for id in 0..3u64 {
        cluster.add_texture(id, &features(id, 64)).unwrap();
    }
    let wal = cluster.stats().wal.expect("default store is durable");
    assert_eq!(wal.appends, 3);
    assert_eq!(wal.lost_appends, 0);
    assert!(wal.wal_bytes > 0);
}

#[test]
fn kv_write_retries_exhaust_to_unavailable() {
    let plan = FaultPlan::new(13).transient_kv_writes(10);
    let cluster = Cluster::with_faults(small_config(1), Some(plan));
    let err = cluster.add_texture(0, &features(0, 64)).unwrap_err();
    assert!(matches!(err, ClusterError::Unavailable(_)), "{err:?}");
    assert!(cluster.is_empty());
}

#[test]
fn kv_read_timeout_after_retry_budget() {
    let plan = FaultPlan::new(17).transient_kv_reads(10);
    let cluster = Cluster::with_faults(small_config(1), Some(plan));
    // Write path is clean (rules are read-scoped).
    cluster.add_texture(0, &features(0, 64)).unwrap();
    let err = cluster.get_texture(0).unwrap_err();
    assert!(matches!(err, ClusterError::Timeout(_)), "{err:?}");
}
