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

    let spans = cluster.trace_ring().snapshot_trace(root.trace_id);
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
    let plan = FaultPlan::new(7).stall_stage(0, Stage::Gemm, 2.0, 100);
    let cluster = Cluster::with_faults(small_config(1), Some(plan));
    let reg = cluster.registry();
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
fn stage_histograms_count_the_measured_report_their_exemplars_carry() {
    // One writer per leg: under a 4x gemm stall the sim-clock gemm series
    // counts the measured (stalled) value, in the bucket whose exemplar
    // links to this search's trace, in the cluster's own registry.
    let plan = FaultPlan::new(11).stall_stage(0, Stage::Gemm, 4.0, 1);
    let cluster = Cluster::with_faults(small_config(1), Some(plan));
    let reg = cluster.registry();
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let ctx = TraceContext::root();
    let out = cluster.search_traced(&query_for(1), 2, Some(&ctx));
    let gemm_us = out.shard_reports[0].stage_us[Stage::Gemm];
    assert!(gemm_us > 0.0);

    let gemm = reg.stage_duration("gemm", "sim");
    assert_eq!(gemm.count(), 1);
    assert!((gemm.sum() - gemm_us).abs() < 1e-3, "sum {} vs measured {gemm_us}", gemm.sum());
    let bucket = gemm.bounds().iter().position(|&b| gemm_us <= b).unwrap_or(gemm.bounds().len());
    assert_eq!(gemm.bucket_counts()[bucket], 1, "the measured value's bucket counted it");
    assert_eq!(gemm.exemplar(bucket), Some((ctx.trace_id, gemm_us)));
}

#[test]
fn slo_status_tracks_good_and_failed_searches() {
    let plan = FaultPlan::new(3).crash_shard(0);
    let cluster = Cluster::with_faults(small_config(1), Some(plan));
    let reg = cluster.registry();
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
    let events = cluster.events().snapshot();
    assert_eq!(events.len(), 1, "one search, one event");
    let ev = events[0];
    assert_eq!(ev.trace_id, root.trace_id, "the traced search's event carries its trace id");
    assert_eq!(ev.outcome, "ok");
    assert_eq!(ev.shards_ok, 2);
    assert!(!ev.degraded);
    assert!(ev.sim_wall_us > 0.0);
    assert!(ev.stage_us[Stage::Gemm] > 0.0, "per-stage sums populated");
    assert!(ev.comparisons > 0);
    assert!(ev.coalesced >= 1);
    // Untraced searches still file events (trace_id 0).
    cluster.search(&query_for(2), 2);
    assert_eq!(cluster.events().recorded(), 2);
    assert_eq!(cluster.events().snapshot()[1].trace_id, 0);
}

#[test]
fn wide_event_is_the_fold_of_the_answered_reports() {
    // A stalled leg, a straggling leg that first retries a transient, and a
    // crashed leg: the filed event is the finished result's projection.
    let plan = FaultPlan::new(5)
        .stall_stage(0, Stage::Gemm, 3.0, 1)
        .transient_search(1, 1)
        .straggle_shard(1, 2.0, 1)
        .crash_shard(2);
    let cluster = Cluster::with_faults(small_config(3), Some(plan));
    for id in 0..6u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let root = TraceContext::root();
    let out = cluster.search_traced(&query_for(4), 3, Some(&root));
    let events = cluster.events().snapshot();
    assert_eq!(events.len(), 1, "one search, one event");
    let ev = events[0];
    assert_eq!(ev.trace_id, root.trace_id);

    let reports = &out.shard_reports;
    assert_eq!(reports.len(), 2, "the crashed leg does not answer");
    for stage in Stage::ALL {
        let sum = reports.iter().fold(0.0, |sum, r| sum + r.stage_us[stage]);
        assert_eq!(ev.stage_us[stage].to_bits(), sum.to_bits(), "{stage:?}");
    }
    let sum = |f: fn(&SearchReport) -> usize| reports.iter().map(f).sum::<usize>() as u64;
    assert_eq!(ev.device_batches, sum(|r| r.device_batches));
    assert_eq!(ev.host_batches, sum(|r| r.host_batches));
    assert_eq!(ev.cells_probed, sum(|r| r.cells_probed));
    assert_eq!(ev.batches_pruned, sum(|r| r.batches_pruned));
    let coalesced = reports.iter().map(|r| r.coalesced_queries).max().unwrap();
    assert_eq!(ev.coalesced as usize, coalesced);
    assert_eq!(ev.sim_wall_us.to_bits(), out.wall_us.to_bits());
    assert_eq!(ev.comparisons, out.comparisons as u64);
    assert_eq!((ev.shards_ok, ev.shards_failed, ev.shards_skipped), (2, 1, 0));
    assert!(ev.degraded && out.degraded);
    assert_eq!(ev.outcome, "degraded");
    assert_eq!(ev.retries, 1);
    assert_eq!(cluster.stats().retries, 1);
}

#[test]
fn prune_ratio_gauge_reads_the_whole_search() {
    // Three shards of eight single-reference batches each prune different
    // shares; the gauge reads the search's share, not the last leg's.
    let mut cfg = small_config(3);
    cfg.engine.batch_size = 1;
    cfg.engine.matching.ivf =
        texid_knn::IvfParams { enabled: true, nlist: 4, nprobe: 1, ..Default::default() };
    let cluster = Cluster::with_faults(cfg, None);
    let reg = cluster.registry();
    for id in 0..24u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let gauge = reg.gauge("texid_ivf_prune_ratio", "", &[]);
    for seed in [8, 13] {
        let out = cluster.search(&query_for(seed), 3);
        let legs: Vec<(usize, usize)> = out
            .shard_reports
            .iter()
            .map(|r| (r.batches_pruned, r.batches_pruned + r.device_batches + r.host_batches))
            .collect();
        let (pruned, total) = legs.iter().fold((0, 0), |(p, t), &(lp, lt)| (p + lp, t + lt));
        assert_eq!(legs.len(), 3);
        assert!(pruned > 0, "the probe prunes: {legs:?}");
        let ratio = pruned as f64 / total as f64;
        assert_eq!(gauge.get(), ratio, "seed {seed}: legs {legs:?}");
    }
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

    let spans = cluster.trace_ring().snapshot_trace(root.trace_id);
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

/// A leg that retries and then crashes fails, and its retries still reach
/// the counters and the search's wide event: the run's panic is caught on
/// the leg's thread, after the fault decision counted them.
#[test]
fn a_crashed_leg_still_reports_its_retries() {
    let plan = FaultPlan::new(5).transient_search(0, 2).crash_shard(0);
    let cluster = Cluster::with_faults(small_config(2), Some(plan));
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let root = TraceContext::root();
    let out = cluster.search_traced(&query_for(1), 2, Some(&root));
    assert_eq!((out.shards_failed, out.shards_ok), (1, 1));
    assert_eq!(cluster.stats().retries, 2);
    let events = cluster.events().snapshot();
    assert_eq!(events.len(), 1, "one search, one event");
    assert_eq!((events[0].trace_id, events[0].retries), (root.trace_id, 2));
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
    let spans = cluster.trace_ring().snapshot_trace(root.trace_id);
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
    // The store keeps the block the engine indexes: every column, narrowed
    // once; `get_texture` widens it back and undoes the scale.
    let cluster = small_cluster(1);
    let f = features(7, 100);
    cluster.add_texture(7, &f).unwrap();
    let back = cluster.get_texture(7).unwrap();
    let s = cluster.config().engine.matching.scale;
    assert_eq!(back.mat, f.mat.to_f16_scaled(s).to_f32_unscaled(s));
    assert_eq!(back.keypoints, f.keypoints);
    assert!(cluster.get_texture(8).is_err());
}

/// `d × cols` unit-free descriptors, deterministic and storable.
fn synthetic(cols: usize, seed: u64) -> FeatureMatrix {
    let m = texid_linalg::Mat::from_fn(DESCRIPTOR_DIM, cols, |r, c| {
        ((seed as usize * 131 + r * 31 + c * 7) % 97) as f32 / 97.0
    });
    FeatureMatrix::from_mat(m, true)
}

#[test]
fn an_f16_reference_rests_at_two_bytes_per_element() {
    // One reference at the serving shape (m_ref 384 × 128-d): the store and
    // its WAL hold the f16 block plus keypoints (98 304 B + 13 440 B), the
    // engine its panels — f16 where the tile widens in register, f32 on the
    // scalar backend.
    let engine = EngineConfig { m_ref: 384, batch_size: 8, streams: 1, ..EngineConfig::default() };
    let cluster = Cluster::new(ClusterConfig { containers: 1, engine, ..ClusterConfig::default() });
    let n = 8u64;
    for id in 0..n {
        cluster.add_texture(id, &synthetic(384, id)).unwrap();
    }
    let per_ref = |bytes: u64| bytes / n;
    let kv = per_ref(cluster.store().used_bytes());
    let wal = per_ref(cluster.stats().wal.expect("journaled").wal_bytes);
    assert!(kv <= 115_000, "KvStore holds {kv} B per reference");
    assert!(wal <= 115_000, "the WAL holds {wal} B per reference");
    let panels = per_ref(cluster.shards[0].engine.read().panel_bytes() as u64);
    let f16 = texid_linalg::active_backend().f16_panels();
    assert_eq!(panels, if f16 { 98_304 } else { 196_608 });
}

#[test]
fn unstorable_descriptors_are_refused_at_ingest() {
    let cluster = small_cluster(1);
    cluster.add_texture(0, &features(0, 64)).unwrap();
    let kept = cluster.get_texture(0).unwrap();
    let s = cluster.config().engine.matching.scale;
    // Non-finite, and past the largest finite half once scaled.
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 65_505.0 / s, -1e9] {
        let mut f = features(1, 64);
        f.mat.set(5, 3, bad);
        let refused = |r: Result<(), ClusterError>| {
            matches!(r, Err(ClusterError::Unstorable(x)) if x.to_bits() == bad.to_bits())
        };
        assert!(refused(cluster.add_texture(1, &f)), "{bad}");
        assert!(refused(cluster.update_texture(0, &f)), "{bad}");
    }
    assert!(!cluster.store().exists(&Cluster::key(1)));
    assert_eq!((cluster.len(), indexed(&cluster)), (1, 1));
    assert_eq!(cluster.get_texture(0).unwrap().mat, kept.mat, "a refused update changed nothing");
    // The largest finite half, scaled, is storable.
    let mut edge = features(1, 64);
    edge.mat.set(0, 0, 65_504.0 / s);
    cluster.add_texture(1, &edge).unwrap();

    // Under F32 only NaN and ±∞ are refused.
    let mut cfg = small_config(1);
    cfg.engine.matching.precision = texid_gpu::Precision::F32;
    let cluster = Cluster::new(cfg);
    let mut big = features(1, 64);
    big.mat.set(2, 2, 1e30);
    cluster.add_texture(1, &big).unwrap();
    big.mat.set(2, 2, f32::INFINITY);
    assert_eq!(cluster.add_texture(2, &big), Err(ClusterError::Unstorable(f32::INFINITY)));
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

/// The report [`Cluster::verify`] gave before its sweep was chunked: the
/// stored block and the whole query through one [`texid_knn::score_pair`],
/// then RANSAC.
fn serial_verify(cluster: &Cluster, id: u64, query: &FeatureMatrix) -> VerifyReport {
    use texid_knn::geometry::{verify_matches, RansacParams};
    use texid_knn::{score_pair, FeatureBlock};
    let stored = wire::decode_block(&cluster.stored(id).unwrap()).unwrap();
    let cfg = &cluster.config().engine.matching;
    let r = stored.block.into_precision(cfg.precision, cfg.scale);
    let m = &query.mat;
    let q = FeatureBlock::encode(m.rows(), m.cols(), m.as_slice(), cfg.precision, cfg.scale);
    let outcome = score_pair(cfg, &r, &q);
    let geo = verify_matches(
        &outcome.matches,
        &stored.keypoints,
        &query.keypoints,
        &RansacParams::default(),
    );
    VerifyReport {
        good_matches: outcome.score(),
        geometric_inliers: geo.inlier_count(),
        transform_scale: geo.transform.scale(),
        transform_rotation: geo.transform.rotation(),
        accepted: outcome.score() >= 10 && geo.inlier_count() >= 8,
    }
}

/// `n` query columns: a capture of texture `seed` first (truncated when
/// `n` is smaller), synthetic columns after it.
fn query_of_width(seed: u64, n: usize) -> FeatureMatrix {
    let capture = query_for(seed);
    if n <= capture.len() {
        return capture.truncated(n);
    }
    let rest = synthetic(n - capture.len(), seed);
    FeatureMatrix {
        keypoints: [capture.keypoints, rest.keypoints].concat(),
        mat: texid_linalg::Mat::hconcat(&[&capture.mat, &rest.mat]),
        rootsift: true,
    }
}

/// Every report of the chunked sweep is the serial composition's, to the
/// bit, at query widths on, beside and between the kernel's N-chunks, for
/// genuine and impostor claims.
#[test]
fn verify_reports_equal_the_serial_composition() {
    let cluster = small_cluster(4);
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    for n in [0, 1, 95, 96, 97, 700, 768, 1000] {
        let q = query_of_width(2, n);
        assert_eq!(q.len(), n);
        for claim in [2, 3] {
            let chunked = cluster.verify(claim, &q, 10, 8).unwrap();
            // `{:?}` of an f32 round-trips, so equal strings mean equal bits.
            let serial = serial_verify(&cluster, claim, &q);
            assert_eq!(format!("{chunked:?}"), format!("{serial:?}"), "n {n}, claim {claim}");
        }
        if n >= 95 {
            assert!(cluster.verify(2, &q, 10, 8).unwrap().accepted, "genuine at n {n}");
        }
    }
}

/// With every pool worker blocked on a write-locked shard under a queued
/// search leg, a verify still answers — on its own thread alone, its help
/// job queued behind the legs — and answers what it answers serially.
#[test]
fn a_verify_answers_while_every_pool_worker_is_busy() {
    const SHARDS: usize = 4;
    let cluster = Arc::new(small_cluster(SHARDS));
    for id in 0..SHARDS as u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let q = query_of_width(1, 768);
    let serial = serial_verify(&cluster, 1, &q);
    let shared = Arc::clone(&cluster);
    let (report, sweep) = within(120, move || {
        let cluster = &shared;
        let locks: Vec<_> = cluster.shards.iter().map(|s| s.engine.write()).collect();
        let before = cluster.pool.submitted();
        std::thread::scope(|s| {
            let search = s.spawn(|| cluster.search(&q, 4));
            // A leg per shard, queued ahead of the help job: each worker
            // takes one and blocks on its shard's lock.
            while cluster.pool.submitted() < before + SHARDS as u64 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let ctx = TraceContext::root();
            let report = cluster.verify_traced(1, &q, 10, 8, Some(&ctx)).unwrap();
            drop(locks);
            assert_eq!(search.join().expect("searcher").shards_ok, SHARDS);
            let spans = cluster.trace_ring().snapshot_trace(ctx.trace_id);
            (report, spans.into_iter().find(|s| s.name == "verify.sweep").expect("sweep span"))
        })
    });
    assert_eq!(format!("{report:?}"), format!("{serial:?}"));
    assert_eq!(sweep.tag("chunks"), Some("8"));
    assert_eq!(sweep.tag("helped"), Some("0"), "the caller waited on a job that claimed nothing");
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

/// `/stats` and `/health` read the cluster's registry counters, so they
/// equal that registry's `_total` samples: one fact per count, whichever
/// surface shows it.
#[test]
fn stats_and_health_show_the_registry_counts() {
    use crate::api::handle;
    use crate::http::Request;
    use crate::json::{parse, Json};

    // A transient on shard 1's first leg, and three crashes of shard 0 that
    // trip its breaker: searches 1–3 degrade on the crash, search 4 skips
    // shard 0, and search 5 readmits it with a half-open probe.
    let plan = FaultPlan::new(17)
        .transient_search(1, 1)
        .crash_shard_after(0, 0)
        .crash_shard_after(0, 0)
        .crash_shard_after(0, 0);
    let cluster = Cluster::with_faults(small_config(2), Some(plan));
    let reg = cluster.registry();
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let q = query_for(1);
    let degraded: Vec<bool> = (0..5).map(|_| cluster.search(&q, 2).degraded).collect();
    assert_eq!(degraded, [true, true, true, true, false]);

    let get = |path: &str| {
        let req = Request {
            method: "GET".into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        let resp = handle(&cluster, &req);
        assert_eq!(resp.status, 200, "{path}");
        parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    };
    let scrape = reg.render_prometheus();
    let sample = |series: &str| -> u64 {
        let line = scrape.lines().find_map(|l| l.strip_prefix(series)?.strip_prefix(' '));
        line.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("no {series} in\n{scrape}"))
    };

    let stats = get("/stats");
    let field = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64).unwrap();
    for (key, series, count) in [
        ("total_searches", "texid_cluster_searches_total", 5),
        ("degraded_searches", "texid_cluster_degraded_searches_total", 4),
        ("retries", "texid_cluster_retries_total", 1),
    ] {
        assert_eq!((field(&stats, key), sample(series)), (count, count), "{key}");
    }
    let health = get("/health");
    let shards = health.get("shards").and_then(Json::as_arr).unwrap();
    assert_eq!(shards.len(), 2);
    for (shard, count) in [(0, 3), (1, 0)] {
        let series = format!("texid_shard_failures_total{{shard=\"{shard}\"}}");
        let failures = field(&shards[shard], "total_failures");
        assert_eq!((failures, sample(&series)), (count, count), "shard {shard}");
    }
}

#[test]
fn degraded_scatter_gather_under_concurrent_load() {
    // Shard 0 crashes on every leg while several clients search
    // concurrently (through the shard RwLocks and the leg pool's
    // per-shard queues): every response must be flagged degraded, carry only
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
        resilience: ResilienceConfig { trip_threshold: 1000 },
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

/// `texid_faults_injected` has one writer, the refresh every scrape runs:
/// a fault injected outside any search (here a lost read) reads the same on
/// `/metrics` as on `/stats`.
#[test]
fn faults_injected_gauge_counts_faults_outside_searches() {
    let plan = FaultPlan::new(23).lose_kv_reads(1);
    let cluster = Cluster::with_faults(small_config(1), Some(plan));
    let reg = cluster.registry();
    cluster.add_texture(0, &features(0, 64)).unwrap();
    assert_eq!(cluster.get_texture(0).unwrap_err(), ClusterError::NotFound(0));
    cluster.refresh_gauges(); // what the `/metrics` scrape runs
    let text = reg.render_prometheus();
    assert!(text.contains("\ntexid_faults_injected 1\n"), "{text}");
    assert_eq!(cluster.stats().faults_injected, 1);
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

/// Run `work` on a thread of its own and fail, instead of hanging, when it
/// has not returned within `secs` seconds.
fn within<T: Send + 'static>(secs: u64, work: impl FnOnce() -> T + Send + 'static) -> T {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(work());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(out) => out,
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the work returned without sending"),
        },
        Err(RecvTimeoutError::Timeout) => panic!("did not return within {secs} s: deadlock"),
    }
}

/// A worker survives the legs that crash on it: more crashed searches than
/// the pool can have workers, then a clean search answers on every shard.
#[test]
fn pool_workers_survive_more_crashed_legs_than_there_are_workers() {
    const SHARDS: usize = 4;
    let crashes = SHARDS + 2;
    let plan = (0..crashes).fold(FaultPlan::new(17), |plan, _| plan.crash_shard_after(0, 0));
    let cfg = ClusterConfig {
        resilience: ResilienceConfig { trip_threshold: 1000 },
        ..small_config(SHARDS)
    };
    let cluster = Cluster::with_faults(cfg, Some(plan));
    for id in 0..8u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let (outs, clean) = within(120, move || {
        let q = query_for(3);
        let outs: Vec<_> = (0..crashes).map(|_| cluster.search(&q, 4)).collect();
        (outs, cluster.search(&q, 4))
    });
    for out in &outs {
        assert_eq!((out.shards_failed, out.shards_ok), (1, SHARDS - 1));
    }
    assert!(!clean.degraded);
    assert_eq!((clean.shards_ok, clean.comparisons), (SHARDS, 8));
    assert_eq!(clean.results[0].0, 3);
}

/// Dropping a cluster stops and joins its leg workers.
#[test]
fn dropping_clusters_leaves_no_leg_worker_behind() {
    let query = features(1, 32);
    let handles: Vec<_> = (0..50)
        .map(|_| {
            let cluster = Cluster::new(small_config(2));
            // The first search starts the workers.
            assert_eq!(cluster.search(&query, 1).shards_ok, 2);
            let live = cluster.pool.liveness();
            drop(cluster);
            live
        })
        .collect();
    assert!(handles.iter().all(|live| live.upgrade().is_none()), "a worker outlived its cluster");
}

/// `report` with the two fields a coalesced sweep changes reset: the
/// queries it swept with and its share of the H2D copies.
fn solo_fields(mut report: SearchReport) -> String {
    report.coalesced_queries = 1;
    report.stage_us[Stage::H2d] = 0.0;
    // `{:?}` of an f64 round-trips, so equal strings mean equal bits.
    format!("{report:?}")
}

/// Legs that queue behind a write-locked shard are swept together once
/// it is released, and answer what each query answers alone.
#[test]
fn queued_legs_of_one_shard_sweep_together_and_answer_as_alone() {
    const SEARCHES: usize = 6;
    let cluster = Arc::new(small_cluster(2));
    for id in 0..6u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let queries: Arc<Vec<FeatureMatrix>> = Arc::new((0..SEARCHES as u64).map(query_for).collect());
    let solo: Vec<_> = queries.iter().map(|q| cluster.search(q, 6)).collect();
    let (shared, qs) = (Arc::clone(&cluster), Arc::clone(&queries));
    let outs = within(120, move || {
        let cluster = &shared;
        // At most two workers (two shards), so at most two groups of
        // shard 0 can form while it is locked; six legs make one of the
        // (at most three) groups hold two or more.
        let locked = cluster.shards[0].engine.write();
        let before = cluster.pool.submitted();
        std::thread::scope(|s| {
            let handles: Vec<_> = qs.iter().map(|q| s.spawn(move || cluster.search(q, 6))).collect();
            while cluster.pool.submitted() < before + 2 * SEARCHES as u64 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            drop(locked);
            handles.into_iter().map(|h| h.join().expect("searcher")).collect::<Vec<_>>()
        })
    });
    assert!(
        outs.iter().any(|out| out.shard_reports[0].coalesced_queries >= 2),
        "no group formed: {:?}",
        outs.iter().map(|o| o.shard_reports[0].coalesced_queries).collect::<Vec<_>>()
    );
    for (i, (out, alone)) in outs.iter().zip(&solo).enumerate() {
        assert_eq!(out.results, alone.results, "search {i}");
        assert_eq!(out.shard_reports.len(), alone.shard_reports.len());
        for (a, b) in out.shard_reports.iter().zip(&alone.shard_reports) {
            assert_eq!(solo_fields(*a), solo_fields(*b), "search {i}");
        }
    }
}

/// Searches, rewrites and heal passes racing on one cluster all return.
#[test]
fn concurrent_searches_rewrites_and_heals_all_return() {
    let plan = (0..4).fold(FaultPlan::new(29), |plan, skip| plan.crash_shard_after(1, skip * 2));
    let cfg = ClusterConfig { resilience: ResilienceConfig { trip_threshold: 1 }, ..small_config(3) };
    let cluster = Arc::new(Cluster::with_faults(cfg, Some(plan)));
    for id in 0..6u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    let versions = Arc::new([features(9, 128), features(4, 128)]);
    let shared = Arc::clone(&cluster);
    let last = within(120, move || {
        let cluster = &shared;
        std::thread::scope(|s| {
            for client in 0..2u64 {
                s.spawn(move || {
                    for _ in 0..10 {
                        cluster.search(&query_for(client + 1), 4);
                    }
                });
            }
            let versions = &versions;
            s.spawn(move || {
                for round in 0..10 {
                    cluster.update_texture(4, &versions[round % 2]).unwrap();
                }
            });
            s.spawn(move || {
                for _ in 0..5 {
                    cluster.heal().unwrap();
                }
            });
        });
        cluster.heal().unwrap();
        cluster.search(&query_for(1), 6)
    });
    assert!(!last.degraded, "{last:?}");
    assert_eq!(last.comparisons, 6);
}

/// A leg that waits for its shard's engine lock counts the wait in
/// `texid_shard_lock_wait_us`: here a writer holds shard 0 for 100 ms
/// after the leg is queued (a worker slow to take the leg still waits
/// 30 ms or more).
#[test]
fn lock_wait_counts_the_time_a_writer_holds_the_shard() {
    let cluster = Arc::new(Cluster::new(small_config(1)));
    let reg = cluster.registry();
    for id in 0..4u64 {
        cluster.add_texture(id, &features(id, 128)).unwrap();
    }
    cluster.search(&query_for(1), 2);
    let wait = reg.histogram("texid_shard_lock_wait_us", "", &[("shard", "0")]);
    let before = wait.count();
    let shared = Arc::clone(&cluster);
    let out = within(120, move || {
        let cluster = &shared;
        let query = query_for(2);
        let locked = cluster.shards[0].engine.write();
        let submitted = cluster.pool.submitted();
        std::thread::scope(|s| {
            let search = s.spawn(|| cluster.search(&query, 2));
            while cluster.pool.submitted() == submitted {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
            drop(locked);
            search.join().expect("searcher")
        })
    });
    assert_eq!(out.shards_ok, 1);
    assert_eq!(wait.count(), before + 1, "one leg, one observation");
    assert!(wait.max() >= 30_000.0, "lock wait {} us", wait.max());
}
