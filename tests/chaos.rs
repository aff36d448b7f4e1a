//! Chaos suite: seeded fault plans against the distributed cluster.
//!
//! Three properties (plus the acceptance scenario and a determinism check):
//!
//! 1. Any plan that leaves at least one shard healthy still returns correct
//!    results for textures living on the healthy shards.
//! 2. `heal()` after crash/corruption plans restores search results
//!    identical to an unfaulted twin cluster.
//! 3. The circuit breaker re-admits a healed shard.
//!
//! All fault plans are seeded and scripted — reruns reproduce the same
//! failure sequences exactly.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use texid_core::EngineConfig;
use texid_distrib::api;
use texid_distrib::cluster::{
    Cluster, ClusterConfig, Quarantine, QuarantineReason, ResilienceConfig, ShardHealth,
};
use texid_distrib::faults::{Backoff, FaultPlan, FaultProbs};
use texid_distrib::http::http_call;
use texid_distrib::json::parse;
use texid_image::{CaptureCondition, TextureGenerator};
use texid_sift::{extract, FeatureMatrix, SiftConfig};
use texid_store::LogConfig;

fn chaos_config(containers: usize) -> ClusterConfig {
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
    let mut rng = SmallRng::seed_from_u64(id ^ 0x5eed);
    let q = CaptureCondition::mild(&mut rng).apply(&im, id);
    extract(&q, &SiftConfig { max_features: 256, ..SiftConfig::default() })
}

fn populate(cluster: &Cluster, n: u64) {
    for id in 0..n {
        cluster.add_texture(id, &reference_features(id)).unwrap();
    }
}

/// Property 1: with >= 1 healthy shard, textures on healthy shards are
/// still found, under several different crash subsets.
#[test]
fn healthy_shards_keep_answering() {
    // Round-robin placement: id i lives on shard i % 3.
    let crash_sets: &[&[usize]] = &[&[0], &[2], &[0, 1], &[1, 2]];
    for (seed, crashed) in crash_sets.iter().enumerate() {
        let mut plan = FaultPlan::new(seed as u64);
        for &s in *crashed {
            plan = plan.crash_shard(s);
        }
        let cluster = Cluster::with_faults(chaos_config(3), Some(plan));
        populate(&cluster, 6);

        // Pick a texture on a surviving shard.
        let surviving_id = (0..6u64)
            .find(|id| !crashed.contains(&((id % 3) as usize)))
            .expect("some shard survives");
        let out = cluster.search(&query_features(surviving_id), 3);
        assert!(out.degraded, "crash set {crashed:?}");
        assert_eq!(out.shards_failed, crashed.len(), "crash set {crashed:?}");
        assert_eq!(out.shards_ok, 3 - crashed.len());
        assert_eq!(
            out.results[0].0, surviving_id,
            "crash set {crashed:?}: {:?}",
            out.results
        );
    }
}

/// Property 2: after arbitrary crash/corruption fault phases, heal()
/// restores results identical to an unfaulted twin cluster.
#[test]
fn heal_restores_prefault_results() {
    for seed in [3u64, 17, 99] {
        let baseline = Cluster::new(chaos_config(3));
        populate(&baseline, 6);

        // Crashes on two shards, read corruption and transient noise on the
        // KV path. The corruption budget is consumed by get_texture reads
        // during the fault phase (read-side corruption does not mutate the
        // stored bytes), so heal() sees a clean store.
        let plan = FaultPlan::new(seed)
            .crash_shard(seed as usize % 3)
            .crash_shard((seed as usize + 1) % 3)
            .corrupt_kv_reads(1)
            .transient_kv_reads(2);
        let cluster = Cluster::with_faults(chaos_config(3), Some(plan));
        populate(&cluster, 6);

        // Fault phase: the search absorbs the crashes; reads burn through
        // the KV fault budgets (errors are expected and tolerated here).
        let hurt = cluster.search(&query_features(1), 6);
        assert!(hurt.degraded, "seed {seed}");
        assert_eq!(hurt.shards_failed, 2);
        for id in 0..6u64 {
            let _ = cluster.get_texture(id);
        }

        let report = cluster.heal().unwrap();
        assert_eq!(report.healed.len(), 2, "seed {seed}: {report:?}");
        assert!(report.quarantined.is_empty(), "store bytes were never mutated");

        for probe in [0u64, 1, 4] {
            let expected = baseline.search(&query_features(probe), 6);
            let healed = cluster.search(&query_features(probe), 6);
            assert!(!healed.degraded, "seed {seed}");
            assert_eq!(healed.results, expected.results, "seed {seed} probe {probe}");
            assert_eq!(healed.comparisons, expected.comparisons);
        }
    }
}

/// Pack-once across the cluster's write paths: shards pack each reference
/// into its batch's panels as it arrives. Against a twin whose unfused
/// configuration scans the same panels after a materialized GEMM, results
/// and every shard report must agree bit for bit after `update_texture`
/// (the new version overwrites the old one's columns in its slot) and after
/// `heal()` rebuilt a crashed shard — and its panels — from the store,
/// while the other shards keep the batches their rewrites edited in place.
#[test]
fn prepacked_shards_match_unfused_twin_through_update_and_heal() {
    let unfused_config = || {
        let mut cfg = chaos_config(3);
        cfg.engine.matching.fused = false;
        cfg
    };
    let plan = || Some(FaultPlan::new(11).crash_shard(1));
    let twin = Cluster::with_faults(unfused_config(), plan());
    let cluster = Cluster::with_faults(chaos_config(3), plan());
    for c in [&twin, &cluster] {
        populate(c, 6);
        c.update_texture(2, &reference_features(7)).unwrap();
        c.update_texture(4, &reference_features(4)).unwrap();
        assert!(c.search(&query_features(1), 6).degraded, "shard 1 crashes on first search");
        assert_eq!(c.heal().unwrap().healed, vec![1]);
    }

    for probe in [0u64, 4, 7] {
        let expected = twin.search(&query_features(probe), 6);
        let got = cluster.search(&query_features(probe), 6);
        assert!(!got.degraded, "probe {probe}");
        assert_eq!(got.results, expected.results, "probe {probe}");
        assert_eq!(
            got.comparisons, 6,
            "probe {probe}: the sweep is the live set"
        );
        assert_eq!(got.comparisons, expected.comparisons, "probe {probe}");
        assert_eq!(got.wall_us.to_bits(), expected.wall_us.to_bits(), "probe {probe}");
        // `{:?}` prints f64s round-trip exactly: equal strings, equal bits.
        assert_eq!(
            format!("{:?}", got.shard_reports),
            format!("{:?}", expected.shard_reports),
            "probe {probe}"
        );
    }
}

/// Property 3: a tripped breaker re-admits the shard after heal().
#[test]
fn breaker_readmits_healed_shard() {
    let trip = ClusterConfig::default().resilience.trip_threshold as u64;
    let mut plan = FaultPlan::new(7);
    for _ in 0..trip {
        plan = plan.crash_shard(0);
    }
    let cluster = Cluster::with_faults(chaos_config(2), Some(plan));
    populate(&cluster, 4);

    for i in 0..trip {
        let out = cluster.search(&query_features(0), 2);
        assert_eq!(out.shards_failed, 1, "search {i}");
    }
    assert_eq!(cluster.health()[0].health, ShardHealth::Down);

    // While Down, the shard is skipped, not re-dispatched.
    let out = cluster.search(&query_features(0), 2);
    assert_eq!(out.shards_skipped, 1);
    assert_eq!(out.shards_failed, 0);

    let report = cluster.heal().unwrap();
    assert_eq!(report.healed, vec![0]);
    assert_eq!(cluster.health()[0].health, ShardHealth::Healthy);

    let out = cluster.search(&query_features(0), 2);
    assert!(!out.degraded);
    assert_eq!(out.shards_ok, 2);
    assert_eq!(out.results[0].0, 0);
}

/// The acceptance scenario end to end: crash 1 of 3 shards mid-search,
/// observe a degraded (not panicked) result, heal, verify identical
/// results and an all-healthy REST /health.
#[test]
fn acceptance_crash_heal_roundtrip() {
    // Let the first search through clean, crash shard 1 on the second.
    let plan = FaultPlan::new(42).crash_shard_after(1, 1);
    let cluster = Arc::new(Cluster::with_faults(chaos_config(3), Some(plan)));
    populate(&cluster, 6);

    let prefault = cluster.search(&query_features(4), 3);
    assert!(!prefault.degraded);

    let hurt = cluster.search(&query_features(4), 3);
    assert!(hurt.degraded);
    assert_eq!(hurt.shards_failed, 1);
    assert_eq!(hurt.shards_ok, 2);

    cluster.heal().unwrap();
    let healed = cluster.search(&query_features(4), 3);
    assert_eq!(healed.results, prefault.results);
    assert!(!healed.degraded);

    let server = api::serve(cluster.clone(), "127.0.0.1:0").unwrap();
    let resp = http_call(server.addr(), "GET", "/health", b"").unwrap();
    assert_eq!(resp.status, 200);
    let v = parse(&resp.text()).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"), "{}", resp.text());
    let shards = v.get("shards").unwrap().as_arr().unwrap();
    assert_eq!(shards.len(), 3);
    for s in shards {
        assert_eq!(s.get("health").and_then(|h| h.as_str()), Some("healthy"), "{}", resp.text());
    }
}

/// The durability acceptance scenario end to end: a shard crash plus a
/// torn WAL tail mid-ingest. After `heal()` the replayed shard serves
/// search results bit-identical to an uncrashed control cluster that never
/// saw the torn record, and exactly the torn record is quarantined and
/// counted in the per-shard replay stats.
#[test]
fn acceptance_torn_wal_tail_heals_to_control_cluster() {
    // 5 ids round-robin over 3 shards, then rewrites of one id per shard
    // (each deleted in place on its shard: id 3 out of a full batch, id 2
    // emptying its own, id 4 back to its first features), then id 5, which
    // lands on shard 2. Tear the WAL append of that final ingest (append #8,
    // zero-indexed) and crash the shard that owns it. Mid-stream tears
    // cascade misalignment, so the torn-final-record shape is the one torn
    // writes actually produce.
    let plan = FaultPlan::new(2024).tear_wal_append_after(8).crash_shard(2);
    let cluster = Cluster::with_faults(chaos_config(3), Some(plan));
    // Control: identical cluster, never faulted, never given the torn id.
    let control = Cluster::new(chaos_config(3));
    for c in [&cluster, &control] {
        populate(c, 5);
        c.update_texture(3, &reference_features(30)).unwrap();
        c.update_texture(2, &reference_features(20)).unwrap();
        c.update_texture(4, &reference_features(4)).unwrap();
    }
    cluster.add_texture(5, &reference_features(5)).unwrap();

    // The crash fires on the next search leg against shard 2.
    let hurt = cluster.search(&query_features(2), 6);
    assert!(hurt.degraded);
    assert_eq!(hurt.shards_failed, 1);

    let report = cluster.heal().unwrap();
    assert_eq!(report.healed, vec![2]);

    // Exactly the torn record is quarantined: the WAL never durably held
    // id 5, so replay surfaces it as Missing (not Corrupt).
    assert_eq!(
        report.quarantined,
        vec![Quarantine { id: 5, reason: QuarantineReason::Missing }]
    );
    let replay = report.replay.as_ref().expect("durable store must replay");
    assert_eq!(replay.wal_records_applied, 8, "{replay:?}");
    assert!(replay.wal_torn_tail_bytes > 0, "{replay:?}");
    assert_eq!(replay.wal_corrupt_skipped, 0, "{replay:?}");
    assert_eq!(report.shards.len(), 1);
    let sr = &report.shards[0];
    assert_eq!((sr.shard, sr.records_replayed, sr.records_quarantined), (2, 1, 1));
    assert!(sr.replay_wall_us >= 0.0);

    // The healed cluster now is the control cluster, bit for bit: same
    // ranked (id, score) lists, same comparison counts — the five live
    // textures, none of their three earlier versions — no degradation.
    for probe in [0u64, 1, 20, 30, 4] {
        let healed = cluster.search(&query_features(probe), 6);
        let expected = control.search(&query_features(probe), 6);
        assert!(!healed.degraded, "probe {probe}");
        assert_eq!(healed.results, expected.results, "probe {probe}");
        assert_eq!(healed.comparisons, 5, "probe {probe}");
        assert_eq!(healed.comparisons, expected.comparisons, "probe {probe}");
    }
    // The torn id is honestly gone, not silently half-present.
    assert!(cluster.get_texture(5).is_err());
}

/// A corrupted snapshot is detected at replay, reported, and the ids whose
/// only durable copy was in that snapshot are quarantined as Missing —
/// while everything still covered by the WAL tail survives the heal.
#[test]
fn corrupt_snapshot_is_reported_and_wal_tail_survives() {
    let config = ClusterConfig {
        store: LogConfig { snapshot_every: 4 },
        ..chaos_config(3)
    };
    // The 4th append triggers compaction; the snapshot write is bit-flipped
    // and the WAL is truncated beneath it, so ids 0..4 exist only in the
    // bad snapshot. Ids 4 and 5 land in the post-snapshot WAL tail.
    let plan = FaultPlan::new(7).corrupt_snapshots(1).crash_shard(0).crash_shard(1).crash_shard(2);
    let cluster = Cluster::with_faults(config, Some(plan));
    populate(&cluster, 6);

    let hurt = cluster.search(&query_features(0), 6);
    assert_eq!(hurt.shards_failed, 3);

    let report = cluster.heal().unwrap();
    assert_eq!(report.healed, vec![0, 1, 2]);
    let replay = report.replay.as_ref().expect("durable store must replay");
    assert!(replay.snapshot_error.is_some(), "{replay:?}");
    assert_eq!(replay.wal_records_applied, 2, "{replay:?}");

    // Ids 0..4 were lost with the snapshot; 4 and 5 replayed from the WAL.
    let mut lost: Vec<u64> = report.quarantined.iter().map(|q| q.id).collect();
    lost.sort_unstable();
    assert_eq!(lost, vec![0, 1, 2, 3]);
    assert!(report
        .quarantined
        .iter()
        .all(|q| q.reason == QuarantineReason::Missing));
    assert_eq!(cluster.get_texture(4).unwrap().len(), reference_features(4).len());
    assert!(cluster.get_texture(0).is_err());

    // Survivors answer: a query for id 4 still identifies it.
    let out = cluster.search(&query_features(4), 6);
    assert!(!out.degraded);
    assert_eq!(out.results[0].0, 4);
}

/// Seeded durability chaos is reproducible: the same seed tears and loses
/// the same WAL appends, and replay quarantines the same id sets.
#[test]
fn durability_chaos_is_deterministic() {
    let probs = FaultProbs {
        torn_write: 0.2,
        crash_before_fsync: 0.2,
        ..FaultProbs::default()
    };
    let run = |seed: u64| -> (Vec<u64>, usize, usize) {
        let plan = FaultPlan::chaos(seed, probs).crash_shard(0).crash_shard(1).crash_shard(2);
        let cluster = Cluster::with_faults(chaos_config(3), Some(plan));
        populate(&cluster, 12);
        let _ = cluster.search(&query_features(0), 6);
        let report = cluster.heal().unwrap();
        let mut ids: Vec<u64> = report.quarantined.iter().map(|q| q.id).collect();
        ids.sort_unstable();
        let replay = report.replay.expect("durable");
        (ids, replay.wal_records_applied, replay.wal_torn_tail_bytes)
    };
    let a = run(0xfee1);
    let b = run(0xfee1);
    assert_eq!(a, b, "same seed must lose the same records");
    assert!(
        !a.0.is_empty(),
        "chaos probabilities too low to exercise durability faults: {a:?}"
    );
}

/// Fault accounting is exactly-once: every retry attempt bumps the one
/// retry counter that `/stats` and `/metrics` read, a degraded search is
/// counted once no matter how many legs failed, and per-shard failures
/// count one per failed leg. Each cluster counts into its own registry, so
/// the numbers are exact whatever else this process runs.
#[test]
fn fault_events_are_recorded_exactly_once() {
    use texid_obs::Registry;
    let counter = |reg: &Registry, name: &str, labels: &[(&str, &str)]| -> u64 {
        // Registration is idempotent, so re-registering returns the same
        // underlying handle the cluster increments.
        reg.counter(name, "", labels).get()
    };

    // Two transient faults inside the retry budget: exactly two retries,
    // zero degraded searches, zero leg failures.
    let plan = FaultPlan::new(3).transient_search(0, 2);
    let cluster = Cluster::with_faults(chaos_config(2), Some(plan));
    let reg = cluster.registry();
    populate(&cluster, 4);
    let out = cluster.search(&query_features(0), 2);
    assert!(!out.degraded);
    let stats = cluster.stats();
    assert_eq!(stats.retries, 2);
    assert_eq!(counter(reg, "texid_cluster_retries", &[]), 2);
    assert_eq!(counter(reg, "texid_cluster_degraded_searches", &[]), 0);
    assert_eq!(counter(reg, "texid_shard_failures", &[("shard", "0")]), 0);

    // More transients than the budget: retries stop at max_retries, the
    // leg fails once, and the search degrades once.
    let budget = Backoff::MAX_RETRIES as u64;
    let plan = FaultPlan::new(3).transient_search(0, 10);
    let cluster = Cluster::with_faults(chaos_config(2), Some(plan));
    let reg = cluster.registry();
    populate(&cluster, 4);
    let out = cluster.search(&query_features(0), 2);
    assert!(out.degraded);
    assert_eq!(out.shards_failed, 1);
    let stats = cluster.stats();
    assert_eq!(stats.retries, budget);
    assert_eq!(counter(reg, "texid_cluster_retries", &[]), budget);
    assert_eq!(counter(reg, "texid_cluster_degraded_searches", &[]), 1);
    assert_eq!(stats.degraded_searches, 1);
    assert_eq!(counter(reg, "texid_shard_failures", &[("shard", "0")]), 1);
    assert_eq!(counter(reg, "texid_shard_failures", &[("shard", "1")]), 0);

    // Two shards crash in one search: two leg failures, but still exactly
    // one degraded-search event.
    let plan = FaultPlan::new(9).crash_shard(0).crash_shard(1);
    let cluster = Cluster::with_faults(chaos_config(3), Some(plan));
    let reg = cluster.registry();
    populate(&cluster, 6);
    let out = cluster.search(&query_features(2), 3);
    assert!(out.degraded);
    assert_eq!(out.shards_failed, 2);
    assert_eq!(counter(reg, "texid_cluster_degraded_searches", &[]), 1);
    assert_eq!(cluster.stats().degraded_searches, 1);
    assert_eq!(counter(reg, "texid_shard_failures", &[("shard", "0")]), 1);
    assert_eq!(counter(reg, "texid_shard_failures", &[("shard", "1")]), 1);
    assert_eq!(counter(reg, "texid_shard_failures", &[("shard", "2")]), 0);
    assert_eq!(counter(reg, "texid_cluster_retries", &[]), 0);
}

/// Same seed => same failure sequence, observable end to end.
#[test]
fn fault_injection_is_deterministic() {
    let probs = FaultProbs {
        shard_crash: 0.25,
        straggler: 0.2,
        transient: 0.2,
        ..FaultProbs::default()
    };
    type Observation = (bool, usize, usize, Vec<(u64, usize)>);
    let run = |seed: u64| -> Vec<Observation> {
        let cluster =
            Cluster::with_faults(chaos_config(3), Some(FaultPlan::chaos(seed, probs)));
        populate(&cluster, 6);
        (0..6)
            .map(|i| {
                let out = cluster.search(&query_features(i % 3), 3);
                (out.degraded, out.shards_failed, out.shards_skipped, out.results)
            })
            .collect()
    };
    let a = run(1234);
    let b = run(1234);
    assert_eq!(a, b, "same seed must reproduce the same failure sequence");
    assert!(
        a.iter().any(|(degraded, ..)| *degraded),
        "chaos probabilities too low to exercise anything: {a:?}"
    );
    let c = run(4321);
    assert_ne!(a, c, "different seeds should explore different schedules");
}

/// A seed reproduces each shard's faults under concurrent load: a chaos plan
/// (crashes, stragglers, transients) searched from four client threads
/// leaves every shard's `texid_shard_failures` and the cluster's
/// `texid_cluster_retries` where a serial run with the same seed leaves
/// them, on every one of twenty repeats. The breaker is kept out of play
/// (`trip_threshold` = the number of searches), so every search dispatches
/// every shard's leg and the only thing left to interleave is the legs'
/// fault decisions.
#[test]
fn concurrent_chaos_reproduces_the_serial_run() {
    use std::sync::Barrier;
    const SHARDS: usize = 4;
    const CLIENTS: usize = 4;
    const SEARCHES: usize = 12;
    const REPEATS: usize = 20;
    let probs = FaultProbs {
        shard_crash: 0.2,
        straggler: 0.2,
        transient: 0.35,
        ..FaultProbs::default()
    };
    let refs: Vec<FeatureMatrix> = (0..8).map(reference_features).collect();
    let queries: Vec<FeatureMatrix> = (0..CLIENTS as u64).map(query_features).collect();
    // Per-shard failures and cluster retries after SEARCHES searches, the
    // i-th by client i % clients.
    let run = |clients: usize| -> (Vec<u64>, u64) {
        let config = ClusterConfig {
            resilience: ResilienceConfig { trip_threshold: SEARCHES as u32 },
            ..chaos_config(SHARDS)
        };
        let plan = FaultPlan::chaos(0xc0c0, probs);
        let cluster = Cluster::with_faults(config, Some(plan));
        let reg = cluster.registry();
        for (id, features) in refs.iter().enumerate() {
            // Enrolment is serial in every run, so a write the plan refuses
            // (transients past the retry budget) is refused in all of them.
            let _ = cluster.add_texture(id as u64, features);
        }
        // Each round starts on a barrier, so the clients' searches overlap.
        let round = Barrier::new(clients);
        std::thread::scope(|s| {
            for client in 0..clients {
                let (cluster, queries, round) = (&cluster, &queries, &round);
                s.spawn(move || {
                    for i in (client..SEARCHES).step_by(clients) {
                        round.wait();
                        cluster.search(&queries[i % queries.len()], 4);
                    }
                });
            }
        });
        let failures = (0..SHARDS)
            .map(|s| reg.counter("texid_shard_failures", "", &[("shard", &s.to_string())]).get())
            .collect();
        (failures, reg.counter("texid_cluster_retries", "", &[]).get())
    };
    let serial = run(1);
    assert!(
        serial.0.iter().filter(|&&f| f > 0).count() > 1 && serial.1 > 0,
        "chaos probabilities too low to exercise anything: {serial:?}"
    );
    for repeat in 0..REPEATS {
        assert_eq!(run(CLIENTS), serial, "repeat {repeat}: (failures per shard, retries)");
    }
}
