//! Property-based tests for the search engine, on synthetic unit-norm
//! features (no extraction — these probe the indexing/search machinery).

use std::collections::BTreeMap;

use proptest::prelude::*;
use texid_cache::CacheConfig;
use texid_core::{Engine, EngineConfig, SearchResult};
use texid_gpu::{DeviceSpec, Precision};
use texid_knn::{IvfParams, MatchConfig};
use texid_linalg::Mat;
use texid_obs::Stage;
use texid_sift::FeatureMatrix;

fn unit_features(d: usize, cols: usize, seed: u64) -> FeatureMatrix {
    let mut state = seed | 1;
    let mut m = Mat::from_fn(d, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) & 0xffff) as f32 / 65535.0 + 1e-4
    });
    for c in 0..cols {
        let norm: f32 = m.col(c).iter().map(|v| v * v).sum::<f32>().sqrt();
        for v in m.col_mut(c) {
            *v /= norm;
        }
    }
    FeatureMatrix::from_mat(m, true)
}

fn engine(batch: usize, m_ref: usize, precision: Precision) -> Engine {
    Engine::new(EngineConfig {
        matching: MatchConfig { precision, ..MatchConfig::default() },
        m_ref,
        n_query: 64,
        batch_size: batch,
        streams: 1,
        ..EngineConfig::default()
    })
}

/// One step of an add / remove / flush history over ids `0..6`.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Index new features under the id, deleting its live version first.
    Put(u64),
    Remove(u64),
    Flush,
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..5, 0u64..6).prop_map(|(kind, id)| match kind {
        0 | 1 => Op::Put(id),
        2 | 3 => Op::Remove(id),
        _ => Op::Flush,
    })
}

/// Play `ops` on `e`, checking every `remove_reference` verdict against the
/// model; returns the survivors' features.
fn play(e: &mut Engine, ops: &[Op], d: usize, m_ref: usize) -> BTreeMap<u64, FeatureMatrix> {
    let mut live = BTreeMap::new();
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Put(id) => {
                assert_eq!(
                    e.remove_reference(id),
                    live.contains_key(&id),
                    "step {step}: {op:?}"
                );
                let f = unit_features(d, m_ref, id * 1000 + step as u64);
                e.add_reference(id, &f).expect("capacity");
                live.insert(id, f);
            }
            Op::Remove(id) => {
                assert_eq!(
                    e.remove_reference(id),
                    live.remove(&id).is_some(),
                    "step {step}: {op:?}"
                );
            }
            Op::Flush => e.flush().expect("flush"),
        }
        assert_eq!(e.len(), live.len(), "step {step}: {op:?}");
    }
    e.flush().expect("flush");
    live
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// In-place delete. After any interleaving of add / remove / flush —
    /// pending and sealed entries, the last and the only reference of a
    /// batch, re-added ids — every id's score and `report.images` equal
    /// those of an engine built from the survivors alone, and
    /// `export_references` returns exactly the survivors. Every history runs
    /// in F16 and F32, fused and unfused, at `m_ref = 16` (whole panels move
    /// on every backend) and `m_ref = 10` (on no backend's panel grid:
    /// elements move inside the panels).
    #[test]
    fn removal_leaves_exactly_the_survivors(
        ops in proptest::collection::vec(op(), 1..40),
        batch in 1usize..5,
        seed in any::<u64>(),
    ) {
        for config in 0..8u8 {
            let (f16, fused, m_ref) = (config & 1 != 0, config & 2 != 0, [16, 10][config as usize >> 2]);
            let d = 24;
            let build = || Engine::new(EngineConfig {
                matching: MatchConfig {
                    precision: if f16 { Precision::F16 } else { Precision::F32 },
                    fused,
                    ..MatchConfig::default()
                },
                m_ref,
                n_query: 64,
                batch_size: batch,
                streams: 1,
                ..EngineConfig::default()
            });
            let mut e = build();
            let live = play(&mut e, &ops, d, m_ref);

            let mut fresh = build();
            for (id, f) in &live {
                fresh.add_reference(*id, f).expect("capacity");
            }
            fresh.flush().expect("flush");

            let probes = live.values().take(2).cloned().chain([unit_features(d, 40, seed)]);
            for q in probes {
                let (got, want) = (e.search(&q), fresh.search(&q));
                // `ranked` orders by (score, id): equal vectors are equal
                // scores for every id.
                prop_assert_eq!(&got.ranked, &want.ranked, "f16 {} fused {} m {}", f16, fused, m_ref);
                prop_assert_eq!(got.report.images, live.len());
                prop_assert_eq!(want.report.images, live.len());
            }
            let sorted = |e: &mut Engine| {
                let mut refs = e.export_references();
                refs.sort_by_key(|(id, _)| *id);
                refs
            };
            prop_assert_eq!(sorted(&mut e), sorted(&mut fresh));

            // Removing everything gives the device back, byte for byte.
            for id in live.keys() {
                prop_assert!(e.remove_reference(*id));
            }
            prop_assert!(e.is_empty() && !e.remove_reference(0));
            prop_assert_eq!(e.device_bytes(), build().device_bytes());
            prop_assert_eq!(e.search(&unit_features(d, 40, seed)).report.images, 0);
        }
    }

    /// Deletes under an active IVF probe (`nprobe = 1` of 4 cells), before
    /// and after the quantizer trains: a batch that emptied is gone from
    /// the index, and a batch that only shrank may stay posted under a
    /// departed member's cell — a superset, so no survivor's own features
    /// ever fail to find it.
    #[test]
    fn ivf_pruning_never_loses_a_survivor(
        ops in proptest::collection::vec(op(), 1..40),
        batch in 1usize..4,
    ) {
        let (d, m_ref) = (24, 16);
        let mut e = Engine::new(EngineConfig {
            matching: MatchConfig {
                ivf: IvfParams { enabled: true, nlist: 4, nprobe: 1, ..IvfParams::default() },
                ..MatchConfig::default()
            },
            m_ref,
            n_query: 64,
            batch_size: batch,
            streams: 1,
            ..EngineConfig::default()
        });
        let live = play(&mut e, &ops, d, m_ref);
        for (id, f) in &live {
            let r = e.search(f);
            prop_assert_eq!(r.ranked.first().map(|(best, _)| *best), Some(*id));
            let swept = r.report.device_batches + r.report.host_batches;
            prop_assert!(r.report.images <= live.len() && swept >= 1);
        }
    }

    #[test]
    fn self_queries_always_win(
        n_refs in 2usize..12,
        batch in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut e = engine(batch, 32, Precision::F32);
        let refs: Vec<FeatureMatrix> =
            (0..n_refs).map(|i| unit_features(32, 32, seed ^ (i as u64 * 977))).collect();
        for (id, f) in refs.iter().enumerate() {
            e.add_reference(id as u64, f).expect("capacity");
        }
        e.flush().expect("flush");
        for (id, f) in refs.iter().enumerate() {
            let r = e.search(f);
            prop_assert_eq!(r.ranked.len(), n_refs);
            prop_assert_eq!(r.ranked[0].0, id as u64, "self-query lost");
            // Self-match passes the ratio test for (almost) every feature.
            prop_assert!(r.ranked[0].1 >= 28, "weak self score {}", r.ranked[0].1);
        }
    }

    #[test]
    fn scores_independent_of_insertion_order(
        n_refs in 2usize..8,
        batch in 1usize..4,
        seed in any::<u64>(),
    ) {
        let refs: Vec<FeatureMatrix> =
            (0..n_refs).map(|i| unit_features(24, 24, seed ^ (i as u64 * 31))).collect();
        let q = unit_features(24, 40, seed ^ 0xdead);

        let run = |order: Vec<usize>| {
            let mut e = engine(batch, 24, Precision::F32);
            for &i in &order {
                e.add_reference(i as u64, &refs[i]).expect("capacity");
            }
            e.flush().expect("flush");
            let mut ranked = e.search(&q).ranked;
            ranked.sort();
            ranked
        };
        let forward = run((0..n_refs).collect());
        let backward = run((0..n_refs).rev().collect());
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn fp16_and_fp32_rank_the_same_winner(
        n_refs in 3usize..8,
        seed in any::<u64>(),
    ) {
        let refs: Vec<FeatureMatrix> =
            (0..n_refs).map(|i| unit_features(32, 24, seed ^ (i as u64 * 131))).collect();
        // Query = noisy copy of reference 1.
        let mut q = refs[1].mat.clone();
        let mut state = seed | 3;
        for v in q.as_mut_slice() {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(1);
            *v += ((state >> 45) as f32 / (1u64 << 19) as f32 - 0.05) * 0.05;
        }
        let q = FeatureMatrix::from_mat(q, true);

        let run = |precision| {
            let mut e = engine(2, 24, precision);
            for (id, f) in refs.iter().enumerate() {
                e.add_reference(id as u64, f).expect("capacity");
            }
            e.flush().expect("flush");
            e.search(&q).ranked[0].0
        };
        prop_assert_eq!(run(Precision::F32), 1);
        prop_assert_eq!(run(Precision::F16), 1);
    }

    /// The IVF degenerate configurations — `enabled: false` (with arbitrary
    /// nlist/nprobe) and `nprobe = nlist` — must be bit-identical to the
    /// exhaustive sweep across ragged reference shapes and empty queries:
    /// identical rankings AND identical report f64 bits.
    #[test]
    fn ivf_degenerate_paths_bit_identical_to_exhaustive(
        sizes in proptest::collection::vec(1usize..32, 2..10),
        batch in 1usize..4,
        nlist in 2usize..6,
        qcols in 0usize..48,
        seed in any::<u64>(),
    ) {
        let refs: Vec<FeatureMatrix> = sizes
            .iter()
            .enumerate()
            .map(|(i, &c)| unit_features(24, c, seed ^ (i as u64 * 131)))
            .collect();
        let q = unit_features(24, qcols, seed ^ 0xabcd);

        let run = |ivf: IvfParams| -> SearchResult {
            let mut e = Engine::new(EngineConfig {
                matching: MatchConfig { ivf, ..MatchConfig::default() },
                m_ref: 24,
                n_query: 64,
                batch_size: batch,
                streams: 1,
                ..EngineConfig::default()
            });
            for (id, f) in refs.iter().enumerate() {
                e.add_reference(id as u64, f).expect("capacity");
            }
            e.flush().expect("flush");
            e.search(&q)
        };

        let base = run(IvfParams::default());
        let disabled = run(IvfParams { enabled: false, nlist, nprobe: 1, ..IvfParams::default() });
        let full_probe =
            run(IvfParams { enabled: true, nlist, nprobe: nlist, ..IvfParams::default() });
        for variant in [&disabled, &full_probe] {
            prop_assert_eq!(&base.ranked, &variant.ranked);
            let (a, b) = (&base.report, &variant.report);
            prop_assert_eq!(a.images, b.images);
            prop_assert_eq!(a.device_batches, b.device_batches);
            prop_assert_eq!(a.host_batches, b.host_batches);
            prop_assert_eq!(a.cells_probed, b.cells_probed);
            prop_assert_eq!(a.batches_pruned, b.batches_pruned);
            prop_assert_eq!(b.batches_pruned, 0);
            for (name, x, y) in [
                ("probe_us", a.probe_us, b.probe_us),
                ("h2d_us", a.stage_us[Stage::H2d], b.stage_us[Stage::H2d]),
                ("gemm_us", a.stage_us[Stage::Gemm], b.stage_us[Stage::Gemm]),
                ("sort_us", a.stage_us[Stage::Top2], b.stage_us[Stage::Top2]),
                ("d2h_us", a.stage_us[Stage::D2h], b.stage_us[Stage::D2h]),
                ("post_us", a.stage_us[Stage::Post], b.stage_us[Stage::Post]),
                ("serial_total_us", a.serial_total_us, b.serial_total_us),
                ("total_us", a.total_us, b.total_us),
            ] {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} differs: {} vs {}", name, x, y);
            }
        }
    }

    #[test]
    fn report_accounting_consistent(
        n_refs in 1usize..20,
        batch in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut e = engine(batch, 16, Precision::F32);
        for i in 0..n_refs {
            e.add_reference(i as u64, &unit_features(16, 16, seed ^ (i as u64)))
                .expect("capacity");
        }
        e.flush().expect("flush");
        let r = e.search(&unit_features(16, 16, seed ^ 0xffff));
        prop_assert_eq!(r.report.images, n_refs);
        let batches = r.report.device_batches + r.report.host_batches;
        prop_assert_eq!(batches, n_refs.div_ceil(batch));
        prop_assert!(r.report.total_us > 0.0);
        prop_assert!(r.report.total_us <= r.report.serial_total_us + 1e-9);
    }
}

#[test]
fn capacity_exhaustion_surfaces_as_error() {
    // A deliberately tiny device + tiny host must reject the overflowing
    // reference instead of panicking or silently dropping it.
    let mut small = DeviceSpec::tesla_p100();
    small.mem_bytes = 8 << 20;
    small.context_overhead_bytes = 0;
    let mut e = Engine::new(EngineConfig {
        device: small,
        matching: MatchConfig::default(),
        m_ref: 384,
        n_query: 768,
        batch_size: 1,
        streams: 1,
        cache: CacheConfig {
            host_capacity_bytes: 1 << 20,
            device_reserve_bytes: 0,
            pinned: true,
        },
    });
    let mut failed = false;
    for id in 0..200u64 {
        if e.add_reference_shape(id).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "capacity exhaustion never surfaced");
    // The engine still answers searches over what fit.
    let q = FeatureMatrix::from_mat(Mat::zeros(128, 768), true);
    let r = e.search(&q);
    assert!(r.report.images > 0);
}

/// IVF on at `batch_size: 1`: every batch is one reference, so a delete
/// empties its batch, which must leave `indexed` and every posting list.
#[test]
fn removed_single_reference_batch_leaves_the_ivf_index() {
    let mut e = Engine::new(EngineConfig {
        matching: MatchConfig {
            ivf: IvfParams {
                enabled: true,
                nlist: 4,
                nprobe: 1,
                ..IvfParams::default()
            },
            ..MatchConfig::default()
        },
        m_ref: 16,
        n_query: 64,
        batch_size: 1,
        streams: 1,
        ..EngineConfig::default()
    });
    for id in 0..12u64 {
        e.add_reference(id, &unit_features(24, 16, id))
            .expect("capacity");
    }
    let every_cell = [0u32, 1, 2, 3];
    let ivf = e.ivf_index().expect("12 pooled points train 4 cells");
    // Batch ids count up from 0, one per reference here.
    assert!(ivf.contains(5) && ivf.batches_in(&every_cell).contains(&5));

    assert!(e.remove_reference(5));
    let ivf = e.ivf_index().expect("still trained");
    assert!(!ivf.contains(5) && !ivf.batches_in(&every_cell).contains(&5));
    assert_eq!(ivf.batches_in(&every_cell).len(), 11);
    let r = e.search(&unit_features(24, 16, 5));
    assert!(r.ranked.iter().all(|(id, _)| *id != 5));
    assert_eq!(
        r.report.batches_pruned + r.report.device_batches + r.report.host_batches,
        11
    );
}
