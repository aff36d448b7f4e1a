//! Cross-crate integration tests: the full identification pipeline
//! (image → SIFT → matching → scoring → geometric verification).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use texid_core::{Engine, EngineConfig};
use texid_gpu::{DeviceSpec, GpuSim, Precision};
use texid_image::{CaptureCondition, TextureGenerator};
use texid_knn::geometry::{verify_matches, RansacParams};
use texid_knn::{match_pair, Algorithm, FeatureBlock, MatchConfig};
use texid_sift::{extract, FeatureMatrix, SiftConfig};

fn factory() -> TextureGenerator {
    TextureGenerator::with_size(192)
}

fn reference_features(id: u64) -> FeatureMatrix {
    extract(&factory().generate(id), &SiftConfig::reference(256))
}

fn query_features(id: u64, seed: u64) -> FeatureMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let img = CaptureCondition::mild(&mut rng).apply(&factory().generate(id), seed);
    extract(&img, &SiftConfig::query(512))
}

#[test]
fn engine_identifies_recaptured_textures() {
    let mut engine = Engine::new(EngineConfig {
        m_ref: 256,
        n_query: 512,
        batch_size: 4,
        streams: 1,
        ..EngineConfig::default()
    });
    for id in 0..10u64 {
        engine.add_reference(id, &reference_features(id)).unwrap();
    }
    engine.flush().unwrap();

    for trial in 0..5u64 {
        let true_id = trial * 2;
        let result = engine.search(&query_features(true_id, 100 + trial));
        assert_eq!(result.ranked[0].0, true_id, "trial {trial}: {:?}", &result.ranked[..3]);
        // Decisive margin over the runner-up.
        assert!(
            result.ranked[0].1 >= 2 * result.ranked[1].1.max(1),
            "trial {trial}: weak margin {:?}",
            &result.ranked[..2]
        );
    }
}

#[test]
fn fp16_and_fp32_engines_agree() {
    let build = |precision| {
        let mut e = Engine::new(EngineConfig {
            matching: MatchConfig { precision, ..MatchConfig::default() },
            m_ref: 256,
            n_query: 512,
            batch_size: 4,
            streams: 1,
            ..EngineConfig::default()
        });
        for id in 0..8u64 {
            e.add_reference(id, &reference_features(id)).unwrap();
        }
        e.flush().unwrap();
        e
    };
    let f32_engine = build(Precision::F32);
    let f16_engine = build(Precision::F16);

    for trial in 0..3u64 {
        let q = query_features(trial, 50 + trial);
        let a = f32_engine.search(&q);
        let b = f16_engine.search(&q);
        assert_eq!(a.ranked[0].0, b.ranked[0].0, "precision changed the winner");
        let (sa, sb) = (a.ranked[0].1 as f64, b.ranked[0].1 as f64);
        assert!((sa - sb).abs() / sa < 0.12, "scores diverged: {sa} vs {sb}");
    }
}

#[test]
fn all_matcher_algorithms_agree_on_identification() {
    let r = reference_features(3);
    let genuine = query_features(3, 7);
    let impostor = query_features(5, 8);

    let mut sim = GpuSim::new(DeviceSpec::tesla_p100());
    let st = sim.default_stream();
    for alg in [
        Algorithm::OpenCvCuda,
        Algorithm::CublasFullSort,
        Algorithm::CublasTop2,
        Algorithm::RootSiftTop2,
    ] {
        let cfg = MatchConfig {
            algorithm: alg,
            precision: Precision::F32,
            ..MatchConfig::default()
        };
        let rb = FeatureBlock::F32(r.mat.clone());
        let genuine_score =
            match_pair(&cfg, &rb, &FeatureBlock::F32(genuine.mat.clone()), &mut sim, st).score();
        let impostor_score =
            match_pair(&cfg, &rb, &FeatureBlock::F32(impostor.mat.clone()), &mut sim, st).score();
        assert!(
            genuine_score >= 10 * impostor_score.max(1),
            "{alg:?}: genuine {genuine_score} vs impostor {impostor_score}"
        );
    }
}

#[test]
fn geometric_verification_recovers_capture_transform() {
    let reference = reference_features(11);
    let rotation_deg = 12.0;
    let cond = CaptureCondition { rotation_deg, scale: 1.05, ..CaptureCondition::identity() };
    let img = cond.apply(&factory().generate(11), 0);
    let query = extract(&img, &SiftConfig::query(512));

    let cfg = MatchConfig { precision: Precision::F32, ..MatchConfig::default() };
    let mut sim = GpuSim::new(DeviceSpec::tesla_p100());
    let st = sim.default_stream();
    let out = match_pair(
        &cfg,
        &FeatureBlock::F32(reference.mat.clone()),
        &FeatureBlock::F32(query.mat.clone()),
        &mut sim,
        st,
    );
    assert!(out.score() > 30, "too few matches: {}", out.score());

    let geo = verify_matches(
        &out.matches,
        &reference.keypoints,
        &query.keypoints,
        &RansacParams::default(),
    );
    assert!(geo.inlier_count() > 20, "inliers {}", geo.inlier_count());
    // The recovered transform is (approximately) the capture condition.
    // The capture rotates the *content* by +θ, which maps reference
    // coordinates to query coordinates with rotation +θ about the centre.
    let rec_deg = geo.transform.rotation().to_degrees().abs();
    assert!(
        (rec_deg - rotation_deg).abs() < 2.0,
        "recovered rotation {rec_deg:.1} vs applied {rotation_deg}"
    );
    assert!((geo.transform.scale() - 1.05).abs() < 0.04, "scale {}", geo.transform.scale());
}

#[test]
fn asymmetric_reference_reduction_is_safe() {
    // The mechanism behind Table 7: good matches concentrate in the
    // *strongest* query features, so trimming the query side barely moves
    // a genuine pair's score, while trimming the reference side removes
    // matchable partners roughly proportionally — and identification stays
    // decisive even at half the reference features. (The dataset-level
    // accuracy sweep lives in `benches/table7_asymmetric.rs`.)
    let full_r = extract(&factory().generate(2), &SiftConfig::reference(512));
    let q_full = query_features(2, 3);

    let cfg = MatchConfig { precision: Precision::F32, ..MatchConfig::default() };
    let mut sim = GpuSim::new(DeviceSpec::tesla_p100());
    let st = sim.default_stream();
    let score = |r: &FeatureMatrix, q: &FeatureMatrix, sim: &mut GpuSim| {
        match_pair(
            &cfg,
            &FeatureBlock::F32(r.mat.clone()),
            &FeatureBlock::F32(q.mat.clone()),
            sim,
            st,
        )
        .score()
    };

    let base = score(&full_r.truncated(256), &q_full, &mut sim);
    let half_m = score(&full_r.truncated(128), &q_full, &mut sim);
    let half_n = score(&full_r.truncated(256), &q_full.truncated(256), &mut sim);

    let m_loss = 1.0 - half_m as f64 / base as f64;
    let n_loss = 1.0 - half_n as f64 / base as f64;
    // Reference trimming loses matchable partners...
    assert!(m_loss > 0.25, "m_loss {m_loss:.2} (base {base})");
    // ...yet the pair remains decisively identified,
    assert!(half_m >= 30, "half-m score collapsed: {half_m}");
    // while query trimming keeps the strong matches.
    assert!(n_loss < 0.2, "n_loss {n_loss:.2} (base {base})");
}

#[test]
fn pgm_roundtrip_preserves_identification() {
    // Export a query to PGM (8-bit quantization) and re-import: the
    // pipeline must still identify it.
    let dir = std::env::temp_dir().join("texid_pipeline_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("query.pgm");

    let mut rng = SmallRng::seed_from_u64(5);
    let img = CaptureCondition::mild(&mut rng).apply(&factory().generate(4), 9);
    texid_image::io::write_pgm(&img, &path).unwrap();
    let reloaded = texid_image::io::read_pgm(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let mut engine = Engine::new(EngineConfig {
        m_ref: 256,
        n_query: 512,
        batch_size: 4,
        streams: 1,
        ..EngineConfig::default()
    });
    for id in 0..6u64 {
        engine.add_reference(id, &reference_features(id)).unwrap();
    }
    engine.flush().unwrap();
    let q = extract(&reloaded, &SiftConfig::query(512));
    let result = engine.search(&q);
    assert_eq!(result.ranked[0].0, 4, "{:?}", &result.ranked[..3]);
}
