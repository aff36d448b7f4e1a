//! Product traceability — the paper's motivating application (§1, [27]).
//!
//! Two tasks on the same index:
//! * **one-to-one verification**: "is this photo the brick it claims to
//!   be?" — match a query against a single claimed reference and apply the
//!   match-count threshold plus RANSAC geometric verification;
//! * **one-to-many search**: "which brick is this?" — search the whole
//!   reference set.
//!
//! Includes counterfeit attempts (queries of textures never enrolled) to
//! exercise the rejection path.
//!
//! ```sh
//! cargo run --release -p texid-apps --example tea_brick_traceability
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use texid_core::{Engine, EngineConfig};
use texid_gpu::{DeviceSpec, GpuSim};
use texid_image::{CaptureCondition, TextureGenerator};
use texid_knn::geometry::{verify_matches, RansacParams};
use texid_knn::{match_pair, FeatureBlock, MatchConfig};
use texid_sift::{extract, FeatureMatrix, SiftConfig};

const GENUINE: u64 = 30; // enrolled bricks
const MATCH_THRESHOLD: usize = 10; // min good matches to accept
const INLIER_THRESHOLD: usize = 8; // min RANSAC inliers to accept

fn main() {
    let factory = TextureGenerator::with_size(256);
    let ref_cfg = SiftConfig::reference(384);
    let query_cfg = SiftConfig::query(768);
    let mut rng = SmallRng::seed_from_u64(0xb41c);

    // --- enrollment ---
    println!("enrolling {GENUINE} genuine tea bricks ...");
    let refs: Vec<FeatureMatrix> =
        (0..GENUINE).map(|id| extract(&factory.generate(id), &ref_cfg)).collect();
    let mut engine = Engine::new(EngineConfig::default());
    for (id, f) in refs.iter().enumerate() {
        engine.add_reference(id as u64, f).expect("capacity");
    }
    engine.flush().expect("seal");

    // --- one-to-one verification ---
    println!("\n== one-to-one verification ==");
    let matching = MatchConfig { ..MatchConfig::default() };
    let mut sim = GpuSim::new(DeviceSpec::tesla_p100());
    let stream = sim.default_stream();

    // A genuine re-capture of brick 12, claimed as brick 12: accept.
    let capture = CaptureCondition::moderate(&mut rng);
    let genuine_q = extract(&capture.apply(&factory.generate(12), 1), &query_cfg);
    verify(&matching, &refs[12], &genuine_q, "genuine brick 12 vs claim 12", true, &mut sim, stream);

    // The same photo claimed as brick 13: reject.
    verify(&matching, &refs[13], &genuine_q, "genuine brick 12 vs claim 13", false, &mut sim, stream);

    // A counterfeit (texture never manufactured), claimed as brick 12: reject.
    let fake_q = extract(
        &CaptureCondition::mild(&mut rng).apply(&factory.generate(9_999), 2),
        &query_cfg,
    );
    verify(&matching, &refs[12], &fake_q, "counterfeit vs claim 12", false, &mut sim, stream);

    // --- one-to-many search ---
    println!("\n== one-to-many search ==");
    let mut correct = 0;
    for trial in 0..8u64 {
        let true_id = (trial * 3 + 1) % GENUINE;
        let q = extract(
            &CaptureCondition::moderate(&mut rng).apply(&factory.generate(true_id), trial),
            &query_cfg,
        );
        let result = engine.search(&q);
        let hit = result.best(MATCH_THRESHOLD);
        let ok = hit.map(|(id, _)| id) == Some(true_id);
        correct += ok as u64;
        println!(
            "  query of brick {true_id:>2}: {} (score {})",
            hit.map_or("NO MATCH".to_string(), |(id, _)| format!("identified {id}")),
            hit.map_or(0, |(_, s)| s)
        );
    }
    println!("search top-1: {correct}/8");

    // A counterfeit in the search path must come back below threshold.
    let counterfeit = extract(
        &CaptureCondition::mild(&mut rng).apply(&factory.generate(55_555), 3),
        &query_cfg,
    );
    let result = engine.search(&counterfeit);
    println!(
        "counterfeit search: best score {} -> {}",
        result.ranked[0].1,
        if result.best(MATCH_THRESHOLD).is_none() { "correctly rejected" } else { "WRONGLY ACCEPTED" }
    );
    assert!(result.best(MATCH_THRESHOLD).is_none());
    assert_eq!(correct, 8);
}

/// One-to-one verification with ratio test + geometric verification.
fn verify(
    matching: &MatchConfig,
    reference: &FeatureMatrix,
    query: &FeatureMatrix,
    label: &str,
    expect_accept: bool,
    sim: &mut GpuSim,
    stream: texid_gpu::StreamId,
) {
    let rb = FeatureBlock::from_mat(reference.mat.clone(), matching.precision, matching.scale);
    let qb = FeatureBlock::from_mat(query.mat.clone(), matching.precision, matching.scale);
    let outcome = match_pair(matching, &rb, &qb, sim, stream);

    let geo = verify_matches(
        &outcome.matches,
        &reference.keypoints,
        &query.keypoints,
        &RansacParams::default(),
    );
    let accept = outcome.score() >= MATCH_THRESHOLD && geo.inlier_count() >= INLIER_THRESHOLD;
    println!(
        "  {label}: {} good matches, {} geometric inliers (scale {:.2}, rot {:.1} deg) -> {}",
        outcome.score(),
        geo.inlier_count(),
        geo.transform.scale(),
        geo.transform.rotation().to_degrees(),
        if accept { "ACCEPT" } else { "REJECT" }
    );
    assert_eq!(accept, expect_accept, "verification outcome for '{label}'");
}
