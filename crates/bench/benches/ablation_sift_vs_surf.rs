//! **Ablation (§3.1/§4.1)** — descriptor choice: SIFT (d=128) vs SURF
//! (d=64) vs ORB (256-bit binary).
//!
//! The paper's pipeline admits all three extractors; it ships SIFT. This
//! ablation measures why, on the synthetic dataset: identification accuracy
//! (real, severe captures), search speed (model; ORB has none — binary
//! Hamming matching cannot ride the cuBLAS/tensor-core pipeline of §4–§6),
//! and per-reference memory.

use rand::SeedableRng;
use texid_bench::{heading, row, thousands};
use texid_core::capacity::{bytes_per_reference, hybrid_capacity};
use texid_gpu::{DeviceSpec, GpuSim, Precision};
use texid_image::{CaptureCondition, TextureGenerator};
use texid_knn::{match_batch, match_pair, ExecMode, FeatureBlock, MatchConfig};
use texid_linalg::Mat;
use texid_knn::hamming::{score_binary, HammingConfig};
use texid_sift::orb::{extract_orb, BinaryFeatures, OrbConfig};
use texid_sift::{extract, extract_surf, FeatureMatrix, SiftConfig, SurfConfig};

const N_REFS: usize = 20;
const N_QUERIES: usize = 16;

fn model_speed(d: usize) -> f64 {
    let mut sim = GpuSim::new(DeviceSpec::tesla_p100());
    let st = sim.default_stream();
    let cfg = MatchConfig { precision: Precision::F16, exec: ExecMode::TimingOnly, ..MatchConfig::default() };
    let batch = 256;
    let r = FeatureBlock::from_mat(Mat::zeros(d, 384 * batch), Precision::F16, cfg.scale);
    let q = FeatureBlock::from_mat(Mat::zeros(d, 768), Precision::F16, cfg.scale);
    match_batch(&cfg, &r, batch, 384, &q, &mut sim, st).images_per_second()
}

fn accuracy(refs: &[FeatureMatrix], queries: &[(FeatureMatrix, u64)]) -> f64 {
    let matching = MatchConfig { precision: Precision::F32, exec: ExecMode::Full, ..MatchConfig::default() };
    let mut sim = GpuSim::new(DeviceSpec::tesla_p100());
    let st = sim.default_stream();
    let correct: usize = queries
        .iter()
        .map(|(q, true_id)| {
            let qb = FeatureBlock::F32(q.mat.clone());
            let mut best = (0u64, 0usize);
            for (id, r) in refs.iter().enumerate() {
                let score =
                    match_pair(&matching, &FeatureBlock::F32(r.mat.clone()), &qb, &mut sim, st)
                        .score();
                if score > best.1 {
                    best = (id as u64, score);
                }
            }
            usize::from(best.0 == *true_id && best.1 >= 10)
        })
        .sum();
    correct as f64 / queries.len() as f64
}

fn orb_accuracy(refs: &[BinaryFeatures], queries: &[(BinaryFeatures, u64)]) -> f64 {
    let h = HammingConfig::default();
    let correct: usize = queries
        .iter()
        .map(|(q, true_id)| {
            let mut best = (0u64, 0usize);
            for (id, r) in refs.iter().enumerate() {
                let score = score_binary(r, q, &h);
                if score > best.1 {
                    best = (id as u64, score);
                }
            }
            usize::from(best.0 == *true_id && best.1 >= 10)
        })
        .sum();
    correct as f64 / queries.len() as f64
}

fn main() {
    let gen = TextureGenerator { shared_background: Some(0x5a5a), ..TextureGenerator::with_size(256) };
    eprintln!("extracting SIFT, SURF and ORB features for {N_REFS} refs / {N_QUERIES} queries ...");

    let images: Vec<_> = (0..N_REFS as u64).map(|id| gen.generate(id)).collect();
    let query_images: Vec<(texid_image::GrayImage, u64)> = (0..N_QUERIES as u64)
        .map(|qi| {
            let true_id = qi % N_REFS as u64;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5f ^ qi);
            (CaptureCondition::severe(&mut rng).apply(&images[true_id as usize], qi), true_id)
        })
        .collect();

    let sift_ref = SiftConfig::reference(384);
    let sift_query = SiftConfig::query(768);
    let sift_refs: Vec<FeatureMatrix> = images.iter().map(|im| extract(im, &sift_ref)).collect();
    let sift_queries: Vec<(FeatureMatrix, u64)> = query_images
        .iter()
        .map(|(im, id)| (extract(im, &sift_query), *id))
        .collect();

    let orb_ref = OrbConfig { max_features: 384, ..OrbConfig::default() };
    let orb_query = OrbConfig { max_features: 768, ..OrbConfig::default() };
    let orb_refs: Vec<BinaryFeatures> =
        images.iter().map(|im| extract_orb(im, &orb_ref)).collect();
    let orb_queries: Vec<(BinaryFeatures, u64)> = query_images
        .iter()
        .map(|(im, id)| (extract_orb(im, &orb_query), *id))
        .collect();

    let surf_ref = SurfConfig { max_features: 384, ..SurfConfig::default() };
    let surf_query = SurfConfig { max_features: 768, ..SurfConfig::default() };
    let surf_refs: Vec<FeatureMatrix> =
        images.iter().map(|im| extract_surf(im, &surf_ref)).collect();
    let surf_queries: Vec<(FeatureMatrix, u64)> = query_images
        .iter()
        .map(|(im, id)| (extract_surf(im, &surf_query), *id))
        .collect();

    let spec = DeviceSpec::tesla_p100();
    heading("Ablation: descriptor choice — SIFT (d=128) vs SURF (d=64) vs ORB (256-bit)");
    row(&[
        "descriptor".to_string(),
        "accuracy".to_string(),
        "speed img/s".to_string(),
        "KB/ref".to_string(),
        "capacity".to_string(),
    ]);
    for (label, d, acc) in [
        ("SIFT/RootSIFT", 128usize, accuracy(&sift_refs, &sift_queries)),
        ("SURF", 64, accuracy(&surf_refs, &surf_queries)),
    ] {
        let per_ref = bytes_per_reference(384, d, Precision::F16, false);
        let cap = hybrid_capacity(&spec, 4 << 30, 64 << 30, per_ref);
        row(&[
            label.to_string(),
            format!("{:.1}%", acc * 100.0),
            thousands(model_speed(d)),
            format!("{:.1}", per_ref as f64 / 1024.0),
            thousands(cap as f64),
        ]);
    }
    // ORB: binary descriptors — tiny footprint, no GEMM pipeline.
    let orb_acc = orb_accuracy(&orb_refs, &orb_queries);
    let orb_bytes = 384u64 * 32;
    let orb_cap = hybrid_capacity(&spec, 4 << 30, 64 << 30, orb_bytes);
    row(&[
        "ORB (binary)".to_string(),
        format!("{:.1}%", orb_acc * 100.0),
        "n/a (Hamming)".to_string(),
        format!("{:.1}", orb_bytes as f64 / 1024.0),
        thousands(orb_cap as f64),
    ]);
    println!(
        "\nSURF's 64-d descriptor roughly doubles search speed and cache capacity, and ORB's\n\
         binary descriptors shrink references 6x further — but the accuracy column shows\n\
         what they cost on fine-grained textures under degraded captures, and ORB's\n\
         Hamming matching cannot use the paper's cuBLAS/FP16/tensor-core machinery at\n\
         all. Hence SIFT (as in [27] and the paper)."
    );
}
