//! **§3.3 reproduction** — where the time goes in each task.
//!
//! The paper: "By considering the verification task, the feature extraction
//! step dominates the compute demands ... However, [for] the identification
//! task of searching in a large reference texture image dataset, the
//! 2-nearest neighbors matching becomes the most complicated step ... since
//! the features of the reference texture images can be calculated offline."
//!
//! This bench quantifies that split. Extraction is *measured* (real CPU
//! wall time of our SIFT on this machine); matching is the simulated P100
//! time — the two are labelled, and it is their *scaling* with the
//! reference count (×1 for verification, ×M for search) that makes the
//! conclusion hardware-independent.

use std::time::Instant;
use texid_bench::{heading, row, thousands};
use texid_gpu::{DeviceSpec, Precision};
use texid_image::TextureGenerator;
use texid_knn::{BatchWork, MatchConfig};
use texid_sift::{extract, SiftConfig};

fn main() {
    // Measure extraction (median of 5 runs, 256² image, n = 768 features).
    let im = TextureGenerator::with_size(256).generate(3);
    let cfg = SiftConfig { max_features: 768, ..SiftConfig::default() };
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let f = extract(&im, &cfg);
            assert!(f.len() > 500);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let extract_us = times[times.len() / 2];

    // Simulated per-image matching cost at the production configuration.
    let mcfg = MatchConfig { precision: Precision::F16, ..MatchConfig::default() };
    let match_us =
        BatchWork::new(&mcfg, 256, 384, 768, 128).price(&DeviceSpec::tesla_p100()).per_image_us(256);

    heading("Task profile (Sec. 3.3): extraction vs matching, per query");
    row(&[
        "task".to_string(),
        "extract (CPU)".to_string(),
        "matching".to_string(),
        "match share".to_string(),
    ]);
    for (label, m) in [
        ("verification (M=1)", 1u64),
        ("search M=1k", 1_000),
        ("search M=100k", 100_000),
        ("search M=1M", 1_000_000),
    ] {
        let match_total = match_us * m as f64;
        row(&[
            label.to_string(),
            format!("{:.0} µs", extract_us),
            format!("{} µs", thousands(match_total)),
            format!("{:.1}%", match_total / (match_total + extract_us) * 100.0),
        ]);
    }
    println!(
        "\nVerification is extraction-bound; million-scale search is matching-bound by\n\
         ~{}x — which is why the paper optimizes the matching side (and why reference\n\
         features are extracted offline).",
        thousands(match_us * 1e6 / extract_us)
    );
}
