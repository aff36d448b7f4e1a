//! **Ablation (§5.1)** — the RootSIFT design choice.
//!
//! The paper adopts RootSIFT so that Algorithm 1 collapses to Algorithm 2
//! (no norm vectors, fused sort+sqrt, simpler batching), reporting that the
//! switch costs only 0.84% accuracy. This ablation quantifies both sides on
//! the synthetic dataset:
//!
//! * accuracy: plain SIFT + Algorithm 1 vs RootSIFT + Algorithm 2, on the
//!   same textures and captures;
//! * per-image time: Algorithm 1's extra "add N_R" and "add N_Q + sqrt"
//!   kernels vs Algorithm 2's two-kernel pipeline (batch 1, where the fixed
//!   steps are not yet amortized).

use texid_bench::eval::{build_dataset, top1_accuracy, EvalConfig, Severity};
use texid_bench::{heading, row, thousands};
use texid_gpu::{DeviceSpec, Precision};
use texid_knn::{Algorithm, BatchWork, MatchConfig};

fn pair_time(algorithm: Algorithm) -> f64 {
    let cfg = MatchConfig { algorithm, precision: Precision::F16, ..MatchConfig::default() };
    BatchWork::new(&cfg, 1, 768, 768, 128).price(&DeviceSpec::tesla_p100()).total_us()
}

fn main() {
    let base = EvalConfig {
        n_refs: 20,
        n_queries: 24,
        image_size: 256,
        m_ref: 384,
        n_query: 768,
        seed: 0xab1a7e,
        severity: Severity::Moderate,
        fine_grained: true,
        rootsift: true,
    };

    eprintln!("building RootSIFT dataset ...");
    let ds_root = build_dataset(&base);
    eprintln!("building plain-SIFT dataset ...");
    let ds_plain = build_dataset(&EvalConfig { rootsift: false, ..base.clone() });

    let acc_plain = top1_accuracy(
        &ds_plain,
        &MatchConfig {
            algorithm: Algorithm::CublasTop2, // Algorithm 1 (norm vectors)
            precision: Precision::F32,
            ..MatchConfig::default()
        },
    );
    let acc_root = top1_accuracy(
        &ds_root,
        &MatchConfig {
            algorithm: Algorithm::RootSiftTop2, // Algorithm 2
            precision: Precision::F32,
            ..MatchConfig::default()
        },
    );

    heading("Ablation: RootSIFT (Alg. 2) vs plain SIFT (Alg. 1), m=384, n=768");
    row(&[
        "pipeline".to_string(),
        "accuracy".to_string(),
        "µs/img (b=1)".to_string(),
        "speed img/s".to_string(),
    ]);
    let t1 = pair_time(Algorithm::CublasTop2);
    let t2 = pair_time(Algorithm::RootSiftTop2);
    row(&[
        "SIFT + Alg.1".to_string(),
        format!("{:.2}%", acc_plain * 100.0),
        format!("{t1:.1}"),
        thousands(1e6 / t1),
    ]);
    row(&[
        "RootSIFT + Alg.2".to_string(),
        format!("{:.2}%", acc_root * 100.0),
        format!("{t2:.1}"),
        thousands(1e6 / t2),
    ]);

    println!(
        "\nPaper (§5.1): RootSIFT costs only 0.84% accuracy while removing the N_R/N_Q\n\
         kernels and fusing the sqrt into the scan. Ours: accuracy delta {:+.2}pp, and the\n\
         Algorithm-2 pipeline is {:.1}% faster per unbatched image ({:.1} vs {:.1} µs) —\n\
         plus it is the only variant whose fixed work amortizes cleanly under batching.",
        (acc_plain - acc_root) * 100.0,
        (1.0 - t2 / t1) * 100.0,
        t2,
        t1,
    );
}
