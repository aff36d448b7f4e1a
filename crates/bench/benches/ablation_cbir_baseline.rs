//! **Ablation (§2/§3)** — why CBIR-style pooled search fails for texture
//! identification.
//!
//! The paper's premise: CBIR pools all reference features into one database
//! and runs a single global nearest-neighbour per query feature, which "can
//! be very efficient but suffer[s] low accuracy ... lacking the
//! discriminate capability especially in fine-grained identification". This
//! ablation measures it: on the same fine-grained sibling dataset, compare
//!
//! 1. pooled global 2-NN + global ratio-test voting (CBIR),
//! 2. pooled 1-NN voting without a ratio test (BoW-style),
//! 3. the paper's per-image 2-NN matching (our engine).

use texid_bench::eval::{build_dataset, top1_accuracy, EvalConfig, Severity, MIN_MATCHES};
use texid_bench::pooled::PooledIndex;
use texid_bench::{heading, row};
use texid_gpu::Precision;
use texid_knn::MatchConfig;

fn main() {
    let cfg = EvalConfig {
        n_refs: 24,
        n_queries: 32,
        image_size: 384,
        m_ref: 384,
        n_query: 768,
        seed: 0xcb1e,
        severity: Severity::Severe,
        fine_grained: true,
        rootsift: true,
    };
    eprintln!(
        "building fine-grained dataset ({} sibling refs, {} severe queries) ...",
        cfg.n_refs, cfg.n_queries
    );
    let ds = build_dataset(&cfg);

    // --- pooled (CBIR) baselines ---
    let handles: Vec<(u64, &texid_linalg::Mat)> =
        ds.refs.iter().enumerate().map(|(i, f)| (i as u64, &f.mat)).collect();
    let index = PooledIndex::build(&handles);
    eprintln!("pooled index: {} features from {} images", index.len(), index.image_count());

    let eval_pooled = |use_ratio: bool| -> f64 {
        let correct = ds
            .queries
            .iter()
            .filter(|(q, true_id)| {
                let ranked = if use_ratio {
                    index.search(&q.mat, 0.75)
                } else {
                    index.search_votes_only(&q.mat)
                };
                ranked
                    .first()
                    .is_some_and(|(id, votes)| id == true_id && *votes >= MIN_MATCHES)
            })
            .count();
        correct as f64 / ds.queries.len() as f64
    };
    let acc_cbir_ratio = eval_pooled(true);
    let acc_cbir_votes = eval_pooled(false);

    // --- the paper's per-image matching ---
    let acc_per_image = top1_accuracy(
        &ds,
        &MatchConfig { precision: Precision::F32, ..MatchConfig::default() },
    );

    heading("Ablation: pooled CBIR search vs per-image matching (fine-grained siblings)");
    row(&["approach".to_string(), "top-1 accuracy".to_string()]);
    row(&["pooled 2-NN + global ratio test".to_string(), format!("{:.1}%", acc_cbir_ratio * 100.0)]);
    row(&["pooled 1-NN voting (BoW-style)".to_string(), format!("{:.1}%", acc_cbir_votes * 100.0)]);
    row(&["per-image 2-NN (paper / ours)".to_string(), format!("{:.1}%", acc_per_image * 100.0)]);

    println!(
        "\nThe paper's premise quantified: pooling erases per-image discrimination on a\n\
         fine-grained reference set (the global second-nearest neighbour sits in a sibling\n\
         image, so the ratio test kills genuine matches), while one-by-one matching — the\n\
         computation pattern the whole paper accelerates — survives.\n\n\
         Caveat: thresholdless 1-NN voting looks strong HERE because {} references\n\
         concentrate the ~{} votes per query; at the paper's 300k scale those votes\n\
         spread over 300k candidates and the approach collapses too (each image would\n\
         receive ~0.002 votes of noise floor yet genuine images still only win by the\n\
         margin the ratio test was supposed to protect).",
        index.image_count(),
        ds.queries.first().map_or(0, |(q, _)| q.len()),
    );
    assert!(
        acc_per_image > acc_cbir_ratio,
        "per-image matching must beat pooled CBIR on fine-grained data"
    );
}
