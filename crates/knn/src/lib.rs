//! # texid-knn
//!
//! The paper's feature-matching engines. Texture identification matches a
//! query image against every reference image **separately** (one-by-one, §2)
//! with the 2-nearest-neighbors algorithm + Lowe's ratio test; this crate
//! implements that matching step in all the variants the paper measures:
//!
//! | variant | paper | module |
//! |---|---|---|
//! | OpenCV CUDA brute-force KNN | baseline, 2,012 img/s | [`pair::Algorithm::OpenCvCuda`] |
//! | cuBLAS KNN, full column sort | Garcia et al. \[9\] | [`pair::Algorithm::CublasFullSort`] |
//! | cuBLAS + register top-2 scan | ours, §4.1 | [`pair::Algorithm::CublasTop2`] |
//! | RootSIFT shortcut (Alg. 2) | ours, §5.1 | [`pair::Algorithm::RootSiftTop2`] |
//!
//! each in FP32 or scaled FP16, single-pair or **batched** (one GEMM over a
//! concatenated reference block, §5.2), charging simulated device time to a
//! [`texid_gpu::GpuSim`] stream while computing real results on the host.
//!
//! Post-matching: [`ratio`] (ratio test + match scoring) and [`geometry`]
//! (RANSAC similarity verification — the pipeline stage the paper describes
//! in Fig. 2 but excludes from its speed runs).

pub mod batched;
pub mod block;
pub mod geometry;
pub mod hamming;
pub mod ivf;
pub mod pair;
pub mod pooled;
pub mod ratio;

pub use batched::{match_batch, score_batch, score_batch_packed, BatchOutcome, BatchWork};
pub use block::{FeatureBlock, PackedBlock};
pub use ivf::{kmeans, pool_columns, IvfIndex, Kmeans};
pub use pair::{
    match_pair, score_pair, Algorithm, ExecMode, IvfParams, MatchConfig, PairOutcome, StepTimes,
};
pub use ratio::{count_good_matches, good_matches, FeatureMatch};
