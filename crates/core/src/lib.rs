//! # texid-core
//!
//! The paper's primary contribution, assembled: a **large-scale texture
//! identification engine** combining
//!
//! 1. the cuBLAS-style 2-nearest-neighbors matcher with the register top-2
//!    scan (`texid-knn`),
//! 2. FP16 feature storage with an overflow-avoiding scale factor,
//! 3. batched reference feature matrices,
//! 4. the hybrid GPU/host memory cache (`texid-cache`),
//! 5. multi-CUDA-stream scheduling, and
//! 6. asymmetric local feature extraction (m reference / n query features),
//!
//! running against the simulated Tesla P100/V100 devices of `texid-gpu`.
//!
//! [`Engine`] is the single-node search engine (one GPU card);
//! `texid-distrib` builds the 14-card distributed system of §8 on top of it.
//! [`eval`] provides the dataset/accuracy harness used for the paper's
//! Table 2 and Table 7 experiments; [`metrics`] implements Eq. 3 (GPU
//! efficiency) and Eq. 4 (schedule efficiency); [`capacity`] the feature
//! cache capacity model behind Fig. 1 and §8.

pub mod capacity;
pub mod coalesce;
pub mod engine;
pub mod eval;
pub mod metrics;

pub use coalesce::{CoalesceConfig, Coalescer};
pub use engine::{EncodedQuery, Engine, EngineConfig, SearchReport, SearchResult};
pub use eval::{build_dataset, compression_error, top1_accuracy, Dataset, EvalConfig};
