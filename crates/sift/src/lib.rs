//! # texid-sift
//!
//! From-scratch SIFT (Lowe 2004) and RootSIFT (Arandjelović & Zisserman 2012)
//! local feature extraction — the front end of the paper's texture
//! identification pipeline.
//!
//! The paper's settings, reproduced here:
//!
//! * 128-d descriptors (`d = 128`), 768 features per image by default;
//! * **RootSIFT** (§5.1): L1-normalize each SIFT vector then take the
//!   element-wise square root. The result is automatically L2-normalized, so
//!   the Euclidean distance becomes `√(2 − 2·rᵀq)` — Algorithm 2's shortcut —
//!   and equals the Hellinger-kernel comparison of the original histograms;
//! * **Asymmetric extraction** (§7): keep only the top-`m` keypoints by
//!   detection response for *reference* images (m = 384) while queries keep
//!   more (n = 768), halving reference memory with negligible accuracy loss;
//! * **Edge-feature removal**: keypoints whose descriptor window leaves the
//!   image are discarded (the paper's post-processing step).
//!
//! Serving extracts SIFT/RootSIFT only. The SURF and ORB extractors the
//! paper's §3.1 also admits live in `texid-bench`, beside the
//! `ablation_sift_vs_surf` bench that runs them.

#![forbid(unsafe_code)]

pub mod descriptor;
pub mod detect;
pub mod features;
pub mod keypoint;
pub mod orientation;
pub mod pyramid;
pub mod rootsift;

pub use features::{extract, FeatureMatrix, SiftConfig};
pub use keypoint::Keypoint;
