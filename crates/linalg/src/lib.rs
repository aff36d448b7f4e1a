//! # texid-linalg
//!
//! Linear-algebra substrate for the texture-identification system: the pieces
//! of cuBLAS/CUDA that the paper's 2-nearest-neighbors pipeline relies on,
//! implemented from scratch.
//!
//! Conventions follow the paper (Garcia et al. formulation):
//!
//! * Feature matrices are **column-major** and shaped `d × m` — each local
//!   feature (e.g. a 128-d SIFT descriptor) is one contiguous column.
//! * The similarity kernel computes `A = −2·RᵀQ` (or the full
//!   `N_R + N_Q − 2·RᵀQ` expansion) where `R` is the reference feature matrix
//!   (`d × m`) and `Q` the query feature matrix (`d × n`).
//! * Half precision (FP16) is a software IEEE 754 binary16 with
//!   round-to-nearest-even conversion, so the scale-factor/overflow behaviour
//!   studied in the paper's Table 2 reproduces bit-accurately.
//!
//! The kernels here are *functional* implementations; the timing of their GPU
//! counterparts is modelled in `texid-gpu`.
//!
//! One module is not linear algebra: [`bytepass`] holds the AVX2 prefixes
//! of the serving edge's two byte passes (base64 decode and the JSON string
//! scan). It lives here because this is the one crate that holds `unsafe`,
//! under the `// SAFETY:` lint below, and its dispatch is the kernels'
//! [`active_backend`].

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bytepass;
pub mod dispatch;
pub mod f16;
pub mod gemm;
pub mod kernel;
pub mod mat;
pub mod norms;
mod simd;
pub mod top2;

pub use dispatch::{active_backend, available_backends, Backend};
pub use f16::F16;
pub use mat::{Mat, MatF16};
pub use top2::Top2;

/// Commonly used items.
pub mod prelude {
    pub use crate::dispatch::{active_backend, available_backends, Backend};
    pub use crate::f16::F16;
    pub use crate::kernel::{
        gemm_at_b, gemm_packed, gemm_top2, gemm_top2_ex, FusedEpilogue, PackedA, PackedB,
    };
    pub use crate::mat::{Mat, MatF16, Operand};
    pub use crate::norms::col_sq_norms;
    pub use crate::top2::{top2_min_per_column, Top2};
}
