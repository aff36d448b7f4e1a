//! # texid-image
//!
//! Image substrate for the texture-identification reproduction.
//!
//! The paper evaluates on a proprietary tea-brick dataset (300 k reference
//! images photographed with industrial cameras, 354 queries re-captured with
//! smartphones under varying viewpoint/illumination/occlusion). We substitute
//! a **procedural texture generator** ([`synth`]) that produces fine-grained,
//! same-category textures — the statistical regime that makes texture
//! *identification* hard — plus **capture-condition augmentations**
//! ([`augment`]) that re-image a reference the way a customer's phone would.
//!
//! The rest of the crate is the minimal image-processing substrate SIFT
//! needs: separable Gaussian filtering, bilinear resampling, and affine
//! warping.

#![forbid(unsafe_code)]

pub mod augment;
pub mod filter;
pub mod gray;
pub mod io;
pub mod synth;

pub use augment::CaptureCondition;
pub use gray::GrayImage;
pub use synth::TextureGenerator;
