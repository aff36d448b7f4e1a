//! Feature-cache capacity model (Fig. 1's "capacity" axis, §6.1, §8).
//!
//! Capacity counts how many reference feature matrices fit in the search
//! system's memory. The paper's levers:
//!
//! * precision — FP16 halves the bytes per matrix;
//! * hybrid cache — host memory adds 64 GB to the 16 GB card (≈ 5×);
//! * asymmetric extraction — m = 384 instead of 768 halves the matrix;
//! * RootSIFT — no `N_R` norm vector needs to be stored.

use texid_gpu::{DeviceSpec, Precision};

/// Bytes one reference feature matrix occupies.
///
/// `store_norms` is true for the Algorithm 1 paths, which keep the `N_R`
/// squared-norm vector (f32 per feature) alongside the matrix; RootSIFT
/// (Algorithm 2) needs no norms.
pub fn bytes_per_reference(m: usize, d: usize, precision: Precision, store_norms: bool) -> u64 {
    let mat = (m * d * precision.bytes()) as u64;
    let norms = if store_norms { (m * 4) as u64 } else { 0 };
    mat + norms
}

/// References storable in `budget_bytes`.
pub fn images_in(budget_bytes: u64, bytes_per_ref: u64) -> u64 {
    budget_bytes / bytes_per_ref
}

/// Device-only capacity of a card (minus the context overhead and an
/// engine reserve).
pub fn device_capacity(spec: &DeviceSpec, reserve_bytes: u64, bytes_per_ref: u64) -> u64 {
    images_in(spec.cache_budget(reserve_bytes), bytes_per_ref)
}

/// Hybrid (device + host) capacity.
pub fn hybrid_capacity(
    spec: &DeviceSpec,
    reserve_bytes: u64,
    host_bytes: u64,
    bytes_per_ref: u64,
) -> u64 {
    images_in(spec.cache_budget(reserve_bytes) + host_bytes, bytes_per_ref)
}

#[cfg(test)]
mod tests {
    use super::*;
    use texid_gpu::DeviceSpec;

    #[test]
    fn paper_fp16_footprint() {
        // §6: "even with FP16, each reference feature matrix will occupy
        // 187.5 KB" (768 features × 128 × 2 B).
        let b = bytes_per_reference(768, 128, Precision::F16, false);
        assert_eq!(b, 196_608);
        assert_eq!(b, 192 * 1024); // 187.5 KiB... in the paper's KB = KiB×1.024
        assert!((b as f64 / 1024.0 - 192.0).abs() < 1e-9);
    }

    #[test]
    fn paper_85k_gpu_only_capacity() {
        // §6: "a single 16 GB GPU can only cache the features of ~85,000
        // texture images without considering other GPU memory expense".
        let spec = DeviceSpec::tesla_p100();
        let b = bytes_per_reference(768, 128, Precision::F16, false);
        let cap = images_in(spec.mem_bytes, b);
        assert!((cap as f64 - 85_000.0).abs() / 85_000.0 < 0.03, "{cap}");
    }

    #[test]
    fn norms_add_four_bytes_per_feature() {
        let without = bytes_per_reference(768, 128, Precision::F32, false);
        let with = bytes_per_reference(768, 128, Precision::F32, true);
        assert_eq!(with - without, 768 * 4);
    }

    #[test]
    fn asymmetric_halves_footprint() {
        let full = bytes_per_reference(768, 128, Precision::F16, false);
        let asym = bytes_per_reference(384, 128, Precision::F16, false);
        assert_eq!(full, 2 * asym);
    }

    #[test]
    fn paper_5x_capacity_claim() {
        // §6.1: 16 GB GPU + 64 GB host ⇒ 5× the GPU-only capacity.
        let spec = DeviceSpec::tesla_p100();
        let gpu_only = device_capacity(&spec, 0, 1) as f64;
        let hybrid = hybrid_capacity(&spec, 0, 64 * (1 << 30), 1) as f64;
        let factor = hybrid / gpu_only;
        assert!((factor - 5.0).abs() < 0.15, "hybrid/device capacity = {factor}");
    }

    #[test]
    fn fig1_20x_capacity_story() {
        // Fig. 1: 20× capacity = FP16 (2×) × hybrid cache (5×) ×
        // asymmetric m=384 (2×) over the FP32, GPU-only, m=768 baseline.
        let spec = DeviceSpec::tesla_p100();
        let reserve = 0;
        let baseline = device_capacity(
            &spec,
            reserve,
            bytes_per_reference(768, 128, Precision::F32, true),
        );
        let optimized = hybrid_capacity(
            &spec,
            reserve,
            64 * (1 << 30),
            bytes_per_reference(384, 128, Precision::F16, false),
        );
        let factor = optimized as f64 / baseline as f64;
        assert!((factor - 20.0).abs() < 1.5, "capacity factor {factor} vs paper's 20×");
    }

    #[test]
    fn section8_container_capacity() {
        // §8: 12 GB device (4 GB reserved) + 64 GB host = 76 GB per
        // container; m=384 FP16 ⇒ ~770 k matrices per container, ~10.8 M on
        // 14 containers.
        let spec = DeviceSpec::tesla_p100();
        let b = bytes_per_reference(384, 128, Precision::F16, false);
        let per_container = hybrid_capacity(&spec, 4 * (1 << 30), 64 * (1 << 30), b);
        let total = 14 * per_container;
        assert!(
            (total as f64 - 10_800_000.0).abs() / 10_800_000.0 < 0.08,
            "cluster capacity {total} vs paper's 10.8 M"
        );
    }
}
