//! Device specifications and per-device cost-model calibration.
//!
//! The two presets mirror the paper's hardware: Nvidia Tesla P100/16GB
//! (Pascal — FP16 at 2× FP32 rate, no tensor cores) and Tesla V100/16GB
//! (Volta — tensor cores). Peak numbers are the ones the paper itself uses
//! in its efficiency calculations (Table 4: 18.7 / 28 / 112 TFLOPS).

/// Arithmetic precision of a kernel or buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    /// IEEE binary32.
    F32,
    /// IEEE binary16 (the paper's FP16 path).
    F16,
}

impl Precision {
    /// Bytes per element.
    pub fn bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F16 => 2,
        }
    }
}

/// Calibration constants for the analytic kernel cost model.
///
/// Each constant is pinned to a measured anchor from the paper (noted per
/// field); `cost.rs` documents the formulas. Anchors marked (T1/T3/T5/T6)
/// refer to the paper's tables.
#[derive(Clone, Debug)]
pub struct CostCalib {
    /// Kernel launch overhead, µs.
    pub launch_us: f64,
    /// GEMM efficiency ceiling, FP32 (fraction of peak). T1: 35.22 µs anchor.
    pub gemm_eff_max_f32: f64,
    /// GEMM half-saturation row count, FP32.
    pub gemm_mhalf_f32: f64,
    /// GEMM efficiency ceiling, FP16. T3: 11.58 µs/img at batch 1024 ⇒ 67.9%.
    pub gemm_eff_max_f16: f64,
    /// GEMM half-saturation row count, FP16. T1: 24.92 µs at batch 1 ⇒ 32.4%.
    pub gemm_mhalf_f16: f64,
    /// Tensor-core peak boost over plain FP16 at full saturation.
    /// T4: 86,519 img/s (V100 w/ TC) vs 67,612 (w/o).
    pub tc_boost_max: f64,
    /// Tensor-core half-saturation row count (TC needs large matrices;
    /// §5.2: only 1.15× at batch 1).
    pub tc_mhalf: f64,
    /// Top-2 scan per-element cost at full occupancy, FP32, µs/element.
    pub sort_elem_us_f32: f64,
    /// Top-2 scan per-element cost at full occupancy, FP16 (higher: the
    /// `__half` widening intrinsic per comparison, §4.2). T3: 3.82 µs/img.
    pub sort_elem_us_f16: f64,
    /// Thread count at which the one-thread-per-column sort saturates the
    /// GPU (≈ SMs × resident threads). §5.3: 768 threads is "a very small
    /// part" of capacity; ~0.8 M tasks saturate.
    pub sort_threads_sat: f64,
    /// Occupancy exponent, FP32: occ = (threads/sat)^α. T1: 40.2 µs anchor.
    pub sort_occ_alpha_f32: f64,
    /// Occupancy exponent, FP16. T1: 68.32 µs anchor.
    pub sort_occ_alpha_f16: f64,
    /// Full-column modified-insertion-sort amplification over the top-2
    /// scan (Garcia et al. baseline). T1: 221.5 µs vs 40.2 µs.
    pub full_sort_amplification: f64,
    /// DMA fixed latency per transfer (driver + sync), µs. T1: 47.32 µs for
    /// a ~12 KB D2H copy.
    pub dma_latency_us: f64,
    /// Sustained D2H bandwidth for result readback, GB/s. T3: 2.72 µs/img
    /// at batch 1024.
    pub d2h_gbps: f64,
    /// Sustained pinned-memory H2D bandwidth, GB/s. §6.1: 9.4–9.6 GB/s
    /// measured on PCIe Gen3 ×16 cloud VMs.
    pub h2d_pinned_gbps: f64,
    /// Sustained pageable H2D bandwidth (extra host-side staging copy),
    /// GB/s. T5: 17,619 img/s anchor.
    pub h2d_pageable_gbps: f64,
    /// CPU post-processing (ratio test etc.) per image within a full batch,
    /// µs. T3: 3.85 µs/img at batch 1024.
    pub cpu_post_full_us: f64,
    /// CPU post-processing per image when unbatched, µs. T3: 16.85 µs.
    pub cpu_post_single_us: f64,
    /// OpenCV brute-force CUDA KNN total device time for m=n=768, d=128
    /// (compute + sort, excluding D2H/post), µs. T1: 497 µs total.
    pub opencv_knn_base_us: f64,
    /// Base cost of the merged "add N_Q + sqrt" epilogue kernel
    /// (Algorithm 1 steps 6–7), µs. T1: 4.71 µs on 2×768 elements.
    pub epilogue_base_us: f64,
    /// Serial fraction of per-chunk work that does not parallelize across
    /// CUDA streams (driver/pinned-buffer serialization). Calibrated to
    /// T6's schedule efficiencies (52.5% → 87.3% for 1 → 8 streams).
    pub stream_serial_fraction: f64,
}

/// A simulated GPU device.
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// Marketing name, e.g. "Tesla P100".
    pub name: String,
    /// Peak FP32 throughput, TFLOPS.
    pub fp32_tflops: f64,
    /// Peak FP16 throughput, TFLOPS (no tensor cores).
    pub fp16_tflops: f64,
    /// Peak tensor-core FP16 throughput, TFLOPS (None if absent).
    pub tensor_tflops: Option<f64>,
    /// Device memory capacity, bytes.
    pub mem_bytes: u64,
    /// Device memory bandwidth, GB/s.
    pub mem_bw_gbps: f64,
    /// Streaming multiprocessor count.
    pub sm_count: u32,
    /// CUDA context + cuBLAS workspace overhead, bytes; subtracted by
    /// [`DeviceSpec::cache_budget`]. Makes Table 1's memory rows
    /// (4271/4307/2307 MB for 10 k references) come out of pure payload +
    /// overhead.
    pub context_overhead_bytes: u64,
    /// Cost-model calibration.
    pub calib: CostCalib,
}

impl DeviceSpec {
    /// Nvidia Tesla P100 16 GB (PCIe Gen3 ×16) — the paper's main device.
    pub fn tesla_p100() -> DeviceSpec {
        DeviceSpec {
            name: "Tesla P100".to_string(),
            fp32_tflops: 9.3,
            fp16_tflops: 18.7, // the paper's Table 4 theoretical peak
            tensor_tflops: None,
            mem_bytes: 16 * (1 << 30),
            mem_bw_gbps: 732.0,
            sm_count: 56,
            context_overhead_bytes: 325 * (1 << 20),
            calib: CostCalib {
                launch_us: 1.0,
                gemm_eff_max_f32: 0.85,
                gemm_mhalf_f32: 648.0,
                gemm_eff_max_f16: 0.70,
                gemm_mhalf_f16: 880.0,
                tc_boost_max: 1.0, // no tensor cores
                tc_mhalf: 1.0,
                sort_elem_us_f32: 9.5e-6,
                sort_elem_us_f16: 6.48e-6,
                sort_threads_sat: 114_688.0, // 56 SMs × 2048 threads
                sort_occ_alpha_f32: 0.394,
                sort_occ_alpha_f16: 0.576,
                full_sort_amplification: 5.5,
                dma_latency_us: 45.0,
                d2h_gbps: 4.8,
                h2d_pinned_gbps: 9.6,
                h2d_pageable_gbps: 5.5,
                cpu_post_full_us: 3.85,
                cpu_post_single_us: 16.85,
                opencv_knn_base_us: 437.0,
                epilogue_base_us: 4.7,
                stream_serial_fraction: 0.544,
            },
        }
    }

    /// Nvidia Tesla V100 16 GB — the paper's comparison device (tensor
    /// cores available; Table 4 uses 28 / 112 TFLOPS peaks).
    pub fn tesla_v100() -> DeviceSpec {
        DeviceSpec {
            name: "Tesla V100".to_string(),
            fp32_tflops: 14.0,
            fp16_tflops: 28.0,
            tensor_tflops: Some(112.0),
            mem_bytes: 16 * (1 << 30),
            mem_bw_gbps: 900.0,
            sm_count: 80,
            context_overhead_bytes: 325 * (1 << 20),
            calib: CostCalib {
                launch_us: 1.0,
                gemm_eff_max_f32: 0.85,
                gemm_mhalf_f32: 648.0,
                gemm_eff_max_f16: 0.66, // T4: 65.7% HGEMM efficiency
                gemm_mhalf_f16: 880.0,
                // T4: 86,519 vs 67,612 img/s at batch 1024 ⇒ HGEMM must
                // shrink from 8.0 to ~4.8 µs/img ⇒ ~1.65× boost saturated.
                tc_boost_max: 1.68,
                tc_mhalf: 4000.0,
                // Bandwidth-scaled from the P100 constants (900/732).
                sort_elem_us_f32: 7.7e-6,
                sort_elem_us_f16: 5.27e-6,
                sort_threads_sat: 163_840.0, // 80 SMs × 2048 threads
                sort_occ_alpha_f32: 0.394,
                sort_occ_alpha_f16: 0.576,
                full_sort_amplification: 5.5,
                dma_latency_us: 45.0,
                d2h_gbps: 4.8,
                h2d_pinned_gbps: 9.6,
                h2d_pageable_gbps: 5.5,
                // Calibrated so the serial per-image total reproduces
                // T4's 67,612 img/s (the V100 host had faster post).
                cpu_post_full_us: 1.0,
                cpu_post_single_us: 6.0,
                opencv_knn_base_us: 300.0, // 2,937 img/s baseline (§3.3)
                epilogue_base_us: 4.7,
                stream_serial_fraction: 0.544,
            },
        }
    }

    /// Theoretical peak for a precision (tensor core optional), TFLOPS.
    pub fn peak_tflops(&self, precision: Precision, tensor_core: bool) -> f64 {
        match (precision, tensor_core) {
            (Precision::F16, true) => self.tensor_tflops.unwrap_or(self.fp16_tflops),
            (Precision::F16, false) => self.fp16_tflops,
            (Precision::F32, _) => self.fp32_tflops,
        }
    }

    /// Device bytes a reference cache may fill: the card less the context
    /// overhead and `reserve_bytes` kept free for the search engine's
    /// intermediates (§8 reserves 4 GB), saturating at 0. The one rule for
    /// what fits on the device.
    pub fn cache_budget(&self, reserve_bytes: u64) -> u64 {
        self.mem_bytes
            .saturating_sub(self.context_overhead_bytes)
            .saturating_sub(reserve_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p100_matches_paper_peaks() {
        let d = DeviceSpec::tesla_p100();
        assert_eq!(d.fp16_tflops, 18.7);
        assert!(d.tensor_tflops.is_none());
        assert_eq!(d.mem_bytes, 16 * 1024 * 1024 * 1024);
    }

    #[test]
    fn v100_matches_paper_peaks() {
        let d = DeviceSpec::tesla_v100();
        assert_eq!(d.fp16_tflops, 28.0);
        assert_eq!(d.tensor_tflops, Some(112.0));
    }

    #[test]
    fn peak_selection() {
        let v = DeviceSpec::tesla_v100();
        assert_eq!(v.peak_tflops(Precision::F16, true), 112.0);
        assert_eq!(v.peak_tflops(Precision::F16, false), 28.0);
        assert_eq!(v.peak_tflops(Precision::F32, true), 14.0);
        let p = DeviceSpec::tesla_p100();
        // Asking for tensor cores on Pascal silently falls back.
        assert_eq!(p.peak_tflops(Precision::F16, true), 18.7);
    }

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::F32.bytes(), 4);
        assert_eq!(Precision::F16.bytes(), 2);
    }
}
