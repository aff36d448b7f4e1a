//! **Figure 1** — cumulative effect of the four optimization strategies on
//! capacity (cached reference feature matrices) and speed (similarity
//! comparisons per second), single Tesla P100 + 64 GB host memory.
//!
//! Stages (each inherits the previous):
//! 1. baseline: OpenCV CUDA KNN, FP32, GPU memory only, m = n = 768
//! 2. + cuBLAS top-2 + FP16 (contribution 1)
//! 3. + batched reference matrices (contribution 2)
//! 4. + hybrid memory cache with multi-stream overlap (contribution 3)
//! 5. + asymmetric extraction m = 384 (contribution 4)
//!
//! The paper's headline: 31× speed and 20× capacity over the baseline.

use texid_bench::{heading, row, thousands};
use texid_core::capacity::{bytes_per_reference, device_capacity, hybrid_capacity};
use texid_gpu::{streams, DeviceSpec, Precision};
use texid_knn::{Algorithm, BatchWork, MatchConfig};

const HOST_BYTES: u64 = 64 << 30;

fn pair_speed(alg: Algorithm, precision: Precision) -> f64 {
    let cfg = MatchConfig { algorithm: alg, precision, ..MatchConfig::default() };
    BatchWork::new(&cfg, 1, 768, 768, 128).price(&DeviceSpec::tesla_p100()).images_per_second()
}

fn batched_speed(m: usize, batch: usize, hybrid: bool, n_streams: usize) -> f64 {
    let spec = DeviceSpec::tesla_p100();
    let cfg = MatchConfig { precision: Precision::F16, ..MatchConfig::default() };
    let mut per_img = BatchWork::new(&cfg, batch, m, 768, 128).price(&spec).per_image_us(batch);
    if hybrid {
        // Every reference streams over PCIe (pinned), overlapped by streams.
        let h2d = texid_gpu::cost::h2d_duration_us(
            &spec,
            (batch * m * 128 * 2) as u64,
            true,
        ) / batch as f64;
        per_img = (per_img + h2d) * streams::stream_time_factor(&spec, n_streams);
    }
    1e6 / per_img
}

fn main() {
    let spec = DeviceSpec::tesla_p100();

    struct Stage {
        label: &'static str,
        speed: f64,
        capacity: u64,
    }

    let stages = [
        Stage {
            label: "baseline (OpenCV CUDA, FP32)",
            speed: pair_speed(Algorithm::OpenCvCuda, Precision::F32),
            capacity: device_capacity(&spec, 0, bytes_per_reference(768, 128, Precision::F32, true)),
        },
        Stage {
            label: "+ cuBLAS top-2 + FP16",
            speed: pair_speed(Algorithm::CublasTop2, Precision::F16),
            capacity: device_capacity(&spec, 0, bytes_per_reference(768, 128, Precision::F16, true)),
        },
        Stage {
            label: "+ batching (RootSIFT, b=1024)",
            speed: batched_speed(768, 1024, false, 1),
            capacity: device_capacity(&spec, 0, bytes_per_reference(768, 128, Precision::F16, false)),
        },
        Stage {
            label: "+ hybrid cache (8 streams)",
            speed: batched_speed(768, 1024, true, 8),
            capacity: hybrid_capacity(&spec, 0, HOST_BYTES, bytes_per_reference(768, 128, Precision::F16, false)),
        },
        Stage {
            label: "+ asymmetric m=384 (b=256)",
            speed: batched_speed(384, 256, true, 8),
            capacity: hybrid_capacity(&spec, 0, HOST_BYTES, bytes_per_reference(384, 128, Precision::F16, false)),
        },
    ];

    heading("Fig. 1: cumulative optimizations, single P100 + 64 GB host memory");
    row(&[
        "stage".to_string(),
        "speed img/s".to_string(),
        "speed factor".to_string(),
        "capacity".to_string(),
        "cap. factor".to_string(),
    ]);
    let base_speed = stages[0].speed;
    let base_cap = stages[0].capacity as f64;
    for s in &stages {
        println!(
            "{:<32} | {:>12} | {:>11.1}x | {:>12} | {:>10.1}x",
            s.label,
            thousands(s.speed),
            s.speed / base_speed,
            thousands(s.capacity as f64),
            s.capacity as f64 / base_cap,
        );
    }
    let last = stages.last().expect("non-empty");
    println!(
        "\nPaper headline: 31x speed, 20x capacity. Ours: {:.1}x speed, {:.1}x capacity.",
        last.speed / base_speed,
        last.capacity as f64 / base_cap
    );
}
