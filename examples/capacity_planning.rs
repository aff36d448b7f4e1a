//! Capacity planning: how the paper's four levers trade memory for speed.
//!
//! Walks the configuration space (precision × cache tiering × feature
//! count) and prints, for a single Tesla P100 + 64 GB host node, how many
//! reference textures fit and how fast search runs — the engineering
//! numbers behind Fig. 1 and §8's 14-card sizing.
//!
//! ```sh
//! cargo run --release -p texid-apps --example capacity_planning
//! ```

use texid_core::capacity::{bytes_per_reference, device_capacity, hybrid_capacity};
use texid_gpu::{DeviceSpec, Precision};
use texid_knn::{BatchWork, MatchConfig};

const HOST_BYTES: u64 = 64 << 30;
const RESERVE: u64 = 4 << 30;

fn speed(m: usize, precision: Precision, hybrid: bool, streams: usize) -> f64 {
    let spec = DeviceSpec::tesla_p100();
    let cfg = MatchConfig { precision, ..MatchConfig::default() };
    let batch = 256;
    let mut per_img = BatchWork::new(&cfg, batch, m, 768, 128).price(&spec).per_image_us(batch);
    if hybrid {
        let bytes = (batch * m * 128 * precision.bytes()) as u64;
        let h2d = texid_gpu::cost::h2d_duration_us(&spec, bytes, true) / batch as f64;
        per_img = (per_img + h2d) * texid_gpu::streams::stream_time_factor(&spec, streams);
    }
    1e6 / per_img
}

fn main() {
    let spec = DeviceSpec::tesla_p100();
    println!("Capacity planner: 1x {} (16 GB, 4 GB reserved) + 64 GB host, batch 256\n", spec.name);
    println!(
        "{:>6} {:>6} {:>8} {:>8} | {:>14} {:>14} | {:>12}",
        "m", "prec", "cache", "streams", "capacity", "KB/ref", "img/s"
    );

    let configs: &[(usize, Precision, bool, usize)] = &[
        (768, Precision::F32, false, 1),
        (768, Precision::F16, false, 1),
        (768, Precision::F16, true, 1),
        (768, Precision::F16, true, 8),
        (384, Precision::F16, false, 1),
        (384, Precision::F16, true, 8),
        (256, Precision::F16, true, 8),
    ];

    for &(m, prec, hybrid, streams) in configs {
        let per_ref = bytes_per_reference(m, 128, prec, false);
        let cap = if hybrid {
            hybrid_capacity(&spec, RESERVE, HOST_BYTES, per_ref)
        } else {
            device_capacity(&spec, RESERVE, per_ref)
        };
        let sp = speed(m, prec, hybrid, streams);
        println!(
            "{:>6} {:>6} {:>8} {:>8} | {:>14} {:>14.1} | {:>12}",
            m,
            match prec {
                Precision::F32 => "f32",
                Precision::F16 => "f16",
            },
            if hybrid { "hybrid" } else { "device" },
            streams,
            cap,
            per_ref as f64 / 1024.0,
            sp.round(),
        );
    }

    // The paper's deployment question: how many cards for 10 M products
    // with ~1 s million-scale search?
    let per_ref = bytes_per_reference(384, 128, Precision::F16, false);
    let per_container = hybrid_capacity(&spec, RESERVE, HOST_BYTES, per_ref);
    let target: u64 = 10_000_000;
    let cards = target.div_ceil(per_container);
    let sp = speed(384, Precision::F16, true, 8);
    println!(
        "\nTo index {target} products: {cards} cards ({} refs each);\n\
         a full-corpus search takes {:.2} s at {} comparisons/s aggregate.",
        per_container,
        target as f64 / (sp * cards as f64),
        (sp * cards as f64).round()
    );
}
