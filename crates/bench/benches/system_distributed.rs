//! **§8 / Fig. 6** — the distributed texture search system: 14 Tesla P100
//! containers, 76 GB hybrid cache each (12 GB usable device + 64 GB host),
//! m = 384 FP16 references at batch 256 with 8 streams.
//!
//! Paper claims: 10.8 M cached feature matrices, 872,984 img/s aggregate
//! search speed, million-scale search in ~1.15 s.

use texid_bench::{heading, row, thousands};
use texid_cache::CacheConfig;
use texid_core::capacity::{bytes_per_reference, hybrid_capacity};
use texid_core::{Engine, EngineConfig};
use texid_gpu::{DeviceSpec, Precision};
use texid_knn::MatchConfig;
use texid_linalg::Mat;
use texid_sift::FeatureMatrix;

const CONTAINERS: usize = 14;

fn container_engine() -> Engine {
    Engine::new(EngineConfig {
        device: DeviceSpec::tesla_p100(),
        matching: MatchConfig {
            precision: Precision::F16,
            ..MatchConfig::default()
        },
        m_ref: 384,
        n_query: 768,
        batch_size: 256,
        streams: 8,
        cache: CacheConfig {
            host_capacity_bytes: 64 << 30,
            device_reserve_bytes: 4 << 30,
            pinned: true,
        },
    })
}

fn main() {
    let spec = DeviceSpec::tesla_p100();
    let per_ref = bytes_per_reference(384, 128, Precision::F16, false);
    let per_container = hybrid_capacity(&spec, 4 << 30, 64 << 30, per_ref);
    let cluster_capacity = per_container * CONTAINERS as u64;

    heading("Distributed system (Sec. 8): 14 x Tesla P100, 76 GB hybrid cache per container");
    row(&["metric".to_string(), "ours".to_string(), "paper".to_string()]);
    row(&[
        "capacity/container".to_string(),
        thousands(per_container as f64),
        "~771,000".to_string(),
    ]);
    row(&[
        "cluster capacity".to_string(),
        thousands(cluster_capacity as f64),
        "10,800,000".to_string(),
    ]);

    // Fill one container to capacity (phantom references) and search.
    eprintln!("indexing {} phantom references into one container ...", thousands(per_container as f64));
    let mut engine = container_engine();
    let mut indexed = 0u64;
    for id in 0..per_container {
        if engine.add_reference_shape(id).is_err() {
            break;
        }
        indexed += 1;
    }
    let _ = engine.flush(); // a final partial batch may not fit; fine
    eprintln!("indexed {} references", thousands(indexed as f64));

    let q = FeatureMatrix::from_mat(Mat::zeros(128, 768), true);
    let report = engine.search(&q).report;
    let per_card = report.images_per_second();
    let aggregate = per_card * CONTAINERS as f64;

    row(&[
        "speed/container".to_string(),
        thousands(per_card),
        "62,356".to_string(),
    ]);
    row(&[
        "aggregate speed".to_string(),
        thousands(aggregate),
        "872,984".to_string(),
    ]);
    let million_search_s = 1_000_000.0 / aggregate;
    row(&[
        "1M-search latency".to_string(),
        format!("{million_search_s:.2} s"),
        "1.15 s".to_string(),
    ]);
    row(&[
        "full-capacity search".to_string(),
        format!("{:.2} s", cluster_capacity as f64 / aggregate),
        "~12.4 s".to_string(),
    ]);

    println!(
        "\nPer-container breakdown (simulated): {} device-resident batches, {} host-resident;\n\
         H2D streaming {:.1}% of serial time, overlapped by 8 CUDA streams.",
        report.device_batches,
        report.host_batches,
        report.h2d_us / report.serial_total_us * 100.0
    );
}
