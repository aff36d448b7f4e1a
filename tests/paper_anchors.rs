//! Paper-anchor integration tests: the headline numbers of every table,
//! asserted through the *public* API (engine + matchers + capacity model),
//! so a regression anywhere in the stack trips them.

use texid_cache::CacheConfig;
use texid_core::capacity::{bytes_per_reference, device_capacity, hybrid_capacity};
use texid_core::metrics::gpu_efficiency;
use texid_core::{Engine, EngineConfig};
use texid_gpu::{streams, DeviceSpec, Precision};
use texid_knn::{Algorithm, BatchWork, MatchConfig};
use texid_linalg::Mat;
use texid_sift::FeatureMatrix;

fn within(ours: f64, paper: f64, tol: f64) -> bool {
    (ours - paper).abs() <= paper * tol
}

fn config(algorithm: Algorithm, precision: Precision) -> MatchConfig {
    MatchConfig { algorithm, precision, ..MatchConfig::default() }
}

fn pair_speed(algorithm: Algorithm, precision: Precision) -> f64 {
    let work = BatchWork::new(&config(algorithm, precision), 1, 768, 768, 128);
    work.price(&DeviceSpec::tesla_p100()).images_per_second()
}

/// Images/s of one query against `batch` references of `m` features.
fn batch_speed(spec: &DeviceSpec, cfg: &MatchConfig, batch: usize, m: usize, n: usize) -> f64 {
    1e6 / BatchWork::new(cfg, batch, m, n, 128).price(spec).per_image_us(batch)
}

fn batched_speed(spec: &DeviceSpec, batch: usize, tensor_core: bool) -> f64 {
    let cfg = MatchConfig { tensor_core, ..config(Algorithm::RootSiftTop2, Precision::F16) };
    batch_speed(spec, &cfg, batch, 768, 768)
}

#[test]
fn table1_speed_ladder() {
    assert!(within(pair_speed(Algorithm::OpenCvCuda, Precision::F32), 2_012.0, 0.10));
    assert!(within(pair_speed(Algorithm::CublasFullSort, Precision::F32), 3_027.0, 0.10));
    assert!(within(pair_speed(Algorithm::CublasTop2, Precision::F32), 6_734.0, 0.10));
    assert!(within(pair_speed(Algorithm::CublasTop2, Precision::F16), 5_917.0, 0.10));
}

#[test]
fn table1_memory_rows() {
    let spec = DeviceSpec::tesla_p100();
    let f32_mb = (10_000 * bytes_per_reference(768, 128, Precision::F32, true)
        + spec.context_overhead_bytes) as f64
        / 1e6;
    let f16_mb = (10_000 * bytes_per_reference(768, 128, Precision::F16, true)
        + spec.context_overhead_bytes) as f64
        / 1e6;
    assert!(within(f32_mb, 4_307.0, 0.03), "{f32_mb}");
    assert!(within(f16_mb, 2_307.0, 0.03), "{f16_mb}");
}

#[test]
fn table3_and_fig4_batching() {
    let p100 = DeviceSpec::tesla_p100();
    let v100 = DeviceSpec::tesla_v100();
    assert!(within(batched_speed(&p100, 1, false), 5_753.0, 0.10));
    assert!(within(batched_speed(&p100, 1024, false), 45_539.0, 0.05));
    assert!(within(batched_speed(&v100, 1024, false), 67_612.0, 0.05));
    assert!(within(batched_speed(&v100, 1024, true), 86_519.0, 0.05));
    // The curve flattens past batch 256 (Fig. 4).
    let s256 = batched_speed(&p100, 256, false);
    let s1024 = batched_speed(&p100, 1024, false);
    assert!(s1024 / s256 < 1.05);
}

#[test]
fn table4_efficiencies() {
    let p100 = DeviceSpec::tesla_p100();
    let v100 = DeviceSpec::tesla_v100();
    let e_p = gpu_efficiency(&p100, batched_speed(&p100, 1024, false), 768, 768, 128, Precision::F16, false);
    let e_v = gpu_efficiency(&v100, batched_speed(&v100, 1024, false), 768, 768, 128, Precision::F16, false);
    let e_t = gpu_efficiency(&v100, batched_speed(&v100, 1024, true), 768, 768, 128, Precision::F16, true);
    assert!(within(e_p, 0.358, 0.06), "{e_p}");
    assert!(within(e_v, 0.355, 0.06), "{e_v}");
    assert!(within(e_t, 0.114, 0.06), "{e_t}");
}

fn hybrid_engine(pinned: bool, streams_n: usize, batch: usize) -> Engine {
    Engine::new(EngineConfig {
        device: DeviceSpec::tesla_p100(),
        matching: config(Algorithm::RootSiftTop2, Precision::F16),
        m_ref: 768,
        n_query: 768,
        batch_size: batch,
        streams: streams_n,
        cache: CacheConfig {
            host_capacity_bytes: 256 << 30,
            device_reserve_bytes: 15 << 30, // force host residency
            pinned,
        },
    })
}

fn hybrid_speed(pinned: bool, streams_n: usize, batch: usize) -> f64 {
    let mut e = hybrid_engine(pinned, streams_n, batch);
    for id in 0..(48 * batch) as u64 {
        e.add_reference_shape(id).unwrap();
    }
    e.flush().unwrap();
    let q = FeatureMatrix::from_mat(Mat::zeros(128, 768), true);
    e.search(&q).report.images_per_second()
}

#[test]
fn table5_hybrid_cache_speeds() {
    assert!(within(hybrid_speed(true, 1, 1024), 25_362.0, 0.08));
    assert!(within(hybrid_speed(false, 1, 1024), 17_619.0, 0.08));
}

#[test]
fn table6_stream_scaling() {
    // Schedule efficiency climbs with streams toward the PCIe bound.
    let spec = DeviceSpec::tesla_p100();
    let theo = streams::pcie_bound_speed(&spec, (768 * 128 * 2) as u64, true);
    let expected = [(1usize, 0.525), (2, 0.619), (4, 0.798), (8, 0.873)];
    for (s, paper_eff) in expected {
        let eff = hybrid_speed(true, s, 512) / theo;
        assert!(
            (eff - paper_eff).abs() < 0.08,
            "streams {s}: efficiency {eff:.3} vs paper {paper_eff}"
        );
    }
}

#[test]
fn table7_asymmetric_speedup() {
    // m=384/n=768 at batch 256 is ~34.6% faster than symmetric 768/768.
    let cfg = config(Algorithm::RootSiftTop2, Precision::F16);
    let speed = |m: usize, n: usize| batch_speed(&DeviceSpec::tesla_p100(), &cfg, 256, m, n);
    let sym = speed(768, 768);
    let asym = speed(384, 768);
    assert!(within(sym, 46_323.0, 0.10), "{sym}");
    assert!(within(asym, 62_356.0, 0.15), "{asym}");
    // Our analytic model slightly over-rewards the smaller GEMM, so the
    // gain lands above the measured 34.6%; the direction and rough size of
    // the win are the reproduced claims.
    let gain = asym / sym - 1.0;
    assert!((0.25..0.60).contains(&gain), "asymmetric gain {gain} vs paper 0.346");
}

#[test]
fn fig1_headline_factors() {
    let spec = DeviceSpec::tesla_p100();
    // Speed: baseline 2,012 img/s -> optimized m=384 batch-256 hybrid
    // multi-stream pipeline ~31x.
    let baseline = pair_speed(Algorithm::OpenCvCuda, Precision::F32);
    let cfg = config(Algorithm::RootSiftTop2, Precision::F16);
    let per_image_us = BatchWork::new(&cfg, 256, 384, 768, 128).price(&spec).per_image_us(256);
    let h2d = texid_gpu::cost::h2d_duration_us(&spec, (256 * 384 * 128 * 2) as u64, true) / 256.0;
    let optimized = 1e6
        / ((per_image_us + h2d) * streams::stream_time_factor(&spec, 8));
    let speed_factor = optimized / baseline;
    assert!((25.0..40.0).contains(&speed_factor), "speed factor {speed_factor} vs paper 31x");

    // Capacity: 20x.
    let base_cap = device_capacity(&spec, 0, bytes_per_reference(768, 128, Precision::F32, true));
    let opt_cap = hybrid_capacity(&spec, 0, 64 << 30, bytes_per_reference(384, 128, Precision::F16, false));
    let cap_factor = opt_cap as f64 / base_cap as f64;
    assert!((18.0..23.0).contains(&cap_factor), "capacity factor {cap_factor} vs paper 20x");
}

#[test]
fn section8_cluster_scale() {
    let spec = DeviceSpec::tesla_p100();
    let per_ref = bytes_per_reference(384, 128, Precision::F16, false);
    let per_container = hybrid_capacity(&spec, 4 << 30, 64 << 30, per_ref);
    let total = 14 * per_container;
    assert!(within(total as f64, 10_800_000.0, 0.08), "{total}");
}
