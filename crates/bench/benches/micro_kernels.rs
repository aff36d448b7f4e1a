//! Criterion micro-benchmarks of the *functional* substrates (real CPU wall
//! time, not simulated device time): GEMM, top-2 scan, FP16 conversion,
//! SIFT extraction and the wire codec.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use texid_distrib::wire;
use texid_image::TextureGenerator;
use texid_linalg::gemm::gemm_at_b_naive;
use texid_linalg::kernel::{gemm_at_b, gemm_top2};
use texid_linalg::top2::{sort_columns, top2_min_per_column};
use texid_linalg::{active_backend, available_backends, F16, Mat};
use texid_sift::{extract, SiftConfig};

fn feature_mat(d: usize, cols: usize, seed: u64) -> Mat {
    let mut state = seed | 1;
    Mat::from_fn(d, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) & 0xffff) as f32 / 65535.0 * 0.1
    })
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_at_b");
    for &cols in &[128usize, 384, 768] {
        let a = feature_mat(128, cols, 1);
        let b = feature_mat(128, 768, 2);
        let flops = 2 * cols as u64 * 768 * 128;
        g.throughput(Throughput::Elements(flops));
        g.bench_with_input(BenchmarkId::new("f32", cols), &cols, |bench, _| {
            bench.iter(|| gemm_at_b(active_backend(), -2.0, &a, &b))
        });
        let a16 = a.to_f16_scaled(0.0078125);
        let b16 = b.to_f16_scaled(0.0078125);
        g.bench_with_input(BenchmarkId::new("f16", cols), &cols, |bench, _| {
            bench.iter(|| gemm_at_b(active_backend(), -2.0, &a16, &b16))
        });
    }
    g.finish();
}

/// Packed/blocked kernel (per SIMD backend) vs the naive triple loop, at
/// the paper's pair-matching shape
/// (m = 768, n = 768, d = 128).
fn bench_gemm_packed(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_packed");
    let a = feature_mat(128, 768, 11);
    let b = feature_mat(128, 768, 12);
    let a16 = a.to_f16_scaled(0.0078125);
    let b16 = b.to_f16_scaled(0.0078125);
    g.throughput(Throughput::Elements(2 * 768 * 768 * 128));
    for be in available_backends() {
        g.bench_with_input(BenchmarkId::new("packed_f32", be.name()), &be, |bench, &be| {
            bench.iter(|| gemm_at_b(be, -2.0, &a, &b))
        });
        g.bench_with_input(BenchmarkId::new("packed_f16", be.name()), &be, |bench, &be| {
            bench.iter(|| gemm_at_b(be, -2.0, &a16, &b16))
        });
    }
    g.bench_function("naive_f32", |bench| bench.iter(|| gemm_at_b_naive(-2.0, &a, &b)));
    g.finish();
}

/// Fused GEMM+top-2 epilogue vs materialize-then-scan, same shape, per
/// SIMD backend.
fn bench_fused_top2(c: &mut Criterion) {
    let mut g = c.benchmark_group("fused_top2");
    let a = feature_mat(128, 768, 13);
    let b = feature_mat(128, 768, 14);
    let a16 = a.to_f16_scaled(0.0078125);
    let b16 = b.to_f16_scaled(0.0078125);
    g.throughput(Throughput::Elements(2 * 768 * 768 * 128));
    for be in available_backends() {
        g.bench_with_input(BenchmarkId::new("fused_f32", be.name()), &be, |bench, &be| {
            bench.iter(|| gemm_top2(be, -2.0, &a, &b, 1, 768))
        });
        g.bench_with_input(BenchmarkId::new("unfused_f32", be.name()), &be, |bench, &be| {
            bench.iter(|| top2_min_per_column(&gemm_at_b(be, -2.0, &a, &b), 1, 768))
        });
        g.bench_with_input(BenchmarkId::new("fused_f16", be.name()), &be, |bench, &be| {
            bench.iter(|| gemm_top2(be, -2.0, &a16, &b16, 1, 768))
        });
        g.bench_with_input(BenchmarkId::new("unfused_f16", be.name()), &be, |bench, &be| {
            bench.iter(|| top2_min_per_column(&gemm_at_b(be, -2.0, &a16, &b16), 1, 768))
        });
    }
    g.finish();
}

fn bench_top2(c: &mut Criterion) {
    let mut g = c.benchmark_group("top2");
    let a = feature_mat(768, 768, 3);
    g.throughput(Throughput::Elements((768 * 768) as u64));
    g.bench_function("scan_768x768", |bench| bench.iter(|| top2_min_per_column(&a, 1, 768)));
    g.bench_function("full_sort_768x768", |bench| bench.iter(|| sort_columns(&a)));
    g.finish();
}

fn bench_f16(c: &mut Criterion) {
    let values: Vec<f32> = (0..65536).map(|i| i as f32 * 0.37 - 12_000.0).collect();
    let halves: Vec<F16> = values.iter().map(|&v| F16::from_f32(v)).collect();
    let mut g = c.benchmark_group("f16");
    g.throughput(Throughput::Elements(values.len() as u64));
    g.bench_function("narrow_64k", |bench| {
        bench.iter(|| values.iter().map(|&v| F16::from_f32(v)).collect::<Vec<_>>())
    });
    g.bench_function("widen_64k", |bench| {
        bench.iter(|| halves.iter().map(|h| h.to_f32()).collect::<Vec<f32>>())
    });
    // The vectorized slice converters, per backend (the packing/epilogue
    // paths the GEMM kernels actually use).
    for be in available_backends() {
        g.bench_with_input(BenchmarkId::new("narrow_slice_64k", be.name()), &be, |bench, &be| {
            let mut out = vec![F16::ZERO; values.len()];
            bench.iter(|| texid_linalg::f16::narrow_slice_scaled_on(be, &values, 1.0, &mut out))
        });
        g.bench_with_input(BenchmarkId::new("widen_slice_64k", be.name()), &be, |bench, &be| {
            let mut out = vec![0.0f32; halves.len()];
            bench.iter(|| texid_linalg::f16::widen_slice_on(be, &halves, &mut out))
        });
    }
    g.finish();
}

fn bench_sift(c: &mut Criterion) {
    let im = TextureGenerator::with_size(256).generate(5);
    let cfg = SiftConfig { max_features: 768, ..SiftConfig::default() };
    let mut g = c.benchmark_group("sift");
    g.sample_size(10);
    g.bench_function("extract_256px_768f", |bench| bench.iter(|| extract(&im, &cfg)));
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let im = TextureGenerator::with_size(256).generate(6);
    let features = extract(&im, &SiftConfig { max_features: 384, ..SiftConfig::default() });
    let encoded = wire::encode_features(&features);
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode_384f", |bench| bench.iter(|| wire::encode_features(&features)));
    g.bench_function("decode_384f", |bench| {
        bench.iter(|| wire::decode_features(&encoded).expect("valid"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_gemm_packed,
    bench_fused_top2,
    bench_top2,
    bench_f16,
    bench_sift,
    bench_wire
);
criterion_main!(benches);
