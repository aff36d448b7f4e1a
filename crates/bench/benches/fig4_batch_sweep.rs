//! **Figure 4** — search speed vs batch size (1…1024) with RootSIFT +
//! batching, FP16, m = n = 768, on Tesla P100 and V100 (± tensor cores).
//!
//! The paper's anchors: P100 5,753 → 45,539 img/s (7.9×), V100 ~7.5×
//! reaching 67,612; V100 w/ tensor cores peaks at 86,519; curves flatten
//! past batch 256.

use texid_bench::{heading, row, thousands};
use texid_gpu::{DeviceSpec, Precision};
use texid_knn::{BatchWork, MatchConfig};

fn speed(spec: &DeviceSpec, batch: usize, tensor_core: bool) -> f64 {
    let cfg = MatchConfig { precision: Precision::F16, tensor_core, ..MatchConfig::default() };
    1e6 / BatchWork::new(&cfg, batch, 768, 768, 128).price(spec).per_image_us(batch)
}

fn main() {
    let p100 = DeviceSpec::tesla_p100();
    let v100 = DeviceSpec::tesla_v100();
    let batches = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

    heading("Fig. 4: search speed vs batch size, FP16, m=n=768 (images/s)");
    row(&[
        "batch".to_string(),
        "P100".to_string(),
        "V100".to_string(),
        "V100+TC".to_string(),
    ]);
    let mut series = Vec::new();
    for &b in &batches {
        let sp = speed(&p100, b, false);
        let sv = speed(&v100, b, false);
        let st = speed(&v100, b, true);
        series.push((b, sp, sv, st));
        row(&[
            b.to_string(),
            thousands(sp),
            thousands(sv),
            thousands(st),
        ]);
    }

    let (_, p1, v1, t1) = series[0];
    let (_, p1024, v1024, t1024) = series[series.len() - 1];
    println!("\nPaper anchors: P100 5,753 -> 45,539 (7.9x); V100 -> 67,612 (~7.5x); V100+TC 86,519.");
    println!(
        "Ours:          P100 {} -> {} ({:.1}x); V100 {} -> {} ({:.1}x); V100+TC {} -> {}.",
        thousands(p1),
        thousands(p1024),
        p1024 / p1,
        thousands(v1),
        thousands(v1024),
        v1024 / v1,
        thousands(t1),
        thousands(t1024),
    );
    // Flattening check: gain past batch 256 is small.
    let s256 = series.iter().find(|(b, ..)| *b == 256).expect("has 256").1;
    println!(
        "Flattening: P100 gain from 256 -> 1024 is {:.1}% (paper: 'flat when batch > 256').",
        (p1024 / s256 - 1.0) * 100.0
    );
    println!(
        "Tensor-core gain at batch 1: {:.2}x (paper: 1.15x); at 1024: {:.2}x (paper: 1.3x).",
        t1 / v1,
        t1024 / v1024
    );
}
