//! **Table 3** — per-step time of the batched Algorithm 2 pipeline (FP16,
//! m = n = 768, Tesla P100), batch 1 vs batch 1024, times normalized per
//! image.

use texid_bench::{heading, row, thousands};
use texid_gpu::{DeviceSpec, Precision};
use texid_knn::{BatchWork, MatchConfig, StepTimes};

fn run(batch: usize) -> StepTimes {
    let cfg = MatchConfig { precision: Precision::F16, ..MatchConfig::default() };
    BatchWork::new(&cfg, batch, 768, 768, 128).price(&DeviceSpec::tesla_p100())
}

fn main() {
    let b1 = run(1);
    let b1024 = run(1024);

    heading("Table 3: batched reference feature matrix, Alg. 2 FP16, per image (ours [paper], µs)");
    row(&[
        "step".to_string(),
        "BatchSize=1".to_string(),
        "BatchSize=1024".to_string(),
    ]);

    let paper_b1 = [26.11, 70.69, 60.15, 16.85];
    let paper_b1024 = [11.58, 3.82, 2.72, 3.85];
    let names = ["HGEMM", "Sort+Sqrt", "D2H copy", "Post (CPU)"];
    let ours_b1 = [b1.gemm_us, b1.sort_us, b1.d2h_us, b1.post_us];
    let ours_b1024 = [
        b1024.gemm_us / 1024.0,
        b1024.sort_us / 1024.0,
        b1024.d2h_us / 1024.0,
        b1024.post_us / 1024.0,
    ];
    let speed = |steps: &StepTimes, batch| 1e6 / steps.per_image_us(batch);
    for i in 0..4 {
        row(&[
            names[i].to_string(),
            format!("{:.2} [{}]", ours_b1[i], paper_b1[i]),
            format!("{:.2} [{}]", ours_b1024[i], paper_b1024[i]),
        ]);
    }
    row(&[
        "Total (µs)".to_string(),
        format!("{:.1} [173.8]", b1.per_image_us(1)),
        format!("{:.2} [21.96]", b1024.per_image_us(1024)),
    ]);
    row(&[
        "Speed (img/s)".to_string(),
        format!("{} [5,753]", thousands(speed(&b1, 1))),
        format!("{} [45,539]", thousands(speed(&b1024, 1024))),
    ]);

    println!(
        "\nBatching speedup: {:.1}x (paper: 7.9x). Sort time cut by {:.1}% (paper: 94.5%).",
        speed(&b1024, 1024) / speed(&b1, 1),
        (1.0 - ours_b1024[1] / ours_b1[1]) * 100.0
    );
}
