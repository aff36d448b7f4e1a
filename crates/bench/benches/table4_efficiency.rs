//! **Table 4** — GPU efficiency (Eq. 3) at batch 1024, m = n = 768, FP16.

use texid_bench::{heading, row, thousands};
use texid_core::metrics::{achieved_tflops, gpu_efficiency};
use texid_gpu::{DeviceSpec, Precision};
use texid_knn::{BatchWork, MatchConfig};

fn speed(spec: &DeviceSpec, tensor_core: bool) -> f64 {
    let cfg = MatchConfig { precision: Precision::F16, tensor_core, ..MatchConfig::default() };
    1e6 / BatchWork::new(&cfg, 1024, 768, 768, 128).price(spec).per_image_us(1024)
}

fn main() {
    let p100 = DeviceSpec::tesla_p100();
    let v100 = DeviceSpec::tesla_v100();

    struct Row {
        label: &'static str,
        spec: DeviceSpec,
        tc: bool,
        paper_speed: f64,
        paper_tflops: f64,
        paper_eff: f64,
    }
    let rows = [
        Row { label: "Tesla P100", spec: p100, tc: false, paper_speed: 45_539.0, paper_tflops: 6.69, paper_eff: 35.8 },
        Row { label: "V100 w/o TC", spec: v100.clone(), tc: false, paper_speed: 67_612.0, paper_tflops: 9.94, paper_eff: 35.5 },
        Row { label: "V100 w/ TC", spec: v100, tc: true, paper_speed: 86_519.0, paper_tflops: 12.72, paper_eff: 11.4 },
    ];

    heading("Table 4: GPU efficiency (Eq. 3), m=n=768, batch 1024, FP16 (ours [paper])");
    row(&[
        "GPU".to_string(),
        "speed img/s".to_string(),
        "achieved TF".to_string(),
        "peak TF".to_string(),
        "efficiency".to_string(),
    ]);
    for r in rows {
        let s = speed(&r.spec, r.tc);
        let tf = achieved_tflops(s, 768, 768, 128);
        let eff = gpu_efficiency(&r.spec, s, 768, 768, 128, Precision::F16, r.tc) * 100.0;
        let peak = r.spec.peak_tflops(Precision::F16, r.tc);
        row(&[
            r.label.to_string(),
            format!("{} [{}]", thousands(s), thousands(r.paper_speed)),
            format!("{tf:.2} [{:.2}]", r.paper_tflops),
            format!("{peak:.0}"),
            format!("{eff:.1}% [{:.1}%]", r.paper_eff),
        ]);
    }
    println!(
        "\nThe tensor-core row's low efficiency is the paper's point: the 112 TFLOPS peak is\n\
         unreachable at this matrix size; batching helps but cannot saturate it."
    );
}
