//! **Ablation (§5.3 extension)** — query-side batching.
//!
//! The paper batches the *reference* matrices and notes that the query
//! matrix "can also be batched for higher performance. However, the search
//! latency also increases with worse achievable QoS", deferring the study.
//! This ablation runs it: sweep the number of queries matched per GEMM and
//! report throughput against per-query latency — the trade-off curve the
//! paper alludes to.

use texid_bench::{heading, row, thousands};
use texid_gpu::{DeviceSpec, Precision};
use texid_knn::{BatchWork, MatchConfig};

/// Throughput/latency of matching `qbatch` queries against one reference
/// batch of 256 (m = 384): the query matrices concatenate into a single
/// operand of n·qbatch columns.
fn run(qbatch: usize) -> (f64, f64) {
    let cfg = MatchConfig { precision: Precision::F16, ..MatchConfig::default() };
    let batch = 256;
    let m = 384;
    let n = 768;
    let steps = BatchWork::new(&cfg, batch, m, n * qbatch, 128).price(&DeviceSpec::tesla_p100());
    // Comparisons performed: batch references × qbatch queries.
    let total_us = steps.total_us();
    let comparisons_per_s = (batch * qbatch) as f64 / total_us * 1e6;
    // A query's result is only complete when the whole fused launch ends.
    let latency_ms = total_us / 1e3;
    (comparisons_per_s, latency_ms)
}

fn main() {
    heading("Ablation: query-side batching (m=384, n=768, ref batch 256, FP16, P100)");
    row(&[
        "query batch".to_string(),
        "comparisons/s".to_string(),
        "latency ms".to_string(),
        "speedup".to_string(),
        "latency blowup".to_string(),
    ]);
    let (base_speed, base_lat) = run(1);
    for qb in [1usize, 2, 4, 8, 16, 32] {
        let (speed, lat) = run(qb);
        row(&[
            qb.to_string(),
            thousands(speed),
            format!("{lat:.2}"),
            format!("{:.2}x", speed / base_speed),
            format!("{:.1}x", lat / base_lat),
        ]);
    }
    println!(
        "\nThe QoS trade-off the paper defers: throughput keeps rising with query batching,\n\
         but per-query latency grows almost linearly — unacceptable for the interactive\n\
         traceability lookups the system serves, which is why the paper batches only the\n\
         reference side."
    );
}
