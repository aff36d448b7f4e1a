//! End-to-end smoke test of the kernel-bench generator at toy shapes: the
//! full measure → report → JSON → validate → guard path must hold together
//! without ever running the (slow) paper-scale shapes.

use texid_bench::kernels::{
    check_epilogue_guard, check_simd_guard, run_custom, validate_json, SCHEMA, SEED,
};
use texid_linalg::{available_backends, Backend};

#[test]
fn tiny_run_emits_a_valid_report() {
    let backends = available_backends();
    let report = run_custom(&[6, 9], &[1, 2], 16, 8, 1, true, &backends);
    assert_eq!(report.seed, SEED);
    assert_eq!(report.median_of, 1);
    assert!(report.quick);

    // One roofline row per backend, 6 kernel×precision rows per (m, batch)
    // per backend, 1 baseline row per m at batch 1.
    assert_eq!(report.entries.len(), backends.len() + 2 * 2 * 6 * backends.len() + 2);
    assert!(report.entries.iter().all(|e| e.wall_us > 0.0 && e.gflops > 0.0));
    assert!(report.entries.iter().all(|e| e.min_us <= e.wall_us && e.pct_of_peak > 0.0));

    let json = report.to_json();
    assert!(json.contains(SCHEMA));
    validate_json(&json).expect("schema-valid JSON");

    // The guards must at least be *evaluable* on a real report — a 0.0
    // floor always passes, and every SIMD row has its scalar twin.
    check_simd_guard(&report, 0.0).expect("simd guard evaluable");
    check_epilogue_guard(&report, 0.0).expect("epilogue guard evaluable");
}

#[test]
fn forced_scalar_run_has_only_scalar_rows() {
    let report = run_custom(&[4], &[1], 8, 4, 1, true, &[Backend::Scalar]);
    assert!(report.entries.iter().all(|e| e.backend == "scalar"));
    check_simd_guard(&report, 1.0).expect("vacuously true without SIMD rows");
}

#[test]
fn largest_shape_selection_prefers_big_batches() {
    let report = run_custom(&[4], &[1, 3], 8, 4, 1, true, &available_backends());
    let e = report.largest("packed", "f32").expect("packed f32 measured");
    assert_eq!((e.batch, e.m), (3, 4));
}
