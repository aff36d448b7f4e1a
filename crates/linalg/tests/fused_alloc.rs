//! Proof that the fused GEMM + top-2 path never materializes the `m × n`
//! similarity matrix: a counting global allocator measures the peak live
//! heap during the call and asserts it stays far below `m·n·4` bytes,
//! while the materialize-then-scan pipeline provably crosses that line.
//!
//! This is its own integration-test binary because a `#[global_allocator]`
//! is process-wide; keeping it out of the main test binaries avoids
//! perturbing their (parallel) allocation patterns.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measure, CountingAlloc};
use texid_linalg::active_backend;
use texid_linalg::kernel::{gemm_at_b, gemm_top2, gemm_top2_ex, FusedEpilogue, PackedA, PackedB};
use texid_linalg::mat::Mat;
use texid_linalg::top2::top2_min_per_column;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn fused_top2_never_allocates_the_distance_matrix() {
    // Deliberately shallow (d = 16) so the packed operands are tiny next to
    // the m × n product: matrix = 1536·1024·4 = 6 MiB, operands ≈ 160 KiB.
    let (m, n, d) = (1536usize, 1024usize, 16usize);
    let a = Mat::from_fn(d, m, |r, c| ((r * 31 + c * 7) % 113) as f32 * 1e-2);
    let b = Mat::from_fn(d, n, |r, c| ((r * 17 + c * 3) % 127) as f32 * 1e-2);
    let matrix_bytes = m * n * 4;
    let be = active_backend();

    let (unfused, heap) = measure(|| top2_min_per_column(&gemm_at_b(be, -2.0, &a, &b), 1, m));
    assert!(
        heap.peak >= matrix_bytes,
        "materialized pipeline must allocate the full matrix: peak {} < {matrix_bytes}",
        heap.peak
    );

    let (fused, heap) = measure(|| gemm_top2(be, -2.0, &a, &b, 1, m));
    assert!(
        heap.peak < matrix_bytes / 4,
        "fused path must stay far below the m×n matrix: peak {} vs {matrix_bytes}",
        heap.peak
    );

    // And the cheapness must not cost correctness.
    assert_eq!(fused, unfused);

    // With both operands packed ahead of time the scan allocates nothing
    // proportional to an operand either: only selection state and output.
    let (pa, pb) = (PackedA::pack(be, &a), PackedB::pack(be, &b));
    let (packed, heap) =
        measure(|| gemm_top2_ex(-2.0, &pa, &pb, &FusedEpilogue::default(), 1, m));
    let operand_bytes = n * d * 4;
    assert!(
        heap.largest < operand_bytes / 2,
        "pre-packed scan allocated {} B at once (query operand is {operand_bytes} B)",
        heap.largest
    );
    assert_eq!(packed, unfused);
}
