//! Proof that a steady-state `Engine::search` re-packs nothing: with the
//! reference batches packed at seal and the query packed once per search,
//! no single allocation during a search approaches the size of a packed
//! reference block (`O(m·d)` floats). Before pack-once, every search of
//! every batch allocated exactly that.
//!
//! Its own integration-test binary because a `#[global_allocator]` is
//! process-wide (the allocator is shared with `texid-linalg`'s
//! `fused_alloc` test).

#[path = "../../linalg/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measure, CountingAlloc};
use texid_core::{Engine, EngineConfig};
use texid_linalg::Mat;
use texid_sift::FeatureMatrix;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn features(cols: usize, seed: u64) -> FeatureMatrix {
    let mut state = seed | 1;
    FeatureMatrix::from_mat(
        Mat::from_fn(128, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) & 0xffff) as f32 / 65535.0 * 0.1
        }),
        true,
    )
}

#[test]
fn steady_state_search_allocates_no_reference_sized_buffer() {
    let (m_ref, batch, n_query) = (128usize, 16usize, 64usize);
    let mut engine = Engine::new(EngineConfig {
        m_ref,
        n_query,
        batch_size: batch,
        streams: 1,
        ..EngineConfig::default()
    });
    for id in 0..2 * batch as u64 {
        engine.add_reference(id, &features(m_ref, id)).expect("capacity");
    }
    engine.flush().expect("flush");
    let q = features(n_query, 999);
    let warm = engine.search(&q); // scratch devices, telemetry handles

    let (result, heap) = measure(|| engine.search(&q));
    assert_eq!(result.ranked, warm.ranked);
    // One batch's packed references: batch · m_ref · d f32s = 1 MiB. The
    // query's own pack (n · d f32s = 32 KiB) is the largest thing a search
    // may allocate.
    let packed_refs_bytes = batch * m_ref * 128 * 4;
    assert!(
        heap.largest <= n_query * 128 * 4,
        "a search allocated {} B at once; a re-packed reference batch is {packed_refs_bytes} B",
        heap.largest
    );
    assert!(heap.peak < packed_refs_bytes / 4, "search peak heap {} B", heap.peak);
}
