//! Proof that a steady-state `Engine::search` re-packs nothing: with the
//! reference batches packed as they fill and the query packed once per search,
//! no single allocation during a search approaches the size of a packed
//! reference block (`O(m·d)` floats). Before pack-once, every search of
//! every batch allocated exactly that.
//!
//! The same allocator guards the in-place delete: `remove_reference` moves
//! bytes inside the batch's panels — whole panels when its references fall
//! on the panel grid, single elements when they do not — and allocates
//! nothing of a reference's size (a prototype that rebuilt and re-packed the
//! batch per delete cost a tenth of the process's peak RSS under steady
//! rewrites). And it holds the engine to one resident copy of a sealed
//! batch: those panels, whatever `MatchConfig::fused` says.
//!
//! And it guards the way in: a reference is packed into the open batch's
//! panels as it arrives and nowhere else, so `add_reference` leaves nothing
//! behind but those panels' growth, a rewrite in slot leaves nothing at all,
//! and `flush` — a move into the cache — allocates nothing of even one
//! reference's size.
//!
//! Its own integration-test binary because a `#[global_allocator]` is
//! process-wide (the allocator is shared with `texid-linalg`'s
//! `fused_alloc` test).

#[path = "../../linalg/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measure, CountingAlloc};
use texid_core::{Engine, EngineConfig};
use texid_knn::MatchConfig;
use texid_linalg::Mat;
use texid_sift::FeatureMatrix;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocator's counters are process-wide and `measure` is not
/// reentrant: the tests of this binary take turns.
static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

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

/// Bytes per element of an F16 reference's panels on the active backend.
fn panel_elem_bytes() -> usize {
    if texid_linalg::active_backend().f16_panels() {
        2
    } else {
        4
    }
}

#[test]
fn steady_state_search_allocates_no_reference_sized_buffer() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
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
    // query's own pack — whole panels of the backend's `nr` columns,
    // ⌈n / nr⌉ · nr · d f32s (n = 64 pads to 72 on the 24-column AVX-512
    // tile: 36 KiB) — is the largest thing a search may allocate.
    let packed_refs_bytes = batch * m_ref * 128 * 4;
    let nr = texid_linalg::active_backend().nr();
    assert!(
        heap.largest <= n_query.div_ceil(nr) * nr * 128 * 4,
        "a search allocated {} B at once; a re-packed reference batch is {packed_refs_bytes} B",
        heap.largest
    );
    assert!(heap.peak < packed_refs_bytes / 4, "search peak heap {} B", heap.peak);
}

#[test]
fn in_place_delete_allocates_no_reference_sized_buffer() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // m_ref = 128 is a whole number of panels on every backend (whole panels
    // move); 42 is a multiple of no panel width, 4, 8 or 16 (elements move).
    for m_ref in [128usize, 42] {
        let (batch, n_query) = (16usize, 64usize);
        let mut engine = Engine::new(EngineConfig {
            m_ref,
            n_query,
            batch_size: batch,
            streams: 1,
            ..EngineConfig::default()
        });
        for id in 0..2 * batch as u64 {
            engine
                .add_reference(id, &features(m_ref, id))
                .expect("capacity");
        }
        engine.flush().expect("flush");
        let q = features(n_query, 999);
        let before = engine.search(&q).ranked;

        // A middle reference, the last of its batch, then a whole batch: none
        // may allocate even the smallest copy of one reference, its f16 block
        // (m_ref · d · 2 B, 32 KiB at 128; its panels are twice that).
        let one_reference = m_ref * 128 * 2;
        let doomed: Vec<u64> = [3, 15].into_iter().chain(16..32).collect();
        for &id in &doomed {
            let (removed, heap) = measure(|| engine.remove_reference(id));
            assert!(removed, "id {id}");
            assert!(
                heap.largest < one_reference / 8,
                "removing id {id} allocated {} B at once; one reference is {one_reference} B",
                heap.largest
            );
        }
        let expect: Vec<(u64, usize)> = before
            .into_iter()
            .filter(|(id, _)| !doomed.contains(id))
            .collect();
        assert_eq!(engine.search(&q).ranked, expect);
    }
}

#[test]
fn a_sealed_batch_is_resident_once() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (m_ref, batch) = (128usize, 32usize);
    let refs: Vec<FeatureMatrix> = (0..batch as u64).map(|id| features(m_ref, id)).collect();
    // The default engine (F16, fused) and its unfused twin hold the same
    // single buffer: the batch's panels, f16 where the tile widens in
    // register and f32 on the scalar backend.
    let panel_bytes = (batch * m_ref * 128 * panel_elem_bytes()) as f64;
    for fused in [true, false] {
        let (engine, heap) = measure(|| {
            let mut engine = Engine::new(EngineConfig {
                matching: MatchConfig { fused, ..MatchConfig::default() },
                m_ref,
                batch_size: batch,
                streams: 1,
                ..EngineConfig::default()
            });
            for (id, f) in refs.iter().enumerate() {
                engine.add_reference(id as u64, f).expect("capacity");
            }
            engine.flush().expect("flush");
            engine
        });
        assert_eq!(engine.len(), batch);
        let ratio = heap.retained as f64 / panel_bytes;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "fused {fused}: {} B retained per sealed batch, {ratio:.2}× its panels",
            heap.retained
        );
    }
}

#[test]
fn ingest_packs_in_place_and_a_seal_is_a_move() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (m_ref, batch) = (128usize, 32usize);
    let refs: Vec<FeatureMatrix> = (0..batch as u64).map(|id| features(m_ref, id)).collect();
    let one_reference_panels = m_ref * 128 * panel_elem_bytes();
    let mut engine = Engine::new(EngineConfig {
        m_ref,
        batch_size: batch + 1, // the 32 stay open until `flush`
        streams: 1,
        ..EngineConfig::default()
    });
    let mut retained = 0isize;
    for (id, f) in refs.iter().enumerate() {
        let ((), heap) = measure(|| engine.add_reference(id as u64, f).expect("capacity"));
        retained += heap.retained;
    }
    // What 32 adds left behind is the panels (a `Vec` that doubled its way
    // to exactly 32 references) and 32 ids: no per-reference f32 copy, f16
    // block or pooled descriptor stayed.
    let panels = (batch * one_reference_panels) as isize;
    assert!(
        (panels..panels + 4096).contains(&retained),
        "32 adds retained {retained} B; their panels are {panels} B"
    );

    // A rewrite in slot narrows into a scratch block and leaves nothing.
    let (replaced, heap) = measure(|| engine.replace_reference(7, &refs[8]));
    assert!(replaced);
    assert_eq!(heap.retained, 0, "a rewrite in the open batch retained {} B", heap.retained);

    let ((), heap) = measure(|| engine.flush().expect("flush"));
    assert!(
        heap.largest < one_reference_panels / 8,
        "sealing allocated {} B at once; one reference's panels are {one_reference_panels} B",
        heap.largest
    );
    let (replaced, heap) = measure(|| engine.replace_reference(7, &refs[7]));
    assert!(replaced);
    assert_eq!(heap.retained, 0, "a rewrite in a sealed batch retained {} B", heap.retained);
    assert_eq!(engine.search(&features(64, 7)).ranked.len(), batch);
}
