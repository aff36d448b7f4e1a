//! Pack-once equivalence. The engine packs each reference into its batch's
//! panels as it arrives (and keeps nothing else of it) and each query once
//! per search; this suite pins that a search over those
//! pre-packed operands equals `match_batch` on the unpacked blocks —
//! rankings against a `match_batch` replay of the engine's batching, every
//! `SearchReport` f64 bit against an unfused engine (same panels,
//! GEMM-then-scan) — through partial-batch flushes, ids added twice (the
//! engine keeps both entries; the cluster's update instead overwrites an id
//! in its slot, `Engine::replace_encoded`) and an export → import rebuild.

use texid_core::{Engine, EngineConfig};
use texid_gpu::{DeviceSpec, GpuSim, Precision};
use texid_knn::{match_batch, FeatureBlock, MatchConfig};
use texid_linalg::Mat;
use texid_sift::FeatureMatrix;

const M_REF: usize = 40; // five AVX2 panels, ten scalar ones
const DIM: usize = 32;

fn unit_features(cols: usize, seed: u64) -> FeatureMatrix {
    let mut state = seed | 1;
    let mut m = Mat::from_fn(DIM, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) & 0xffff) as f32 / 65535.0 + 1e-4
    });
    for c in 0..cols {
        let norm: f32 = m.col(c).iter().map(|v| v * v).sum::<f32>().sqrt();
        for v in m.col_mut(c) {
            *v /= norm;
        }
    }
    FeatureMatrix::from_mat(m, true)
}

fn config(precision: Precision, fused: bool, batch_size: usize) -> EngineConfig {
    EngineConfig {
        matching: MatchConfig { precision, fused, ..MatchConfig::default() },
        m_ref: M_REF,
        n_query: 70,
        batch_size,
        streams: 1,
        ..EngineConfig::default()
    }
}

/// The engine's batching replayed on plain `FeatureBlock`s: same seal
/// points, `match_batch` on the unpacked concatenation.
struct Mirror {
    matching: MatchConfig,
    batch_size: usize,
    pending: Vec<(u64, FeatureBlock)>,
    sealed: Vec<(Vec<u64>, FeatureBlock)>,
}

impl Mirror {
    fn new(cfg: &EngineConfig) -> Mirror {
        Mirror {
            matching: cfg.matching,
            batch_size: cfg.batch_size,
            pending: Vec::new(),
            sealed: Vec::new(),
        }
    }

    fn add(&mut self, id: u64, f: &FeatureMatrix) {
        let block =
            FeatureBlock::from_mat(f.mat.clone(), self.matching.precision, self.matching.scale);
        self.pending.push((id, block));
        if self.pending.len() == self.batch_size {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let ids = self.pending.iter().map(|(id, _)| *id).collect();
        let blocks: Vec<&FeatureBlock> = self.pending.iter().map(|(_, b)| b).collect();
        self.sealed.push((ids, FeatureBlock::hconcat(&blocks)));
        self.pending.clear();
    }

    fn search(&self, q: &FeatureMatrix) -> Vec<(u64, usize)> {
        let qb =
            FeatureBlock::from_mat(q.mat.clone(), self.matching.precision, self.matching.scale);
        let mut sim = GpuSim::new(DeviceSpec::tesla_p100());
        let st = sim.default_stream();
        let mut ranked = Vec::new();
        for (ids, block) in &self.sealed {
            let out = match_batch(&self.matching, block, ids.len(), M_REF, &qb, &mut sim, st);
            ranked.extend(ids.iter().copied().zip(out.scores));
        }
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }
}

/// A fused engine, its unfused twin, and the mirror.
struct Trio {
    packed: Engine,
    unfused: Engine,
    mirror: Mirror,
}

impl Trio {
    fn new(precision: Precision, batch_size: usize) -> Trio {
        let cfg = config(precision, true, batch_size);
        Trio {
            mirror: Mirror::new(&cfg),
            packed: Engine::new(cfg),
            unfused: Engine::new(config(precision, false, batch_size)),
        }
    }

    fn add(&mut self, id: u64, f: &FeatureMatrix) {
        self.packed.add_reference(id, f).expect("capacity");
        self.unfused.add_reference(id, f).expect("capacity");
        self.mirror.add(id, f);
    }

    fn flush(&mut self) {
        self.packed.flush().expect("flush");
        self.unfused.flush().expect("flush");
        self.mirror.flush();
    }

    fn assert_equivalent(&self, what: &str) {
        for qseed in [900u64, 901, 2] {
            let q = unit_features(70, qseed);
            let got = self.packed.search(&q);
            let twin = self.unfused.search(&q);
            assert_eq!(got.ranked, self.mirror.search(&q), "{what}: ranking vs match_batch");
            assert_eq!(got.ranked, twin.ranked, "{what}: ranking vs unfused engine");
            // `{:?}` prints every f64 round-trip exactly, so equal strings
            // are equal bits, field by field.
            assert_eq!(
                format!("{:?}", got.report),
                format!("{:?}", twin.report),
                "{what}: SearchReport"
            );
        }
    }
}

#[test]
fn prepacked_search_equals_match_batch_on_unpacked_blocks() {
    for precision in [Precision::F16, Precision::F32] {
        let mut t = Trio::new(precision, 3);
        for id in 0..7u64 {
            t.add(id, &unit_features(M_REF, id));
        }
        t.flush(); // seals a partial batch of one
        t.assert_equivalent("after partial-batch flush");

        // An id added twice: the engine does not dedupe, so the second
        // entry lands in a later batch and the first stays in the sweep.
        t.add(2, &unit_features(M_REF, 1002));
        t.add(5, &unit_features(M_REF, 1005));
        t.flush();
        t.assert_equivalent("after re-adds");

        // Export → import rebuilds every pack through the same seal path,
        // here at another batch size.
        let snapshot = t.packed.export_references();
        let mut rebuilt = Trio::new(precision, 2);
        for (id, mat) in &snapshot {
            rebuilt.mirror.add(*id, &FeatureMatrix::from_mat(mat.clone(), true));
        }
        rebuilt.mirror.flush();
        for engine in [&mut rebuilt.packed, &mut rebuilt.unfused] {
            for (id, mat) in &snapshot {
                engine.add_reference(*id, &FeatureMatrix::from_mat(mat.clone(), true)).expect("import");
            }
            engine.flush().expect("import");
        }
        rebuilt.assert_equivalent("after export/import");
    }
}
