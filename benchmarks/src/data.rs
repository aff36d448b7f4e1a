//! Benchmark inputs. Everything the server receives is made here, from the
//! `--seed` argument; the program under test never generates its own input.
//!
//! Reference extraction costs ≈ 0.22 s of CPU per 256 px texture, 15 s for
//! the gallery on a 2-core host — more than a whole run may take. So the
//! gallery of [`N_REFS`] reference textures is a *fixed corpus* (its own
//! constant seed), extracted once per checkout on all cores and cached
//! under `benchmarks/.cache/`. What `--seed` decides is everything that is
//! cheap to redo per run: the capture condition and noise of every query
//! (re-extracted each run), the enrollment order (hence shard placement
//! and IVF training sets), impostor claims, and the arrival schedules.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Instant;
use texid_distrib::{b64, wire};
use texid_image::{CaptureCondition, TextureGenerator};
use texid_sift::{extract, FeatureMatrix, SiftConfig};

/// Reference textures in the gallery.
pub const N_REFS: usize = 128;
/// Re-captured queries per run; query `i` re-images texture
/// `(i · 37) mod N_REFS`, so ground truth is known.
pub const N_QUERIES: usize = 32;

/// Everything reference generation depends on. The cache key is a hash of
/// this struct's `Debug` text, so adding a field changes every key.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusParams {
    /// Bumped when the cache file layout changes.
    pub format: u32,
    pub corpus_seed: u64,
    pub n_refs: usize,
    pub image_size: usize,
    /// Features kept per reference (the paper's m).
    pub m_ref: usize,
}

impl Default for CorpusParams {
    fn default() -> Self {
        CorpusParams {
            format: 1,
            corpus_seed: 0x7e71d,
            n_refs: N_REFS,
            image_size: 256,
            m_ref: 384,
        }
    }
}

impl CorpusParams {
    /// FNV-1a of the `Debug` rendering.
    pub fn cache_key(&self) -> u64 {
        format!("{self:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
    }

    fn generator(&self) -> TextureGenerator {
        TextureGenerator {
            dataset_seed: self.corpus_seed,
            ..TextureGenerator::with_size(self.image_size)
        }
    }

    fn cache_path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".cache")
            .join(format!("corpus-{:016x}.bin", self.cache_key()))
    }
}

/// Features per query (the paper's n).
pub const N_QUERY_FEATURES: usize = 768;

/// One re-captured query.
pub struct Query {
    pub features: FeatureMatrix,
    /// Texture (= enrolled id) this query re-images.
    pub truth: u64,
    /// Id claimed by this query's `/verify` request: `truth` for even
    /// query indices, a seeded other id for odd ones.
    pub claim: u64,
}

/// The inputs of one run.
pub struct Dataset {
    /// Reference features; index = texture = enrolled id.
    pub refs: Vec<FeatureMatrix>,
    pub queries: Vec<Query>,
    /// Seeded permutation of `0..N_REFS`: the order set-up enrolls in.
    pub enroll_order: Vec<usize>,
    /// Textures no query re-images, in seeded order: the ids
    /// `enroll_beside_search` rewrites. `Cluster::update_texture` is delete
    /// and re-add, so a search racing the gap would miss a queried id; the
    /// benchmark checks answers, it does not probe that race.
    pub unqueried: Vec<usize>,
    /// Wall seconds spent making this dataset (not part of `setup_s`).
    pub datagen_s: f64,
    /// Mean client-side cost of one query's capture + extraction.
    pub extract_query_ms: f64,
}

/// Client-side costs of making one reference, timed on demand.
pub struct RefCost {
    pub generate_ms: f64,
    pub extract_ms: f64,
}

fn write_corpus(path: &std::path::Path, refs: &[FeatureMatrix]) -> std::io::Result<()> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(refs.len() as u64).to_le_bytes());
    for r in refs {
        let w = wire::encode_features(r);
        bytes.extend_from_slice(&(w.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&w);
    }
    std::fs::create_dir_all(path.parent().expect("cache file has a parent"))?;
    // Write-then-rename: a killed run never leaves a half-written corpus
    // under the final name.
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

fn read_corpus(path: &std::path::Path, n_refs: usize) -> Option<Vec<FeatureMatrix>> {
    let bytes = std::fs::read(path).ok()?;
    let mut pos = 0usize;
    let next_u64 = |pos: &mut usize| -> Option<u64> {
        let s = bytes.get(*pos..pos.checked_add(8)?)?;
        *pos += 8;
        Some(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    };
    if next_u64(&mut pos)? != n_refs as u64 {
        return None;
    }
    let mut refs = Vec::with_capacity(n_refs);
    for _ in 0..n_refs {
        let len = usize::try_from(next_u64(&mut pos)?).ok()?;
        let w = bytes.get(pos..pos.checked_add(len)?)?;
        pos += len;
        refs.push(wire::decode_features(w).ok()?);
    }
    (pos == bytes.len()).then_some(refs)
}

/// Worker threads datagen uses: every core the process may run on.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `(0..n).map(f)` on [`threads`] scoped threads, results in index order.
/// (The workspace's vendored `rayon` stand-in is sequential.)
fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads().min(n.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("datagen worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, v)| v).collect()
}

/// Load the reference corpus from the cache, or extract it on all cores and
/// cache it. An unreadable or mismatching cache file is regenerated.
pub fn corpus(params: &CorpusParams) -> Vec<FeatureMatrix> {
    let path = params.cache_path();
    if let Some(refs) = read_corpus(&path, params.n_refs) {
        return refs;
    }
    let started = Instant::now();
    let gen = params.generator();
    let cfg = SiftConfig::reference(params.m_ref);
    let refs = par_map(params.n_refs, |t| extract(&gen.generate(t as u64), &cfg));
    if let Err(e) = write_corpus(&path, &refs) {
        eprintln!("bench: corpus not cached at {}: {e}", path.display());
    }
    eprintln!(
        "bench: extracted {} reference textures in {:.1} s -> {}",
        refs.len(),
        started.elapsed().as_secs_f64(),
        path.display()
    );
    refs
}

/// Time one reference generation + extraction (the traced run reports the
/// client-side cost even when the corpus came from the cache).
pub fn time_one_reference(params: &CorpusParams) -> RefCost {
    let gen = params.generator();
    let t = Instant::now();
    let image = gen.generate(0);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    std::hint::black_box(extract(&image, &SiftConfig::reference(params.m_ref)));
    RefCost {
        generate_ms,
        extract_ms: t.elapsed().as_secs_f64() * 1e3,
    }
}

/// Fisher–Yates with the run's generator.
fn shuffled(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// Build the run's inputs from `seed`.
pub fn dataset(params: &CorpusParams, seed: u64) -> Dataset {
    let started = Instant::now();
    let refs = corpus(params);
    let gen = params.generator();
    let n_refs = params.n_refs as u64;

    let extract_started = Instant::now();
    let query_cfg = SiftConfig::query(N_QUERY_FEATURES);
    let features = par_map(N_QUERIES, |i| {
        let qi = i as u64;
        let mut rng = SmallRng::seed_from_u64(seed ^ qi.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let cond = CaptureCondition::moderate(&mut rng);
        extract(
            &cond.apply(&gen.generate(qi * 37 % n_refs), seed ^ qi),
            &query_cfg,
        )
    });
    // Mean CPU cost per query: wall × threads / queries.
    let extract_query_ms =
        extract_started.elapsed().as_secs_f64() * 1e3 * threads().min(N_QUERIES) as f64
            / N_QUERIES as f64;

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x00c1_a135);
    let queries: Vec<Query> = features
        .into_iter()
        .enumerate()
        .map(|(i, features)| {
            let truth = i as u64 * 37 % n_refs;
            let claim = if i % 2 == 0 {
                truth
            } else {
                (truth + rng.gen_range(1..n_refs)) % n_refs
            };
            Query {
                features,
                truth,
                claim,
            }
        })
        .collect();
    let enroll_order = shuffled(params.n_refs, &mut rng);
    let unqueried: Vec<usize> = shuffled(params.n_refs, &mut rng)
        .into_iter()
        .filter(|&t| queries.iter().all(|q| q.truth != t as u64))
        .collect();

    Dataset {
        refs,
        queries,
        enroll_order,
        unqueried,
        datagen_s: started.elapsed().as_secs_f64(),
        extract_query_ms,
    }
}

/// Base64 of the wire encoding — the `"features"` value of every request.
pub fn features_b64(f: &FeatureMatrix) -> String {
    b64::encode(&wire::encode_features(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_changes_with_every_generation_parameter() {
        let base = CorpusParams::default();
        let variants = [
            CorpusParams {
                format: base.format + 1,
                ..base.clone()
            },
            CorpusParams {
                corpus_seed: base.corpus_seed + 1,
                ..base.clone()
            },
            CorpusParams {
                n_refs: base.n_refs + 1,
                ..base.clone()
            },
            CorpusParams {
                image_size: base.image_size + 1,
                ..base.clone()
            },
            CorpusParams {
                m_ref: base.m_ref + 1,
                ..base.clone()
            },
        ];
        // Exhaustive destructuring: a new field fails to compile here until
        // it gets its own variant above.
        let CorpusParams {
            format: _,
            corpus_seed: _,
            n_refs: _,
            image_size: _,
            m_ref: _,
        } = base.clone();
        assert_eq!(base.cache_key(), CorpusParams::default().cache_key());
        let mut keys: Vec<u64> = variants.iter().map(CorpusParams::cache_key).collect();
        keys.push(base.cache_key());
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len(),
            variants.len() + 1,
            "two parameter sets share a cache key"
        );
    }

    #[test]
    fn corpus_file_round_trips_and_rejects_damage() {
        let params = CorpusParams {
            n_refs: 2,
            image_size: 64,
            m_ref: 32,
            ..CorpusParams::default()
        };
        let gen = params.generator();
        let refs: Vec<FeatureMatrix> = (0..2)
            .map(|t| extract(&gen.generate(t), &SiftConfig::reference(32)))
            .collect();
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".cache")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("corpus.bin");
        write_corpus(&path, &refs).unwrap();
        let back = read_corpus(&path, 2).expect("round trip");
        assert_eq!(back[1].mat, refs[1].mat);
        assert_eq!(back[0].keypoints.len(), refs[0].keypoints.len());
        assert!(
            read_corpus(&path, 3).is_none(),
            "count mismatch must regenerate"
        );
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 5);
        std::fs::write(&path, bytes).unwrap();
        assert!(
            read_corpus(&path, 2).is_none(),
            "truncated file must regenerate"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
