//! Brute-force Hamming 2-NN matching for binary (ORB) descriptors.
//!
//! The counterpart of the float pipeline for the paper's third extractor
//! option: per-image 2-nearest-neighbours under Hamming distance with a
//! ratio test and an absolute distance gate (binary descriptors saturate
//! around 256 bits, so a nearest neighbour at distance ~128 is noise even
//! if its ratio looks good).
//!
//! There is no GEMM reformulation here — XOR/popcount does not ride
//! cuBLAS/tensor cores — which is the *hardware* half of the reason the
//! paper's system uses SIFT: only float descriptors benefit from the
//! co-optimizations of §4–§6.

use texid_linalg::Top2;
use texid_sift::orb::{hamming, BinaryFeatures, ORB_WORDS};

/// Hamming matching configuration.
#[derive(Clone, Copy, Debug)]
pub struct HammingConfig {
    /// Lowe-style ratio threshold on Hamming distances.
    pub ratio_threshold: f32,
    /// Absolute nearest-distance gate (bits).
    pub max_distance: u32,
}

impl Default for HammingConfig {
    fn default() -> Self {
        HammingConfig { ratio_threshold: 0.8, max_distance: 64 }
    }
}

/// One binary match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BinaryMatch {
    /// Query feature index.
    pub query_idx: u32,
    /// Matched reference feature index.
    pub ref_idx: u32,
    /// Nearest Hamming distance.
    pub d1: u32,
    /// Second-nearest Hamming distance.
    pub d2: u32,
}

/// Per-image 2-NN: for each query descriptor, scan all reference
/// descriptors keeping the two smallest distances (the register top-2 scan,
/// Hamming edition). Returns ratio-test + distance-gate survivors.
pub fn match_binary(
    reference: &BinaryFeatures,
    query: &BinaryFeatures,
    cfg: &HammingConfig,
) -> Vec<BinaryMatch> {
    if reference.len() < 2 || query.is_empty() {
        return Vec::new();
    }
    query
        .descriptors
        .iter()
        .enumerate()
        .filter_map(|(j, q)| {
            // Distances are integers ≤ 256, exact in f32, and there are at
            // least two of them, so both registers end up finite.
            let mut t = Top2::EMPTY;
            for (i, r) in reference.descriptors.iter().enumerate() {
                t.observe(i as u32, hamming(q, r) as f32);
            }
            let (idx, d1, d2) = (t.idx, t.d1 as u32, t.d2 as u32);
            let good = d1 <= cfg.max_distance
                && d2 > 0
                && (d1 as f32) < cfg.ratio_threshold * d2 as f32;
            good.then_some(BinaryMatch { query_idx: j as u32, ref_idx: idx, d1, d2 })
        })
        .collect()
}

/// Match-count score (the identification score, Hamming edition).
pub fn score_binary(reference: &BinaryFeatures, query: &BinaryFeatures, cfg: &HammingConfig) -> usize {
    match_binary(reference, query, cfg).len()
}

/// A descriptor that matches nothing (useful as a sentinel in tests).
pub const ZERO_DESCRIPTOR: [u32; ORB_WORDS] = [0; ORB_WORDS];

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use texid_image::{CaptureCondition, TextureGenerator};
    use texid_sift::orb::{extract_orb, OrbConfig};
    use texid_sift::Keypoint;

    fn kp() -> Keypoint {
        Keypoint {
            x: 0.0,
            y: 0.0,
            sigma: 1.0,
            orientation: 0.0,
            response: 1.0,
            octave: 0,
            interval: 0.0,
            oct_x: 0.0,
            oct_y: 0.0,
        }
    }

    fn features(descs: Vec<[u32; ORB_WORDS]>) -> BinaryFeatures {
        BinaryFeatures { keypoints: vec![kp(); descs.len()], descriptors: descs }
    }

    #[test]
    fn exact_match_with_distant_second_passes() {
        let target = [0xdead_beefu32; ORB_WORDS];
        let far = [!0xdead_beefu32; ORB_WORDS];
        let refs = features(vec![far, target]);
        let q = features(vec![target]);
        let m = match_binary(&refs, &q, &HammingConfig::default());
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].ref_idx, 1);
        assert_eq!(m[0].d1, 0);
        assert_eq!(m[0].d2, 256);
    }

    #[test]
    fn ambiguous_match_fails_ratio() {
        // Two references one bit apart: d1=0, d2=1 ⇒ ratio 0 < 0.8 passes…
        // so gate on the *similar* case d1=1, d2=1 instead.
        let a = ZERO_DESCRIPTOR;
        let mut b = ZERO_DESCRIPTOR;
        b[0] = 0b11;
        let mut q = ZERO_DESCRIPTOR;
        q[0] = 0b01; // distance 1 to both
        let refs = features(vec![a, b]);
        let query = features(vec![q]);
        assert!(match_binary(&refs, &query, &HammingConfig::default()).is_empty());
    }

    #[test]
    fn distance_gate_rejects_weak_nearest() {
        // Nearest at 120 bits: ratio may pass but the gate must not.
        let mut far = ZERO_DESCRIPTOR;
        for w in far.iter_mut().take(4) {
            *w = u32::MAX; // 128 bits set
        }
        let refs = features(vec![far, [u32::MAX; ORB_WORDS]]);
        let q = features(vec![ZERO_DESCRIPTOR]);
        assert!(match_binary(&refs, &q, &HammingConfig::default()).is_empty());
    }

    #[test]
    fn degenerate_inputs() {
        let one = features(vec![ZERO_DESCRIPTOR]);
        let none = features(vec![]);
        assert!(match_binary(&one, &one, &HammingConfig::default()).is_empty()); // <2 refs
        assert!(match_binary(&none, &one, &HammingConfig::default()).is_empty());
        assert!(match_binary(&one, &none, &HammingConfig::default()).is_empty());
    }

    #[test]
    fn orb_identifies_identical_texture() {
        // End-to-end sanity: the same image matches itself overwhelmingly;
        // a different texture matches barely.
        let gen = TextureGenerator::with_size(256);
        let cfg = OrbConfig { max_features: 384, ..Default::default() };
        let ref_a = extract_orb(&gen.generate(10), &cfg);
        let ref_b = extract_orb(&gen.generate(11), &cfg);
        let q = extract_orb(&gen.generate(10), &OrbConfig { max_features: 768, ..Default::default() });

        let h = HammingConfig::default();
        let genuine = score_binary(&ref_a, &q, &h);
        let impostor = score_binary(&ref_b, &q, &h);
        assert!(
            genuine >= 50 && genuine >= 5 * impostor.max(1),
            "ORB self-match failed: genuine {genuine}, impostor {impostor}"
        );
    }

    #[test]
    fn orb_survives_a_mild_recapture() {
        let gen = TextureGenerator::with_size(256);
        let cfg = OrbConfig { max_features: 384, ..Default::default() };
        let ref_a = extract_orb(&gen.generate(20), &cfg);
        let ref_b = extract_orb(&gen.generate(21), &cfg);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let q_img = CaptureCondition::mild(&mut rng).apply(&gen.generate(20), 0);
        let q = extract_orb(&q_img, &OrbConfig { max_features: 768, ..Default::default() });

        let h = HammingConfig::default();
        let genuine = score_binary(&ref_a, &q, &h);
        let impostor = score_binary(&ref_b, &q, &h);
        assert!(
            genuine > 2 * impostor.max(1),
            "ORB recapture match too weak: genuine {genuine}, impostor {impostor}"
        );
    }
}
