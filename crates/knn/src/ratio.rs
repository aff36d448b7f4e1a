//! Lowe's ratio test and match scoring.
//!
//! After the 2-nearest-neighbors step, a query feature is a *good match* to
//! its nearest reference feature iff `d1/d2 < threshold` (the paper uses the
//! classic 0.75). The number of good matches is the image-level similarity
//! score; identification declares two textures identical when the score
//! clears a preset threshold (§3.1).

use texid_linalg::Top2;

/// Lowe's ratio-test threshold every matcher applies: `d1/d2 <` this is a
/// good match (the classic 0.75 the paper uses).
pub const RATIO_THRESHOLD: f32 = 0.75;

/// One ratio-test-surviving correspondence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FeatureMatch {
    /// Index of the query feature (column of Q).
    pub query_idx: u32,
    /// Index of the matched reference feature (column of R).
    pub ref_idx: u32,
    /// Distance to the nearest reference feature.
    pub d1: f32,
    /// Distance to the second-nearest reference feature.
    pub d2: f32,
}

/// Apply the ratio test to per-query-feature top-2 results.
pub fn good_matches(top2: &[Top2], threshold: f32) -> Vec<FeatureMatch> {
    top2.iter()
        .enumerate()
        .filter_map(|(j, t)| {
            if t.d2 > 0.0 && t.d1 / t.d2 < threshold {
                Some(FeatureMatch { query_idx: j as u32, ref_idx: t.idx, d1: t.d1, d2: t.d2 })
            } else {
                None
            }
        })
        .collect()
}

/// Count without materializing (the hot scoring path).
pub fn count_good_matches(top2: &[Top2], threshold: f32) -> usize {
    top2.iter().filter(|t| t.d2 > 0.0 && t.d1 / t.d2 < threshold).count()
}

/// Identification decision: same texture iff the score clears `min_matches`.
pub fn is_same_texture(score: usize, min_matches: usize) -> bool {
    score >= min_matches
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(idx: u32, d1: f32, d2: f32) -> Top2 {
        Top2 { idx, d1, d2 }
    }

    #[test]
    fn ratio_filters_ambiguous_matches() {
        let tops = vec![
            t(3, 0.2, 1.0), // ratio 0.2: good
            t(5, 0.8, 1.0), // ratio 0.8: ambiguous
            t(7, 0.74, 1.0), // just under
            t(9, 0.75, 1.0), // exactly at threshold: rejected (strict <)
        ];
        let m = good_matches(&tops, 0.75);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].ref_idx, 3);
        assert_eq!(m[0].query_idx, 0);
        assert_eq!(m[1].ref_idx, 7);
        assert_eq!(m[1].query_idx, 2);
    }

    #[test]
    fn count_matches_list_length() {
        let tops: Vec<Top2> = (0..100)
            .map(|i| t(i, (i as f32) / 100.0, 1.0))
            .collect();
        assert_eq!(count_good_matches(&tops, 0.5), good_matches(&tops, 0.5).len());
        assert_eq!(count_good_matches(&tops, 0.5), 50);
    }

    #[test]
    fn zero_second_distance_rejected() {
        // d2 == 0 means duplicate features; the ratio is undefined and the
        // pair must not count as distinctive.
        let tops = vec![t(0, 0.0, 0.0)];
        assert_eq!(count_good_matches(&tops, 0.75), 0);
    }

    #[test]
    fn decision_threshold() {
        assert!(is_same_texture(12, 10));
        assert!(is_same_texture(10, 10));
        assert!(!is_same_texture(9, 10));
    }

    #[test]
    fn empty_input() {
        assert!(good_matches(&[], 0.75).is_empty());
        assert_eq!(count_good_matches(&[], 0.75), 0);
    }
}
