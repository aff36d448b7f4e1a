//! One-to-one verification: the claimed texture's stored block against the
//! query, its top-2 sweep shared between the calling thread and the idle
//! workers of the leg pool.

use super::{Cluster, ClusterError};
use crate::wire;
use texid_knn::geometry::{verify_matches, RansacParams};
use texid_knn::{good_matches, score_batch_packed, FeatureBlock, MatchConfig, RATIO_THRESHOLD};
use texid_linalg::kernel::NC;
use texid_linalg::{active_backend, Top2};
use texid_obs::TraceContext;
use texid_sift::descriptor::DESCRIPTOR_DIM;
use texid_sift::FeatureMatrix;

/// Outcome of a one-to-one verification (the paper's second task: "is
/// this photo the texture it claims to be?").
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Ratio-test survivors.
    pub good_matches: usize,
    /// RANSAC-consistent inliers.
    pub geometric_inliers: usize,
    /// Recovered similarity scale (≈ capture zoom).
    pub transform_scale: f32,
    /// Recovered rotation, radians.
    pub transform_rotation: f32,
    /// Final decision at the configured thresholds.
    pub accepted: bool,
}

impl Cluster {
    /// One-to-one verification: match `query` against the *claimed*
    /// texture only, with ratio test + RANSAC geometric verification
    /// (Fig. 2's full pipeline). `min_matches` and `min_inliers` are the
    /// §3.1 decision thresholds.
    ///
    /// The top-2 sweep is the query's columns in [`NC`]-wide chunks, run by
    /// this thread and by up to `workers − 1` help jobs on the leg pool,
    /// each chunk sequentially on the thread that claimed it. Every query
    /// column's top-2 is its own, so the report is the serial
    /// [`texid_knn::score_pair`] composition's, bit for bit, whoever ran
    /// which chunk. A stored block of fewer than two features is padded
    /// with zero columns to two, as the engine pads a short reference, and
    /// a match to a padding column is no match.
    ///
    /// # Errors
    /// `NotFound` if the claimed id is unknown; `Corrupt` on bad storage;
    /// `Dimension` unless the query is [`DESCRIPTOR_DIM`]-dimensional.
    pub fn verify(
        &self,
        claimed_id: u64,
        query: &FeatureMatrix,
        min_matches: usize,
        min_inliers: usize,
    ) -> Result<VerifyReport, ClusterError> {
        self.verify_traced(claimed_id, query, min_matches, min_inliers, None)
    }

    /// [`Cluster::verify`] under an optional trace context: when present,
    /// the sweep records one wall-clock `verify.sweep` span as its child —
    /// narrowing the query, packing the reference and the chunks' top-2 —
    /// tagged `chunks` and `helped` (the chunks a pool worker ran).
    ///
    /// # Errors
    /// As [`Cluster::verify`].
    pub fn verify_traced(
        &self,
        claimed_id: u64,
        query: &FeatureMatrix,
        min_matches: usize,
        min_inliers: usize,
        parent: Option<&TraceContext>,
    ) -> Result<VerifyReport, ClusterError> {
        if query.dim() != DESCRIPTOR_DIM {
            return Err(ClusterError::Dimension(query.dim()));
        }
        let reference = wire::decode_block(&self.stored(claimed_id)?)
            .ok()
            .filter(|stored| stored.block.rows() == DESCRIPTOR_DIM)
            .ok_or(ClusterError::Corrupt(claimed_id))?;
        let top2 = self.sweep(&self.cfg.engine.matching, reference.block, query, parent);
        let mut matches = good_matches(&top2, RATIO_THRESHOLD);
        matches.retain(|m| (m.ref_idx as usize) < reference.keypoints.len());
        let geo = verify_matches(
            &matches,
            &reference.keypoints,
            &query.keypoints,
            &RansacParams::default(),
        );
        Ok(VerifyReport {
            good_matches: matches.len(),
            geometric_inliers: geo.inlier_count(),
            transform_scale: geo.transform.scale(),
            transform_rotation: geo.transform.rotation(),
            accepted: matches.len() >= min_matches && geo.inlier_count() >= min_inliers,
        })
    }

    /// The pair's top-2, one entry per query column, under Algorithm 2 — the
    /// one a cluster runs (`Engine::new` refuses any other): the reference
    /// in storage precision (an older f32-form value narrowed here, once)
    /// and packed once, the query narrowed once, its chunks packed and
    /// scored on whichever thread claims them.
    fn sweep(
        &self,
        cfg: &MatchConfig,
        reference: FeatureBlock,
        query: &FeatureMatrix,
        parent: Option<&TraceContext>,
    ) -> Vec<Top2> {
        let span =
            parent.map(|p| self.ring.span(&p.child(), "verify.sweep").tag("track", "cluster"));
        let (cfg, be) = (*cfg, active_backend());
        let r = reference.into_precision(cfg.precision, cfg.scale);
        let (rp, m) = (r.fit_cols(r.cols().max(2)).pack_refs(be), r.cols().max(2));
        drop(r);
        let a = &query.mat;
        let q = FeatureBlock::encode(a.rows(), a.cols(), a.as_slice(), cfg.precision, cfg.scale);
        let (n, chunks) = (q.cols(), q.cols().div_ceil(NC));
        let (parts, helped) = self.pool.share_chunks(chunks, move |i| {
            let qp = q.pack_query_cols(be, i * NC..n.min((i + 1) * NC));
            score_batch_packed(&cfg, &rp, 1, m, &qp).top2
        });
        if let Some(span) = span {
            drop(span.tag("chunks", &chunks.to_string()).tag("helped", &helped.to_string()));
        }
        parts.concat()
    }
}
