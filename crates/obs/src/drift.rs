//! Cost-model drift sentry: measured vs. analytic stage durations.
//!
//! The paper's scheduling argument (Eq. 3/4) holds only while the
//! analytic cost model keeps predicting what the device actually does.
//! The sentry tracks, per pipeline stage, an EWMA of the ratio
//! `measured / predicted` — where "predicted" is the unperturbed model
//! output for the exact query shape just served and "measured" is what
//! the shard actually took (including any straggle, stall, or backoff).
//! A healthy deployment sits at 1.0 on every stage. Both sides of the
//! ratio are sim-clock: "measured" is the shard report after the fault
//! layer has perturbed it (`SearchReport::perturbed`). So only injected
//! stage stalls, stragglers and retry backoff move
//! `texid_model_drift_ratio{stage}` away from 1.0; a kernel regression or a
//! miscalibrated `BENCH_kernels.json` baseline leaves it at 1.0. ROADMAP
//! item 5 (a host cost model fitted from `texid bench kernels`, against
//! measured wall time) is what would make the ratio host-meaningful.

use std::sync::Mutex;

use crate::metrics::{Counter, Gauge};
use crate::{Registry, Stage, STAGE_TOTAL};

/// EWMA smoothing factor: each new ratio contributes 20%, so a sustained
/// 2x slowdown crosses a 1.5x alert threshold within a handful of
/// queries while single outliers decay quickly.
pub const DRIFT_EWMA_ALPHA: f64 = 0.2;

/// Point-in-time view of one stage's drift, for `/stats`.
#[derive(Clone, Debug)]
pub struct DriftStatus {
    /// Pipeline stage name (`h2d`, `gemm`, `top2`, `d2h`, `post`, `total`).
    pub stage: String,
    /// EWMA of measured/predicted duration (1.0 = model is honest).
    pub ratio: f64,
    /// Observations folded into the EWMA so far.
    pub samples: u64,
}

struct StageDrift {
    stage: &'static str,
    /// `(ewma_ratio, initialized)` — the first sample seeds the EWMA.
    state: Mutex<(f64, bool)>,
    ratio: Gauge,
    samples: Counter,
}

/// Per-stage EWMA drift tracker.
pub struct DriftSentry {
    stages: Vec<StageDrift>,
}

/// The series the sentry tracks — and every other per-stage surface
/// reports: [`Stage::ALL`] in pipeline order, then [`STAGE_TOTAL`].
pub const DRIFT_STAGES: [&str; 6] = {
    let [h2d, gemm, top2, d2h, post] = Stage::ALL;
    [h2d.name(), gemm.name(), top2.name(), d2h.name(), post.name(), STAGE_TOTAL]
};

impl DriftSentry {
    /// Build a sentry tracking [`DRIFT_STAGES`], registering
    /// `texid_model_drift_ratio{stage}` gauges (initialized to 1.0, the
    /// no-drift baseline) and `texid_model_drift_samples_total{stage}`
    /// counters in `reg`.
    pub fn register(reg: &Registry) -> Self {
        let stages = DRIFT_STAGES
            .iter()
            .map(|&stage| {
                let ratio = reg.gauge(
                    "texid_model_drift_ratio",
                    "EWMA of measured/predicted stage duration; 1.0 means the Eq. 3/4 cost model is honest.",
                    &[("stage", stage)],
                );
                ratio.set(1.0);
                StageDrift {
                    stage,
                    state: Mutex::new((1.0, false)),
                    ratio,
                    samples: reg.counter(
                        "texid_model_drift_samples",
                        "Drift observations folded into the EWMA, by stage.",
                        &[("stage", stage)],
                    ),
                }
            })
            .collect();
        DriftSentry { stages }
    }

    /// Fold one query's `(measured, predicted)` durations per stage, in
    /// [`DRIFT_STAGES`] order. Stages whose prediction is non-positive
    /// (e.g. a zero-cost stage for this query shape) are skipped — a
    /// ratio against zero carries no signal.
    pub fn observe(&self, pairs: &[(f64, f64); 6]) {
        for (slot, &(measured, predicted)) in self.stages.iter().zip(pairs.iter()) {
            if predicted <= 0.0 || measured < 0.0 {
                continue;
            }
            let r = measured / predicted;
            let mut state = slot.state.lock().unwrap();
            if state.1 {
                state.0 += DRIFT_EWMA_ALPHA * (r - state.0);
            } else {
                *state = (r, true);
            }
            slot.ratio.set(state.0);
            slot.samples.inc();
        }
    }

    /// Snapshot every stage's current drift.
    pub fn status(&self) -> Vec<DriftStatus> {
        self.stages
            .iter()
            .map(|s| DriftStatus {
                stage: s.stage.to_string(),
                ratio: s.state.lock().unwrap().0,
                samples: s.samples.get(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_seeds_then_ewma_converges() {
        let s = DriftSentry::register(&Registry::new());
        // gemm measured at 2x its prediction, everything else honest.
        let pairs = [(10.0, 10.0), (40.0, 20.0), (5.0, 5.0), (3.0, 3.0), (2.0, 2.0), (60.0, 40.0)];
        s.observe(&pairs);
        let st = s.status();
        assert_eq!(st[1].stage, "gemm");
        assert_eq!(st[1].ratio, 2.0, "first sample seeds the EWMA directly");
        assert_eq!(st[0].ratio, 1.0);
        for _ in 0..20 {
            s.observe(&pairs);
        }
        let st = s.status();
        assert!((st[1].ratio - 2.0).abs() < 1e-6, "steady input converges: {}", st[1].ratio);
        assert_eq!(st[1].samples, 21);
    }

    #[test]
    fn zero_predictions_are_skipped() {
        let s = DriftSentry::register(&Registry::new());
        let pairs = [(10.0, 0.0); 6];
        s.observe(&pairs);
        for st in s.status() {
            assert_eq!(st.samples, 0, "{}: nothing folded", st.stage);
            assert_eq!(st.ratio, 1.0, "{}: gauge stays at baseline", st.stage);
        }
    }

    #[test]
    fn gauges_surface_the_ratio() {
        let reg = Registry::new();
        let s = DriftSentry::register(&reg);
        let text = reg.render_prometheus();
        assert!(text.contains("texid_model_drift_ratio{stage=\"gemm\"} 1"), "{text}");
        s.observe(&[(1.0, 1.0), (3.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        let text = reg.render_prometheus();
        assert!(text.contains("texid_model_drift_ratio{stage=\"gemm\"} 3"), "{text}");
        assert!(text.contains("texid_model_drift_samples_total{stage=\"gemm\"} 1"), "{text}");
    }
}
