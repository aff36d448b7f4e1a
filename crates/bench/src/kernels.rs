//! Kernel micro-benchmark report: packed/blocked GEMM vs the naive
//! baseline, fused vs unfused top-2, in f32 and f16, at the paper's
//! matching shapes (m ∈ {384, 768} reference features, n = 768 query
//! features, d = 128 descriptors, reference batches B ∈ {1, 8, 32}) — each
//! timed kernel measured once per available SIMD backend (scalar always,
//! plus avx2/avx512 where the host supports them).
//!
//! Unlike the Criterion benches this emits a machine-readable JSON file
//! (`BENCH_kernels.json`) with a stable schema, so CI can smoke-test the
//! kernels ([`check_simd_guard`], [`check_epilogue_guard`])
//! and the repo can track GFLOP/s over time. Inputs are seeded; every row
//! is one warm-up run followed by N timed runs, reported as min / median /
//! MAD, so the report is as deterministic as wall-clock measurement allows.
//!
//! **Roofline.** Each backend also gets a `peak` row: a register-only loop
//! of independent fused multiply-add chains
//! ([`texid_linalg::kernel::mul_add_probe`]) — the microkernel's one
//! instruction at the rate one core can retire it. Every row carries
//! `pct_of_peak`, its GFLOP/s over its backend's peak (the kernels run on
//! one thread: nothing is parallel inside a kernel call).

use std::hint::black_box;
use std::time::Instant;

use texid_linalg::dispatch::{available_backends, Backend};
use texid_linalg::gemm::gemm_at_b_naive;
use texid_linalg::kernel::{gemm_at_b, gemm_top2, mul_add_probe};
use texid_linalg::mat::Mat;
use texid_linalg::top2::top2_min_per_column;

/// Schema tag stamped into every report; bump on any layout change.
/// v2 added the per-entry `backend` column (SIMD dispatch rows); v3 the
/// per-backend `peak` rows and the `min_us` / `mad_us` / `pct_of_peak`
/// columns; v4 dropped the `flat` rows and made `peak` an FMA probe.
pub const SCHEMA: &str = "texid-kernel-bench/v4";

/// Seed for the generated feature matrices.
pub const SEED: u64 = 0x5eed_7e71;

/// One timed kernel × backend × shape measurement.
#[derive(Clone, Debug)]
pub struct BenchEntry {
    /// Kernel identity: `packed`, `naive`, `fused_top2`, `unfused_top2`, or
    /// `peak` (the backend's register-only fused multiply-add roofline; its
    /// shape columns are 0).
    pub kernel: &'static str,
    /// `f32` or `f16`.
    pub precision: &'static str,
    /// Kernel backend the row was measured on (`scalar`, `avx2`, `avx512`).
    /// The naive baseline has no SIMD path and always says `scalar`.
    pub backend: &'static str,
    /// Reference features per batch block.
    pub m: usize,
    /// Query features.
    pub n: usize,
    /// Descriptor dimension.
    pub d: usize,
    /// Reference blocks batched into one GEMM.
    pub batch: usize,
    /// Median wall time, microseconds.
    pub wall_us: f64,
    /// Fastest timed run, microseconds.
    pub min_us: f64,
    /// Median absolute deviation of the timed runs, microseconds.
    pub mad_us: f64,
    /// `2·(B·m)·n·d` FLOPs over the median wall time (a `peak` row: the
    /// probe's FLOPs over its *fastest* run — a roofline is an upper bound).
    pub gflops: f64,
    /// `gflops` as a percentage of this backend's `peak` row.
    pub pct_of_peak: f64,
}

/// A full benchmark run.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Input seed (fixed: [`SEED`]).
    pub seed: u64,
    /// Samples per measurement (median taken).
    pub median_of: usize,
    /// True when the reduced quick shape set was used.
    pub quick: bool,
    /// All measurements.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Serialize with a stable key order (hand-rolled: the workspace
    /// vendors no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"median_of\": {},\n", self.median_of));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"precision\": \"{}\", \"backend\": \"{}\", \
                 \"m\": {}, \"n\": {}, \"d\": {}, \"batch\": {}, \"wall_us\": {:.2}, \
                 \"min_us\": {:.2}, \"mad_us\": {:.2}, \"gflops\": {:.4}, \
                 \"pct_of_peak\": {:.1}}}{}\n",
                e.kernel,
                e.precision,
                e.backend,
                e.m,
                e.n,
                e.d,
                e.batch,
                e.wall_us,
                e.min_us,
                e.mad_us,
                e.gflops,
                e.pct_of_peak,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Structural validation of an emitted report: well-formed JSON, the exact
/// schema tag, and the full column set on every entry.
pub fn validate_json(json: &str) -> Result<(), String> {
    crate::validate_report(
        json,
        SCHEMA,
        &["seed", "median_of", "quick"],
        &[
            "kernel",
            "precision",
            "backend",
            "m",
            "n",
            "d",
            "batch",
            "wall_us",
            "min_us",
            "mad_us",
            "gflops",
            "pct_of_peak",
        ],
    )
}

/// SIMD dispatch guard: every non-scalar row must reach at least
/// `min_ratio ×` the matching scalar row's GFLOP/s (same kernel, precision,
/// and shape), and every non-scalar `fused_top2` row — the kernel a search
/// runs — `min_ratio ×` the same cell on the next measured backend of
/// [`Backend::ALL`]. With `min_ratio = 1.0` this asserts SIMD dispatch never
/// *loses* to scalar anywhere it was measured — the cheapest possible
/// "the intrinsics are actually wired up" smoke check — and that the
/// preference order dispatch follows is the measured order on this host: a
/// CPU where the wider tile loses fails the check instead of silently
/// serving slower. A report with no SIMD rows (scalar-only host, or a
/// forced-backend run) passes vacuously; a SIMD row without its scalar twin
/// is an error.
pub fn check_simd_guard(report: &BenchReport, min_ratio: f64) -> Result<(), String> {
    let twin = |e: &BenchEntry, backend: &str| {
        report.entries.iter().find(|s| {
            s.backend == backend
                && (s.kernel, s.precision) == (e.kernel, e.precision)
                && (s.m, s.n, s.d, s.batch) == (e.m, e.n, e.d, e.batch)
        })
    };
    for e in report.entries.iter().filter(|e| e.backend != "scalar") {
        let scalar = twin(e, "scalar").ok_or_else(|| {
            format!(
                "no scalar twin for {} {} m={} B={} ({})",
                e.kernel, e.precision, e.m, e.batch, e.backend
            )
        })?;
        let less_preferred = Backend::ALL.iter().skip_while(|b| b.name() != e.backend).skip(1);
        let next = less_preferred
            .filter(|_| e.kernel == "fused_top2")
            .find_map(|b| twin(e, b.name()));
        for floor in [Some(scalar), next].into_iter().flatten() {
            let ratio = e.gflops / floor.gflops;
            if ratio < min_ratio {
                return Err(format!(
                    "{} {} {} at m={} B={} reaches only {ratio:.2}x of {} \
                     ({:.2} vs {:.2} GFLOP/s, floor {min_ratio}x)",
                    e.backend, e.kernel, e.precision, e.m, e.batch, floor.backend, e.gflops,
                    floor.gflops
                ));
            }
        }
    }
    Ok(())
}

/// Epilogue guard: on every SIMD backend, at every measured cell, the fused
/// top-2 kernel must reach at least `min_ratio ×` the plain packed GEMM's
/// GFLOP/s (same backend, precision and shape). With `min_ratio = 0.85`
/// this bounds what the register-resident scan may cost at 15 % of the GEMM
/// it rides on. A report without SIMD rows passes vacuously.
pub fn check_epilogue_guard(report: &BenchReport, min_ratio: f64) -> Result<(), String> {
    let simd = |kernel: &'static str| {
        report.entries.iter().filter(move |e| e.backend != "scalar" && e.kernel == kernel)
    };
    for fused in simd("fused_top2") {
        let packed = simd("packed")
            .find(|p| {
                p.backend == fused.backend
                    && p.precision == fused.precision
                    && (p.m, p.n, p.d, p.batch) == (fused.m, fused.n, fused.d, fused.batch)
            })
            .ok_or_else(|| {
                format!(
                    "no {} packed twin for fused_top2 {} m={} B={}",
                    fused.backend, fused.precision, fused.m, fused.batch
                )
            })?;
        let ratio = fused.gflops / packed.gflops;
        if ratio < min_ratio {
            return Err(format!(
                "{} fused_top2 {} at m={} B={} reaches only {ratio:.2}x of packed \
                 ({:.2} vs {:.2} GFLOP/s, floor {min_ratio}x)",
                fused.backend, fused.precision, fused.m, fused.batch, fused.gflops, packed.gflops
            ));
        }
    }
    Ok(())
}

/// Seeded pseudo-random feature matrix (values in `[0, 0.1)`, the scale of
/// unit-norm RootSIFT descriptors).
fn feature_mat(d: usize, cols: usize, seed: u64) -> Mat {
    let mut state = seed | 1;
    Mat::from_fn(d, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 40) & 0xffff) as f32 / 65535.0 * 0.1
    })
}

/// Wall-time statistics of one row, µs.
struct Timing {
    min: f64,
    median: f64,
    mad: f64,
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    sorted[sorted.len() / 2]
}

/// `samples` timed runs after one warm-up run.
fn time_us<R>(samples: usize, mut f: impl FnMut() -> R) -> Timing {
    black_box(f());
    let mut runs: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    runs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = median_of_sorted(&runs);
    let mut dev: Vec<f64> = runs.iter().map(|r| (r - median).abs()).collect();
    dev.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    Timing { min: runs[0], median, mad: median_of_sorted(&dev) }
}

/// Rounds per roofline probe call (≈ 1 ms on a 3 GHz core).
const PEAK_ROUNDS: u64 = 1 << 20;

/// Run the kernel benchmarks at the paper's matching shapes, on every
/// backend available on this host.
///
/// `quick` keeps only the largest pair shape at batch 1 with median-of-3
/// timing (the CI smoke configuration); the full run sweeps
/// m ∈ {384, 768} × B ∈ {1, 8, 32} with median-of-5.
pub fn run(quick: bool) -> BenchReport {
    run_on(quick, &available_backends())
}

/// [`run`] restricted to an explicit backend set (the CLI's `--backend`
/// knob). Shapes and repetition counts are identical to [`run`].
pub fn run_on(quick: bool, backends: &[Backend]) -> BenchReport {
    if quick {
        run_custom(&[768], &[1], 768, 128, 3, true, backends)
    } else {
        run_custom(&[384, 768], &[1, 8, 32], 768, 128, 5, false, backends)
    }
}

/// [`run`] with explicit shapes and backends — lets tests exercise the
/// full measurement and serialization path in milliseconds, and lets the
/// CLI force a single backend.
pub fn run_custom(
    ms: &[usize],
    batches: &[usize],
    n: usize,
    d: usize,
    median_of: usize,
    quick: bool,
    backends: &[Backend],
) -> BenchReport {
    let mut entries = Vec::new();

    // Roofline first: one `peak` row per requested backend, plus scalar's
    // (the naive baseline is a scalar row whatever was requested).
    let mut peaks: Vec<(&'static str, f64)> = Vec::new();
    for &be in backends.iter().chain(&[Backend::Scalar]) {
        if peaks.iter().any(|(name, _)| *name == be.name()) {
            continue;
        }
        let mut flops = 0;
        let t = time_us(median_of, || {
            let (done, checksum) = mul_add_probe(be, PEAK_ROUNDS);
            flops = done;
            checksum
        });
        let gflops = flops as f64 / t.min / 1e3;
        peaks.push((be.name(), gflops));
        entries.push(BenchEntry {
            kernel: "peak",
            precision: "f32",
            backend: be.name(),
            m: 0,
            n: 0,
            d: 0,
            batch: 0,
            wall_us: t.median,
            min_us: t.min,
            mad_us: t.mad,
            gflops,
            pct_of_peak: 100.0,
        });
    }
    let peak_of = |be: &str| {
        peaks.iter().find(|(name, _)| *name == be).expect("peak measured above").1
    };

    let q = feature_mat(d, n, SEED ^ 0x9e37);
    let q16 = q.to_f16_scaled(0.0078125);

    for &m in ms {
        for &batch in batches {
            let r = feature_mat(d, batch * m, SEED.wrapping_add(m as u64));
            let r16 = r.to_f16_scaled(0.0078125);
            let flops = 2.0 * (batch * m) as f64 * n as f64 * d as f64;
            let mut push =
                |kernel: &'static str, precision: &'static str, be: &'static str, t: Timing| {
                    let gflops = flops / t.median / 1e3;
                    entries.push(BenchEntry {
                        kernel,
                        precision,
                        backend: be,
                        m,
                        n,
                        d,
                        batch,
                        wall_us: t.median,
                        min_us: t.min,
                        mad_us: t.mad,
                        gflops,
                        pct_of_peak: 100.0 * gflops / peak_of(be),
                    });
                };

            // The packed/blocked GEMM and its fused top-2 form, once per
            // requested backend (all bit-identical; only speed differs).
            for &be in backends {
                let name = be.name();
                push("packed", "f32", name, time_us(median_of, || {
                    gemm_at_b(be, -2.0, &r, &q)
                }));
                push("packed", "f16", name, time_us(median_of, || {
                    gemm_at_b(be, -2.0, &r16, &q16)
                }));
                push("fused_top2", "f32", name, time_us(median_of, || {
                    gemm_top2(be, -2.0, &r, &q, batch, m)
                }));
                push("fused_top2", "f16", name, time_us(median_of, || {
                    gemm_top2(be, -2.0, &r16, &q16, batch, m)
                }));
                push("unfused_top2", "f32", name, time_us(median_of, || {
                    top2_min_per_column(&gemm_at_b(be, -2.0, &r, &q), batch, m)
                }));
                push("unfused_top2", "f16", name, time_us(median_of, || {
                    top2_min_per_column(&gemm_at_b(be, -2.0, &r16, &q16), batch, m)
                }));
            }

            // The baseline is slow and has no SIMD path; only time it
            // unbatched, where one run is cheap.
            if batch == 1 {
                push("naive", "f32", "scalar", time_us(median_of, || {
                    gemm_at_b_naive(-2.0, &r, &q)
                }));
            }
        }
    }

    BenchReport { seed: SEED, median_of, quick, entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(
        kernel: &'static str,
        precision: &'static str,
        backend: &'static str,
        batch: usize,
        gflops: f64,
    ) -> BenchEntry {
        BenchEntry {
            kernel,
            precision,
            backend,
            m: 8,
            n: 8,
            d: 4,
            batch,
            wall_us: 10.0,
            min_us: 9.0,
            mad_us: 0.5,
            gflops,
            pct_of_peak: 50.0,
        }
    }

    fn tiny_report() -> BenchReport {
        BenchReport {
            seed: SEED,
            median_of: 1,
            quick: true,
            entries: vec![
                entry("packed", "f32", "scalar", 1, 1.0),
                entry("packed", "f16", "scalar", 1, 2.0),
            ],
        }
    }

    #[test]
    fn json_roundtrip_validates() {
        let json = tiny_report().to_json();
        validate_json(&json).expect("valid report");
    }

    #[test]
    fn validation_rejects_garbage() {
        assert!(validate_json("{").is_err());
        assert!(validate_json("{}").is_err());
        let truncated = tiny_report().to_json().replace("\"gflops\": 1.0000", "\"oops\": 1");
        assert!(validate_json(&truncated).is_err());
        let missing_backend = tiny_report().to_json().replacen("\"backend\"", "\"oops\"", 1);
        assert!(validate_json(&missing_backend).is_err(), "v2 requires backend on every entry");
    }

    #[test]
    fn simd_guard_compares_matching_cells() {
        let mut r = tiny_report();
        assert!(check_simd_guard(&r, 1.0).is_ok(), "no SIMD rows passes vacuously");
        r.entries.push(entry("packed", "f32", "avx2", 1, 4.0));
        assert!(check_simd_guard(&r, 1.0).is_ok());
        assert!(check_simd_guard(&r, 5.0).is_err(), "ratio is 4.0, floor 5.0 must fail");
        r.entries.push(entry("packed", "f32", "avx2", 2, 4.0));
        assert!(
            check_simd_guard(&r, 1.0).is_err(),
            "batch-2 SIMD row has no scalar twin: must be an error, not skipped"
        );
    }

    #[test]
    fn simd_guard_holds_fused_top2_to_the_preference_order() {
        let mut r = tiny_report();
        r.entries.push(entry("fused_top2", "f32", "scalar", 1, 1.0));
        r.entries.push(entry("fused_top2", "f32", "avx2", 1, 4.0));
        r.entries.push(entry("fused_top2", "f32", "avx512", 1, 6.0));
        assert!(check_simd_guard(&r, 1.0).is_ok());
        assert!(check_simd_guard(&r, 2.0).is_err(), "avx512 is 1.5x avx2, floor 2.0 must fail");
        r.entries.retain(|e| e.backend != "avx2");
        assert!(check_simd_guard(&r, 2.0).is_ok(), "the next *measured* backend is scalar: 6.0x");
        // Only the kernel a search runs is held to the order.
        r.entries.push(entry("packed", "f32", "avx2", 1, 4.0));
        r.entries.push(entry("packed", "f32", "avx512", 1, 3.0));
        assert!(check_simd_guard(&r, 1.0).is_ok());
    }

    #[test]
    fn epilogue_guard_compares_avx2_fused_to_packed() {
        let mut r = tiny_report();
        assert!(check_epilogue_guard(&r, 0.85).is_ok(), "no SIMD rows passes vacuously");
        r.entries.push(entry("packed", "f16", "avx2", 1, 10.0));
        r.entries.push(entry("fused_top2", "f16", "avx2", 1, 9.0));
        assert!(check_epilogue_guard(&r, 0.85).is_ok());
        assert!(check_epilogue_guard(&r, 0.95).is_err(), "ratio is 0.9, floor 0.95 must fail");
        r.entries.push(entry("packed", "f16", "avx512", 1, 20.0));
        r.entries.push(entry("fused_top2", "f16", "avx512", 1, 10.0));
        assert!(check_epilogue_guard(&r, 0.85).is_err(), "every SIMD backend: avx512 is 0.5x");
        r.entries.truncate(r.entries.len() - 2);
        r.entries.push(entry("fused_top2", "f32", "avx2", 1, 9.0));
        assert!(check_epilogue_guard(&r, 0.85).is_err(), "fused row without its packed twin");
    }
}
