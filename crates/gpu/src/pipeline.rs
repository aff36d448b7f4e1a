//! Mechanistic multi-stream pipeline simulation.
//!
//! `texid_gpu::streams` reproduces Table 6 with a *closed-form* calibrated
//! serialization model. This module derives the same behaviour from
//! mechanism: a discrete-event simulation of `s` CPU threads, each driving
//! one CUDA stream through the per-chunk loop
//!
//! ```text
//! driver section (pinned-buffer lock) → H2D(batch) → HGEMM → top-2 scan
//!     → D2H(results) → CPU post
//! ```
//!
//! where the three device engines and the global driver lock are shared
//! across streams (the engine-reservation semantics of [`crate::GpuSim`]).
//!
//! A single constant-hold-time lock produces *flat-then-cliff* scaling
//! (perfect overlap until the lock saturates, then a hard bound at
//! `batch / driver_time`), whereas the paper's measured ladder
//! (52.5 % → 87.3 %) is gradual — contention on real driver locks grows
//! with the number of waiters. That is why the production engine uses the
//! calibrated closed-form model in [`crate::streams`]; this DES exposes the
//! mechanistic bounds (engine-limited vs lock-limited) that bracket it.

use crate::cost;
use crate::sim::GpuSim;
use crate::spec::{DeviceSpec, Precision};
use texid_obs::ChromeTrace;

/// One chunk's workload (a reference batch crossing PCIe and being matched).
#[derive(Clone, Copy, Debug)]
pub struct ChunkSpec {
    /// References per chunk.
    pub batch: usize,
    /// Features per reference.
    pub m: usize,
    /// Query features.
    pub n: usize,
    /// Descriptor dimension.
    pub d: usize,
    /// Storage precision.
    pub precision: Precision,
    /// Pinned host staging memory?
    pub pinned: bool,
}

impl ChunkSpec {
    /// Bytes of reference data crossing PCIe per chunk.
    pub fn h2d_bytes(&self) -> u64 {
        (self.batch * self.m * self.d * self.precision.bytes()) as u64
    }

    /// Result bytes returned per chunk.
    pub fn d2h_bytes(&self) -> u64 {
        (self.batch * self.n) as u64 * 16 // top-2 distances + indices
    }
}

/// Outcome of a pipeline simulation.
#[derive(Clone, Copy, Debug)]
pub struct PipelineStats {
    /// Total simulated time until the last chunk completes, µs.
    pub makespan_us: f64,
    /// Images (references) processed.
    pub images: usize,
    /// H2D engine busy time, µs.
    pub h2d_busy_us: f64,
    /// Compute engine busy time, µs.
    pub compute_busy_us: f64,
}

impl PipelineStats {
    /// Simulated throughput, images/s.
    pub fn images_per_second(&self) -> f64 {
        self.images as f64 / self.makespan_us * 1e6
    }
}

/// Serial duration of one chunk's device + host work (no overlap), µs.
pub fn chunk_serial_us(spec: &DeviceSpec, chunk: &ChunkSpec) -> f64 {
    let h2d = cost::h2d_duration_us(spec, chunk.h2d_bytes(), chunk.pinned);
    let gemm = cost::kernel_duration_us(spec, &crate::Kernel::Gemm {
        m_rows: chunk.batch * chunk.m,
        n_cols: chunk.n,
        k_depth: chunk.d,
        precision: chunk.precision,
        tensor_core: false,
    });
    let sort = cost::kernel_duration_us(spec, &crate::Kernel::Top2Scan {
        m_rows: chunk.m,
        n_cols: chunk.batch * chunk.n,
        precision: chunk.precision,
    });
    let d2h = cost::d2h_duration_us(spec, chunk.d2h_bytes());
    let post = cost::cpu_post_us(spec, chunk.batch);
    h2d + gemm + sort + d2h + post
}

/// Fixed sim-clock track layout for traced runs: the driver lock and the
/// three device engines come first (in schedule-contention order), then
/// one track per stream. See [`simulate_traced`].
struct TraceTracks {
    driver: u32,
    h2d: u32,
    compute: u32,
    d2h: u32,
    streams: Vec<u32>,
}

impl TraceTracks {
    fn new(trace: &mut ChromeTrace, n_streams: usize) -> TraceTracks {
        let pid = ChromeTrace::SIM_PID;
        TraceTracks {
            driver: trace.track(pid, "driver lock"),
            h2d: trace.track(pid, "engine: H2D"),
            compute: trace.track(pid, "engine: compute"),
            d2h: trace.track(pid, "engine: D2H"),
            streams: (0..n_streams).map(|s| trace.track(pid, &format!("stream {s}"))).collect(),
        }
    }

    /// Record one op both on its stream's track and (when the op occupies
    /// a shared device resource) on that resource's track, so per-stream
    /// progress and engine contention are both visible.
    fn record(
        &self,
        trace: &mut ChromeTrace,
        engine_tid: Option<u32>,
        stream: usize,
        name: &str,
        rec: &crate::OpRecord,
        chunk: usize,
    ) {
        let pid = ChromeTrace::SIM_PID;
        let args = [("chunk", chunk.to_string()), ("stream", stream.to_string())];
        if let Some(tid) = engine_tid {
            trace.add_complete((pid, tid), name, "engine", rec.start_us, rec.duration_us(), &args);
        }
        trace.add_complete(
            (pid, self.streams[stream]),
            name,
            "stream",
            rec.start_us,
            rec.duration_us(),
            &args,
        );
    }
}

/// Run the discrete-event pipeline: `n_chunks` chunks distributed
/// round-robin over `n_streams` streams, with per-chunk driver sections of
/// `driver_fraction · chunk_serial_time` holding the global lock.
pub fn simulate(
    spec: &DeviceSpec,
    chunk: &ChunkSpec,
    n_chunks: usize,
    n_streams: usize,
    driver_fraction: f64,
) -> PipelineStats {
    run(spec, chunk, n_chunks, n_streams, driver_fraction, None)
}

/// [`simulate`], additionally rendering the schedule as a Chrome
/// trace-event timeline: one sim-clock track per stream (the chunk's
/// journey through driver → H2D → HGEMM → top2 → D2H → post), plus one
/// track each for the driver lock and the three device engines, where
/// events are non-overlapping by construction (each engine is a serial
/// timeline). All timestamps are **sim-clock** microseconds; the trace
/// contains no wall-clock events. Write [`ChromeTrace::to_json`] to a
/// `.trace.json` and open it in Perfetto/`chrome://tracing`.
pub fn simulate_traced(
    spec: &DeviceSpec,
    chunk: &ChunkSpec,
    n_chunks: usize,
    n_streams: usize,
    driver_fraction: f64,
) -> (PipelineStats, ChromeTrace) {
    let mut trace = ChromeTrace::new();
    let stats = run(spec, chunk, n_chunks, n_streams, driver_fraction, Some(&mut trace));
    (stats, trace)
}

fn run(
    spec: &DeviceSpec,
    chunk: &ChunkSpec,
    n_chunks: usize,
    n_streams: usize,
    driver_fraction: f64,
    mut trace: Option<&mut ChromeTrace>,
) -> PipelineStats {
    assert!(n_streams >= 1, "need at least one stream");
    assert!((0.0..1.0).contains(&driver_fraction), "fraction in [0, 1)");
    let mut sim = GpuSim::new(spec.clone());
    let streams: Vec<_> = (0..n_streams).map(|_| sim.create_stream()).collect();
    let tracks = trace.as_deref_mut().map(|t| TraceTracks::new(t, n_streams));

    let serial = chunk_serial_us(spec, chunk);
    let driver_us = driver_fraction * serial;

    for c in 0..n_chunks {
        let s = c % n_streams;
        let st = streams[s];
        // The CPU thread takes the driver lock, then issues the chunk.
        let drv = sim.driver_section(st, driver_us);
        let h2d = sim.h2d(st, chunk.h2d_bytes(), chunk.pinned);
        let gemm = sim.launch(st, crate::Kernel::Gemm {
            m_rows: chunk.batch * chunk.m,
            n_cols: chunk.n,
            k_depth: chunk.d,
            precision: chunk.precision,
            tensor_core: false,
        });
        let top2 = sim.launch(st, crate::Kernel::Top2Scan {
            m_rows: chunk.m,
            n_cols: chunk.batch * chunk.n,
            precision: chunk.precision,
        });
        let d2h = sim.d2h(st, chunk.d2h_bytes());
        let post = sim.host_work(st, cost::cpu_post_us(spec, chunk.batch));

        if let (Some(t), Some(tk)) = (trace.as_deref_mut(), tracks.as_ref()) {
            if driver_us > 0.0 {
                tk.record(t, Some(tk.driver), s, "driver", &drv, c);
            }
            tk.record(t, Some(tk.h2d), s, "h2d", &h2d, c);
            tk.record(t, Some(tk.compute), s, "hgemm", &gemm, c);
            tk.record(t, Some(tk.compute), s, "top2", &top2, c);
            tk.record(t, Some(tk.d2h), s, "d2h", &d2h, c);
            tk.record(t, None, s, "post", &post, c);
        }
    }

    let makespan = sim.device_sync();
    let (h2d_busy, _, compute_busy) = sim.engine_busy_us();

    PipelineStats {
        makespan_us: makespan,
        images: n_chunks * chunk.batch,
        h2d_busy_us: h2d_busy,
        compute_busy_us: compute_busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams;

    fn paper_chunk(batch: usize) -> ChunkSpec {
        ChunkSpec { batch, m: 768, n: 768, d: 128, precision: Precision::F16, pinned: true }
    }

    #[test]
    fn single_stream_is_fully_serial() {
        let spec = DeviceSpec::tesla_p100();
        let chunk = paper_chunk(512);
        let stats = simulate(&spec, &chunk, 16, 1, 0.0);
        let expect = 16.0 * chunk_serial_us(&spec, &chunk);
        assert!((stats.makespan_us - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn streams_overlap_when_driver_is_free() {
        // Without driver serialization, the pipeline approaches the busiest
        // engine's bound.
        let spec = DeviceSpec::tesla_p100();
        let chunk = paper_chunk(512);
        let s1 = simulate(&spec, &chunk, 32, 1, 0.0);
        let s8 = simulate(&spec, &chunk, 32, 8, 0.0);
        assert!(s8.makespan_us < s1.makespan_us * 0.62, "{} vs {}", s8.makespan_us, s1.makespan_us);
        // Engine-bound: the H2D engine is nearly always busy.
        assert!(s8.h2d_busy_us / s8.makespan_us > 0.85);
    }

    #[test]
    fn driver_lock_bounds_saturated_throughput() {
        // With many streams, throughput is capped by the global lock:
        // one chunk cannot start issuing before the previous driver
        // section ends, so speed_∞ = batch / driver_time.
        let spec = DeviceSpec::tesla_p100();
        let chunk = paper_chunk(512);
        // Lock hold time must exceed the busiest engine's per-chunk time
        // (H2D, ~48 % of serial) for the lock to be the binding resource.
        let phi = 0.6;
        let serial = chunk_serial_us(&spec, &chunk);
        let driver = phi * serial;
        let stats = simulate(&spec, &chunk, 128, 16, phi);
        let cap = 512.0 / driver * 1e6;
        let speed = stats.images_per_second();
        assert!(speed <= cap * 1.001, "{speed} exceeds lock bound {cap}");
        assert!(speed >= cap * 0.90, "{speed} far below lock bound {cap}");
    }

    #[test]
    fn des_brackets_the_calibrated_model() {
        // The closed-form (Amdahl) throughput lies between the fully
        // serialized DES (driver = whole chunk) and the lock-free DES for
        // every stream count — the calibration is mechanically plausible.
        let spec = DeviceSpec::tesla_p100();
        let chunk = paper_chunk(512);
        let serial = chunk_serial_us(&spec, &chunk);
        for s in [2usize, 4, 8] {
            let lower = simulate(&spec, &chunk, 64, s, 0.999).images_per_second();
            let upper = simulate(&spec, &chunk, 64, s, 0.0).images_per_second();
            let model = streams::stream_throughput(&spec, serial / 512.0, s);
            assert!(
                lower * 0.95 <= model && model <= upper * 1.05,
                "streams {s}: model {model:.0} outside DES bracket [{lower:.0}, {upper:.0}]"
            );
        }
    }

    #[test]
    fn throughput_monotone_in_streams() {
        let spec = DeviceSpec::tesla_p100();
        let chunk = paper_chunk(256);
        let phi = spec.calib.stream_serial_fraction;
        let mut prev = 0.0;
        for s in [1usize, 2, 4, 8] {
            let speed = simulate(&spec, &chunk, 64, s, phi).images_per_second();
            assert!(speed >= prev, "streams {s}: {speed} < {prev}");
            prev = speed;
        }
        // And streams do help overall.
        let s1 = simulate(&spec, &chunk, 64, 1, phi).images_per_second();
        assert!(prev > s1 * 1.2);
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_events() {
        let spec = DeviceSpec::tesla_p100();
        let chunk = paper_chunk(256);
        let phi = spec.calib.stream_serial_fraction;
        let plain = simulate(&spec, &chunk, 16, 4, phi);
        let (traced, trace) = simulate_traced(&spec, &chunk, 16, 4, phi);
        assert_eq!(plain.makespan_us, traced.makespan_us, "tracing must not perturb the schedule");
        assert_eq!(plain.images, traced.images);
        // 6 phase events per chunk on stream tracks + 5 engine mirrors,
        // plus track/process metadata.
        assert!(trace.len() > 16 * 11, "only {} events", trace.len());
        let json = trace.to_json();
        assert!(json.contains("\"hgemm\""));
        assert!(json.contains("engine: H2D"));
        assert!(json.contains("driver lock"));
    }

    #[test]
    fn chunk_byte_accounting() {
        let c = paper_chunk(512);
        assert_eq!(c.h2d_bytes(), 512 * 768 * 128 * 2);
        assert_eq!(c.d2h_bytes(), 512 * 768 * 16);
    }
}
