//! The simulated device: engines + CUDA-stream semantics.
//!
//! A [`GpuSim`] owns three hardware engines — H2D copy, D2H copy, compute —
//! each a serial timeline (one op at a time, like the DMA engines and the SM
//! array of a real card at kernel granularity). Streams impose ordering:
//! an op starts at `max(stream ready, engine ready)`. Ops submitted on
//! *different* streams therefore overlap whenever their engines are free,
//! which is exactly the copy/compute overlap the paper exploits in §6.2.
//!
//! Host-side work (the CPU post-processing stage) runs on per-stream host
//! lanes, modelling the paper's one-CPU-thread-per-stream design.

use crate::cost::{self, Kernel};
use crate::spec::DeviceSpec;
use std::collections::HashMap;

/// Identifier of a simulated CUDA stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamId(u32);

/// What kind of operation an [`OpRecord`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Host → device DMA.
    H2D,
    /// Device → host DMA.
    D2H,
    /// Kernel execution.
    Kernel,
    /// Host-side (CPU) work attributed to the stream's host thread.
    Host,
}

/// Completion record for one simulated operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpRecord {
    /// Operation class.
    pub kind: OpKind,
    /// Simulated start time, µs.
    pub start_us: f64,
    /// Simulated end time, µs.
    pub end_us: f64,
}

impl OpRecord {
    /// Duration in µs.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Default)]
struct Engine {
    ready_us: f64,
    busy_us: f64,
}

impl Engine {
    /// Reserve the engine for `dur` starting no earlier than `earliest`.
    fn reserve(&mut self, earliest: f64, dur: f64) -> (f64, f64) {
        let start = self.ready_us.max(earliest);
        let end = start + dur;
        self.ready_us = end;
        self.busy_us += dur;
        (start, end)
    }
}

/// A simulated GPU (one physical card).
///
/// ```
/// use texid_gpu::{GpuSim, DeviceSpec, Kernel, Precision};
///
/// let mut sim = GpuSim::new(DeviceSpec::tesla_p100());
/// let copy_stream = sim.create_stream();
/// let exec_stream = sim.create_stream();
///
/// // A copy on one stream overlaps a kernel on another (different engines)…
/// let copy = sim.h2d(copy_stream, 200 << 20, true);
/// let kern = sim.launch(exec_stream, Kernel::Gemm {
///     m_rows: 768 * 64, n_cols: 768, k_depth: 128,
///     precision: Precision::F16, tensor_core: false,
/// });
/// assert!(kern.start_us < copy.end_us);
///
/// // …while ops on the same stream serialize.
/// let d2h = sim.d2h(exec_stream, 1 << 20);
/// assert!(d2h.start_us >= kern.end_us);
/// ```
pub struct GpuSim {
    spec: DeviceSpec,
    h2d: Engine,
    d2h: Engine,
    compute: Engine,
    streams: HashMap<StreamId, f64>, // stream id -> ready time
    host_lanes: HashMap<StreamId, Engine>,
    next_stream: u32,
    default_stream: StreamId,
}

impl GpuSim {
    /// Bring up a device with idle engines and its default stream.
    pub fn new(spec: DeviceSpec) -> GpuSim {
        let mut sim = GpuSim {
            spec,
            h2d: Engine::default(),
            d2h: Engine::default(),
            compute: Engine::default(),
            streams: HashMap::new(),
            host_lanes: HashMap::new(),
            next_stream: 0,
            default_stream: StreamId(0),
        };
        let s = sim.create_stream();
        sim.default_stream = s;
        sim
    }

    /// Device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The default stream (created at startup).
    pub fn default_stream(&self) -> StreamId {
        self.default_stream
    }

    /// Create a new independent stream.
    pub fn create_stream(&mut self) -> StreamId {
        let id = StreamId(self.next_stream);
        self.next_stream += 1;
        self.streams.insert(id, 0.0);
        self.host_lanes.insert(id, Engine::default());
        id
    }

    // ---- timed operations ----

    fn stream_ready(&self, stream: StreamId) -> f64 {
        *self.streams.get(&stream).expect("unknown stream")
    }

    fn finish(&mut self, stream: StreamId, kind: OpKind, start: f64, end: f64) -> OpRecord {
        self.streams.insert(stream, end);
        OpRecord { kind, start_us: start, end_us: end }
    }

    /// Enqueue a host→device copy of `bytes` on `stream`.
    pub fn h2d(&mut self, stream: StreamId, bytes: u64, pinned: bool) -> OpRecord {
        let dur = cost::h2d_duration_us(&self.spec, bytes, pinned);
        let earliest = self.stream_ready(stream);
        let (start, end) = self.h2d.reserve(earliest, dur);
        self.finish(stream, OpKind::H2D, start, end)
    }

    /// Enqueue a device→host copy of `bytes` on `stream`.
    pub fn d2h(&mut self, stream: StreamId, bytes: u64) -> OpRecord {
        let dur = cost::d2h_duration_us(&self.spec, bytes);
        let earliest = self.stream_ready(stream);
        let (start, end) = self.d2h.reserve(earliest, dur);
        self.finish(stream, OpKind::D2H, start, end)
    }

    /// Enqueue a kernel on `stream`.
    pub fn launch(&mut self, stream: StreamId, kernel: Kernel) -> OpRecord {
        let dur = cost::kernel_duration_us(&self.spec, &kernel);
        let earliest = self.stream_ready(stream);
        let (start, end) = self.compute.reserve(earliest, dur);
        self.finish(stream, OpKind::Kernel, start, end)
    }

    /// Enqueue `dur_us` of host (CPU) work on the stream's host lane; the
    /// work starts only after everything previously enqueued on the stream.
    pub fn host_work(&mut self, stream: StreamId, dur_us: f64) -> OpRecord {
        let earliest = self.stream_ready(stream);
        let lane = self.host_lanes.get_mut(&stream).expect("unknown stream");
        let (start, end) = lane.reserve(earliest, dur_us);
        self.finish(stream, OpKind::Host, start, end)
    }

    /// Time at which the whole device (all streams/engines) goes idle, µs.
    pub fn device_sync(&self) -> f64 {
        self.streams
            .values()
            .cloned()
            .fold(0.0f64, f64::max)
            .max(self.h2d.ready_us)
            .max(self.d2h.ready_us)
            .max(self.compute.ready_us)
    }

    /// Busy time of each engine `(h2d, d2h, compute)`, µs — used for
    /// utilization reporting.
    pub fn engine_busy_us(&self) -> (f64, f64, f64) {
        (self.h2d.busy_us, self.d2h.busy_us, self.compute.busy_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Precision;

    fn p100() -> GpuSim {
        GpuSim::new(DeviceSpec::tesla_p100())
    }

    fn gemm(batch: usize) -> Kernel {
        Kernel::Gemm {
            m_rows: 768 * batch,
            n_cols: 768,
            k_depth: 128,
            precision: Precision::F16,
            tensor_core: false,
        }
    }

    #[test]
    fn same_stream_serializes() {
        let mut s = p100();
        let st = s.default_stream();
        let a = s.launch(st, gemm(1));
        let b = s.launch(st, gemm(1));
        assert!(b.start_us >= a.end_us);
    }

    #[test]
    fn different_streams_overlap_on_different_engines() {
        // Copy on stream A overlaps compute on stream B.
        let mut s = p100();
        let sa = s.create_stream();
        let sb = s.create_stream();
        let copy = s.h2d(sa, 200 * 1024 * 1024, true);
        let kern = s.launch(sb, gemm(64));
        assert!(kern.start_us < copy.end_us, "no overlap: {kern:?} vs {copy:?}");
    }

    #[test]
    fn same_engine_serializes_across_streams() {
        let mut s = p100();
        let sa = s.create_stream();
        let sb = s.create_stream();
        let a = s.launch(sa, gemm(8));
        let b = s.launch(sb, gemm(8));
        assert!(b.start_us >= a.end_us, "compute engine must serialize kernels");
    }

    #[test]
    fn stream_dependency_chains_engines() {
        // h2d → kernel → d2h on one stream must be strictly ordered even
        // though they run on three different engines.
        let mut s = p100();
        let st = s.create_stream();
        let c = s.h2d(st, 1 << 20, true);
        let k = s.launch(st, gemm(4));
        let d = s.d2h(st, 1 << 16);
        assert!(k.start_us >= c.end_us);
        assert!(d.start_us >= k.end_us);
        assert_eq!(s.device_sync(), d.end_us);
    }

    #[test]
    fn host_work_ordered_after_device_ops() {
        let mut s = p100();
        let st = s.create_stream();
        let d = s.d2h(st, 1 << 20);
        let h = s.host_work(st, 100.0);
        assert!(h.start_us >= d.end_us);
        assert_eq!(h.duration_us(), 100.0);
    }

    #[test]
    fn host_lanes_are_per_stream() {
        // CPU work on two streams runs concurrently (separate CPU threads).
        let mut s = p100();
        let sa = s.create_stream();
        let sb = s.create_stream();
        let a = s.host_work(sa, 50.0);
        let b = s.host_work(sb, 50.0);
        assert_eq!(a.start_us, 0.0);
        assert_eq!(b.start_us, 0.0);
    }

    #[test]
    fn device_sync_covers_all_streams() {
        let mut s = p100();
        let sa = s.create_stream();
        let sb = s.create_stream();
        s.launch(sa, gemm(4));
        let last = s.launch(sb, gemm(4));
        assert_eq!(s.device_sync(), last.end_us);
    }

    #[test]
    fn engine_busy_accounting() {
        let mut s = p100();
        let st = s.default_stream();
        let k = s.launch(st, gemm(1));
        let (h2d, d2h, comp) = s.engine_busy_us();
        assert_eq!(h2d, 0.0);
        assert_eq!(d2h, 0.0);
        assert!((comp - k.duration_us()).abs() < 1e-9);
    }
}
