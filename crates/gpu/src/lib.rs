//! # texid-gpu
//!
//! A **GPU simulator substrate** standing in for CUDA + cuBLAS on Tesla
//! P100/V100 hardware, which this reproduction does not have.
//!
//! Separation of concerns: numerical kernels execute *functionally* on the
//! host (see `texid-linalg` / `texid-knn`); this crate supplies everything
//! the paper's optimizations interact with on the hardware side —
//!
//! * **Device specs** ([`DeviceSpec`]): peak FLOPS per precision, tensor
//!   cores, memory capacity/bandwidth, PCIe bandwidth (pinned vs pageable).
//!   [`DeviceSpec::cache_budget`] is the one rule for the device bytes a
//!   reference cache may fill (16 GB less context overhead and reserve).
//! * **Engine timelines** ([`sim`]): H2D copy, D2H copy and compute engines
//!   with CUDA-stream ordering semantics; ops on different streams overlap
//!   when their engines are free. `knn::BatchWork::launch` enqueues a priced
//!   batch on them; nothing on the serving path or in a paper bench does.
//! * **Cost model** ([`cost`]): per-kernel analytic durations (roofline +
//!   occupancy saturation + launch/DMA latency) with constants calibrated
//!   against the paper's measured tables; see `cost.rs` for the anchor map.
//! * **Multi-stream throughput model** ([`streams`]): the calibrated
//!   closed-form serialization model reproducing Table 6's schedule
//!   efficiencies — the one §6.2 price the engine and the benches use.
//!
//! All simulated times are in microseconds (`f64`).

#![forbid(unsafe_code)]

pub mod cost;
pub mod sim;
pub mod spec;
pub mod streams;

pub use cost::Kernel;
pub use sim::{GpuSim, OpKind, OpRecord, StreamId};
pub use spec::{DeviceSpec, Precision};
