//! # texid-distrib
//!
//! The paper's §8 distributed texture search system, reproduced in-process:
//!
//! * **Cluster** ([`cluster`]): 14 GPU containers (one simulated Tesla P100
//!   each, 64 GB host cache, 4 GB device reserve), references sharded
//!   round-robin, queries scatter-gathered across all shards in parallel.
//! * **Feature store** ([`kv`]): the Redis stand-in — a thread-safe KV
//!   service holding serialized reference feature matrices, with per-value
//!   CRC32C checksums and, in a cluster, a durable write-ahead log +
//!   checksummed snapshots from `texid-store`, so
//!   [`cluster::Cluster::heal`] *replays* crashed shards from media
//!   instead of trusting whatever survived (DESIGN.md §12).
//! * **Wire format** ([`wire`]): protobuf-style varint/length-delimited
//!   serialization of feature matrices (the paper serializes with Google
//!   protobuf).
//! * **REST API** ([`http`], [`api`], [`json`], [`b64`]): a minimal
//!   HTTP/1.1 + JSON stack over `std::net` exposing add / delete / update /
//!   search / stats / health, like the paper's web-service containers.
//! * **Fault injection** ([`faults`]): a deterministic, seeded fault plan
//!   (shard crashes, stragglers, KV loss/corruption, transient errors)
//!   driving the cluster's degraded-mode scatter-gather, circuit breakers,
//!   and [`cluster::Cluster::heal`] supervisor.
//! * **Request tracing**: every REST request gets a 128-bit trace id
//!   (joined from the `X-Texid-Trace-Id` header or minted at the edge)
//!   that [`cluster::Cluster::search_traced`] propagates into each shard
//!   leg; the resulting span tree — request → cluster → legs → retries →
//!   sim-clock engine stages — is served at `GET /trace/{id}` and indexed
//!   at `GET /traces`. See OBSERVABILITY.md, "Tracing".

#![warn(clippy::too_many_lines)]

pub mod api;
pub mod b64;
pub mod cluster;
pub mod faults;
pub mod http;
pub mod json;
pub mod kv;
pub mod wire;

pub use cluster::{
    Cluster, ClusterConfig, ClusterError, ClusterSearchResult, ClusterStats, HealReport,
    Quarantine, QuarantineReason, RecoveryReport, ResilienceConfig, ShardHealth, ShardReplay,
    ShardStatus, StoreConfig,
};
pub use faults::{Backoff, FaultKind, FaultOp, FaultPlan, FaultProbs, OpClass, Stage};
pub use kv::KvStore;
