//! # ICPE — Real-time Co-Movement Pattern Detection on Streaming Trajectories
//!
//! A Rust reproduction of the VLDB 2019 paper *"Real-time Distributed
//! Co-Movement Pattern Detection on Streaming Trajectories"* (Chen, Gao, Fang,
//! Miao, Jensen, Guo — PVLDB 12(10)).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`types`] — the data model: GPS records, snapshots, time sequences and
//!   the `CP(M, K, L, G)` pattern constraints.
//! * [`index`] — the two-layer GR-index (global grid + local R-trees).
//! * [`runtime`] — a minimal pipelined stream-processing runtime standing in
//!   for Apache Flink.
//! * [`cluster`] — GR-index based range join + DBSCAN (RJC) and the SRJ / GDC
//!   comparison baselines.
//! * [`pattern`] — pattern enumeration: Baseline, FBA (fixed-length bit
//!   compression) and VBA (variable-length bit compression).
//! * [`gen`] — trajectory workload generators (Brinkhoff-style network
//!   movement, GeoLife/Taxi-like synthetics, planted co-movement groups).
//! * [`core`] — the assembled ICPE framework with its builder-style API:
//!   the synchronous [`core::IcpeEngine`] and the distributed
//!   [`core::IcpePipeline`] in batch ([`core::IcpePipeline::run`]) or live
//!   ([`core::IcpePipeline::launch`]) form.
//! * [`persist`] — durable checkpoints: atomic, CRC-verified,
//!   retention-bounded files holding the consistent pipeline snapshots
//!   taken by [`core::LivePipeline::checkpoint`], so a crashed or
//!   suspended deployment resumes via [`core::IcpePipeline::launch_from`]
//!   without losing open pattern windows.
//! * [`serve`] — the network edge: a TCP server ingesting newline-delimited
//!   GPS records (CSV `obj_id,time,x,y` or NDJSON) from many concurrent
//!   producers, stamping/validating them into the live pipeline, fanning
//!   detected patterns out to `SUBSCRIBE`d consumers (bounded queues,
//!   slow-consumer shedding), and answering `STATUS` with live counters.
//!   Ingest backpressure is end-to-end (bounded channels all the way to
//!   the socket); delivery never blocks on a slow reader. A `gen`-backed
//!   load generator ([`serve::loadgen`]) soak-tests the system against
//!   itself — see `examples/streaming_live.rs`.
//!
//! ## Quick start
//!
//! ```
//! use icpe::core::{IcpeConfig, IcpeEngine};
//! use icpe::gen::{GroupWalkConfig, GroupWalkGenerator};
//! use icpe::types::Constraints;
//!
//! // A tiny planted workload: 40 objects, some of which travel together.
//! let gen = GroupWalkGenerator::new(GroupWalkConfig {
//!     num_objects: 40,
//!     num_groups: 4,
//!     group_size: 5,
//!     num_snapshots: 30,
//!     seed: 7,
//!     ..GroupWalkConfig::default()
//! });
//! let snapshots = gen.snapshots();
//!
//! // CP(M=4, K=8, L=4, G=2) patterns, DBSCAN closeness.
//! let config = IcpeConfig::builder()
//!     .constraints(Constraints::new(4, 8, 4, 2).unwrap())
//!     .epsilon(2.5)
//!     .min_pts(4)
//!     .build()
//!     .unwrap();
//! let mut engine = IcpeEngine::new(config);
//! let mut patterns = Vec::new();
//! for snap in &snapshots {
//!     patterns.extend(engine.push_snapshot(snap.clone()));
//! }
//! patterns.extend(engine.finish());
//! assert!(!patterns.is_empty());
//! ```
//!
//! See `examples/` for larger end-to-end scenarios and `crates/bench` for the
//! harnesses that regenerate every figure and table of the paper.

pub use icpe_cluster as cluster;
pub use icpe_core as core;
pub use icpe_gen as gen;
pub use icpe_index as index;
pub use icpe_pattern as pattern;
pub use icpe_persist as persist;
pub use icpe_runtime as runtime;
pub use icpe_serve as serve;
pub use icpe_types as types;
