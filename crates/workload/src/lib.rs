//! Workloads for the `predllc` simulator: the streaming [`Workload`]
//! trait and deterministic synthetic generators.
//!
//! The paper's evaluation (§5) uses "synthetic workloads consisting of
//! memory requests to random addresses within various address ranges",
//! with **disjoint address ranges per core** (no shared data) and the
//! *same* address sequence reused across partition configurations so the
//! configurations are directly comparable. [`gen::UniformGen`] implements
//! exactly that; the other generators (stride, pointer-chase, hot/cold)
//! cover the access patterns real safety-critical tasks exhibit and are
//! used by the examples and the ablation experiments.
//!
//! Every workload source implements [`Workload`]: per-core [`MemOp`]
//! streams the engine pulls on demand, so simulating a million-op
//! generator needs no trace storage, and one workload value replays
//! identically across any number of runs. `Vec<Vec<MemOp>>` and
//! [`TraceSet`] implement the trait too, so materialized traces remain
//! first-class.
//!
//! All generators are deterministic given their seed.
//!
//! [`MemOp`]: predllc_model::MemOp
//!
//! # Examples
//!
//! ```
//! use predllc_model::CoreId;
//! use predllc_workload::gen::UniformGen;
//! use predllc_workload::Workload;
//!
//! let gen = UniformGen::new(4096, 100).with_seed(7).with_cores(4);
//! assert_eq!(gen.num_cores(), 4);
//! // Streaming: no trace is materialized.
//! assert_eq!(gen.core_ops(CoreId::new(0)).count(), 100);
//! // Disjoint ranges: core 1's addresses start 4096 bytes up.
//! assert!(gen.core_ops(CoreId::new(1)).all(|op| op.addr.as_u64() >= 4096));
//! // Determinism: replaying the stream yields the same operations, and
//! // the materialized twin is identical by construction.
//! let traces = gen.traces(4);
//! assert_eq!(gen.materialize(), traces);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod gen;
pub mod rng;
pub mod spec;
pub mod trace;
pub mod workload;

pub use spec::WorkloadSpec;
pub use trace::TraceSet;
pub use workload::{MultiCore, OpStream, Workload};
