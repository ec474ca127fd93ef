//! # predllc — predictable sharing of last-level cache partitions
//!
//! A Rust reproduction of Wu & Patel, *"Predictable Sharing of Last-level
//! Cache Partitions for Multi-core Safety-critical Systems"* (DAC 2022,
//! arXiv:2204.01679): a cycle-accurate multicore cache-hierarchy
//! simulator with TDM bus arbitration, shared/private LLC partitions, the
//! **set sequencer** micro-architecture, and the paper's worst-case
//! latency (WCL) analysis.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`model`] ([`predllc_model`]) — core vocabulary: addresses, cycles,
//!   cache geometry, memory operations.
//! * [`cache`] ([`predllc_cache`]) — set-associative caches, replacement
//!   policies, private L1/L2 hierarchies.
//! * [`dram`] ([`predllc_dram`]) — pluggable memory backends behind the
//!   LLC: the default fixed-latency model, the bank/row-buffer-aware
//!   [`BankedDram`], and the [`WorstCase`] adapter, all behind
//!   [`MemoryBackend`].
//! * [`bus`] ([`predllc_bus`]) — TDM schedules, 1S-TDM, slot distance,
//!   PRB/PWB buffers.
//! * [`sim`] ([`predllc_core`]) — partitions, the set sequencer, the LLC
//!   controller, the simulator and the WCL analysis.
//! * [`workload`] ([`predllc_workload`]) — the streaming [`Workload`]
//!   trait and deterministic synthetic generators.
//! * [`explore`] ([`predllc_explore`]) — design-space exploration: the
//!   work-stealing experiment [`Executor`], JSON experiment specs, and
//!   the schedulability-driven partition search.
//! * [`obs`] ([`predllc_obs`]) — zero-dependency observability: a
//!   metric registry with Prometheus text exposition (validator *and*
//!   parser), structured tracing with 128-bit trace IDs, log-bucketed
//!   wall-clock timing histograms, ring-buffered metric time-series
//!   with declarative SLO alerting, and a self-contained HTML
//!   dashboard, threaded through every layer above.
//! * [`serve`] ([`predllc_serve`]) — the multi-tenant experiment
//!   service: an HTTP/1.1 API over `std::net` with a content-addressed
//!   result cache, so the same spec is never simulated twice; with
//!   monitoring on it also serves `/v1/metrics/history`, `/v1/alerts`
//!   and `/dashboard`.
//! * [`fleet`] ([`predllc_fleet`]) — the distributed experiment fleet:
//!   a coordinator shards grid points across worker services with a
//!   shared point-level cache and worker-loss recovery, producing
//!   results bit-identical to an in-process run — and scrapes every
//!   worker's metrics into one fleet-wide registry.
//!
//! # Quickstart
//!
//! Workloads are **streams**: the engine pulls per-core operations on
//! demand through the [`Workload`] trait, so memory use is independent
//! of trace length. [`Simulator::run`] borrows the simulator, so one
//! validated configuration serves any number of runs.
//!
//! ```
//! use predllc::analysis::WclParams;
//! use predllc::{SharingMode, Simulator, SystemConfig, Workload};
//! use predllc::workload_gen::UniformGen;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Four cores share one 8-set x 4-way LLC partition, ordered by the
//! // set sequencer, on a 1S-TDM bus.
//! let config = SystemConfig::shared_partition(8, 4, 4, SharingMode::SetSequencer)?;
//!
//! // The analytical WCL bound for any request (Theorem 4.8).
//! let bound = WclParams::from_config(&config)?.wcl_set_sequencer();
//!
//! // Simulate the paper's uniform-random workload, streamed — no trace
//! // is ever materialized — and compare.
//! let workload = UniformGen::new(8192, 500).with_cores(4);
//! let sim = Simulator::new(config)?;
//! let report = sim.run(&workload)?;
//! assert!(report.max_request_latency() <= bound);
//!
//! // The simulator is reusable: replay the same workload, or stream a
//! // different one, without rebuilding anything.
//! let replay = sim.run(&workload)?;
//! assert_eq!(replay.stats, report.stats);
//!
//! // Materialized traces remain first-class (`Vec<Vec<MemOp>>` and
//! // `TraceSet` implement `Workload`), and are byte-identical to their
//! // streamed twins by construction.
//! let twin = sim.run(workload.materialize())?;
//! assert_eq!(twin.stats, report.stats);
//! println!("observed {} <= bound {}", report.max_request_latency(), bound);
//! # Ok(())
//! # }
//! ```
//!
//! ## Choosing a memory backend
//!
//! The LLC sits in front of a pluggable [`MemoryBackend`]. The default
//! is the paper's fixed 30-cycle DRAM; [`MemoryConfig`] selects the
//! bank/row-buffer-aware model (interleaved or bank-privatized per-core
//! mapping) or pins every access to the analytical worst case. The
//! builder rejects any backend whose worst-case access latency does not
//! fit the TDM slot — the system model's slot-budget invariant.
//!
//! ```
//! use predllc::{MemoryConfig, SharingMode, Simulator, SystemConfig, PartitionSpec, CoreId};
//! use predllc::workload_gen::UniformGen;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SystemConfig::builder(4)
//!     .partitions(vec![PartitionSpec::shared(
//!         8, 4,
//!         (0..4).map(CoreId::new).collect(),
//!         SharingMode::SetSequencer,
//!     )])
//!     .memory(MemoryConfig::bank_private()) // banked DRAM, per-core bank slices
//!     .build()?;
//! let report = Simulator::new(config)?.run(&UniformGen::new(8192, 500).with_cores(4))?;
//! assert!(report.stats.dram_row_hits + report.stats.dram_row_empties
//!     + report.stats.dram_row_conflicts > 0);
//! # Ok(())
//! # }
//! ```
//!
//! Migrating from the consuming `Simulator::run(self, Vec<Vec<MemOp>>)`
//! API? See `MIGRATION.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub use predllc_bus as bus;
pub use predllc_cache as cache;
pub use predllc_core as sim;
pub use predllc_dram as dram;
pub use predllc_explore as explore;
pub use predllc_fleet as fleet;
pub use predllc_model as model;
pub use predllc_obs as obs;
pub use predllc_serve as serve;
pub use predllc_workload as workload;

pub use predllc_bus::{ArbiterPolicy, ScheduleError, TdmSchedule};
pub use predllc_cache::ReplacementKind;
pub use predllc_core::analysis;
pub use predllc_core::{
    AttributionReport, Component, ComponentSet, ConfigError, EngineMode, Event, EventKind,
    EventLog, LatencyHistogram, LatencySummary, PartitionMap, PartitionSpec, RunReport,
    SharingMode, SimError, Simulator, SystemConfig, SystemConfigBuilder, WclWitness,
};
pub use predllc_dram::{
    BankMapping, BankedDram, DramTiming, FixedLatency, MemoryBackend, MemoryConfig, RowOutcome,
    WorstCase,
};
pub use predllc_explore::{Executor, ExperimentSpec, ExploreReport, Fingerprint};
pub use predllc_fleet::{Coordinator, CoordinatorConfig, FleetError};
pub use predllc_model::{
    AccessKind, Address, BankId, CacheGeometry, CoreId, Cycles, DramGeometry, LineAddr, MemOp,
    RowAddr, SlotWidth,
};
pub use predllc_serve::{Client, MonitorConfig, Server, ServerConfig, ServerHandle};
pub use predllc_workload::{MultiCore, OpStream, TraceSet, Workload, WorkloadSpec};

/// Re-export of the workload generators module for ergonomic paths in
/// examples (`predllc::workload_gen::UniformGen`).
pub use predllc_workload::gen as workload_gen;
