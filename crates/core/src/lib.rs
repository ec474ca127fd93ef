//! `predllc-core` — the primary contribution of Wu & Patel, *"Predictable
//! Sharing of Last-level Cache Partitions for Multi-core Safety-critical
//! Systems"* (DAC 2022): shared LLC partitions arbitrated by 1S-TDM, the
//! **set sequencer** micro-architectural extension, the cycle-accurate
//! multicore trace simulator the paper evaluates with, and the worst-case
//! latency (WCL) analysis of §4.
//!
//! # Architecture
//!
//! * [`partition`] — carving the LLC into shared/private `sets × ways`
//!   partitions and mapping cores onto them.
//! * [`sequencer`] — the set sequencer (QLT + SQ): a FIFO per contended
//!   set that preserves bus broadcast order of pending allocations (§4.5).
//! * `llc` — the inclusive shared-LLC controller (crate-private):
//!   hit/fill/eviction state machine with back-invalidations and
//!   multi-slot eviction completion, in front of a pluggable
//!   [`MemoryBackend`](predllc_dram::MemoryBackend) (fixed-latency by
//!   default; bank/row-buffer-aware via
//!   [`predllc_dram::BankedDram`]). **Slot-budget invariant:** the
//!   backend's analytical worst-case access latency must fit inside the
//!   TDM slot — [`SystemConfigBuilder`] rejects any backend that
//!   violates it, and [`analysis::SlotBudget`] exposes the check.
//! * `core_model` — one core's trace-driven execution: private cache
//!   hits, the single outstanding request, refills.
//! * [`engine`] — the slot-stepped simulator tying cores, TDM bus and LLC
//!   together.
//! * [`profile`] — opt-in sampled wall-clock profiling of the engine's
//!   stages (local advance / idle-jump / arbiter / LLC / DRAM), reading
//!   time without ever feeding it back into the simulation.
//! * [`analysis`] — Theorems 4.7/4.8, the private-partition bound, and
//!   boundedness classification of arbitrary TDM schedules (§4.1–4.2).
//! * [`stats`], [`events`] — measurement and inspectable event traces
//!   (used to replay Figures 2–4 of the paper in tests).
//!
//! # Quickstart
//!
//! The simulator runs anything implementing the streaming
//! [`Workload`](predllc_workload::Workload) trait — generators, trace
//! sets, or plain `Vec<Vec<MemOp>>` traces. `run` borrows the simulator,
//! so one validated instance serves many runs.
//!
//! ```
//! use predllc_core::analysis::WclParams;
//! use predllc_core::{SharingMode, Simulator, SystemConfig};
//! use predllc_model::{Address, MemOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Four cores sharing one 1-set x 16-way partition with a set
//! // sequencer, the paper's Fig. 7 "SS" configuration.
//! let config = SystemConfig::shared_partition(1, 16, 4, SharingMode::SetSequencer)?;
//!
//! // The analytical WCL for this configuration is 5000 cycles (paper §5).
//! let params = WclParams::from_config(&config)?;
//! assert_eq!(params.wcl_set_sequencer().as_u64(), 5000);
//!
//! // Validate once, then run as many workloads as you like: here a
//! // materialized trace per core (a `Vec<Vec<MemOp>>` is a `Workload`).
//! let sim = Simulator::new(config)?;
//! let traces = vec![
//!     vec![MemOp::read(Address::new(0))],
//!     vec![MemOp::read(Address::new(64))],
//!     vec![MemOp::read(Address::new(128))],
//!     vec![MemOp::read(Address::new(192))],
//! ];
//! let report = sim.run(&traces)?;
//! assert!(report.max_request_latency().as_u64() <= 5000);
//!
//! // The same simulator streams a generator next — no trace storage.
//! use predllc_workload::gen::UniformGen;
//! let gen = UniformGen::new(8192, 500).with_cores(4);
//! let streamed = sim.run(&gen)?;
//! assert!(streamed.max_request_latency().as_u64() <= 5000);
//!
//! // Swap the memory system: same platform over a bank/row-buffer-aware
//! // DRAM (paper-calibrated timing has the same 30-cycle worst case, so
//! // the slot budget — and the WCL bound — still hold).
//! use predllc_dram::MemoryConfig;
//! let banked = SystemConfig::builder(4)
//!     .partitions(vec![predllc_core::PartitionSpec::shared(
//!         1, 16,
//!         (0..4).map(predllc_model::CoreId::new).collect(),
//!         SharingMode::SetSequencer,
//!     )])
//!     .memory(MemoryConfig::banked())
//!     .build()?;
//! let report = Simulator::new(banked)?.run(&gen)?;
//! assert!(report.max_request_latency().as_u64() <= 5000);
//! assert!(report.stats.dram_row_hits + report.stats.dram_row_conflicts > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod analysis;
pub mod attribution;
pub mod config;
mod core_model;
pub mod engine;
pub mod error;
pub mod events;
pub mod histogram;
mod llc;
pub mod partition;
pub mod placement;
pub mod profile;
pub mod sequencer;
pub mod stats;

pub use attribution::{AttributionReport, Component, ComponentSet, WclWitness};
pub use config::{EngineMode, SystemConfig, SystemConfigBuilder};
pub use engine::{RunReport, Simulator};
pub use error::{ConfigError, SimError};
pub use events::{Event, EventKind, EventLog};
pub use histogram::{LatencyHistogram, LatencySummary};
pub use partition::{PartitionMap, PartitionSpec, SharingMode};
pub use placement::{pack, Placement, PlacementError};
/// Re-export of the memory-backend selection consumed by
/// [`SystemConfigBuilder::memory`].
pub use predllc_dram::MemoryConfig;
pub use profile::EngineProfile;
pub use sequencer::SetSequencer;
pub use stats::{CoreStats, SimStats};
