//! `predllc-dram` — pluggable memory backends behind the shared LLC.
//!
//! The paper's system model lets the LLC "interface with a DRAM
//! directly" and requires every miss fill to complete *within the
//! requester's TDM slot* (§3), which is why the seed simulator modelled
//! DRAM as one fixed 30-cycle charge. This crate keeps that model as the
//! default while opening the memory system up as a subsystem:
//!
//! * [`MemoryBackend`] — the narrow latency interface the LLC
//!   controller drives: one [`MemRequest`] in, one [`MemAccess`]
//!   (latency + bank + row outcome) out, plus the analytical
//!   [`worst_case_latency`](MemoryBackend::worst_case_latency) the
//!   slot-budget check and WCL analysis fold in.
//! * [`FixedLatency`] — bit-identical to the seed simulator's DRAM:
//!   every access costs the same, the worst case *is* the latency.
//! * [`BankedDram`] — channels × banks with open-row policy, the
//!   [`DramTiming`] parameter table (`tRCD/tRP/tCAS/tWR/tBUS`), per-bank
//!   state machines and write-recovery turnaround, under either an
//!   [interleaved](BankMapping::Interleaved) or a
//!   [bank-privatized per-core](BankMapping::BankPrivate) mapping.
//! * [`WorstCase`] — an adapter that answers every request with the
//!   wrapped backend's analytical worst case, for sound WCL experiments.
//! * [`MemoryConfig`] — the plain-data selection a system configuration
//!   carries; builds a fresh backend per run.
//!
//! # The slot-budget invariant
//!
//! Backends are only admissible when their worst-case access latency
//! fits inside the TDM slot (the configuration builder enforces this).
//! [`DramTiming::worst_case`] is constructed so that satisfying the
//! invariant also guarantees banks recover between slots, making the
//! bound sound for every access the slot-stepped engine can generate.
//!
//! # Examples
//!
//! ```
//! use predllc_dram::{BankedDram, BankMapping, DramTiming, MemRequest, MemoryBackend};
//! use predllc_model::{CoreId, Cycles, DramGeometry, LineAddr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dram = BankedDram::new(
//!     DramTiming::PAPER,
//!     DramGeometry::PAPER,
//!     BankMapping::BankPrivate,
//!     4,
//! )?;
//! let a = dram.access(MemRequest::fetch(LineAddr::new(0), CoreId::new(2), Cycles::ZERO));
//! assert!(a.latency <= dram.worst_case_latency());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod banked;
pub mod config;
pub mod error;
pub mod fixed;
pub mod mapping;
pub mod timing;
pub mod worst_case;

pub use backend::{MemAccess, MemRequest, MemStats, MemoryBackend, RowOutcome};
pub use banked::BankedDram;
pub use config::MemoryConfig;
pub use error::DramError;
pub use fixed::FixedLatency;
pub use mapping::BankMapping;
pub use timing::DramTiming;
pub use worst_case::WorstCase;
