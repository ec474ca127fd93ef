//! Shared vocabulary types for the `predllc` simulator and analysis crates.
//!
//! This crate defines the small, dependency-free types that every other
//! crate in the workspace speaks: core identifiers, cycle counts, byte and
//! cache-line addresses, cache geometry, memory operations, and the common
//! configuration error type.
//!
//! The types follow the system model of Wu & Patel, *"Predictable Sharing
//! of Last-level Cache Partitions for Multi-core Safety-critical Systems"*
//! (DAC 2022): a multicore with private L1/L2 caches per core, one shared
//! inclusive last-level cache, and a TDM-arbitrated bus between the private
//! L2s and the LLC.
//!
//! # Examples
//!
//! ```
//! use predllc_model::{Address, CacheGeometry, CoreId, Cycles};
//!
//! # fn main() -> Result<(), predllc_model::ModelError> {
//! let llc = CacheGeometry::new(32, 16, 64)?; // the paper's L3: 32 sets, 16 ways, 64 B lines
//! assert_eq!(llc.capacity_bytes(), 32 * 16 * 64);
//!
//! let addr = Address::new(0x1040);
//! assert_eq!(llc.set_index(addr.line()), 1); // line 0x41 maps to set 1 of 32
//!
//! let cua = CoreId::new(0);
//! let lat = Cycles::new(450);
//! assert_eq!(format!("{cua} waits {lat}"), "c0 waits 450 cycles");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod addr;
mod dram_geom;
mod error;
mod geometry;
mod ids;
mod mem;
mod time;

pub use addr::{Address, LineAddr};
pub use dram_geom::{BankId, DramGeometry, RowAddr};
pub use error::ModelError;
pub use geometry::CacheGeometry;
pub use ids::{CoreId, PartitionId, SetIdx, WayIdx};
pub use mem::{AccessKind, MemOp};
pub use time::{Cycles, SlotWidth};
