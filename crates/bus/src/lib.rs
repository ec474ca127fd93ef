//! The shared TDM bus substrate: schedules, the 1S-TDM restriction, slot
//! *distance* (Definition 4.2 of the paper), per-core pending-request and
//! pending-write-back buffers, and the intra-slot arbiter between them.
//!
//! The paper's system model (§3) puts a time-division-multiplexed bus
//! between the private L2 caches and the shared LLC: equally sized slots,
//! each owned by one core; the LLC only answers a core within that core's
//! slot. §4.2 then restricts schedules to **1S-TDM** — exactly one slot per
//! core per period — because anything looser lets another core re-occupy a
//! freed LLC entry before the core under analysis gets back on the bus,
//! making the WCL unbounded (§4.1).
//!
//! # Examples
//!
//! ```
//! use predllc_bus::TdmSchedule;
//! use predllc_model::CoreId;
//!
//! # fn main() -> Result<(), predllc_bus::ScheduleError> {
//! let s = TdmSchedule::one_slot(4); // {c0, c1, c2, c3}
//! assert!(s.is_one_slot());
//! // Fig. 3 of the paper: with schedule {cua, c2, c3, c4},
//! // d_{c3}^{cua} = 2 and d_{c4}^{cua} = 1.
//! assert_eq!(s.distance(CoreId::new(2), CoreId::new(0))?, 2);
//! assert_eq!(s.distance(CoreId::new(3), CoreId::new(0))?, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod arbiter;
pub mod buffers;
pub mod schedule;

pub use arbiter::{ArbiterPolicy, BusGrant, SlotArbiter};
pub use buffers::{PendingRequest, Prb, Pwb, WbKind, WriteBack};
pub use schedule::{ScheduleError, TdmSchedule};
