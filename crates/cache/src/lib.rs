//! Cache substrate for the `predllc` simulator: set-associative cache
//! structures, replacement policies, and the private per-core L1/L2
//! hierarchy. (The DRAM model lives in the `predllc-dram` crate.)
//!
//! The shared last-level cache itself lives in `predllc-core` because its
//! behaviour (partitioning, eviction state machine, set sequencer) *is* the
//! paper's contribution; this crate provides the conventional machinery the
//! LLC and the private levels are built from.
//!
//! The paper's analysis is explicitly agnostic of the replacement policy
//! ("we assume a replacement policy that can select any of the cache
//! lines", §4.3), so [`ReplacementKind`] selects among several policies,
//! all implemented inline by [`SetAssocCache`].
//!
//! # Examples
//!
//! ```
//! use predllc_cache::{ReplacementKind, SetAssocCache};
//! use predllc_model::{CacheGeometry, LineAddr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cache: SetAssocCache<()> =
//!     SetAssocCache::new(CacheGeometry::new(2, 2, 64)?, ReplacementKind::Lru);
//! assert!(cache.lookup(LineAddr::new(0)).is_none());
//! cache.fill(LineAddr::new(0), false, ());
//! assert!(cache.lookup(LineAddr::new(0)).is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod private;
pub mod replacement;
pub mod set_assoc;

pub use private::{BackInvalOutcome, PrivateHierarchy, PrivateLookup, RefillEffect};
pub use replacement::ReplacementKind;
pub use set_assoc::{Entry, SetAssocCache};
