//! Binaries for the `predllc` reproduction.
//!
//! The binaries regenerate the paper's figures:
//!
//! * `fig7` — observed vs. analytical WCL for SS/NSS/P one-set
//!   partitions (paper Fig. 7);
//! * `fig8` — execution time under fixed total capacity, shared vs.
//!   split (paper Fig. 8a-d);
//! * `headline` — the analytical WCL table and the "2048x" ratio claim;
//! * `ablation` — arbiter/replacement/sharer-count sweeps beyond the
//!   paper;
//! * `dram_sensitivity` — row-hit ratio × bank count × bank mapping;
//! * `explore` — design-space exploration from a JSON spec: grids with
//!   full latency percentiles plus the schedulability-driven partition
//!   search (see `predllc-explore`).
//!
//! The grid figures build an [`ExperimentSpec`](predllc_explore::ExperimentSpec)
//! in code and run it with [`predllc_explore::run_grid`] — the same grid
//! runner `explore`, `serve` and `fleet` use. This library holds only
//! what the binaries share on top of that: [`render`] (the figures'
//! table and CSV formats over `GridResult` rows), [`flags`] (the figure
//! binaries' flag parser), [`log`] and the [`monitor`] helpers of the
//! service smokes.
//!
//! `benches/microbench.rs` holds the (self-contained) microbenchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flags;
pub mod log;
pub mod monitor;
pub mod render;
