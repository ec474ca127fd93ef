//! `predllc-explore` — design-space exploration for the predictable-LLC
//! platform: turn the WCL analysis, the response-time analysis and the
//! pluggable memory backends into an automated co-design tool.
//!
//! The paper's closing argument is that designers should "judiciously
//! share partitions with a subset of cores, and isolate others"
//! depending on each task's performance and real-time requirements.
//! Doing that by hand means running one configuration at a time and
//! eyeballing a single max-latency scalar. This crate automates the
//! loop:
//!
//! * [`Executor`] — a work-stealing job executor (`std::thread` +
//!   channels, no dependencies) that schedules a grid's engine runs
//!   across all cores with **deterministic declaration-order results**,
//!   bit-identical for every thread count.
//! * [`spec`] — the JSON experiment-spec layer: grids of partition
//!   geometries, sharing modes, TDM schedules, memory backends and
//!   workloads, parsed with positioned errors ([`ExperimentSpec`]).
//! * [`grid`] — runs every `(configuration × workload)` point and
//!   reports full latency distributions (p50/p90/p99/p100 from
//!   [`predllc_core::LatencyHistogram`]), not just the max. Points that
//!   differ only in their memory backend share one engine run, and the
//!   SS and NSS points of one platform share it too when no set
//!   sequencer queue ever held two requests.
//! * [`search`] — the schedulability-driven partition search: walk the
//!   `sets × ways` space via [`predllc_core::placement::pack`] and
//!   [`predllc_core::analysis::TaskSetAnalysis`] to find the minimal
//!   carve under which a taskset is schedulable.
//! * [`report`] — CSV and JSON renderers (the `BENCH_explore.json`
//!   artifact format).
//!
//! [`run_spec_traced`] runs a spec end to end — grid, then search —
//! with a progress observer and an optional trace context, and
//! [`run_spec`] is its plain form. Every layer above runs a spec through
//! one such entry point and hands back the same [`ExploreReport`]: the
//! service's `SpecRunner::run_spec` and the fleet's `Coordinator::run`.
//! The `explore` binary in `predllc-bench` drives all of this from a
//! spec file.
//!
//! # Examples
//!
//! ```
//! use predllc_explore::{run_spec, Executor, ExperimentSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = ExperimentSpec::parse(r#"{
//!     "name": "quick",
//!     "cores": 2,
//!     "configs": [
//!         {"partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}},
//!         {"partition": {"kind": "private", "sets": 4, "ways": 2}}
//!     ],
//!     "workloads": [
//!         {"kind": "uniform", "range_bytes": 2048, "ops": 100, "seed": 7}
//!     ],
//!     "tasks": [
//!         {"name": "control", "core": 0, "period": 1000000,
//!          "compute": 100000, "llc_requests": 500},
//!         {"name": "vision", "core": 1, "period": 1000000,
//!          "compute": 100000, "llc_requests": 500}
//!     ],
//!     "search": {"arrangements": ["SS", "private"], "max_sets": 8, "max_ways": 8}
//! }"#)?;
//! let report = run_spec(&spec, &Executor::new(2))?;
//! assert_eq!(report.grid.len(), 2);
//! // Every grid point's p100 is exactly its observed WCL.
//! assert!(report.grid.iter().all(|r| r.p99 <= r.observed_wcl));
//! // The search found a minimal schedulable carve.
//! assert!(report.search.unwrap().winner.is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::fmt;

pub mod attribution;
pub mod executor;
pub mod grid;
pub mod hash;
pub mod json;
pub mod point;
pub mod report;
pub mod search;
pub mod spec;

pub use attribution::{PointAttribution, PointGap};
pub use executor::Executor;
pub use grid::{
    build_platforms, grid_rows, measure_runs, plan_grid, unique_point_count, GridPlan, GridResult,
};
pub use hash::{canonical_fingerprint, point_fingerprint, Fingerprint, Fnv1a};
pub use point::{measure, PointError, PointMeasurement, PointRequest};
pub use search::{search_partitions, Candidate, CandidateVerdict, SearchOutcome};
pub use spec::{Arrangement, ConfigSpec, ExperimentSpec, SearchSpec, SpecError, WorkloadEntry};

use predllc_core::{ConfigError, SimError};

/// Any failure of a design-space exploration run.
#[derive(Debug, Clone, PartialEq)]
pub enum ExploreError {
    /// The spec file was malformed.
    Spec(SpecError),
    /// A declared configuration failed to build.
    Config {
        /// The configuration's label.
        label: String,
        /// The underlying validation failure.
        source: ConfigError,
    },
    /// A grid point failed to simulate.
    Sim {
        /// The configuration's label.
        config: String,
        /// The workload's label.
        workload: String,
        /// The underlying simulation failure.
        source: SimError,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Spec(e) => write!(f, "{e}"),
            ExploreError::Config { label, source } => {
                write!(f, "configuration '{label}' is invalid: {source}")
            }
            ExploreError::Sim {
                config,
                workload,
                source,
            } => write!(f, "grid point '{config}' x '{workload}' failed: {source}"),
        }
    }
}

impl std::error::Error for ExploreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExploreError::Spec(e) => Some(e),
            ExploreError::Config { source, .. } => Some(source),
            ExploreError::Sim { source, .. } => Some(source),
        }
    }
}

impl From<SpecError> for ExploreError {
    fn from(e: SpecError) -> Self {
        ExploreError::Spec(e)
    }
}

/// The full outcome of one spec run: the measured grid and, when the
/// spec declares a taskset + search block, the partition search. Every
/// runner — [`run_spec_traced`], a serve `SpecRunner`, a fleet
/// coordinator — returns this.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// One result per grid point, declaration order.
    pub grid: Vec<GridResult>,
    /// The search outcome, when the spec asked for one.
    pub search: Option<SearchOutcome>,
    /// Physically distinct grid points actually simulated (identical
    /// points are simulated once; see [`grid`]).
    pub unique_points: usize,
    /// Declared grid points (`configs × workloads`).
    pub total_points: usize,
}

/// [`run_spec_traced`] with no progress observer and no trace.
///
/// # Errors
///
/// As [`run_spec_traced`].
pub fn run_spec(spec: &ExperimentSpec, exec: &Executor) -> Result<ExploreReport, ExploreError> {
    run_spec_traced(spec, exec, &|_, _| {}, None)
}

/// Runs an experiment spec end to end on `exec`: every grid point (see
/// [`grid`] for the dedup and the run groups), then the
/// schedulability-driven search when the spec declares one.
///
/// `observe(done, unique_total)` is called once per unique grid point,
/// with every `done` from 1 to `unique_total` exactly once: a group's
/// points count when the group completes (from worker threads, possibly
/// concurrently) — the hook a long-running service reports per-job
/// progress through.
///
/// Under `ctx` (when given) each run group records one `explore.point`
/// span: its `point` field is the group's first unique point, `members`
/// counts the unique points the group measures (the spans' `members`
/// sum to the unique point count), `runs` the engine runs it took (1 or
/// 2), `queue_wait_ns` is the wall-clock delay between the grid starting
/// and a worker claiming the group, and its duration is the group's
/// compute time. Tracing reads the clock and nothing else — the report
/// is bit-identical with or without it.
///
/// # Errors
///
/// [`ExploreError::Config`] for a configuration that fails to build
/// (reported before any simulation starts), [`ExploreError::Sim`] for
/// the first failing unique grid point in declaration order, and
/// [`search_partitions`] failures.
pub fn run_spec_traced(
    spec: &ExperimentSpec,
    exec: &Executor,
    observe: &(dyn Fn(usize, usize) + Sync),
    ctx: Option<predllc_obs::TraceCtx<'_>>,
) -> Result<ExploreReport, ExploreError> {
    let mut report = grid::run(spec, exec, observe, ctx)?;
    if let Some(s) = &spec.search {
        report.search = Some(search_partitions(s, spec.cores, &spec.tasks, exec)?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_and_display() {
        fn assert_good<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<ExploreError>();
        let e = ExploreError::Sim {
            config: "SS".into(),
            workload: "u".into(),
            source: SimError::CoreCountMismatch {
                workload_cores: 1,
                system_cores: 2,
            },
        };
        assert!(e.to_string().contains("SS") && e.to_string().contains("u"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
