//! `predllc-fleet` — the distributed experiment fleet: a coordinator
//! that shards an [`ExperimentSpec`]'s run groups across worker
//! processes over the in-tree HTTP stack, with a shared point-level
//! result cache and heartbeat-based worker-loss recovery.
//!
//! The service layer (`predllc-serve`) made experiments shared; this
//! crate makes them **distributed** without making them approximate:
//!
//! * the unit of work is one *run group* of
//!   [`plan_grid`](predllc_explore::plan_grid) — the same dedup and
//!   groups the in-process grid uses, so unique points that differ only
//!   in their memory backend and sharing mode travel together — shipped
//!   as planned as a [`PointRequest`](predllc_explore::PointRequest)
//!   (the first point's configuration plus the others' as twins) to any
//!   server's `POST /v1/points` endpoint, which checks that the twins
//!   share the first point's group and measures the group with one
//!   [`measure`](predllc_explore::measure) call. The coordinator never
//!   decides what may differ inside a group, and it accepts a reply
//!   only when it answers the shipped points, in order, by fingerprint;
//! * workers answer with **exact integers only** — histogram parts and
//!   raw DRAM counters — and every derived float is recomputed on the
//!   coordinator with the in-process arithmetic, so a fleet run is
//!   **bit-identical** to `predllc_explore::run_spec` for every fleet
//!   shape: 1 worker, 4 workers, or none (in-process);
//! * the groups are scheduled by the in-process grid's own scheduler,
//!   [`measure_runs`](predllc_explore::measure_runs), with one thread
//!   per live worker, and merged by its own
//!   [`grid_rows`](predllc_explore::grid_rows); a worker that stops
//!   answering (reset, refused, failed heartbeat) is marked lost and its
//!   group ships again on the next free worker — determinism is
//!   unaffected because point measurements are pure functions of the
//!   point;
//! * point results are cached at both ends, each point of a group under
//!   its own key (worker-side and coordinator-side, content-addressed
//!   by [`point_fingerprint`](predllc_explore::point_fingerprint)), so
//!   overlapping experiments and re-runs after a crash never
//!   re-simulate a point the fleet has already measured: a group ships
//!   only its uncached points.
//!
//! [`Coordinator::run`] is the one way to run a spec on the fleet: it
//! takes a progress observer and an optional trace context, like
//! `predllc_explore::run_spec_traced`, and returns the same
//! [`ExploreReport`]. The [`Coordinator`] implements
//! [`SpecRunner`](predllc_serve::SpecRunner) by forwarding to it, so a
//! coordinator can itself serve the full experiment API
//! (`Server::bind_with`): clients submit specs to one front door and
//! the fleet fans each one out.
//!
//! The coordinator is also the fleet's metrics aggregator:
//! [`Coordinator::start_metric_scrape`] periodically fetches each
//! worker's `/metrics`, parses it with
//! [`expo::parse`](predllc_obs::expo::parse) and re-exports every
//! counter and gauge series on the coordinator registry with a
//! `worker` label — so one scrape of the coordinator shows the whole
//! fleet, and a lost worker shows up as a frozen
//! `predllc_fleet_scrape_ok_ms{worker=..}` gauge (a visible gap, not
//! silence). [`default_fleet_rules`] adds a `worker-loss` SLO rule on
//! top of the serve defaults.
//!
//! # Examples
//!
//! ```
//! use predllc_fleet::{Coordinator, CoordinatorConfig};
//! use predllc_serve::{Metrics, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two in-process "workers" (normally separate machines).
//! let mut workers = Vec::new();
//! for _ in 0..2 {
//!     let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//!     workers.push(server.local_addr());
//!     let handle = server.handle();
//!     std::thread::spawn(move || server.run());
//!     # drop(handle);
//! }
//!
//! let spec = predllc_explore::ExperimentSpec::parse(r#"{
//!     "name": "fleet-doc", "cores": 2,
//!     "configs": [{"partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}}],
//!     "workloads": [{"kind": "uniform", "range_bytes": 1024, "ops": 50, "seed": 7}]
//! }"#)?;
//!
//! let coordinator = Coordinator::new(
//!     workers,
//!     CoordinatorConfig::default(),
//!     Arc::new(Metrics::default()),
//! );
//! let fleet = coordinator.run(&spec, &|_, _| {}, None)?;
//!
//! // Bit-identical to running the spec in-process.
//! let local = predllc_explore::run_spec(&spec, &predllc_explore::Executor::new(1))?;
//! assert_eq!(fleet.grid, local.grid);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod coordinator;

pub use coordinator::{
    default_fleet_rules, Coordinator, CoordinatorConfig, FleetError, ScrapeHandle,
};

// Re-exported so fleet users can build specs and read reports without
// naming the underlying crates separately.
pub use predllc_explore::{ExperimentSpec, ExploreReport};
