//! `predllc-serve` — the multi-tenant experiment service: the
//! design-space exploration engine behind a long-running HTTP API with a
//! content-addressed result cache.
//!
//! The exploration layer (`predllc-explore`) made experiments
//! declarative (JSON [`ExperimentSpec`]s) and parallel (the
//! work-stealing `Executor`); this crate makes them **shared**. Any
//! number of clients submit specs to one service; because simulation is
//! a deterministic pure function of the spec, the service never runs
//! the same experiment twice:
//!
//! * [`http`] — a bounded HTTP/1.1 request/response layer (keep-alive,
//!   `Content-Length` and chunked framing, hard size limits; no
//!   external dependencies, same offline constraint as the in-tree
//!   JSON codec).
//! * [`handler`] — the dispatch API: a [`Router`] of path patterns to
//!   [`Handler`]s returning [`Response`]s whose bodies are either
//!   bytes or a pull-based [`BodyStream`] rendered incrementally.
//! * [`sys`] (Linux) — raw `epoll`/`eventfd` bindings that power the
//!   event-driven reactor serving thousands of keep-alive connections
//!   from a handful of threads; other platforms use a
//!   thread-per-connection fallback.
//! * [`registry`] — content-addressed jobs: a spec's identity is the
//!   canonical (key-order-insensitive) FNV-1a fingerprint of its parsed
//!   document, so duplicate submissions — including **concurrent**
//!   ones — coalesce onto one execution and later ones return the
//!   cached bytes instantly.
//! * [`server`] — the accept loop, the job runners feeding a pluggable
//!   [`SpecRunner`] (local executor or fleet coordinator) with per-job
//!   progress (grid points done / total), the point endpoints that make
//!   any server a fleet worker, and graceful shutdown that drains every
//!   accepted job.
//! * [`client`] — a small blocking client (submit / poll / fetch /
//!   point) with bounded transport retries, used by the integration
//!   tests, the CI smoke and the fleet coordinator.
//!
//! # Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/experiments` | submit a spec; answers `202` with the id, or `200` on a cache hit |
//! | `GET /v1/experiments/{id}` | status + progress |
//! | `GET /v1/experiments/{id}/results?format=csv\|json` | the cached rendered result |
//! | `POST /v1/points` | simulate one grid point (fleet work unit); `422` positions build/sim failures |
//! | `GET /v1/points/{fingerprint}` | a point measurement already in this server's cache |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | plain-text counters (jobs, cache hits/misses, points, fleet workers) |
//! | `GET /v1/metrics/history?window=..&step=..` | collected time-series as JSON (needs [`ServerConfig::monitor`]) |
//! | `GET /v1/alerts` | SLO rule states with since-timestamps (needs [`ServerConfig::monitor`]) |
//! | `GET /dashboard` | self-contained HTML dashboard, inline-SVG sparklines (needs [`ServerConfig::monitor`]) |
//!
//! # Examples
//!
//! ```
//! use predllc_serve::{Client, Server, ServerConfig};
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let handle = server.handle();
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::new(handle.addr());
//! let submitted = client.submit(r#"{
//!     "name": "quick", "cores": 2,
//!     "configs": [{"partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}}],
//!     "workloads": [{"kind": "uniform", "range_bytes": 1024, "ops": 50, "seed": 7}]
//! }"#)?;
//! let status = client.wait_done(&submitted.id, Duration::from_secs(60))?;
//! assert_eq!(status.status, "done");
//! let csv = client.results(&submitted.id, predllc_serve::Format::Csv)?.text()?;
//! assert!(csv.starts_with("config,workload,backend,"));
//!
//! // Submitting the same experiment again — any formatting, any key
//! // order — is a cache hit: no second simulation.
//! assert!(client.submit(r#"{
//!     "cores": 2, "name": "quick",
//!     "workloads": [{"ops": 50, "seed": 7, "kind": "uniform", "range_bytes": 1024}],
//!     "configs": [{"partition": {"mode": "SS", "kind": "shared", "ways": 4, "sets": 1}}]
//! }"#)?.cached);
//!
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

// `sys` needs raw syscalls; everything else stays safe, enforced
// per-module (`deny` here, a scoped `allow` inside `sys`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod api;
pub mod client;
pub mod handler;
pub mod http;
#[cfg(target_os = "linux")]
mod reactor;
pub mod registry;
pub mod server;
#[cfg(target_os = "linux")]
pub mod sys;

pub use client::{Client, ClientError, Format, PointReply, ResultBody, Status, Submitted};
pub use handler::{Dispatch, Handler, Router};
pub use http::{Body, BodyStream, Limits, Request, Response};
pub use registry::{Job, JobResult, JobStatus, Metrics, MetricsSnapshot, Registry, SubmitError};
pub use server::{
    default_rules, LocalRunner, MonitorConfig, RunOutcome, Server, ServerConfig, ServerHandle,
    SpecRunner,
};

// Re-exported so service users can build specs and reports without
// naming the explore crate separately.
pub use predllc_explore::ExperimentSpec;
