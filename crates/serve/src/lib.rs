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
//! * `http` — the one HTTP/1.1 codec, for both ends: a line scanner
//!   that reads each byte once however a message trickles in, a request
//!   parser the reactor resumes per connection, and one function that
//!   frames every response (keep-alive, `Content-Length` and chunked
//!   framing, hard size limits set by [`Limits`]; no external
//!   dependencies, same offline constraint as the in-tree JSON codec).
//! * `handler` — the dispatch layer: a router of path patterns to
//!   handlers whose response bodies are either bytes or a pull-based
//!   stream rendered incrementally.
//! * `sys` — raw `epoll`/`eventfd` bindings that power the
//!   event-driven reactor serving thousands of keep-alive connections
//!   from a handful of threads, and the only module that knows the
//!   platform. The server is therefore Linux-only: elsewhere `sys`
//!   supplies stand-ins that cannot be constructed, the crate compiles
//!   unchanged, and [`Server::run`] returns
//!   [`std::io::ErrorKind::Unsupported`].
//! * [`registry`] — content-addressed jobs: a spec's identity is the
//!   canonical (key-order-insensitive) FNV-1a fingerprint of its parsed
//!   document, so duplicate submissions — including **concurrent**
//!   ones — coalesce onto one execution and later ones return the
//!   cached bytes instantly.
//! * [`server`] — the accept loop, the job runners feeding a pluggable
//!   [`SpecRunner`] (local executor or fleet coordinator; its one run
//!   method takes the job's progress observer and trace context) with
//!   per-job progress (grid points done / total), the point endpoints
//!   that make any server a fleet worker, and graceful shutdown that
//!   drains every accepted job.
//! * [`client`] — a small blocking client (submit / wait / fetch /
//!   point) with bounded transport retries, reading responses with
//!   `http`'s line scanner; used by the integration tests, the CI smoke
//!   and the fleet coordinator.
//!
//! # Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/experiments` | submit a spec; answers `202` with the id, or `200` on a cache hit |
//! | `GET /v1/experiments/{id}` | status + progress |
//! | `GET /v1/experiments/{id}?wait_ms=N` | the same, held until the job is done or failed or `N` ms (at most 30 s) pass |
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
#![warn(unreachable_pub)]

mod api;
pub mod client;
mod handler;
mod http;
mod reactor;
pub mod registry;
pub mod server;
mod sys;

pub use client::{Client, ClientError, Format, PointReply, ResultBody, Status, Submitted};
pub use registry::{Job, JobResult, JobStatus, Metrics};
pub use server::{
    default_rules, Limits, LocalRunner, MonitorConfig, PointCache, Server, ServerConfig,
    ServerHandle, SpecRunner, SERVER_TRACE_CAPACITY,
};
pub use sys::raise_nofile_limit;

// Re-exported so service users can build specs and reports without
// naming the explore crate separately.
pub use predllc_explore::ExperimentSpec;
