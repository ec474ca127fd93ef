//! # predllc-obs — zero-dependency observability for the predllc stack
//!
//! Three small, composable pieces, threaded through every layer of the
//! workspace (engine, executor, experiment service, fleet):
//!
//! * [`metrics`] — a metric **registry** of counters, gauges and
//!   log-bucketed timing histograms, rendered in the Prometheus text
//!   exposition format (`text/plain; version=0.0.4`). Its log-linear
//!   HDR-style bucket layout (8 sub-buckets per power-of-two octave,
//!   [`metrics::bucket_index`]) is the one `predllc_core`'s
//!   `LatencyHistogram` uses too, here over wall-clock nanoseconds
//!   instead of simulated cycles.
//! * [`trace`] — structured tracing: [`TraceEvent`] records with span
//!   begin/end, collected into per-thread bounded ring buffers (the
//!   recording path never contends with other recording threads), keyed
//!   by 128-bit [`TraceId`]s that propagate coordinator → worker over
//!   the `X-Predllc-Trace` HTTP header.
//! * [`expo`] — an in-tree validator **and parser** for the exposition
//!   format, so CI can prove every `/metrics` line parses without an
//!   external Prometheus, and the fleet coordinator can scrape its
//!   workers' expositions back into structured data.
//!
//! On top of those, the continuous-monitoring layer:
//!
//! * [`series`] — a [`Collector`] thread snapshotting a registry at a
//!   fixed interval into bounded per-series ring buffers
//!   ([`SeriesStore`]): local time-series history with zero external
//!   storage.
//! * [`slo`] — declarative alert rules (threshold, rate-of-change,
//!   multi-window burn-rate) evaluated on every collector tick, with
//!   firing/pending/resolved state machines and since-timestamps.
//! * [`dash`] — a single-page, self-contained HTML dashboard (inline
//!   SVG sparklines, no scripts) rendered straight from the store.
//!
//! The cardinal rule, inherited from the repo's bit-identical-results
//! invariant: observability **reads** time, it never feeds it back into
//! simulation. Nothing in this crate can influence what a simulator
//! computes — disabled instrumentation compiles down to a single
//! predictable branch on the hot paths that carry it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod dash;
pub mod expo;
pub mod metrics;
pub mod series;
pub mod slo;
pub mod trace;

pub use metrics::{Counter, Gauge, HistogramSnapshot, Registry, TimingHistogram};
pub use series::{Collector, CollectorConfig, SeriesHistory, SeriesStore};
pub use slo::{AlertState, AlertStatus, Compare, Condition, Rule, SloRuntime};
pub use trace::{
    fields, json_string, render_jsonl, EventKind, FieldValue, SpanGuard, TraceCtx, TraceEvent,
    TraceId, Tracer, TRACE_HEADER,
};
