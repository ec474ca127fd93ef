//! The job registry: content-addressed experiment jobs, their lifecycle
//! and the service metrics.
//!
//! A job's identity is the [canonical
//! fingerprint](predllc_explore::hash::canonical_fingerprint) of its
//! parsed spec — key-order-insensitive, whitespace-free — so two
//! submissions of the same experiment (however formatted, however
//! concurrent) share one [`Job`]. The registry's map lock is the
//! coalescing point: the first submission inserts and runs, every later
//! one gets the existing entry back as a cache hit and waits on (or
//! immediately reads) the same result.
//!
//! Simulation is deterministic, so a cached result is exactly what a
//! re-run would produce; a finished job caches its **grid rows** (not
//! pre-rendered documents), and the deterministic renderers in
//! `predllc_explore::report` reproduce byte-identical CSV/JSON from
//! them on every read — one-shot via [`JobResult::csv`]/[`JobResult::json`]
//! or incrementally via the `*_stream` constructors, which the serve
//! layer writes as chunked responses without materializing the whole
//! document. The cache is **bounded**:
//! past [`Registry::with_capacity`]'s limit, the oldest *finished* job
//! is evicted to make room (an evicted experiment simply re-simulates
//! on its next submission); when every registered job is still queued
//! or running, new submissions are refused instead.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use predllc_explore::hash::{canonical_fingerprint, Fingerprint};
use predllc_explore::{json, report, unique_point_count, ExperimentSpec, SpecError};
use predllc_explore::{GridResult, SearchOutcome};
use predllc_obs::{Counter, Gauge, Registry as MetricRegistry, TimingHistogram};

use crate::http::BodyStream;

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The body was not a valid experiment spec.
    Spec(SpecError),
    /// The registry is full of queued/running jobs; nothing is
    /// evictable.
    AtCapacity,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Spec(e) => write!(f, "{e}"),
            SubmitError::AtCapacity => f.write_str("service is at capacity; retry later"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A job's coarse lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, not yet started.
    Queued,
    /// Executing on the experiment executor.
    Running,
    /// Finished; results are cached and served.
    Done,
    /// The run failed; the error message is cached instead.
    Failed,
}

impl JobStatus {
    /// The lowercase wire name (`"queued"`, `"running"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// The immutable outcome of a finished job: the grid rows themselves
/// plus everything needed to render them.
///
/// Rendering is deterministic, so serving re-renders (whole or
/// streamed) instead of caching document strings — every read of the
/// same result is byte-identical, and large results never have to
/// exist in memory as one contiguous body.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The spec's `name`, echoed into the JSON report head.
    pub name: String,
    /// The executor thread count label in the JSON report head.
    pub threads_label: usize,
    /// The simulated grid rows (shared with streaming bodies).
    pub grid: Arc<Vec<GridResult>>,
    /// The partition-search outcome, when the spec ran one.
    pub search: Option<SearchOutcome>,
    /// The attribution artifact (`report::render_attribution_json`),
    /// present only when the spec ran with `"attribution": true`.
    /// Pre-rendered (it embeds replayable witnesses, not grid rows)
    /// and shared with streaming bodies.
    pub attribution: Option<Arc<String>>,
    /// Unique grid points this job actually simulated.
    pub unique_points: usize,
}

/// Streamed bodies accumulate roughly this many bytes per chunk.
const CHUNK_TARGET: usize = 16 << 10;

impl JobResult {
    /// The grid rows as CSV (`report::render_csv`), rendered on demand.
    pub fn csv(&self) -> String {
        report::render_csv(&self.grid)
    }

    /// The full report as JSON (`report::render_json`, no wall time so
    /// re-submissions serve byte-identical documents).
    pub fn json(&self) -> String {
        report::render_json(
            &self.name,
            self.threads_label,
            None,
            &self.grid,
            self.search.as_ref(),
        )
    }

    /// A pull-based body streaming exactly the bytes of
    /// [`JobResult::csv`], a bundle of rows at a time.
    pub fn csv_stream(&self) -> Box<dyn BodyStream> {
        Box::new(CsvBody {
            grid: Arc::clone(&self.grid),
            next: 0,
            header_sent: false,
        })
    }

    /// A pull-based body streaming exactly the bytes of
    /// [`JobResult::json`].
    pub fn json_stream(&self) -> Box<dyn BodyStream> {
        Box::new(JsonBody {
            head: Some(report::json_head(&self.name, self.threads_label, None)),
            grid: Arc::clone(&self.grid),
            next: 0,
            tail: Some(report::json_tail(self.search.as_ref())),
        })
    }

    /// A pull-based body streaming the attribution artifact, when the
    /// job ran with attribution.
    pub fn attribution_stream(&self) -> Option<Box<dyn BodyStream>> {
        self.attribution.as_ref().map(|text| {
            Box::new(TextBody {
                text: Arc::clone(text),
                pos: 0,
            }) as Box<dyn BodyStream>
        })
    }
}

/// Streams `CSV_HEADER` + one `csv_row` per grid row, batched.
struct CsvBody {
    grid: Arc<Vec<GridResult>>,
    next: usize,
    header_sent: bool,
}

impl BodyStream for CsvBody {
    fn next_chunk(&mut self) -> Option<Vec<u8>> {
        let mut out = String::new();
        if !self.header_sent {
            out.push_str(report::CSV_HEADER);
            self.header_sent = true;
        }
        while self.next < self.grid.len() && out.len() < CHUNK_TARGET {
            out.push_str(&report::csv_row(&self.grid[self.next]));
            self.next += 1;
        }
        if out.is_empty() {
            None
        } else {
            Some(out.into_bytes())
        }
    }
}

/// Streams `json_head` + comma-joined `json_row`s + `json_tail`.
struct JsonBody {
    head: Option<String>,
    grid: Arc<Vec<GridResult>>,
    next: usize,
    tail: Option<String>,
}

impl BodyStream for JsonBody {
    fn next_chunk(&mut self) -> Option<Vec<u8>> {
        let mut out = self.head.take().unwrap_or_default();
        while self.next < self.grid.len() && out.len() < CHUNK_TARGET {
            if self.next > 0 {
                out.push(',');
            }
            out.push_str(&report::json_row(&self.grid[self.next]));
            self.next += 1;
        }
        if self.next == self.grid.len() && out.len() < CHUNK_TARGET {
            if let Some(tail) = self.tail.take() {
                out.push_str(&tail);
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out.into_bytes())
        }
    }
}

/// Streams a shared pre-rendered string in bounded slices.
struct TextBody {
    text: Arc<String>,
    pos: usize,
}

impl BodyStream for TextBody {
    fn next_chunk(&mut self) -> Option<Vec<u8>> {
        let bytes = self.text.as_bytes();
        if self.pos >= bytes.len() {
            return None;
        }
        let end = (self.pos + 4 * CHUNK_TARGET).min(bytes.len());
        let chunk = bytes[self.pos..end].to_vec();
        self.pos = end;
        Some(chunk)
    }
}

/// What a job is currently doing (interior of the state mutex).
#[derive(Debug, Clone)]
enum State {
    Queued,
    Running,
    Done(Arc<JobResult>),
    Failed(String),
}

/// One content-addressed experiment job.
#[derive(Debug)]
pub struct Job {
    /// The content address (hex form is the public experiment id).
    pub id: Fingerprint,
    /// The spec's `name` field, echoed in status responses.
    pub name: String,
    /// The parsed spec the runner executes.
    pub spec: ExperimentSpec,
    /// Unique grid points this job will simulate (denominator of the
    /// progress fraction, known at submission).
    pub points_total: usize,
    /// The trace id the job's spans record under — the submitter's
    /// (via `X-Predllc-Trace`) or a fresh one. Fixed at registration;
    /// coalesced duplicates share the first submission's trace.
    pub trace: predllc_obs::TraceId,
    /// When the job was registered — the queue-wait anchor.
    pub submitted: std::time::Instant,
    points_done: AtomicUsize,
    state: Mutex<State>,
    finished: Condvar,
}

impl Job {
    /// Current coarse status.
    pub fn status(&self) -> JobStatus {
        match *self.state.lock().unwrap() {
            State::Queued => JobStatus::Queued,
            State::Running => JobStatus::Running,
            State::Done(_) => JobStatus::Done,
            State::Failed(_) => JobStatus::Failed,
        }
    }

    /// Unique grid points completed so far.
    pub fn points_done(&self) -> usize {
        self.points_done.load(Ordering::Relaxed)
    }

    /// Records grid progress (called from executor workers).
    pub fn record_progress(&self, done: usize) {
        self.points_done.fetch_max(done, Ordering::Relaxed);
    }

    /// The cached result, when done.
    pub fn result(&self) -> Option<Arc<JobResult>> {
        match &*self.state.lock().unwrap() {
            State::Done(r) => Some(Arc::clone(r)),
            _ => None,
        }
    }

    /// The failure message, when failed.
    pub fn error(&self) -> Option<String> {
        match &*self.state.lock().unwrap() {
            State::Failed(e) => Some(e.clone()),
            _ => None,
        }
    }

    /// Marks the job running.
    pub fn start(&self) {
        *self.state.lock().unwrap() = State::Running;
    }

    /// Completes the job with rendered results and wakes waiters.
    pub fn finish(&self, result: JobResult) {
        *self.state.lock().unwrap() = State::Done(Arc::new(result));
        self.finished.notify_all();
    }

    /// Fails the job and wakes waiters.
    pub fn fail(&self, error: String) {
        *self.state.lock().unwrap() = State::Failed(error);
        self.finished.notify_all();
    }

    /// Blocks until the job is done or failed, or `timeout` elapses.
    /// Returns the final status reached (or the current one on
    /// timeout).
    pub fn wait(&self, timeout: Duration) -> JobStatus {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().unwrap();
        loop {
            match &*state {
                State::Done(_) => return JobStatus::Done,
                State::Failed(_) => return JobStatus::Failed,
                _ => {}
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return match &*state {
                    State::Queued => JobStatus::Queued,
                    State::Running => JobStatus::Running,
                    State::Done(_) => JobStatus::Done,
                    State::Failed(_) => JobStatus::Failed,
                };
            }
            let (next, _) = self.finished.wait_timeout(state, deadline - now).unwrap();
            state = next;
        }
    }
}

/// The service metric set, backed by a [`predllc_obs::Registry`] and
/// rendered by `/metrics` in Prometheus text exposition format.
///
/// Every counter keeps its historical `predllc_*` sample name (the
/// compat aliases promised by the v0.8 migration), so existing scrapes
/// and [`crate::Client::metric`] keep working; the `# HELP`/`# TYPE`
/// metadata and the latency histogram families are additive.
///
/// Writers follow the snapshot-consistency discipline documented on
/// [`predllc_obs::metrics`]: the source counter (`cache_misses`) is
/// incremented before its derived counter (`jobs_queued`), and a state
/// gauge is decremented before its successor is incremented.
/// [`Metrics::snapshot`] reads in the reverse order, so a concurrent
/// snapshot never counts a job in more states than it has submissions.
#[derive(Debug)]
pub struct Metrics {
    /// The backing registry: extra families (per-endpoint request
    /// latencies, fleet RTT/heartbeat histograms) register here and
    /// render alongside the counters.
    pub registry: MetricRegistry,
    /// Jobs accepted and not yet started.
    pub jobs_queued: Gauge,
    /// Jobs currently executing.
    pub jobs_running: Gauge,
    /// Jobs finished successfully.
    pub jobs_done: Counter,
    /// Jobs that failed.
    pub jobs_failed: Counter,
    /// Submissions answered from the content-addressed cache (including
    /// coalesced concurrent duplicates).
    pub cache_hits: Counter,
    /// Submissions that created a new job.
    pub cache_misses: Counter,
    /// Unique grid points resolved across all finished jobs, plus
    /// every point computed by the worker point endpoint.
    pub points_simulated: Counter,
    /// HTTP requests served.
    pub http_requests: Counter,
    /// HTTP connections currently open (accepted and not yet closed).
    pub connections_open: Gauge,
    /// Requests shed with `429 Too Many Requests` because the dispatch
    /// executor queue was full (queue-depth backpressure).
    pub requests_shed: Counter,
    /// Fleet workers currently believed alive (a gauge: set by the
    /// coordinator, decremented as workers are lost).
    pub workers_alive: Gauge,
    /// Fleet workers declared lost (heartbeat or dispatch failure).
    pub workers_lost: Counter,
    /// Grid points dispatched to fleet workers (re-dispatches after a
    /// worker loss count again).
    pub points_assigned: Counter,
    /// Grid points requeued after their worker was lost mid-flight.
    pub points_retried: Counter,
    /// Point requests answered from a shared point cache instead of
    /// simulating (coordinator- or worker-side).
    pub points_cache_shared: Counter,
}

/// A point-in-time copy of [`Metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Jobs accepted and not yet started.
    pub jobs_queued: u64,
    /// Jobs currently executing.
    pub jobs_running: u64,
    /// Jobs finished successfully.
    pub jobs_done: u64,
    /// Jobs that failed.
    pub jobs_failed: u64,
    /// Submissions answered from the cache.
    pub cache_hits: u64,
    /// Submissions that created a new job.
    pub cache_misses: u64,
    /// Unique grid points simulated.
    pub points_simulated: u64,
    /// HTTP requests served.
    pub http_requests: u64,
    /// HTTP connections currently open.
    pub connections_open: u64,
    /// Requests shed by dispatch-queue backpressure.
    pub requests_shed: u64,
    /// Fleet workers currently believed alive.
    pub workers_alive: u64,
    /// Fleet workers declared lost.
    pub workers_lost: u64,
    /// Grid points dispatched to fleet workers.
    pub points_assigned: u64,
    /// Grid points requeued after a worker loss.
    pub points_retried: u64,
    /// Point requests answered from a shared point cache.
    pub points_cache_shared: u64,
}

/// One job-life counter as [`Metrics::snapshot`] copies it: how to read
/// it, and which snapshot field receives the value.
type CounterRead = (fn(&Metrics) -> u64, fn(&mut MetricsSnapshot) -> &mut u64);

/// The order [`Metrics::snapshot`] reads the job-life counters: against
/// the direction a job moves (done/failed, then running, then queued,
/// then the submission counters). A job that advances between two reads
/// is seen in its newer state or missed, never counted twice, and any
/// state it is seen in was written after its `cache_misses` increment,
/// which is read last. Every update is sequentially consistent, so the
/// job-state sum of a snapshot never exceeds `cache_misses`.
const SNAPSHOT_READ_ORDER: [CounterRead; 6] = [
    (|m| m.jobs_done.get(), |s| &mut s.jobs_done),
    (|m| m.jobs_failed.get(), |s| &mut s.jobs_failed),
    (|m| m.jobs_running.get(), |s| &mut s.jobs_running),
    (|m| m.jobs_queued.get(), |s| &mut s.jobs_queued),
    (|m| m.cache_hits.get(), |s| &mut s.cache_hits),
    (|m| m.cache_misses.get(), |s| &mut s.cache_misses),
];

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// A fresh metric set over its own registry.
    pub fn new() -> Metrics {
        let registry = MetricRegistry::new();
        let jobs_queued =
            registry.gauge("predllc_jobs_queued", "Jobs accepted and not yet started.");
        let jobs_running = registry.gauge("predllc_jobs_running", "Jobs currently executing.");
        let jobs_done = registry.counter("predllc_jobs_done", "Jobs finished successfully.");
        let jobs_failed = registry.counter("predllc_jobs_failed", "Jobs that failed.");
        let cache_hits = registry.counter(
            "predllc_cache_hits",
            "Submissions answered from the content-addressed cache.",
        );
        let cache_misses = registry.counter(
            "predllc_cache_misses",
            "Submissions that created a new job.",
        );
        let points_simulated = registry.counter(
            "predllc_points_simulated",
            "Unique grid points simulated (jobs plus the worker point endpoint).",
        );
        let http_requests = registry.counter("predllc_http_requests", "HTTP requests served.");
        let connections_open = registry.gauge(
            "predllc_connections_open",
            "HTTP connections currently open.",
        );
        let requests_shed = registry.counter(
            "predllc_requests_shed",
            "Requests shed with 429 because the dispatch queue was full.",
        );
        let workers_alive = registry.gauge(
            "predllc_workers_alive",
            "Fleet workers currently believed alive.",
        );
        let workers_lost = registry.counter(
            "predllc_workers_lost",
            "Fleet workers declared lost (heartbeat or dispatch failure).",
        );
        let points_assigned = registry.counter(
            "predllc_points_assigned",
            "Grid points dispatched to fleet workers (re-dispatches count again).",
        );
        let points_retried = registry.counter(
            "predllc_points_retried",
            "Grid points requeued after their worker was lost mid-flight.",
        );
        let points_cache_shared = registry.counter(
            "predllc_points_cache_shared",
            "Point requests answered from a shared point cache instead of simulating.",
        );
        Metrics {
            registry,
            jobs_queued,
            jobs_running,
            jobs_done,
            jobs_failed,
            cache_hits,
            cache_misses,
            points_simulated,
            http_requests,
            connections_open,
            requests_shed,
            workers_alive,
            workers_lost,
            points_assigned,
            points_retried,
            points_cache_shared,
        }
    }

    /// The wall-clock request-latency histogram for one endpoint label
    /// (registration is idempotent; recording is lock-free).
    pub fn endpoint_latency(&self, endpoint: &str) -> TimingHistogram {
        self.registry.histogram_with(
            "predllc_http_request_duration_ns",
            "Wall-clock HTTP request latency per endpoint, nanoseconds.",
            "endpoint",
            endpoint,
        )
    }

    /// Round-trip time of successful point dispatches to one worker.
    pub fn worker_rtt(&self, worker: &str) -> TimingHistogram {
        self.registry.histogram_with(
            "predllc_fleet_point_rtt_ns",
            "Round-trip time of successful point dispatches per worker, nanoseconds.",
            "worker",
            worker,
        )
    }

    /// Time burned on a failed dispatch attempt before the point was
    /// requeued, per worker.
    pub fn worker_requeue(&self, worker: &str) -> TimingHistogram {
        self.registry.histogram_with(
            "predllc_fleet_requeue_ns",
            "Time spent on a failed dispatch attempt before requeue, per worker, nanoseconds.",
            "worker",
            worker,
        )
    }

    /// Heartbeat probe latency per worker.
    pub fn worker_heartbeat(&self, worker: &str) -> TimingHistogram {
        self.registry.histogram_with(
            "predllc_fleet_heartbeat_ns",
            "Heartbeat probe latency per worker, nanoseconds.",
            "worker",
            worker,
        )
    }

    /// Copies every counter. The job-life counters are read against the
    /// direction jobs move (done/failed, running, queued, then the
    /// submission counters), so the job-state sum never exceeds
    /// `cache_misses` in any observed snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::default();
        for (read, field) in SNAPSHOT_READ_ORDER {
            *field(&mut snapshot) = read(self);
        }
        MetricsSnapshot {
            points_simulated: self.points_simulated.get(),
            http_requests: self.http_requests.get(),
            connections_open: self.connections_open.get(),
            requests_shed: self.requests_shed.get(),
            workers_alive: self.workers_alive.get(),
            workers_lost: self.workers_lost.get(),
            points_assigned: self.points_assigned.get(),
            points_retried: self.points_retried.get(),
            points_cache_shared: self.points_cache_shared.get(),
            ..snapshot
        }
    }

    /// Renders the full Prometheus text exposition (`# HELP`/`# TYPE`
    /// plus every sample, newline-terminated).
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

/// The outcome of a submission: the (new or existing) job and whether it
/// was freshly created.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The job this spec coalesced onto.
    pub job: Arc<Job>,
    /// `true` when this submission created the job (a cache miss).
    pub fresh: bool,
}

/// Interior of the registry lock: the content-addressed map plus
/// insertion order for bounded eviction.
#[derive(Debug, Default)]
struct JobMap {
    by_id: HashMap<Fingerprint, Arc<Job>>,
    /// Insertion order; eviction scans from the front for the oldest
    /// finished job.
    order: VecDeque<Fingerprint>,
}

/// The content-addressed job map plus service metrics.
#[derive(Debug)]
pub struct Registry {
    jobs: Mutex<JobMap>,
    capacity: usize,
    /// The service counters (shared: a fleet coordinator hands the same
    /// instance to its dispatch layer so `/metrics` reflects both).
    pub metrics: Arc<Metrics>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A registry bounded at 1024 cached jobs.
    pub fn new() -> Self {
        Registry::with_capacity(1024)
    }

    /// A registry holding at most `capacity` jobs: when full, the
    /// oldest finished job is evicted for each new submission, and if
    /// everything registered is still queued/running, submissions fail
    /// with [`SubmitError::AtCapacity`].
    pub fn with_capacity(capacity: usize) -> Self {
        Registry::with_metrics(capacity, Arc::new(Metrics::default()))
    }

    /// Like [`Registry::with_capacity`], with an externally owned
    /// counter set — how a fleet coordinator shares one [`Metrics`]
    /// between its HTTP registry and its dispatch loop.
    pub fn with_metrics(capacity: usize, metrics: Arc<Metrics>) -> Self {
        Registry {
            jobs: Mutex::new(JobMap::default()),
            capacity: capacity.max(1),
            metrics,
        }
    }

    /// Submits a spec document: parses and fingerprints it, then either
    /// coalesces onto the existing job for that content address (cache
    /// hit) or registers a fresh queued job (cache miss). The map lock
    /// is held across the lookup-or-insert, so concurrent duplicate
    /// submissions coalesce onto exactly one job.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Spec`] when the body is not a valid spec, or
    /// [`SubmitError::AtCapacity`] when the registry is full of
    /// unfinished jobs.
    pub fn submit(&self, body: &str) -> Result<Submission, SubmitError> {
        self.submit_traced(body, predllc_obs::TraceId::fresh())
    }

    /// Like [`Registry::submit`], stamping a freshly created job with
    /// `trace` (a cache hit keeps the existing job's trace id).
    ///
    /// # Errors
    ///
    /// As [`Registry::submit`].
    pub fn submit_traced(
        &self,
        body: &str,
        trace: predllc_obs::TraceId,
    ) -> Result<Submission, SubmitError> {
        let doc = json::parse(body).map_err(|e| SubmitError::Spec(SpecError::Json(e)))?;
        let id = canonical_fingerprint(&doc);
        let spec = ExperimentSpec::parse(body).map_err(SubmitError::Spec)?;

        let mut jobs = self.jobs.lock().unwrap();
        if let Some(job) = jobs.by_id.get(&id) {
            self.metrics.cache_hits.inc();
            return Ok(Submission {
                job: Arc::clone(job),
                fresh: false,
            });
        }
        if jobs.by_id.len() >= self.capacity {
            // Make room by dropping the oldest finished job; its next
            // submission will simply re-simulate.
            let JobMap { by_id, order } = &mut *jobs;
            let evictable = order
                .iter()
                .position(|fp| matches!(by_id[fp].status(), JobStatus::Done | JobStatus::Failed));
            match evictable {
                Some(at) => {
                    let fp = order.remove(at).expect("position came from order");
                    by_id.remove(&fp);
                }
                None => return Err(SubmitError::AtCapacity),
            }
        }
        let points_total = unique_point_count(&spec);
        let job = Arc::new(Job {
            id,
            name: spec.name.clone(),
            spec,
            points_total,
            trace,
            submitted: std::time::Instant::now(),
            points_done: AtomicUsize::new(0),
            state: Mutex::new(State::Queued),
            finished: Condvar::new(),
        });
        jobs.by_id.insert(id, Arc::clone(&job));
        jobs.order.push_back(id);
        // Source counter before derived gauge (snapshot discipline).
        self.metrics.cache_misses.inc();
        self.metrics.jobs_queued.inc();
        Ok(Submission { job, fresh: true })
    }

    /// Unregisters a freshly submitted job that will never run (the
    /// submit→enqueue window raced shutdown): marks it failed and
    /// settles the queued/failed counters so `/metrics` never reports a
    /// phantom queued job.
    pub fn abandon(&self, job: &Job, reason: &str) {
        let mut jobs = self.jobs.lock().unwrap();
        if jobs.by_id.remove(&job.id).is_some() {
            jobs.order.retain(|fp| *fp != job.id);
            job.fail(reason.to_string());
            self.metrics.jobs_queued.dec();
            self.metrics.jobs_failed.inc();
        }
    }

    /// Looks a job up by the hex form of its id.
    pub fn get(&self, hex_id: &str) -> Option<Arc<Job>> {
        let id = Fingerprint::parse_hex(hex_id)?;
        self.jobs.lock().unwrap().by_id.get(&id).cloned()
    }

    /// Number of registered jobs (all states).
    pub fn len(&self) -> usize {
        self.jobs.lock().unwrap().by_id.len()
    }

    /// Whether no job is currently registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "name": "reg-test", "cores": 2,
        "configs": [{"partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}}],
        "workloads": [{"kind": "uniform", "range_bytes": 1024, "ops": 40, "seed": 1}]
    }"#;

    fn empty_result(name: &str) -> JobResult {
        JobResult {
            name: name.into(),
            threads_label: 1,
            grid: Arc::new(Vec::new()),
            search: None,
            attribution: None,
            unique_points: 1,
        }
    }

    fn grid_row(seed: u64) -> GridResult {
        GridResult {
            config: format!("SS(1,{seed})"),
            workload: "u/1KiB".into(),
            backend: "fixed(30)".into(),
            x: 1024,
            requests: 40,
            p50: 100 + seed,
            p90: 200,
            p99: 300,
            p100: 350,
            observed_wcl: 350,
            mean_latency: 123.456,
            execution_time: 9_999,
            analytical_wcl: seed.is_multiple_of(2).then_some(4_000),
            row_hit_rate: 0.25,
            attribution: None,
        }
    }

    #[test]
    fn streamed_bodies_are_byte_identical_to_one_shot_renders() {
        let result = JobResult {
            name: "stream-test".into(),
            threads_label: 4,
            grid: Arc::new((0..500).map(grid_row).collect()),
            search: None,
            attribution: Some(Arc::new("{\"points\":[]}".repeat(10_000))),
            unique_points: 500,
        };
        let drain = |mut s: Box<dyn BodyStream>| {
            let mut chunks = 0usize;
            let mut out = Vec::new();
            while let Some(chunk) = s.next_chunk() {
                assert!(!chunk.is_empty(), "streams never yield empty chunks");
                chunks += 1;
                out.extend_from_slice(&chunk);
            }
            (out, chunks)
        };
        let (csv, csv_chunks) = drain(result.csv_stream());
        assert_eq!(String::from_utf8(csv).unwrap(), result.csv());
        assert!(csv_chunks > 1, "a large grid must stream in pieces");
        let (json, json_chunks) = drain(result.json_stream());
        assert_eq!(String::from_utf8(json).unwrap(), result.json());
        assert!(json_chunks > 1);
        let (attr, attr_chunks) = drain(result.attribution_stream().unwrap());
        assert_eq!(
            String::from_utf8(attr).unwrap(),
            *result.attribution.clone().unwrap()
        );
        assert!(attr_chunks > 1);
        // An empty grid still renders the CSV header / JSON skeleton.
        let empty = empty_result("empty");
        let (csv, _) = drain(empty.csv_stream());
        assert_eq!(String::from_utf8(csv).unwrap(), empty.csv());
        let (json, _) = drain(empty.json_stream());
        assert_eq!(String::from_utf8(json).unwrap(), empty.json());
        assert!(empty.attribution_stream().is_none());
    }

    #[test]
    fn duplicate_submissions_coalesce_by_content() {
        let reg = Registry::new();
        let first = reg.submit(SPEC).unwrap();
        assert!(first.fresh);
        assert_eq!(first.job.status(), JobStatus::Queued);
        assert_eq!(first.job.points_total, 1);
        // Same document, different formatting and key order.
        let reordered = r#"{
            "workloads": [{"seed": 1, "ops": 40, "range_bytes": 1024, "kind": "uniform"}],
            "configs": [{"partition": {"mode": "SS", "ways": 4, "sets": 1, "kind": "shared"}}],
            "cores": 2, "name": "reg-test"
        }"#;
        let second = reg.submit(reordered).unwrap();
        assert!(!second.fresh);
        assert_eq!(first.job.id, second.job.id);
        assert!(Arc::ptr_eq(&first.job, &second.job));
        let m = reg.metrics.snapshot();
        assert_eq!((m.cache_misses, m.cache_hits), (1, 1));
        assert_eq!(reg.len(), 1);
        // A genuinely different spec gets its own job.
        let other = SPEC.replace("\"seed\": 1", "\"seed\": 2");
        let third = reg.submit(&other).unwrap();
        assert!(third.fresh);
        assert_ne!(third.job.id, first.job.id);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn lookup_by_hex_id() {
        let reg = Registry::new();
        let sub = reg.submit(SPEC).unwrap();
        let hex = sub.job.id.to_hex();
        assert!(Arc::ptr_eq(&reg.get(&hex).unwrap(), &sub.job));
        assert!(reg.get("0000000000000000ffffffffffffffff").is_none());
        assert!(reg.get("not-an-id").is_none());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let reg = Registry::new();
        assert!(matches!(
            reg.submit("{"),
            Err(SubmitError::Spec(SpecError::Json(_)))
        ));
        assert!(matches!(
            reg.submit(r#"{"name": "x"}"#),
            Err(SubmitError::Spec(SpecError::Invalid { .. }))
        ));
        assert!(reg.is_empty());
        assert_eq!(reg.metrics.snapshot().cache_misses, 0);
    }

    #[test]
    fn job_lifecycle_and_wait() {
        let reg = Registry::new();
        let job = reg.submit(SPEC).unwrap().job;
        assert_eq!(job.wait(Duration::from_millis(10)), JobStatus::Queued);
        job.start();
        assert_eq!(job.status(), JobStatus::Running);
        job.record_progress(1);
        assert_eq!(job.points_done(), 1);
        // Progress is monotonic even with racing reporters.
        job.record_progress(1);
        assert_eq!(job.points_done(), 1);
        let waiter = {
            let job = Arc::clone(&job);
            std::thread::spawn(move || job.wait(Duration::from_secs(10)))
        };
        job.finish(empty_result("reg-test"));
        assert_eq!(waiter.join().unwrap(), JobStatus::Done);
        let result = job.result().unwrap();
        assert_eq!(result.unique_points, 1);
        assert_eq!(result.csv(), predllc_explore::report::CSV_HEADER);
        assert_eq!(job.error(), None);
    }

    fn seeded(seed: u64) -> String {
        SPEC.replace("\"seed\": 1", &format!("\"seed\": {seed}"))
    }

    #[test]
    fn capacity_evicts_oldest_finished_jobs_only() {
        let reg = Registry::with_capacity(2);
        let a = reg.submit(&seeded(1)).unwrap().job;
        let b = reg.submit(&seeded(2)).unwrap().job;
        // Both unfinished: nothing evictable, the third is refused.
        assert_eq!(reg.submit(&seeded(3)).unwrap_err(), SubmitError::AtCapacity);
        assert_eq!(reg.len(), 2);
        // ...but a duplicate of a registered job still coalesces.
        assert!(!reg.submit(&seeded(1)).unwrap().fresh);

        // Finish the *newer* job: eviction must pick it (the oldest
        // finished), not the still-running older one.
        b.start();
        b.finish(empty_result("reg-test"));
        let c = reg.submit(&seeded(3)).unwrap();
        assert!(c.fresh);
        assert_eq!(reg.len(), 2);
        assert!(reg.get(&b.id.to_hex()).is_none(), "finished job evicted");
        assert!(reg.get(&a.id.to_hex()).is_some(), "unfinished job kept");
        // An evicted experiment re-submits as a fresh job (re-simulates).
        b.result().unwrap(); // the old handle still reads its result
        assert!(reg.get(&c.job.id.to_hex()).is_some());
    }

    #[test]
    fn abandon_settles_counters_and_unregisters() {
        let reg = Registry::new();
        let job = reg.submit(SPEC).unwrap().job;
        assert_eq!(reg.metrics.snapshot().jobs_queued, 1);
        reg.abandon(&job, "service is shutting down");
        assert_eq!(job.status(), JobStatus::Failed);
        assert!(reg.get(&job.id.to_hex()).is_none());
        let m = reg.metrics.snapshot();
        assert_eq!((m.jobs_queued, m.jobs_failed), (0, 1));
        // Idempotent: a second abandon is a no-op.
        reg.abandon(&job, "again");
        assert_eq!(reg.metrics.snapshot().jobs_failed, 1);
    }

    #[test]
    fn metrics_render_every_counter() {
        let m = Metrics::default();
        m.cache_hits.add(3);
        let text = m.render();
        assert!(text.contains("predllc_cache_hits 3\n"));
        assert!(text.ends_with('\n'));
        assert!(text.contains("# TYPE predllc_jobs_queued gauge\n"));
        assert!(text.contains("# TYPE predllc_jobs_done counter\n"));
        predllc_obs::expo::validate(&text).expect("metrics render must be valid exposition");
        for name in [
            "predllc_jobs_queued",
            "predllc_jobs_running",
            "predllc_jobs_done",
            "predllc_jobs_failed",
            "predllc_cache_misses",
            "predllc_points_simulated",
            "predllc_http_requests",
            "predllc_connections_open",
            "predllc_requests_shed",
            "predllc_workers_alive",
            "predllc_workers_lost",
            "predllc_points_assigned",
            "predllc_points_retried",
            "predllc_points_cache_shared",
        ] {
            assert!(text.contains(name), "missing {name}");
        }
    }

    #[test]
    fn no_interleaving_of_a_job_life_tears_a_snapshot() {
        // A job's counter writes, in the order the serve layer issues
        // them: submitted (registry), then run to done or failure (the
        // runner), or abandoned while still queued.
        let done: [fn(&Metrics); 6] = [
            |m| m.cache_misses.inc(),
            |m| m.jobs_queued.inc(),
            |m| m.jobs_queued.dec(),
            |m| m.jobs_running.inc(),
            |m| m.jobs_running.dec(),
            |m| m.jobs_done.inc(),
        ];
        let mut failed = done;
        failed[5] = |m| m.jobs_failed.inc();
        let abandoned: [fn(&Metrics); 4] = [
            |m| m.cache_misses.inc(),
            |m| m.jobs_queued.inc(),
            |m| m.jobs_queued.dec(),
            |m| m.jobs_failed.inc(),
        ];
        let reads = SNAPSHOT_READ_ORDER.len();
        for life in [&done[..], &failed[..], &abandoned[..]] {
            let steps = life.len() + reads;
            // Each interleaving is the set of steps that are writes.
            for writes_at in (0u32..1 << steps).filter(|m| m.count_ones() as usize == life.len()) {
                let metrics = Metrics::default();
                let mut snapshot = MetricsSnapshot::default();
                let (mut w, mut r) = (0, 0);
                for step in 0..steps {
                    if writes_at & (1 << step) != 0 {
                        life[w](&metrics);
                        w += 1;
                    } else {
                        let (read, field) = SNAPSHOT_READ_ORDER[r];
                        *field(&mut snapshot) = read(&metrics);
                        r += 1;
                    }
                }
                let s = &snapshot;
                assert!(
                    s.jobs_queued + s.jobs_running + s.jobs_done + s.jobs_failed <= s.cache_misses,
                    "torn snapshot {s:?} for interleaving {writes_at:#b}"
                );
            }
        }
    }
}
