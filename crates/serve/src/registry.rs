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
//! document. The cache is **bounded**: past
//! [`ServerConfig::max_jobs`](crate::ServerConfig::max_jobs), the
//! oldest *finished* job is evicted to make room (an evicted experiment
//! simply re-simulates on its next submission); when every registered
//! job is still queued or running, new submissions are refused instead.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use predllc_explore::hash::{canonical_fingerprint, Fingerprint};
use predllc_explore::{json, report, unique_point_count, ExperimentSpec, GridResult, SpecError};
use predllc_obs::{Counter, Gauge, Registry as MetricRegistry, TimingHistogram};

use crate::http::BodyStream;

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SubmitError {
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
    /// Whether the job reached a final state (done or failed).
    pub fn is_settled(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed)
    }

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
    /// The closing of the JSON report — [`report::json_tail`] of the
    /// job's partition-search outcome — rendered once when the job
    /// finishes. The document reads only the winner's label and line
    /// count and two counts from a search, so the per-candidate verdicts
    /// are not kept for the life of the result.
    pub json_tail: String,
    /// The attribution artifact (`report::render_attribution_json`),
    /// present only when the spec ran with `"attribution": true`.
    /// Pre-rendered (it embeds replayable witnesses, not grid rows)
    /// and shared with streaming bodies.
    pub attribution: Option<Arc<String>>,
    /// Unique grid points this job actually simulated.
    pub unique_points: usize,
}

impl JobResult {
    /// The grid rows as CSV (`report::render_csv`), rendered on demand.
    pub fn csv(&self) -> String {
        report::render_csv(&self.grid)
    }

    /// The full report as JSON (`report::render_json`, no wall time so
    /// re-submissions serve byte-identical documents).
    pub fn json(&self) -> String {
        let rows: Vec<String> = self.grid.iter().map(report::json_row).collect();
        format!(
            "{}{}{}",
            report::json_head(&self.name, self.threads_label, None),
            rows.join(","),
            self.json_tail
        )
    }
}

/// Streamed bodies accumulate roughly this many bytes per chunk.
const CHUNK_TARGET: usize = 16 << 10;

/// The pull-based bodies the reactor streams results through.
impl JobResult {
    /// A pull-based body streaming exactly the bytes of
    /// [`JobResult::csv`], a bundle of rows at a time.
    pub(crate) fn csv_stream(&self) -> Box<dyn BodyStream> {
        Box::new(CsvBody {
            grid: Arc::clone(&self.grid),
            next: 0,
            header_sent: false,
        })
    }

    /// A pull-based body streaming exactly the bytes of
    /// [`JobResult::json`].
    pub(crate) fn json_stream(&self) -> Box<dyn BodyStream> {
        Box::new(JsonBody {
            head: Some(report::json_head(&self.name, self.threads_label, None)),
            grid: Arc::clone(&self.grid),
            next: 0,
            tail: Some(self.json_tail.clone()),
        })
    }

    /// A pull-based body streaming the attribution artifact, when the
    /// job ran with attribution.
    pub(crate) fn attribution_stream(&self) -> Option<Box<dyn BodyStream>> {
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

/// What a job is currently doing.
#[derive(Debug, Clone)]
enum State {
    Queued,
    Running,
    Done(Arc<JobResult>),
    Failed(String),
}

impl State {
    fn status(&self) -> JobStatus {
        match self {
            State::Queued => JobStatus::Queued,
            State::Running => JobStatus::Running,
            State::Done(_) => JobStatus::Done,
            State::Failed(_) => JobStatus::Failed,
        }
    }
}

/// Interior of a job's lock: its state plus the wakers waiting for it
/// to settle. One lock covers both, so a waker is either registered
/// before the job settles (and run by it) or sees it settled.
struct Life {
    state: State,
    wakers: Vec<(u64, Box<dyn FnOnce() + Send>)>,
    next_key: u64,
}

impl std::fmt::Debug for Life {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Life")
            .field("state", &self.state)
            .field("wakers", &self.wakers.len())
            .finish()
    }
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
    life: Mutex<Life>,
}

impl Job {
    /// Current coarse status.
    pub fn status(&self) -> JobStatus {
        self.life.lock().unwrap().state.status()
    }

    /// Unique grid points completed so far.
    pub fn points_done(&self) -> usize {
        self.points_done.load(Ordering::Relaxed)
    }

    /// Records grid progress (called from executor workers).
    pub(crate) fn record_progress(&self, done: usize) {
        self.points_done.fetch_max(done, Ordering::Relaxed);
    }

    /// The cached result, when done.
    pub fn result(&self) -> Option<Arc<JobResult>> {
        match &self.life.lock().unwrap().state {
            State::Done(r) => Some(Arc::clone(r)),
            _ => None,
        }
    }

    /// The failure message, when failed.
    pub fn error(&self) -> Option<String> {
        match &self.life.lock().unwrap().state {
            State::Failed(e) => Some(e.clone()),
            _ => None,
        }
    }

    /// Marks the job running.
    pub fn start(&self) {
        self.life.lock().unwrap().state = State::Running;
    }

    /// Completes the job with rendered results and wakes waiters.
    pub fn finish(&self, result: JobResult) {
        self.settle(State::Done(Arc::new(result)));
    }

    /// Fails the job and wakes waiters.
    pub fn fail(&self, error: String) {
        self.settle(State::Failed(error));
    }

    /// Moves to a final state, then runs every [`Job::watch`] waker
    /// (outside the lock).
    fn settle(&self, state: State) {
        let wakers = {
            let mut life = self.life.lock().unwrap();
            life.state = state;
            std::mem::take(&mut life.wakers)
        };
        for (_, waker) in wakers {
            waker();
        }
    }

    /// Runs `waker` once the job is done or failed: on the thread that
    /// settles it, or right here when it already has. Returns the key
    /// that cancels the waker, or `None` when `waker` already ran.
    ///
    /// The check and the registration happen under the job's lock, so a
    /// job that settles after a caller last saw it unfinished — between
    /// a status check and this call — still runs the waker. This is how
    /// a held `?wait_ms=` status request parks without a thread.
    pub fn watch(&self, waker: Box<dyn FnOnce() + Send>) -> Option<u64> {
        let mut life = self.life.lock().unwrap();
        if life.state.status().is_settled() {
            drop(life);
            waker();
            return None;
        }
        let key = life.next_key;
        life.next_key += 1;
        life.wakers.push((key, waker));
        Some(key)
    }

    /// Drops the [`Job::watch`] waker registered under `key`, which then
    /// never runs (its waiter went away). A no-op once the job settled,
    /// or for a key already dropped.
    pub fn unwatch(&self, key: u64) {
        self.life.lock().unwrap().wakers.retain(|(k, _)| *k != key);
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
/// # The registry's read order is the snapshot
///
/// Every reader — `/metrics`, the history collector, the SLO rules and
/// the fleet mirror — reads through the registry, which reads series in
/// registration order. Writers follow the discipline documented on
/// [`predllc_obs::metrics`]: a source counter is incremented before the
/// series derived from it, and a state gauge is decremented before its
/// successor is incremented. [`Metrics::new`] therefore registers each
/// derived or successor series before its source, so a concurrent read
/// may miss a unit in flight but never counts one twice. The audited
/// pairs, each read derived-first:
///
/// - `jobs_done`/`jobs_failed` ← `jobs_running` ← `jobs_queued` ←
///   `cache_misses` (an abandoned job goes `jobs_queued` →
///   `jobs_failed`): no read counts more jobs in states than
///   submissions.
/// - `requests_shed` ← `http_requests`: a shed request is counted as a
///   request first.
/// - `points_retried` ← `points_assigned`: a point is requeued only
///   after its dispatch was counted.
/// - `workers_lost` ← `workers_alive`: the fleet decrements the live
///   gauge before counting the loss, so `alive + lost` never exceeds
///   the fleet size.
///
/// `cache_hits`, `points_simulated`, `points_cache_shared` and
/// `connections_open` pair with nothing: a coordinator's
/// `points_simulated` counts cache-served points that were never
/// assigned, and a retried point is assigned twice. Histograms need no
/// order: [`predllc_obs::TimingHistogram::snapshot`] clamps a read
/// `_count` up to its bucket total. A fleet coordinator mirrors its
/// workers' series in the same order: registered as read, and each
/// scrape's values written sources first.
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
    /// Grid points requeued after their worker was lost mid-flight
    /// (every point of the lost run).
    pub points_retried: Counter,
    /// Grid points answered from a shared point cache instead of
    /// simulating (coordinator- or worker-side), counted per point of a
    /// run.
    pub points_cache_shared: Counter,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// A fresh metric set over its own registry, registered in read
    /// order (see [`Metrics`]): each derived or successor series before
    /// its source.
    pub fn new() -> Metrics {
        let registry = MetricRegistry::new();
        let jobs_done = registry.counter("predllc_jobs_done", "Jobs finished successfully.");
        let jobs_failed = registry.counter("predllc_jobs_failed", "Jobs that failed.");
        let jobs_running = registry.gauge("predllc_jobs_running", "Jobs currently executing.");
        let jobs_queued =
            registry.gauge("predllc_jobs_queued", "Jobs accepted and not yet started.");
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
        let requests_shed = registry.counter(
            "predllc_requests_shed",
            "Requests shed with 429 because the dispatch queue was full.",
        );
        let http_requests = registry.counter("predllc_http_requests", "HTTP requests served.");
        let connections_open = registry.gauge(
            "predllc_connections_open",
            "HTTP connections currently open.",
        );
        let workers_lost = registry.counter(
            "predllc_workers_lost",
            "Fleet workers declared lost (heartbeat or dispatch failure).",
        );
        let workers_alive = registry.gauge(
            "predllc_workers_alive",
            "Fleet workers currently believed alive.",
        );
        let points_retried = registry.counter(
            "predllc_points_retried",
            "Grid points requeued after their worker was lost mid-flight.",
        );
        let points_assigned = registry.counter(
            "predllc_points_assigned",
            "Grid points dispatched to fleet workers (re-dispatches count again).",
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
    pub(crate) fn endpoint_latency(&self, endpoint: &str) -> TimingHistogram {
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

    /// Renders the full Prometheus text exposition (`# HELP`/`# TYPE`
    /// plus every sample, newline-terminated).
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

/// The outcome of a submission: the (new or existing) job and whether it
/// was freshly created.
#[derive(Debug, Clone)]
pub(crate) struct Submission {
    /// The job this spec coalesced onto.
    pub(crate) job: Arc<Job>,
    /// `true` when this submission created the job (a cache miss).
    pub(crate) fresh: bool,
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
pub(crate) struct Registry {
    jobs: Mutex<JobMap>,
    capacity: usize,
    /// The service counters (shared: a fleet coordinator hands the same
    /// instance to its dispatch layer so `/metrics` reflects both).
    pub(crate) metrics: Arc<Metrics>,
}

impl Registry {
    /// A registry holding at most `capacity` jobs and counting into
    /// `metrics`: when full, the oldest finished job is evicted for each
    /// new submission, and if everything registered is still
    /// queued/running, submissions fail with [`SubmitError::AtCapacity`].
    pub(crate) fn new(capacity: usize, metrics: Arc<Metrics>) -> Self {
        Registry {
            jobs: Mutex::new(JobMap::default()),
            capacity: capacity.max(1),
            metrics,
        }
    }

    /// Submits a spec document: parses and fingerprints it, then either
    /// coalesces onto the existing job for that content address (cache
    /// hit) or registers a fresh queued job stamped with `trace` (cache
    /// miss; a hit keeps the existing job's trace id). A miss plans the
    /// grid with the map lock released, so a large spec's planning
    /// stalls no other submission or status read; the lock is then taken
    /// again and the lookup repeated before the insert, so concurrent
    /// duplicate submissions still coalesce onto exactly one job.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Spec`] when the body is not a valid spec, or
    /// [`SubmitError::AtCapacity`] when the registry is full of
    /// unfinished jobs.
    pub(crate) fn submit(
        &self,
        body: &str,
        trace: predllc_obs::TraceId,
    ) -> Result<Submission, SubmitError> {
        let doc = json::parse(body).map_err(|e| SubmitError::Spec(SpecError::Json(e)))?;
        let id = canonical_fingerprint(&doc);
        let spec = ExperimentSpec::parse(body).map_err(SubmitError::Spec)?;

        let coalesce = |jobs: &JobMap| {
            let job = jobs.by_id.get(&id)?;
            self.metrics.cache_hits.inc();
            Some(Submission {
                job: Arc::clone(job),
                fresh: false,
            })
        };
        if let Some(hit) = coalesce(&self.jobs.lock().unwrap()) {
            return Ok(hit);
        }
        let points_total = unique_point_count(&spec);
        let mut jobs = self.jobs.lock().unwrap();
        if let Some(hit) = coalesce(&jobs) {
            return Ok(hit);
        }
        if jobs.by_id.len() >= self.capacity {
            // Make room by dropping the oldest finished job; its next
            // submission will simply re-simulate.
            let JobMap { by_id, order } = &mut *jobs;
            let evictable = order.iter().position(|fp| by_id[fp].status().is_settled());
            match evictable {
                Some(at) => {
                    let fp = order.remove(at).expect("position came from order");
                    by_id.remove(&fp);
                }
                None => return Err(SubmitError::AtCapacity),
            }
        }
        let job = Arc::new(Job {
            id,
            name: spec.name.clone(),
            spec,
            points_total,
            trace,
            submitted: std::time::Instant::now(),
            points_done: AtomicUsize::new(0),
            life: Mutex::new(Life {
                state: State::Queued,
                wakers: Vec::new(),
                next_key: 0,
            }),
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
    pub(crate) fn abandon(&self, job: &Job, reason: &str) {
        let mut jobs = self.jobs.lock().unwrap();
        if jobs.by_id.remove(&job.id).is_some() {
            jobs.order.retain(|fp| *fp != job.id);
            job.fail(reason.to_string());
            self.metrics.jobs_queued.dec();
            self.metrics.jobs_failed.inc();
        }
    }

    /// Looks a job up by the hex form of its id.
    pub(crate) fn get(&self, hex_id: &str) -> Option<Arc<Job>> {
        let id = Fingerprint::parse_hex(hex_id)?;
        self.jobs.lock().unwrap().by_id.get(&id).cloned()
    }

    /// Number of registered jobs (all states).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.jobs.lock().unwrap().by_id.len()
    }

    /// Whether no job is currently registered.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predllc_obs::metrics::SnapshotValue;
    use predllc_obs::TraceId;

    const SPEC: &str = r#"{
        "name": "reg-test", "cores": 2,
        "configs": [{"partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}}],
        "workloads": [{"kind": "uniform", "range_bytes": 1024, "ops": 40, "seed": 1}]
    }"#;

    fn registry(capacity: usize) -> Registry {
        Registry::new(capacity, Arc::new(Metrics::default()))
    }

    fn empty_result(name: &str) -> JobResult {
        JobResult {
            name: name.into(),
            threads_label: 1,
            grid: Arc::new(Vec::new()),
            json_tail: report::json_tail(None),
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
            json_tail: report::json_tail(None),
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
        let reg = registry(1024);
        let first = reg.submit(SPEC, TraceId::fresh()).unwrap();
        assert!(first.fresh);
        assert_eq!(first.job.status(), JobStatus::Queued);
        assert_eq!(first.job.points_total, 1);
        // Same document, different formatting and key order.
        let reordered = r#"{
            "workloads": [{"seed": 1, "ops": 40, "range_bytes": 1024, "kind": "uniform"}],
            "configs": [{"partition": {"mode": "SS", "ways": 4, "sets": 1, "kind": "shared"}}],
            "cores": 2, "name": "reg-test"
        }"#;
        let second = reg.submit(reordered, TraceId::fresh()).unwrap();
        assert!(!second.fresh);
        assert_eq!(first.job.id, second.job.id);
        assert!(Arc::ptr_eq(&first.job, &second.job));
        let m = &reg.metrics;
        assert_eq!((m.cache_misses.get(), m.cache_hits.get()), (1, 1));
        assert_eq!(reg.len(), 1);
        // A genuinely different spec gets its own job.
        let other = SPEC.replace("\"seed\": 1", "\"seed\": 2");
        let third = reg.submit(&other, TraceId::fresh()).unwrap();
        assert!(third.fresh);
        assert_ne!(third.job.id, first.job.id);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn lookup_by_hex_id() {
        let reg = registry(1024);
        let sub = reg.submit(SPEC, TraceId::fresh()).unwrap();
        let hex = sub.job.id.to_hex();
        assert!(Arc::ptr_eq(&reg.get(&hex).unwrap(), &sub.job));
        assert!(reg.get("0000000000000000ffffffffffffffff").is_none());
        assert!(reg.get("not-an-id").is_none());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let reg = registry(1024);
        assert!(matches!(
            reg.submit("{", TraceId::fresh()),
            Err(SubmitError::Spec(SpecError::Json(_)))
        ));
        assert!(matches!(
            reg.submit(r#"{"name": "x"}"#, TraceId::fresh()),
            Err(SubmitError::Spec(SpecError::Invalid { .. }))
        ));
        assert!(reg.is_empty());
        assert_eq!(reg.metrics.cache_misses.get(), 0);
    }

    #[test]
    fn job_lifecycle() {
        let reg = registry(1024);
        let job = reg.submit(SPEC, TraceId::fresh()).unwrap().job;
        assert_eq!(job.status(), JobStatus::Queued);
        job.start();
        assert_eq!(job.status(), JobStatus::Running);
        job.record_progress(1);
        assert_eq!(job.points_done(), 1);
        // Progress is monotonic even with racing reporters.
        job.record_progress(1);
        assert_eq!(job.points_done(), 1);
        job.finish(empty_result("reg-test"));
        assert_eq!(job.status(), JobStatus::Done);
        let result = job.result().unwrap();
        assert_eq!(result.unique_points, 1);
        assert_eq!(result.csv(), predllc_explore::report::CSV_HEADER);
        assert_eq!(job.error(), None);
    }

    #[test]
    fn watchers_run_once_when_the_job_settles() {
        use std::sync::atomic::AtomicUsize;
        let reg = registry(1024);
        let job = reg.submit(SPEC, TraceId::fresh()).unwrap().job;
        let runs = Arc::new(AtomicUsize::new(0));
        let counting = || {
            let runs = Arc::clone(&runs);
            Box::new(move || {
                runs.fetch_add(1, Ordering::SeqCst);
            }) as Box<dyn FnOnce() + Send>
        };
        let kept = job.watch(counting()).expect("unsettled: registered");
        let dropped = job.watch(counting()).expect("unsettled: registered");
        assert_ne!(kept, dropped);
        job.unwatch(dropped);
        job.start();
        assert_eq!(runs.load(Ordering::SeqCst), 0, "running is not settled");
        job.fail("boom".into());
        assert_eq!(runs.load(Ordering::SeqCst), 1, "only the kept waker ran");
        // Watching a settled job runs the waker at once, and the late
        // unwatch of a waker that already ran is a no-op.
        assert_eq!(job.watch(counting()), None);
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        job.unwatch(kept);
        assert_eq!(job.status(), JobStatus::Failed);
    }

    fn seeded(seed: u64) -> String {
        SPEC.replace("\"seed\": 1", &format!("\"seed\": {seed}"))
    }

    #[test]
    fn capacity_evicts_oldest_finished_jobs_only() {
        let reg = registry(2);
        let a = reg.submit(&seeded(1), TraceId::fresh()).unwrap().job;
        let b = reg.submit(&seeded(2), TraceId::fresh()).unwrap().job;
        // Both unfinished: nothing evictable, the third is refused.
        assert_eq!(
            reg.submit(&seeded(3), TraceId::fresh()).unwrap_err(),
            SubmitError::AtCapacity
        );
        assert_eq!(reg.len(), 2);
        // ...but a duplicate of a registered job still coalesces.
        assert!(!reg.submit(&seeded(1), TraceId::fresh()).unwrap().fresh);

        // Finish the *newer* job: eviction must pick it (the oldest
        // finished), not the still-running older one.
        b.start();
        b.finish(empty_result("reg-test"));
        let c = reg.submit(&seeded(3), TraceId::fresh()).unwrap();
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
        let reg = registry(1024);
        let job = reg.submit(SPEC, TraceId::fresh()).unwrap().job;
        assert_eq!(reg.metrics.jobs_queued.get(), 1);
        reg.abandon(&job, "service is shutting down");
        assert_eq!(job.status(), JobStatus::Failed);
        assert!(reg.get(&job.id.to_hex()).is_none());
        let m = &reg.metrics;
        assert_eq!((m.jobs_queued.get(), m.jobs_failed.get()), (0, 1));
        // Idempotent: a second abandon is a no-op.
        reg.abandon(&job, "again");
        assert_eq!(reg.metrics.jobs_failed.get(), 1);
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

    /// One metric update.
    type Write = fn(&Metrics);

    /// The write sequences production code performs on the declared
    /// pairs, one unit of work each, built from the writes of each site
    /// in the order the code performs them.
    fn lives() -> Vec<(&'static str, Vec<Write>)> {
        type Writes = [Write; 2];
        // `Registry::submit`, then `run_jobs` starting and ending a job.
        let submit: Writes = [|m| m.cache_misses.inc(), |m| m.jobs_queued.inc()];
        let start: Writes = [|m| m.jobs_queued.dec(), |m| m.jobs_running.inc()];
        let done: Writes = [|m| m.jobs_running.dec(), |m| m.jobs_done.inc()];
        let failed: Writes = [|m| m.jobs_running.dec(), |m| m.jobs_failed.inc()];
        // `Registry::abandon` of a job that never ran.
        let abandon: Writes = [|m| m.jobs_queued.dec(), |m| m.jobs_failed.inc()];
        // A reactor shedding a request with 429.
        let shed: Writes = [|m| m.http_requests.inc(), |m| m.requests_shed.inc()];
        // A fleet group shipped, then shipped again once its worker is lost.
        let requeue: Writes = [|m| m.points_assigned.inc(), |m| m.points_retried.inc()];
        // `Coordinator::new` over two workers, then `mark_lost`.
        let fleet: [Write; 1] = [|m| m.workers_alive.set(2)];
        let lost: Writes = [|m| m.workers_alive.dec(), |m| m.workers_lost.inc()];
        vec![
            ("job done", [submit, start, done].concat()),
            ("job failed", [submit, start, failed].concat()),
            ("job abandoned", [submit, abandon].concat()),
            ("request shed", shed.to_vec()),
            ("point requeued", requeue.to_vec()),
            ("worker lost", [&fleet[..], &lost].concat()),
        ]
    }

    /// What every read of a `(derived, source)` pair must satisfy.
    type Invariant = fn(u64, u64) -> bool;

    /// A unit moves from `source` to `derived`: never counted in both.
    fn moved(derived: u64, source: u64) -> bool {
        derived + source <= 1
    }

    /// Every unit counted in `derived` was counted in `source` first.
    fn counted(derived: u64, source: u64) -> bool {
        derived <= source
    }

    /// The declared `(derived, source, invariant)` pairs of [`Metrics`]:
    /// writers update `source` first, so the registry must read
    /// `derived` first for `invariant` to hold on every read.
    const PAIRS: [(&str, &str, Invariant); 8] = [
        ("predllc_jobs_done", "predllc_jobs_running", moved),
        ("predllc_jobs_failed", "predllc_jobs_running", moved),
        ("predllc_jobs_failed", "predllc_jobs_queued", moved),
        ("predllc_jobs_running", "predllc_jobs_queued", moved),
        ("predllc_jobs_queued", "predllc_cache_misses", counted),
        ("predllc_requests_shed", "predllc_http_requests", counted),
        ("predllc_points_retried", "predllc_points_assigned", counted),
        (
            "predllc_workers_lost",
            "predllc_workers_alive",
            |lost, alive| lost + alive <= 2,
        ),
    ];

    /// Reads one series the way every production reader does: through
    /// the registry's `snapshot_series`.
    fn read(metrics: &Metrics, name: &str) -> u64 {
        let series = metrics.registry.snapshot_series();
        match series.into_iter().find(|s| s.name == name).map(|s| s.value) {
            Some(SnapshotValue::Counter(v) | SnapshotValue::Gauge(v)) => v,
            other => panic!("{name} read as {other:?}"),
        }
    }

    #[test]
    fn no_interleaving_of_a_declared_pair_tears_a_read() {
        let order: Vec<String> = Metrics::default()
            .registry
            .snapshot_series()
            .into_iter()
            .map(|s| s.name)
            .collect();
        let position = |name: &str| {
            order
                .iter()
                .position(|n| n == name)
                .unwrap_or_else(|| panic!("{name} is not registered"))
        };
        for (derived, source, invariant) in PAIRS {
            // The registry reads the pair's two series in this order.
            let mut reads = [derived, source];
            reads.sort_by_key(|name| position(name));
            for (life, writes) in lives() {
                let steps = writes.len() + reads.len();
                // Each interleaving puts the two reads at steps
                // `first < second` among the writes.
                for first in 0..steps {
                    for second in first + 1..steps {
                        let metrics = Metrics::default();
                        let mut pending = writes.iter();
                        let mut got = HashMap::new();
                        for step in 0..steps {
                            match [first, second].iter().position(|&at| at == step) {
                                Some(r) => _ = got.insert(reads[r], read(&metrics, reads[r])),
                                None => pending.next().expect("one write per step")(&metrics),
                            }
                        }
                        let (d, s) = (got[derived], got[source]);
                        assert!(
                            invariant(d, s),
                            "torn read {derived} = {d}, {source} = {s} during '{life}' \
                             (reads at steps {first} and {second})"
                        );
                    }
                }
            }
        }
    }
}
