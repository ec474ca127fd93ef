//! The HTTP server: accept loop, connection driving, and the job
//! runners that feed the work-stealing experiment executor.
//!
//! Concurrency model:
//!
//! * one **acceptor** (the caller of [`Server::run`]) hands each
//!   accepted connection to one of a few **reactor** event loops; each
//!   reactor multiplexes thousands of nonblocking connections over
//!   `epoll`, parsing requests and writing responses as sockets become
//!   ready;
//! * **light** endpoints (status lookups, streamed results, metrics)
//!   run inline on the reactor thread; **heavy** endpoints (submission
//!   parsing, point simulation, unbounded renders) are queued to a
//!   bounded **dispatch executor** — when that queue is full the
//!   reactor sheds the request with `429` + `Retry-After` instead of
//!   letting latency collapse;
//! * a small pool of **runner** threads drains the job queue; each job
//!   runs through the server's [`SpecRunner`] — the local one schedules
//!   grid points on a shared [`Executor`], a fleet coordinator shards
//!   them across workers — so grid points, not jobs, stay the unit of
//!   simulation parallelism;
//! * the **point endpoints** (`POST /v1/points`, `GET
//!   /v1/points/{fingerprint}`) make any server a fleet worker: one
//!   grid point in, exact-integer measurements out, answered from a
//!   bounded content-addressed point cache when possible;
//! * **graceful shutdown** ([`ServerHandle::shutdown`]) stops accepting
//!   connections and submissions, then drains: every job already
//!   accepted runs to completion (all its grid points) before
//!   [`Server::run`] returns. [`ServerHandle::kill`] is the opposite —
//!   an abrupt simulated crash for worker-loss testing.
//!
//! The reactor runs on `epoll`, so the server is Linux-only: elsewhere
//! the crate compiles unchanged (`sys` supplies stand-ins), but
//! [`Server::run`] returns [`std::io::ErrorKind::Unsupported`].

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use predllc_obs::series::registry_samples;
use predllc_obs::slo::Rule;
use predllc_obs::{
    fields, Collector, CollectorConfig, Compare, Counter, SeriesStore, SloRuntime, TraceCtx,
    TraceId, Tracer,
};

use predllc_explore::hash::Fingerprint;
use predllc_explore::report::{json_tail, render_attribution_json};
use predllc_explore::{run_spec_traced, Executor, ExperimentSpec, ExploreReport};

use predllc_core::ComponentSet;

use crate::api;
use crate::registry::{Job, JobResult, Metrics, Registry};

/// Continuous-monitoring configuration: when set on
/// [`ServerConfig::monitor`], the server runs an in-process
/// [`Collector`] that snapshots `/metrics` into ring-buffered
/// time-series, evaluates SLO rules on every tick, and serves
/// `GET /v1/metrics/history`, `GET /v1/alerts` and `GET /dashboard`.
/// History depth and the series cap are [`CollectorConfig`]'s defaults.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Collection interval.
    pub interval: Duration,
    /// SLO rules evaluated on every tick.
    pub rules: Vec<Rule>,
}

impl Default for MonitorConfig {
    /// One sample per second and the stock serve rules
    /// ([`default_rules`]).
    fn default() -> Self {
        MonitorConfig {
            interval: Duration::from_secs(1),
            rules: default_rules(),
        }
    }
}

impl MonitorConfig {
    /// The default monitor at a different collection interval.
    pub fn with_interval(interval: Duration) -> MonitorConfig {
        MonitorConfig {
            interval,
            ..MonitorConfig::default()
        }
    }
}

/// The stock serve SLO rules: sustained queue depth and sustained p99
/// request latency.
pub fn default_rules() -> Vec<Rule> {
    vec![
        Rule::threshold("queue-depth", "predllc_jobs_queued", Compare::Above, 100.0)
            .for_duration(Duration::from_secs(5)),
        // The p99 series is derived per endpoint by the collector from
        // the request-latency histogram; the family selector covers
        // every endpoint label. 500ms in nanoseconds.
        Rule::threshold(
            "p99-request-latency",
            "predllc_http_request_duration_ns_p99",
            Compare::Above,
            500_000_000.0,
        )
        .for_duration(Duration::from_secs(5)),
    ]
}

/// Events per shard in the trace ring of a server that creates its own
/// tracer (no [`ServerConfig::tracer`]). Far below [`Tracer::new`]'s
/// whole-run default: a long-lived server keeps only recent spans, so
/// its ring holds roughly 16 × 1024 events (~5 MB) instead of growing to
/// ~40 MB with every job it serves. Dropped events are counted in
/// `predllc_trace_dropped_total`.
pub const SERVER_TRACE_CAPACITY: usize = 1024;

/// The longest a `GET /v1/experiments/{id}?wait_ms=N` request is held:
/// a larger `N` is clamped to this, so a held request always ends.
pub(crate) const MAX_WAIT_MS: u64 = 30_000;

/// Upper bounds applied while reading a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Longest accepted request line (method + target + version), bytes.
    pub max_request_line: usize,
    /// Longest accepted single header line, bytes.
    pub max_header_line: usize,
    /// Most accepted headers.
    pub max_headers: usize,
    /// Largest accepted body, bytes.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 8 << 10,
            max_header_line: 8 << 10,
            max_headers: 64,
            // Experiment specs are small; 1 MiB leaves two orders of
            // magnitude of headroom.
            max_body: 1 << 20,
        }
    }
}

/// Tunables for a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads of the shared experiment [`Executor`] (`0` = one
    /// per available core).
    pub threads: usize,
    /// Concurrent job runners (jobs beyond this queue up).
    pub runners: usize,
    /// HTTP parsing bounds.
    pub limits: Limits,
    /// Per-connection idle read timeout; an idle keep-alive connection
    /// is closed after this long. This also bounds how long a peer may
    /// take to deliver one complete request — a slow-loris trickle does
    /// not reset the clock.
    pub idle_timeout: Duration,
    /// Most jobs the registry caches at once; past this the oldest
    /// finished job is evicted per new submission, and while every
    /// cached job is still queued or running, submissions are refused
    /// with `503`.
    pub max_jobs: usize,
    /// Most simultaneously open connections; excess connections are
    /// answered `503` and closed. Connections are cheap (no thread
    /// each), so the default is high.
    pub max_connections: usize,
    /// Most point measurements the shared point cache holds; past this
    /// the oldest entry is evicted (an evicted point simply
    /// re-simulates).
    pub max_points: usize,
    /// Fault injection for worker-loss tests: after this many point
    /// requests answered successfully, the next one crashes the server
    /// mid-response ([`ServerHandle::kill`] semantics — no response, no
    /// drain). `None` (the default) disables it.
    pub fail_after_points: Option<u64>,
    /// The tracer request/job spans record into. `None` (the default)
    /// gives the server its own, bounded to [`SERVER_TRACE_CAPACITY`]
    /// events per shard; pass one to share it with a fleet coordinator
    /// or to drain it into a `--trace-out` file.
    pub tracer: Option<Arc<Tracer>>,
    /// Continuous monitoring: time-series collection, SLO alerts and
    /// the dashboard. `None` (the default) disables the collector
    /// thread and the three monitoring endpoints answer `404`.
    pub monitor: Option<MonitorConfig>,
    /// Reactor event-loop threads (`0` = auto: one per four cores, at
    /// least one).
    pub reactors: usize,
    /// Dispatch-executor threads running heavy endpoints (`0` = auto:
    /// one per core, at least two).
    pub dispatchers: usize,
    /// Most requests waiting in the dispatch executor's queue; past
    /// this the reactor sheds new heavy requests with `429` +
    /// `Retry-After` instead of queueing them.
    pub max_dispatch_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 0,
            runners: 1,
            limits: Limits::default(),
            idle_timeout: Duration::from_secs(30),
            max_jobs: 1024,
            max_connections: 4096,
            max_points: 4096,
            fail_after_points: None,
            tracer: None,
            monitor: None,
            reactors: 0,
            dispatchers: 0,
            max_dispatch_queue: 1024,
        }
    }
}

/// How a server executes a whole experiment spec: locally on an
/// [`Executor`], or sharded across fleet workers by a coordinator.
///
/// Implementations must be deterministic functions of the spec — the
/// registry serves a job's rendered result forever, and a fleet
/// coordinator's contract is bit-identity with the local runner.
pub trait SpecRunner: Send + Sync {
    /// Runs `spec` end to end, reporting grid progress through
    /// `observe(done, unique_total)` (possibly from many threads) and
    /// recording its spans under `ctx` when one is given: the local
    /// executor's queue-wait/compute split, the fleet coordinator's
    /// dispatch pipeline. A runner that wraps another passes `ctx` on.
    /// Tracing never alters what is computed.
    ///
    /// # Errors
    ///
    /// The rendered failure message served by the job status endpoint —
    /// positioned (naming the failing configuration/workload) wherever
    /// the underlying error is.
    fn run_spec(
        &self,
        spec: &ExperimentSpec,
        observe: &(dyn Fn(usize, usize) + Sync),
        ctx: Option<TraceCtx<'_>>,
    ) -> Result<ExploreReport, String>;

    /// The thread count stamped into rendered JSON reports. A fleet
    /// coordinator reports `1` so documents are byte-identical across
    /// fleet shapes.
    fn threads_label(&self) -> usize;
}

/// The in-process [`SpecRunner`]: every grid point runs on this
/// server's own work-stealing [`Executor`].
pub struct LocalRunner {
    exec: Executor,
}

impl LocalRunner {
    /// A runner over `threads` executor threads (`0` = one per core).
    pub fn new(threads: usize) -> LocalRunner {
        LocalRunner {
            exec: Executor::new(threads),
        }
    }
}

impl SpecRunner for LocalRunner {
    fn run_spec(
        &self,
        spec: &ExperimentSpec,
        observe: &(dyn Fn(usize, usize) + Sync),
        ctx: Option<TraceCtx<'_>>,
    ) -> Result<ExploreReport, String> {
        run_spec_traced(spec, &self.exec, observe, ctx).map_err(|e| e.to_string())
    }

    fn threads_label(&self) -> usize {
        self.exec.threads()
    }
}

/// A bounded content-addressed point cache: fingerprint → value, with
/// FIFO eviction. Past `capacity` entries the oldest insertion is
/// dropped; an evicted point simply re-simulates on its next request.
///
/// Serve's point endpoints keep rendered measurement JSON here
/// (rendered once, served byte-identically forever); a fleet
/// coordinator keeps parsed measurements.
#[derive(Debug)]
pub struct PointCache<V> {
    by_fp: HashMap<Fingerprint, V>,
    /// Insertion order; eviction drops the oldest entry.
    order: VecDeque<Fingerprint>,
    capacity: usize,
}

impl<V> PointCache<V> {
    /// An empty cache holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> PointCache<V> {
        PointCache {
            by_fp: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// The value cached for `fp`, if any.
    pub fn get(&self, fp: &Fingerprint) -> Option<&V> {
        self.by_fp.get(fp)
    }

    /// Caches `value` under `fp`, evicting the oldest entry when full.
    /// A fingerprint already present keeps its first value (points are
    /// deterministic, so both are the same).
    pub fn insert(&mut self, fp: Fingerprint, value: V) {
        if self.by_fp.contains_key(&fp) {
            return;
        }
        if self.by_fp.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.by_fp.remove(&oldest);
            }
        }
        self.by_fp.insert(fp, value);
        self.order.push_back(fp);
    }
}

/// State shared by the acceptor, reactors, dispatch workers, runners
/// and handles.
pub(crate) struct Shared {
    pub(crate) registry: Registry,
    pub(crate) runner: Arc<dyn SpecRunner>,
    pub(crate) shutdown: AtomicBool,
    /// Set by [`ServerHandle::kill`] or the fault injector: the server
    /// died abruptly — drop connections, drain nothing.
    pub(crate) killed: AtomicBool,
    /// Present while the service accepts work; dropped on shutdown so
    /// runner threads drain the queue and exit.
    pub(crate) queue: Mutex<Option<mpsc::Sender<Arc<Job>>>>,
    pub(crate) limits: Limits,
    pub(crate) idle_timeout: Duration,
    /// Simultaneously open connections, bounded by `max_connections`.
    pub(crate) connections: AtomicUsize,
    pub(crate) max_connections: usize,
    /// Point measurements shared across workers of a fleet.
    pub(crate) points: Mutex<PointCache<String>>,
    /// See [`ServerConfig::fail_after_points`].
    pub(crate) fail_after_points: Option<u64>,
    /// Point requests answered successfully (the fault injector's
    /// odometer).
    pub(crate) points_answered: AtomicU64,
    /// Where request/job/point spans are recorded.
    pub(crate) tracer: Arc<Tracer>,
    /// Mirror of [`Tracer::dropped`] so ring overflow is visible on
    /// `/metrics`; refreshed before every render and collector tick.
    pub(crate) trace_dropped: Counter,
    /// The continuous-monitoring state, when configured.
    pub(crate) monitor: Option<MonitorState>,
    /// Our own bound address (the dashboard's title).
    pub(crate) addr: SocketAddr,
    /// Callbacks that nudge parked event loops (reactors blocked in
    /// `epoll_wait`, the acceptor) so they observe the shutdown/killed
    /// flags promptly.
    pub(crate) wakers: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
}

/// The running monitor: the collector's store and SLO runtime (shared
/// with the endpoints) plus the collector handle itself, parked here
/// so [`Server::run`] can stop the thread on exit.
pub(crate) struct MonitorState {
    pub(crate) store: Arc<SeriesStore>,
    pub(crate) slo: Arc<SloRuntime>,
    pub(crate) collector: Mutex<Option<Collector>>,
    pub(crate) interval_ms: u64,
}

/// Refreshes the `predllc_trace_dropped_total` mirror from the tracer.
pub(crate) fn refresh_trace_dropped(shared: &Shared) {
    shared.trace_dropped.set(shared.tracer.dropped());
}

/// Registers a callback invoked on shutdown and kill, so event loops
/// parked in `epoll_wait` wake and observe the flags.
pub(crate) fn register_waker(shared: &Shared, waker: Box<dyn Fn() + Send + Sync>) {
    shared.wakers.lock().unwrap().push(waker);
}

/// Nudges every registered event loop.
pub(crate) fn wake_all(shared: &Shared) {
    for waker in shared.wakers.lock().unwrap().iter() {
        waker();
    }
}

/// Simulates an abrupt crash: stop accepting, close the job queue, wake
/// the accept loop and every reactor. Idempotent.
pub(crate) fn kill_shared(shared: &Shared) {
    if shared.killed.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.queue.lock().unwrap().take();
    wake_all(shared);
}

/// One open connection's claim against `max_connections`: counts
/// itself in on construction (connection counter and the
/// `predllc_connections_open` gauge), counts itself out on drop.
///
/// Constructed by the *acceptor* before the connection is handed to a
/// reactor, so the count stays exact however the connection ends —
/// clean close, error, or handler panic.
pub(crate) struct ConnTicket {
    shared: Arc<Shared>,
}

impl ConnTicket {
    pub(crate) fn new(shared: &Arc<Shared>) -> ConnTicket {
        shared.connections.fetch_add(1, Ordering::SeqCst);
        shared.registry.metrics.connections_open.inc();
        ConnTicket {
            shared: Arc::clone(shared),
        }
    }

    /// Whether admitting this connection exceeded the configured cap
    /// (the acceptor answers `503` and drops the ticket).
    pub(crate) fn over_capacity(&self) -> bool {
        self.shared.connections.load(Ordering::SeqCst) > self.shared.max_connections
    }
}

impl Drop for ConnTicket {
    fn drop(&mut self) {
        self.shared.connections.fetch_sub(1, Ordering::SeqCst);
        self.shared.registry.metrics.connections_open.dec();
    }
}

/// Resolved reactor-mode tunables handed to the reactor.
#[derive(Debug, Clone)]
pub(crate) struct ReactorOptions {
    pub(crate) reactors: usize,
    pub(crate) dispatchers: usize,
    pub(crate) max_dispatch_queue: usize,
}

/// A running experiment service bound to a TCP address.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    pub(crate) shared: Arc<Shared>,
    queue_rx: mpsc::Receiver<Arc<Job>>,
    runners: usize,
    reactor: ReactorOptions,
}

/// A cloneable handle for talking to a running server from other
/// threads: trigger shutdown, read metrics, look jobs up.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl Server {
    /// Binds the service (pass port `0` for an ephemeral port, then read
    /// it back with [`Server::local_addr`]) with the in-process
    /// [`LocalRunner`].
    ///
    /// # Errors
    ///
    /// Any socket-level failure to bind.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        let runner = Arc::new(LocalRunner::new(config.threads));
        Server::bind_with(addr, config, runner, Arc::new(Metrics::default()))
    }

    /// Like [`Server::bind`], with an explicit [`SpecRunner`] and an
    /// externally owned counter set — how a fleet coordinator serves
    /// the experiment API over its dispatch layer while `/metrics`
    /// reports both sides.
    ///
    /// # Errors
    ///
    /// Any socket-level failure to bind.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        runner: Arc<dyn SpecRunner>,
        metrics: Arc<Metrics>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (tx, rx) = mpsc::channel();
        let tracer = config
            .tracer
            .unwrap_or_else(|| Arc::new(Tracer::with_capacity(SERVER_TRACE_CAPACITY)));
        let trace_dropped = metrics.registry.counter(
            "predllc_trace_dropped_total",
            "Trace events dropped because a tracer ring buffer was full.",
        );
        let alerts_firing = metrics
            .registry
            .gauge("predllc_alerts_firing", "SLO rules currently firing.");
        let monitor = config.monitor.map(|mc| {
            let slo = Arc::new(
                SloRuntime::new(mc.rules)
                    .with_gauge(alerts_firing)
                    .with_tracer(Arc::clone(&tracer), TraceId::fresh()),
            );
            let sampler = {
                let metrics = Arc::clone(&metrics);
                let tracer = Arc::clone(&tracer);
                let trace_dropped = trace_dropped.clone();
                move || {
                    trace_dropped.set(tracer.dropped());
                    registry_samples(&metrics.registry)
                }
            };
            let collector = Collector::start(
                CollectorConfig {
                    interval: mc.interval,
                    ..CollectorConfig::default()
                },
                sampler,
                Some(Arc::clone(&slo)),
            );
            MonitorState {
                store: collector.store(),
                slo,
                collector: Mutex::new(Some(collector)),
                interval_ms: u64::try_from(mc.interval.as_millis()).unwrap_or(u64::MAX),
            }
        });
        let shared = Arc::new(Shared {
            registry: Registry::new(config.max_jobs, metrics),
            runner,
            shutdown: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            queue: Mutex::new(Some(tx)),
            limits: config.limits,
            idle_timeout: config.idle_timeout,
            connections: AtomicUsize::new(0),
            max_connections: config.max_connections.max(1),
            points: Mutex::new(PointCache::new(config.max_points)),
            fail_after_points: config.fail_after_points,
            points_answered: AtomicU64::new(0),
            tracer,
            trace_dropped,
            monitor,
            addr,
            wakers: Mutex::new(Vec::new()),
        });
        Ok(Server {
            listener,
            addr,
            shared,
            queue_rx: rx,
            runners: config.runners.max(1),
            reactor: ReactorOptions {
                reactors: config.reactors,
                dispatchers: config.dispatchers,
                max_dispatch_queue: config.max_dispatch_queue.max(1),
            },
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle usable from other threads while (and after) the server
    /// runs.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
        }
    }

    /// Serves until [`ServerHandle::shutdown`] is called, then drains:
    /// runner threads finish every accepted job (all in-flight grid
    /// points) before this returns.
    ///
    /// # Errors
    ///
    /// Fatal failures to start or run the reactor (its eventfds,
    /// epolls, threads or accept loop) only; per-connection errors are
    /// answered on the wire and logged to stderr. Off Linux,
    /// [`std::io::ErrorKind::Unsupported`] at once: the reactor needs
    /// `epoll`. Accepted jobs drain either way.
    pub fn run(self) -> std::io::Result<()> {
        let mut runner_handles = Vec::with_capacity(self.runners);
        let queue_rx = Arc::new(Mutex::new(self.queue_rx));
        for _ in 0..self.runners {
            let shared = Arc::clone(&self.shared);
            let rx = Arc::clone(&queue_rx);
            runner_handles.push(std::thread::spawn(move || run_jobs(&shared, &rx)));
        }

        let router = Arc::new(api::build_router(&self.shared));
        let served = crate::reactor::serve(self.listener, &self.shared, router, &self.reactor);
        // Nothing submits work once serving ended, however it ended:
        // close the queue so the runners drain it and exit.
        self.shared.queue.lock().unwrap().take();

        // Drain: joining the runners waits for every accepted job.
        for h in runner_handles {
            let _ = h.join();
        }
        // Stop the monitor collector last: its thread joins on drop.
        if let Some(monitor) = &self.shared.monitor {
            monitor.collector.lock().unwrap().take();
        }
        served
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful shutdown: no new connections or submissions;
    /// accepted jobs drain. Idempotent.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Closing the queue lets runner threads exit once drained.
        self.shared.queue.lock().unwrap().take();
        // Wake the parked reactors and the accept loop, so they observe
        // the flag.
        wake_all(&self.shared);
    }

    /// Simulates an abrupt crash for worker-loss testing: the server
    /// stops accepting, drops connections without responses and drains
    /// nothing — the opposite of [`ServerHandle::shutdown`]. Idempotent.
    pub fn kill(&self) {
        kill_shared(&self.shared);
    }

    /// Whether the server was killed (by [`ServerHandle::kill`] or the
    /// [`ServerConfig::fail_after_points`] fault injector).
    pub fn was_killed(&self) -> bool {
        self.shared.killed.load(Ordering::SeqCst)
    }

    /// The service metric set (shared with a fleet coordinator's
    /// dispatch loop when one runs behind this server); read a series
    /// with its handle's `get`.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.registry.metrics)
    }

    /// The server's tracer (the one passed via [`ServerConfig::tracer`]
    /// when supplied) — drain it into a `--trace-out` file, or inspect
    /// spans in tests.
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.shared.tracer)
    }

    /// Looks a job up by its hex id.
    pub fn job(&self, hex_id: &str) -> Option<Arc<Job>> {
        self.shared.registry.get(hex_id)
    }

    /// Every SLO rule's current status, when monitoring is configured.
    pub fn alert_statuses(&self) -> Option<Vec<predllc_obs::AlertStatus>> {
        self.shared.monitor.as_ref().map(|m| m.slo.statuses())
    }
}

/// The runner loop: take jobs until the queue closes, run each through
/// the server's [`SpecRunner`], park the grid in the registry.
fn run_jobs(shared: &Shared, rx: &Mutex<mpsc::Receiver<Arc<Job>>>) {
    loop {
        // Hold the receiver lock only while waiting for the next job so
        // sibling runners can wait too.
        let job = match rx.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return, // queue closed and drained
        };
        if shared.killed.load(Ordering::SeqCst) {
            // A crashed server runs nothing; unregister the job.
            shared.registry.abandon(&job, "service was killed");
            continue;
        }
        let metrics = &shared.registry.metrics;
        job.start();
        // Gauge transitions run dec-before-inc (snapshot discipline).
        metrics.jobs_queued.dec();
        metrics.jobs_running.inc();
        let queue_wait = job.submitted.elapsed();
        metrics
            .registry
            .histogram(
                "predllc_job_queue_wait_ns",
                "Time a job waited between submission and a runner picking it up, nanoseconds.",
            )
            .record(queue_wait);
        let ctx = TraceCtx::new(&shared.tracer, job.trace);
        ctx.instant(
            "serve.job.dequeued",
            fields(&[
                ("job", job.id.to_hex().into()),
                ("queue_wait_ns", duration_ns(queue_wait).into()),
            ]),
        );
        let observe = |done: usize, _total: usize| job.record_progress(done);
        let outcome = {
            let _span = ctx.span("serve.job.run", fields(&[("job", job.id.to_hex().into())]));
            shared.runner.run_spec(&job.spec, &observe, Some(ctx))
        };
        match outcome {
            Ok(report) => {
                // The grid rows themselves are what the registry caches;
                // result documents render lazily, chunk by chunk, when a
                // client asks — identical submissions still yield
                // identical documents (no wall time in the JSON).
                for row in &report.grid {
                    if let Some(attr) = &row.attribution {
                        record_component_cycles(metrics, &attr.components);
                    }
                }
                let attribution = job
                    .spec
                    .attribution
                    .then(|| Arc::new(render_attribution_json(&job.spec.name, &report.grid)));
                let result = JobResult {
                    name: job.spec.name.clone(),
                    threads_label: shared.runner.threads_label(),
                    grid: Arc::new(report.grid),
                    json_tail: json_tail(report.search.as_ref()),
                    attribution,
                    unique_points: report.unique_points,
                };
                metrics.points_simulated.add(result.unique_points as u64);
                metrics.jobs_running.dec();
                metrics.jobs_done.inc();
                job.finish(result);
            }
            Err(e) => {
                metrics.jobs_running.dec();
                metrics.jobs_failed.inc();
                job.fail(e);
            }
        }
    }
}

/// `Duration` → saturated nanoseconds.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Feeds an attributed measurement's exact per-component cycle totals
/// into the `predllc_latency_component_cycles{component="..."}` counter
/// family — the scrape/history/dashboard view of "where did my cycles
/// go". Attribution-off runs never touch the family, so the exposition
/// is unchanged for them.
pub(crate) fn record_component_cycles(metrics: &Metrics, components: &ComponentSet) {
    for (component, cycles) in components.iter() {
        metrics
            .registry
            .counter_with(
                "predllc_latency_component_cycles",
                "Exact simulated cycles attributed to each latency component.",
                "component",
                component.label(),
            )
            .add(cycles.as_u64());
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::client::{Client, Format};
    use crate::registry::JobStatus;

    const SPEC: &str = r#"{
        "name": "server-test", "cores": 2,
        "configs": [{"partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}}],
        "workloads": [{"kind": "uniform", "range_bytes": 1024, "ops": 60, "seed": 5}]
    }"#;

    fn start(config: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
        let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().expect("serve"));
        (handle, join)
    }

    #[test]
    fn serves_health_metrics_and_a_job_end_to_end() {
        let (handle, join) = start(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        });
        let mut client = Client::new(handle.addr());
        assert_eq!(client.healthz().unwrap(), "ok\n");

        let submitted = client.submit(SPEC).unwrap();
        assert!(!submitted.cached);
        let done = client
            .wait_done(&submitted.id, Duration::from_secs(120))
            .unwrap();
        assert_eq!(done.status, "done");
        assert_eq!(done.points_done, done.points_total);
        let csv = client
            .results(&submitted.id, Format::Csv)
            .unwrap()
            .text()
            .unwrap();
        assert!(csv.starts_with("config,workload,backend,"));
        let metrics = client.metrics().unwrap();
        assert!(metrics.contains("predllc_jobs_done 1"));

        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let (handle, join) = start(ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        });
        let mut client = Client::new(handle.addr());
        let a = client.submit(SPEC).unwrap();
        let b = client
            .submit(&SPEC.replace("\"seed\": 5", "\"seed\": 6"))
            .unwrap();
        assert_ne!(a.id, b.id);
        // Shut down immediately: both accepted jobs must still finish.
        handle.shutdown();
        join.join().unwrap();
        for id in [&a.id, &b.id] {
            let job = handle.job(id).expect("job registered");
            assert_eq!(job.status(), JobStatus::Done, "job {id} did not drain");
        }
        let m = handle.metrics();
        assert_eq!(m.jobs_done.get(), 2);
        assert_eq!(m.jobs_running.get(), 0);
        assert_eq!(m.jobs_queued.get(), 0);
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let (handle, join) = start(ServerConfig::default());
        handle.shutdown();
        join.join().unwrap();
        // The listener is gone; a fresh client cannot connect at all, or
        // (if racing the close) gets a 503 — either way, no job.
        let mut client = Client::new(handle.addr());
        assert!(client.submit(SPEC).is_err());
        assert_eq!(handle.metrics().cache_misses.get(), 0);
    }
}
