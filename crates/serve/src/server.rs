//! The HTTP server: accept loop, connection driving, and the job
//! runners that feed the work-stealing experiment executor.
//!
//! Concurrency model (reactor mode, the default on Linux):
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
//! Off Linux, where there is no `epoll`, a blocking accept loop serves
//! instead — one detached thread per connection, every endpoint inline.
//! Both drive the same internal `api` router, so every served byte is
//! identical across platforms.

use std::collections::{HashMap, VecDeque};
#[cfg(not(target_os = "linux"))]
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
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
use predllc_explore::report::render_attribution_json;
use predllc_explore::{
    run_spec_observed, run_spec_traced, Executor, ExperimentSpec, GridResult, SearchOutcome,
};

use predllc_core::ComponentSet;

use crate::api;
#[cfg(not(target_os = "linux"))]
use crate::handler::{Dispatch, Router};
use crate::http::Limits;
#[cfg(not(target_os = "linux"))]
use crate::http::{read_request, write_response, HttpError};
use crate::registry::{Job, JobResult, Metrics, MetricsSnapshot, Registry};

/// Continuous-monitoring configuration: when set on
/// [`ServerConfig::monitor`], the server runs an in-process
/// [`Collector`] that snapshots `/metrics` into ring-buffered
/// time-series, evaluates SLO rules on every tick, and serves
/// `GET /v1/metrics/history`, `GET /v1/alerts` and `GET /dashboard`.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Collection interval.
    pub interval: Duration,
    /// Samples kept per series (drop-oldest past this).
    pub capacity: usize,
    /// Maximum distinct series collected.
    pub max_series: usize,
    /// SLO rules evaluated on every tick.
    pub rules: Vec<Rule>,
}

impl Default for MonitorConfig {
    /// One sample per second, ten minutes of history, and the stock
    /// serve rules ([`default_rules`]).
    fn default() -> Self {
        MonitorConfig {
            interval: Duration::from_secs(1),
            capacity: 600,
            max_series: 512,
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
    /// is closed after this long. In reactor mode this also bounds how
    /// long a peer may take to deliver one complete request — a
    /// slow-loris trickle does not reset the clock.
    pub idle_timeout: Duration,
    /// Most jobs the registry caches at once; past this the oldest
    /// finished job is evicted per new submission (see
    /// [`Registry::with_capacity`]).
    pub max_jobs: usize,
    /// Most simultaneously open connections; excess connections are
    /// answered `503` and closed. Connections are cheap in reactor mode
    /// (no thread each), so the default is high.
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
    /// gives the server its own; pass one to share it with a fleet
    /// coordinator or to drain it into a `--trace-out` file.
    pub tracer: Option<Arc<Tracer>>,
    /// Continuous monitoring: time-series collection, SLO alerts and
    /// the dashboard. `None` (the default) disables the collector
    /// thread and the three monitoring endpoints answer `404`.
    pub monitor: Option<MonitorConfig>,
    /// Reactor event-loop threads in reactor mode (`0` = auto: one per
    /// four cores, at least one).
    pub reactors: usize,
    /// Dispatch-executor threads running heavy endpoints in reactor
    /// mode (`0` = auto: one per core, at least two).
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

/// The outcome of running one experiment spec, however it was executed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// One result per declared grid point, declaration order.
    pub grid: Vec<GridResult>,
    /// The partition-search outcome, when the spec declared one.
    pub search: Option<SearchOutcome>,
    /// Physically distinct grid points resolved.
    pub unique_points: usize,
}

/// How a server executes a whole experiment spec: locally on an
/// [`Executor`], or sharded across fleet workers by a coordinator.
///
/// Implementations must be deterministic functions of the spec — the
/// registry serves a job's rendered result forever, and a fleet
/// coordinator's contract is bit-identity with the local runner.
pub trait SpecRunner: Send + Sync {
    /// Runs `spec` end to end, reporting grid progress through
    /// `observe(done, unique_total)` (possibly from many threads).
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
    ) -> Result<RunOutcome, String>;

    /// Like [`SpecRunner::run_spec`], recording spans under `ctx`
    /// (when given) as the run progresses. The default forwards to
    /// `run_spec` and records nothing extra; runners with interesting
    /// internal stages — the local executor's queue-wait/compute
    /// split, the fleet coordinator's dispatch pipeline — override it.
    /// Tracing never alters what is computed.
    fn run_spec_traced(
        &self,
        spec: &ExperimentSpec,
        observe: &(dyn Fn(usize, usize) + Sync),
        ctx: Option<TraceCtx<'_>>,
    ) -> Result<RunOutcome, String> {
        let _ = ctx;
        self.run_spec(spec, observe)
    }

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
    ) -> Result<RunOutcome, String> {
        let report = run_spec_observed(spec, &self.exec, observe).map_err(|e| e.to_string())?;
        Ok(RunOutcome {
            grid: report.grid,
            search: report.search,
            unique_points: report.unique_points,
        })
    }

    fn run_spec_traced(
        &self,
        spec: &ExperimentSpec,
        observe: &(dyn Fn(usize, usize) + Sync),
        ctx: Option<TraceCtx<'_>>,
    ) -> Result<RunOutcome, String> {
        let report = run_spec_traced(spec, &self.exec, observe, ctx).map_err(|e| e.to_string())?;
        Ok(RunOutcome {
            grid: report.grid,
            search: report.search,
            unique_points: report.unique_points,
        })
    }

    fn threads_label(&self) -> usize {
        self.exec.threads()
    }
}

/// The bounded content-addressed point cache shared by the point
/// endpoints: fingerprint → rendered measurement JSON (rendered once,
/// served byte-identically forever).
pub(crate) struct PointCache {
    by_fp: HashMap<Fingerprint, String>,
    /// Insertion order; eviction drops the oldest entry.
    order: VecDeque<Fingerprint>,
    capacity: usize,
}

impl PointCache {
    fn new(capacity: usize) -> PointCache {
        PointCache {
            by_fp: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn get(&self, fp: &Fingerprint) -> Option<&str> {
        self.by_fp.get(fp).map(String::as_str)
    }

    pub(crate) fn insert(&mut self, fp: Fingerprint, rendered: String) {
        if self.by_fp.contains_key(&fp) {
            return;
        }
        if self.by_fp.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.by_fp.remove(&oldest);
            }
        }
        self.by_fp.insert(fp, rendered);
        self.order.push_back(fp);
    }
}

/// State shared by the acceptor, reactors, dispatch workers, connection
/// threads, runners and handles.
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
    pub(crate) points: Mutex<PointCache>,
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
    /// Our own bound address, to wake the accept loop on kill.
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
#[cfg(target_os = "linux")]
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
    let _ = TcpStream::connect(shared.addr);
}

/// One open connection's claim against `max_connections`: counts
/// itself in on construction (connection counter and the
/// `predllc_connections_open` gauge), counts itself out on drop.
///
/// Constructed by the *acceptor* before the connection is handed to a
/// thread or reactor, so the count stays exact however the connection
/// ends — clean close, error, or handler panic.
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
#[cfg(target_os = "linux")]
pub(crate) struct ReactorOptions {
    pub(crate) reactors: usize,
    pub(crate) dispatchers: usize,
    pub(crate) max_dispatch_queue: usize,
}

/// A running experiment service bound to a TCP address.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    queue_rx: mpsc::Receiver<Arc<Job>>,
    runners: usize,
    #[cfg(target_os = "linux")]
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
        let tracer = config.tracer.unwrap_or_else(|| Arc::new(Tracer::new()));
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
                    capacity: mc.capacity,
                    max_series: mc.max_series,
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
            registry: Registry::with_metrics(config.max_jobs, metrics),
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
            #[cfg(target_os = "linux")]
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
    /// Fatal accept-loop failures only; per-connection errors are
    /// answered on the wire and logged to stderr.
    pub fn run(self) -> std::io::Result<()> {
        let mut runner_handles = Vec::with_capacity(self.runners);
        let queue_rx = Arc::new(Mutex::new(self.queue_rx));
        for _ in 0..self.runners {
            let shared = Arc::clone(&self.shared);
            let rx = Arc::clone(&queue_rx);
            runner_handles.push(std::thread::spawn(move || run_jobs(&shared, &rx)));
        }

        let router = Arc::new(api::build_router(&self.shared));
        #[cfg(target_os = "linux")]
        let served = crate::reactor::serve(self.listener, &self.shared, router, &self.reactor);
        #[cfg(not(target_os = "linux"))]
        let served = {
            serve_blocking(&self.listener, &self.shared, &router);
            Ok(())
        };

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

/// The blocking accept loop (platforms without `epoll`): one detached
/// thread per admitted connection.
#[cfg(not(target_os = "linux"))]
fn serve_blocking(listener: &TcpListener, shared: &Arc<Shared>, router: &Arc<Router>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) || shared.killed.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(mut stream) => {
                // The ticket is taken on the acceptor, not inside the
                // spawned thread, so the connection count stays exact
                // even when a handler panics the thread.
                let ticket = ConnTicket::new(shared);
                if ticket.over_capacity() {
                    let _ = write_response(
                        &mut stream,
                        api::error_response(503, "unavailable", "too many connections"),
                        false,
                    );
                    continue;
                }
                let shared = Arc::clone(shared);
                let router = Arc::clone(router);
                std::thread::spawn(move || serve_connection(&shared, &router, ticket, stream));
            }
            Err(e) => eprintln!("predllc-serve: accept failed: {e}"),
        }
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
        // Wake parked reactors, then the accept loop, so both observe
        // the flag.
        wake_all(&self.shared);
        let _ = TcpStream::connect(self.addr);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
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

    /// A point-in-time copy of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.registry.metrics.snapshot()
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

    /// The monitor's time-series store, when monitoring is configured
    /// — lets tests and embedders read collected history directly.
    pub fn series_store(&self) -> Option<Arc<SeriesStore>> {
        self.shared.monitor.as_ref().map(|m| Arc::clone(&m.store))
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
            shared
                .runner
                .run_spec_traced(&job.spec, &observe, Some(ctx))
        };
        match outcome {
            Ok(outcome) => {
                // The grid rows themselves are what the registry caches;
                // result documents render lazily, chunk by chunk, when a
                // client asks — identical submissions still yield
                // identical documents (no wall time in the JSON).
                for row in &outcome.grid {
                    if let Some(attr) = &row.attribution {
                        record_component_cycles(metrics, &attr.components);
                    }
                }
                let attribution = job
                    .spec
                    .attribution
                    .then(|| Arc::new(render_attribution_json(&job.spec.name, &outcome.grid)));
                let result = JobResult {
                    name: job.spec.name.clone(),
                    threads_label: shared.runner.threads_label(),
                    grid: Arc::new(outcome.grid),
                    search: outcome.search,
                    attribution,
                    unique_points: outcome.unique_points,
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

/// Serves one connection in blocking mode: a keep-alive loop of
/// request → dispatch → response, everything inline on this thread.
#[cfg(not(target_os = "linux"))]
fn serve_connection(shared: &Shared, router: &Router, ticket: ConnTicket, stream: TcpStream) {
    let _ticket = ticket;
    let _ = stream.set_read_timeout(Some(shared.idle_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader, &shared.limits) {
            Ok(Some(req)) => req,
            Ok(None) => return,              // clean close between requests
            Err(HttpError::Io(_)) => return, // peer gone or idle timeout
            Err(e) => {
                if let Some(resp) = api::parse_error_response(&e) {
                    let _ = write_response(&mut writer, resp, false);
                }
                return;
            }
        };
        match api::dispatch(shared, router, &request) {
            Dispatch::Hangup => return, // killed, or the fault injector tripped
            Dispatch::Reply(response) => {
                let keep_alive = request.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
                // HTTP/1.0 peers don't speak chunked framing; collapse
                // streams to content-length for them.
                let response = if request.http11 {
                    response
                } else {
                    response.materialized()
                };
                if write_response(&mut writer, response, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
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
        assert_eq!(m.jobs_done, 2);
        assert_eq!(m.jobs_running, 0);
        assert_eq!(m.jobs_queued, 0);
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let (handle, join) = start(ServerConfig::default());
        handle.shutdown();
        join.join().unwrap();
        assert!(handle.is_shutting_down());
        // The listener is gone; a fresh client cannot connect at all, or
        // (if racing the close) gets a 503 — either way, no job.
        let mut client = Client::new(handle.addr());
        assert!(client.submit(SPEC).is_err());
        assert_eq!(handle.metrics().cache_misses, 0);
    }
}
