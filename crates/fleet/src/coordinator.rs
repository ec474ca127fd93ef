//! The coordinator: shard a spec's run groups across worker services,
//! survive worker loss, merge results bit-identically.
//!
//! A run schedules the run groups of [`plan_grid`] — the same dedup and
//! the same groups the in-process grid measures — with the in-process
//! grid's own scheduler, [`measure_runs`], on an [`Executor`] with one
//! thread per live worker. The coordinator cache is read once, as the
//! run begins; a group's job takes a worker from the run's pool and
//! ships the group's points that cache did not hold, as planned, as one
//! [`PointRequest`] naming their configurations in ascending order (the
//! first as `config`, the rest as `twins`). The worker checks that they
//! share a run group and measures them with one `measure` call; the
//! coordinator does not know what may differ inside a group:
//! `plan_grid` decides that. A reply must answer exactly the shipped
//! points, in order, by fingerprint. A worker that stops answering —
//! connection refused, reset mid-request, failed heartbeat, or a reply
//! for other points — is marked **lost** and leaves the pool, and the
//! job ships its group again on the next free worker. Losing every
//! worker with work still pending fails the run with
//! [`FleetError::NoWorkers`] instead of hanging.
//!
//! Everything a caller observes stays per point: both caches, progress,
//! the `fleet.point.resolved` instants, the point counters of
//! [`Metrics`] and error positioning (a worker's `422` names the failing
//! member, and the lowest failing unique index wins, as in a local
//! run).
//!
//! Merging cannot introduce drift because nothing numeric is merged:
//! workers ship exact integers ([`PointMeasurement`]), and the
//! coordinator derives the declared rows with [`grid_rows`], the
//! arithmetic the in-process grid uses. Which worker computed a point,
//! and in what order, is unobservable in the output.

use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use predllc_explore::json::{self, Json};
use predllc_explore::{
    build_platforms, grid_rows, measure_runs, plan_grid, point_fingerprint, search_partitions,
    Executor, ExperimentSpec, ExploreError, ExploreReport, Fingerprint, PointMeasurement,
    PointRequest,
};
use predllc_obs::expo::{self, ExpoValue};
use predllc_obs::{fields, Compare, Rule, TraceCtx};
use predllc_serve::{
    Client, ClientError, Metrics, PointCache, PointReply, ServerConfig, SpecRunner,
};

/// Why a fleet run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// A failure detected on the coordinator itself: spec validation,
    /// platform building, or the (always-local) partition search.
    Local(ExploreError),
    /// A worker rejected one grid point as unrunnable (`422`) — the
    /// positioned equivalent of the in-process simulation failure.
    Point {
        /// The failing configuration's label.
        config: String,
        /// The failing workload's label.
        workload: String,
        /// `"config"` or `"sim"` (which stage refused).
        kind: String,
        /// The worker's error message.
        message: String,
    },
    /// Every worker was lost while grid points were still unresolved.
    NoWorkers {
        /// Unique grid points left unmeasured.
        pending: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Local(e) => write!(f, "{e}"),
            // Mirror the in-process error wording so a job fails with
            // the same message whether it ran locally or on a fleet.
            FleetError::Point {
                config,
                workload,
                kind,
                message,
            } => match kind.as_str() {
                "config" => write!(f, "configuration '{config}' is invalid: {message}"),
                _ => write!(f, "grid point '{config}' x '{workload}' failed: {message}"),
            },
            FleetError::NoWorkers { pending } => write!(
                f,
                "fleet has no live workers ({pending} grid points unresolved)"
            ),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Local(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExploreError> for FleetError {
    fn from(e: ExploreError) -> Self {
        FleetError::Local(e)
    }
}

/// Coordinator tunables.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Per-point request read timeout on worker connections.
    pub request_timeout: Duration,
    /// Transport retries per request before a worker counts as lost
    /// (see [`Client::with_retries`]).
    pub retries: u32,
    /// How often the heartbeat thread probes each worker's `/healthz`.
    pub heartbeat_interval: Duration,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            request_timeout: Duration::from_secs(120),
            retries: 4,
            heartbeat_interval: Duration::from_millis(250),
        }
    }
}

/// One worker endpoint and whether the coordinator still believes in
/// it. Loss is permanent for the coordinator's lifetime — a recovered
/// worker rejoins as a new coordinator entry, not silently.
struct Worker {
    addr: SocketAddr,
    alive: AtomicBool,
}

/// The workers of one run, each with its keep-alive [`Client`]; a
/// group's job takes one per request. One monitor, whose invariant is
/// idle + busy + lost = the live workers the run began with:
/// [`Pool::take`] moves a worker from idle to busy (or drops one the
/// heartbeat lost), [`Pool::give`] from busy to idle or lost. So `take`
/// may wait while a worker is busy, and answers `None` once none is
/// idle or busy: no worker can come back then.
struct Pool<'a> {
    state: Mutex<PoolState<'a>>,
    /// Signalled when a worker comes back or is lost, and at the end.
    cond: Condvar,
}

const POOL_POISONED: &str = "a thread panicked holding the worker pool";

struct PoolState<'a> {
    idle: Vec<(&'a Worker, Client)>,
    busy: usize,
    /// Set once every group is measured or failed. It lives under the
    /// lock the heartbeat waits on, so the heartbeat cannot miss the
    /// wake-up and sleep out its interval.
    done: bool,
}

impl<'a> Pool<'a> {
    /// The live worker idle longest, waiting while any worker is busy;
    /// `None` once none is left.
    fn take(&self) -> Option<(&'a Worker, Client)> {
        let mut st = self.state.lock().expect(POOL_POISONED);
        loop {
            while !st.idle.is_empty() {
                let (worker, client) = st.idle.remove(0);
                // An idle worker the heartbeat lost leaves the pool here.
                if worker.alive.load(Ordering::SeqCst) {
                    st.busy += 1;
                    return Some((worker, client));
                }
            }
            if st.busy == 0 {
                return None;
            }
            st = self.cond.wait(st).expect(POOL_POISONED);
        }
    }

    /// Returns a worker [`Pool::take`] gave out, after its request:
    /// `Some` to idle, `None` when it was lost.
    fn give(&self, worker: Option<(&'a Worker, Client)>) {
        let mut st = self.state.lock().expect(POOL_POISONED);
        st.busy -= 1;
        st.idle.extend(worker);
        drop(st);
        self.cond.notify_all();
    }

    /// Ends the run: wakes the heartbeat.
    fn finish(&self) {
        self.state.lock().expect(POOL_POISONED).done = true;
        self.cond.notify_all();
    }
}

/// What every group's job of one coordinator run shares, borrowed for
/// its duration.
struct Run<'a> {
    spec: &'a ExperimentSpec,
    /// The plan's unique points.
    unique: &'a [(usize, usize)],
    /// Each unique point's [`point_fingerprint`], its cache key.
    fingerprints: &'a [Fingerprint],
    pool: Pool<'a>,
    /// Unique points resolved so far, from the cache or a worker.
    resolved: AtomicUsize,
    observe: &'a (dyn Fn(usize, usize) + Sync),
    ctx: Option<TraceCtx<'a>>,
}

/// The fleet coordinator: owns the worker list and the shared point
/// cache. One coordinator serves many runs; its point cache carries
/// measurements across them.
pub struct Coordinator {
    workers: Vec<Worker>,
    config: CoordinatorConfig,
    metrics: Arc<Metrics>,
    /// Coordinator-side point cache: fingerprints resolved by any
    /// earlier run (whichever worker computed them), bounded like a
    /// worker's own point cache at its default capacity.
    cache: Mutex<PointCache<PointMeasurement>>,
    /// Epoch for the per-worker scrape-freshness gauge: scrape
    /// timestamps are milliseconds since coordinator construction, so
    /// they stay monotonic and wall-clock-free.
    scrape_epoch: Instant,
}

impl Coordinator {
    /// A coordinator over `workers`, reporting into `metrics` (share
    /// the instance with a [`predllc_serve::Server`] via
    /// `Server::bind_with` so `/metrics` shows fleet counters).
    pub fn new(
        workers: impl IntoIterator<Item = SocketAddr>,
        config: CoordinatorConfig,
        metrics: Arc<Metrics>,
    ) -> Coordinator {
        let workers: Vec<Worker> = workers
            .into_iter()
            .map(|addr| Worker {
                addr,
                alive: AtomicBool::new(true),
            })
            .collect();
        metrics.workers_alive.set(workers.len() as u64);
        Coordinator {
            workers,
            config,
            metrics,
            cache: Mutex::new(PointCache::new(ServerConfig::default().max_points)),
            scrape_epoch: Instant::now(),
        }
    }

    /// Workers the coordinator was built with.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Workers not yet declared lost.
    pub fn live_workers(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.alive.load(Ordering::SeqCst))
            .count()
    }

    /// Runs `spec` across the fleet: its run groups are sharded over
    /// live workers, measurements merge on the coordinator, the
    /// partition search (when declared) runs locally. The report is
    /// **bit-identical** to `predllc_explore::run_spec` — same rows,
    /// same floats, same order — whatever the fleet shape and whichever
    /// workers died along the way.
    ///
    /// `observe(done, unique_total)` fires as unique points resolve,
    /// like the in-process grid's progress hook: the points the
    /// coordinator cache answers first, in one call. Under `ctx` (when
    /// given) the run records its dispatch and merge spans; tracing
    /// reads wall-clock time only, so the report is bit-identical to an
    /// untraced run.
    ///
    /// # Errors
    ///
    /// [`FleetError::Local`] for coordinator-side failures,
    /// [`FleetError::Point`] when a worker positions one grid point as
    /// unrunnable, [`FleetError::NoWorkers`] when every worker is lost
    /// with work pending.
    pub fn run(
        &self,
        spec: &ExperimentSpec,
        observe: &(dyn Fn(usize, usize) + Sync),
        ctx: Option<TraceCtx<'_>>,
    ) -> Result<ExploreReport, FleetError> {
        let platforms = build_platforms(spec)?;
        let plan = plan_grid(spec);
        let total = plan.unique.len();
        let fingerprints: Vec<Fingerprint> = plan
            .unique
            .iter()
            .map(|&(ci, wi)| {
                point_fingerprint(
                    spec.cores,
                    &spec.configs[ci],
                    &spec.workloads[wi],
                    spec.attribution,
                )
            })
            .collect();
        // One read of the coordinator cache, as the run begins: the
        // run's own inserts may evict a point found here, which must
        // still count as found rather than ship.
        let cached: Vec<Option<PointMeasurement>> = {
            let cache = self.cache.lock().unwrap();
            fingerprints
                .iter()
                .map(|fp| cache.get(fp).cloned())
                .collect()
        };
        let hits = cached.iter().flatten().count();
        self.metrics.points_cache_shared.add(hits as u64);
        if hits > 0 {
            observe(hits, total);
        }

        let measured = if hits == total {
            // Answered in full: no request, no heartbeat.
            cached.into_iter().flatten().collect()
        } else {
            let idle: Vec<(&Worker, Client)> = self
                .workers
                .iter()
                .filter(|w| w.alive.load(Ordering::SeqCst))
                .map(|w| {
                    let mut client = Client::new(w.addr)
                        .with_timeout(self.config.request_timeout)
                        .with_retries(self.config.retries);
                    // Worker-side spans record under the same trace id
                    // as ours.
                    client.set_trace(ctx.map(|c| c.trace));
                    (w, client)
                })
                .collect();
            let exec = Executor::new(idle.len().max(1));
            let run = Run {
                spec,
                unique: &plan.unique,
                fingerprints: &fingerprints,
                pool: Pool {
                    state: Mutex::new(PoolState {
                        idle,
                        busy: 0,
                        done: false,
                    }),
                    cond: Condvar::new(),
                },
                resolved: AtomicUsize::new(hits),
                observe,
                ctx,
            };
            std::thread::scope(|s| {
                s.spawn(|| self.heartbeat(&run.pool));
                let measured = measure_runs(&plan, &exec, |members| {
                    let uncached: Vec<usize> = members
                        .iter()
                        .copied()
                        .filter(|&u| cached[u].is_none())
                        .collect();
                    let mut shipped = self.ship(&run, &uncached)?.into_iter();
                    Ok(members
                        .iter()
                        .map(|&u| cached[u].clone().or_else(|| shipped.next()))
                        .collect::<Option<Vec<PointMeasurement>>>()
                        .expect("one measurement per shipped point"))
                });
                run.pool.finish();
                measured
            })
            .map_err(|e| match e {
                FleetError::NoWorkers { .. } => FleetError::NoWorkers {
                    pending: total - run.resolved.load(Ordering::SeqCst),
                },
                e => e,
            })?
        };

        // The merge tail: exact-integer measurements become grid rows
        // with the same arithmetic the in-process path uses.
        let _merge = ctx.map(|c| {
            c.span(
                "fleet.merge",
                fields(&[("unique_points", (total as u64).into())]),
            )
        });
        let search = spec
            .search
            .as_ref()
            .map(|s| search_partitions(s, spec.cores, &spec.tasks, &Executor::default()))
            .transpose()?;
        Ok(ExploreReport {
            grid: grid_rows(spec, &plan, &platforms, &measured),
            search,
            unique_points: total,
            total_points: plan.points.len(),
        })
    }

    /// Ships the unique points `points` — one group's uncached points,
    /// ascending — as one request to the next free worker, to the next
    /// one again each time a worker is lost, and resolves them.
    fn ship(
        &self,
        run: &Run<'_>,
        points: &[usize],
    ) -> Result<Vec<PointMeasurement>, (usize, FleetError)> {
        let Some(&first) = points.first() else {
            return Ok(Vec::new());
        };
        let spec = run.spec;
        let (ci, wi) = run.unique[first];
        let request = PointRequest {
            cores: spec.cores,
            config: spec.configs[ci].clone(),
            workload: spec.workloads[wi].clone(),
            attribution: spec.attribution,
            twins: points[1..]
                .iter()
                .map(|&i| spec.configs[run.unique[i].0].clone())
                .collect(),
        };
        let point_error = |member: usize, kind: String, message: String| {
            let point = points[member];
            let error = FleetError::Point {
                config: spec.configs[run.unique[point].0].label.clone(),
                workload: spec.workloads[wi].label.clone(),
                kind,
                message,
            };
            (point, error)
        };
        // Spec-parsed points always render; this is a programmatic
        // config with no wire form.
        let wire = request
            .render()
            .map_err(|message| point_error(0, "render".into(), message))?;
        loop {
            // `pending` is counted once the run ends.
            let (worker, mut client) = run
                .pool
                .take()
                .ok_or((usize::MAX, FleetError::NoWorkers { pending: 0 }))?;
            let worker_label = worker.addr.to_string();
            self.metrics.points_assigned.add(points.len() as u64);
            let dispatch_span = run.ctx.map(|c| {
                c.span(
                    "fleet.dispatch",
                    fields(&[
                        ("point", (first as u64).into()),
                        ("members", (points.len() as u64).into()),
                        ("worker", worker_label.clone().into()),
                    ]),
                )
            });
            let shipped = Instant::now();
            let answer = client.point(&wire);
            let rtt = shipped.elapsed();
            drop(dispatch_span);
            let measured = match answer {
                Ok(reply) => decode_reply(&reply, points, run.fingerprints),
                Err(ClientError::Status { status: 422, body }) => {
                    run.pool.give(Some((worker, client)));
                    let (kind, message, member) = parse_point_error(&body);
                    let member = member.filter(|&k| k < points.len()).unwrap_or(0);
                    return Err(point_error(member, kind, message));
                }
                // Everything else — refused, reset, timeout, 5xx — is
                // the worker's fault.
                Err(_) => None,
            };
            if let Some(measured) = measured {
                self.metrics.worker_rtt(&worker_label).record(rtt);
                run.pool.give(Some((worker, client)));
                return Ok(self.resolve(run, points, measured, &worker_label));
            }
            // A worker answering garbage, for other points or not at all
            // is a lost worker, not a lost experiment: the group goes to
            // the next worker.
            self.metrics.worker_requeue(&worker_label).record(rtt);
            self.mark_lost(worker);
            self.metrics.points_retried.add(points.len() as u64);
            if let Some(c) = run.ctx {
                c.instant(
                    "fleet.point.requeued",
                    fields(&[
                        ("point", (first as u64).into()),
                        ("members", (points.len() as u64).into()),
                        ("worker", worker_label.into()),
                    ]),
                );
            }
            run.pool.give(None);
        }
    }

    /// Records the measurements of the shipped `points`, each with
    /// whether a worker cache answered it: each point enters the
    /// coordinator cache, the counters, the `fleet.point.resolved`
    /// instants and progress on its own.
    fn resolve(
        &self,
        run: &Run<'_>,
        points: &[usize],
        measured: Vec<(PointMeasurement, bool)>,
        worker_label: &str,
    ) -> Vec<PointMeasurement> {
        {
            let mut cache = self.cache.lock().unwrap();
            for (&i, (m, _)) in points.iter().zip(&measured) {
                cache.insert(run.fingerprints[i], m.clone());
            }
        }
        let answered = measured.iter().filter(|&&(_, cached)| cached).count();
        self.metrics.points_cache_shared.add(answered as u64);
        let last = run.resolved.fetch_add(points.len(), Ordering::SeqCst) + points.len();
        if let Some(c) = run.ctx {
            for (&i, &(_, cached)) in points.iter().zip(&measured) {
                c.instant(
                    "fleet.point.resolved",
                    fields(&[
                        ("point", (i as u64).into()),
                        ("worker", worker_label.into()),
                        ("cached", u64::from(cached).into()),
                    ]),
                );
            }
        }
        for done in last + 1 - points.len()..=last {
            (run.observe)(done, run.unique.len());
        }
        measured.into_iter().map(|(m, _)| m).collect()
    }

    /// Marks a worker lost exactly once, settling the gauge pair: the
    /// live gauge drops before the loss is counted, so no read sees
    /// `alive + lost` above the fleet size (see [`Metrics`]).
    fn mark_lost(&self, worker: &Worker) {
        if worker.alive.swap(false, Ordering::SeqCst) {
            self.metrics.workers_alive.dec();
            self.metrics.workers_lost.inc();
        }
    }

    /// The heartbeat loop: probe every live worker's `/healthz` each
    /// interval; a worker that fails one probe is lost, and leaves the
    /// pool when next taken. Between rounds it waits on the pool, so the
    /// run's end wakes it at once and the merge never waits out an
    /// interval.
    fn heartbeat(&self, pool: &Pool<'_>) {
        let probe_timeout = self
            .config
            .heartbeat_interval
            .max(Duration::from_millis(100));
        loop {
            for worker in &self.workers {
                if !worker.alive.load(Ordering::SeqCst) {
                    continue;
                }
                let mut probe = Client::new(worker.addr)
                    .with_timeout(probe_timeout)
                    .with_retries(0);
                let started = Instant::now();
                let answer = probe.healthz();
                self.metrics
                    .worker_heartbeat(&worker.addr.to_string())
                    .record(started.elapsed());
                if answer.is_err() {
                    self.mark_lost(worker);
                }
            }
            let st = pool.state.lock().expect(POOL_POISONED);
            let (st, _) = pool
                .cond
                .wait_timeout_while(st, self.config.heartbeat_interval, |st| !st.done)
                .expect(POOL_POISONED);
            if st.done {
                return;
            }
        }
    }

    /// Scrapes every live worker's `/metrics` once and mirrors the
    /// fleet's counter and gauge series onto the coordinator registry,
    /// each with a `worker` label added — one scrape of the coordinator
    /// then shows the whole fleet. Returns how many workers answered
    /// with a parsable exposition.
    ///
    /// Per worker, success also updates the
    /// `predllc_fleet_scrape_ok_ms{worker=..}` gauge (milliseconds
    /// since coordinator construction — a frozen value is a stale
    /// worker, visible as a flat line rather than silence), and any
    /// failure — refused, timeout, unparsable text — bumps
    /// `predllc_fleet_scrape_errors{worker=..}`.
    ///
    /// Histogram families are deliberately **not** mirrored: their
    /// `_bucket`/`_sum`/`_count` parts cannot be replayed through the
    /// registry's counter/gauge cells without forging a histogram, and
    /// per-worker latency already has a first-class home in
    /// `predllc_fleet_worker_rtt_ns`. Dead workers are skipped — their
    /// mirrored series simply stop advancing.
    pub(crate) fn scrape_metrics_once(&self) -> usize {
        let timeout = self
            .config
            .heartbeat_interval
            .max(Duration::from_millis(100));
        let mut scraped = 0;
        for worker in &self.workers {
            if !worker.alive.load(Ordering::SeqCst) {
                continue;
            }
            let label = worker.addr.to_string();
            let mut client = Client::new(worker.addr)
                .with_timeout(timeout)
                .with_retries(0);
            let exposition = client
                .metrics()
                .ok()
                .and_then(|text| expo::parse(&text).ok());
            match exposition {
                Some(exposition) => {
                    self.mirror_exposition(&label, &exposition);
                    self.metrics
                        .registry
                        .gauge_labeled(
                            "predllc_fleet_scrape_ok_ms",
                            "Coordinator-relative time (ms) of the last successful metrics scrape per worker.",
                            &[("worker", &label)],
                        )
                        .set(self.scrape_epoch.elapsed().as_millis() as u64);
                    scraped += 1;
                }
                None => {
                    self.metrics
                        .registry
                        .counter_labeled(
                            "predllc_fleet_scrape_errors",
                            "Failed or unparsable per-worker metrics scrapes.",
                            &[("worker", &label)],
                        )
                        .inc();
                }
            }
        }
        scraped
    }

    /// Mirrors one worker's parsed exposition onto the coordinator
    /// registry: counter and gauge families only, original labels
    /// preserved, `worker` appended.
    ///
    /// Series register in exposition order, which is the worker's (and
    /// the coordinator's) read order, but take their values in reverse:
    /// sources before the series derived from them, the write order of
    /// [`Metrics`]. A coordinator read racing a scrape then never sees
    /// a mirrored pair torn across two scrapes.
    fn mirror_exposition(&self, worker: &str, exposition: &expo::Exposition) {
        let mut writes: Vec<Box<dyn Fn()>> = Vec::new();
        for family in &exposition.families {
            let kind = match family.kind.as_deref() {
                Some(k @ ("counter" | "gauge")) => k,
                // Histograms (see `scrape_metrics_once`) and untyped
                // families are not mirrored.
                _ => continue,
            };
            if self
                .metrics
                .registry
                .family_kind(&family.name)
                .is_some_and(|local| local != kind)
            {
                // A local family of another kind owns this name;
                // mirroring it would trip the kind-conflict panic.
                continue;
            }
            let help = family
                .help
                .as_deref()
                .unwrap_or("Mirrored from a fleet worker.");
            for sample in &family.samples {
                if sample.name != family.name {
                    continue;
                }
                if sample.labels.iter().any(|(k, _)| k == "worker") {
                    // Already fleet-aggregated (a chained coordinator);
                    // re-labelling would duplicate the label name.
                    continue;
                }
                let value = match sample.value {
                    ExpoValue::UInt(v) => v,
                    // Registry cells are u64; a non-integral scraped
                    // value cannot come from one of our workers.
                    ExpoValue::Float(_) => continue,
                };
                let mut labels: Vec<(&str, &str)> = sample
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                labels.push(("worker", worker));
                let registry = &self.metrics.registry;
                writes.push(match kind {
                    "counter" => {
                        let counter = registry.counter_labeled(&sample.name, help, &labels);
                        Box::new(move || counter.set(value))
                    }
                    _ => {
                        let gauge = registry.gauge_labeled(&sample.name, help, &labels);
                        Box::new(move || gauge.set(value))
                    }
                });
            }
        }
        for write in writes.iter().rev() {
            write();
        }
    }

    /// Starts the background scrape loop: it mirrors every live worker's
    /// `/metrics` counters and gauges into the shared registry (one
    /// `worker=..` series each) immediately, then every `interval` until
    /// the returned handle is stopped or dropped. Pair it with a serve
    /// [`Collector`](predllc_obs::Collector) over the shared registry
    /// to get fleet-wide time-series and alerts from one process.
    pub fn start_metric_scrape(self: &Arc<Self>, interval: Duration) -> ScrapeHandle {
        let coordinator = Arc::clone(self);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let signal = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("fleet-scrape".to_string())
            .spawn(move || {
                let (lock, cvar) = &*signal;
                loop {
                    coordinator.scrape_metrics_once();
                    let stopped = lock.lock().unwrap();
                    let (stopped, _) = cvar
                        .wait_timeout_while(stopped, interval, |stopped| !*stopped)
                        .unwrap();
                    if *stopped {
                        break;
                    }
                }
            })
            .expect("spawn fleet-scrape thread");
        ScrapeHandle {
            stop,
            thread: Some(thread),
        }
    }
}

/// Handle for the background metric-scrape loop started by
/// [`Coordinator::start_metric_scrape`]. Stopping (or dropping) joins
/// the thread; mirrored series stay on the registry, frozen at their
/// last scraped values.
pub struct ScrapeHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ScrapeHandle {
    /// Stops the scrape loop and joins the thread. Idempotent.
    pub fn stop(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ScrapeHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The default SLO rule set for a fleet front door: the serve defaults
/// ([`predllc_serve::default_rules`]) plus worker-loss detection — any
/// lost worker fires `worker-loss` immediately (no grace period: loss
/// is permanent for a coordinator's lifetime, so waiting cannot clear
/// it).
pub fn default_fleet_rules() -> Vec<Rule> {
    let mut rules = predllc_serve::default_rules();
    rules.push(Rule::threshold(
        "worker-loss",
        "predllc_workers_lost",
        Compare::Above,
        0.0,
    ));
    rules
}

impl SpecRunner for Coordinator {
    fn run_spec(
        &self,
        spec: &ExperimentSpec,
        observe: &(dyn Fn(usize, usize) + Sync),
        ctx: Option<TraceCtx<'_>>,
    ) -> Result<ExploreReport, String> {
        self.run(spec, observe, ctx).map_err(|e| e.to_string())
    }

    /// Always `1`: rendered reports must not depend on the fleet shape.
    fn threads_label(&self) -> usize {
        1
    }
}

/// The measurements of a reply to a request for the unique points
/// `members`, each with whether the worker's cache answered it, or
/// `None` unless the reply decodes to one measurement per member, each
/// under its member's fingerprint, in request order.
fn decode_reply(
    reply: &PointReply,
    members: &[usize],
    fingerprints: &[Fingerprint],
) -> Option<Vec<(PointMeasurement, bool)>> {
    if reply.twins.len() + 1 != members.len() {
        return None;
    }
    std::iter::once(reply)
        .chain(&reply.twins)
        .zip(members)
        .map(|(r, &i)| {
            let m = PointMeasurement::from_json(&r.measurement).ok()?;
            (Fingerprint::parse_hex(&r.fingerprint) == Some(fingerprints[i]))
                .then_some((m, r.cached))
        })
        .collect()
}

/// Decodes a worker's `422` body (`{"error": ..., "kind": ...}`, plus
/// `"member"` when the failing point is not the request's first),
/// degrading gracefully on garbage.
fn parse_point_error(body: &str) -> (String, String, Option<usize>) {
    let doc = json::parse(body).ok();
    let get = |key: &str| doc.as_ref().and_then(|d| d.get(key));
    let text = |key: &str| get(key).and_then(Json::as_str).map(str::to_string);
    (
        text("kind").unwrap_or_else(|| "unknown".into()),
        text("error").unwrap_or_else(|| body.to_string()),
        get("member")
            .and_then(Json::as_u64)
            .and_then(|k| usize::try_from(k).ok()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use predllc_explore::report::render_csv;
    use predllc_explore::run_spec;
    use predllc_serve::Server;

    #[test]
    fn the_point_cache_evicts_the_oldest_and_reruns_stay_byte_identical() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let worker = server.handle();
        let join = std::thread::spawn(move || server.run().unwrap());

        // Six distinct points through a four-entry cache. One worker
        // dispatches in unique-point order, so points 0 and 1 are the
        // oldest entries when 4 and 5 arrive.
        let workloads: Vec<String> = (1..=6)
            .map(|seed| {
                format!(r#"{{"kind": "uniform", "range_bytes": 1024, "ops": 40, "seed": {seed}}}"#)
            })
            .collect();
        let spec = ExperimentSpec::parse(&format!(
            r#"{{"name": "evict", "cores": 2,
                "configs": [{{"partition": {{"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}}}}],
                "workloads": [{}]}}"#,
            workloads.join(",")
        ))
        .unwrap();
        let metrics = Arc::new(Metrics::default());
        let mut coordinator = Coordinator::new(
            [worker.addr()],
            CoordinatorConfig::default(),
            Arc::clone(&metrics),
        );
        coordinator.cache = Mutex::new(PointCache::new(4));

        let fingerprints: Vec<_> = (0..6)
            .map(|wi| point_fingerprint(spec.cores, &spec.configs[0], &spec.workloads[wi], false))
            .collect();
        let cached = |coordinator: &Coordinator| -> Vec<bool> {
            let cache = coordinator.cache.lock().unwrap();
            fingerprints
                .iter()
                .map(|fp| cache.get(fp).is_some())
                .collect()
        };

        let first = coordinator.run(&spec, &|_, _| {}, None).unwrap();
        assert_eq!(cached(&coordinator), [false, false, true, true, true, true]);
        assert_eq!(metrics.points_assigned.get(), 6);

        // The re-run re-dispatches exactly the two evicted points, which
        // now evict the next two oldest, and renders the same bytes as
        // the first run and a local run.
        let again = coordinator.run(&spec, &|_, _| {}, None).unwrap();
        assert_eq!(metrics.points_assigned.get(), 8);
        assert_eq!(cached(&coordinator), [true, true, false, false, true, true]);
        // Four answers from the coordinator cache, and the worker's own
        // cache answers the two re-shipped points.
        assert_eq!(metrics.points_cache_shared.get(), 4 + 2);
        let local = run_spec(&spec, &Executor::new(1)).unwrap();
        assert_eq!(render_csv(&again.grid), render_csv(&first.grid));
        assert_eq!(render_csv(&again.grid), render_csv(&local.grid));

        worker.shutdown();
        join.join().unwrap();
    }
}
