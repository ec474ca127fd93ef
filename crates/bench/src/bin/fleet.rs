//! The fleet entry point: run a point worker or a fleet coordinator as
//! a long-lived process, or drive the CI fleet smoke check — spawn
//! worker processes on localhost, shard a spec across them (optionally
//! killing one mid-run), and require the merged CSV byte-identical to
//! the in-process reference.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p predllc-bench --bin fleet -- --worker
//!     [--addr HOST:PORT]         default 127.0.0.1:0 (ephemeral)
//!     [--threads N]              executor threads for full-spec jobs
//!     [--fail-after-points N]    fault injection: die mid-answer after
//!                                N successful point replies
//!
//! cargo run --release -p predllc-bench --bin fleet -- --coordinator
//!     --workers HOST:PORT,HOST:PORT,...
//!     [--addr HOST:PORT]         default 127.0.0.1:7979
//!
//! cargo run --release -p predllc-bench --bin fleet -- --smoke <spec.json>
//!     [--workers N]              worker processes to spawn (default 2)
//!     [--kill-one]               fault-inject one worker to die mid-run
//!     [--expect <csv>]           diff the fleet CSV against this file
//!                                (default: run the spec in-process)
//!     [--bench-out PATH]         write the JSON benchmark artifact
//!     [--trace-out PATH]         write the coordinator-side trace of
//!                                the sharded run (JSONL)
//!     [--dashboard-out PATH]     write the fleet /dashboard HTML
//!     [--alerts]                 print the SLO alert table after the run
//!     [--attribution]            also run the attribution leg: the
//!                                same spec with attribution on, sharded
//!                                across the (surviving) workers — the
//!                                classic CSV must be unchanged and
//!                                every point must ship a witness whose
//!                                components sum to its observed WCL
//!     [--attribution-out PATH]   write the fleet-side attribution JSON
//!                                artifact; implies --attribution
//!     [--threads N]
//!     [--quiet | --verbose]
//! ```
//!
//! A worker prints `fleet: worker listening on http://ADDR` on
//! **stdout** (the smoke parent parses it); everything else goes to
//! stderr. The smoke parent captures each worker's stderr and folds it
//! into any failure message, so a dying worker explains itself. The smoke check proves the fleet's determinism contract
//! end-to-end across processes: the coordinator's merged CSV must be
//! byte-identical to the reference whatever the fleet shape, and — with
//! `--kill-one` — even when a worker dies mid-run and its points are
//! reassigned. It then re-runs the spec to prove the coordinator's
//! shared point cache answers without touching the workers again. The
//! sharded run is always traced, and the smoke fails when its
//! `fleet.merge` span starts more than half a heartbeat interval after
//! the last `fleet.point.resolved` (the merge must follow the last
//! point, not the next heartbeat), or when its `fleet.dispatch` spans,
//! less the requeued groups, are not exactly the spec's planned run
//! groups (points that differ only in their memory backend and sharing
//! mode ship as one request).

use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use predllc_bench::monitor::{alert_state, history_samples, print_alerts};
use predllc_bench::{data, error, status};
use predllc_explore::report::{render_attribution_json, render_csv, render_json};
use predllc_explore::{plan_grid, run_spec, Executor, ExperimentSpec};
use predllc_fleet::{default_fleet_rules, Coordinator, CoordinatorConfig};
use predllc_obs::{render_jsonl, EventKind, TraceCtx, TraceEvent, TraceId, Tracer};
use predllc_serve::{Client, Metrics, MonitorConfig, Server, ServerConfig};

fn main() -> ExitCode {
    match run(predllc_bench::log::init(std::env::args().skip(1).collect())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            error!("fleet: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut worker = false;
    let mut coordinator = false;
    let mut smoke: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut workers: Option<String> = None;
    let mut threads = 0usize;
    let mut fail_after_points: Option<u64> = None;
    let mut kill_one = false;
    let mut expect: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut dashboard_out: Option<String> = None;
    let mut alerts = false;
    let mut attribution = false;
    let mut attribution_out: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--worker" => worker = true,
            "--coordinator" => coordinator = true,
            "--smoke" => smoke = Some(it.next().ok_or("--smoke needs a spec path")?),
            "--addr" => addr = Some(it.next().ok_or("--addr needs host:port")?),
            "--workers" => workers = Some(it.next().ok_or("--workers needs a value")?),
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads needs a number")?;
            }
            "--fail-after-points" => {
                fail_after_points = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--fail-after-points needs a number")?,
                );
            }
            "--kill-one" => kill_one = true,
            "--expect" => expect = Some(it.next().ok_or("--expect needs a csv path")?),
            "--bench-out" => bench_out = Some(it.next().ok_or("--bench-out needs a path")?),
            "--trace-out" => trace_out = Some(it.next().ok_or("--trace-out needs a path")?),
            "--dashboard-out" => {
                dashboard_out = Some(it.next().ok_or("--dashboard-out needs a path")?);
            }
            "--alerts" => alerts = true,
            "--attribution" => attribution = true,
            "--attribution-out" => {
                attribution_out = Some(it.next().ok_or("--attribution-out needs a path")?);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    match (worker, coordinator, smoke) {
        (true, false, None) => run_worker(
            addr.as_deref().unwrap_or("127.0.0.1:0"),
            ServerConfig {
                threads,
                fail_after_points,
                ..ServerConfig::default()
            },
        ),
        (false, true, None) => run_coordinator(
            addr.as_deref().unwrap_or("127.0.0.1:7979"),
            &workers.ok_or("--coordinator needs --workers host:port,host:port,...")?,
        ),
        (false, false, Some(spec_path)) => {
            let count = match workers.as_deref() {
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("--workers needs a count in smoke mode, got '{v}'"))?,
                None => 2,
            };
            let outputs = SmokeOutputs {
                bench_out,
                trace_out,
                dashboard_out,
                alerts,
                attribution: attribution || attribution_out.is_some(),
                attribution_out,
            };
            run_smoke(
                &spec_path,
                count,
                kill_one,
                expect.as_deref(),
                &outputs,
                threads,
            )
        }
        _ => Err("pick exactly one mode: --worker, --coordinator or --smoke <spec.json>".into()),
    }
}

/// Optional smoke-mode outputs, bundled to keep the call sites flat.
struct SmokeOutputs {
    bench_out: Option<String>,
    trace_out: Option<String>,
    dashboard_out: Option<String>,
    alerts: bool,
    attribution: bool,
    attribution_out: Option<String>,
}

/// The worker mode: a plain `predllc-serve` instance — its point
/// endpoint is what the coordinator dispatches to. The listening line
/// goes to stdout so a parent process can parse the ephemeral port.
fn run_worker(addr: &str, config: ServerConfig) -> Result<(), String> {
    let fault = config.fail_after_points;
    let server = Server::bind(addr, config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    data!("fleet: worker listening on http://{}", server.local_addr());
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot flush stdout: {e}"))?;
    if let Some(n) = fault {
        status!("fleet: worker will die after {n} point answer(s) (fault injection)");
    }
    server.run().map_err(|e| e.to_string())
}

/// The coordinator mode: serve the full experiment API
/// (`/v1/experiments`, `/metrics`, ...) with the fleet as the runner —
/// clients submit specs to one front door and the coordinator fans
/// each one out across the workers. Monitoring is on with the fleet
/// rule set, and a background scrape mirrors every worker's counters
/// and gauges onto the coordinator registry, so `/dashboard` shows the
/// whole fleet.
fn run_coordinator(addr: &str, workers: &str) -> Result<(), String> {
    let addrs = parse_worker_list(workers)?;
    let metrics = Arc::new(Metrics::default());
    let coordinator = Arc::new(Coordinator::new(
        addrs,
        CoordinatorConfig::default(),
        Arc::clone(&metrics),
    ));
    let worker_count = coordinator.worker_count();
    let _scrape = coordinator.start_metric_scrape(Duration::from_secs(1));
    let config = ServerConfig {
        monitor: Some(MonitorConfig {
            rules: default_fleet_rules(),
            ..MonitorConfig::default()
        }),
        ..ServerConfig::default()
    };
    let server = Server::bind_with(addr, config, coordinator, metrics)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    status!(
        "fleet: coordinator listening on http://{} over {} worker(s)",
        server.local_addr(),
        worker_count,
    );
    status!("fleet: POST a spec to /v1/experiments; see /healthz, /metrics and /dashboard");
    server.run().map_err(|e| e.to_string())
}

/// Resolves a comma-separated worker list to socket addresses.
fn parse_worker_list(workers: &str) -> Result<Vec<SocketAddr>, String> {
    let mut addrs = Vec::new();
    for entry in workers.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let addr = entry
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve worker '{entry}': {e}"))?
            .next()
            .ok_or_else(|| format!("worker '{entry}' resolves to no address"))?;
        addrs.push(addr);
    }
    if addrs.is_empty() {
        return Err("--workers lists no workers".into());
    }
    Ok(addrs)
}

/// A spawned worker child: killed and reaped on shutdown whatever the
/// smoke outcome. Its stderr is drained continuously by a capture
/// thread (so the pipe can never fill and deadlock the child) and
/// folded into failure messages.
struct WorkerProcess {
    child: Child,
    addr: SocketAddr,
    /// Everything the worker wrote to stderr so far.
    stderr: Arc<Mutex<String>>,
    /// The capture thread; joined when the child is reaped.
    drain: Option<std::thread::JoinHandle<()>>,
}

impl WorkerProcess {
    /// Kills and reaps the child, returning its captured stderr.
    fn shutdown(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(handle) = self.drain.take() {
            let _ = handle.join();
        }
        self.stderr.lock().unwrap().clone()
    }
}

/// Spawns one worker child via the current executable and parses the
/// ephemeral address from its stdout listening line. The child's
/// stderr is piped and drained in the background from the start.
fn spawn_worker(threads: usize, fail_after_points: Option<u64>) -> Result<WorkerProcess, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--worker")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--threads")
        .arg(threads.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(n) = fail_after_points {
        cmd.arg("--fail-after-points").arg(n.to_string());
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn a worker process: {e}"))?;
    let captured = Arc::new(Mutex::new(String::new()));
    let drain = child.stderr.take().map(|mut pipe| {
        let sink = Arc::clone(&captured);
        std::thread::spawn(move || {
            let mut text = String::new();
            let _ = pipe.read_to_string(&mut text);
            sink.lock().unwrap().push_str(&text);
        })
    });
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read the worker's listening line: {e}"))?;
    let addr = match line.trim().split_once("http://") {
        Some((_, rest)) => rest
            .parse()
            .map_err(|e| format!("worker printed an unparseable address '{rest}': {e}")),
        None => Err(format!(
            "worker printed no listening line: '{}'",
            line.trim()
        )),
    };
    let mut worker = WorkerProcess {
        child,
        addr: "0.0.0.0:0".parse().expect("placeholder address parses"),
        stderr: captured,
        drain,
    };
    match addr {
        Ok(addr) => {
            worker.addr = addr;
            Ok(worker)
        }
        Err(message) => {
            // Include whatever the dying worker said on stderr.
            let said = worker.shutdown();
            if said.trim().is_empty() {
                Err(message)
            } else {
                Err(format!("{message}\nworker stderr:\n{said}"))
            }
        }
    }
}

/// The CI fleet smoke: worker processes on localhost, a spec sharded
/// across them, the merged CSV byte-diffed against the reference —
/// optionally with one worker fault-injected to die mid-run — then a
/// re-run answered entirely by the coordinator's shared point cache.
fn run_smoke(
    spec_path: &str,
    workers: usize,
    kill_one: bool,
    expect: Option<&str>,
    outputs: &SmokeOutputs,
    threads: usize,
) -> Result<(), String> {
    if workers == 0 {
        return Err("--workers must spawn at least 1 worker".into());
    }
    if kill_one && workers < 2 {
        return Err("--kill-one needs at least 2 workers (one must survive)".into());
    }
    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let spec = ExperimentSpec::parse(&text).map_err(|e| e.to_string())?;

    // The reference bytes: a checked-in CSV (the explore CLI's direct
    // output) or an in-process run of the same spec.
    let reference = match expect {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        None => {
            let report = run_spec(&spec, &Executor::new(threads)).map_err(|e| e.to_string())?;
            render_csv(&report.grid)
        }
    };

    // Spawn the fleet. With --kill-one the FIRST worker carries the
    // fault injector: it answers one point, then dies mid-answer on its
    // second — a real process exit, not a simulated error.
    let mut fleet = Vec::with_capacity(workers);
    for i in 0..workers {
        let fault = (kill_one && i == 0).then_some(1);
        match spawn_worker(threads, fault) {
            Ok(worker) => fleet.push(worker),
            Err(message) => {
                shutdown_fleet(&mut fleet);
                return Err(message);
            }
        }
    }
    status!(
        "fleet: smoke with {} worker process(es){} at {}",
        fleet.len(),
        if kill_one {
            " (one fault-injected to die mid-run)"
        } else {
            ""
        },
        fleet
            .iter()
            .map(|w| w.addr.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );

    let outcome = smoke_inner(&spec, &reference, &fleet, kill_one, outputs);
    let captured = shutdown_fleet(&mut fleet);
    // A failed smoke quotes what the (possibly dead) workers said on
    // stderr — the difference between "worker lost" and a diagnosis.
    outcome.map_err(|message| {
        if captured.trim().is_empty() {
            message
        } else {
            format!("{message}\n--- worker stderr ---\n{}", captured.trim_end())
        }
    })
}

/// Kills and reaps every worker child, returning their combined
/// captured stderr (each block labelled by worker index and address).
fn shutdown_fleet(fleet: &mut Vec<WorkerProcess>) -> String {
    let mut combined = String::new();
    for (i, worker) in fleet.iter_mut().enumerate() {
        let addr = worker.addr;
        let said = worker.shutdown();
        if !said.trim().is_empty() {
            combined.push_str(&format!("[worker {i} @ {addr}]\n{said}"));
            if !said.ends_with('\n') {
                combined.push('\n');
            }
        }
    }
    fleet.clear();
    combined
}

/// The smoke body, separated so the caller can always reap the fleet.
fn smoke_inner(
    spec: &ExperimentSpec,
    reference: &str,
    fleet: &[WorkerProcess],
    kill_one: bool,
    outputs: &SmokeOutputs,
) -> Result<(), String> {
    let metrics = Arc::new(Metrics::default());
    let heartbeat_interval = Duration::from_millis(100);
    let coordinator = Arc::new(Coordinator::new(
        fleet.iter().map(|w| w.addr),
        CoordinatorConfig {
            heartbeat_interval,
            ..CoordinatorConfig::default()
        },
        Arc::clone(&metrics),
    ));
    // Mirror every worker's counters and gauges onto the coordinator
    // registry throughout the run — the fleet-wide aggregation path the
    // monitoring checks below read back over HTTP.
    let _scrape = coordinator.start_metric_scrape(Duration::from_millis(100));

    // The sharded run records coordinator-side spans (queue wait,
    // dispatch RTT, requeues, the merge tail) under one fresh trace ID;
    // workers echo the same ID in their own sinks. The merge gate below
    // reads them, and --trace-out writes them.
    let tracer = Tracer::new();
    let trace = TraceId::fresh();

    let started = Instant::now();
    let report = coordinator
        .run(spec, &|_, _| {}, Some(TraceCtx::new(&tracer, trace)))
        .map_err(|e| e.to_string())?;
    let wall_ms = started.elapsed().as_millis() as u64;
    let events = tracer.drain();
    let gap = merge_gap(&events).ok_or("the trace holds no resolved point or no merge span")?;
    status!(
        "fleet: merge began {:.3} ms after the last resolved point",
        gap.as_secs_f64() * 1e3
    );
    if gap > heartbeat_interval / 2 {
        return Err(format!(
            "fleet.merge began {gap:?} after the last fleet.point.resolved; \
             the limit is half the {heartbeat_interval:?} heartbeat interval"
        ));
    }
    let planned = plan_grid(spec).runs.len();
    let dispatched = shipped_groups(&events);
    status!(
        "fleet: {dispatched} group(s) for {} point(s)",
        report.unique_points
    );
    if dispatched != planned {
        return Err(format!(
            "the fleet shipped {dispatched} run group(s) (fleet.dispatch spans less requeued \
             groups); the spec plans {planned}"
        ));
    }
    let served = render_csv(&report.grid);
    if served != reference {
        return Err(format!(
            "fleet CSV differs from the reference ({} vs {} bytes):\n--- fleet\n{}\n--- reference\n{}",
            served.len(),
            reference.len(),
            served,
            reference
        ));
    }
    let (assigned, retried, lost) = (
        metrics.points_assigned.get(),
        metrics.points_retried.get(),
        metrics.workers_lost.get(),
    );
    status!(
        "fleet: {} unique point(s) in {wall_ms} ms — {} assigned, {} retried, {} worker(s) lost",
        report.unique_points,
        assigned,
        retried,
        lost
    );
    if kill_one {
        if lost != 1 {
            return Err(format!(
                "expected exactly 1 lost worker, metrics say {}",
                lost
            ));
        }
        if retried < 1 {
            return Err("the lost worker's point was never reassigned".into());
        }
    } else if lost != 0 {
        return Err(format!("{} worker(s) lost without fault injection", lost));
    }

    // A re-run must be answered entirely by the coordinator's shared
    // point cache: same bytes, no new worker dispatches.
    let again = coordinator
        .run(spec, &|_, _| {}, None)
        .map_err(|e| e.to_string())?;
    if render_csv(&again.grid) != reference {
        return Err("the cached re-run changed the CSV".into());
    }
    if metrics.points_assigned.get() != assigned {
        return Err(format!(
            "the re-run reached the workers ({} -> {} assignments) instead of the point cache",
            assigned,
            metrics.points_assigned.get()
        ));
    }
    let shared = metrics.points_cache_shared.get();
    if shared < report.unique_points as u64 {
        return Err(format!(
            "expected >= {} shared-cache answers on the re-run, metrics say {}",
            report.unique_points, shared
        ));
    }

    if outputs.attribution {
        attribution_leg(&coordinator, spec, reference, outputs)?;
    }

    if let Some(path) = outputs.bench_out.as_deref() {
        let artifact = render_json(
            &spec.name,
            1,
            Some(wall_ms),
            &report.grid,
            report.search.as_ref(),
        );
        std::fs::write(path, artifact).map_err(|e| format!("cannot write {path}: {e}"))?;
        status!("fleet: benchmark artifact written to {path}");
    }
    // Exposition validity, both sides: the coordinator's registry
    // render, and a live worker's /metrics over HTTP (a fleet worker
    // IS a serve instance, so this is the real scrape path).
    let rendered = metrics.render();
    let summary = predllc_obs::expo::validate(&rendered)
        .map_err(|e| format!("coordinator metrics failed exposition validation: {e}"))?;
    let worker_expo = Client::new(fleet.last().expect("fleet is non-empty").addr)
        .metrics()
        .map_err(|e| format!("cannot scrape a worker's /metrics: {e}"))?;
    let worker_summary = predllc_obs::expo::validate(&worker_expo)
        .map_err(|e| format!("worker /metrics failed exposition validation: {e}"))?;
    status!(
        "fleet: /metrics validated (coordinator: {} families, worker: {} families)",
        summary.families,
        worker_summary.families
    );
    if let Some(path) = outputs.trace_out.as_deref() {
        std::fs::write(path, render_jsonl(&events))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        status!(
            "fleet: trace {} written to {path} ({} event(s))",
            trace.to_hex(),
            events.len()
        );
    }
    monitor_checks(&coordinator, &metrics, fleet, kill_one, outputs)?;
    status!(
        "fleet: smoke ok — fleet CSV byte-identical to the reference{}, \
         re-run served from the shared point cache",
        if kill_one {
            ", with a worker killed mid-run and its work reassigned"
        } else {
            ""
        }
    );
    Ok(())
}

/// Time from the last `fleet.point.resolved` to the start of the
/// `fleet.merge` span in a run's trace (zero when the merge raced
/// ahead of the last instant), or `None` when either is missing.
fn merge_gap(events: &[TraceEvent]) -> Option<Duration> {
    let resolved = events
        .iter()
        .filter(|e| e.name == "fleet.point.resolved")
        .map(|e| e.ts_ns)
        .max()?;
    let merge = events
        .iter()
        .find(|e| e.name == "fleet.merge" && e.kind == EventKind::Begin)?;
    Some(Duration::from_nanos(merge.ts_ns.saturating_sub(resolved)))
}

/// The run groups a traced fleet run shipped: its `fleet.dispatch`
/// spans, less the groups requeued after a worker loss (each dispatched
/// again).
fn shipped_groups(events: &[TraceEvent]) -> usize {
    let count = |name: &str, kind: EventKind| {
        events
            .iter()
            .filter(|e| e.name == name && e.kind == kind)
            .count()
    };
    count("fleet.dispatch", EventKind::Begin)
        .saturating_sub(count("fleet.point.requeued", EventKind::Instant))
}

/// The smoke's attribution leg: the same spec with attribution on,
/// sharded across whatever workers survive. The classic CSV must stay
/// byte-identical to the reference, and every row must come back with
/// an attribution whose witness — serialized by a worker, shipped over
/// the point wire as exact integers, and reassembled here — sums to
/// that row's observed WCL to the cycle.
fn attribution_leg(
    coordinator: &Arc<Coordinator>,
    spec: &ExperimentSpec,
    reference: &str,
    outputs: &SmokeOutputs,
) -> Result<(), String> {
    let mut on = spec.clone();
    on.attribution = true;
    let report = coordinator
        .run(&on, &|_, _| {}, None)
        .map_err(|e| e.to_string())?;
    if render_csv(&report.grid) != reference {
        return Err("attribution changed the fleet CSV".into());
    }
    let mut witnesses = 0usize;
    for row in &report.grid {
        let at = format!("{} x {}", row.config, row.workload);
        let attr = row
            .attribution
            .as_ref()
            .ok_or_else(|| format!("{at}: the fleet shipped no attribution"))?;
        let w = attr
            .witness
            .as_ref()
            .ok_or_else(|| format!("{at}: the fleet shipped no witness"))?;
        if w.components.total() != w.latency || w.latency.as_u64() != row.observed_wcl {
            return Err(format!(
                "{at}: the shipped witness does not sum to the observed WCL"
            ));
        }
        witnesses += 1;
    }
    status!(
        "fleet: attribution leg ok — {witnesses} witness(es) shipped losslessly over the wire, \
         fleet CSV unchanged"
    );
    if let Some(path) = outputs.attribution_out.as_deref() {
        std::fs::write(path, render_attribution_json(&on.name, &report.grid))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        status!("fleet: attribution artifact written to {path}");
    }
    Ok(())
}

/// The smoke's monitoring leg: put the coordinator behind a monitored
/// front server (100ms collection, fleet SLO rules) and read the whole
/// stack back over real HTTP — the history must show a *mirrored*
/// worker series ticking, the dashboard must render, and with
/// `--kill-one` the `worker-loss` rule must be firing.
fn monitor_checks(
    coordinator: &Arc<Coordinator>,
    metrics: &Arc<Metrics>,
    fleet: &[WorkerProcess],
    kill_one: bool,
    outputs: &SmokeOutputs,
) -> Result<(), String> {
    let config = ServerConfig {
        monitor: Some(MonitorConfig {
            rules: default_fleet_rules(),
            ..MonitorConfig::with_interval(Duration::from_millis(100))
        }),
        ..ServerConfig::default()
    };
    let front = Server::bind_with(
        "127.0.0.1:0",
        config,
        Arc::clone(coordinator) as Arc<dyn predllc_serve::SpecRunner>,
        Arc::clone(metrics),
    )
    .map_err(|e| format!("cannot bind the front server: {e}"))?;
    let handle = front.handle();
    let join = std::thread::spawn(move || front.run());

    let outcome = (|| -> Result<(), String> {
        // A few collector ticks (and scrape rounds) land first.
        std::thread::sleep(Duration::from_millis(450));
        let mut client = Client::new(handle.addr());
        let history = client
            .metrics_history(None, None)
            .map_err(|e| e.to_string())?;
        // The surviving worker's mirrored counter proves the full
        // aggregation path: worker registry -> /metrics text ->
        // expo::parse -> coordinator registry -> collector -> history.
        let live = fleet.last().expect("fleet is non-empty");
        let mirrored = format!("predllc_points_simulated{{worker=\"{}\"}}", live.addr);
        let samples = history_samples(&history, &mirrored)?;
        if samples < 2 {
            return Err(format!(
                "/v1/metrics/history has {samples} sample(s) of {mirrored}; \
                 expected at least 2 (is the collector ticking?)"
            ));
        }
        status!("fleet: /v1/metrics/history shows {samples} samples of {mirrored}");
        let alerts = client.alerts().map_err(|e| e.to_string())?;
        if kill_one {
            match alert_state(&alerts, "worker-loss").as_deref() {
                Some("firing") => status!("fleet: worker-loss alert is firing, as injected"),
                state => {
                    return Err(format!(
                        "expected the worker-loss alert to fire after --kill-one, state is {state:?}"
                    ));
                }
            }
        }
        if outputs.alerts {
            print_alerts("fleet", &alerts)?;
        }
        let dashboard = client.dashboard().map_err(|e| e.to_string())?;
        if dashboard.is_empty() || !dashboard.contains("<svg") {
            return Err("/dashboard did not render sparklines".into());
        }
        if let Some(path) = outputs.dashboard_out.as_deref() {
            std::fs::write(path, &dashboard).map_err(|e| format!("cannot write {path}: {e}"))?;
            status!(
                "fleet: dashboard snapshot written to {path} ({} bytes)",
                dashboard.len()
            );
        }
        Ok(())
    })();

    handle.shutdown();
    join.join()
        .map_err(|_| "front server thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    outcome
}
