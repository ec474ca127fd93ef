//! End-to-end tests of the distributed experiment fleet: whatever the
//! fleet shape — one worker, four, or a worker killed mid-run — the
//! coordinator's merged report must be byte-identical to an in-process
//! `run_spec`, worker-side failures must surface positioned like local
//! ones, and the shared point cache must answer re-runs without
//! touching the workers.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use predllc::explore::report::{render_csv, render_json};
use predllc::explore::{run_spec, Executor};
use predllc::fleet::{Coordinator, CoordinatorConfig, FleetError};
use predllc::obs::{EventKind, FieldValue, TraceCtx, TraceEvent, TraceId, Tracer};
use predllc::serve::{Metrics, Server, ServerConfig, ServerHandle};
use predllc::workload_gen::UniformGen;
use predllc::{CoreId, ExperimentSpec, LatencyHistogram, SharingMode, Simulator, SystemConfig};

/// The serve-e2e grid: two platforms (one banked), two workload
/// families, 4 unique points.
const SPEC: &str = r#"{
    "name": "fleet-e2e",
    "cores": 2,
    "configs": [
        {"label": "SS(1,4)", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}},
        {"partition": {"kind": "private", "sets": 4, "ways": 2},
         "memory": {"kind": "banked", "banks": 8, "mapping": "bank-private"}}
    ],
    "workloads": [
        {"kind": "uniform", "range_bytes": 4096, "ops": 300, "seed": 11, "write_fraction": 0.2},
        {"kind": "stride", "range_bytes": 4096, "stride": 64, "ops": 300}
    ]
}"#;

/// A grid with run groups: one private partition on fixed,
/// banked-interleaved and banked bank-private DRAM (three points per
/// workload that share one engine run), plus a shared column that runs
/// alone. 8 unique points in 4 runs.
const TWIN_SPEC: &str = r#"{
    "name": "fleet-twins",
    "cores": 2,
    "configs": [
        {"label": "P-fixed", "partition": {"kind": "private", "sets": 4, "ways": 2}},
        {"label": "P-interleaved", "partition": {"kind": "private", "sets": 4, "ways": 2},
         "memory": {"kind": "banked", "banks": 8}},
        {"label": "P-bank-private", "partition": {"kind": "private", "sets": 4, "ways": 2},
         "memory": {"kind": "banked", "banks": 8, "mapping": "bank-private"}},
        {"label": "SS(1,4)", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}}
    ],
    "workloads": [
        {"kind": "uniform", "range_bytes": 4096, "ops": 300, "seed": 11, "write_fraction": 0.2},
        {"kind": "stride", "range_bytes": 4096, "stride": 64, "ops": 300}
    ]
}"#;

fn start_worker(config: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind an ephemeral port");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (handle, join)
}

fn stop_worker(handle: &ServerHandle, join: std::thread::JoinHandle<()>) {
    handle.shutdown();
    join.join().expect("server thread");
}

/// A coordinator over `addrs` with a test-friendly heartbeat.
fn coordinator_over(
    addrs: impl IntoIterator<Item = SocketAddr>,
    metrics: Arc<Metrics>,
) -> Coordinator {
    Coordinator::new(
        addrs,
        CoordinatorConfig {
            heartbeat_interval: Duration::from_millis(50),
            ..CoordinatorConfig::default()
        },
        metrics,
    )
}

#[test]
fn fleet_reports_are_byte_identical_across_fleet_shapes() {
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let local = run_spec(&spec, &Executor::new(1)).unwrap();
    let reference_csv = render_csv(&local.grid);
    let reference_json = render_json(&spec.name, 1, None, &local.grid, local.search.as_ref());

    for shape in [1usize, 2, 4] {
        let mut workers = Vec::new();
        for _ in 0..shape {
            workers.push(start_worker(ServerConfig::default()));
        }
        let metrics = Arc::new(Metrics::default());
        let coordinator = coordinator_over(workers.iter().map(|(h, _)| h.addr()), metrics);
        let report = coordinator.run(&spec, &|_, _| {}, None).unwrap();

        assert_eq!(
            report.grid, local.grid,
            "grid diverged at {shape} worker(s)"
        );
        assert_eq!(report.unique_points, local.unique_points);
        assert_eq!(report.total_points, local.total_points);
        assert_eq!(
            render_csv(&report.grid),
            reference_csv,
            "CSV diverged at {shape} worker(s)"
        );
        assert_eq!(
            render_json(&spec.name, 1, None, &report.grid, report.search.as_ref()),
            reference_json,
            "JSON diverged at {shape} worker(s)"
        );
        for (handle, join) in workers {
            stop_worker(&handle, join);
        }
    }
}

#[test]
fn merge_follows_the_last_point_not_the_next_heartbeat() {
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let reference = render_csv(&run_spec(&spec, &Executor::new(1)).unwrap().grid);
    let workers: Vec<_> = (0..2)
        .map(|_| start_worker(ServerConfig::default()))
        .collect();
    // A heartbeat far longer than the run: a coordinator that waited
    // for its next tick before merging would take at least 5 s.
    let coordinator = Coordinator::new(
        workers.iter().map(|(h, _)| h.addr()),
        CoordinatorConfig {
            heartbeat_interval: Duration::from_secs(5),
            ..CoordinatorConfig::default()
        },
        Arc::new(Metrics::default()),
    );
    let tracer = Tracer::new();
    let started = Instant::now();
    let report = coordinator
        .run(
            &spec,
            &|_, _| {},
            Some(TraceCtx::new(&tracer, TraceId::fresh())),
        )
        .unwrap();
    let wall = started.elapsed();
    assert_eq!(render_csv(&report.grid), reference);
    assert!(wall < Duration::from_secs(1), "the run took {wall:?}");

    let events = tracer.drain();
    let last_resolved = events
        .iter()
        .filter(|e| e.name == "fleet.point.resolved")
        .map(|e| e.ts_ns)
        .max()
        .expect("points were dispatched");
    let merge = events
        .iter()
        .find(|e| e.name == "fleet.merge" && e.kind == EventKind::Begin)
        .expect("a merge span");
    let gap = Duration::from_nanos(merge.ts_ns.saturating_sub(last_resolved));
    assert!(
        gap < Duration::from_millis(25),
        "fleet.merge began {gap:?} after the last resolved point"
    );
    for (handle, join) in workers {
        stop_worker(&handle, join);
    }
}

#[test]
fn witnesses_ship_losslessly_across_the_fleet_wire() {
    let attributed = SPEC.replacen(
        "\"name\": \"fleet-e2e\",",
        "\"name\": \"fleet-e2e\",\n    \"attribution\": true,",
        1,
    );
    let spec = ExperimentSpec::parse(&attributed).unwrap();
    let local = run_spec(&spec, &Executor::new(1)).unwrap();

    let workers: Vec<_> = (0..2)
        .map(|_| start_worker(ServerConfig::default()))
        .collect();
    let metrics = Arc::new(Metrics::default());
    let coordinator = coordinator_over(workers.iter().map(|(h, _)| h.addr()), metrics);
    let report = coordinator.run(&spec, &|_, _| {}, None).unwrap();

    // Exact structural equality of the whole grid covers attribution:
    // component sets, witnesses and gap splits crossed the wire as the
    // integers they are, not approximations of them.
    assert_eq!(report.grid, local.grid);
    for row in &report.grid {
        let attr = row
            .attribution
            .as_ref()
            .expect("every fleet row is attributed");
        let w = attr.witness.as_ref().expect("every row has a witness");
        assert_eq!(w.latency.as_u64(), row.observed_wcl);
        assert_eq!(w.components.total(), w.latency, "witness sum broke");
    }
    for (handle, join) in workers {
        stop_worker(&handle, join);
    }
}

#[test]
fn a_worker_killed_mid_run_does_not_change_the_bytes() {
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let reference = render_csv(&run_spec(&spec, &Executor::new(1)).unwrap().grid);

    // The first worker dies mid-answer on its very first point: the
    // response never arrives, the connection drops, the point goes
    // back on the queue and the survivor absorbs it.
    let (doomed, doomed_join) = start_worker(ServerConfig {
        fail_after_points: Some(0),
        ..ServerConfig::default()
    });
    let (survivor, survivor_join) = start_worker(ServerConfig::default());

    let metrics = Arc::new(Metrics::default());
    let coordinator = coordinator_over([doomed.addr(), survivor.addr()], Arc::clone(&metrics));
    let report = coordinator.run(&spec, &|_, _| {}, None).unwrap();

    assert_eq!(render_csv(&report.grid), reference);
    assert!(doomed.was_killed(), "the fault injector never fired");
    assert_eq!(coordinator.live_workers(), 1);
    assert_eq!(metrics.workers_lost.get(), 1);
    assert_eq!(metrics.workers_alive.get(), 1);
    assert!(
        metrics.points_retried.get() >= 1,
        "the killed worker's point was never reassigned"
    );
    // Every point was assigned at least once, plus the reassignments.
    assert_eq!(
        metrics.points_assigned.get(),
        4 + metrics.points_retried.get()
    );

    doomed_join.join().expect("killed server thread");
    stop_worker(&survivor, survivor_join);
}

#[test]
fn losing_every_worker_fails_instead_of_hanging() {
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let (doomed, doomed_join) = start_worker(ServerConfig {
        fail_after_points: Some(0),
        ..ServerConfig::default()
    });
    let metrics = Arc::new(Metrics::default());
    let coordinator = coordinator_over([doomed.addr()], Arc::clone(&metrics));
    match coordinator.run(&spec, &|_, _| {}, None) {
        Err(FleetError::NoWorkers { pending }) => assert_eq!(pending, 4),
        other => panic!("expected NoWorkers, got {other:?}"),
    }
    assert_eq!(coordinator.live_workers(), 0);
    assert_eq!(metrics.workers_lost.get(), 1);
    doomed_join.join().expect("killed server thread");
}

#[test]
fn worker_point_rejections_surface_positioned_not_generic() {
    // A test double that speaks just enough HTTP: healthy heartbeats,
    // but every point request is refused with a positioned 422 — the
    // wire form of a worker-side simulation failure.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let mut buf = [0u8; 8192];
            let n = stream.read(&mut buf).unwrap_or(0);
            let body = if buf[..n].starts_with(b"GET /healthz") {
                "ok\n".to_string()
            } else {
                r#"{"error": "engine exploded mid-run", "kind": "sim"}"#.to_string()
            };
            let status = if buf[..n].starts_with(b"GET /healthz") {
                "200 OK"
            } else {
                "422 Unprocessable Entity"
            };
            let _ = stream.write_all(
                format!(
                    "HTTP/1.1 {status}\r\ncontent-type: application/json\r\n\
                     content-length: {}\r\nconnection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
        }
    });

    let spec = ExperimentSpec::parse(
        r#"{
        "name": "fleet-reject", "cores": 2,
        "configs": [{"label": "C0", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}}],
        "workloads": [{"label": "W0", "kind": "uniform", "range_bytes": 1024, "ops": 50, "seed": 5}]
    }"#,
    )
    .unwrap();
    let coordinator = coordinator_over([addr], Arc::new(Metrics::default()));
    match coordinator.run(&spec, &|_, _| {}, None) {
        Err(err) => {
            // The positioned wording mirrors the in-process error.
            assert_eq!(
                err.to_string(),
                "grid point 'C0' x 'W0' failed: engine exploded mid-run"
            );
            match err {
                FleetError::Point {
                    config,
                    workload,
                    kind,
                    message,
                } => {
                    assert_eq!(config, "C0");
                    assert_eq!(workload, "W0");
                    assert_eq!(kind, "sim");
                    assert_eq!(message, "engine exploded mid-run");
                }
                other => panic!("expected a positioned Point failure, got {other:?}"),
            }
        }
        other => panic!("expected a positioned Point failure, got {other:?}"),
    }
}

#[test]
fn config_failures_read_identically_locally_and_on_a_fleet() {
    // A platform too large to build: both paths must tell the same
    // story, positioned at the same column.
    let bad = r#"{
        "name": "fleet-bad", "cores": 2,
        "configs": [{"label": "huge",
                     "partition": {"kind": "private", "sets": 32, "ways": 16}}],
        "workloads": [{"kind": "uniform", "range_bytes": 1024, "ops": 10}]
    }"#;
    let spec = ExperimentSpec::parse(bad).unwrap();
    let local = run_spec(&spec, &Executor::new(1)).unwrap_err().to_string();

    let (handle, join) = start_worker(ServerConfig::default());
    let coordinator = coordinator_over([handle.addr()], Arc::new(Metrics::default()));
    let fleet = coordinator
        .run(&spec, &|_, _| {}, None)
        .unwrap_err()
        .to_string();
    assert_eq!(fleet, local);
    assert!(fleet.contains("'huge'"), "{fleet}");
    stop_worker(&handle, join);
}

#[test]
fn the_coordinator_point_cache_spans_runs_and_specs() {
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let (handle, join) = start_worker(ServerConfig::default());
    let metrics = Arc::new(Metrics::default());
    let coordinator = coordinator_over([handle.addr()], Arc::clone(&metrics));

    let first = coordinator.run(&spec, &|_, _| {}, None).unwrap();
    assert_eq!(metrics.points_assigned.get(), 4);

    // A different experiment sharing two physical points: both answered
    // from the coordinator's cache, nothing reaches the worker.
    let subset = r#"{
        "name": "fleet-subset",
        "cores": 2,
        "configs": [
            {"label": "SS(1,4)", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}}
        ],
        "workloads": [
            {"kind": "uniform", "range_bytes": 4096, "ops": 300, "seed": 11, "write_fraction": 0.2},
            {"kind": "stride", "range_bytes": 4096, "stride": 64, "ops": 300}
        ]
    }"#;
    let subset_spec = ExperimentSpec::parse(subset).unwrap();
    let served = coordinator.run(&subset_spec, &|_, _| {}, None).unwrap();
    let local = run_spec(&subset_spec, &Executor::new(1)).unwrap();
    assert_eq!(served.grid, local.grid);
    assert_eq!(
        metrics.points_assigned.get(),
        4,
        "the subset re-reached the worker"
    );
    assert_eq!(metrics.points_cache_shared.get(), 2);

    // A full re-run is served entirely from the cache, byte-identically.
    let again = coordinator.run(&spec, &|_, _| {}, None).unwrap();
    assert_eq!(render_csv(&again.grid), render_csv(&first.grid));
    assert_eq!(metrics.points_assigned.get(), 4);
    assert_eq!(metrics.points_cache_shared.get(), 6);
    stop_worker(&handle, join);
}

/// The `members` field of every `fleet.dispatch` span in `events`, in
/// dispatch order.
fn dispatched_members(events: &[TraceEvent]) -> Vec<u64> {
    events
        .iter()
        .filter(|e| e.name == "fleet.dispatch" && e.kind == EventKind::Begin)
        .map(|e| match e.fields.iter().find(|(k, _)| k == "members") {
            Some((_, FieldValue::U64(n))) => *n,
            other => panic!("a fleet.dispatch span without members: {other:?}"),
        })
        .collect()
}

/// Runs `spec` traced on `coordinator`, returning the report and the
/// members of each dispatched run, sorted.
fn run_traced(
    coordinator: &Coordinator,
    spec: &ExperimentSpec,
) -> (predllc::fleet::ExploreReport, Vec<u64>) {
    let tracer = Tracer::new();
    let report = coordinator
        .run(
            spec,
            &|_, _| {},
            Some(TraceCtx::new(&tracer, TraceId::fresh())),
        )
        .unwrap();
    let mut members = dispatched_members(&tracer.drain());
    members.sort_unstable();
    (report, members)
}

#[test]
fn run_groups_are_byte_identical_across_fleet_shapes() {
    let spec = ExperimentSpec::parse(TWIN_SPEC).unwrap();
    let local = run_spec(&spec, &Executor::new(1)).unwrap();
    let reference_csv = render_csv(&local.grid);
    let reference_json = render_json(&spec.name, 1, None, &local.grid, local.search.as_ref());
    assert_eq!(local.unique_points, 8);

    for shape in [1usize, 2, 4] {
        let workers: Vec<_> = (0..shape)
            .map(|_| start_worker(ServerConfig::default()))
            .collect();
        let metrics = Arc::new(Metrics::default());
        let coordinator =
            coordinator_over(workers.iter().map(|(h, _)| h.addr()), Arc::clone(&metrics));
        let (report, members) = run_traced(&coordinator, &spec);
        assert_eq!(
            report.grid, local.grid,
            "grid diverged at {shape} worker(s)"
        );
        assert_eq!(render_csv(&report.grid), reference_csv);
        assert_eq!(
            render_json(&spec.name, 1, None, &report.grid, report.search.as_ref()),
            reference_json,
            "JSON diverged at {shape} worker(s)"
        );
        // Two three-point runs and two one-point runs, counted per point.
        assert_eq!(members, [1, 1, 3, 3], "at {shape} worker(s)");
        assert_eq!(metrics.points_assigned.get(), 8);
        for (handle, join) in workers {
            stop_worker(&handle, join);
        }
    }
}

#[test]
fn a_worker_killed_mid_group_does_not_change_the_bytes() {
    let spec = ExperimentSpec::parse(TWIN_SPEC).unwrap();
    let reference = render_csv(&run_spec(&spec, &Executor::new(1)).unwrap().grid);
    let (doomed, doomed_join) = start_worker(ServerConfig {
        fail_after_points: Some(0),
        ..ServerConfig::default()
    });
    let (survivor, survivor_join) = start_worker(ServerConfig::default());

    let metrics = Arc::new(Metrics::default());
    let coordinator = coordinator_over([doomed.addr(), survivor.addr()], Arc::clone(&metrics));
    let report = coordinator.run(&spec, &|_, _| {}, None).unwrap();

    assert_eq!(render_csv(&report.grid), reference);
    assert!(doomed.was_killed(), "the fault injector never fired");
    assert_eq!(metrics.workers_lost.get(), 1);
    // The lost run's points were requeued, each counted, and assigned
    // again.
    assert!(metrics.points_retried.get() >= 1);
    assert_eq!(
        metrics.points_assigned.get(),
        8 + metrics.points_retried.get()
    );
    doomed_join.join().expect("killed server thread");
    stop_worker(&survivor, survivor_join);
}

#[test]
fn a_partly_cached_run_ships_only_its_uncached_points() {
    let spec = ExperimentSpec::parse(TWIN_SPEC).unwrap();
    let (handle, join) = start_worker(ServerConfig::default());
    let metrics = Arc::new(Metrics::default());
    let coordinator = coordinator_over([handle.addr()], Arc::clone(&metrics));

    // An earlier spec leaves the fixed-DRAM member of the first run in
    // the coordinator cache.
    let earlier = ExperimentSpec::parse(&TWIN_SPEC.replacen(
        r#""name": "fleet-twins""#,
        r#""name": "earlier""#,
        1,
    ))
    .unwrap();
    let earlier = ExperimentSpec {
        configs: earlier.configs[..1].to_vec(),
        workloads: earlier.workloads[..1].to_vec(),
        ..earlier
    };
    coordinator.run(&earlier, &|_, _| {}, None).unwrap();
    assert_eq!(metrics.points_assigned.get(), 1);

    let (report, members) = run_traced(&coordinator, &spec);
    let local = run_spec(&spec, &Executor::new(1)).unwrap();
    assert_eq!(report.grid, local.grid);
    assert_eq!(render_csv(&report.grid), render_csv(&local.grid));
    // The first run lost its cached member; nothing else changed.
    assert_eq!(members, [1, 1, 2, 3]);
    assert_eq!(metrics.points_assigned.get(), 1 + 7);
    assert_eq!(metrics.points_cache_shared.get(), 1);
    stop_worker(&handle, join);
}

#[test]
fn attributed_runs_ship_one_point_per_request() {
    let attributed = TWIN_SPEC.replacen(
        "\"name\": \"fleet-twins\",",
        "\"name\": \"fleet-twins\",\n    \"attribution\": true,",
        1,
    );
    let spec = ExperimentSpec::parse(&attributed).unwrap();
    let local = run_spec(&spec, &Executor::new(1)).unwrap();
    let workers: Vec<_> = (0..2)
        .map(|_| start_worker(ServerConfig::default()))
        .collect();
    let coordinator = coordinator_over(
        workers.iter().map(|(h, _)| h.addr()),
        Arc::new(Metrics::default()),
    );
    let (report, members) = run_traced(&coordinator, &spec);
    assert_eq!(report.grid, local.grid);
    assert_eq!(members, [1; 8]);
    for (handle, join) in workers {
        stop_worker(&handle, join);
    }
}

/// A grid with mode groups: one shared partition in SS and NSS, each on
/// fixed and banked DRAM, plus a private column. Per workload the four
/// shared points form one group and the private point its own: 10
/// unique points in 4 groups. The write-heavy uniform row's SS run
/// queues two requests on a set, so its NSS points take a second run;
/// the read-only pointer-chase row's NSS points reuse the SS run.
const MODE_SPEC: &str = r#"{
    "name": "fleet-modes",
    "cores": 4,
    "configs": [
        {"label": "SS-fixed", "partition": {"kind": "shared", "sets": 2, "ways": 4, "mode": "SS"}},
        {"label": "NSS-banked", "partition": {"kind": "shared", "sets": 2, "ways": 4, "mode": "NSS"},
         "memory": {"kind": "banked", "banks": 8}},
        {"label": "P", "partition": {"kind": "private", "sets": 2, "ways": 2}},
        {"label": "SS-banked", "partition": {"kind": "shared", "sets": 2, "ways": 4, "mode": "SS"},
         "memory": {"kind": "banked", "banks": 8}},
        {"label": "NSS-fixed", "partition": {"kind": "shared", "sets": 2, "ways": 4, "mode": "NSS"}}
    ],
    "workloads": [
        {"kind": "uniform", "range_bytes": 8192, "ops": 200, "seed": 7, "write_fraction": 0.3},
        {"kind": "chase", "range_bytes": 4096, "ops": 200, "seed": 9}
    ]
}"#;

/// The `runs` fields of every `worker.point` span in `events`, sorted.
fn worker_runs(events: &[TraceEvent]) -> Vec<u64> {
    let mut runs: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "worker.point" && e.kind == EventKind::End)
        .map(|e| match e.fields.iter().find(|(k, _)| k == "runs") {
            Some((_, FieldValue::U64(n))) => *n,
            other => panic!("a worker.point span without runs: {other:?}"),
        })
        .collect();
    runs.sort_unstable();
    runs
}

#[test]
fn mode_groups_are_byte_identical_across_fleet_shapes() {
    let spec = ExperimentSpec::parse(MODE_SPEC).unwrap();
    let local = run_spec(&spec, &Executor::new(1)).unwrap();
    let reference_csv = render_csv(&local.grid);
    let reference_json = render_json(&spec.name, 1, None, &local.grid, local.search.as_ref());
    assert_eq!(local.unique_points, 10);

    for shape in [1usize, 2, 4] {
        let workers: Vec<_> = (0..shape)
            .map(|_| start_worker(ServerConfig::default()))
            .collect();
        let metrics = Arc::new(Metrics::default());
        let coordinator =
            coordinator_over(workers.iter().map(|(h, _)| h.addr()), Arc::clone(&metrics));
        let tracer = Tracer::new();
        let report = coordinator
            .run(
                &spec,
                &|_, _| {},
                Some(TraceCtx::new(&tracer, TraceId::fresh())),
            )
            .unwrap();
        assert_eq!(
            report.grid, local.grid,
            "grid diverged at {shape} worker(s)"
        );
        assert_eq!(render_csv(&report.grid), reference_csv);
        assert_eq!(
            render_json(&spec.name, 1, None, &report.grid, report.search.as_ref()),
            reference_json,
            "JSON diverged at {shape} worker(s)"
        );
        // One request per group; the uniform group took two engine runs,
        // the three others one each. The workers share this process's
        // tracer only through the propagated trace id, so read theirs.
        let mut members = dispatched_members(&tracer.drain());
        members.sort_unstable();
        assert_eq!(members, [1, 1, 4, 4], "at {shape} worker(s)");
        let events: Vec<TraceEvent> = workers
            .iter()
            .flat_map(|(h, _)| h.tracer().drain())
            .collect();
        assert_eq!(worker_runs(&events), [1, 1, 1, 2], "at {shape} worker(s)");
        assert_eq!(metrics.points_assigned.get(), 10);
        for (handle, join) in workers {
            stop_worker(&handle, join);
        }
    }
}

#[test]
fn a_worker_killed_mid_mode_group_does_not_change_the_bytes() {
    let spec = ExperimentSpec::parse(MODE_SPEC).unwrap();
    let reference = render_csv(&run_spec(&spec, &Executor::new(1)).unwrap().grid);
    let (doomed, doomed_join) = start_worker(ServerConfig {
        fail_after_points: Some(0),
        ..ServerConfig::default()
    });
    let (survivor, survivor_join) = start_worker(ServerConfig::default());

    let metrics = Arc::new(Metrics::default());
    let coordinator = coordinator_over([doomed.addr(), survivor.addr()], Arc::clone(&metrics));
    let report = coordinator.run(&spec, &|_, _| {}, None).unwrap();

    assert_eq!(render_csv(&report.grid), reference);
    assert!(doomed.was_killed(), "the fault injector never fired");
    assert_eq!(metrics.workers_lost.get(), 1);
    assert!(metrics.points_retried.get() >= 1);
    assert_eq!(
        metrics.points_assigned.get(),
        10 + metrics.points_retried.get()
    );
    doomed_join.join().expect("killed server thread");
    stop_worker(&survivor, survivor_join);
}

#[test]
fn a_partly_cached_mode_group_ships_only_its_uncached_members() {
    let spec = ExperimentSpec::parse(MODE_SPEC).unwrap();
    let (handle, join) = start_worker(ServerConfig::default());
    let metrics = Arc::new(Metrics::default());
    let coordinator = coordinator_over([handle.addr()], Arc::clone(&metrics));

    // An earlier spec leaves the uniform row's SS-fixed point in the
    // coordinator cache: the group ships its other three members, led
    // by the lowest (NSS-banked), with SS-banked as a mode twin.
    let earlier = ExperimentSpec {
        configs: spec.configs[..1].to_vec(),
        workloads: spec.workloads[..1].to_vec(),
        ..spec.clone()
    };
    coordinator.run(&earlier, &|_, _| {}, None).unwrap();
    assert_eq!(metrics.points_assigned.get(), 1);

    let (report, members) = run_traced(&coordinator, &spec);
    let local = run_spec(&spec, &Executor::new(1)).unwrap();
    assert_eq!(report.grid, local.grid);
    assert_eq!(render_csv(&report.grid), render_csv(&local.grid));
    assert_eq!(members, [1, 1, 3, 4]);
    assert_eq!(metrics.points_assigned.get(), 1 + 9);
    assert_eq!(metrics.points_cache_shared.get(), 1);
    stop_worker(&handle, join);
}

#[test]
fn a_failing_mode_twin_is_positioned_at_its_own_point() {
    // A double that refuses every point request with a 422 naming the
    // request's second member: the NSS point of an SS+NSS group.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let mut buf = [0u8; 8192];
            let n = stream.read(&mut buf).unwrap_or(0);
            let (status, body) = match buf[..n].starts_with(b"GET /healthz") {
                true => ("200 OK", "ok\n"),
                false => (
                    "422 Unprocessable Entity",
                    r#"{"error":"best effort deadlocked","kind":"sim","member":1}"#,
                ),
            };
            let _ = stream.write_all(
                format!(
                    "HTTP/1.1 {status}\r\ncontent-type: application/json\r\n\
                     content-length: {}\r\nconnection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
        }
    });
    let spec = ExperimentSpec::parse(
        r#"{
        "name": "fleet-mode-reject", "cores": 2,
        "configs": [
            {"label": "SS", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}},
            {"label": "NSS", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "NSS"}}
        ],
        "workloads": [{"label": "W0", "kind": "uniform", "range_bytes": 1024, "ops": 50, "seed": 5}]
    }"#,
    )
    .unwrap();
    let coordinator = coordinator_over([addr], Arc::new(Metrics::default()));
    match coordinator.run(&spec, &|_, _| {}, None) {
        Err(FleetError::Point {
            config, workload, ..
        }) => assert_eq!((config.as_str(), workload.as_str()), ("NSS", "W0")),
        other => panic!("expected a positioned Point failure, got {other:?}"),
    }
}

/// A worker double over raw TCP: healthy heartbeats, and every point
/// request answered `200` with the canned `reply` body. Returns its
/// address and the number of point requests it answered.
fn canned_worker(reply: String) -> (SocketAddr, Arc<std::sync::atomic::AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let answered = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let count = Arc::clone(&answered);
    std::thread::spawn(move || {
        use std::io::{BufRead, BufReader};
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            // Read the whole request, head and body, before answering.
            let mut reader = BufReader::new(&stream);
            let (mut head, mut line) = (String::new(), String::new());
            while reader.read_line(&mut line).is_ok_and(|n| n > 2) {
                head.push_str(&std::mem::take(&mut line));
            }
            let length = head
                .lines()
                .filter_map(|l| l.split_once(':'))
                .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                .map_or(0, |(_, v)| v.trim().parse().unwrap_or(0));
            let _ = reader.read_exact(&mut vec![0; length]);
            let body = match head.starts_with("GET /healthz") {
                true => "ok\n",
                false => {
                    count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    reply.as_str()
                }
            };
            let _ = stream.write_all(
                format!(
                    "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                     content-length: {}\r\nconnection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
        }
    });
    (addr, answered)
}

#[test]
fn a_reply_for_other_points_loses_the_worker() {
    use predllc::explore::{measure, point_fingerprint};

    // Two shared points of one run group, on fixed and on banked DRAM,
    // and one more point with another workload seed.
    let spec = ExperimentSpec::parse(
        r#"{
        "name": "fleet-misanswer", "cores": 2,
        "configs": [
            {"label": "SS-fixed", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}},
            {"label": "SS-banked", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"},
             "memory": {"kind": "banked", "banks": 8}}
        ],
        "workloads": [
            {"kind": "uniform", "range_bytes": 4096, "ops": 200, "seed": 5, "write_fraction": 0.2},
            {"kind": "uniform", "range_bytes": 4096, "ops": 200, "seed": 6, "write_fraction": 0.2}
        ]
    }"#,
    )
    .unwrap();
    // One reply object per (config, workload): its fingerprint and the
    // in-process measurement, rendered as a worker renders them.
    let answer = |ci: usize, wi: usize| {
        let config = spec.configs[ci].build(spec.cores).unwrap();
        let workload = spec.workloads[wi].spec.build(spec.cores);
        let measured = measure(&[&config], &workload).0.remove(0).unwrap();
        let fp = point_fingerprint(spec.cores, &spec.configs[ci], &spec.workloads[wi], false);
        format!(
            r#""fingerprint":"{}","cached":false,"measurement":{}"#,
            fp.to_hex(),
            measured.render()
        )
    };
    let group = ExperimentSpec {
        workloads: spec.workloads[..1].to_vec(),
        ..spec.clone()
    };
    let first = ExperimentSpec {
        configs: spec.configs[..1].to_vec(),
        ..group.clone()
    };
    for (spec, reply, pending) in [
        // A well-formed measurement of another point.
        (first, format!("{{{}}}", answer(0, 1)), 1),
        // Both members of the group, swapped.
        (
            group,
            format!("{{{},\"twins\":[{{{}}}]}}", answer(1, 0), answer(0, 0)),
            2,
        ),
    ] {
        let (addr, answered) = canned_worker(reply);
        let metrics = Arc::new(Metrics::default());
        let coordinator = coordinator_over([addr], Arc::clone(&metrics));
        match coordinator.run(&spec, &|_, _| {}, None) {
            Err(FleetError::NoWorkers { pending: left }) => assert_eq!(left, pending),
            other => panic!("expected NoWorkers, got {other:?}"),
        }
        assert_eq!(answered.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(metrics.workers_lost.get(), 1);
    }
}

/// A tiny deterministic PRNG for the shard-split property tests.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn real_run_shards_merge_to_the_single_run_histogram_in_any_order() {
    // The per-core histograms of one real simulation ARE shards of the
    // system-wide distribution: merging them in any order and grouping
    // must rebuild it exactly — the property the fleet's merge-on-
    // coordinator step rests on.
    let config = SystemConfig::shared_partition(8, 4, 4, SharingMode::SetSequencer).unwrap();
    let report = Simulator::new(config)
        .unwrap()
        .run(UniformGen::new(8192, 400).with_cores(4))
        .unwrap();
    let whole = report.latency_histogram();
    assert!(!whole.is_empty());

    let shards: Vec<LatencyHistogram> = (0..4)
        .map(|i| report.stats.core(CoreId::new(i)).latencies.clone())
        .collect();

    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..16 {
        // A random merge order...
        let mut order: Vec<usize> = (0..shards.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (xorshift(&mut state) % (i as u64 + 1)) as usize);
        }
        // ...and a random grouping: fold pairs of partial merges, not
        // just a left fold, to exercise associativity.
        let mut partials: Vec<LatencyHistogram> =
            order.iter().map(|&i| shards[i].clone()).collect();
        while partials.len() > 1 {
            let j = 1 + (xorshift(&mut state) % (partials.len() as u64 - 1)) as usize;
            let absorbed = partials.swap_remove(j);
            partials[0].merge(&absorbed);
        }
        let merged = partials.pop().unwrap();
        assert_eq!(merged, whole);
        assert_eq!(merged.percentile(100.0), report.max_request_latency());
        assert_eq!(merged.summary(), whole.summary());
    }
}

#[test]
fn randomized_shard_splits_always_rebuild_the_full_histogram() {
    // Scatter a synthetic latency stream over K shards at random; the
    // shard-merge must equal the everything-in-one histogram bit for
    // bit, for any K and any assignment.
    let mut state = 0xdead_beef_cafe_f00du64;
    for &k in &[1usize, 2, 3, 7] {
        let mut whole = LatencyHistogram::new();
        let mut shards = vec![LatencyHistogram::new(); k];
        for _ in 0..5_000 {
            let latency = predllc::Cycles::new(1 + xorshift(&mut state) % 10_000);
            whole.record(latency);
            let shard = (xorshift(&mut state) % k as u64) as usize;
            shards[shard].record(latency);
        }
        let mut merged = LatencyHistogram::new();
        for shard in &shards {
            merged.merge(shard);
        }
        assert_eq!(merged, whole, "split over {k} shard(s) diverged");
        assert_eq!(merged.summary(), whole.summary());
        assert_eq!(merged.percentile(100.0), whole.max());

        // And the wire round-trip of every shard is lossless, so the
        // property survives serialization too.
        let rebuilt: Vec<LatencyHistogram> = shards
            .iter()
            .map(|s| {
                LatencyHistogram::from_parts(s.total(), s.min(), s.max(), &s.bucket_entries())
                    .unwrap()
            })
            .collect();
        assert_eq!(rebuilt, shards);
    }
}

/// Three run groups per workload: a private partition on fixed and on
/// banked DRAM share one, and a shared partition runs alone. 6 unique
/// points in 4 groups.
const LOSS_SPEC: &str = r#"{
    "name": "fleet-losses",
    "cores": 2,
    "configs": [
        {"label": "P-fixed", "partition": {"kind": "private", "sets": 4, "ways": 2}},
        {"label": "P-banked", "partition": {"kind": "private", "sets": 4, "ways": 2},
         "memory": {"kind": "banked", "banks": 8}},
        {"label": "SS(1,4)", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}}
    ],
    "workloads": [
        {"kind": "uniform", "range_bytes": 2048, "ops": 60, "seed": 3, "write_fraction": 0.2},
        {"kind": "stride", "range_bytes": 2048, "stride": 64, "ops": 60}
    ]
}"#;

/// One fleet run under seeded worker losses: 1–4 workers, each killed
/// mid-answer after a drawn number of point requests (or never), and a
/// drawn heartbeat interval. The run must end byte-identical to the
/// in-process run with every assignment accounted for, or in
/// `NoWorkers` naming exactly the points no worker resolved, with every
/// worker lost. Returns whether it ended in `NoWorkers`.
fn run_with_random_losses(spec: &ExperimentSpec, reference: &str, state: &mut u64) -> bool {
    let shape = 1 + (xorshift(state) % 4) as usize;
    let workers: Vec<_> = (0..shape)
        .map(|_| {
            let fail_after_points = match xorshift(state) % 5 {
                0 => None,
                k => Some(k - 1),
            };
            start_worker(ServerConfig {
                threads: 1,
                reactors: 1,
                dispatchers: 1,
                fail_after_points,
                ..ServerConfig::default()
            })
        })
        .collect();
    let metrics = Arc::new(Metrics::default());
    let coordinator = Coordinator::new(
        workers.iter().map(|(h, _)| h.addr()),
        CoordinatorConfig {
            heartbeat_interval: Duration::from_millis([2, 10, 50][(xorshift(state) % 3) as usize]),
            retries: 0,
            ..CoordinatorConfig::default()
        },
        Arc::clone(&metrics),
    );
    let progress = std::sync::Mutex::new(Vec::new());
    let outcome = coordinator.run(spec, &|done, _| progress.lock().unwrap().push(done), None);
    let mut progress = progress.into_inner().unwrap();
    progress.sort_unstable();
    let resolved = progress.len();
    assert_eq!(progress, (1..=resolved).collect::<Vec<_>>());
    // Each assignment either resolved its points or was retried.
    assert_eq!(
        metrics.points_assigned.get(),
        resolved as u64 + metrics.points_retried.get()
    );
    let no_workers = match outcome {
        Ok(report) => {
            assert_eq!(render_csv(&report.grid), reference);
            assert_eq!(resolved, report.unique_points);
            false
        }
        Err(FleetError::NoWorkers { pending }) => {
            assert_eq!(pending, 6 - resolved);
            assert_eq!(
                coordinator.live_workers(),
                0,
                "NoWorkers with a live worker"
            );
            assert_eq!(metrics.workers_lost.get(), shape as u64);
            true
        }
        Err(other) => panic!("expected a report or NoWorkers, got {other:?}"),
    };
    for (handle, join) in workers {
        stop_worker(&handle, join);
    }
    no_workers
}

#[test]
fn random_worker_losses_end_byte_identical_or_in_no_workers() {
    const CASES: usize = 200;
    let spec = ExperimentSpec::parse(LOSS_SPEC).unwrap();
    let local = run_spec(&spec, &Executor::new(1)).unwrap();
    assert_eq!(
        (
            local.unique_points,
            predllc::explore::plan_grid(&spec).runs.len()
        ),
        (6, 4)
    );
    let reference = render_csv(&local.grid);

    // The cases run on their own thread under a watchdog, so a pool
    // that never answers fails the test instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let mut state = 0x5eed_f1ee_7000_0001u64;
        for _ in 0..CASES {
            let no_workers = run_with_random_losses(&spec, &reference, &mut state);
            tx.send(no_workers).unwrap();
        }
    });
    let mut outcomes = [0usize; 2];
    for case in 0..CASES {
        match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(no_workers) => outcomes[usize::from(no_workers)] += 1,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().unwrap_err())
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("case {case} did not finish within 20 s")
            }
        }
    }
    runner.join().unwrap();
    // Both endings were exercised.
    assert!(outcomes.iter().all(|&n| n >= 10), "{outcomes:?}");
}

#[test]
fn worker_cache_answers_count_as_shared_cache_hits() {
    let spec = ExperimentSpec::parse(TWIN_SPEC).unwrap();
    let (handle, join) = start_worker(ServerConfig::default());
    coordinator_over([handle.addr()], Arc::new(Metrics::default()))
        .run(&spec, &|_, _| {}, None)
        .unwrap();

    // A second coordinator, its own cache empty, ships every point to
    // the same worker, whose cache answers all 8 of them.
    let metrics = Arc::new(Metrics::default());
    let coordinator = coordinator_over([handle.addr()], Arc::clone(&metrics));
    let report = coordinator.run(&spec, &|_, _| {}, None).unwrap();
    let local = run_spec(&spec, &Executor::new(1)).unwrap();
    assert_eq!(render_csv(&report.grid), render_csv(&local.grid));
    assert_eq!(metrics.points_assigned.get(), 8);
    assert_eq!(metrics.points_cache_shared.get(), 8);
    assert_eq!(handle.metrics().points_simulated.get(), 8);
    stop_worker(&handle, join);
}
