//! End-to-end tests of the experiment service: served results must be
//! byte-identical to in-process runs at any thread count, duplicate
//! submissions — sequential or concurrent — must coalesce onto exactly
//! one execution, and the HTTP surface must fail cleanly.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use predllc::explore::report::{render_csv, render_json};
use predllc::explore::{run_spec, Executor};
use predllc::serve::{
    Client, ClientError, Format, JobStatus, Limits, Server, ServerConfig, ServerHandle,
};
use predllc::ExperimentSpec;

/// A small but non-trivial spec: two platforms (one banked), two
/// workload families, 4 grid points.
const SPEC: &str = r#"{
    "name": "serve-e2e",
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

fn start(config: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind an ephemeral port");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (handle, join)
}

fn stop(handle: &ServerHandle, join: std::thread::JoinHandle<()>) {
    handle.shutdown();
    join.join().expect("server thread");
}

/// Opens a result stream and collapses it — the common test shape.
fn fetch(client: &mut Client, id: &str, format: Format) -> Result<String, ClientError> {
    client.results(id, format)?.text()
}

/// Every non-2xx JSON answer must be `{"error": <non-empty>, "kind":
/// <taxonomy>}` (extra fields allowed, e.g. 409's `"status"`).
fn assert_error_shape(body: &str, kind: &str) {
    use predllc::explore::json::{self, Json};
    let doc = json::parse(body).unwrap_or_else(|e| panic!("error body is not JSON ({e}): {body}"));
    let message = doc.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(!message.is_empty(), "missing or empty 'error' in {body}");
    assert_eq!(
        doc.get("kind").and_then(Json::as_str),
        Some(kind),
        "wrong 'kind' in {body}"
    );
}

/// One raw HTTP/1.1 exchange for request shapes the typed client
/// cannot produce (wrong methods, bogus paths, malformed syntax).
/// Sends `connection: close` so reading to EOF terminates.
fn raw_request(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let status = reply
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable status line in {reply:?}"));
    let body = reply.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    (status, body.to_string())
}

#[test]
fn served_results_are_byte_identical_to_in_process_runs_at_any_thread_count() {
    // The in-process reference (thread count is irrelevant to the
    // bytes: the executor is deterministic — also asserted below).
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let reference_csv = render_csv(&run_spec(&spec, &Executor::new(1)).unwrap().grid);

    let mut served = Vec::new();
    for threads in [1, 2, 4] {
        let (handle, join) = start(ServerConfig {
            threads,
            ..ServerConfig::default()
        });
        let mut client = Client::new(handle.addr());
        let submitted = client.submit(SPEC).unwrap();
        assert!(!submitted.cached);
        assert_eq!(submitted.name, "serve-e2e");
        let done = client
            .wait_done(&submitted.id, Duration::from_secs(120))
            .unwrap();
        assert_eq!(done.status, "done");
        assert_eq!(done.points_done, done.points_total);

        let csv = fetch(&mut client, &submitted.id, Format::Csv).unwrap();
        assert_eq!(
            csv, reference_csv,
            "served CSV diverged at {threads} thread(s)"
        );
        // The JSON document matches an in-process render of the same
        // report at the server's thread count (no wall time recorded).
        let report = run_spec(&spec, &Executor::new(threads)).unwrap();
        let reference_json = render_json(
            &spec.name,
            Executor::new(threads).threads(),
            None,
            &report.grid,
            report.search.as_ref(),
        );
        assert_eq!(
            fetch(&mut client, &submitted.id, Format::Json).unwrap(),
            reference_json
        );
        served.push(csv);
        stop(&handle, join);
    }
    assert!(served.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn attribution_endpoint_serves_the_artifact_only_when_on() {
    use predllc::explore::{json, json::Json, PointAttribution};

    let (handle, join) = start(ServerConfig::default());
    let mut client = Client::new(handle.addr());

    // An attribution-off job answers 404 on the attribution endpoint,
    // so callers can tell "off" apart from "not ready" (409).
    let off = client.submit(SPEC).unwrap();
    client.wait_done(&off.id, Duration::from_secs(120)).unwrap();
    let off_csv = fetch(&mut client, &off.id, Format::Csv).unwrap();
    let off_json = fetch(&mut client, &off.id, Format::Json).unwrap();
    match client.results(&off.id, Format::Attribution) {
        Err(ClientError::Status { status: 404, body }) => {
            assert!(body.contains("attribution"), "{body}");
            assert_error_shape(&body, "not_found");
        }
        other => panic!(
            "expected 404 for an attribution-off job, got {:?}",
            other.map(|_| "a body stream")
        ),
    }
    assert!(
        !client
            .metrics()
            .unwrap()
            .contains("predllc_latency_component_cycles"),
        "an attribution-off job must not touch the component family"
    );

    // The same experiment with attribution on is a distinct job (its
    // own cache slot), serves byte-identical classic results, and the
    // attribution artifact parses back losslessly with the component
    // sums intact.
    let attributed = SPEC.replacen(
        "\"name\": \"serve-e2e\",",
        "\"name\": \"serve-e2e\",\n    \"attribution\": true,",
        1,
    );
    let on = client.submit(&attributed).unwrap();
    assert!(!on.cached, "attribution must not coalesce with the off job");
    assert_ne!(on.id, off.id);
    client.wait_done(&on.id, Duration::from_secs(120)).unwrap();
    assert_eq!(fetch(&mut client, &on.id, Format::Csv).unwrap(), off_csv);
    assert_eq!(fetch(&mut client, &on.id, Format::Json).unwrap(), off_json);

    // The attributed run also populated the per-component scrape
    // family (the off job, which ran first, must not have).
    let scrape = client.metrics().unwrap();
    assert!(
        scrape.contains("predllc_latency_component_cycles{component=\"bus\"}"),
        "no component family in:\n{scrape}"
    );

    let doc = json::parse(&fetch(&mut client, &on.id, Format::Attribution).unwrap()).unwrap();
    assert_eq!(doc.get("name").and_then(Json::as_str), Some("serve-e2e"));
    let Some(Json::Array(points)) = doc.get("points") else {
        panic!("attribution artifact has no points array");
    };
    assert_eq!(points.len(), 4, "one attribution per grid point");
    for p in points {
        let attr = PointAttribution::from_json(p.get("attribution").unwrap()).unwrap();
        assert!(attr.components.total().as_u64() > 0);
        let w = attr.witness.expect("every served point has a witness");
        assert_eq!(w.components.total(), w.latency, "witness sum broke");
    }

    stop(&handle, join);
}

#[test]
fn sequential_resubmission_is_a_cache_hit_with_one_execution() {
    let (handle, join) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::new(handle.addr());
    let first = client.submit(SPEC).unwrap();
    client
        .wait_done(&first.id, Duration::from_secs(120))
        .unwrap();
    let first_body = fetch(&mut client, &first.id, Format::Csv).unwrap();

    // Same experiment, cosmetically different document: reordered keys,
    // different whitespace.
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let reordered = r#"{
        "cores": 2,
        "workloads": [
            {"seed": 11, "write_fraction": 0.2, "kind": "uniform", "ops": 300, "range_bytes": 4096},
            {"stride": 64, "ops": 300, "kind": "stride", "range_bytes": 4096}
        ],
        "configs": [
            {"partition": {"mode": "SS", "ways": 4, "sets": 1, "kind": "shared"}, "label": "SS(1,4)"},
            {"memory": {"mapping": "bank-private", "banks": 8, "kind": "banked"},
             "partition": {"ways": 2, "sets": 4, "kind": "private"}}
        ],
        "name": "serve-e2e"
    }"#;
    // Sanity: the reordered document really is the same experiment.
    assert_eq!(ExperimentSpec::parse(reordered).unwrap(), spec);

    let second = client.submit(reordered).unwrap();
    assert!(second.cached, "reordered duplicate was not coalesced");
    assert_eq!(second.id, first.id);
    assert_eq!(second.status, "done");
    assert_eq!(
        fetch(&mut client, &second.id, Format::Csv).unwrap(),
        first_body
    );

    assert_eq!(client.metric("predllc_cache_misses").unwrap(), 1);
    assert_eq!(client.metric("predllc_cache_hits").unwrap(), 1);
    assert_eq!(client.metric("predllc_jobs_done").unwrap(), 1);
    // Exactly one execution of the 4 unique points.
    assert_eq!(client.metric("predllc_points_simulated").unwrap(), 4);
    stop(&handle, join);
}

#[test]
fn concurrent_identical_submissions_coalesce_onto_one_execution() {
    const CLIENTS: usize = 8;
    let (handle, join) = start(ServerConfig {
        threads: 2,
        runners: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::new(addr);
                // Line every thread up so the submissions genuinely race.
                barrier.wait();
                let submitted = client.submit(SPEC).unwrap();
                client
                    .wait_done(&submitted.id, Duration::from_secs(120))
                    .unwrap();
                let body = fetch(&mut client, &submitted.id, Format::Csv).unwrap();
                (submitted.id, submitted.cached, body)
            })
        })
        .collect();
    let outcomes: Vec<(String, bool, String)> =
        workers.into_iter().map(|w| w.join().unwrap()).collect();

    // Every client got the same id and byte-identical result bodies.
    let (id0, _, body0) = &outcomes[0];
    assert!(outcomes.iter().all(|(id, _, _)| id == id0));
    assert!(outcomes.iter().all(|(_, _, body)| body == body0));
    // Exactly one submission created the job; the other N-1 coalesced.
    assert_eq!(
        outcomes.iter().filter(|(_, cached, _)| !cached).count(),
        1,
        "exactly one submission should be the cache miss"
    );

    let mut client = Client::new(addr);
    assert_eq!(client.metric("predllc_cache_misses").unwrap(), 1);
    assert_eq!(
        client.metric("predllc_cache_hits").unwrap(),
        (CLIENTS - 1) as u64
    );
    assert_eq!(client.metric("predllc_jobs_done").unwrap(), 1);
    assert_eq!(client.metric("predllc_points_simulated").unwrap(), 4);
    stop(&handle, join);
}

#[test]
fn point_dedup_counts_unique_work_through_the_service() {
    // Two physically identical configuration columns: 2x1 declared grid,
    // 1 unique point.
    let duplicated = r#"{
        "name": "serve-dedup", "cores": 2,
        "configs": [
            {"label": "A", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}},
            {"label": "B", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}}
        ],
        "workloads": [{"kind": "uniform", "range_bytes": 1024, "ops": 80, "seed": 3}]
    }"#;
    let (handle, join) = start(ServerConfig::default());
    let mut client = Client::new(handle.addr());
    let submitted = client.submit(duplicated).unwrap();
    assert_eq!(
        submitted.points_total, 1,
        "progress denominator is unique points"
    );
    client
        .wait_done(&submitted.id, Duration::from_secs(120))
        .unwrap();
    assert_eq!(client.metric("predllc_points_simulated").unwrap(), 1);
    // Both declared rows are served, with their own labels.
    let csv = fetch(&mut client, &submitted.id, Format::Csv).unwrap();
    assert_eq!(csv.lines().count(), 3);
    assert!(csv.contains("\nA,") && csv.contains("\nB,"));
    stop(&handle, join);
}

#[test]
fn http_error_paths_answer_cleanly() {
    let (handle, join) = start(ServerConfig {
        limits: Limits {
            max_body: 2048,
            ..Limits::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::new(handle.addr());

    // Invalid JSON and schema violations → 400 with the parser's story,
    // in the `{"error", "kind"}` shape.
    for bad in [
        "{",
        r#"{"name": "x"}"#,
        r#"{"name":"x","cores":2,"configz":[]}"#,
    ] {
        match client.submit(bad) {
            Err(ClientError::Status { status: 400, body }) => {
                assert_error_shape(&body, "spec");
            }
            other => panic!("expected 400 for {bad:?}, got {other:?}"),
        }
    }
    // Unknown ids → 404, for status and results alike.
    for call in [
        client
            .status("00000000000000000000000000000000")
            .unwrap_err(),
        fetch(&mut client, "00000000000000000000000000000000", Format::Csv).unwrap_err(),
        client.status("not-even-hex").unwrap_err(),
    ] {
        match call {
            ClientError::Status { status, body } => {
                assert_eq!(status, 404);
                assert_error_shape(&body, "not_found");
            }
            other => panic!("expected 404, got {other:?}"),
        }
    }
    // An over-limit body → 413.
    let huge = format!(
        r#"{{"name": "{}", "cores": 2, "configs": [], "workloads": []}}"#,
        "x".repeat(4096)
    );
    match client.submit(&huge) {
        Err(ClientError::Status { status: 413, body }) => {
            assert_error_shape(&body, "limits");
        }
        // The server may also slam the connection after refusing; both
        // are clean refusals.
        Err(ClientError::Io(_) | ClientError::Protocol(_)) => {}
        other => panic!("expected 413 or a closed connection, got {other:?}"),
    }
    // The service is still healthy afterwards.
    let mut fresh = Client::new(handle.addr());
    assert_eq!(fresh.healthz().unwrap(), "ok\n");
    assert_eq!(fresh.metric("predllc_jobs_failed").unwrap(), 0);
    stop(&handle, join);
}

#[test]
fn deeply_nested_body_is_a_400_not_a_stack_overflow() {
    // An adversarial body of half a million brackets used to overflow
    // the 2 MiB connection-thread stack inside the recursive JSON
    // parser; the parser's depth limit turns it into a positioned parse
    // error, which the service maps to a plain 400.
    let (handle, join) = start(ServerConfig {
        limits: Limits {
            max_body: 2 << 20,
            ..Limits::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::new(handle.addr());
    let depth = 500_000;
    let bomb = "[".repeat(depth) + &"]".repeat(depth);
    match client.submit(&bomb) {
        Err(ClientError::Status { status: 400, body }) => {
            assert!(
                body.contains("depth"),
                "error should name the limit: {body}"
            );
            assert_error_shape(&body, "spec");
        }
        other => panic!("expected 400 for the bracket bomb, got {other:?}"),
    }
    // A body just inside the limit parses (and then fails schema
    // validation, still a clean 400 — not a crash).
    let deep_ok = "[".repeat(100) + &"]".repeat(100);
    match client.submit(&deep_ok) {
        Err(ClientError::Status { status: 400, body }) => {
            assert!(!body.contains("depth"), "{body}");
            assert_error_shape(&body, "spec");
        }
        other => panic!("expected a schema 400, got {other:?}"),
    }
    // The connection thread survived; the service is still healthy.
    let mut fresh = Client::new(handle.addr());
    assert_eq!(fresh.healthz().unwrap(), "ok\n");
    stop(&handle, join);
}

#[test]
fn metrics_render_exactly_including_fleet_counters() {
    // Every pre-exposition counter line survives verbatim (same name,
    // same `name value` shape), now wrapped in HELP/TYPE metadata plus
    // per-endpoint latency histograms. The fetch counts itself, so
    // after one healthz this is request number two. The whole body must
    // pass the in-tree Prometheus exposition validator.
    let (handle, join) = start(ServerConfig::default());
    let mut client = Client::new(handle.addr());
    client.healthz().unwrap();
    let body = client.metrics().unwrap();
    for line in [
        "predllc_jobs_queued 0",
        "predllc_jobs_running 0",
        "predllc_jobs_done 0",
        "predllc_jobs_failed 0",
        "predllc_cache_hits 0",
        "predllc_cache_misses 0",
        "predllc_points_simulated 0",
        "predllc_http_requests 2",
        "predllc_workers_alive 0",
        "predllc_workers_lost 0",
        "predllc_points_assigned 0",
        "predllc_points_retried 0",
        "predllc_points_cache_shared 0",
    ] {
        assert!(
            body.lines().any(|l| l == line),
            "compat counter line '{line}' missing from:\n{body}"
        );
    }
    // The healthz request landed in the per-endpoint latency histogram.
    assert!(
        body.contains("predllc_http_request_duration_ns_bucket{endpoint=\"healthz\""),
        "no healthz latency series in:\n{body}"
    );
    assert!(body.ends_with('\n'), "exposition must end with a newline");
    let summary = predllc::obs::expo::validate(&body).expect("/metrics must validate");
    assert!(summary.families >= 14, "families: {}", summary.families);
    stop(&handle, join);
}

#[test]
fn point_endpoint_computes_caches_and_positions_errors() {
    use predllc::explore::{measure, PointMeasurement, PointRequest};

    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let point = PointRequest {
        cores: spec.cores,
        config: spec.configs[0].clone(),
        workload: spec.workloads[0].clone(),
        attribution: false,
        twins: Vec::new(),
    };
    let wire = point.render().unwrap();
    let fingerprint = point.fingerprint().to_hex();

    let (handle, join) = start(ServerConfig::default());
    let mut client = Client::new(handle.addr());

    // First POST simulates; the measurement round-trips to exactly what
    // an in-process measure() of the same point produces.
    let reply = client.point(&wire).unwrap();
    assert!(!reply.cached);
    assert_eq!(reply.fingerprint, fingerprint);
    let shipped = PointMeasurement::from_json(&reply.measurement).unwrap();
    let config = spec.configs[0].build(spec.cores).unwrap();
    let workload = spec.workloads[0].spec.build(spec.cores);
    assert_eq!(shipped, measure(&[&config], &workload).0.remove(0).unwrap());

    // The re-POST and the GET are shared-cache answers, not re-runs.
    let again = client.point(&wire).unwrap();
    assert!(again.cached);
    assert_eq!(again.measurement, reply.measurement);
    let fetched = client.cached_point(&fingerprint).unwrap();
    assert!(fetched.cached);
    assert_eq!(fetched.measurement, reply.measurement);
    assert_eq!(client.metric("predllc_points_simulated").unwrap(), 1);
    assert_eq!(client.metric("predllc_points_cache_shared").unwrap(), 2);

    // An unbuildable platform is a positioned 422, not a generic 500.
    let bad = ExperimentSpec::parse(
        r#"{
        "name": "bad", "cores": 2,
        "configs": [{"partition": {"kind": "private", "sets": 32, "ways": 16}}],
        "workloads": [{"kind": "uniform", "range_bytes": 1024, "ops": 10}]
    }"#,
    )
    .unwrap();
    let bad_wire = PointRequest {
        cores: bad.cores,
        config: bad.configs[0].clone(),
        workload: bad.workloads[0].clone(),
        attribution: false,
        twins: Vec::new(),
    }
    .render()
    .unwrap();
    match client.point(&bad_wire) {
        Err(ClientError::Status { status: 422, body }) => {
            assert_error_shape(&body, "config");
        }
        other => panic!("expected 422, got {other:?}"),
    }

    // Unknown or malformed fingerprints → 404.
    for fp in ["00000000000000000000000000000000", "not-hex"] {
        match client.cached_point(fp) {
            Err(ClientError::Status { status: 404, body }) => {
                assert_error_shape(&body, "not_found");
            }
            other => panic!("expected 404 for {fp:?}, got {other:?}"),
        }
    }
    stop(&handle, join);
}

#[test]
fn a_run_with_twins_caches_each_member_under_its_own_fingerprint() {
    use predllc::explore::{measure, point_fingerprint, PointMeasurement, PointRequest};

    // The second column's partition on the seed's fixed DRAM and on
    // banked-interleaved DRAM: one run, three points.
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let first = spec.configs[1].clone();
    let twin_memories = [
        predllc::MemoryConfig::default(),
        predllc::MemoryConfig::banked(),
    ];
    let point = PointRequest {
        cores: spec.cores,
        config: first.clone(),
        workload: spec.workloads[0].clone(),
        attribution: false,
        twins: twin_memories
            .iter()
            .map(|memory| {
                let mut twin = first.clone();
                twin.memory = memory.clone();
                twin
            })
            .collect(),
    };
    let members = point.members();

    let (handle, join) = start(ServerConfig::default());
    let mut client = Client::new(handle.addr());
    let reply = client.point(&point.render().unwrap()).unwrap();
    assert_eq!(reply.twins.len(), 2);
    assert!(reply.twins.iter().all(|t| t.twins.is_empty()));
    let workload = spec.workloads[0].spec.build(spec.cores);
    for (member, got) in members
        .iter()
        .zip(std::iter::once(&reply).chain(&reply.twins))
    {
        // Each member answers as its own one-point measurement would.
        let fp = point_fingerprint(spec.cores, member, &spec.workloads[0], false);
        assert_eq!(got.fingerprint, fp.to_hex());
        assert!(!got.cached);
        let alone = measure(&[&member.build(spec.cores).unwrap()], &workload).0;
        assert_eq!(
            PointMeasurement::from_json(&got.measurement).unwrap(),
            alone[0].clone().unwrap()
        );
        // ...and is cached under its own fingerprint.
        let fetched = client.cached_point(&fp.to_hex()).unwrap();
        assert!(fetched.cached);
        assert_eq!(fetched.measurement, got.measurement);
    }
    assert_eq!(client.metric("predllc_points_simulated").unwrap(), 3);

    // A run whose members are all cached never reaches the engine; a
    // partly cached one measures only what is missing.
    let again = client.point(&point.render().unwrap()).unwrap();
    assert!(again.cached && again.twins.iter().all(|t| t.cached));
    let mut wider = point.clone();
    wider.twins.push(predllc::explore::ConfigSpec {
        memory: predllc::MemoryConfig::banked().worst_case(),
        ..first.clone()
    });
    let wide = client.point(&wider.render().unwrap()).unwrap();
    let cached: Vec<bool> = std::iter::once(&wide)
        .chain(&wide.twins)
        .map(|r| r.cached)
        .collect();
    assert_eq!(cached, [true, true, true, false]);
    assert_eq!(client.metric("predllc_points_simulated").unwrap(), 4);

    // Twins never ride on an attributed request: a positioned 400.
    let attributed =
        point
            .render()
            .unwrap()
            .replacen(r#""twins""#, r#""attribution":true,"twins""#, 1);
    match client.point(&attributed) {
        Err(ClientError::Status { status: 400, body }) => {
            assert_error_shape(&body, "point");
            assert!(body.contains("point.twins"), "{body}");
        }
        other => panic!("expected 400 for an attributed run with twins, got {other:?}"),
    }
    stop(&handle, join);
}

#[test]
fn a_mode_group_caches_each_member_under_its_own_fingerprint() {
    use predllc::explore::{
        measure, point_fingerprint, ConfigSpec, PointMeasurement, PointRequest,
    };
    use predllc::MemoryConfig;
    use predllc::SharingMode::{BestEffort, SetSequencer};

    // The SS column's partition and its NSS twin, each on fixed and on
    // banked DRAM: one group, four points, measured by one `measure`.
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let member = |mode, memory| ConfigSpec {
        partitioning: predllc::explore::spec::Partitioning::SharedAll {
            sets: 1,
            ways: 4,
            mode,
        },
        memory,
        ..spec.configs[0].clone()
    };
    let point = PointRequest {
        cores: spec.cores,
        config: spec.configs[0].clone(),
        workload: spec.workloads[1].clone(),
        attribution: false,
        twins: vec![
            member(SetSequencer, MemoryConfig::banked()),
            member(BestEffort, MemoryConfig::default()),
            member(BestEffort, MemoryConfig::banked()),
        ],
    };
    let members = point.members();

    let (handle, join) = start(ServerConfig::default());
    let mut client = Client::new(handle.addr());
    let reply = client.point(&point.render().unwrap()).unwrap();
    assert_eq!(reply.twins.len(), 3);
    let workload = spec.workloads[1].spec.build(spec.cores);
    for (member, got) in members
        .iter()
        .zip(std::iter::once(&reply).chain(&reply.twins))
    {
        // Each member answers as its own one-point measurement would,
        // and is cached under its own fingerprint.
        let fp = point_fingerprint(spec.cores, member, &spec.workloads[1], false);
        assert_eq!(got.fingerprint, fp.to_hex());
        assert!(!got.cached);
        let alone = measure(&[&member.build(spec.cores).unwrap()], &workload).0;
        assert_eq!(
            PointMeasurement::from_json(&got.measurement).unwrap(),
            alone[0].clone().unwrap()
        );
        let fetched = client.cached_point(&fp.to_hex()).unwrap();
        assert!(fetched.cached);
        assert_eq!(fetched.measurement, got.measurement);
    }
    assert_eq!(client.metric("predllc_points_simulated").unwrap(), 4);

    // A one-point request for a mode twin is answered from the cache.
    let nss = PointRequest {
        config: point.twins[1].clone(),
        twins: Vec::new(),
        ..point.clone()
    };
    assert!(client.point(&nss.render().unwrap()).unwrap().cached);
    assert_eq!(client.metric("predllc_points_simulated").unwrap(), 4);

    // Mode twins never ride on an attributed request: a positioned 400.
    let attributed =
        point
            .render()
            .unwrap()
            .replacen(r#""twins""#, r#""attribution":true,"twins""#, 1);
    match client.point(&attributed) {
        Err(ClientError::Status { status: 400, body }) => {
            assert_error_shape(&body, "point");
            assert!(body.contains("point.twins"), "{body}");
        }
        other => panic!("expected 400 for an attributed run with mode twins, got {other:?}"),
    }
    stop(&handle, join);
}

#[test]
fn a_twin_outside_the_first_points_run_group_is_a_positioned_400() {
    use predllc::explore::spec::Partitioning;
    use predllc::explore::{point_fingerprint, ConfigSpec, PointRequest};
    use predllc::{MemoryConfig, SharingMode};

    // The SS column's point with a twin in its run group, the NSS
    // partition on banked DRAM: measured and cached under its own
    // fingerprint.
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let first = spec.configs[0].clone();
    let shared = |ways, mode| Partitioning::SharedAll {
        sets: 1,
        ways,
        mode,
    };
    let in_group = ConfigSpec {
        partitioning: shared(4, SharingMode::BestEffort),
        memory: MemoryConfig::banked(),
        ..first.clone()
    };
    let point = PointRequest {
        cores: spec.cores,
        config: first.clone(),
        workload: spec.workloads[0].clone(),
        attribution: false,
        twins: vec![in_group.clone()],
    };
    let (handle, join) = start(ServerConfig::default());
    let mut client = Client::new(handle.addr());
    let reply = client.point(&point.render().unwrap()).unwrap();
    let fp = point_fingerprint(spec.cores, &in_group, &spec.workloads[0], false).to_hex();
    assert_eq!(reply.twins.len(), 1);
    assert_eq!(reply.twins[0].fingerprint, fp);
    assert!(client.cached_point(&fp).unwrap().cached);
    assert_eq!(client.metric("predllc_points_simulated").unwrap(), 2);

    // Other ways, a private partition under the shared first point, or
    // another schedule put a twin in another run group: a 400 at that
    // twin, and nothing is simulated.
    for outside in [
        ConfigSpec {
            partitioning: shared(2, SharingMode::SetSequencer),
            ..first.clone()
        },
        ConfigSpec {
            partitioning: Partitioning::PrivateEach { sets: 1, ways: 4 },
            ..first.clone()
        },
        ConfigSpec {
            schedule: Some(vec![1, 0]),
            ..first.clone()
        },
    ] {
        let wire = PointRequest {
            twins: vec![in_group.clone(), outside],
            ..point.clone()
        }
        .render()
        .unwrap();
        match client.point(&wire) {
            Err(ClientError::Status { status: 400, body }) => {
                assert_error_shape(&body, "point");
                assert!(body.contains("at point.twins[1]:"), "{body}");
            }
            other => panic!("expected 400 for a twin outside the run group, got {other:?}"),
        }
    }
    assert_eq!(client.metric("predllc_points_simulated").unwrap(), 2);
    stop(&handle, join);
}

#[test]
fn every_error_answer_carries_error_and_kind() {
    use predllc::serve::MonitorConfig;

    // Monitoring on, so the history endpoint exists and its query
    // validation is reachable.
    let (handle, join) = start(ServerConfig {
        monitor: Some(MonitorConfig::default()),
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut client = Client::new(addr);

    // Routing errors: unknown endpoint → 404, wrong method → 405.
    let (status, body) = raw_request(addr, "GET /nope HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert_eq!(status, 404);
    assert_error_shape(&body, "not_found");
    let (status, body) = raw_request(
        addr,
        "DELETE /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 405);
    assert_error_shape(&body, "method_not_allowed");

    // Malformed HTTP syntax → 400 "http".
    let (status, body) = raw_request(addr, "NOT-EVEN-HTTP\r\n\r\n");
    assert_eq!(status, 400);
    assert_error_shape(&body, "http");

    // Bad query parameter on a real endpoint → 400 "query".
    let (status, body) = raw_request(
        addr,
        "GET /v1/metrics/history?window=banana HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 400);
    assert_error_shape(&body, "query");
    // A held status wait must be a positive number of milliseconds; the
    // answer names the parameter.
    let known = client
        .submit(&SPEC.replace("\"seed\": 11", "\"seed\": 99"))
        .unwrap()
        .id;
    for bad in ["0", "abc"] {
        let (status, body) = raw_request(
            addr,
            &format!(
                "GET /v1/experiments/{known}?wait_ms={bad} HTTP/1.1\r\nconnection: close\r\n\r\n"
            ),
        );
        assert_eq!(status, 400, "wait_ms={bad}");
        assert_error_shape(&body, "query");
        assert!(body.contains(&format!("'wait_ms'={bad}")), "{body}");
    }

    // Malformed point request body → 400 "point".
    match client.point("{") {
        Err(ClientError::Status { status: 400, body }) => assert_error_shape(&body, "point"),
        other => panic!("expected 400 for a bad point body, got {other:?}"),
    }

    // Not-ready results → 409 "not_ready" (plus the job's status). A
    // slow job occupies the single runner, so the one submitted behind
    // it is reliably still queued when we ask for its results.
    let slow = SPEC.replace("\"ops\": 300", "\"ops\": 20000");
    let slow_id = client.submit(&slow).unwrap().id;
    let queued = client.submit(SPEC).unwrap();
    match client.results(&queued.id, Format::Csv) {
        Err(ClientError::Status { status: 409, body }) => {
            assert_error_shape(&body, "not_ready");
            assert!(body.contains("\"status\""), "{body}");
        }
        other => panic!(
            "expected 409 while queued, got {:?}",
            other.map(|_| "a body stream")
        ),
    }
    client
        .wait_done(&slow_id, Duration::from_secs(300))
        .unwrap();
    client
        .wait_done(&queued.id, Duration::from_secs(300))
        .unwrap();

    // A job that fails during the run → 500 "job" on its results.
    let unbuildable = r#"{
        "name": "will-fail", "cores": 2,
        "configs": [{"partition": {"kind": "private", "sets": 32, "ways": 16}}],
        "workloads": [{"kind": "uniform", "range_bytes": 1024, "ops": 10}]
    }"#;
    let failing = client.submit(unbuildable).unwrap();
    match client.wait_done(&failing.id, Duration::from_secs(300)) {
        Err(ClientError::Status { status: 500, .. }) => {}
        other => panic!("expected the job to fail, got {other:?}"),
    }
    match client.results(&failing.id, Format::Csv) {
        Err(ClientError::Status { status: 500, body }) => assert_error_shape(&body, "job"),
        other => panic!(
            "expected 500 for a failed job, got {:?}",
            other.map(|_| "a body stream")
        ),
    }

    // Unknown results format on a finished job → 400 "format" (the
    // done/ready ladder answers first, so this needs a real done job).
    let (status, body) = raw_request(
        addr,
        &format!(
            "GET /v1/experiments/{}/results?format=xml HTTP/1.1\r\nconnection: close\r\n\r\n",
            queued.id
        ),
    );
    assert_eq!(status, 400);
    assert_error_shape(&body, "format");
    stop(&handle, join);

    // Monitoring off → the monitor endpoints 404 with the same shape.
    let (handle, join) = start(ServerConfig::default());
    let mut client = Client::new(handle.addr());
    for call in [
        client.metrics_history(None, None).unwrap_err(),
        client.alerts().unwrap_err(),
    ] {
        match call {
            ClientError::Status { status: 404, body } => assert_error_shape(&body, "not_found"),
            other => panic!("expected 404 with monitoring off, got {other:?}"),
        }
    }
    stop(&handle, join);
}

#[test]
fn shutdown_drains_every_accepted_job() {
    let (handle, join) = start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::new(handle.addr());
    let mut ids = Vec::new();
    for seed in 0..3 {
        let spec = SPEC.replace("\"seed\": 11", &format!("\"seed\": {seed}"));
        ids.push(client.submit(&spec).unwrap().id);
    }
    // Shut down immediately: accepted jobs must finish anyway.
    handle.shutdown();
    join.join().unwrap();
    for id in &ids {
        let job = handle.job(id).expect("job stays registered");
        assert_eq!(job.status(), JobStatus::Done, "job {id} was dropped");
        assert!(job.result().is_some());
    }
    let metrics = handle.metrics();
    assert_eq!(metrics.jobs_done.get(), 3);
    assert_eq!(metrics.jobs_queued.get(), 0);
    assert_eq!(metrics.jobs_running.get(), 0);
}

/// A raw-TCP stand-in for a server: answers every request with `head`
/// (a response head plus a few body bytes), then hangs up, one
/// connection at a time.
fn lying_server(head: &'static str) -> std::net::SocketAddr {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let mut request = Vec::new();
            let mut buf = [0u8; 1024];
            while !request.ends_with(b"\r\n\r\n") {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => request.extend_from_slice(&buf[..n]),
                }
            }
            let _ = stream.write_all(head.as_bytes());
            let _ = stream.shutdown(std::net::Shutdown::Write);
            // Hold the socket until the client lets go, so it sees a
            // clean end of stream rather than a reset.
            let _ = stream.read_to_end(&mut Vec::new());
        }
    });
    addr
}

#[test]
fn absurd_body_sizes_are_errors_not_allocations() {
    // Each head promises far more body than any client could hold; the
    // client must read what arrives and fail on the early end of stream.
    for head in [
        "HTTP/1.1 200 OK\r\ncontent-length: 1000000000000\r\n\r\nok",
        "HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\nok",
        "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\ne8d4a51000\r\nok",
    ] {
        let mut client = Client::new(lying_server(head)).with_retries(1);
        match client.healthz() {
            Err(ClientError::Io(_) | ClientError::Protocol(_)) => {}
            other => panic!("{head:?} answered {other:?}"),
        }
    }
}

#[test]
fn metric_reads_labelled_series_by_their_exposition_key() {
    let (handle, join) = start(ServerConfig::default());
    let mut client = Client::new(handle.addr());
    client.healthz().unwrap();
    let healthz = client
        .metric(r#"predllc_http_request_duration_ns_count{endpoint="healthz"}"#)
        .unwrap();
    assert!(healthz >= 1, "healthz count {healthz}");
    assert!(matches!(
        client.metric("predllc_no_such_metric"),
        Err(ClientError::Protocol(_))
    ));
    stop(&handle, join);
}
