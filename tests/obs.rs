//! End-to-end tests of the observability layer: the Prometheus text
//! exposition round-trips through the in-tree validator (registry
//! output and a live server's `/metrics` alike), trace JSONL parses
//! back to the events that produced it with any JSON parser, a
//! concurrent `/metrics` render never observes a torn counter pair,
//! one trace id spans coordinator- and worker-side events of the
//! same fleet run, and a server's own trace ring stays bounded while
//! keeping its newest job's trace whole.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use predllc::explore::json;
use predllc::fleet::{Coordinator, CoordinatorConfig};
use predllc::obs::trace::{render_jsonl, EventKind, FieldValue, TraceEvent};
use predllc::obs::{expo, Registry, TraceCtx, TraceId, Tracer};
use predllc::serve::{Client, Metrics, Server, ServerConfig, ServerHandle, SERVER_TRACE_CAPACITY};
use predllc::ExperimentSpec;

/// A small two-platform grid, 4 unique points.
const SPEC: &str = r#"{
    "name": "obs-e2e",
    "cores": 2,
    "configs": [
        {"label": "SS(1,4)", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}},
        {"partition": {"kind": "private", "sets": 4, "ways": 2}}
    ],
    "workloads": [
        {"kind": "uniform", "range_bytes": 4096, "ops": 200, "seed": 11},
        {"kind": "stride", "range_bytes": 4096, "stride": 64, "ops": 200}
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

#[test]
fn live_metrics_exposition_validates_after_real_work() {
    // Drive the service through a full job (miss, run, hit) and a
    // worker point request, then require the scrape to pass the
    // in-tree exposition validator with every expected family present
    // and the latency histograms actually populated.
    let (handle, join) = start(ServerConfig::default());
    let mut client = Client::new(handle.addr());

    let submitted = client.submit(SPEC).unwrap();
    client
        .wait_done(&submitted.id, Duration::from_secs(60))
        .unwrap();
    assert!(
        client.submit(SPEC).unwrap().cached,
        "second submit must hit"
    );
    client.healthz().unwrap();

    let body = client.metrics().unwrap();
    let summary = expo::validate(&body).expect("live /metrics must validate");
    assert!(summary.families >= 14, "families: {}", summary.families);
    assert!(summary.samples >= 20, "samples: {}", summary.samples);
    for family in [
        "predllc_http_request_duration_ns",
        "predllc_job_queue_wait_ns",
        "predllc_cache_hits 1",
        "predllc_cache_misses 1",
        "predllc_jobs_done 1",
        "predllc_points_simulated 4",
    ] {
        assert!(body.contains(family), "missing '{family}' in:\n{body}");
    }
    stop(&handle, join);
}

#[test]
fn registry_render_validates_whatever_gets_registered() {
    // The registry cannot emit an exposition the validator rejects,
    // including empty histograms, labelled series, and awkward label
    // values that need escaping.
    let reg = Registry::new();
    reg.counter("predllc_a_total", "A counter.").add(7);
    reg.gauge("predllc_b", "A gauge.").set(3);
    reg.histogram("predllc_c_ns", "Recorded.").record_ns(1234);
    reg.histogram("predllc_d_ns", "Never recorded.");
    let awkward = reg.histogram_with(
        "predllc_e_ns",
        "Labelled.",
        "path",
        "say \"hi\"\\back\nline",
    );
    for ns in [1u64, 100, 10_000, 1_000_000, u64::MAX] {
        awkward.record_ns(ns);
    }
    reg.counter_with("predllc_f_total", "Labelled counter.", "kind", "x")
        .inc();

    let text = reg.render();
    let summary = expo::validate(&text).expect("registry output must validate");
    assert_eq!(summary.families, 6);
    assert!(text.ends_with('\n'));
}

/// The bits a `TraceEvent` carries, as recovered from one JSONL line.
type ParsedEvent = (
    TraceId,
    String,
    EventKind,
    u64,
    Option<u64>,
    Vec<(String, FieldValue)>,
);

/// Parses one JSONL line back into the bits a `TraceEvent` carries.
fn parse_event(line: &str) -> ParsedEvent {
    let v = json::parse(line).expect("trace line must be valid JSON");
    let trace = TraceId::parse_hex(v.get("trace").unwrap().as_str().unwrap()).unwrap();
    let name = v.get("name").unwrap().as_str().unwrap().to_string();
    let kind = EventKind::parse(v.get("kind").unwrap().as_str().unwrap()).unwrap();
    let ts_ns = v.get("ts_ns").unwrap().as_u64().unwrap();
    let dur_ns = v.get("dur_ns").map(|d| d.as_u64().unwrap());
    let fields = v
        .get("fields")
        .map(|f| {
            f.as_object()
                .unwrap()
                .iter()
                .map(|(k, val)| {
                    let fv = match val.as_u64() {
                        Some(n) => FieldValue::U64(n),
                        None => FieldValue::Str(val.as_str().unwrap().to_string()),
                    };
                    (k.clone(), fv)
                })
                .collect()
        })
        .unwrap_or_default();
    (trace, name, kind, ts_ns, dur_ns, fields)
}

#[test]
fn trace_jsonl_round_trips_through_a_real_json_parser() {
    // Property: render_jsonl -> parse recovers every event exactly,
    // for adversarial names and field values (quotes, backslashes,
    // newlines, control bytes, unicode, u64::MAX). The parser is the
    // workspace's own spec-grade JSON parser, not a string matcher.
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let nasty = [
        "plain",
        "with \"quotes\"",
        "back\\slash",
        "new\nline and \t tab",
        "control\u{1}\u{1f}",
        "unicode: ключ 鍵 🔑",
        "",
    ];
    let mut events = Vec::new();
    for i in 0..200u64 {
        let kind = match rng() % 3 {
            0 => EventKind::Begin,
            1 => EventKind::End,
            _ => EventKind::Instant,
        };
        let mut fs: Vec<(String, FieldValue)> = Vec::new();
        for f in 0..(rng() % 4) {
            // Suffix with the field index: JSON objects (and the
            // workspace parser) require unique keys.
            let k = format!("{}#{f}", nasty[(rng() % nasty.len() as u64) as usize]);
            if rng() % 2 == 0 {
                fs.push((k, FieldValue::U64(rng())));
            } else {
                fs.push((
                    k,
                    FieldValue::Str(nasty[(rng() % nasty.len() as u64) as usize].to_string()),
                ));
            }
        }
        events.push(TraceEvent {
            trace: TraceId(((rng() as u128) << 64) | rng() as u128),
            name: nasty[(rng() % nasty.len() as u64) as usize].to_string(),
            kind,
            ts_ns: if i % 7 == 0 { u64::MAX } else { rng() },
            dur_ns: (kind == EventKind::End).then(&mut rng),
            fields: fs,
        });
    }

    let text = render_jsonl(&events);
    assert!(text.ends_with('\n'));
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), events.len());
    for (line, event) in lines.iter().zip(&events) {
        let (trace, name, kind, ts_ns, dur_ns, fs) = parse_event(line);
        assert_eq!(trace, event.trace);
        assert_eq!(name, event.name);
        assert_eq!(kind, event.kind);
        assert_eq!(ts_ns, event.ts_ns);
        assert_eq!(dur_ns, event.dur_ns);
        assert_eq!(fs, event.fields);
    }
}

#[test]
fn concurrent_snapshots_never_observe_a_torn_job_state() {
    const READS: usize = 2_000;
    // Writers follow the source-before-derived discipline the serve
    // layer uses (cache_misses before jobs_queued; dec a state gauge
    // before inc'ing its successor). A racing reader of the `/metrics`
    // exposition must never see more jobs in flight than submissions,
    // whatever the interleaving.
    let metrics = Arc::new(Metrics::default());
    let stop = Arc::new(AtomicBool::new(false));
    let jobs = |text: &str| {
        let expo = expo::parse(text).expect("metrics render must parse");
        let value = |name: &str| match expo.family(name).map(|f| f.samples[0].value) {
            Some(expo::ExpoValue::UInt(v)) => v,
            other => panic!("{name} read as {other:?}"),
        };
        let states: u64 = ["queued", "running", "done", "failed"]
            .iter()
            .map(|s| value(&format!("predllc_jobs_{s}")))
            .sum();
        (states, value("predllc_cache_misses"))
    };

    // Two writers run job lives, exactly as the serve layer does,
    // until the reader has checked its reads.
    let writers: Vec<_> = (0..2)
        .map(|_| {
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    metrics.cache_misses.inc();
                    metrics.jobs_queued.inc();
                    metrics.jobs_queued.dec();
                    metrics.jobs_running.inc();
                    metrics.jobs_running.dec();
                    metrics.jobs_done.inc();
                }
            })
        })
        .collect();
    for _ in 0..READS {
        let text = metrics.render();
        let (states, submissions) = jobs(&text);
        assert!(
            states <= submissions,
            "torn read: {states} job states > {submissions} submissions in\n{text}"
        );
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }

    // Every life ran to completion: all submissions are done.
    let (states, submissions) = jobs(&metrics.render());
    assert_eq!(states, submissions);
    assert_eq!(metrics.jobs_done.get(), submissions);
}

#[test]
fn one_trace_id_spans_coordinator_and_worker_events() {
    // The trace id minted by the coordinator must surface in the
    // worker's own tracer (propagated via the X-Predllc-Trace header),
    // so a fleet point's life is reconstructable from both sides.
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let (worker, join) = start(ServerConfig::default());

    let metrics = Arc::new(Metrics::default());
    let coordinator = Coordinator::new(
        [worker.addr()],
        CoordinatorConfig {
            heartbeat_interval: Duration::from_millis(50),
            ..CoordinatorConfig::default()
        },
        metrics,
    );

    let tracer = Tracer::new();
    let trace = TraceId::fresh();
    let ctx = TraceCtx::new(&tracer, trace);
    let report = coordinator.run(&spec, &|_, _| {}, Some(ctx)).unwrap();
    assert_eq!(report.unique_points, 4);

    // Coordinator side: dispatch spans and the merge tail, all under
    // the one trace id, with durations on the span ends.
    let local = tracer.snapshot_trace(trace);
    assert!(!local.is_empty());
    let names: Vec<&str> = local.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains(&"fleet.dispatch"), "{names:?}");
    assert!(names.contains(&"fleet.merge"), "{names:?}");
    assert!(local
        .iter()
        .filter(|e| e.kind == EventKind::End)
        .all(|e| e.dur_ns.is_some()));

    // Worker side: the same id, now wrapping worker.point spans — one
    // begin/end pair per unique point.
    let remote = worker.tracer().snapshot_trace(trace);
    let points = remote
        .iter()
        .filter(|e| e.name == "worker.point" && e.kind == EventKind::End)
        .count();
    assert_eq!(points, 4, "worker-side events: {remote:?}");
    assert!(remote.iter().all(|e| e.trace == trace));

    // And the combined JSONL timeline is one trace, render-parseable.
    let mut all = local;
    all.extend(remote);
    for line in render_jsonl(&all).lines() {
        let (t, ..) = parse_event(line);
        assert_eq!(t, trace);
    }

    // An untraced run records nothing new on either side.
    let before = worker.tracer().snapshot().len();
    coordinator.run(&spec, &|_, _| {}, None).unwrap();
    assert_eq!(worker.tracer().snapshot().len(), before);

    stop(&worker, join);
}

/// A server that makes its own tracer bounds its ring at
/// `SERVER_TRACE_CAPACITY` events per shard. Run jobs until the ring
/// overflows (one executor thread puts every `explore.point` span in
/// one shard), then a few more: the oldest events are dropped and
/// counted in `predllc_trace_dropped_total`, while the newest job's
/// `GET /v1/jobs/{id}/trace` still has every span of its run.
#[test]
fn a_full_server_trace_ring_keeps_the_newest_jobs_spans_whole() {
    let (handle, join) = start(ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::new(handle.addr());
    let mut run_job = |seed: u64| {
        let spec = SPEC
            .replace("\"seed\": 11", &format!("\"seed\": {seed}"))
            .replace("\"ops\": 200", "\"ops\": 30");
        let id = client.submit(&spec).unwrap().id;
        client.wait_done(&id, Duration::from_secs(60)).unwrap();
        let mut shape: Vec<(String, String)> = client
            .job_trace(&id)
            .unwrap()
            .lines()
            .map(|line| {
                let (_, name, kind, ..) = parse_event(line);
                (name, format!("{kind:?}"))
            })
            .collect();
        shape.sort();
        shape
    };

    // The first job's trace, taken before anything can be dropped, is
    // the complete span set every job of this shape records.
    let complete = run_job(1_000);
    let points = complete
        .iter()
        .filter(|(name, kind)| name == "explore.point" && kind == "Begin")
        .count();
    assert_eq!(points, 4, "{complete:?}");
    assert!(complete.iter().any(|(name, _)| name == "serve.job.run"));

    // With one executor thread, every job records at least its eight
    // `explore.point` events on the runner thread, so that thread's
    // shard overflows within `SERVER_TRACE_CAPACITY / 8 + 1` jobs; a
    // larger ring would not.
    let mut jobs = 1;
    while handle.tracer().dropped() == 0 {
        assert!(
            jobs <= SERVER_TRACE_CAPACITY / 8 + 1,
            "nothing dropped after {jobs} jobs: the ring holds more than \
             {SERVER_TRACE_CAPACITY} events per shard"
        );
        run_job(1_000 + jobs as u64);
        jobs += 1;
    }
    for extra in 0..2 {
        run_job(2_000 + extra);
    }
    let newest = run_job(2_002);
    assert_eq!(newest, complete, "the newest job's trace lost events");

    let dropped = handle.tracer().dropped();
    let exposition = client.metrics().unwrap();
    let exported: u64 = exposition
        .lines()
        .find_map(|l| l.strip_prefix("predllc_trace_dropped_total "))
        .expect("predllc_trace_dropped_total exported")
        .parse()
        .unwrap();
    assert!(dropped > 0);
    assert_eq!(exported, dropped);
    assert!(handle.tracer().snapshot().len() <= 16 * SERVER_TRACE_CAPACITY);
    stop(&handle, join);
}
