//! End-to-end tests of the continuous-monitoring layer: the collector
//! feeding `/v1/metrics/history`, the SLO evaluator behind
//! `/v1/alerts`, the self-contained `/dashboard`, the exposition
//! parser's round-trip guarantees, and fleet-wide aggregation —
//! including a killed worker whose mirrored series goes stale on the
//! coordinator while the `worker-loss` rule fires.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use predllc::explore::json::Json;
use predllc::fleet::{default_fleet_rules, Coordinator, CoordinatorConfig};
use predllc::obs::expo::{self, ExpoValue};
use predllc::obs::Registry;
use predllc::serve::{
    Client, Metrics, MonitorConfig, Server, ServerConfig, ServerHandle, SpecRunner,
};
use predllc::ExperimentSpec;

/// A small two-platform grid, 4 unique points.
const SPEC: &str = r#"{
    "name": "monitor-e2e",
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

/// Polls `probe` until it yields within `deadline`; panics with
/// `what` otherwise. Keeps timing-sensitive assertions CI-safe.
fn poll<T>(deadline: Duration, what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let started = Instant::now();
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(started.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Sample count for `series` in a `/v1/metrics/history` reply.
fn history_samples(history: &Json, series: &str) -> Option<usize> {
    let Some(Json::Array(all)) = history.get("series") else {
        return None;
    };
    let entry = all
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(series))?;
    match entry.get("samples") {
        Some(Json::Array(samples)) => Some(samples.len()),
        _ => None,
    }
}

/// The state of `rule` in a `/v1/alerts` reply.
fn rule_state(alerts: &Json, rule: &str) -> Option<String> {
    let Some(Json::Array(all)) = alerts.get("alerts") else {
        return None;
    };
    all.iter()
        .find(|a| a.get("rule").and_then(Json::as_str) == Some(rule))
        .and_then(|a| a.get("state").and_then(Json::as_str))
        .map(str::to_string)
}

#[test]
fn render_runs_concurrently_with_recording() {
    // `Registry::render` snapshots the family list and renders outside
    // the lock, so writers never stall behind a scrape. Hammer one
    // registry from recording threads while rendering continuously;
    // every render must still pass the validator. Rendering starts only
    // once every writer has recorded, so the renders overlap recording
    // and the final counter exists however the threads are scheduled.
    let reg = Arc::new(Registry::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writers_ready = Arc::new(Barrier::new(4));
    let mut writers = Vec::new();
    for t in 0..3 {
        let reg = Arc::clone(&reg);
        let stop = Arc::clone(&stop);
        let writers_ready = Arc::clone(&writers_ready);
        writers.push(std::thread::spawn(move || {
            let mut i = 0u64;
            loop {
                reg.counter("monitor_ops", "ops").inc();
                reg.gauge("monitor_depth", "depth").set(i % 17);
                reg.histogram_with("monitor_lat_ns", "lat", "thread", &t.to_string())
                    .record(Duration::from_nanos(100 + i));
                if i == 0 {
                    writers_ready.wait();
                }
                i += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
        }));
    }
    writers_ready.wait();
    for _ in 0..200 {
        let text = reg.render();
        expo::validate(&text).expect("a mid-write render must still validate");
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer thread");
    }
    let ops = expo::parse(&reg.render())
        .expect("final render parses")
        .family("monitor_ops")
        .and_then(|f| f.sample("monitor_ops").map(|s| s.value))
        .expect("counter present");
    assert!(matches!(ops, ExpoValue::UInt(n) if n > 0));
}

#[test]
fn parse_handles_inf_le_escapes_and_label_free_series() {
    let text = concat!(
        "# HELP h latency\n",
        "# TYPE h histogram\n",
        "h_bucket{le=\"1000\"} 3\n",
        "h_bucket{le=\"+Inf\"} 5\n",
        "h_sum 4200\n",
        "h_count 5\n",
        "# TYPE plain counter\n",
        "plain 7\n",
        "# TYPE awkward gauge\n",
        "awkward{path=\"a\\\\b\",quote=\"say \\\"hi\\\"\",nl=\"line1\\nline2\"} 9\n",
    );
    let doc = expo::parse(text).expect("edge-case exposition parses");

    // +Inf bucket bounds survive as labels and parse as infinity.
    let h = doc.family("h").expect("histogram family");
    let inf = h
        .samples
        .iter()
        .find(|s| s.name == "h_bucket" && s.label("le") == Some("+Inf"))
        .expect("+Inf bucket");
    assert_eq!(inf.value, ExpoValue::UInt(5));
    assert_eq!("+Inf".parse::<f64>().map(|f| f.is_infinite()), Ok(true));

    // A label-free series has an empty label set, not a missing one.
    let plain = doc
        .family("plain")
        .and_then(|f| f.sample("plain"))
        .expect("label-free sample");
    assert!(plain.labels.is_empty());
    assert_eq!(plain.value, ExpoValue::UInt(7));

    // Escaped label values come back unescaped in the structure...
    let awkward = doc
        .family("awkward")
        .and_then(|f| f.sample("awkward"))
        .expect("escaped sample");
    assert_eq!(awkward.label("path"), Some("a\\b"));
    assert_eq!(awkward.label("quote"), Some("say \"hi\""));
    assert_eq!(awkward.label("nl"), Some("line1\nline2"));

    // ...and re-escape on render: the round trip is byte-identical.
    assert_eq!(doc.render(), text);
}

#[test]
fn parse_render_loop_agrees_with_validator_on_random_registries() {
    // Property loop: whatever a randomly populated registry renders,
    // the validator accepts it, the parser accepts it, and rendering
    // the parse reproduces the bytes exactly.
    let mut rng = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for round in 0..25 {
        let reg = Registry::new();
        for f in 0..(1 + next() % 5) {
            let name = format!("prop_{round}_{f}");
            match next() % 3 {
                0 => {
                    for _ in 0..(1 + next() % 3) {
                        let c = reg.counter_with(&name, "h", "shard", &(next() % 4).to_string());
                        c.add(next() % 1_000_000);
                    }
                }
                1 => reg
                    .gauge_labeled(&name, "h", &[("a", "x\\y"), ("b", "q\"z\nw")])
                    .set(next()),
                _ => {
                    let h = reg.histogram(&name, "h");
                    for _ in 0..(next() % 5) {
                        h.record(Duration::from_nanos(next() % 10_000_000));
                    }
                }
            }
        }
        let rendered = reg.render();
        let summary = expo::validate(&rendered).expect("random registry validates");
        let parsed = expo::parse(&rendered).expect("random registry parses");
        assert_eq!(parsed.samples().count(), summary.samples);
        assert_eq!(
            parsed.render(),
            rendered,
            "round {round}: parse→render drifted"
        );
    }
}

#[test]
fn monitoring_endpoints_round_trip_over_http() {
    let (handle, join) = start(ServerConfig {
        monitor: Some(MonitorConfig::with_interval(Duration::from_millis(25))),
        ..ServerConfig::default()
    });
    let mut client = Client::new(handle.addr());

    let submitted = client.submit(SPEC).unwrap();
    client
        .wait_done(&submitted.id, Duration::from_secs(60))
        .unwrap();

    // The tracer's drop counter is a first-class registry metric.
    let body = client.metrics().unwrap();
    assert!(body.contains("predllc_trace_dropped_total"));
    assert!(body.contains("predllc_alerts_firing 0"));

    // History accumulates as the collector ticks.
    let samples = poll(Duration::from_secs(10), "2 history samples", || {
        let history = client.metrics_history(None, None).ok()?;
        history_samples(&history, "predllc_http_requests").filter(|&n| n >= 2)
    });
    assert!(samples >= 2);

    // Window/step narrowing still answers, with the step echoed back.
    let narrow = client.metrics_history(Some(60_000), Some(1_000)).unwrap();
    assert_eq!(narrow.get("step_ms").and_then(Json::as_u64), Some(1_000));
    assert!(narrow.get("now_ms").and_then(Json::as_u64).is_some());

    // Both default serve rules are evaluated, in a legal state.
    let alerts = client.alerts().unwrap();
    for rule in ["queue-depth", "p99-request-latency"] {
        let state = rule_state(&alerts, rule).expect("rule is reported");
        assert!(
            ["inactive", "pending", "firing", "resolved"].contains(&state.as_str()),
            "rule {rule} in unknown state {state}"
        );
    }

    // The dashboard is one self-contained page with sparklines.
    let dashboard = client.dashboard().unwrap();
    assert!(dashboard.starts_with("<!DOCTYPE html>"));
    assert!(dashboard.contains("<svg"));
    assert!(dashboard.contains("predllc_http_requests"));
    assert!(!dashboard.contains("<script"));

    stop(&handle, join);
}

#[test]
fn history_rejects_zero_and_non_numeric_window_and_step() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let (handle, join) = start(ServerConfig {
        monitor: Some(MonitorConfig::with_interval(Duration::from_millis(25))),
        ..ServerConfig::default()
    });

    // Raw TCP, not the typed client: the client can't even express the
    // malformed query strings this endpoint must reject.
    let raw_get = |target: &str| -> (u16, String) {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .expect("send request");
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("read reply");
        let status = reply
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparseable status line in:\n{reply}"));
        let body = reply.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    };

    // Zero and non-numeric values are positioned 400s naming the bad
    // parameter — never silently coerced into a default.
    for (query, param) in [
        ("window=0", "window"),
        ("step=0", "step"),
        ("window=banana", "window"),
        ("step=-5", "step"),
        ("window=1e3", "window"),
        ("step=2.5", "step"),
        ("window=0&step=1000", "window"),
        ("window=60000&step=0", "step"),
    ] {
        let (status, body) = raw_get(&format!("/v1/metrics/history?{query}"));
        assert_eq!(status, 400, "?{query} must be rejected, got:\n{body}");
        let doc = predllc::explore::json::parse(&body)
            .unwrap_or_else(|e| panic!("?{query}: unparseable error body {body}: {e:?}"));
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("query"));
        let message = doc.get("error").and_then(Json::as_str).unwrap().to_string();
        assert!(
            message.contains(param),
            "?{query}: error does not name '{param}': {message}"
        );
    }

    // Explicit positive values and bare defaults still answer 200.
    for query in ["", "?window=60000&step=1000", "?window=1", "?step=1"] {
        let (status, body) = raw_get(&format!("/v1/metrics/history{query}"));
        assert_eq!(status, 200, "{query} must succeed, got:\n{body}");
        let doc = predllc::explore::json::parse(&body).expect("history parses");
        assert!(doc.get("series").is_some());
    }

    stop(&handle, join);
}

#[test]
fn monitoring_disabled_answers_404() {
    let (handle, join) = start(ServerConfig::default());
    let mut client = Client::new(handle.addr());
    for result in [
        client.metrics_history(None, None).map(|_| ()),
        client.alerts().map(|_| ()),
        client.dashboard().map(|_| ()),
    ] {
        match result {
            Err(predllc::serve::ClientError::Status { status, .. }) => assert_eq!(status, 404),
            other => panic!("expected a 404, got {other:?}"),
        }
    }
    // The plain scrape still works without a monitor.
    expo::validate(&client.metrics().unwrap()).unwrap();
    stop(&handle, join);
}

#[test]
fn fleet_worker_loss_goes_stale_and_fires_the_alert() {
    let spec = ExperimentSpec::parse(SPEC).unwrap();

    // The doomed worker dies mid-answer on its first point; the
    // survivor absorbs the grid.
    let (doomed, doomed_join) = start(ServerConfig {
        fail_after_points: Some(0),
        ..ServerConfig::default()
    });
    let (survivor, survivor_join) = start(ServerConfig::default());

    let metrics = Arc::new(Metrics::default());
    let coordinator = Arc::new(Coordinator::new(
        [doomed.addr(), survivor.addr()],
        CoordinatorConfig {
            heartbeat_interval: Duration::from_millis(50),
            retries: 0,
            ..CoordinatorConfig::default()
        },
        Arc::clone(&metrics),
    ));
    let _scrape = coordinator.start_metric_scrape(Duration::from_millis(25));
    let (front, front_join) = {
        let config = ServerConfig {
            monitor: Some(MonitorConfig {
                rules: default_fleet_rules(),
                ..MonitorConfig::with_interval(Duration::from_millis(25))
            }),
            ..ServerConfig::default()
        };
        let server = Server::bind_with(
            "127.0.0.1:0",
            config,
            Arc::clone(&coordinator) as Arc<dyn SpecRunner>,
            Arc::clone(&metrics),
        )
        .expect("bind the front server");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().expect("front server run"));
        (handle, join)
    };
    let mut client = Client::new(front.addr());

    // Before the loss: nothing fires, and both workers scrape fresh.
    poll(
        Duration::from_secs(10),
        "first scrape of both workers",
        || {
            let doc = expo::parse(&client.metrics().ok()?).ok()?;
            let fam = doc.family("predllc_fleet_scrape_ok_ms")?;
            (fam.samples.len() == 2).then_some(())
        },
    );
    assert_eq!(client.metric("predllc_alerts_firing").unwrap(), 0);

    let report = coordinator.run(&spec, &|_, _| {}).unwrap();
    assert_eq!(report.unique_points, 4);
    assert!(doomed.was_killed(), "the fault injector never fired");
    assert_eq!(metrics.snapshot().workers_lost, 1);

    // The alerts gauge transitions 0 -> 1 as the worker-loss rule
    // fires on a collector tick.
    poll(Duration::from_secs(10), "the worker-loss alert", || {
        (client.metric("predllc_alerts_firing").ok()? == 1).then_some(())
    });
    let alerts = client.alerts().unwrap();
    assert_eq!(
        rule_state(&alerts, "worker-loss").as_deref(),
        Some("firing")
    );

    // Staleness: the dead worker's scrape-freshness gauge freezes
    // while the survivor's keeps advancing.
    let scrape_ok = |client: &mut Client, worker: &str| -> u64 {
        let doc = expo::parse(&client.metrics().unwrap()).unwrap();
        let fam = doc
            .family("predllc_fleet_scrape_ok_ms")
            .expect("scrape gauge family");
        let sample = fam
            .samples
            .iter()
            .find(|s| s.label("worker") == Some(worker))
            .expect("per-worker scrape sample");
        match sample.value {
            ExpoValue::UInt(v) => v,
            other => panic!("scrape gauge is not an integer: {other:?}"),
        }
    };
    let dead = doomed.addr().to_string();
    let live = survivor.addr().to_string();
    let dead_at = scrape_ok(&mut client, &dead);
    let live_at = scrape_ok(&mut client, &live);
    poll(
        Duration::from_secs(10),
        "the survivor's scrape to advance",
        || (scrape_ok(&mut client, &live) > live_at).then_some(()),
    );
    assert_eq!(
        scrape_ok(&mut client, &dead),
        dead_at,
        "a dead worker's scrape gauge must freeze"
    );

    // The dead worker's mirrored series are a visible gap on the
    // dashboard — present, not erased.
    let dashboard = client.dashboard().unwrap();
    assert!(
        dashboard.contains(&dead),
        "dead worker vanished from the dashboard"
    );
    assert!(dashboard.contains("worker-loss"));

    stop(&front, front_join);
    doomed_join.join().expect("killed server thread");
    stop(&survivor, survivor_join);
}
