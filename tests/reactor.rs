//! Adversarial-client tests against the event-driven reactor: peers
//! that trickle bytes, stop reading mid-stream, or vanish mid-request
//! must never wedge the service or leak per-connection state, and the
//! reactor must shed load past its dispatch queue instead of queueing
//! without bound. Held status requests (`?wait_ms=`) park on the
//! reactor: each is answered exactly once — when its job settles, when
//! its time runs out, or at shutdown — and costs no dispatch thread.
//!
//! The reactor exists only on Linux (epoll); elsewhere `Server::run`
//! returns `ErrorKind::Unsupported`, so these scenarios don't apply.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use predllc::explore::ExploreReport;
use predllc::obs::{AlertState, TraceCtx};
use predllc::serve::{
    Client, ClientError, Format, JobStatus, LocalRunner, Metrics, MonitorConfig, Server,
    ServerConfig, ServerHandle, SpecRunner,
};
use predllc::ExperimentSpec;

const SPEC: &str = r#"{
    "name": "reactor-e2e",
    "cores": 2,
    "configs": [
        {"partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}},
        {"partition": {"kind": "private", "sets": 4, "ways": 2}}
    ],
    "workloads": [
        {"kind": "uniform", "range_bytes": 4096, "ops": 300, "seed": 11},
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

fn fetch(client: &mut Client, id: &str, format: Format) -> String {
    client.results(id, format).unwrap().text().unwrap()
}

/// Polls the open-connections gauge until it drops to `want` (the
/// poller's own connection counts, so `want` is usually 1).
fn wait_connections_open(client: &mut Client, want: u64, deadline: Duration) {
    let t0 = Instant::now();
    loop {
        let open = client.metric("predllc_connections_open").unwrap();
        if open <= want {
            return;
        }
        assert!(
            t0.elapsed() < deadline,
            "connections_open stuck at {open} (want <= {want})"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn slow_loris_trickles_are_reaped_without_stalling_service() {
    let (handle, join) = start(ServerConfig {
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Eight connections each trickle one byte of a (long but valid)
    // request every 50 ms — at that rate the request would take ~15 s
    // to arrive. Reads must NOT reset the idle clock, so the reactor
    // reaps them at ~300 ms despite the steady byte drip.
    let request = format!("GET /healthz?pad={} HTTP/1.1\r\n\r\n", "a".repeat(256));
    let cut_off = Arc::new(AtomicBool::new(false));
    let tricklers: Vec<_> = (0..8)
        .map(|_| {
            let request = request.clone();
            let cut_off = Arc::clone(&cut_off);
            let mut stream = TcpStream::connect(addr).unwrap();
            std::thread::spawn(move || {
                let t0 = Instant::now();
                for byte in request.as_bytes() {
                    if stream.write_all(std::slice::from_ref(byte)).is_err() {
                        cut_off.store(true, Ordering::Relaxed);
                        return (t0.elapsed(), stream);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
                (t0.elapsed(), stream)
            })
        })
        .collect();

    // The service keeps answering promptly while the loris dangle.
    let mut client = Client::new(addr);
    let t0 = Instant::now();
    assert_eq!(client.healthz().unwrap(), "ok\n");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "healthz took {:?} behind slow-loris load",
        t0.elapsed()
    );

    for trickler in tricklers {
        let (elapsed, mut stream) = trickler.join().unwrap();
        // Either the write died (reset seen) or the trickle "finished"
        // against a closed socket — in both cases well before the
        // request could have been delivered at trickle pace.
        assert!(
            elapsed < Duration::from_secs(10),
            "trickler survived {elapsed:?}"
        );
        // The server must have terminated the connection: no 200 ever
        // comes back.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reply = Vec::new();
        let _ = stream.read_to_end(&mut reply);
        assert!(
            !reply.starts_with(b"HTTP/1.1 200"),
            "a slow-loris request must never be answered"
        );
    }

    // No leaked per-connection state: only the poller's own connection
    // stays open.
    wait_connections_open(&mut client, 1, Duration::from_secs(10));
    stop(&handle, join);
}

#[test]
fn mid_request_disconnects_leak_no_connection_state() {
    let (handle, join) = start(ServerConfig {
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Fifty clients vanish mid-request: some after the request line,
    // some mid-header, some mid-body.
    for i in 0..50 {
        let mut stream = TcpStream::connect(addr).unwrap();
        let partial: &[u8] = match i % 3 {
            0 => b"GET /healthz HT",
            1 => b"POST /v1/experiments HTTP/1.1\r\ncontent-le",
            _ => b"POST /v1/experiments HTTP/1.1\r\ncontent-length: 64\r\n\r\n{\"name\"",
        };
        stream.write_all(partial).unwrap();
        drop(stream);
    }

    // The service answers promptly and every dropped connection's
    // state is reclaimed.
    let mut client = Client::new(addr);
    assert_eq!(client.healthz().unwrap(), "ok\n");
    wait_connections_open(&mut client, 1, Duration::from_secs(10));
    assert_eq!(client.metric("predllc_jobs_failed").unwrap(), 0);
    stop(&handle, join);
}

#[test]
fn stopped_reader_mid_chunked_response_neither_stalls_nor_corrupts() {
    let (handle, join) = start(ServerConfig {
        idle_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut client = Client::new(addr);
    let submitted = client.submit(SPEC).unwrap();
    client
        .wait_done(&submitted.id, Duration::from_secs(120))
        .unwrap();
    let reference = fetch(&mut client, &submitted.id, Format::Csv);

    // A raw peer requests the streamed CSV and then stops reading.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .write_all(
            format!(
                "GET /v1/experiments/{}/results?format=csv HTTP/1.1\r\n\r\n",
                submitted.id
            )
            .as_bytes(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // response in flight

    // While the reader sits on its full socket, everyone else is
    // served at full speed with identical bytes.
    let t0 = Instant::now();
    assert_eq!(client.healthz().unwrap(), "ok\n");
    assert_eq!(fetch(&mut client, &submitted.id, Format::Csv), reference);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "a stalled reader slowed other clients: {:?}",
        t0.elapsed()
    );

    // Resume reading late: every byte the server sent is intact (the
    // kernel buffered the finished response; the idle reaper then
    // closed the connection, so read_to_end terminates).
    std::thread::sleep(Duration::from_millis(700));
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    stalled.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8(raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "got {raw:?}");
    assert!(
        raw.contains("transfer-encoding: chunked"),
        "results must stream chunked on HTTP/1.1: {raw:?}"
    );
    assert!(
        raw.ends_with("0\r\n\r\n"),
        "chunked terminator missing: {raw:?}"
    );

    wait_connections_open(&mut client, 1, Duration::from_secs(10));
    stop(&handle, join);
}

#[test]
fn dispatch_queue_overflow_sheds_429_with_retry_after() {
    use predllc::explore::{ExperimentSpec, PointRequest};

    let (handle, join) = start(ServerConfig {
        dispatchers: 1,
        max_dispatch_queue: 1,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // A point heavy enough to hold the single dispatcher for a while —
    // release builds simulate orders of magnitude faster than debug, so
    // the op count scales with the profile to keep the dispatcher busy
    // past both stagger sleeps in either build.
    let ops = if cfg!(debug_assertions) {
        300_000
    } else {
        20_000_000
    };
    let slow_spec = ExperimentSpec::parse(&format!(
        r#"{{
        "name": "slow-point", "cores": 2,
        "configs": [{{"partition": {{"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}}}}],
        "workloads": [{{"kind": "uniform", "range_bytes": 65536, "ops": {ops}, "seed": 5}}]
    }}"#
    ))
    .unwrap();
    let wire = PointRequest {
        cores: slow_spec.cores,
        config: slow_spec.configs[0].clone(),
        workload: slow_spec.workloads[0].clone(),
        attribution: false,
        twins: Vec::new(),
    }
    .render()
    .unwrap();

    // Occupy the dispatcher, then fill the 1-deep queue. (The second
    // point must be physically distinct or it would be a cache hit.)
    let wire2 = wire.replace("\"seed\":5", "\"seed\":6");
    let spawn_post = |wire: String| {
        std::thread::spawn(move || {
            Client::new(addr)
                .with_timeout(Duration::from_secs(300))
                .point(&wire)
                .map(|_| ())
        })
    };
    let busy = spawn_post(wire.clone());
    std::thread::sleep(Duration::from_millis(150));
    let queued = spawn_post(wire2);
    std::thread::sleep(Duration::from_millis(150));

    // The third heavy request is shed: 429, Retry-After, and the
    // `{"error", "kind"}` shape — not queued behind the others.
    let mut shed = TcpStream::connect(addr).unwrap();
    shed.write_all(
        format!(
            "POST /v1/points HTTP/1.1\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n{}",
            wire.len(),
            wire
        )
        .as_bytes(),
    )
    .unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let t0 = Instant::now();
    let mut reply = String::new();
    shed.read_to_string(&mut reply).unwrap();
    assert!(
        reply.starts_with("HTTP/1.1 429"),
        "expected a 429 shed, got {reply:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "the shed answer must be immediate, took {:?}",
        t0.elapsed()
    );
    assert!(
        reply.contains("retry-after:"),
        "no Retry-After in {reply:?}"
    );
    assert!(
        reply.contains("\"kind\":\"backpressure\""),
        "wrong error shape: {reply:?}"
    );

    // The occupying requests finish normally; the shed one is counted.
    busy.join().unwrap().expect("first point should succeed");
    queued.join().unwrap().expect("queued point should succeed");
    let mut client = Client::new(addr);
    assert!(client.metric("predllc_requests_shed").unwrap() >= 1);
    stop(&handle, join);
}

#[test]
fn http10_peers_get_the_http11_body_with_content_length() {
    let (handle, join) = start(ServerConfig::default());
    let addr = handle.addr();
    let mut client = Client::new(addr);
    let submitted = client.submit(SPEC).unwrap();
    client
        .wait_done(&submitted.id, Duration::from_secs(120))
        .unwrap();
    let csv = fetch(&mut client, &submitted.id, Format::Csv);
    // An HTTP/1.0 peer gets the same payload with content-length
    // framing (chunked encoding is 1.1-only).
    let mut ancient = TcpStream::connect(addr).unwrap();
    ancient
        .write_all(
            format!(
                "GET /v1/experiments/{}/results?format=csv HTTP/1.0\r\n\r\n",
                submitted.id
            )
            .as_bytes(),
        )
        .unwrap();
    let mut raw = String::new();
    ancient
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    ancient.read_to_string(&mut raw).unwrap();
    assert!(raw.contains("content-length:"), "{raw:?}");
    assert!(!raw.contains("transfer-encoding"), "{raw:?}");
    let (_, http10_body) = raw.split_once("\r\n\r\n").unwrap();
    assert_eq!(http10_body, csv, "HTTP/1.0 body diverged");
    stop(&handle, join);
}

/// The per-request count of the status endpoint: it ticks when a held
/// request is dispatched, before the hold begins.
const STATUS_COUNT: &str = r#"predllc_http_request_duration_ns_count{endpoint="job_status"}"#;

/// A runner that keeps every job `running` until the gate opens, so a
/// held request provably waits on an unsettled job.
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
    inner: LocalRunner,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl SpecRunner for Gate {
    fn run_spec(
        &self,
        spec: &ExperimentSpec,
        observe: &(dyn Fn(usize, usize) + Sync),
        ctx: Option<TraceCtx<'_>>,
    ) -> Result<ExploreReport, String> {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        self.inner.run_spec(spec, observe, ctx)
    }

    fn threads_label(&self) -> usize {
        self.inner.threads_label()
    }
}

fn start_gated(config: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<()>, Arc<Gate>) {
    let gate = Arc::new(Gate {
        open: Mutex::new(false),
        opened: Condvar::new(),
        inner: LocalRunner::new(1),
    });
    let server = Server::bind_with(
        "127.0.0.1:0",
        config,
        Arc::clone(&gate) as Arc<dyn SpecRunner>,
        Arc::new(Metrics::default()),
    )
    .expect("bind an ephemeral port");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (handle, join, gate)
}

/// The same spec with another seed: a distinct job.
fn reseeded(seed: u64) -> String {
    SPEC.replace("\"seed\": 11", &format!("\"seed\": {seed}"))
}

/// Opens a raw connection carrying one held status request.
fn hold(addr: SocketAddr, id: &str, wait_ms: u64) -> BufReader<TcpStream> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(
            format!("GET /v1/experiments/{id}?wait_ms={wait_ms} HTTP/1.1\r\n\r\n").as_bytes(),
        )
        .unwrap();
    BufReader::new(stream)
}

/// Reads one content-length framed response: status, head, body.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String, String) {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "closed mid-head");
        if line == "\r\n" {
            break;
        }
        head.push_str(&line);
    }
    let status = head[9..12].parse().unwrap();
    let len = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .map_or(0, |v| v.parse().unwrap());
    let mut body = vec![0; len];
    reader.read_exact(&mut body).unwrap();
    (status, head, String::from_utf8(body).unwrap())
}

/// Polls a counter until it reaches `want`.
fn wait_metric(client: &mut Client, name: &str, want: u64) {
    let t0 = Instant::now();
    while client.metric(name).unwrap_or(0) < want {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "{name} never reached {want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Polls until the runner has picked the job up.
fn wait_running(handle: &ServerHandle, id: &str) {
    let job = handle.job(id).unwrap();
    let t0 = Instant::now();
    while job.status() != JobStatus::Running {
        assert!(t0.elapsed() < Duration::from_secs(10), "job never started");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_holder_that_hangs_up_leaks_nothing_and_its_wake_reaches_no_reused_slot() {
    // One reactor, so the next connection takes the slot a departed
    // holder freed.
    let (handle, join, gate) = start_gated(ServerConfig {
        reactors: 1,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut client = Client::new(addr);
    let first = client.submit(SPEC).unwrap().id;
    // Queued behind the first: the single runner is held at the gate.
    let second = client.submit(&reseeded(12)).unwrap().id;

    let departed = hold(addr, &first, 30_000);
    wait_metric(&mut client, STATUS_COUNT, 1);
    drop(departed);
    // Closed while its job is still unsettled: nothing waits on the
    // hold's deadline or the job to free the connection.
    wait_connections_open(&mut client, 1, Duration::from_secs(10));

    let mut reused = hold(addr, &second, 30_000);
    wait_metric(&mut client, STATUS_COUNT, 2);
    gate.open();
    // The first job settles while the second is still queued (one
    // runner). A wake meant for the departed holder's slot would answer
    // this one early, with `queued`; it must see its own job finish.
    let (status, _, body) = read_response(&mut reused);
    assert_eq!(status, 200);
    assert!(body.contains(&format!("\"id\":\"{second}\"")), "{body}");
    assert!(body.contains("\"status\":\"done\""), "{body}");
    stop(&handle, join);
}

#[test]
fn sixty_four_holders_on_one_job_are_each_answered_exactly_once() {
    let (handle, join, gate) = start_gated(ServerConfig::default());
    let addr = handle.addr();
    let mut client = Client::new(addr);
    let id = client.submit(SPEC).unwrap().id;
    let mut holders: Vec<_> = (0..64).map(|_| hold(addr, &id, 30_000)).collect();
    wait_metric(&mut client, STATUS_COUNT, 64);
    gate.open();
    for holder in &mut holders {
        let (status, _, body) = read_response(holder);
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"done\""), "{body}");
        // Exactly once: the next response on the connection answers the
        // next request, not a second copy of the first.
        holder
            .get_mut()
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .unwrap();
        let (status, _, body) = read_response(holder);
        assert_eq!((status, body.as_str()), (200, "ok\n"));
    }
    assert_eq!(client.metric(STATUS_COUNT).unwrap(), 64);
    stop(&handle, join);
}

#[test]
fn holders_beyond_the_dispatchers_leave_submissions_unshed() {
    // One dispatcher and a one-deep queue: two requests parked on them
    // would shed the next heavy request with 429.
    let (handle, join, gate) = start_gated(ServerConfig {
        dispatchers: 1,
        max_dispatch_queue: 1,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut client = Client::new(addr);
    let id = client.submit(SPEC).unwrap().id;
    let holders: Vec<_> = (0..8).map(|_| hold(addr, &id, 30_000)).collect();
    wait_metric(&mut client, STATUS_COUNT, 8);

    let submitted = client
        .submit(&reseeded(13))
        .expect("a submission behind eight holders");
    assert!(!submitted.cached);
    assert_eq!(client.metric("predllc_requests_shed").unwrap(), 0);
    gate.open();
    drop(holders);
    stop(&handle, join);
}

#[test]
fn an_expired_hold_answers_the_current_status() {
    let (handle, join, gate) = start_gated(ServerConfig::default());
    let addr = handle.addr();
    let mut client = Client::new(addr);
    let id = client.submit(SPEC).unwrap().id;
    wait_running(&handle, &id);

    let t0 = Instant::now();
    let mut holder = hold(addr, &id, 200);
    let (status, head, body) = read_response(&mut holder);
    let held = t0.elapsed();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"running\""), "{body}");
    assert!(head.contains("connection: keep-alive"), "{head}");
    assert!(
        held >= Duration::from_millis(200) && held < Duration::from_secs(5),
        "held {held:?} for wait_ms=200"
    );

    // The client maps an expired wait to a timeout naming the status.
    match client.wait_done(&id, Duration::from_millis(300)) {
        Err(ClientError::Timeout { last_status }) => assert_eq!(last_status, "running"),
        other => panic!("expected a timeout, got {other:?}"),
    }
    gate.open();
    client.wait_done(&id, Duration::from_secs(120)).unwrap();
    stop(&handle, join);
}

#[test]
fn shutdown_releases_held_requests_promptly() {
    let (handle, join, gate) = start_gated(ServerConfig::default());
    let addr = handle.addr();
    let mut client = Client::new(addr);
    let id = client.submit(SPEC).unwrap().id;
    wait_running(&handle, &id);
    let mut holder = hold(addr, &id, 30_000);
    wait_metric(&mut client, STATUS_COUNT, 1);

    let t0 = Instant::now();
    handle.shutdown();
    let (status, head, body) = read_response(&mut holder);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "shutdown answered the hold after {:?}",
        t0.elapsed()
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"running\""), "{body}");
    assert!(head.contains("connection: close"), "{head}");
    // The drain still runs the accepted job to completion.
    gate.open();
    join.join().expect("server thread");
}

#[test]
fn a_job_settling_between_status_check_and_park_still_wakes_its_holder() {
    let (handle, join, gate) = start_gated(ServerConfig::default());
    let addr = handle.addr();
    let mut client = Client::new(addr);
    let id = client.submit(SPEC).unwrap().id;
    let job = handle.job(&id).unwrap();

    // The status handler's check sees the job unsettled...
    assert!(!job.status().is_settled());
    // ...the job settles before the reactor parks the request...
    gate.open();
    let t0 = Instant::now();
    while job.status() != JobStatus::Done {
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "job never finished"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...and the park, registering its waker on a settled job, runs it
    // on the spot instead of waiting for a wake that already happened.
    let woke = Arc::new(AtomicBool::new(false));
    let key = job.watch(Box::new({
        let woke = Arc::clone(&woke);
        move || woke.store(true, Ordering::SeqCst)
    }));
    assert_eq!(key, None, "a settled job must not keep the waker");
    assert!(woke.load(Ordering::SeqCst), "the waker did not run");

    // Over the wire, a hold on the settled job is answered at once.
    let t0 = Instant::now();
    let (status, _, body) = read_response(&mut hold(addr, &id, 30_000));
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"done\""), "{body}");
    assert!(t0.elapsed() < Duration::from_secs(5));
    stop(&handle, join);
}

#[test]
fn an_unwatched_waker_never_runs_and_a_kept_one_does() {
    let (handle, join, gate) = start_gated(ServerConfig::default());
    let mut client = Client::new(handle.addr());
    let id = client.submit(SPEC).unwrap().id;
    wait_running(&handle, &id);
    let job = handle.job(&id).unwrap();

    // Two wakers parked on the unsettled job, one of them cancelled
    // with the key `watch` handed out.
    let woke = |flag: &Arc<AtomicBool>| -> Box<dyn FnOnce() + Send> {
        let flag = Arc::clone(flag);
        Box::new(move || flag.store(true, Ordering::SeqCst))
    };
    let kept = Arc::new(AtomicBool::new(false));
    let dropped = Arc::new(AtomicBool::new(false));
    job.watch(woke(&kept))
        .expect("an unsettled job keeps its waker");
    let key = job
        .watch(woke(&dropped))
        .expect("an unsettled job keeps its waker");
    job.unwatch(key);

    gate.open();
    client.wait_done(&id, Duration::from_secs(120)).unwrap();
    // The settling thread runs the wakers just after it publishes the
    // state.
    let t0 = Instant::now();
    while !kept.load(Ordering::SeqCst) {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the kept waker never ran"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        !dropped.load(Ordering::SeqCst),
        "the unwatched waker ran when the job settled"
    );
    // Unwatching after the job settled is a no-op.
    job.unwatch(key);
    stop(&handle, join);
}

#[test]
fn held_waits_stay_out_of_request_latency_and_never_page() {
    // The stock rules page when the status endpoint's p99 latency stays
    // above 500 ms; a 1.2 s hold recorded as latency would trip it.
    let (handle, join, gate) = start_gated(ServerConfig {
        monitor: Some(MonitorConfig::with_interval(Duration::from_millis(50))),
        ..ServerConfig::default()
    });
    let mut client = Client::new(handle.addr());
    let id = client.submit(SPEC).unwrap().id;
    let t0 = Instant::now();
    match client.wait_done(&id, Duration::from_millis(1200)) {
        Err(ClientError::Timeout { .. }) => {}
        other => panic!("expected the held wait to time out, got {other:?}"),
    }
    assert!(t0.elapsed() >= Duration::from_millis(1200));
    gate.open();
    client.wait_done(&id, Duration::from_secs(120)).unwrap();

    // Several collector ticks later, every request has been sampled.
    std::thread::sleep(Duration::from_millis(300));
    let statuses = handle.alert_statuses().unwrap();
    let p99 = statuses
        .iter()
        .find(|a| a.rule == "p99-request-latency")
        .unwrap();
    assert_eq!(p99.state, AlertState::Inactive, "{p99:?}");
    // The held requests were counted, but the holds were not timed.
    assert!(client.metric(STATUS_COUNT).unwrap() >= 2);
    let held_ns = client
        .metric(r#"predllc_http_request_duration_ns_sum{endpoint="job_status"}"#)
        .unwrap();
    assert!(
        held_ns < 100_000_000,
        "{held_ns} ns of status latency: the hold leaked in"
    );
    stop(&handle, join);
}

/// A request that reaches the reactor in many reads is parsed from its
/// growing buffer: its head one byte per write, its body 1 KiB per
/// write, it must get exactly the bytes the same request gets written
/// at once. Each side runs on a fresh server, so both answers simulate.
#[test]
fn a_request_trickled_in_pieces_gets_the_bytes_it_gets_whole() {
    use predllc::explore::PointRequest;

    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let point = PointRequest {
        cores: spec.cores,
        config: spec.configs[0].clone(),
        workload: spec.workloads[0].clone(),
        attribution: false,
        twins: Vec::new(),
    };
    // Trailing whitespace stretches the body over several writes
    // without changing the point.
    let body = format!("{}{}", point.render().unwrap(), " ".repeat(6 << 10));
    let head = format!(
        "POST /v1/points HTTP/1.1\r\nhost: reactor-test\r\n\
         content-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let answer = |trickle: bool| {
        let (handle, join) = start(ServerConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        if trickle {
            for byte in head.as_bytes() {
                stream.write_all(std::slice::from_ref(byte)).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            for piece in body.as_bytes().chunks(1024) {
                stream.write_all(piece).unwrap();
            }
        } else {
            stream
                .write_all(format!("{head}{body}").as_bytes())
                .unwrap();
        }
        let reply = read_response(&mut BufReader::new(stream));
        stop(&handle, join);
        reply
    };
    let whole = answer(false);
    assert_eq!(whole.0, 200, "{whole:?}");
    assert_eq!(answer(true), whole);
}

/// A head of exactly `max_headers` headers plus a body, written in
/// seeded pieces of 1–64 bytes, gets the bytes it gets written at once.
/// The same head with one more header gets the 431 it gets whole, and
/// gets it as soon as that header's LF arrives: its pieces stop there.
#[test]
fn a_head_at_the_header_bound_written_in_pieces_gets_the_bytes_it_gets_whole() {
    use predllc::explore::PointRequest;
    use predllc::serve::Limits;

    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let body = PointRequest {
        cores: spec.cores,
        config: spec.configs[0].clone(),
        workload: spec.workloads[0].clone(),
        attribution: false,
        twins: Vec::new(),
    }
    .render()
    .unwrap();
    let max_headers = Limits::default().max_headers;
    // The request with `headers` headers, and where the last one ends.
    let request = |headers: usize| {
        let mut head = format!(
            "POST /v1/points HTTP/1.1\r\ncontent-length: {}\r\n",
            body.len()
        );
        for i in 1..headers {
            head.push_str(&format!("x-pad-{i}: {}\r\n", "v".repeat(i % 7)));
        }
        let last_header = head.len();
        (format!("{head}\r\n{body}").into_bytes(), last_header)
    };
    let answer = |bytes: &[u8], seed: Option<u64>| {
        let (handle, join) = start(ServerConfig {
            idle_timeout: Duration::from_secs(1),
            ..ServerConfig::default()
        });
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        match seed {
            None => stream.write_all(bytes).unwrap(),
            Some(mut state) => {
                let mut at = 0;
                while at < bytes.len() {
                    // splitmix64
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    let end = (at + 1 + ((z ^ (z >> 31)) % 64) as usize).min(bytes.len());
                    stream.write_all(&bytes[at..end]).unwrap();
                    at = end;
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        }
        let reply = read_response(&mut BufReader::new(stream));
        stop(&handle, join);
        reply
    };

    let (at_bound, _) = request(max_headers);
    let whole = answer(&at_bound, None);
    assert_eq!(whole.0, 200, "{whole:?}");
    assert_eq!(answer(&at_bound, Some(0x1F0_C0DE)), whole);

    let (past_bound, decide) = request(max_headers + 1);
    let whole = answer(&past_bound, None);
    assert_eq!(whole.0, 431, "{whole:?}");
    assert_eq!(answer(&past_bound[..decide], Some(0x1F0_C0DE)), whole);
}
