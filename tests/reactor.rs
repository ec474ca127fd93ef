//! Adversarial-client tests against the event-driven reactor: peers
//! that trickle bytes, stop reading mid-stream, or vanish mid-request
//! must never wedge the service or leak per-connection state, and the
//! reactor must shed load past its dispatch queue instead of queueing
//! without bound.
//!
//! The reactor exists only on Linux (epoll); elsewhere the server runs
//! a blocking fallback and these scenarios don't apply.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use predllc::serve::{Client, Format, Server, ServerConfig, ServerHandle};

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
