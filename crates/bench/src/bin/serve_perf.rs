//! HTTP-layer connection-depth check for the experiment service.
//!
//! One scenario, `keepalive-2000c`: a real in-process [`Server`] over
//! loopback TCP sustaining thousands of **simultaneously open**
//! keep-alive connections. Every response must be a `200` and the
//! open-connection gauge must reach the full depth mid-run; the run
//! fails otherwise. Requests/sec and p99 request latency are reported
//! for information only — absolute numbers are machine-bound, and the
//! end-to-end benchmark in `e2ebench/` owns serve performance.
//!
//! ```text
//! serve_perf [--quick] [--out BENCH_serve.json]
//! ```

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use predllc_bench::{data, error, status};
use predllc_explore::json::Json;
use predllc_serve::{Client, Server, ServerConfig};

/// Opens `conns` keep-alive connections, rendezvouses once **all** of
/// them are established and held open (running `probe` at that
/// moment), then times `rounds` of `GET /healthz` over every
/// connection from a small thread pool, hard-asserting each answer.
/// Returns (requests/sec, p99 latency ms) or an error message; the
/// establishment phase is excluded from the timing.
fn drive(
    addr: std::net::SocketAddr,
    conns: usize,
    rounds: usize,
    threads: usize,
    probe: &mut dyn FnMut() -> Result<(), String>,
) -> Result<(f64, f64), String> {
    let failed = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(std::sync::Barrier::new(threads + 1));
    let chunk = conns.div_ceil(threads);
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let failed = Arc::clone(&failed);
            let barrier = Arc::clone(&barrier);
            let mine = chunk.min(conns.saturating_sub(t * chunk));
            std::thread::spawn(move || {
                let mut clients: Vec<Client> = (0..mine)
                    .map(|_| Client::new(addr).with_timeout(Duration::from_secs(60)))
                    .collect();
                let mut latencies = Vec::with_capacity(mine * rounds);
                let check = |client: &mut Client, latencies: &mut Vec<u64>, record: bool| {
                    let r0 = Instant::now();
                    match client.healthz() {
                        Ok(body) if body == "ok\n" => {
                            if record {
                                latencies.push(r0.elapsed().as_nanos() as u64);
                            }
                            true
                        }
                        Ok(body) => {
                            error!("healthz answered {body:?}");
                            failed.store(true, Ordering::Relaxed);
                            false
                        }
                        Err(e) => {
                            error!("healthz failed: {e}");
                            failed.store(true, Ordering::Relaxed);
                            false
                        }
                    }
                };
                // Establishment: one unrecorded request per connection
                // opens and proves every socket. All `mine` stay open
                // (keep-alive) until this thread returns.
                for client in &mut clients {
                    if !check(client, &mut latencies, false) {
                        barrier.wait(); // held rendezvous
                        barrier.wait(); // release
                        return latencies;
                    }
                }
                barrier.wait(); // every connection is now open, held
                barrier.wait(); // coordinator probed; start the clock
                for _ in 0..rounds {
                    for client in &mut clients {
                        if !check(client, &mut latencies, true) {
                            return latencies;
                        }
                    }
                }
                latencies
            })
        })
        .collect();

    // Rendezvous: every connection is established and held open.
    barrier.wait();
    let probed = probe();
    barrier.wait();
    let t0 = Instant::now();
    let mut latencies: Vec<u64> = Vec::with_capacity(conns * rounds);
    for w in workers {
        latencies.extend(w.join().expect("driver thread"));
    }
    let wall = t0.elapsed().as_secs_f64();
    probed?;
    if failed.load(Ordering::Relaxed) {
        return Err("a request failed or answered non-200".into());
    }
    let expected = conns * rounds;
    if latencies.len() != expected {
        return Err(format!(
            "only {}/{expected} requests completed",
            latencies.len()
        ));
    }
    latencies.sort_unstable();
    let p99 = latencies[(latencies.len() * 99) / 100 - 1] as f64 / 1e6;
    Ok((expected as f64 / wall, p99))
}

/// The scenario: `conns` simultaneously open keep-alive connections,
/// with the open-connection gauge asserted at full depth mid-run.
/// Returns (requests/sec, p99 latency ms).
fn keepalive_scenario(conns: usize, rounds: usize, threads: usize) -> Result<(f64, f64), String> {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_connections: conns + 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind an ephemeral port");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    let addr = handle.addr();

    // The probe runs at the establishment rendezvous, while every
    // driver connection is provably open and held — proving the
    // configured depth is genuinely concurrent, not conns sockets
    // opened and closed in sequence.
    let mut probe = move || -> Result<(), String> {
        let open = Client::new(addr)
            .metric("predllc_connections_open")
            .map_err(|e| format!("gauge probe failed: {e}"))?;
        // The probe's own connection is the +1.
        if (open as usize) < conns {
            return Err(format!(
                "only {open} connections were concurrently open (want {conns})"
            ));
        }
        Ok(())
    };
    let measured = drive(addr, conns, rounds, threads, &mut probe)?;
    handle.shutdown();
    join.join().expect("server thread");
    Ok(measured)
}

/// The `BENCH_serve.json` document.
fn render_json(conns: usize, rps: f64, p99_ms: f64) -> String {
    let workload = Json::Object(vec![
        ("name".into(), Json::Str("keepalive-2000c".into())),
        ("conns".into(), Json::Float(conns as f64)),
        ("rps".into(), Json::Float(round3(rps))),
        ("p99_ms".into(), Json::Float(round3(p99_ms))),
    ]);
    Json::Object(vec![
        ("benchmark".into(), Json::Str("serve_perf".into())),
        ("headline".into(), Json::Str("keepalive-2000c".into())),
        ("workloads".into(), Json::Array(vec![workload])),
    ])
    .render_pretty()
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn main() -> ExitCode {
    let args: Vec<String> = predllc_bench::log::init(std::env::args().skip(1).collect());
    let mut quick = false;
    let mut out = String::from("BENCH_serve.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = it.next().expect("--out needs a path").clone(),
            other => {
                error!("unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }

    // 2000 client + 2000 server sockets live in this one process; CI
    // runners default to a 1024 soft fd limit, so raise it first and
    // scale the scenario down if the hard limit refuses.
    let mut conns = if quick { 400 } else { 2000 };
    #[cfg(target_os = "linux")]
    {
        let want = (2 * conns + 256) as u64;
        match predllc_serve::sys::raise_nofile_limit(want) {
            Ok(limit) if limit < want => {
                let fit = ((limit as usize).saturating_sub(256)) / 2;
                error!("fd limit {limit} cannot hold {conns} connections; running {fit}");
                conns = fit.max(16);
            }
            Ok(_) => {}
            Err(e) => {
                error!("cannot raise the fd limit: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let rounds = if quick { 2 } else { 5 };

    let (rps, p99_ms) = match keepalive_scenario(conns, rounds, 8) {
        Ok(measured) => measured,
        Err(e) => {
            error!("keepalive-2000c FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    data!(
        "keepalive-2000c: {conns} concurrent keep-alive conns, {:.0} req/s, p99 {:.2} ms \
         (every answer 200)",
        round3(rps),
        round3(p99_ms)
    );

    let json = render_json(conns, rps, p99_ms);
    if let Err(e) = std::fs::write(&out, &json) {
        error!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    status!("wrote {out}");
    ExitCode::SUCCESS
}
