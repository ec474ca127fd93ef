//! Driving the program through its public API: starting and stopping
//! server topologies (a local server, or workers behind a fleet
//! coordinator), and running one job the way a user does — submit,
//! wait, stream the result back — with host-time stamps at every call.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use predllc_fleet::{Coordinator, CoordinatorConfig};
use predllc_obs::{TraceId, Tracer};
use predllc_serve::{Client, ClientError, Format, Metrics, Server, ServerConfig, ServerHandle};

/// Longest a job may take before the client gives up on it.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server plus the thread serving it.
struct Running {
    handle: ServerHandle,
    join: JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn spawn(server: Server) -> Running {
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        Running { handle, join }
    }

    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.join.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Executor threads of the local server (and of in-process references).
pub const LOCAL_THREADS: usize = 2;
/// Worker servers behind a fleet coordinator.
const FLEET_WORKERS: usize = 2;
/// Executor threads of each fleet worker.
const WORKER_THREADS: usize = 1;

/// The shape of the service a workload talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One server running jobs on its own `LOCAL_THREADS` executor.
    Local,
    /// A coordinator server (default coordinator config) fronting
    /// `FLEET_WORKERS` in-process worker servers.
    Fleet,
}

/// A started topology: the front door plus everything behind it.
pub struct Topology {
    front: Running,
    workers: Vec<Running>,
}

impl Topology {
    /// Starts `shape`, every server recording into `tracer` when given
    /// (otherwise each server keeps its own, as by default), and waits
    /// for the first successful `/healthz`. Returns the topology and the
    /// host seconds from start to that answer.
    pub fn start(shape: Shape, tracer: Option<&Arc<Tracer>>) -> Result<(Topology, f64), String> {
        let started = Instant::now();
        let config = |threads: usize| ServerConfig {
            threads,
            tracer: tracer.map(Arc::clone),
            ..ServerConfig::default()
        };
        let bind = |threads: usize| {
            Server::bind("127.0.0.1:0", config(threads)).map_err(|e| format!("bind: {e}"))
        };
        let topology = match shape {
            Shape::Local => Topology {
                front: Running::spawn(bind(LOCAL_THREADS)?),
                workers: Vec::new(),
            },
            Shape::Fleet => {
                let workers = (0..FLEET_WORKERS)
                    .map(|_| bind(WORKER_THREADS).map(Running::spawn))
                    .collect::<Result<Vec<Running>, String>>()?;
                let metrics = Arc::new(Metrics::default());
                let coordinator = Coordinator::new(
                    workers.iter().map(|w| w.handle.addr()),
                    CoordinatorConfig::default(),
                    Arc::clone(&metrics),
                );
                let front =
                    Server::bind_with("127.0.0.1:0", config(1), Arc::new(coordinator), metrics)
                        .map_err(|e| format!("bind: {e}"))?;
                Topology {
                    front: Running::spawn(front),
                    workers,
                }
            }
        };
        Client::new(topology.addr())
            .healthz()
            .map_err(|e| format!("first /healthz: {e}"))?;
        Ok((topology, started.elapsed().as_secs_f64()))
    }

    /// The front door's address.
    pub fn addr(&self) -> SocketAddr {
        self.front.handle.addr()
    }

    /// Graceful shutdown of the front door, then the workers; joins
    /// every server thread.
    pub fn stop(self) -> Result<(), String> {
        let mut result = self.front.stop();
        for w in self.workers {
            result = result.and(w.stop());
        }
        result
    }
}

/// Host-time stamps of one job, relative to the run's origin `Instant`
/// (nanoseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct Stamps {
    /// `submit` called.
    pub submit: u64,
    /// Last result byte in hand.
    pub last_byte: u64,
}

/// A job served end to end.
#[derive(Debug)]
pub struct Served {
    /// The streamed result document (emptied once checked, for reads
    /// checked inside the window).
    pub body: Vec<u8>,
    /// The result document's size in bytes.
    pub body_len: usize,
    /// Whether the submission was answered from the cache.
    pub cached: bool,
    /// Host-time stamps.
    pub at: Stamps,
}

/// Why a job did not produce a result.
#[derive(Debug)]
pub enum JobError {
    /// The service shed the submission with `429`.
    Shed,
    /// Any other client-visible failure.
    Other(String),
}

impl From<ClientError> for JobError {
    fn from(e: ClientError) -> JobError {
        match e {
            ClientError::Status { status: 429, .. } => JobError::Shed,
            other => JobError::Other(other.to_string()),
        }
    }
}

fn since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one job through `client`: `submit`, `wait_done`, `results`
/// streamed chunk by chunk. With `trace`, the client announces the
/// trace id so server spans share it, and the benchmark records its own
/// `bench.*` spans around each call.
pub fn run_job(
    client: &mut Client,
    text: &str,
    format: Format,
    origin: Instant,
    trace: Option<(&Tracer, TraceId)>,
) -> Result<Served, JobError> {
    client.set_trace(trace.map(|(_, id)| id));
    let span = |name: &str| trace.map(|(tracer, id)| tracer.span(id, name, Vec::new()));
    let mut at = Stamps {
        submit: since(origin),
        ..Stamps::default()
    };
    let job_span = span("bench.job");
    let submitted = {
        let _s = span("bench.submit");
        client.submit(text)?
    };
    {
        let _s = span("bench.wait");
        client.wait_done(&submitted.id, JOB_TIMEOUT)?;
    }
    let mut body = Vec::new();
    {
        let _s = span("bench.results");
        let mut stream = client.results(&submitted.id, format)?;
        while let Some(chunk) = stream.read_chunk()? {
            if let (true, Some((tracer, id))) = (body.is_empty(), trace) {
                tracer.instant(id, "bench.first_byte", Vec::new());
            }
            body.extend_from_slice(&chunk);
        }
    }
    at.last_byte = since(origin);
    drop(job_span);
    Ok(Served {
        body_len: body.len(),
        body,
        cached: submitted.cached,
        at,
    })
}

/// One series out of a server's `/metrics`, `0` when absent (a labelled
/// series only appears once it was first touched).
fn scrape(client: &mut Client, series: &str) -> u64 {
    client.metric(series).unwrap_or(0)
}

/// The counters the traced pass reads off a front door around the
/// measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `GET /v1/experiments/{id}` requests (status polls).
    pub status_polls: u64,
    /// Submissions answered from the cache.
    pub cache_hits: u64,
    /// Submissions that created a job.
    pub cache_misses: u64,
    /// Requests shed with `429`.
    pub shed: u64,
    /// Fleet points requeued after a worker loss.
    pub requeued: u64,
}

impl Counters {
    /// Reads the counters from the server at `addr`.
    pub fn read(addr: SocketAddr) -> Counters {
        let mut client = Client::new(addr);
        Counters {
            status_polls: scrape(
                &mut client,
                "predllc_http_request_duration_ns_count{endpoint=\"job_status\"}",
            ),
            cache_hits: scrape(&mut client, "predllc_cache_hits"),
            cache_misses: scrape(&mut client, "predllc_cache_misses"),
            shed: scrape(&mut client, "predllc_requests_shed"),
            requeued: scrape(&mut client, "predllc_points_retried"),
        }
    }

    /// Counter growth from `before` to `self`.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            status_polls: self.status_polls - before.status_polls,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            shed: self.shed - before.shed,
            requeued: self.requeued - before.requeued,
        }
    }
}
