//! The end-to-end benchmark of the predllc stack: experiment specs go in
//! over HTTP, are simulated by a local server or across a fleet, and
//! come back as streamed CSV/JSON — timed end to end, checked byte for
//! byte against in-process runs, and (with `--trace 1`) split layer by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload shared-sweep|service-mix|fleet-sweep \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer ones with `--trace 1`). The generated specs, the result
//! summary and (traced) the span trace land in
//! `e2ebench/out/<workload>/seed-<N>/`. A served document that differs
//! from its in-process reference makes the command exit non-zero.

mod drive;
mod layers;
mod specs;
mod stats;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use predllc_explore::json::Json;
use predllc_explore::Executor;
use predllc_obs::{render_jsonl, TraceId, Tracer};
use predllc_serve::{Client, Format};
use predllc_workload::rng::Rng64;

use drive::{run_job, Counters, JobError, Served, Shape, Topology, LOCAL_THREADS};
use specs::JobSpec;
use stats::{median, ms, percentile, tail_percentile};

/// Server starts timed per run for `setup_s` (the median is reported).
const SETUP_REPS: usize = 41;
/// Pause between a timed start's shutdown and the next start.
const SETUP_PAUSE: Duration = Duration::from_millis(5);
/// Closed loops run at least this many jobs, so `job_ms_tail` always
/// has a percentile at or above the median with ten samples beyond it.
const MIN_CLOSED_JOBS: usize = 20;
/// service-mix: offered load, arrivals per host second (evenly spaced).
/// The highest rate of a sweep (40–960 req/s on a 2-vCPU host, see
/// METRICS.md) that met the latency limit with no growing generator
/// lag in the host's slow phases too; 480 req/s met it only while the
/// host was fast, and built a backlog when it slowed.
const MIX_RATE: f64 = 160.0;
/// service-mix: the fixed per-request latency limit, ms from due time.
const MIX_LIMIT_MS: f64 = 100.0;
/// service-mix: sender threads, each with its own connection.
const MIX_SENDERS: usize = 2;
/// service-mix: one arrival in this many submits a fresh tiny spec.
const MIX_FRESH_EVERY: u64 = 5;
/// service-mix: fresh specs replayed in process by the traced pass.
const MIX_REPLAY_FRESH: usize = 16;
/// Spans the shared tracer keeps per shard before dropping.
const TRACE_CAPACITY: usize = 1 << 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SharedSweep,
    ServiceMix,
    FleetSweep,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "shared-sweep" => Some(Workload::SharedSweep),
            "service-mix" => Some(Workload::ServiceMix),
            "fleet-sweep" => Some(Workload::FleetSweep),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SharedSweep => "shared-sweep",
            Workload::ServiceMix => "service-mix",
            Workload::FleetSweep => "fleet-sweep",
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::FleetSweep => Shape::Fleet,
            _ => Shape::Local,
        }
    }

    /// The thread count the serving runner stamps into JSON reports.
    fn threads_label(self) -> usize {
        match self {
            Workload::FleetSweep => 1,
            _ => LOCAL_THREADS,
        }
    }

    fn describe(self, rate: f64) -> String {
        match self {
            Workload::SharedSweep => {
                "closed loop, 1 client, local server with 2 executor threads".into()
            }
            Workload::ServiceMix => format!(
                "open loop, {rate} req/s from {MIX_SENDERS} senders, local server with 2 executor threads"
            ),
            Workload::FleetSweep => {
                "closed loop, 1 client, coordinator over 2 worker servers with 1 thread each".into()
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// service-mix's offered rate, arrivals per second (`--rate`, for
    /// rate sweeps; `MIX_RATE` by default).
    rate: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rate = MIX_RATE;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| "--seconds needs a whole number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            "--rate" => {
                rate = value
                    .parse()
                    .ok()
                    .filter(|r: &f64| *r > 0.0 && r.is_finite())
                    .ok_or("--rate needs a positive number")?
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        rate,
    })
}

/// One attempted request.
struct Record {
    /// Index into the run's job list.
    job: usize,
    /// 0: the untraced front door; 1: the traced one.
    topo: usize,
    /// The trace id announced (traced front door only).
    trace: Option<TraceId>,
    /// When the request was due, ns since the run's origin.
    due: u64,
    outcome: Result<Served, JobError>,
    /// The byte check, once made.
    verdict: Option<Result<(), String>>,
}

impl Record {
    fn served(&self) -> Option<&Served> {
        self.outcome.as_ref().ok()
    }

    /// Due-to-last-byte latency of a completed request, ms.
    fn latency_ms(&self) -> Option<f64> {
        self.served()
            .map(|s| ms(s.at.last_byte.saturating_sub(self.due)))
    }
}

/// What one measured window produced.
struct Window {
    jobs: Vec<JobSpec>,
    records: Vec<Record>,
    /// Host seconds from the window opening to the last result byte.
    elapsed_s: f64,
    /// References computed before the window (service-mix cached specs).
    references: Vec<Option<verify::Reference>>,
}

fn since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A closed loop: one client, one job at a time, until `seconds` have
/// passed (the job in flight then completes) and at least
/// `MIN_CLOSED_JOBS` jobs ran. With two front doors, jobs alternate
/// between them, the first going to the traced one.
fn closed_loop(
    fronts: &[&Topology],
    tracer: Option<&Tracer>,
    seconds: u64,
    mut generate: impl FnMut(u64) -> JobSpec,
) -> Window {
    let mut clients: Vec<Client> = fronts.iter().map(|t| Client::new(t.addr())).collect();
    let mut jobs = Vec::new();
    let mut records = Vec::new();
    let origin = Instant::now();
    let deadline = seconds * 1_000_000_000;
    let mut last = 0;
    while since(origin) < deadline || jobs.len() < MIN_CLOSED_JOBS {
        let index = jobs.len();
        jobs.push(generate(index as u64));
        let topo = if fronts.len() == 2 { 1 - index % 2 } else { 0 };
        let trace = (topo == 1).then(TraceId::fresh);
        let job = &jobs[index];
        let due = since(origin);
        let outcome = run_job(
            &mut clients[topo],
            &job.text,
            job.format,
            origin,
            tracer.zip(trace),
        );
        if let Ok(served) = &outcome {
            last = served.at.last_byte;
        }
        records.push(Record {
            job: index,
            topo,
            trace,
            due,
            outcome,
            verdict: None,
        });
    }
    Window {
        references: (0..jobs.len()).map(|_| None).collect(),
        jobs,
        records,
        elapsed_s: ms(last) / 1e3,
    }
}

/// One open-loop arrival.
struct Arrival {
    due: u64,
    job: usize,
    /// Submit the spec with its keys reordered (same fingerprint).
    reordered: bool,
}

/// service-mix's inputs: the specs, the arrival schedule and the
/// references of the cached specs.
struct Mix {
    /// Jobs 0..K are the cached specs read as CSV, K..2K the same specs
    /// read as JSON; fresh specs follow.
    jobs: Vec<JobSpec>,
    arrivals: Vec<Arrival>,
    /// The cached specs with keys reordered, indexed like jobs 0..K.
    reordered: Vec<String>,
    references: Vec<Option<verify::Reference>>,
}

impl Mix {
    /// Generates the mix from the seed and warms every front door's
    /// cache with the cached specs; references of the cached specs are
    /// computed here too, all outside the timed window.
    fn prepare(
        seed: u64,
        seconds: u64,
        rate: f64,
        exec: &Executor,
        fronts: &[&Topology],
    ) -> Result<Mix, String> {
        let mut rng = Rng64::new(seed ^ 0x6d69_785f_6172_7276);
        let cached = specs::MIX_CACHED;
        let mut jobs: Vec<JobSpec> = (0..cached as u64)
            .map(|k| specs::mix_cached(seed, k))
            .collect();
        for k in 0..cached {
            let mut json = jobs[k].clone();
            json.format = Format::Json;
            jobs.push(json);
        }
        // A fixed offered rate: arrival `i` is due at `i / rate`, and
        // every `MIX_FRESH_EVERY`-th one submits a fresh spec.
        let count = (seconds as f64 * rate) as u64;
        let mut arrivals = Vec::new();
        let mut fresh = 0u64;
        for i in 0..count {
            let due = (i as f64 * 1e9 / rate) as u64;
            if i % MIX_FRESH_EVERY == 0 {
                arrivals.push(Arrival {
                    due,
                    job: jobs.len(),
                    reordered: false,
                });
                jobs.push(specs::mix_fresh(seed, fresh));
                fresh += 1;
            } else {
                let k = rng.below(cached as u64) as usize;
                let json = rng.chance(0.5);
                arrivals.push(Arrival {
                    due,
                    job: k + if json { cached } else { 0 },
                    reordered: rng.chance(0.5),
                });
            }
        }
        let reordered = jobs[..cached]
            .iter()
            .map(|j| specs::reordered(&j.text))
            .collect();
        let mut references: Vec<Option<verify::Reference>> =
            (0..jobs.len()).map(|_| None).collect();
        for (i, job) in jobs[..2 * cached].iter().enumerate() {
            references[i] = Some(verify::reference(job, exec, LOCAL_THREADS)?);
        }
        for front in fronts {
            let mut client = Client::new(front.addr());
            for job in &jobs[..cached] {
                let submitted = client
                    .submit(&job.text)
                    .map_err(|e| format!("warm-up submit: {e}"))?;
                client
                    .wait_done(&submitted.id, drive::JOB_TIMEOUT)
                    .map_err(|e| format!("warm-up wait: {e}"))?;
            }
        }
        Ok(Mix {
            jobs,
            arrivals,
            reordered,
            references,
        })
    }
}

/// service-mix: the open loop. `MIX_SENDERS` threads send each arrival
/// when due (or as soon as they are free); every request is timed from
/// when it was due.
fn open_loop(mix: Mix, fronts: &[&Topology], tracer: Option<&Tracer>) -> Window {
    let Mix {
        jobs,
        arrivals,
        reordered,
        references,
    } = mix;
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::with_capacity(arrivals.len()));
    let origin = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..MIX_SENDERS {
            scope.spawn(|| {
                let mut clients: Vec<Client> =
                    fronts.iter().map(|t| Client::new(t.addr())).collect();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(arrival) = arrivals.get(i) else {
                        break;
                    };
                    let wait = arrival.due.saturating_sub(since(origin));
                    if wait > 0 {
                        std::thread::sleep(Duration::from_nanos(wait));
                    }
                    let topo = if fronts.len() == 2 { 1 - i % 2 } else { 0 };
                    let trace = (topo == 1).then(TraceId::fresh);
                    let job = &jobs[arrival.job];
                    let text = if arrival.reordered {
                        &reordered[arrival.job % reordered.len()]
                    } else {
                        &job.text
                    };
                    let mut outcome = run_job(
                        &mut clients[topo],
                        text,
                        job.format,
                        origin,
                        tracer.zip(trace),
                    );
                    // Cache-hit reads are checked against references
                    // computed before the window, after the clock stopped;
                    // the body is dropped to keep memory flat.
                    let verdict = references[arrival.job].as_ref().map(|reference| {
                        let served = outcome.as_mut().map(|s| std::mem::take(&mut s.body));
                        match served {
                            Ok(body) => verify::check(job, &body, reference),
                            Err(_) => Ok(()),
                        }
                    });
                    records.lock().expect("records lock").push(Record {
                        job: arrival.job,
                        topo,
                        trace,
                        due: arrival.due,
                        outcome,
                        verdict,
                    });
                }
            });
        }
    });
    let mut records = records.into_inner().expect("records lock");
    records.sort_by_key(|r| r.due);
    let last = records
        .iter()
        .filter_map(|r| r.served().map(|s| s.at.last_byte))
        .max()
        .unwrap_or(0);
    Window {
        jobs,
        records,
        elapsed_s: ms(last) / 1e3,
        references,
    }
}

/// Computes every missing reference and checks every served body.
fn verify_window(window: &mut Window, exec: &Executor, threads_label: usize) -> Result<(), String> {
    for record in &mut window.records {
        if record.verdict.is_some() {
            continue;
        }
        let Ok(served) = &record.outcome else {
            continue;
        };
        let job = &window.jobs[record.job];
        if window.references[record.job].is_none() {
            window.references[record.job] = Some(verify::reference(job, exec, threads_label)?);
        }
        let reference = window.references[record.job]
            .as_ref()
            .expect("just computed");
        record.verdict = Some(verify::check(job, &served.body, reference));
    }
    Ok(())
}

/// A record that completed and served the right bytes.
fn correct(record: &Record) -> bool {
    record.served().is_some() && matches!(record.verdict, Some(Ok(())))
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// `(name, value, unit)` for the JSON line.
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable table lines.
    table: Vec<String>,
}

fn end_to_end(
    args: &Args,
    window: &Window,
    setups: &[f64],
    peak_rss: f64,
) -> Result<Outcome, String> {
    let open = args.workload == Workload::ServiceMix;
    let mut latencies = Vec::new();
    let (mut ok, mut points, mut ops, mut shed, mut wrong, mut late) =
        (0usize, 0u64, 0u64, 0, 0, 0);
    let mut first_error = None;
    for r in &window.records {
        match &r.outcome {
            Err(JobError::Shed) => shed += 1,
            Err(JobError::Other(e)) => {
                first_error.get_or_insert(e.as_str());
            }
            Ok(served) => {
                if let Some(Err(e)) = &r.verdict {
                    first_error.get_or_insert(e.as_str());
                }
                if !correct(r) {
                    wrong += 1;
                    continue;
                }
                let latency = r.latency_ms().unwrap_or(0.0);
                latencies.push(latency);
                if open && latency > MIX_LIMIT_MS {
                    late += 1;
                    continue;
                }
                ok += 1;
                if !served.cached {
                    let job = &window.jobs[r.job];
                    points += job.unique_points() as u64;
                    ops += job.unique_ops();
                }
            }
        }
    }
    let attempted = window.records.len();
    let failed = attempted - ok;
    let errors = failed - shed - wrong - late;
    let first_error = first_error.unwrap_or("");
    // A shed or failed request leaves no latency sample, so the survivors
    // would flatter `job_ms_*`: such a window is no measurement. Late
    // answers are still timed, and wrong bytes are reported below.
    if wrong == 0 && shed + errors > 0 {
        return Err(format!(
            "{} of {attempted} requests failed (shed {shed}, errors {errors}); first failure: {first_error}",
            shed + errors
        ));
    }
    // Wrong bytes are reported whatever the sample count.
    let Some(q) = tail_percentile(latencies.len()).or((wrong > 0).then_some(50.0)) else {
        return Err(format!(
            "{} timed jobs are too few for a tail percentile",
            latencies.len()
        ));
    };
    let elapsed = window.elapsed_s;
    let metrics = vec![
        ("setup_s".to_string(), median(setups), "s"),
        ("job_ms_p50".to_string(), percentile(&latencies, 50.0), "ms"),
        ("job_ms_tail".to_string(), percentile(&latencies, q), "ms"),
        ("ok_per_s".to_string(), ok as f64 / elapsed, "1/s"),
        ("points_per_s".to_string(), points as f64 / elapsed, "1/s"),
        ("sim_mops".to_string(), ops as f64 / elapsed / 1e6, "Mop/s"),
        ("peak_rss_mb".to_string(), peak_rss, "MiB"),
    ];
    let mut table: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let note = match name.as_str() {
                "setup_s" => format!("median of {} starts to first /healthz", setups.len()),
                "job_ms_p50" => format!("n={}", latencies.len()),
                "job_ms_tail" => format!("p{q} of n={}", latencies.len()),
                "ok_per_s" if open => {
                    format!("within {MIX_LIMIT_MS} ms of due, over {elapsed:.3} s")
                }
                "ok_per_s" | "points_per_s" | "sim_mops" => format!("over {elapsed:.3} s"),
                _ => String::new(),
            };
            format!("{name:<16} {value:>14.4} {unit:<6} {note}")
        })
        .collect();
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    table.push(format!(
        "{:<16} {failed_frac:>14.4} {:<6} {failed} of {attempted} (shed {shed}, wrong bytes {wrong}, late {late}, errors {errors})",
        "failed_frac",
        "ratio",
    ));
    if !first_error.is_empty() {
        table.push(format!("first failure: {first_error}"));
    }
    Ok(Outcome {
        correct: wrong == 0,
        attempted,
        failed,
        metrics,
        table,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(args.workload.name())
        .join(format!("seed-{}", args.seed));
    let _ = std::fs::remove_dir_all(&out_dir);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let shape = args.workload.shape();
    let exec = Executor::new(LOCAL_THREADS);
    let tracer = args
        .trace
        .then(|| Arc::new(Tracer::with_capacity(TRACE_CAPACITY)));

    // Set-up time: repeated starts of the workload's topology; the last
    // one serves the run.
    let mut setups = Vec::new();
    let mut fronts = Vec::new();
    if let Some(tracer) = &tracer {
        fronts.push(Topology::start(shape, None)?.0);
        fronts.push(Topology::start(shape, Some(tracer))?.0);
    } else {
        for rep in 0..SETUP_REPS {
            let (topology, secs) = Topology::start(shape, None)?;
            setups.push(secs);
            if rep + 1 == SETUP_REPS {
                fronts.push(topology);
            } else {
                topology.stop()?;
                // Let the stopped servers' threads finish exiting, so
                // the next start is not timed against their teardown.
                std::thread::sleep(SETUP_PAUSE);
            }
        }
    }
    let front_refs: Vec<&Topology> = fronts.iter().collect();
    let seed = args.seed;
    let mix = (args.workload == Workload::ServiceMix)
        .then(|| Mix::prepare(seed, args.seconds, args.rate, &exec, &front_refs))
        .transpose()?;
    if let Some(tracer) = &tracer {
        tracer.drain(); // set-up spans are not part of the window
    }
    let traced_front = fronts.last().expect("a front door").addr();
    let before = Counters::read(traced_front);
    let tracer_ref = tracer.as_deref();
    let cpu_before = stats::cpu_seconds();
    let mut window = match (args.workload, mix) {
        (_, Some(mix)) => open_loop(mix, &front_refs, tracer_ref),
        (Workload::FleetSweep, None) => closed_loop(&front_refs, tracer_ref, args.seconds, |i| {
            specs::fleet_sweep(seed, i)
        }),
        (_, None) => closed_loop(&front_refs, tracer_ref, args.seconds, |i| {
            specs::shared_sweep(seed, i)
        }),
    };
    // Share of the host's CPUs the whole process (servers and client)
    // kept busy over the window.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let cpu_busy = cpu_before
        .zip(stats::cpu_seconds())
        .map(|(a, b)| (b - a) / (window.elapsed_s * cpus));
    let peak_rss = stats::peak_rss_mb().unwrap_or(0.0);
    let counters = Counters::read(traced_front).since(before);
    let events = tracer.as_ref().map(|t| (t.drain(), t.dropped()));
    for front in fronts {
        front.stop()?;
    }
    verify_window(&mut window, &exec, args.workload.threads_label())?;

    let specs_out: String = window
        .jobs
        .iter()
        .map(|j| format!("{}\n", j.text))
        .collect();
    std::fs::write(out_dir.join("specs.jsonl"), specs_out).map_err(|e| e.to_string())?;

    let mut outcome = end_to_end(args, &window, &setups, peak_rss)?;
    if let Some((events, dropped)) = events {
        if dropped > 0 {
            return Err(format!("the shared tracer dropped {dropped} events"));
        }
        std::fs::write(out_dir.join("trace.jsonl"), render_jsonl(&events))
            .map_err(|e| e.to_string())?;
        let mut layers = traced_pass(args, &window, &events, counters, &exec)?;
        layers.put("bench.cpu_busy_frac", cpu_busy, "ratio");
        // End-to-end numbers come from untraced runs only; keep just the
        // failure count of this one.
        outcome.table.retain(|line| line.starts_with("failed_frac"));
        outcome
            .table
            .push("per-layer (traced pass; self.* are means per traced job):".to_string());
        for (name, value, unit) in &layers.metrics {
            if layers.absent.contains(name) {
                outcome.table.push(format!(
                    "{name:<28} {:>14} {unit:<6} absent: not on this workload's path",
                    "-"
                ));
            } else {
                outcome
                    .table
                    .push(format!("{name:<28} {value:>14.4} {unit}"));
            }
        }
        outcome.metrics = layers.metrics;
    }
    let summary = Json::Object(vec![
        ("workload".into(), Json::Str(args.workload.name().into())),
        ("seed".into(), Json::UInt(args.seed)),
        (
            "table".into(),
            Json::Array(outcome.table.iter().map(|l| Json::Str(l.clone())).collect()),
        ),
    ]);
    std::fs::write(out_dir.join("results.json"), summary.render_pretty())
        .map_err(|e| e.to_string())?;
    Ok(outcome)
}

/// The traced pass: engine/generator replay, then the per-layer split.
fn traced_pass(
    args: &Args,
    window: &Window,
    events: &[predllc_obs::TraceEvent],
    counters: Counters,
    exec: &Executor,
) -> Result<layers::LayerReport, String> {
    // The replay set is fixed by the seed: the first job of a closed
    // loop; the first cached spec and the first fresh specs of the mix.
    let mut replay = layers::Replay::default();
    let replay_jobs: Vec<usize> = match args.workload {
        Workload::ServiceMix => std::iter::once(0)
            .chain((2 * specs::MIX_CACHED..window.jobs.len()).take(MIX_REPLAY_FRESH))
            .collect(),
        _ => vec![0],
    };
    for j in replay_jobs {
        let reference = window.references[j]
            .as_ref()
            .ok_or(format!("no reference for replayed job {j}"))?;
        replay.add(&window.jobs[j], reference)?;
    }

    let traced: Vec<&Record> = window
        .records
        .iter()
        .filter(|r| r.topo == 1 && correct(r))
        .collect();
    let untraced: Vec<f64> = window
        .records
        .iter()
        .filter(|r| r.topo == 0 && correct(r))
        .filter_map(Record::latency_ms)
        .collect();
    let traced_latency: Vec<f64> = traced.iter().filter_map(|r| r.latency_ms()).collect();
    let jobs: Vec<layers::TracedJob<'_>> = traced
        .iter()
        .map(|r| layers::TracedJob {
            trace: r.trace.expect("traced records carry a trace id"),
            job: &window.jobs[r.job],
            cached: r.served().is_some_and(|s| s.cached),
            lag_ns: r.served().map_or(0, |s| s.at.submit.saturating_sub(r.due)),
        })
        .collect();
    let references = traced
        .iter()
        .map(|r| {
            window.references[r.job]
                .as_ref()
                .ok_or("missing reference".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let gen_lag: Vec<f64> = if args.workload == Workload::ServiceMix {
        window
            .records
            .iter()
            .filter_map(|r| r.served().map(|s| ms(s.at.submit.saturating_sub(r.due))))
            .collect()
    } else {
        Vec::new()
    };
    let result_bytes: Vec<f64> = traced
        .iter()
        .filter_map(|r| r.served().map(|s| s.body_len as f64))
        .collect();
    let ctx = layers::Context {
        events,
        references,
        counters,
        submissions: window.records.iter().filter(|r| r.topo == 1).count() as u64,
        replay: &replay,
        p50_pair: (median(&traced_latency), median(&untraced)),
        gen_lag_ms: &gen_lag,
        result_bytes: &result_bytes,
    };
    Ok(layers::analyse(&jobs, &ctx, exec))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload shared-sweep|service-mix|fleet-sweep --seed N --seconds S --trace 0|1 [--rate R]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!(
                "e2ebench {} seed={} seconds={} trace={} ({})",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace),
                args.workload.describe(args.rate)
            );
            for line in &outcome.table {
                println!("{line}");
            }
            let metrics = outcome
                .metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::Object(vec![
                            ("value".into(), Json::Float(*value)),
                            ("unit".into(), Json::Str((*unit).into())),
                        ]),
                    )
                })
                .collect();
            let line = Json::Object(vec![
                ("correct".into(), Json::Bool(outcome.correct)),
                ("attempted".into(), Json::UInt(outcome.attempted as u64)),
                ("failed".into(), Json::UInt(outcome.failed as u64)),
                ("metrics".into(), Json::Object(metrics)),
            ]);
            println!("{}", line.render());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("e2ebench: served bytes differ from the in-process reference");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
