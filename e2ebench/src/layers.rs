//! The traced pass: split each traced job's wall time across the layers
//! (`serve`, `explore`, `core`, `workload`, `fleet`) from the spans the
//! program and the benchmark record into one shared tracer, and replay
//! grid points in process for the engine and generator numbers.
//!
//! Per job, the timeline is cut at span boundaries:
//!
//! * `serve` — the submit round trip, the wait between `submit`
//!   returning and `serve.job.run` starting, time to first result byte
//!   and the stream;
//! * `poll` — `wait_done` still sleeping after `serve.job.run` ended
//!   (the whole wait, for a cache hit);
//! * `core` + `workload` — the union of `explore.point` (local) or
//!   `worker.point` (fleet) spans, split by the generator's share of the
//!   in-process replay;
//! * `explore` — `plan_grid` + `search_partitions` timed in process on
//!   the job's spec;
//! * `fleet` — the coordinator's dispatch-to-merge phase minus worker
//!   compute (wire, dispatch, the idle gap and the merge);
//! * `unattributed` — the rest.

use std::collections::HashMap;
use std::time::Instant;

use predllc_core::{EngineProfile, Simulator};
use predllc_explore::report::{render_csv, render_json};
use predllc_explore::{build_platforms, plan_grid, search_partitions, Executor};
use predllc_model::CoreId;
use predllc_obs::{EventKind, FieldValue, TraceEvent, TraceId};
use predllc_serve::Format;

use crate::drive::LOCAL_THREADS;
use crate::specs::{ops_per_core, JobSpec};
use crate::stats::{mean, median, ms, percentile};
use crate::verify::Reference;

/// One traced job, as the analysis needs it.
pub struct TracedJob<'a> {
    /// The trace id the client announced.
    pub trace: TraceId,
    /// The submitted spec.
    pub job: &'a JobSpec,
    /// Whether the submission was a cache hit.
    pub cached: bool,
    /// How late the open-loop generator sent it (0 in a closed loop).
    pub lag_ns: u64,
}

/// A closed interval of tracer time, nanoseconds.
type Span = (u64, u64);

/// The events of one trace, indexed by name.
struct Events<'a> {
    spans: HashMap<&'a str, Vec<(Span, &'a TraceEvent)>>,
    instants: HashMap<&'a str, Vec<&'a TraceEvent>>,
}

impl<'a> Events<'a> {
    fn new(events: &[&'a TraceEvent]) -> Events<'a> {
        let mut spans: HashMap<&str, Vec<(Span, &TraceEvent)>> = HashMap::new();
        let mut instants: HashMap<&str, Vec<&TraceEvent>> = HashMap::new();
        for e in events {
            match e.kind {
                EventKind::End => {
                    let dur = e.dur_ns.unwrap_or(0);
                    spans
                        .entry(e.name.as_str())
                        .or_default()
                        .push(((e.ts_ns.saturating_sub(dur), e.ts_ns), e));
                }
                EventKind::Instant => instants.entry(e.name.as_str()).or_default().push(e),
                EventKind::Begin => {}
            }
        }
        Events { spans, instants }
    }

    fn spans(&self, name: &str) -> Vec<Span> {
        self.spans
            .get(name)
            .map(|v| v.iter().map(|(s, _)| *s).collect())
            .unwrap_or_default()
    }

    fn one(&self, name: &str) -> Option<Span> {
        self.spans(name).first().copied()
    }

    fn instants(&self, name: &str) -> &[&'a TraceEvent] {
        self.instants.get(name).map_or(&[], Vec::as_slice)
    }

    fn span_field(&self, name: &str, key: &str) -> Vec<u64> {
        self.spans
            .get(name)
            .map(|v| v.iter().filter_map(|(_, e)| field(e, key)).collect())
            .unwrap_or_default()
    }
}

fn field(e: &TraceEvent, key: &str) -> Option<u64> {
    e.fields.iter().find_map(|(k, v)| match v {
        FieldValue::U64(n) if k == key => Some(*n),
        _ => None,
    })
}

fn len((a, b): Span) -> u64 {
    b.saturating_sub(a)
}

/// Total length covered by the union of `spans`, clipped to `within`.
fn union_len(mut spans: Vec<Span>, within: Span) -> u64 {
    spans.sort_unstable();
    let mut total = 0;
    let mut cursor = within.0;
    for (a, b) in spans {
        let (a, b) = (a.max(cursor), b.min(within.1));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Engine and generator numbers from an in-process replay of grid
/// points.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    points: u64,
    ops: u64,
    /// Host ns of `Simulator::run_profiled` over every point.
    run_ns: u64,
    /// Host ns of iterating every point's generators alone.
    gen_ns: u64,
    /// Sampled stage sums scaled by the sampling cadence: arbiter, llc,
    /// dram, idle_jump.
    stage_ns: [u64; 4],
    llc_hits: u64,
    llc_fills: u64,
    slots: u64,
    idle_slots: u64,
    row_hits: u64,
    row_accesses: u64,
    blocked_slots: u64,
}

/// Stage sampling cadence of the replay profile.
const SAMPLE_EVERY: u64 = 64;

impl Replay {
    /// Replays every unique point of `job` through
    /// `Simulator::run_profiled`, then iterates its generators alone.
    /// The replay's request count and max latency must equal the served
    /// row's `requests` and `p100`: the rows of `reference`, which every
    /// served document of the job was byte-checked against.
    pub fn add(&mut self, job: &JobSpec, reference: &Reference) -> Result<(), String> {
        let rows = &reference.report.grid;
        let spec = &job.spec;
        let platforms = build_platforms(spec).map_err(|e| e.to_string())?;
        let plan = plan_grid(spec);
        for (slot, &(ci, wi)) in plan.unique.iter().enumerate() {
            let sim = Simulator::new(platforms[ci].0.clone()).map_err(|e| e.to_string())?;
            let workload = spec.workloads[wi].spec.build(spec.cores);
            let profile = EngineProfile::new(SAMPLE_EVERY);
            let started = Instant::now();
            let report = sim
                .run_profiled(&workload, Some(&profile))
                .map_err(|e| e.to_string())?;
            self.run_ns += elapsed_ns(started);

            let started = Instant::now();
            let mut generated = 0u64;
            for core in CoreId::first(spec.cores) {
                for op in workload.core_ops(core) {
                    std::hint::black_box(op);
                    generated += 1;
                }
            }
            self.gen_ns += elapsed_ns(started);
            let expected_ops = ops_per_core(&spec.workloads[wi].spec) * u64::from(spec.cores);
            if generated != expected_ops {
                return Err(format!(
                    "generators yielded {generated} ops, spec declares {expected_ops}"
                ));
            }

            let row = plan
                .assignment
                .iter()
                .position(|&a| a == slot)
                .and_then(|declared| rows.get(declared))
                .map(|r| (r.requests, r.p100))
                .ok_or("served result lacks a row for a unique point")?;
            let replayed = (
                report.latency_histogram().count(),
                report.max_request_latency().as_u64(),
            );
            if replayed != row {
                return Err(format!(
                    "{}: replay of point {slot} gives (requests, max) = {replayed:?}, served row says {row:?}",
                    spec.name
                ));
            }

            let stats = &report.stats;
            self.points += 1;
            self.ops += stats.cores.iter().map(|c| c.ops_completed).sum::<u64>();
            for (i, h) in [
                &profile.arbiter,
                &profile.llc,
                &profile.dram,
                &profile.idle_jump,
            ]
            .into_iter()
            .enumerate()
            {
                self.stage_ns[i] += h.snapshot().sum * SAMPLE_EVERY;
            }
            self.llc_hits += stats.cores.iter().map(|c| c.llc_hits).sum::<u64>();
            self.llc_fills += stats.cores.iter().map(|c| c.llc_fills).sum::<u64>();
            self.slots += stats.slots;
            self.idle_slots += stats.idle_slots;
            self.row_hits += stats.dram_row_hits;
            self.row_accesses +=
                stats.dram_row_hits + stats.dram_row_empties + stats.dram_row_conflicts;
            self.blocked_slots += stats.cores.iter().map(|c| c.blocked_slots).sum::<u64>();
        }
        Ok(())
    }

    /// The generator's share of replayed host time.
    fn gen_share(&self) -> f64 {
        ratio(self.gen_ns, self.run_ns).min(1.0)
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Host time of in-process explore calls on one spec.
struct ExploreTimes {
    plan_ns: u64,
    search_ns: Option<u64>,
    render_ns: u64,
}

/// Median-of-three host time of `f`.
fn time3(mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            f();
            elapsed_ns(started)
        })
        .collect();
    samples.sort_unstable();
    samples[1]
}

fn explore_times(job: &JobSpec, reference: &Reference, exec: &Executor) -> ExploreTimes {
    let spec = &job.spec;
    let plan_ns = time3(|| {
        std::hint::black_box(plan_grid(std::hint::black_box(spec)));
    });
    let search_ns = spec.search.as_ref().map(|s| {
        time3(|| {
            std::hint::black_box(search_partitions(s, spec.cores, &spec.tasks, exec).ok());
        })
    });
    let grid = &reference.report.grid;
    let render_ns = time3(|| {
        let text = match job.format {
            Format::Json => {
                render_json(&spec.name, 1, None, grid, reference.report.search.as_ref())
            }
            _ => render_csv(grid),
        };
        std::hint::black_box(text);
    });
    ExploreTimes {
        plan_ns,
        search_ns,
        render_ns,
    }
}

/// Everything the traced pass reports.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Names of metrics that do not apply to this workload.
    pub absent: Vec<String>,
}

impl LayerReport {
    /// Adds a metric; `None` marks it absent on this workload.
    pub fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if value.is_none() {
            self.absent.push(name.to_string());
        }
        self.metrics
            .push((name.to_string(), value.unwrap_or(0.0), unit));
    }
}

/// Inputs to the layer analysis beyond the traced jobs themselves.
pub struct Context<'a> {
    /// Every event drained from the shared tracer.
    pub events: &'a [TraceEvent],
    /// In-process references, parallel to the traced jobs.
    pub references: Vec<&'a Reference>,
    /// Counter growth on the traced front door over the window.
    pub counters: crate::drive::Counters,
    /// Jobs submitted to the traced front door.
    pub submissions: u64,
    /// The engine/generator replay.
    pub replay: &'a Replay,
    /// `(p50 traced, p50 untraced)` job time in ms.
    pub p50_pair: (f64, f64),
    /// Open-loop generator lag samples in ms (empty for closed loops).
    pub gen_lag_ms: &'a [f64],
    /// Served body sizes of traced jobs.
    pub result_bytes: &'a [f64],
}

/// Computes every per-layer metric over `jobs`.
pub fn analyse(jobs: &[TracedJob<'_>], ctx: &Context<'_>, exec: &Executor) -> LayerReport {
    let mut by_trace: HashMap<TraceId, Vec<&TraceEvent>> = HashMap::new();
    for e in ctx.events {
        by_trace.entry(e.trace).or_default().push(e);
    }

    let gen_share = ctx.replay.gen_share();
    let mut submit = Vec::new();
    let mut queue = Vec::new();
    let mut run = Vec::new();
    let mut slack = Vec::new();
    let mut ttfb = Vec::new();
    let mut stream = Vec::new();
    let mut exec_wait = Vec::new();
    let mut busy = Vec::new();
    let mut plan = Vec::new();
    let mut search = Vec::new();
    let mut render = Vec::new();
    let mut dispatch_phase = Vec::new();
    let mut rtt = Vec::new();
    let mut compute = Vec::new();
    let mut wire = Vec::new();
    let mut idle_gap = Vec::new();
    let mut merge = Vec::new();
    let mut requeued_events = 0u64;
    let mut unique = 0usize;
    let mut total = 0usize;
    // Per-job self times: bench (generator lag), serve, poll, explore,
    // core, workload, fleet, unattributed, wall.
    let mut split: Vec<[f64; 9]> = Vec::new();

    let empty = Vec::new();
    for (job, reference) in jobs.iter().zip(&ctx.references) {
        let ev = Events::new(by_trace.get(&job.trace).unwrap_or(&empty));
        let (Some(whole), Some(sub), Some(wait), Some(res)) = (
            ev.one("bench.job"),
            ev.one("bench.submit"),
            ev.one("bench.wait"),
            ev.one("bench.results"),
        ) else {
            continue; // not a complete traced job (e.g. it failed)
        };
        let first_byte = ev
            .instants("bench.first_byte")
            .first()
            .map_or(res.1, |e| e.ts_ns);
        submit.push(ms(len(sub)));
        ttfb.push(ms(first_byte.saturating_sub(res.0)));
        stream.push(ms(res.1.saturating_sub(first_byte)));

        let times = explore_times(job.job, reference, exec);
        render.push(ms(times.render_ns));
        let mut serve_self = len(sub) + len((res.0, first_byte)) + len((first_byte, res.1));
        let (mut inner, mut fleet_self, mut explore_self) = (0u64, 0u64, 0u64);

        let poll = match ev.one("serve.job.run").filter(|_| !job.cached) {
            Some(run_span) => {
                let plan_grid = plan_grid(&job.job.spec);
                unique += plan_grid.unique.len();
                total += plan_grid.points.len();
                plan.push(ms(times.plan_ns));
                if let Some(s) = times.search_ns {
                    search.push(ms(s));
                }
                run.push(ms(len(run_span)));
                queue.extend(
                    ev.instants("serve.job.dequeued")
                        .iter()
                        .filter_map(|e| field(e, "queue_wait_ns"))
                        .map(ms),
                );
                // Run time before `submit` returned is already the
                // submit round trip's; cut the run there.
                let run_from = run_span.0.max(sub.1);
                let run_window = (run_from, run_span.1);
                serve_self += run_from.saturating_sub(sub.1);
                let poll = wait.1.saturating_sub(run_span.1.max(sub.1));
                slack.push(ms(poll));

                let points = ev.spans("explore.point");
                if !points.is_empty() {
                    exec_wait.extend(
                        ev.span_field("explore.point", "queue_wait_ns")
                            .into_iter()
                            .map(ms),
                    );
                    let first = points.iter().map(|p| p.0).min().unwrap_or(0);
                    let last = points.iter().map(|p| p.1).max().unwrap_or(0);
                    let work: u64 = points.iter().copied().map(len).sum();
                    busy.push(ratio(
                        work,
                        LOCAL_THREADS as u64 * last.saturating_sub(first),
                    ));
                    inner = union_len(points, run_window);
                }
                let dispatches = ev.spans("fleet.dispatch");
                let workers = ev.spans("worker.point");
                if let (Some(merge_span), false) = (ev.one("fleet.merge"), dispatches.is_empty()) {
                    let first = dispatches.iter().map(|d| d.0).min().unwrap_or(0);
                    let last = dispatches.iter().map(|d| d.1).max().unwrap_or(0);
                    dispatch_phase.push(ms(last.saturating_sub(first)));
                    let phase = (first.max(run_from), merge_span.1);
                    inner = union_len(workers.clone(), phase);
                    fleet_self = len(phase).saturating_sub(inner);
                    let rtt_sum: u64 = dispatches.iter().copied().map(len).sum();
                    let compute_sum: u64 = workers.iter().copied().map(len).sum();
                    wire.push(ms(rtt_sum.saturating_sub(compute_sum)) / dispatches.len() as f64);
                    rtt.extend(dispatches.iter().copied().map(len).map(ms));
                    compute.extend(workers.iter().copied().map(len).map(ms));
                    if let Some(resolved) = ev
                        .instants("fleet.point.resolved")
                        .iter()
                        .map(|e| e.ts_ns)
                        .max()
                    {
                        idle_gap.push(ms(merge_span.0.saturating_sub(resolved)));
                    }
                    merge.push(ms(len(merge_span)));
                    requeued_events += ev.instants("fleet.point.requeued").len() as u64;
                }
                // Explore's own work on this spec, as timed in process,
                // never more than the run left unexplained.
                let explained = inner + fleet_self;
                explore_self = (times.plan_ns + times.search_ns.unwrap_or(0))
                    .min(len(run_window).saturating_sub(explained));
                poll
            }
            None => len(wait),
        };
        let core = inner as f64 * (1.0 - gen_share);
        let workload = inner as f64 * gen_share;
        let wall = (job.lag_ns + len(whole)) as f64;
        let placed =
            (job.lag_ns + serve_self + poll + explore_self + fleet_self) as f64 + core + workload;
        split.push([
            job.lag_ns as f64,
            serve_self as f64,
            poll as f64,
            explore_self as f64,
            core,
            workload,
            fleet_self as f64,
            wall - placed,
            wall,
        ]);
    }

    let mut out = LayerReport::default();
    let some = |v: &[f64]| (!v.is_empty()).then(|| median(v));
    let r = ctx.replay;
    let polls = ratio(ctx.counters.status_polls, ctx.submissions);
    out.put("serve.submit_ms", some(&submit), "ms");
    out.put("serve.queue_ms", some(&queue), "ms");
    out.put("serve.run_ms", some(&run), "ms");
    out.put("serve.poll_slack_ms", some(&slack), "ms");
    out.put(
        "serve.polls_per_job",
        (ctx.submissions > 0).then_some(polls),
        "count",
    );
    out.put("serve.ttfb_ms", some(&ttfb), "ms");
    out.put("serve.stream_ms", some(&stream), "ms");
    out.put("serve.result_bytes", some(ctx.result_bytes), "bytes");
    let submissions = ctx.counters.cache_hits + ctx.counters.cache_misses;
    out.put(
        "serve.cache_hit_ratio",
        (submissions > 0).then(|| ratio(ctx.counters.cache_hits, submissions)),
        "ratio",
    );
    out.put("serve.shed", Some(ctx.counters.shed as f64), "count");
    out.put("explore.plan_ms", some(&plan), "ms");
    out.put(
        "explore.dedup_ratio",
        (total > 0).then(|| ratio(unique as u64, total as u64)),
        "ratio",
    );
    out.put("explore.exec_wait_ms", some(&exec_wait), "ms");
    out.put("explore.exec_busy_frac", some(&busy), "ratio");
    out.put("explore.search_ms", some(&search), "ms");
    out.put("explore.render_ms", some(&render), "ms");
    let per_op = |ns: u64| (r.ops > 0).then(|| ratio(ns, r.ops));
    out.put("engine.ns_per_op", per_op(r.run_ns), "ns/op");
    for (i, stage) in ["arbiter", "llc", "dram", "idle_jump"].iter().enumerate() {
        out.put(
            &format!("engine.stage_ns.{stage}"),
            per_op(r.stage_ns[i]),
            "ns/op",
        );
    }
    out.put(
        "engine.llc_hit_ratio",
        (r.points > 0).then(|| ratio(r.llc_hits, r.llc_hits + r.llc_fills)),
        "ratio",
    );
    out.put(
        "engine.idle_slot_frac",
        (r.points > 0).then(|| ratio(r.idle_slots, r.slots)),
        "ratio",
    );
    out.put(
        "engine.dram_row_hit_ratio",
        (r.points > 0).then(|| ratio(r.row_hits, r.row_accesses)),
        "ratio",
    );
    out.put(
        "engine.blocked_slots",
        (r.points > 0).then_some(r.blocked_slots as f64),
        "count",
    );
    out.put("workload.gen_ns_per_op", per_op(r.gen_ns), "ns/op");
    out.put("fleet.dispatch_ms", some(&dispatch_phase), "ms");
    out.put("fleet.rtt_ms_p50", some(&rtt), "ms");
    out.put("fleet.worker_compute_ms", some(&compute), "ms");
    out.put("fleet.wire_ms", some(&wire), "ms");
    out.put("fleet.idle_gap_ms", some(&idle_gap), "ms");
    out.put("fleet.merge_ms", some(&merge), "ms");
    out.put(
        "fleet.requeued",
        (!dispatch_phase.is_empty()).then_some(ctx.counters.requeued.max(requeued_events) as f64),
        "count",
    );
    out.put(
        "bench.gen_lag_ms_p50",
        (!ctx.gen_lag_ms.is_empty()).then(|| percentile(ctx.gen_lag_ms, 50.0)),
        "ms",
    );
    out.put(
        "bench.gen_lag_ms_max",
        (!ctx.gen_lag_ms.is_empty()).then(|| percentile(ctx.gen_lag_ms, 100.0)),
        "ms",
    );
    let (traced, untraced) = ctx.p50_pair;
    out.put(
        "obs.trace_overhead",
        (traced > 0.0 && untraced > 0.0).then(|| traced / untraced),
        "ratio",
    );
    let column = |i: usize| -> Option<f64> {
        (!split.is_empty()).then(|| mean(&split.iter().map(|s| s[i] / 1e6).collect::<Vec<_>>()))
    };
    let layers = [
        "bench", "serve", "poll", "explore", "core", "workload", "fleet",
    ];
    for (i, layer) in layers.iter().enumerate() {
        let value = column(i).filter(|v| *v > 0.0);
        out.put(&format!("self.{layer}_ms"), value, "ms");
    }
    out.put("unattributed_ms", column(layers.len()), "ms");
    out.put("traced_job_ms", column(layers.len() + 1), "ms");
    out
}
