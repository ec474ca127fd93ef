//! The design-space exploration CLI: run a JSON experiment spec —
//! a grid of partition geometries, sharing modes, TDM schedules, memory
//! backends and workloads — on the work-stealing executor, render
//! CSV/JSON reports with full latency percentiles, and (when the spec
//! declares a taskset and search block) print the minimal partition
//! configuration under which the taskset is schedulable.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p predllc-bench --bin explore -- <spec.json>
//!     [--threads N]          worker threads (default: all cores)
//!     [--format csv|json]    stdout format (default: csv)
//!     [--out PATH]           also write the report to PATH
//!     [--bench-out PATH]     write the JSON benchmark artifact
//!                            (grid + search + wall time) to PATH
//!     [--trace-out PATH]     write the run's structured trace (one
//!                            JSON event per line; explore.point spans
//!                            with queue-wait and compute timings) and
//!                            print the engine runs the grid took
//!     [--attribution]        run with latency attribution on (forces
//!                            the spec's "attribution" knob)
//!     [--attribution-out PATH] write the attribution JSON artifact
//!                            (per-point components, witnesses, gaps);
//!                            implies --attribution
//!     [--quiet | --verbose]  commentary level (stderr only)
//! ```
//!
//! Exit status is non-zero on any spec/simulation failure, on a
//! percentile-consistency violation (every grid point's p100 must equal
//! its observed WCL — the histogram's exactness contract), and — with
//! attribution on — on an attribution-consistency violation: every
//! point's witness components must sum exactly to the observed WCL, and
//! the analytical bound, when one applies, must not be exceeded
//! (gap >= 0).

use std::process::ExitCode;
use std::time::Instant;

use predllc_bench::{error, status};
use predllc_explore::report::{render_attribution_json, render_csv, render_json, render_search};
use predllc_explore::{run_spec_traced, Executor, ExperimentSpec};
use predllc_obs::{render_jsonl, EventKind, FieldValue, TraceCtx, TraceId, Tracer};

fn main() -> ExitCode {
    match run(predllc_bench::log::init(std::env::args().skip(1).collect())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            error!("explore: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut spec_path = None;
    let mut threads = 0usize;
    let mut format = "csv".to_string();
    let mut out_path: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut attribution = false;
    let mut attribution_out: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads needs a number")?;
            }
            "--format" => {
                format = it.next().ok_or("--format needs csv or json")?;
                if format != "csv" && format != "json" {
                    return Err(format!("unknown format '{format}' (csv or json)"));
                }
            }
            "--out" => out_path = Some(it.next().ok_or("--out needs a path")?),
            "--bench-out" => bench_out = Some(it.next().ok_or("--bench-out needs a path")?),
            "--trace-out" => trace_out = Some(it.next().ok_or("--trace-out needs a path")?),
            "--attribution" => attribution = true,
            "--attribution-out" => {
                attribution_out = Some(it.next().ok_or("--attribution-out needs a path")?);
            }
            other if spec_path.is_none() && !other.starts_with("--") => {
                spec_path = Some(other.to_string());
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let spec_path = spec_path.ok_or("usage: explore <spec.json> [--threads N] [--format csv|json] [--out PATH] [--bench-out PATH]")?;

    let text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let mut spec = ExperimentSpec::parse(&text).map_err(|e| e.to_string())?;
    if attribution || attribution_out.is_some() {
        spec.attribution = true;
    }
    let exec = Executor::new(threads);
    status!(
        "explore: '{}' — {} grid point(s) on {} thread(s)",
        spec.name,
        spec.grid_len(),
        exec.threads()
    );

    // Tracing only reads the clock: the report is bit-identical with
    // or without --trace-out.
    let tracer = trace_out.as_ref().map(|_| Tracer::new());
    let trace = TraceId::fresh();
    let ctx = tracer.as_ref().map(|t| TraceCtx::new(t, trace));
    let started = Instant::now();
    let report = run_spec_traced(&spec, &exec, &|_, _| {}, ctx).map_err(|e| e.to_string())?;
    let wall_ms = started.elapsed().as_millis() as u64;

    // The histogram exactness contract: every grid point's 100th
    // percentile (from the histogram) equals its observed WCL (from the
    // scalar counters), bit for bit, and percentiles are ordered.
    let violations: Vec<String> = report
        .grid
        .iter()
        .filter(|r| r.p100 != r.observed_wcl || r.p50 > r.p90 || r.p90 > r.p99 || r.p99 > r.p100)
        .map(|r| format!("{} x {}", r.config, r.workload))
        .collect();
    if !violations.is_empty() {
        return Err(format!(
            "percentile consistency violated at: {}",
            violations.join(", ")
        ));
    }

    // The attribution exactness contract: every attributed point's
    // witness components sum to its latency, the witness IS the
    // observed WCL, and any applicable analytical bound holds
    // (gap >= 0 — a negative gap means the paper's bound was exceeded).
    if spec.attribution {
        let broken: Vec<String> = report
            .grid
            .iter()
            .filter_map(|r| {
                let at = format!("{} x {}", r.config, r.workload);
                let Some(attr) = &r.attribution else {
                    return Some(format!("{at}: attributed run carries no attribution"));
                };
                match &attr.witness {
                    Some(w) => {
                        if w.components.total() != w.latency {
                            return Some(format!("{at}: witness components miss its latency"));
                        }
                        if w.latency.as_u64() != r.observed_wcl {
                            return Some(format!("{at}: witness is not the observed WCL"));
                        }
                    }
                    None if r.requests > 0 => {
                        return Some(format!("{at}: completed requests but no witness"));
                    }
                    None => {}
                }
                match &attr.gap {
                    Some(gap) if gap.gap() < 0 => Some(format!(
                        "{at}: observed WCL {} exceeds the analytical bound {}",
                        gap.observed_wcl, gap.analytical_wcl
                    )),
                    _ => None,
                }
            })
            .collect();
        if !broken.is_empty() {
            return Err(format!(
                "attribution consistency violated: {}",
                broken.join("; ")
            ));
        }
    }

    // Render JSON once, whether it goes to stdout, --out or
    // --bench-out.
    let json = if format == "json" || bench_out.is_some() {
        Some(render_json(
            &spec.name,
            exec.threads(),
            Some(wall_ms),
            &report.grid,
            report.search.as_ref(),
        ))
    } else {
        None
    };
    let rendered = match format.as_str() {
        "json" => json.clone().expect("rendered above"),
        _ => render_csv(&report.grid),
    };
    predllc_bench::log::write_data(&rendered);
    if let Some(path) = &out_path {
        std::fs::write(path, &rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &bench_out {
        let artifact = json.as_ref().expect("rendered above");
        std::fs::write(path, artifact).map_err(|e| format!("cannot write {path}: {e}"))?;
        status!("explore: benchmark artifact written to {path}");
    }
    if let Some(path) = &attribution_out {
        let artifact = render_attribution_json(&spec.name, &report.grid);
        std::fs::write(path, artifact).map_err(|e| format!("cannot write {path}: {e}"))?;
        status!("explore: attribution artifact written to {path}");
    }
    if let (Some(path), Some(t)) = (&trace_out, &tracer) {
        let events = t.drain();
        std::fs::write(path, render_jsonl(&events))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        status!(
            "explore: trace {} written to {path} ({} event(s))",
            trace.to_hex(),
            events.len()
        );
        // One `explore.point` span per run group, each naming the
        // engine runs it took.
        let groups: Vec<u64> = events
            .iter()
            .filter(|e| e.name == "explore.point" && e.kind == EventKind::End)
            .map(|e| {
                e.fields
                    .iter()
                    .find_map(|(k, v)| match v {
                        FieldValue::U64(n) if k == "runs" => Some(*n),
                        _ => None,
                    })
                    .unwrap_or(0)
            })
            .collect();
        status!(
            "explore: {} engine run(s) in {} group(s) for {} point(s)",
            groups.iter().sum::<u64>(),
            groups.len(),
            report.unique_points
        );
    }

    if let Some(outcome) = &report.search {
        if predllc_bench::log::enabled(predllc_bench::log::Level::Normal) {
            eprint!("{}", render_search(outcome));
        }
    }
    status!(
        "explore: {} point(s) in {wall_ms} ms, all percentiles consistent{}",
        report.grid.len(),
        if spec.attribution {
            ", every witness sums to its WCL"
        } else {
            ""
        }
    );
    Ok(())
}
