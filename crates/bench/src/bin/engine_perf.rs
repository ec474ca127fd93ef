//! Engine throughput benchmark and perf-regression gate.
//!
//! Runs a fixed set of workloads through **both** simulation engines —
//! the slot-by-slot reference loop and the fast-forward loop — verifies
//! their [`predllc_core::SimStats`] are byte-for-byte identical, and
//! reports ops/sec plus the fast/reference speedup. The headline
//! workload is the multi-tenant LLC-hit grid (`llc-hit-256t`): 256
//! tenants behind `predllc-serve` style consolidation, 1M operations
//! total, ~97% LLC hits — the regime in which the reference engine's
//! `O(cores)` work per bus slot dominates and fast-forward's
//! `O(log cores)` calendar pays off. `llc-miss-4c` covers the other
//! regime, the one the paper's shared-partition sweeps live in: almost
//! every op misses into a shared partition and costs a full LLC slot
//! transaction with an eviction.
//!
//! ```text
//! engine_perf [--quick] [--out BENCH_engine.json]
//!             [--gate baseline.json] [--tolerance 0.20]
//! ```
//!
//! With `--gate`, each workload's fast-engine ops/sec and speedup are
//! compared against the checked-in baseline: a drop of more than
//! `tolerance` (default 20%) on a gated metric fails the run with a
//! non-zero exit, printing every per-workload delta either way — the
//! CI perf job runs exactly this against
//! `crates/bench/baselines/BENCH_engine_baseline.json`. The baseline
//! decides what gates: a `"gate_metrics": ["speedup"]` entry gates only
//! the same-machine fast/reference ratio (portable across runner
//! hardware) and keeps absolute ops/sec informational, while
//! `"gated": false` makes a whole workload informational.
//!
//! Two always-on overhead checks ride along under the same tolerance:
//! `obs_overhead` (a sampled [`EngineProfile`] must neither perturb nor
//! slow the fast engine) and `attribution_overhead` (running with
//! latency attribution on must keep the outputs bit-identical, sum its
//! components exactly, and stay within tolerance of the plain run).

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use predllc_bench::{data, error, status};
use predllc_core::config::EngineMode;
use predllc_core::EngineProfile;
use predllc_core::{PartitionSpec, SharingMode, Simulator, SystemConfig};
use predllc_explore::json::{parse, Json};
use predllc_model::{CacheGeometry, CoreId};
use predllc_workload::gen::{HotColdGen, PointerChaseGen, StrideGen};
use predllc_workload::MultiCore;

/// One benchmarked workload: a name, a config family and a workload.
struct Scenario {
    name: &'static str,
    config: Box<dyn Fn(EngineMode) -> SystemConfig>,
    workload: MultiCore,
    /// Total operations across all cores (for ops/sec).
    total_ops: u64,
}

/// Measured result of one scenario.
struct Outcome {
    name: &'static str,
    total_ops: u64,
    ref_mops: f64,
    fast_mops: f64,
    speedup: f64,
}

/// The 4-core private-hit-heavy workload: 98% of accesses in a hot set
/// sized to the private L1/L2, so almost every op is a private hit.
fn private_hit_scenario(ops_per_core: usize) -> Scenario {
    let cores = 4u16;
    let mut wl = MultiCore::new();
    for i in 0..cores {
        let mut g = HotColdGen::new(u64::from(i) * (1 << 20), 64 * 160, ops_per_core)
            .with_seed(7 + u64::from(i));
        g.hot_probability = 0.98;
        wl = wl.core(g);
    }
    Scenario {
        name: "private-hit-4c",
        config: Box::new(move |mode| {
            SystemConfig::builder(cores)
                .partitions(
                    CoreId::first(cores)
                        .map(|c| PartitionSpec::private(16, 8, c))
                        .collect(),
                )
                .engine(mode)
                .build()
                .expect("valid benchmark configuration")
        }),
        workload: wl,
        total_ops: ops_per_core as u64 * u64::from(cores),
    }
}

/// The N-tenant LLC-hit-heavy workload: every op misses the private L2
/// (a stride over 128 lines against a 64-line L2) and, after the first
/// lap, hits the tenant's 128-line LLC partition — the steady state is
/// one LLC-hit slot per tenant per TDM period.
fn llc_hit_scenario(tenants: u16, total_ops: usize) -> Scenario {
    let per_core = total_ops / tenants as usize;
    let mut wl = MultiCore::new();
    for i in 0..tenants {
        wl = wl.core(StrideGen::new(u64::from(i) << 20, 64 * 128, per_core));
    }
    let name: &'static str = match tenants {
        64 => "llc-hit-64t",
        256 => "llc-hit-256t",
        _ => "llc-hit",
    };
    Scenario {
        name,
        config: Box::new(move |mode| {
            SystemConfig::builder(tenants)
                .physical_llc(
                    CacheGeometry::new(8 * u32::from(tenants), 16, 64)
                        .expect("valid benchmark LLC geometry"),
                )
                .partitions(
                    CoreId::first(tenants)
                        .map(|c| PartitionSpec::private(8, 16, c))
                        .collect(),
                )
                .engine(mode)
                .build()
                .expect("valid benchmark configuration")
        }),
        workload: wl,
        total_ops: per_core as u64 * u64::from(tenants),
    }
}

/// The 4-core LLC-miss workload: four cores sharing `SS(32,16,4)` (the
/// e2e benchmark's `ss-fixed` configuration), each chasing pointers over
/// its own 128 KiB — 4× the whole partition — so nearly every op misses
/// the private L2, misses the LLC and evicts: one full slot transaction
/// per op.
fn llc_miss_scenario(ops_per_core: usize) -> Scenario {
    let cores = 4u16;
    let mut wl = MultiCore::new();
    for i in 0..cores {
        wl = wl.core(
            PointerChaseGen::new(u64::from(i) << 20, 128 << 10, ops_per_core)
                .with_seed(11 + u64::from(i)),
        );
    }
    Scenario {
        name: "llc-miss-4c",
        config: Box::new(move |mode| {
            SystemConfig::builder(cores)
                .partitions(vec![PartitionSpec::shared(
                    32,
                    16,
                    CoreId::first(cores).collect(),
                    SharingMode::SetSequencer,
                )])
                .engine(mode)
                .build()
                .expect("valid benchmark configuration")
        }),
        workload: wl,
        total_ops: ops_per_core as u64 * u64::from(cores),
    }
}

/// Runs one engine mode over a scenario, returning the best ops/sec of
/// `iters` timed runs (first run warms caches and the page allocator)
/// and the final report for the equality check.
fn time_mode(s: &Scenario, mode: EngineMode, iters: usize) -> (f64, predllc_core::RunReport) {
    let sim = Simulator::new((s.config)(mode)).expect("valid benchmark configuration");
    let mut best = 0.0f64;
    let mut report = None;
    for _ in 0..=iters {
        let t0 = Instant::now();
        let r = sim.run(&s.workload).expect("benchmark workload completes");
        let dt = t0.elapsed().as_secs_f64();
        if report.is_some() {
            // First run is the warm-up.
            best = best.max(s.total_ops as f64 / dt);
        }
        report = Some(r);
    }
    (best / 1e6, report.expect("at least one run"))
}

fn run_scenario(s: &Scenario, iters: usize) -> Outcome {
    let (ref_mops, ref_report) = time_mode(s, EngineMode::Reference, iters);
    let (fast_mops, fast_report) = time_mode(s, EngineMode::FastForward, iters);
    assert_eq!(
        ref_report.stats, fast_report.stats,
        "{}: fast-forward diverged from the reference engine",
        s.name
    );
    assert_eq!(ref_report.timed_out, fast_report.timed_out);
    assert_eq!(ref_report.cycles, fast_report.cycles);
    Outcome {
        name: s.name,
        total_ops: s.total_ops,
        ref_mops,
        fast_mops,
        speedup: fast_mops / ref_mops,
    }
}

fn render_json(outcomes: &[Outcome], headline: &str) -> String {
    let workloads = outcomes
        .iter()
        .map(|o| {
            Json::Object(vec![
                ("name".into(), Json::Str(o.name.into())),
                ("total_ops".into(), Json::UInt(o.total_ops)),
                ("ref_mops".into(), Json::Float(round3(o.ref_mops))),
                ("fast_mops".into(), Json::Float(round3(o.fast_mops))),
                ("speedup".into(), Json::Float(round3(o.speedup))),
            ])
        })
        .collect();
    Json::Object(vec![
        ("benchmark".into(), Json::Str("engine_perf".into())),
        ("headline".into(), Json::Str(headline.into())),
        ("workloads".into(), Json::Array(workloads)),
    ])
    .render_pretty()
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Compares measured outcomes against a baseline JSON; returns the gate
/// report and whether every workload passed.
fn gate(outcomes: &[Outcome], baseline: &Json, tolerance: f64) -> (String, bool) {
    let mut report = String::new();
    let mut ok = true;
    let Some(entries) = baseline.get("workloads").and_then(Json::as_array) else {
        return ("baseline has no 'workloads' array\n".into(), false);
    };
    for entry in entries {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(measured) = outcomes.iter().find(|o| o.name == name) else {
            let _ = writeln!(report, "{name}: missing from this run — FAIL");
            ok = false;
            continue;
        };
        // A baseline entry can opt out of gating (informational only):
        // the private-hit workload's speedup is ~1.0 by design (its cost
        // is per-op cache simulation both engines share), so its ratio
        // is noise-bound and not a meaningful regression signal.
        if entry.get("gated").and_then(Json::as_bool) == Some(false) {
            let _ = writeln!(
                report,
                "{name}: informational (gated: false) — fast {:.3} Mops/s, speedup {:.3}x",
                measured.fast_mops, measured.speedup
            );
            continue;
        }
        // An entry can also restrict which metrics gate: the checked-in
        // CI baseline gates only `speedup` (a same-machine ratio, so it
        // is portable across runner hardware) and keeps the absolute
        // ops/sec informational — a baseline recorded on one machine
        // says nothing about another machine's absolute throughput.
        let gate_metrics: Option<Vec<&str>> = entry
            .get("gate_metrics")
            .and_then(Json::as_array)
            .map(|m| m.iter().filter_map(Json::as_str).collect());
        for (metric, base, now) in [
            (
                "fast_mops",
                entry.get("fast_mops").and_then(Json::as_f64),
                measured.fast_mops,
            ),
            (
                "speedup",
                entry.get("speedup").and_then(Json::as_f64),
                measured.speedup,
            ),
        ] {
            let Some(base) = base else {
                let _ = writeln!(report, "{name}.{metric}: missing in baseline — FAIL");
                ok = false;
                continue;
            };
            let gated_metric = gate_metrics.as_ref().is_none_or(|m| m.contains(&metric));
            let delta = (now - base) / base;
            let verdict = if !gated_metric {
                "info (not gated)"
            } else if delta < -tolerance {
                ok = false;
                "FAIL (regression)"
            } else {
                "ok"
            };
            let _ = writeln!(
                report,
                "{name}.{metric}: baseline {base:.3}, measured {now:.3}, delta {:+.1}% — {verdict}",
                delta * 100.0
            );
        }
    }
    // The gate is two-directional: a measured workload the baseline does
    // not know about means the baseline is stale (renamed or newly added
    // scenario) and would otherwise escape gating entirely.
    for o in outcomes {
        let known = entries
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some(o.name));
        if !known {
            let _ = writeln!(
                report,
                "{}: not in the baseline — FAIL (add it to the baseline file)",
                o.name
            );
            ok = false;
        }
    }
    (report, ok)
}

/// The `obs_overhead` check: the same fast-forward workload timed
/// three ways — plain `run` (no profile: the single untaken branch),
/// and `run_profiled` with a sampled [`EngineProfile`] attached. The
/// profiled run must (a) produce bit-identical stats, (b) actually
/// record stage samples, and (c) stay within `tolerance` of the plain
/// run's throughput. Returns whether the check passed.
fn obs_overhead_check(total_ops: usize, iters: usize, tolerance: f64) -> bool {
    let s = llc_hit_scenario(64, total_ops);
    let sim =
        Simulator::new((s.config)(EngineMode::FastForward)).expect("valid benchmark configuration");
    let mut plain_best = 0.0f64;
    let mut profiled_best = 0.0f64;
    let mut plain_report = None;
    let mut profiled_report = None;
    let profile = EngineProfile::new(1024);
    // Interleave the two variants so frequency scaling and cache state
    // bias neither side; first pair is the warm-up.
    for warm in 0..=iters {
        let t0 = Instant::now();
        let r = sim.run(&s.workload).expect("benchmark workload completes");
        let plain_dt = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let rp = sim
            .run_profiled(&s.workload, Some(&profile))
            .expect("benchmark workload completes");
        let profiled_dt = t1.elapsed().as_secs_f64();
        if warm > 0 {
            plain_best = plain_best.max(s.total_ops as f64 / plain_dt);
            profiled_best = profiled_best.max(s.total_ops as f64 / profiled_dt);
        }
        plain_report = Some(r);
        profiled_report = Some(rp);
    }
    let plain = plain_report.expect("at least one run");
    let profiled = profiled_report.expect("at least one run");
    if plain.stats != profiled.stats || plain.cycles != profiled.cycles {
        error!("obs_overhead: a profiled run diverged from the plain run");
        return false;
    }
    if profile.samples() == 0 {
        error!("obs_overhead: the attached profile recorded no stage samples");
        return false;
    }
    let overhead = 1.0 - profiled_best / plain_best;
    data!(
        "obs_overhead: plain {:.2} Mops/s, profiled {:.2} Mops/s, overhead {:+.1}% \
         ({} stage samples, stats bit-identical)",
        plain_best / 1e6,
        profiled_best / 1e6,
        overhead * 100.0,
        profile.samples()
    );
    if overhead > tolerance {
        error!(
            "obs_overhead FAILED: sampled profiling costs {:.1}% (> {:.0}% tolerance)",
            overhead * 100.0,
            tolerance * 100.0
        );
        return false;
    }
    true
}

/// The `attribution_overhead` check: the same fast-forward workload
/// timed with latency attribution off and on. The attributed run must
/// (a) produce bit-identical stats and cycles (attribution only
/// reads), (b) actually attribute — the component totals sum exactly
/// to the recorded request latencies and a worst-case witness exists —
/// and (c) stay within `tolerance` of the plain run's throughput.
/// Returns whether the check passed.
fn attribution_overhead_check(total_ops: usize, iters: usize, tolerance: f64) -> bool {
    let s = llc_hit_scenario(64, total_ops);
    let off =
        Simulator::new((s.config)(EngineMode::FastForward)).expect("valid benchmark configuration");
    let on = Simulator::new((s.config)(EngineMode::FastForward).with_attribution(true))
        .expect("valid benchmark configuration");
    let mut off_best = 0.0f64;
    let mut on_best = 0.0f64;
    let mut off_report = None;
    let mut on_report = None;
    // Interleave the two variants so frequency scaling and cache state
    // bias neither side; first pair is the warm-up.
    for warm in 0..=iters {
        let t0 = Instant::now();
        let r = off.run(&s.workload).expect("benchmark workload completes");
        let off_dt = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let ra = on.run(&s.workload).expect("benchmark workload completes");
        let on_dt = t1.elapsed().as_secs_f64();
        if warm > 0 {
            off_best = off_best.max(s.total_ops as f64 / off_dt);
            on_best = on_best.max(s.total_ops as f64 / on_dt);
        }
        off_report = Some(r);
        on_report = Some(ra);
    }
    let plain = off_report.expect("at least one run");
    let attributed = on_report.expect("at least one run");
    if plain.stats != attributed.stats || plain.cycles != attributed.cycles {
        error!("attribution_overhead: an attributed run diverged from the plain run");
        return false;
    }
    let Some(attr) = attributed.attribution() else {
        error!("attribution_overhead: the attributed run produced no report");
        return false;
    };
    if attr.total_components().total() != attributed.latency_histogram().total() {
        error!("attribution_overhead: the component totals miss the recorded latencies");
        return false;
    }
    if attr.witness().is_none() {
        error!("attribution_overhead: the attributed run produced no worst-case witness");
        return false;
    }
    let overhead = 1.0 - on_best / off_best;
    data!(
        "attribution_overhead: off {:.2} Mops/s, on {:.2} Mops/s, overhead {:+.1}% \
         (stats bit-identical, component sums exact)",
        off_best / 1e6,
        on_best / 1e6,
        overhead * 100.0
    );
    if overhead > tolerance {
        error!(
            "attribution_overhead FAILED: attribution costs {:.1}% (> {:.0}% tolerance)",
            overhead * 100.0,
            tolerance * 100.0
        );
        return false;
    }
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = predllc_bench::log::init(std::env::args().skip(1).collect());
    let mut quick = false;
    let mut out = String::from("BENCH_engine.json");
    let mut gate_path: Option<String> = None;
    let mut tolerance = 0.20f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = it.next().expect("--out needs a path").clone(),
            "--gate" => gate_path = Some(it.next().expect("--gate needs a path").clone()),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .expect("--tolerance needs a value")
                    .parse()
                    .expect("tolerance is a fraction, e.g. 0.2")
            }
            other => {
                error!("unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }

    let (hot_ops, llc_ops, miss_ops, iters) = if quick {
        (20_000, 64 * 500, 5_000, 1)
    } else {
        (1_000_000, 1_000_000, 100_000, 2)
    };
    let scenarios = vec![
        private_hit_scenario(hot_ops),
        llc_hit_scenario(64, llc_ops),
        llc_hit_scenario(256, llc_ops),
        llc_miss_scenario(miss_ops),
    ];

    let mut outcomes = Vec::new();
    for s in &scenarios {
        let o = run_scenario(s, iters);
        data!(
            "{}: reference {:.2} Mops/s, fast-forward {:.2} Mops/s, speedup {:.2}x \
             ({} ops, stats bit-identical)",
            o.name,
            o.ref_mops,
            o.fast_mops,
            o.speedup,
            o.total_ops
        );
        outcomes.push(o);
    }

    // Every check runs and prints its verdict, and the artifact is
    // written, before a failure decides the exit code.
    let overhead_ops = if quick { 64 * 500 } else { 500_000 };
    // The observability-overhead check: attaching a sampled profile to
    // the fast engine must neither change the simulation nor cost more
    // than the gate tolerance, and a run without one must stay on the
    // single-branch hot path.
    let obs_ok = obs_overhead_check(overhead_ops, iters, tolerance);
    // The attribution-overhead check: running with latency attribution
    // on must neither change the simulation nor cost more than the
    // gate tolerance.
    let attribution_ok = attribution_overhead_check(overhead_ops, iters, tolerance);
    let mut ok = obs_ok && attribution_ok;

    let json = render_json(&outcomes, "llc-hit-256t");
    match std::fs::write(&out, &json) {
        Ok(()) => status!("wrote {out}"),
        Err(e) => {
            error!("cannot write {out}: {e}");
            ok = false;
        }
    }

    if let Some(path) = gate_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                error!("cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match parse(&text) {
            Ok(j) => j,
            Err(e) => {
                error!("baseline {path} is not valid json: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (report, gate_ok) = gate(&outcomes, &baseline, tolerance);
        predllc_bench::log::write_data(&report);
        if gate_ok {
            data!("perf gate passed (tolerance {:.0}%)", tolerance * 100.0);
        } else {
            error!(
                "perf gate FAILED: a metric regressed more than {:.0}% below \
                 the checked-in baseline",
                tolerance * 100.0
            );
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
