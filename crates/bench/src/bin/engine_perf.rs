//! Engine throughput benchmark and perf-regression gate.
//!
//! Runs a fixed set of workloads through **both** simulation engines —
//! the slot-by-slot reference loop and the fast-forward loop — verifies
//! their [`predllc_core::SimStats`] are byte-for-byte identical, and
//! reports ops/sec plus the fast/reference speedup. The headline
//! workload is the multi-tenant LLC-hit grid (`llc-hit-256t`): 256
//! tenants behind `predllc-serve` style consolidation, 1M operations
//! total, ~97% LLC hits — the regime in which the reference engine's
//! `O(cores)` work per bus slot dominates and fast-forward's walk over
//! the TDM schedule, `O(1)` per transaction on a busy bus, pays off.
//! `llc-miss-4c` covers the other regime, the one the paper's
//! shared-partition sweeps live in: almost every op misses into a
//! shared partition and costs a full LLC slot transaction with an
//! eviction. `paper-grid` is the whole grid a shared-sweep job of the
//! end-to-end benchmark simulates (informational): its ns/op for both
//! engines and, from one sampled pass of the fast engine, the per-stage
//! split, the share of that pass's wall time the stages cover, and the
//! remainder as its own number.
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
//! Both are ratios to a plain run of the same binary, so a change that
//! speeds up the plain path raises them even when the observer's own
//! cost is unchanged.
//!
//! Every timing goes through one trial runner, which rotates the
//! starting variant every round and writes every sample to the JSON
//! artifact; a metric is judged on its best sample.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use predllc_bench::{data, error, status};
use predllc_core::config::EngineMode;
use predllc_core::EngineProfile;
use predllc_core::{PartitionSpec, RunReport, SharingMode, Simulator, SystemConfig};
use predllc_dram::MemoryConfig;
use predllc_explore::json::{parse, Json};
use predllc_model::{CacheGeometry, CoreId};
use predllc_workload::gen::{HotColdGen, PointerChaseGen, StrideGen};
use predllc_workload::{MultiCore, Workload, WorkloadSpec};

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
    ref_samples: Vec<f64>,
    fast_samples: Vec<f64>,
    /// The fast engine's sampled stage time per op (the paper grid
    /// only).
    stages: Vec<(&'static str, f64)>,
    /// The paper grid's profiled pass: the share of its wall time the
    /// stages account for, and the rest in ns per op.
    coverage: Option<(f64, f64)>,
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

/// The paper's grid, shaped like a shared-sweep job of the end-to-end
/// benchmark (`e2ebench/src/specs.rs::shared_sweep`): SS(32,16) and
/// NSS(32,16) shared by all four cores and P(32,4) per core, each on
/// fixed and on banked-interleaved DRAM, over six working sets of 4 to
/// 128 KiB per core (uniform, hot/cold and pointer-chase in turn). As the
/// grid runner does, the two DRAM variants of a platform share one
/// engine run with the banked backend as a twin: 18 runs for 36 points.
struct PaperGrid {
    platforms: Vec<Box<dyn Fn(EngineMode) -> SystemConfig>>,
    workloads: Vec<Box<dyn Workload>>,
    /// Operations per engine run, summed over the runs.
    total_ops: u64,
}

fn paper_grid(ops_per_core: usize) -> PaperGrid {
    let cores = 4u16;
    let shared = |mode| {
        move |engine| {
            SystemConfig::builder(cores)
                .partitions(vec![PartitionSpec::shared(
                    32,
                    16,
                    CoreId::first(cores).collect(),
                    mode,
                )])
                .engine(engine)
                .build()
                .expect("valid benchmark configuration")
        }
    };
    let private = move |engine| {
        SystemConfig::builder(cores)
            .partitions(
                CoreId::first(cores)
                    .map(|c| PartitionSpec::private(32, 4, c))
                    .collect(),
            )
            .engine(engine)
            .build()
            .expect("valid benchmark configuration")
    };
    let platforms: Vec<Box<dyn Fn(EngineMode) -> SystemConfig>> = vec![
        Box::new(shared(SharingMode::SetSequencer)),
        Box::new(shared(SharingMode::BestEffort)),
        Box::new(private),
    ];
    let workloads: Vec<Box<dyn Workload>> = (0..6u64)
        .map(|i| {
            let (range_bytes, ops, seed) = ((4 << 10) << i, ops_per_core, 0x9a9e_7000 + i);
            let spec = match i % 3 {
                0 => WorkloadSpec::Uniform {
                    range_bytes,
                    ops,
                    seed,
                    write_fraction: 0.2,
                },
                1 => WorkloadSpec::HotCold {
                    range_bytes,
                    ops,
                    seed,
                    hot_fraction: 0.25,
                    hot_probability: 0.9,
                },
                _ => WorkloadSpec::PointerChase {
                    range_bytes,
                    ops,
                    seed,
                },
            };
            spec.build(cores)
        })
        .collect();
    let total_ops = (platforms.len() * workloads.len() * ops_per_core) as u64 * u64::from(cores);
    PaperGrid {
        platforms,
        workloads,
        total_ops,
    }
}

/// Times the paper grid on both engines through the trial runner (each
/// sample is one pass over the 18 runs), then splits the fast engine's
/// time by stage from one sampled pass without the twin, and sets the
/// sampled stages against that pass's wall time.
fn run_paper_grid(grid: &PaperGrid, iters: usize) -> Outcome {
    const SAMPLE_EVERY: u64 = 64;
    let twins = [MemoryConfig::banked()];
    let sims = [EngineMode::Reference, EngineMode::FastForward].map(|mode| {
        grid.platforms
            .iter()
            .map(|platform| Simulator::new(platform(mode)).expect("valid benchmark configuration"))
            .collect::<Vec<_>>()
    });
    let pass = |sims: &[Simulator]| {
        let mut stats = Vec::new();
        for sim in sims {
            for workload in &grid.workloads {
                let (report, twin_stats) = sim
                    .run_with_twins(workload, &twins)
                    .expect("benchmark workload completes");
                stats.push((report.stats, twin_stats));
            }
        }
        stats
    };
    let ([ref_samples, fast_samples], [reference, fast]) = trials(
        grid.total_ops,
        iters,
        [&|| pass(&sims[0]), &|| pass(&sims[1])],
    );
    assert!(
        reference == fast,
        "paper-grid: fast-forward diverged from the reference engine"
    );
    let profile = EngineProfile::new(SAMPLE_EVERY);
    let started = Instant::now();
    for sim in &sims[1] {
        for workload in &grid.workloads {
            sim.run_profiled(workload, Some(&profile))
                .expect("benchmark workload completes");
        }
    }
    let wall_ns = started.elapsed().as_nanos() as f64;
    let ops = grid.total_ops as f64;
    let stages: Vec<(&'static str, f64)> = profile
        .stages()
        .into_iter()
        .map(|(stage, h)| (stage, (h.snapshot().sum * SAMPLE_EVERY) as f64 / ops))
        .collect();
    let staged_ns = stages.iter().map(|&(_, ns)| ns).sum::<f64>() * ops;
    let (ref_mops, fast_mops) = (best(&ref_samples), best(&fast_samples));
    Outcome {
        name: "paper-grid",
        total_ops: grid.total_ops,
        ref_mops,
        fast_mops,
        speedup: fast_mops / ref_mops,
        ref_samples,
        fast_samples,
        stages,
        coverage: Some((staged_ns / wall_ns, (wall_ns - staged_ns) / ops)),
    }
}

/// The trial runner: runs every variant once to warm caches and the
/// page allocator, then times `iters` rounds, each starting one variant
/// later than the last (AB, BA, …). Returns every variant's timed
/// samples in Mops/s over `total_ops` and its last result, for the
/// equality checks.
fn trials<const N: usize, R>(
    total_ops: u64,
    iters: usize,
    variants: [&dyn Fn() -> R; N],
) -> ([Vec<f64>; N], [R; N]) {
    let mut results = variants.map(|run| run());
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(iters));
    for round in 0..iters {
        for k in 0..N {
            let v = (round + k) % N;
            let t0 = Instant::now();
            let result = variants[v]();
            samples[v].push(total_ops as f64 / t0.elapsed().as_secs_f64() / 1e6);
            results[v] = result;
        }
    }
    (samples, results)
}

/// One run of `s`'s workload on `sim`, with a profile if given.
fn run(s: &Scenario, sim: &Simulator, profile: Option<&EngineProfile>) -> RunReport {
    sim.run_profiled(&s.workload, profile)
        .expect("benchmark workload completes")
}

/// The estimator every metric is judged on: the best sample.
fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

fn run_scenario(s: &Scenario, iters: usize) -> Outcome {
    let sim = |mode| Simulator::new((s.config)(mode)).expect("valid benchmark configuration");
    let (reference, fast) = (sim(EngineMode::Reference), sim(EngineMode::FastForward));
    let ([ref_samples, fast_samples], [ref_report, fast_report]) = trials(
        s.total_ops,
        iters,
        [&|| run(s, &reference, None), &|| run(s, &fast, None)],
    );
    assert_eq!(
        ref_report.stats, fast_report.stats,
        "{}: fast-forward diverged from the reference engine",
        s.name
    );
    assert_eq!(ref_report.timed_out, fast_report.timed_out);
    assert_eq!(ref_report.cycles, fast_report.cycles);
    let (ref_mops, fast_mops) = (best(&ref_samples), best(&fast_samples));
    Outcome {
        name: s.name,
        total_ops: s.total_ops,
        ref_mops,
        fast_mops,
        speedup: fast_mops / ref_mops,
        ref_samples,
        fast_samples,
        stages: Vec::new(),
        coverage: None,
    }
}

fn render_json(outcomes: &[Outcome], overheads: Vec<Json>, headline: &str) -> String {
    let workloads = outcomes
        .iter()
        .map(|o| {
            let mut members = vec![
                ("name".into(), Json::Str(o.name.into())),
                ("total_ops".into(), Json::UInt(o.total_ops)),
                ("ref_mops".into(), Json::Float(round3(o.ref_mops))),
                ("fast_mops".into(), Json::Float(round3(o.fast_mops))),
                ("speedup".into(), Json::Float(round3(o.speedup))),
                ("ref_mops_samples".into(), samples_json(&o.ref_samples)),
                ("fast_mops_samples".into(), samples_json(&o.fast_samples)),
            ];
            if !o.stages.is_empty() {
                let split = o.stages.iter();
                let split = split.map(|&(stage, ns)| (stage.into(), Json::Float(round3(ns))));
                members.push(("fast_stage_ns_per_op".into(), Json::Object(split.collect())));
            }
            if let Some((coverage, rest)) = o.coverage {
                members.push(("fast_stage_coverage".into(), Json::Float(round3(coverage))));
                members.push(("fast_remainder_ns_per_op".into(), Json::Float(round3(rest))));
            }
            Json::Object(members)
        })
        .collect();
    Json::Object(vec![
        ("benchmark".into(), Json::Str("engine_perf".into())),
        ("headline".into(), Json::Str(headline.into())),
        ("workloads".into(), Json::Array(workloads)),
        ("overhead_checks".into(), Json::Array(overheads)),
    ])
    .render_pretty()
}

fn samples_json(samples: &[f64]) -> Json {
    Json::Array(samples.iter().map(|&v| Json::Float(round3(v))).collect())
}

/// An overhead check's entry in `BENCH_engine.json`: every timed
/// sample of its plain (`off`) and instrumented (`on`) runs.
fn overhead_json(name: &str, [off, on]: &[Vec<f64>; 2]) -> Json {
    Json::Object(vec![
        ("name".into(), Json::Str(name.into())),
        ("off_mops_samples".into(), samples_json(off)),
        ("on_mops_samples".into(), samples_json(on)),
    ])
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

/// The `obs_overhead` check: the same fast-forward workload timed two
/// ways — plain `run` (no profile: no clock is read, each profiling
/// opportunity is a branch on an empty `Option`) and `run_profiled`
/// with a sampled [`EngineProfile`] attached. The
/// profiled run must (a) produce bit-identical stats, (b) actually
/// record stage samples, and (c) stay within `tolerance` of the plain
/// run's throughput. Returns whether the check passed, and its samples
/// for the artifact.
fn obs_overhead_check(total_ops: usize, iters: usize, tolerance: f64) -> (bool, Json) {
    let s = llc_hit_scenario(64, total_ops);
    let sim =
        Simulator::new((s.config)(EngineMode::FastForward)).expect("valid benchmark configuration");
    let profile = EngineProfile::new(1024);
    let (samples, [plain, profiled]) = trials(
        s.total_ops,
        iters,
        [&|| run(&s, &sim, None), &|| run(&s, &sim, Some(&profile))],
    );
    let artifact = overhead_json("obs_overhead", &samples);
    let (plain_best, profiled_best) = (best(&samples[0]), best(&samples[1]));
    if plain.stats != profiled.stats || plain.cycles != profiled.cycles {
        error!("obs_overhead: a profiled run diverged from the plain run");
        return (false, artifact);
    }
    if profile.samples() == 0 {
        error!("obs_overhead: the attached profile recorded no stage samples");
        return (false, artifact);
    }
    let overhead = 1.0 - profiled_best / plain_best;
    data!(
        "obs_overhead: plain {:.2} Mops/s, profiled {:.2} Mops/s, overhead {:+.1}% \
         ({} stage samples, stats bit-identical)",
        plain_best,
        profiled_best,
        overhead * 100.0,
        profile.samples()
    );
    if overhead > tolerance {
        error!(
            "obs_overhead FAILED: sampled profiling costs {:.1}% (> {:.0}% tolerance)",
            overhead * 100.0,
            tolerance * 100.0
        );
        return (false, artifact);
    }
    (true, artifact)
}

/// The `attribution_overhead` check: the same fast-forward workload
/// timed with latency attribution off and on. The attributed run must
/// (a) produce bit-identical stats and cycles (attribution only
/// reads), (b) actually attribute — the component totals sum exactly
/// to the recorded request latencies and a worst-case witness exists —
/// and (c) stay within `tolerance` of the plain run's throughput.
/// Returns whether the check passed, and its samples for the artifact.
fn attribution_overhead_check(total_ops: usize, iters: usize, tolerance: f64) -> (bool, Json) {
    let s = llc_hit_scenario(64, total_ops);
    let off =
        Simulator::new((s.config)(EngineMode::FastForward)).expect("valid benchmark configuration");
    let on = Simulator::new((s.config)(EngineMode::FastForward).with_attribution(true))
        .expect("valid benchmark configuration");
    let (samples, [plain, attributed]) = trials(
        s.total_ops,
        iters,
        [&|| run(&s, &off, None), &|| run(&s, &on, None)],
    );
    let artifact = overhead_json("attribution_overhead", &samples);
    let (off_best, on_best) = (best(&samples[0]), best(&samples[1]));
    if plain.stats != attributed.stats || plain.cycles != attributed.cycles {
        error!("attribution_overhead: an attributed run diverged from the plain run");
        return (false, artifact);
    }
    let Some(attr) = attributed.attribution() else {
        error!("attribution_overhead: the attributed run produced no report");
        return (false, artifact);
    };
    if attr.total_components().total() != attributed.latency_histogram().total() {
        error!("attribution_overhead: the component totals miss the recorded latencies");
        return (false, artifact);
    }
    if attr.witness().is_none() {
        error!("attribution_overhead: the attributed run produced no worst-case witness");
        return (false, artifact);
    }
    let overhead = 1.0 - on_best / off_best;
    data!(
        "attribution_overhead: off {:.2} Mops/s, on {:.2} Mops/s, overhead {:+.1}% \
         (stats bit-identical, component sums exact)",
        off_best,
        on_best,
        overhead * 100.0
    );
    if overhead > tolerance {
        error!(
            "attribution_overhead FAILED: attribution costs {:.1}% (> {:.0}% tolerance)",
            overhead * 100.0,
            tolerance * 100.0
        );
        return (false, artifact);
    }
    (true, artifact)
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

    let (hot_ops, llc_ops, miss_ops, grid_ops, iters) = if quick {
        (20_000, 64 * 500, 5_000, 1_200, 1)
    } else {
        (1_000_000, 1_000_000, 100_000, 12_000, 2)
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
    let grid = run_paper_grid(&paper_grid(grid_ops), iters);
    let split: Vec<String> = grid
        .stages
        .iter()
        .map(|(stage, ns)| format!("{stage} {ns:.1}"))
        .collect();
    let (coverage, rest) = grid.coverage.expect("the paper grid is profiled");
    data!(
        "{}: reference {:.1} ns/op, fast-forward {:.1} ns/op, speedup {:.2}x \
         ({} ops in 18 runs with twins, stats bit-identical); fast-forward \
         stage ns/op, sampled without the twin: {}; the stages cover {:.1}% \
         of that pass, remainder {:.1} ns/op",
        grid.name,
        1e3 / grid.ref_mops,
        1e3 / grid.fast_mops,
        grid.speedup,
        grid.total_ops,
        split.join(", "),
        coverage * 100.0,
        rest
    );
    outcomes.push(grid);

    // Every check runs and prints its verdict, and the artifact is
    // written, before a failure decides the exit code.
    let overhead_ops = if quick { 64 * 500 } else { 500_000 };
    // The observability-overhead check: attaching a sampled profile to
    // the fast engine must neither change the simulation nor cost more
    // than the gate tolerance.
    let (obs_ok, obs_samples) = obs_overhead_check(overhead_ops, iters, tolerance);
    // The attribution-overhead check: running with latency attribution
    // on must neither change the simulation nor cost more than the
    // gate tolerance.
    let (attribution_ok, attribution_samples) =
        attribution_overhead_check(overhead_ops, iters, tolerance);
    let mut ok = obs_ok && attribution_ok;

    let overheads = vec![obs_samples, attribution_samples];
    let json = render_json(&outcomes, overheads, "llc-hit-256t");
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
