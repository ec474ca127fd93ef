//! End-to-end design-space exploration: spec → grid → histogram
//! percentiles → schedulability-driven search, with the determinism
//! guarantees the subsystem promises.

use std::sync::Mutex;

use predllc::analysis::TaskParams;
use predllc::explore::spec::{Arrangement, SearchSpec};
use predllc::explore::{
    build_platforms, measure, run_spec, run_spec_traced, search_partitions, ExploreError,
};
use predllc::obs::{EventKind as TraceKind, FieldValue, TraceCtx, TraceId, Tracer};
use predllc::workload_gen::UniformGen;
use predllc::{
    CacheGeometry, ConfigError, CoreId, Cycles, Executor, ExperimentSpec, MemoryConfig,
    SharingMode, Simulator, SystemConfig,
};

const SPEC: &str = r#"{
    "name": "e2e",
    "cores": 4,
    "configs": [
        {"label": "SS(1,16,4)",
         "partition": {"kind": "shared", "sets": 1, "ways": 16, "mode": "SS"}},
        {"label": "NSS(1,16,4)",
         "partition": {"kind": "shared", "sets": 1, "ways": 16, "mode": "NSS"}},
        {"label": "P(8,4)",
         "partition": {"kind": "private", "sets": 8, "ways": 4}},
        {"label": "P(8,4)/banked",
         "partition": {"kind": "private", "sets": 8, "ways": 4},
         "memory": {"kind": "banked", "banks": 8, "mapping": "bank-private"}}
    ],
    "workloads": [
        {"kind": "uniform", "range_bytes": 4096, "ops": 300, "seed": 7,
         "write_fraction": 0.2},
        {"kind": "stride", "range_bytes": 4096, "stride": 64, "ops": 300},
        {"kind": "chase", "range_bytes": 4096, "ops": 300, "seed": 9},
        {"kind": "hotcold", "range_bytes": 4096, "ops": 300, "seed": 5}
    ],
    "tasks": [
        {"name": "control", "core": 0, "period": 1000000,
         "compute": 100000, "llc_requests": 900},
        {"name": "vision", "core": 1, "period": 2000000,
         "compute": 300000, "llc_requests": 1500},
        {"name": "logging", "core": 2, "period": 4000000,
         "compute": 200000, "llc_requests": 2000},
        {"name": "comms", "core": 3, "period": 2000000,
         "compute": 150000, "llc_requests": 1200}
    ],
    "search": {"arrangements": ["SS", "NSS", "private"],
               "max_sets": 16, "max_ways": 16}
}"#;

#[test]
fn grid_percentiles_are_consistent_with_the_scalar_max_everywhere() {
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let rows = run_spec(&spec, &Executor::new(4)).unwrap().grid;
    assert_eq!(rows.len(), 16);
    for r in &rows {
        assert!(
            r.requests > 0,
            "{} x {} measured nothing",
            r.config,
            r.workload
        );
        // The acceptance criterion: the histogram's percentiles agree
        // with RunReport::max_request_latency on every grid point.
        assert_eq!(r.p100, r.observed_wcl, "{} x {}", r.config, r.workload);
        assert!(r.p50 <= r.p90 && r.p90 <= r.p99 && r.p99 <= r.p100);
        if let Some(bound) = r.analytical_wcl {
            assert!(
                r.observed_wcl <= bound,
                "{} x {} broke its bound",
                r.config,
                r.workload
            );
        }
    }
}

#[test]
fn grids_are_bit_identical_across_thread_counts() {
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let reference = run_spec(&spec, &Executor::new(1)).unwrap().grid;
    for threads in [2, 3, 8] {
        let rows = run_spec(&spec, &Executor::new(threads)).unwrap().grid;
        // PartialEq covers every field, including the f64 means.
        assert_eq!(
            rows, reference,
            "{threads} threads diverged from single-threaded run"
        );
    }
}

#[test]
fn run_spec_searches_and_finds_a_minimal_schedulable_carve() {
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let report = run_spec(&spec, &Executor::new(4)).unwrap();
    let outcome = report.search.expect("spec declares a search block");
    let winner = outcome
        .winner
        .expect("the taskset is schedulable somewhere");

    // The winner really is schedulable: rebuild it and re-run the RTA.
    let config = winner
        .candidate
        .build(spec.search.as_ref().unwrap(), spec.cores)
        .unwrap();
    let verdicts = predllc::analysis::TaskSetAnalysis::new(&config, spec.tasks.clone())
        .analyze()
        .unwrap();
    assert!(verdicts.iter().all(|v| v.schedulable));

    // Minimality: every strictly cheaper candidate was evaluated and
    // rejected.
    for v in &outcome.evaluated {
        if v.lines_used < winner.lines_used {
            assert!(!v.schedulable, "{} is cheaper yet schedulable", v.label);
        }
    }
}

#[test]
fn histogram_invariants_hold_on_real_simulations() {
    let config = SystemConfig::shared_partition(1, 16, 4, SharingMode::SetSequencer).unwrap();
    let sim = Simulator::new(config).unwrap();
    let report = sim
        .run(
            UniformGen::new(8192, 500)
                .with_seed(3)
                .with_write_fraction(0.3)
                .with_cores(4),
        )
        .unwrap();
    let merged = report.latency_histogram();

    // p100 equals max_request_latency, exactly.
    assert_eq!(merged.percentile(100.0), report.max_request_latency());
    assert_eq!(
        report.latency_percentile(100.0),
        report.max_request_latency()
    );

    // Bucket counts sum to the total request count, per core and
    // merged.
    let total_requests: u64 = report.stats.cores.iter().map(|c| c.requests).sum();
    assert_eq!(merged.count(), total_requests);
    assert_eq!(
        merged.nonzero_buckets().iter().map(|b| b.2).sum::<u64>(),
        total_requests
    );
    for core in &report.stats.cores {
        assert_eq!(core.latencies.count(), core.requests);
        assert_eq!(core.latencies.max(), core.max_request_latency);
        assert_eq!(core.latencies.total(), core.total_request_latency);
    }

    // Merging per-core histograms is order-independent: fold them in
    // reverse and compare.
    let mut reversed = predllc::LatencyHistogram::new();
    for core in report.stats.cores.iter().rev() {
        reversed.merge(&core.latencies);
    }
    assert_eq!(reversed, merged);

    // The summary is internally consistent.
    let s = report.latency_summary();
    assert_eq!(s.count, total_requests);
    assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p100);
}

#[test]
fn search_agrees_with_hand_built_analysis() {
    // A 2-core taskset tight enough that SS sharing fails but private
    // partitions pass — the paper's isolate-or-share decision, found
    // automatically.
    let tasks: Vec<TaskParams> = (0..2)
        .map(|c| TaskParams {
            name: format!("t{c}"),
            core: CoreId::new(c),
            period: Cycles::new(2_000_000),
            deadline: Cycles::new(2_000_000),
            compute: Cycles::new(200_000),
            llc_requests: 3_000,
        })
        .collect();
    let spec = SearchSpec {
        arrangements: vec![
            Arrangement::Shared(SharingMode::SetSequencer),
            Arrangement::Private,
        ],
        max_sets: 8,
        max_ways: 8,
        memory: MemoryConfig::default(),
        physical: CacheGeometry::PAPER_L3,
    };
    let outcome = search_partitions(&spec, 2, &tasks, &Executor::new(2)).unwrap();
    let winner = outcome.winner.expect("private carves are schedulable");
    // SS(·,·,2) WCL = (2·1·2+1)·2·50 = 500; 3000 requests -> 1.5M, plus
    // 200k compute: 1.7M <= 2M. So the *shared* 1x1 partition wins at
    // cost 1 — cheaper than any private pair.
    assert_eq!(winner.lines_used, 1);
    assert!(matches!(
        winner.candidate.arrangement,
        Arrangement::Shared(_)
    ));

    // Tighten the period so SS fails and the search must fall back to
    // private isolation.
    let tight: Vec<TaskParams> = tasks
        .iter()
        .cloned()
        .map(|mut t| {
            t.period = Cycles::new(1_000_000);
            t.deadline = Cycles::new(1_000_000);
            t
        })
        .collect();
    let outcome = search_partitions(&spec, 2, &tight, &Executor::new(2)).unwrap();
    let winner = outcome
        .winner
        .expect("private still schedulable: 200k + 3000*250 = 950k");
    assert!(matches!(winner.candidate.arrangement, Arrangement::Private));
}

#[test]
fn spec_round_trips_identically_through_reparse() {
    let a = ExperimentSpec::parse(SPEC).unwrap();
    let b = ExperimentSpec::parse(SPEC).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.grid_len(), 16);
}

/// A shared partition of more than 64 cores is a configuration error
/// (sharer bits are partition-local, one word per line), reported with
/// the offending configuration's label — never a shift overflow or a
/// silently aliased sharer.
#[test]
fn a_65_core_shared_partition_is_a_positioned_config_error() {
    let spec = ExperimentSpec::parse(
        r#"{"name": "too-wide", "cores": 65,
            "configs": [{"label": "ss-65", "partition":
                {"kind": "shared", "sets": 32, "ways": 16, "mode": "SS"}}],
            "workloads": [{"kind": "uniform", "range_bytes": 131072,
                           "ops": 100, "seed": 3}]}"#,
    )
    .unwrap();
    match run_spec(&spec, &Executor::new(1)) {
        Err(ExploreError::Config { label, source }) => {
            assert_eq!(label, "ss-65");
            assert_eq!(
                source,
                ConfigError::PartitionTooManyCores {
                    index: 0,
                    cores: 65
                }
            );
        }
        other => panic!("expected a config error, got {other:?}"),
    }
}

/// Three platforms, each on three memory backends, declared interleaved,
/// plus one duplicate column. The 27 distinct points form 6 run groups:
/// the points of one platform and workload differ only in their backend,
/// and SS and NSS differ only in their sharing mode. They take 7 engine
/// runs.
const TWINS: &str = r#"{
    "name": "twins",
    "cores": 4,
    "configs": [
        {"label": "SS", "partition": {"kind": "shared", "sets": 2, "ways": 4, "mode": "SS"}},
        {"label": "NSS/fixed12", "partition": {"kind": "shared", "sets": 2, "ways": 4, "mode": "NSS"},
         "memory": {"kind": "fixed", "latency": 12}},
        {"label": "P/banked", "partition": {"kind": "private", "sets": 2, "ways": 2},
         "memory": {"kind": "banked", "banks": 8}},
        {"label": "SS/banked", "partition": {"kind": "shared", "sets": 2, "ways": 4, "mode": "SS"},
         "memory": {"kind": "banked", "banks": 8}},
        {"label": "NSS/bank-private", "partition": {"kind": "shared", "sets": 2, "ways": 4, "mode": "NSS"},
         "memory": {"kind": "banked", "banks": 8, "mapping": "bank-private"}},
        {"label": "P", "partition": {"kind": "private", "sets": 2, "ways": 2}},
        {"label": "SS/wc", "partition": {"kind": "shared", "sets": 2, "ways": 4, "mode": "SS"},
         "memory": {"kind": "banked", "banks": 8, "mapping": "bank-private", "worst_case": true}},
        {"label": "NSS", "partition": {"kind": "shared", "sets": 2, "ways": 4, "mode": "NSS"}},
        {"label": "P/wc", "partition": {"kind": "private", "sets": 2, "ways": 2},
         "memory": {"kind": "banked", "banks": 8, "worst_case": true}},
        {"label": "SS-again", "partition": {"kind": "shared", "sets": 2, "ways": 4, "mode": "SS"}}
    ],
    "workloads": [
        {"kind": "uniform", "range_bytes": 8192, "ops": 200, "seed": 7,
         "write_fraction": 0.3},
        {"kind": "chase", "range_bytes": 4096, "ops": 200, "seed": 9},
        {"kind": "hotcold", "range_bytes": 16384, "ops": 200, "seed": 5}
    ]
}"#;

/// Points that share an engine run get the rows a run of their own
/// would give: every grouped row equals the row of one `measure` per
/// declared point, at any thread count, with attribution off (grouped)
/// and on (every point alone).
#[test]
fn grouped_runs_give_the_rows_of_one_measure_per_point() {
    for attribution in [false, true] {
        let text = TWINS.replacen(
            "\"name\": \"twins\",",
            &format!("\"name\": \"twins\", \"attribution\": {attribution},"),
            1,
        );
        let spec = ExperimentSpec::parse(&text).unwrap();
        assert_eq!(spec.attribution, attribution);
        let platforms = build_platforms(&spec).unwrap();
        let mut expected = Vec::new();
        for (ci, (config, analytical)) in platforms.iter().enumerate() {
            for entry in &spec.workloads {
                let workload = entry.spec.build(spec.cores);
                expected.push(
                    measure(&[config], &workload).0[0]
                        .clone()
                        .unwrap()
                        .to_grid_result(
                            &spec.configs[ci].label,
                            &entry.label,
                            &config.memory().label(),
                            entry.x,
                            *analytical,
                        ),
                );
            }
        }
        for threads in [1, 4] {
            let rows = run_spec(&spec, &Executor::new(threads)).unwrap().grid;
            assert_eq!(
                rows, expected,
                "attribution {attribution}, {threads} threads: grouped rows diverged"
            );
        }
        // The backends really differ where the rows can show it.
        assert_ne!(expected[9].row_hit_rate, expected[0].row_hit_rate);
        assert_eq!(expected[9].execution_time, expected[0].execution_time);
    }
}

/// What a job's progress and e2ebench's layer split read: `observe`
/// reports every count from 1 to `unique_points` once, and there is one
/// `explore.point` span per run group, whose `members` fields sum to
/// `unique_points` and whose `runs` fields count the engine runs.
#[test]
fn grid_progress_counts_points_and_spans_count_runs() {
    let spec = ExperimentSpec::parse(TWINS).unwrap();
    for threads in [1, 3] {
        let tracer = Tracer::new();
        let calls = Mutex::new(Vec::new());
        let run = run_spec_traced(
            &spec,
            &Executor::new(threads),
            &|done, total| calls.lock().unwrap().push((done, total)),
            Some(TraceCtx::new(&tracer, TraceId::fresh())),
        )
        .unwrap();
        assert_eq!((run.unique_points, run.total_points), (27, 30));
        let mut calls = calls.into_inner().unwrap();
        calls.sort_unstable();
        let want: Vec<(usize, usize)> = (1..=27).map(|done| (done, 27)).collect();
        assert_eq!(calls, want, "{threads} threads");

        let spans: Vec<_> = tracer
            .snapshot()
            .into_iter()
            .filter(|e| e.name == "explore.point" && e.kind == TraceKind::End)
            .collect();
        assert_eq!(spans.len(), 6, "{threads} threads: one span per run group");
        let sum = |field: &str| -> u64 {
            spans
                .iter()
                .map(|e| {
                    e.fields
                        .iter()
                        .find_map(|(k, v)| match v {
                            FieldValue::U64(n) if k == field => Some(*n),
                            _ => None,
                        })
                        .unwrap_or_else(|| panic!("an explore.point span without {field}"))
                })
                .sum()
        };
        assert_eq!(sum("members"), 27, "{threads} threads");
        // The uniform row's SS run queues two requests on a set, so its
        // NSS points take a run of their own; the chase and hot/cold
        // rows' NSS points reuse the SS run.
        assert_eq!(sum("runs"), 7, "{threads} threads");
    }
}

/// A group whose SS run queued exactly two requests on a set: best
/// effort would have decided some slot differently, so the NSS points
/// take a run of their own, and every row still equals one `measure`
/// per point.
#[test]
fn a_queue_of_two_gives_best_effort_its_own_run() {
    let spec = ExperimentSpec::parse(
        r#"{"name": "two-deep", "cores": 3,
            "configs": [
                {"label": "SS", "partition": {"kind": "shared", "sets": 4, "ways": 2, "mode": "SS"}},
                {"label": "NSS", "partition": {"kind": "shared", "sets": 4, "ways": 2, "mode": "NSS"}},
                {"label": "NSS/banked", "partition": {"kind": "shared", "sets": 4, "ways": 2, "mode": "NSS"},
                 "memory": {"kind": "banked", "banks": 8}}
            ],
            "workloads": [{"kind": "uniform", "range_bytes": 4096, "ops": 200, "seed": 7,
                           "write_fraction": 0.2}]}"#,
    )
    .unwrap();
    let platforms = build_platforms(&spec).unwrap();
    let workload = spec.workloads[0].spec.build(spec.cores);
    let ss = Simulator::new(platforms[0].0.clone()).unwrap();
    assert_eq!(ss.run(&workload).unwrap().stats.max_sequencer_depth, 2);
    let alone: Vec<_> = platforms
        .iter()
        .map(|(config, _)| measure(&[config], &workload).0.remove(0).unwrap())
        .collect();
    assert_ne!(
        alone[1].latency, alone[0].latency,
        "best effort decided alike"
    );

    let tracer = Tracer::new();
    let run = run_spec_traced(
        &spec,
        &Executor::new(1),
        &|_, _| {},
        Some(TraceCtx::new(&tracer, TraceId::fresh())),
    )
    .unwrap();
    for ((row, measured), (config, analytical)) in run.grid.iter().zip(&alone).zip(&platforms) {
        let want = measured.to_grid_result(
            &row.config,
            &row.workload,
            &config.memory().label(),
            row.x,
            *analytical,
        );
        assert_eq!(row, &want);
    }
    let runs: Vec<FieldValue> = tracer
        .snapshot()
        .into_iter()
        .filter(|e| e.name == "explore.point" && e.kind == TraceKind::End)
        .flat_map(|e| e.fields.into_iter().filter(|(k, _)| k == "runs"))
        .map(|(_, v)| v)
        .collect();
    assert_eq!(runs, [FieldValue::U64(2)]);
}
