//! Running an experiment grid: every `(configuration × workload)` point
//! of an [`ExperimentSpec`], scheduled individually on the [`Executor`].
//!
//! Grid points — not configurations — are the unit of parallelism, so
//! one expensive configuration cannot serialize its whole row. Results
//! come back in declaration order (configuration-major) and are
//! bit-identical for every thread count.
//!
//! Physically identical points are simulated **once**: each point's
//! simulation inputs are fingerprinted
//! ([`point_fingerprint`] — labels and
//! x-axis values excluded) and duplicates reuse the first occurrence's
//! measurements, relabelled per declared point. Simulation is a pure
//! function of those inputs, so the deduped grid is bit-identical to
//! the naive one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use predllc_core::analysis::MemoryAwareWcl;
use predllc_core::SystemConfig;
use predllc_obs::{fields, TraceCtx};
use predllc_workload::Workload;

use crate::executor::Executor;
use crate::hash::point_fingerprint;
use crate::point::{measure, PointError};
use crate::spec::ExperimentSpec;
use crate::ExploreError;

/// The measured outcome of one grid point, percentiles included.
#[derive(Debug, Clone, PartialEq)]
pub struct GridResult {
    /// Configuration label.
    pub config: String,
    /// Workload label.
    pub workload: String,
    /// Memory-backend label.
    pub backend: String,
    /// The workload's numeric x-axis value.
    pub x: u64,
    /// LLC requests measured.
    pub requests: u64,
    /// Median request latency (cycles).
    pub p50: u64,
    /// 90th-percentile request latency.
    pub p90: u64,
    /// 99th-percentile request latency.
    pub p99: u64,
    /// 100th percentile of the latency distribution, computed from the
    /// histogram — always identical to [`GridResult::observed_wcl`]
    /// (the `explore` CLI verifies this on every point).
    pub p100: u64,
    /// Worst observed request latency, from the scalar per-core
    /// counters.
    pub observed_wcl: u64,
    /// Exact mean request latency.
    pub mean_latency: f64,
    /// Execution time (makespan), cycles.
    pub execution_time: u64,
    /// The analytical WCL bound, when the analysis covers the
    /// configuration.
    pub analytical_wcl: Option<u64>,
    /// DRAM row-buffer hit rate (0 under fixed-latency backends).
    pub row_hit_rate: f64,
    /// The point's attribution summary, when the spec ran with
    /// attribution on. Never rendered into the classic CSV/JSON rows —
    /// those stay byte-identical either way; see
    /// [`render_attribution_csv`](crate::report::render_attribution_csv).
    pub attribution: Option<crate::attribution::PointAttribution>,
}

/// The deduped shard plan of a spec's grid: which declared points
/// exist, which are physically distinct, and how declared points map
/// onto distinct ones. This is the unit a fleet coordinator shards —
/// only `unique` is ever simulated, locally or remotely, and
/// [`assemble_rows`] expands measurements back to declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridPlan {
    /// Every declared `(config_index, workload_index)` point,
    /// configuration-major declaration order.
    pub points: Vec<(usize, usize)>,
    /// The physically distinct points, each at its first occurrence.
    pub unique: Vec<(usize, usize)>,
    /// `assignment[i]` names `points[i]`'s slot in `unique`.
    pub assignment: Vec<usize>,
}

/// Plans the grid of `spec`: declared points in configuration-major
/// declaration order, with physically identical points (by
/// [`point_fingerprint`] — labels and x-axis values excluded) collapsed
/// onto their first occurrence.
pub fn plan_grid(spec: &ExperimentSpec) -> GridPlan {
    let points: Vec<(usize, usize)> = (0..spec.configs.len())
        .flat_map(|ci| (0..spec.workloads.len()).map(move |wi| (ci, wi)))
        .collect();
    let mut unique: Vec<(usize, usize)> = Vec::with_capacity(points.len());
    let mut assignment: Vec<usize> = Vec::with_capacity(points.len());
    let mut seen: std::collections::HashMap<crate::hash::Fingerprint, usize> =
        std::collections::HashMap::new();
    for &(ci, wi) in &points {
        let fp = point_fingerprint(
            spec.cores,
            &spec.configs[ci],
            &spec.workloads[wi],
            spec.attribution,
        );
        let slot = *seen.entry(fp).or_insert_with(|| {
            unique.push((ci, wi));
            unique.len() - 1
        });
        assignment.push(slot);
    }
    GridPlan {
        points,
        unique,
        assignment,
    }
}

/// How many physically distinct grid points `spec` will simulate —
/// exactly the number of jobs [`run_grid_observed`] schedules, and the
/// denominator of its progress fraction.
pub fn unique_point_count(spec: &ExperimentSpec) -> usize {
    plan_grid(spec).unique.len()
}

/// Builds and validates every configuration column of `spec` up front:
/// the platform plus its analytical WCL bound (when the analysis covers
/// the configuration), indexed like `spec.configs`.
///
/// # Errors
///
/// [`ExploreError::Config`] naming the first failing column.
pub fn build_platforms(
    spec: &ExperimentSpec,
) -> Result<Vec<(SystemConfig, Option<u64>)>, ExploreError> {
    let mut platforms: Vec<(SystemConfig, Option<u64>)> = Vec::with_capacity(spec.configs.len());
    for c in &spec.configs {
        let config = c
            .build(spec.cores)
            .map_err(|source| ExploreError::Config {
                label: c.label.clone(),
                source,
            })?
            .with_attribution(spec.attribution);
        let analytical = MemoryAwareWcl::from_config(&config)
            .ok()
            .and_then(|w| w.bound())
            .map(|b| b.as_u64());
        platforms.push((config, analytical));
    }
    Ok(platforms)
}

/// Expands per-unique-point measurements back to declaration order,
/// relabelling reused measurements with each declared point's own
/// labels — the merge-on-coordinator step of a sharded run, and the
/// tail of every in-process run. `measured` is indexed like
/// `plan.unique`.
pub fn assemble_rows(
    spec: &ExperimentSpec,
    plan: &GridPlan,
    measured: &[GridResult],
) -> Vec<GridResult> {
    plan.points
        .iter()
        .zip(&plan.assignment)
        .map(|(&(ci, wi), &slot)| {
            let mut row = measured[slot].clone();
            row.config = spec.configs[ci].label.clone();
            row.workload = spec.workloads[wi].label.clone();
            row.x = spec.workloads[wi].x;
            row
        })
        .collect()
}

/// A deduped grid run: the declaration-order rows plus how much
/// simulation work actually happened.
#[derive(Debug, Clone, PartialEq)]
pub struct GridRun {
    /// One result per declared grid point, declaration order.
    pub rows: Vec<GridResult>,
    /// Physically distinct points simulated (≤ `total_points`).
    pub unique_points: usize,
    /// Declared grid points (`configs × workloads`).
    pub total_points: usize,
}

/// Runs every grid point of `spec` on `exec`.
///
/// Convenience wrapper over [`run_grid_observed`] with no progress
/// observer; returns only the rows.
///
/// # Errors
///
/// Same as [`run_grid_observed`].
pub fn run_grid(spec: &ExperimentSpec, exec: &Executor) -> Result<Vec<GridResult>, ExploreError> {
    Ok(run_grid_observed(spec, exec, &|_, _| {})?.rows)
}

/// Runs every grid point of `spec` on `exec`, reporting progress.
///
/// Each point builds its simulator from the validated per-configuration
/// platform and streams the workload; nothing is shared between points,
/// so results are pure functions of the spec and therefore identical
/// across thread counts. Points with identical simulation inputs
/// (platform + workload; labels excluded) are simulated **once** and
/// the measurements reused — declaration order and per-point labels in
/// the returned rows are unaffected.
///
/// `observe(done, unique_total)` is called after each unique point
/// completes (from worker threads, possibly concurrently) — the hook
/// job-progress reporting hangs off.
///
/// # Errors
///
/// [`ExploreError::Config`] for a configuration that fails to build
/// (reported before any simulation starts), or [`ExploreError::Sim`]
/// for the first failing unique grid point in declaration order.
pub fn run_grid_observed(
    spec: &ExperimentSpec,
    exec: &Executor,
    observe: &(dyn Fn(usize, usize) + Sync),
) -> Result<GridRun, ExploreError> {
    run_grid_traced(spec, exec, observe, None)
}

/// Like [`run_grid_observed`], recording one `explore.point` span per
/// unique grid point under `ctx` (when given): the span's
/// `queue_wait_ns` field is the wall-clock delay between the grid
/// starting and a worker claiming the point, and its duration is the
/// point's compute time. Tracing reads the clock and nothing else —
/// the rows are bit-identical with or without it.
///
/// # Errors
///
/// Same as [`run_grid_observed`].
pub fn run_grid_traced(
    spec: &ExperimentSpec,
    exec: &Executor,
    observe: &(dyn Fn(usize, usize) + Sync),
    ctx: Option<TraceCtx<'_>>,
) -> Result<GridRun, ExploreError> {
    // Build and validate every platform and workload once, up front.
    let platforms = build_platforms(spec)?;
    let workloads: Vec<Box<dyn Workload>> = spec
        .workloads
        .iter()
        .map(|w| w.spec.build(spec.cores))
        .collect();

    // Configuration-major declaration order, one job per point — then
    // collapse physically identical points onto their first occurrence.
    let plan = plan_grid(spec);

    let done = AtomicUsize::new(0);
    let unique_total = plan.unique.len();
    let grid_start = Instant::now();
    let measured = exec.try_map(
        &plan.unique,
        |i, &(ci, wi)| -> Result<GridResult, ExploreError> {
            let (config, analytical) = &platforms[ci];
            let entry = &spec.workloads[wi];
            // Queue wait: grid start to a worker claiming this point.
            // The span stays open across the measurement, so its
            // duration is the point's compute time.
            let queue_wait = grid_start.elapsed();
            let mut span = ctx.map(|c| {
                let mut s = c.span(
                    "explore.point",
                    fields(&[
                        ("point", (i as u64).into()),
                        ("config", spec.configs[ci].label.clone().into()),
                        ("workload", entry.label.clone().into()),
                    ]),
                );
                s.field(
                    "queue_wait_ns",
                    u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX),
                );
                s
            });
            let result = measure(config, &workloads[wi])
                .map_err(|e| match e {
                    PointError::Config(source) => ExploreError::Config {
                        label: spec.configs[ci].label.clone(),
                        source,
                    },
                    PointError::Sim(source) => ExploreError::Sim {
                        config: spec.configs[ci].label.clone(),
                        workload: entry.label.clone(),
                        source,
                    },
                })?
                .to_grid_result(
                    &spec.configs[ci].label,
                    &entry.label,
                    &config.memory().label(),
                    entry.x,
                    *analytical,
                );
            // Dropping the guard stamps the span's compute duration.
            drop(span.take());
            observe(done.fetch_add(1, Ordering::Relaxed) + 1, unique_total);
            Ok(result)
        },
    )?;

    // Expand back to declaration order, relabelling reused measurements
    // with each declared point's own labels.
    let total_points = plan.points.len();
    Ok(GridRun {
        rows: assemble_rows(spec, &plan, &measured),
        unique_points: unique_total,
        total_points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;

    const SPEC: &str = r#"{
        "name": "grid-test",
        "cores": 2,
        "configs": [
            {"partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}},
            {"partition": {"kind": "private", "sets": 4, "ways": 2},
             "memory": {"kind": "banked", "banks": 8}}
        ],
        "workloads": [
            {"kind": "uniform", "range_bytes": 2048, "ops": 120, "seed": 3,
             "write_fraction": 0.25},
            {"kind": "stride", "range_bytes": 2048, "stride": 64, "ops": 120}
        ]
    }"#;

    #[test]
    fn grid_runs_in_declaration_order_with_consistent_percentiles() {
        let spec = ExperimentSpec::parse(SPEC).unwrap();
        let rows = run_grid(&spec, &Executor::new(2)).unwrap();
        assert_eq!(rows.len(), 4);
        let order: Vec<(&str, &str)> = rows
            .iter()
            .map(|r| (r.config.as_str(), r.workload.as_str()))
            .collect();
        assert_eq!(
            order,
            [
                ("SS(1,4)", "uniform/2048B"),
                ("SS(1,4)", "stride/2048B"),
                ("P(4,2)", "uniform/2048B"),
                ("P(4,2)", "stride/2048B"),
            ]
        );
        for r in &rows {
            assert!(
                r.requests > 0,
                "{}/{} measured nothing",
                r.config,
                r.workload
            );
            // The ordering invariant of a latency distribution, and the
            // exactness contract: the histogram's p100 is the scalar max.
            assert!(r.p50 <= r.p90 && r.p90 <= r.p99 && r.p99 <= r.p100);
            assert_eq!(r.p100, r.observed_wcl);
            if let Some(bound) = r.analytical_wcl {
                assert!(r.observed_wcl <= bound);
            }
        }
        // The banked configuration reports its backend and row hits.
        assert_eq!(rows[2].backend, "banked(1x8,interleaved)");
        assert!(rows[2].row_hit_rate >= 0.0);
        assert_eq!(rows[0].backend, "fixed(30)");
    }

    #[test]
    fn attribution_rides_along_without_changing_rows() {
        let off = ExperimentSpec::parse(SPEC).unwrap();
        let on_text = SPEC.replacen(
            "\"name\": \"grid-test\",",
            "\"name\": \"grid-test\", \"attribution\": true,",
            1,
        );
        let on = ExperimentSpec::parse(&on_text).unwrap();
        let rows_off = run_grid(&off, &Executor::new(2)).unwrap();
        let rows_on = run_grid(&on, &Executor::new(2)).unwrap();
        // The classic artifacts are byte-identical with attribution on.
        assert_eq!(
            crate::report::render_csv(&rows_on),
            crate::report::render_csv(&rows_off)
        );
        assert_eq!(
            crate::report::render_json("g", 2, None, &rows_on, None),
            crate::report::render_json("g", 2, None, &rows_off, None)
        );
        for (a, b) in rows_on.iter().zip(&rows_off) {
            assert!(b.attribution.is_none());
            let attr = a.attribution.as_ref().expect("attribution was on");
            // The witness is the row's observed WCL, exactly.
            let witness = attr.witness.as_ref().expect("requests completed");
            assert_eq!(witness.latency.as_u64(), a.observed_wcl);
            // Everything but the attribution matches field for field.
            let mut stripped = a.clone();
            stripped.attribution = None;
            assert_eq!(&stripped, b);
        }
    }

    #[test]
    fn grids_are_bit_identical_across_thread_counts() {
        let spec = ExperimentSpec::parse(SPEC).unwrap();
        let reference = run_grid(&spec, &Executor::new(1)).unwrap();
        for threads in [2, 4, 8] {
            let got = run_grid(&spec, &Executor::new(threads)).unwrap();
            assert_eq!(got, reference, "{threads} threads diverged");
        }
    }

    #[test]
    fn duplicated_axes_simulate_each_unique_point_once() {
        // Two configuration columns and two workload rows are pairwise
        // physically identical (labels differ): a 4x4 declared grid with
        // only 1 unique point per (partitioning, workload) pair = 4.
        let spec = ExperimentSpec::parse(
            r#"{
            "name": "dup", "cores": 2,
            "configs": [
                {"label": "A", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}},
                {"label": "A-again", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}},
                {"partition": {"kind": "private", "sets": 4, "ways": 2}}
            ],
            "workloads": [
                {"kind": "uniform", "range_bytes": 2048, "ops": 80, "seed": 3},
                {"label": "twin", "x": 7, "kind": "uniform", "range_bytes": 2048, "ops": 80, "seed": 3}
            ]
        }"#,
        )
        .unwrap();
        let ran = AtomicUsize::new(0);
        let run = run_grid_observed(&spec, &Executor::new(2), &|_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        // 3 configs x 2 workloads declared, but only 2 distinct
        // platforms x 1 distinct workload actually simulate.
        assert_eq!(run.total_points, 6);
        assert_eq!(run.unique_points, 2);
        // The standalone counter agrees with the run's actual dedup.
        assert_eq!(unique_point_count(&spec), 2);
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert_eq!(run.rows.len(), 6);
        // Declaration order and declared labels are preserved...
        let order: Vec<(&str, &str, u64)> = run
            .rows
            .iter()
            .map(|r| (r.config.as_str(), r.workload.as_str(), r.x))
            .collect();
        assert_eq!(
            order,
            [
                ("A", "uniform/2048B", 2048),
                ("A", "twin", 7),
                ("A-again", "uniform/2048B", 2048),
                ("A-again", "twin", 7),
                ("P(4,2)", "uniform/2048B", 2048),
                ("P(4,2)", "twin", 7),
            ]
        );
        // ...and reused measurements are bit-identical to their source.
        for i in [1, 2, 3] {
            assert_eq!(run.rows[i].observed_wcl, run.rows[0].observed_wcl);
            assert_eq!(run.rows[i].execution_time, run.rows[0].execution_time);
            assert_eq!(run.rows[i].p50, run.rows[0].p50);
        }
        // The private column really is a different point, not a reused
        // measurement of the shared one.
        assert_ne!(run.rows[4].analytical_wcl, run.rows[0].analytical_wcl);
        assert_ne!(run.rows[4].config, run.rows[0].config);
    }

    #[test]
    fn deduped_grid_matches_the_naive_grid() {
        // The dedup must be invisible in the output: compare against a
        // spec with the duplicates removed, row by row.
        let dup = ExperimentSpec::parse(
            r#"{
            "name": "dup", "cores": 2,
            "configs": [
                {"label": "A", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}},
                {"label": "B", "partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "SS"}}
            ],
            "workloads": [{"kind": "stride", "range_bytes": 2048, "stride": 64, "ops": 100}]
        }"#,
        )
        .unwrap();
        let rows = run_grid(&dup, &Executor::new(2)).unwrap();
        assert_eq!(rows.len(), 2);
        let a = &rows[0];
        let b = &rows[1];
        assert_eq!(a.config, "A");
        assert_eq!(b.config, "B");
        assert_eq!(
            (a.requests, a.p50, a.p90, a.p99, a.p100, a.execution_time),
            (b.requests, b.p50, b.p90, b.p99, b.p100, b.execution_time)
        );
        // Progress reporting saw every unique completion exactly once.
        let calls = std::sync::Mutex::new(Vec::new());
        let run = run_grid_observed(&dup, &Executor::new(1), &|done, total| {
            calls.lock().unwrap().push((done, total));
        })
        .unwrap();
        assert_eq!(run.unique_points, 1);
        assert_eq!(*calls.lock().unwrap(), vec![(1, 1)]);
    }

    #[test]
    fn config_errors_name_the_failing_column() {
        let bad = r#"{
            "name": "bad", "cores": 2,
            "configs": [{"label": "huge",
                         "partition": {"kind": "private", "sets": 32, "ways": 16}}],
            "workloads": [{"kind": "uniform", "range_bytes": 1024, "ops": 10}]
        }"#;
        let spec = ExperimentSpec::parse(bad).unwrap();
        match run_grid(&spec, &Executor::new(1)).unwrap_err() {
            ExploreError::Config { label, .. } => assert_eq!(label, "huge"),
            other => panic!("expected Config, got {other:?}"),
        }
    }
}
