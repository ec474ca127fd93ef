//! Running an experiment grid: every `(configuration × workload)` point
//! of an [`ExperimentSpec`], measured by engine runs scheduled on the
//! [`Executor`].
//!
//! Engine runs — not configurations — are the unit of parallelism, so
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
//!
//! Distinct points that differ only in their memory backend, and on a
//! shared partition in its sharing mode, form one **run group**,
//! measured by one [`measure`] call:
//!
//! - A backend never moves simulated time (the slot budget keeps every
//!   access inside its slot), so one engine run drives one point's
//!   backend and the others' as twins
//!   ([`Simulator::run_with_twins`](predllc_core::Simulator::run_with_twins)).
//! - The set sequencer (SS) changes an outcome only when two pending
//!   requests wait on one set at once. The group's SS run goes first, on
//!   every backend of the group; when no sequencer queue ever held two
//!   requests, its best-effort (NSS) points take that run's
//!   measurements, since best effort would decide every slot alike.
//!   Otherwise one more run, best effort, measures them. A group costs at
//!   most one engine run per sharing mode, so never more than its modes
//!   would apart.
//!
//! Each point's row takes its run's latencies and execution time, its
//! own backend's DRAM row counters, and its own label and analytical
//! bound, exactly as a run of its own would give them. Attribution-on
//! grids run every point alone: attribution splits the DRAM share of a
//! latency by the run's own backend, and replays its witness on the
//! point's own platform.
//!
//! The in-process grid and a fleet coordinator share the scheduler
//! ([`measure_runs`]) and the merge ([`grid_rows`]); only how one group
//! is measured differs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use predllc_core::analysis::MemoryAwareWcl;
use predllc_core::SystemConfig;
use predllc_obs::{fields, TraceCtx};
use predllc_workload::Workload;

use crate::executor::Executor;
use crate::hash::{point_fingerprint, run_fingerprint, Fingerprint};
use crate::point::{measure, PointError, PointMeasurement};
use crate::spec::ExperimentSpec;
use crate::{ExploreError, ExploreReport};

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
    /// [`render_attribution_json`](crate::report::render_attribution_json).
    /// Boxed: a server keeps every finished job's rows, and most rows
    /// carry none.
    pub attribution: Option<Box<crate::attribution::PointAttribution>>,
}

/// The deduped plan of a spec's grid: which declared points exist,
/// which are physically distinct, how declared points map onto distinct
/// ones, and which engine runs measure them. The runs are the unit both
/// the in-process grid and a fleet coordinator schedule with
/// [`measure_runs`] — only `unique` is ever measured, locally or
/// remotely, and [`grid_rows`] expands measurements back to declaration
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridPlan {
    /// Every declared `(config_index, workload_index)` point,
    /// configuration-major declaration order.
    pub points: Vec<(usize, usize)>,
    /// The physically distinct points, each at its first occurrence.
    pub unique: Vec<(usize, usize)>,
    /// `assignment[i]` names `points[i]`'s slot in `unique`.
    pub assignment: Vec<usize>,
    /// The run groups, as lists of `unique` indices: points that differ
    /// only in their memory backend and, on a shared partition, its
    /// sharing mode. One [`measure`] call measures a group with one
    /// engine run per sharing mode at most (one when the set-sequenced
    /// run's queues never held two requests; see the
    /// [module docs](self)). Each group lists its points in ascending
    /// order, the groups are ordered by their first point, and every
    /// unique point is in exactly one group. With attribution on, every
    /// point is a group of its own: attribution's DRAM split reads the
    /// latencies of the run's own backend.
    pub runs: Vec<Vec<usize>>,
}

/// Plans the grid of `spec`: declared points in configuration-major
/// declaration order, with physically identical points (by
/// [`point_fingerprint`] — labels and x-axis values excluded) collapsed
/// onto their first occurrence, and distinct points that differ only in
/// their memory backend and sharing mode grouped into one run group.
pub fn plan_grid(spec: &ExperimentSpec) -> GridPlan {
    let points: Vec<(usize, usize)> = (0..spec.configs.len())
        .flat_map(|ci| (0..spec.workloads.len()).map(move |wi| (ci, wi)))
        .collect();
    let mut unique: Vec<(usize, usize)> = Vec::with_capacity(points.len());
    let mut assignment: Vec<usize> = Vec::with_capacity(points.len());
    let mut seen: HashMap<Fingerprint, usize> = HashMap::new();
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
    let mut runs: Vec<Vec<usize>> = Vec::new();
    let mut run_of: HashMap<Fingerprint, usize> = HashMap::new();
    for (u, &(ci, wi)) in unique.iter().enumerate() {
        let run = match spec.attribution {
            true => runs.len(),
            false => *run_of
                .entry(run_fingerprint(
                    spec.cores,
                    &spec.configs[ci],
                    &spec.workloads[wi],
                ))
                .or_insert(runs.len()),
        };
        if run == runs.len() {
            runs.push(Vec::new());
        }
        runs[run].push(u);
    }
    GridPlan {
        points,
        unique,
        assignment,
        runs,
    }
}

/// How many physically distinct grid points `spec` will simulate — the
/// denominator of [`run_spec_traced`](crate::run_spec_traced)'s progress
/// fraction.
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

/// Measures every run group of `plan` on `exec`: `measure(members)`
/// measures one group (ascending `plan.unique` indices), one result per
/// member, or fails ranked by the unique point it names. Returns the
/// measurements indexed like `plan.unique`, or the lowest-ranked failure
/// — the first failing point, whichever group holds it. Groups whose
/// first point lies past a known failure are skipped.
pub fn measure_runs<E, F>(
    plan: &GridPlan,
    exec: &Executor,
    measure: F,
) -> Result<Vec<PointMeasurement>, E>
where
    E: Send,
    F: Fn(&[usize]) -> Result<Vec<PointMeasurement>, (usize, E)> + Sync,
{
    let measured = exec.try_map_ranked(
        &plan.runs,
        |_, members| members[0],
        |_, members| {
            let measured = measure(members)?;
            assert_eq!(measured.len(), members.len(), "one measurement per member");
            Ok(members.iter().copied().zip(measured).collect::<Vec<_>>())
        },
    )?;
    let mut measured: Vec<(usize, PointMeasurement)> = measured.into_iter().flatten().collect();
    measured.sort_unstable_by_key(|&(u, _)| u);
    Ok(measured.into_iter().map(|(_, m)| m).collect())
}

/// The declared rows of `spec`, in declaration order, from `measured`
/// (indexed like `plan.unique`), each under its declared point's own
/// labels. A reused point has its unique point's fingerprint, so its own
/// column of `platforms` is the same platform with the same bound.
pub fn grid_rows(
    spec: &ExperimentSpec,
    plan: &GridPlan,
    platforms: &[(SystemConfig, Option<u64>)],
    measured: &[PointMeasurement],
) -> Vec<GridResult> {
    plan.points
        .iter()
        .zip(&plan.assignment)
        .map(|(&(ci, wi), &u)| {
            let (config, analytical) = &platforms[ci];
            let entry = &spec.workloads[wi];
            measured[u].to_grid_result(
                &spec.configs[ci].label,
                &entry.label,
                &config.memory().label(),
                entry.x,
                *analytical,
            )
        })
        .collect()
}

/// Runs every grid point of `spec` on `exec` — the grid half of
/// [`run_spec_traced`](crate::run_spec_traced), which documents the
/// progress hook and the `explore.point` spans. The report's `search`
/// is left `None` for the caller to fill.
///
/// Each engine run builds its simulator from the validated
/// per-configuration platform and streams the workload; nothing is
/// shared between runs, so results are pure functions of the spec and
/// therefore identical across thread counts. Points with identical
/// simulation inputs (platform + workload; labels excluded) are
/// simulated **once** and the measurements reused, and points that
/// differ only in their memory backend and sharing mode form one run
/// group (see the [module docs](self)) — declaration order and
/// per-point labels in the returned rows are unaffected. A failure is
/// reported at the lowest failing unique point.
pub(crate) fn run(
    spec: &ExperimentSpec,
    exec: &Executor,
    observe: &(dyn Fn(usize, usize) + Sync),
    ctx: Option<TraceCtx<'_>>,
) -> Result<ExploreReport, ExploreError> {
    // Build and validate every platform and workload once, up front.
    let platforms = build_platforms(spec)?;
    let workloads: Vec<Box<dyn Workload>> = spec
        .workloads
        .iter()
        .map(|w| w.spec.build(spec.cores))
        .collect();

    // Configuration-major declaration order, one job per point — then
    // collapse physically identical points onto their first occurrence,
    // and points that differ only in their backend and sharing mode onto
    // one group.
    let plan = plan_grid(spec);

    let done = AtomicUsize::new(0);
    let unique_total = plan.unique.len();
    let grid_start = Instant::now();
    let measured = measure_runs(&plan, exec, |members| {
        let (ci, wi) = plan.unique[members[0]];
        let entry = &spec.workloads[wi];
        // Queue wait: grid start to a worker claiming this group. The
        // span stays open across the measurement, so its duration is the
        // group's compute time.
        let queue_wait = grid_start.elapsed();
        let mut span = ctx.map(|c| {
            let mut s = c.span(
                "explore.point",
                fields(&[
                    ("point", (members[0] as u64).into()),
                    ("members", (members.len() as u64).into()),
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
        let configs: Vec<&SystemConfig> = members
            .iter()
            .map(|&u| &platforms[plan.unique[u].0].0)
            .collect();
        let (group, runs) = measure(&configs, &workloads[wi]);
        if let Some(s) = span.as_mut() {
            s.field("runs", runs as u64);
        }
        let measured = members
            .iter()
            .zip(group)
            .map(|(&u, measured)| {
                let label = &spec.configs[plan.unique[u].0].label;
                measured.map_err(|e| {
                    let e = match e {
                        PointError::Config(source) => ExploreError::Config {
                            label: label.clone(),
                            source,
                        },
                        PointError::Sim(source) => ExploreError::Sim {
                            config: label.clone(),
                            workload: entry.label.clone(),
                            source,
                        },
                    };
                    (u, e)
                })
            })
            .collect::<Result<Vec<PointMeasurement>, _>>()?;
        // Dropping the guard stamps the span's compute duration.
        drop(span.take());
        for _ in members {
            observe(done.fetch_add(1, Ordering::Relaxed) + 1, unique_total);
        }
        Ok(measured)
    })?;

    Ok(ExploreReport {
        grid: grid_rows(spec, &plan, &platforms, &measured),
        search: None,
        unique_points: unique_total,
        total_points: plan.points.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;
    use crate::{run_spec, run_spec_traced};

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
        let rows = run_spec(&spec, &Executor::new(2)).unwrap().grid;
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
        let rows_off = run_spec(&off, &Executor::new(2)).unwrap().grid;
        let rows_on = run_spec(&on, &Executor::new(2)).unwrap().grid;
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
        let reference = run_spec(&spec, &Executor::new(1)).unwrap().grid;
        for threads in [2, 4, 8] {
            let got = run_spec(&spec, &Executor::new(threads)).unwrap().grid;
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
        let observe = |_: usize, _: usize| {
            ran.fetch_add(1, Ordering::Relaxed);
        };
        let run = run_spec_traced(&spec, &Executor::new(2), &observe, None).unwrap();
        // 3 configs x 2 workloads declared, but only 2 distinct
        // platforms x 1 distinct workload actually simulate.
        assert_eq!(run.total_points, 6);
        assert_eq!(run.unique_points, 2);
        // The standalone counter agrees with the run's actual dedup.
        assert_eq!(unique_point_count(&spec), 2);
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert_eq!(run.grid.len(), 6);
        // Declaration order and declared labels are preserved...
        let order: Vec<(&str, &str, u64)> = run
            .grid
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
            assert_eq!(run.grid[i].observed_wcl, run.grid[0].observed_wcl);
            assert_eq!(run.grid[i].execution_time, run.grid[0].execution_time);
            assert_eq!(run.grid[i].p50, run.grid[0].p50);
        }
        // The private column really is a different point, not a reused
        // measurement of the shared one.
        assert_ne!(run.grid[4].analytical_wcl, run.grid[0].analytical_wcl);
        assert_ne!(run.grid[4].config, run.grid[0].config);
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
        let rows = run_spec(&dup, &Executor::new(2)).unwrap().grid;
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
        let observe = |done: usize, total: usize| calls.lock().unwrap().push((done, total));
        let run = run_spec_traced(&dup, &Executor::new(1), &observe, None).unwrap();
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
        match run_spec(&spec, &Executor::new(1)).unwrap_err() {
            ExploreError::Config { label, .. } => assert_eq!(label, "huge"),
            other => panic!("expected Config, got {other:?}"),
        }
    }
}
