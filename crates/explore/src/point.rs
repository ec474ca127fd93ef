//! Point-granular work descriptions: the wire format a fleet
//! coordinator uses to ship one engine run's grid points to a worker
//! and get the measurements back, serialized through the in-tree
//! [`json`] layer.
//!
//! The format is **lossless by construction**: a [`PointRequest`]
//! round-trips through the same spec-schema parsers the experiment file
//! uses, and a [`PointMeasurement`] carries only exact integers — the
//! full [`LatencyHistogram`] parts plus the raw DRAM row counters — so
//! every derived float (mean latency, row-buffer hit rate) is
//! recomputed on the receiving side with the same arithmetic the
//! in-process grid uses. That is what makes fleet results bit-identical
//! to [`run_spec`](crate::run_spec), whatever the fleet shape.
//!
//! There is a single simulation path: [`measure`] measures a run group
//! — the points that share a `run_fingerprint`, so differ only in their
//! memory backend and, on a shared partition, its sharing mode — with
//! one engine run per sharing mode at most, and both the in-process
//! grid ([`run_spec_traced`](crate::run_spec_traced)) and the fleet
//! worker endpoint call it on the groups of
//! [`plan_grid`](crate::plan_grid). A request names the group's first
//! point in full and its other points as full configurations
//! ([`PointRequest::twins`]), which [`PointRequest::parse`] accepts only
//! when they share the first point's run group; a single point is the
//! one-member group, and its request renders with no `twins` key.

use std::fmt;

use predllc_core::{ConfigError, LatencyHistogram, SharingMode, SimError, Simulator, SystemConfig};
use predllc_dram::{BankMapping, DramTiming, MemoryConfig};
use predllc_model::Cycles;
use predllc_workload::{Workload, WorkloadSpec};

use crate::attribution::PointAttribution;
use crate::grid::GridResult;
use crate::hash::{point_fingerprint, run_fingerprint, Fingerprint};
use crate::json::{self, Json};
use crate::spec::{check_keys, parse_config, parse_workload, ConfigSpec, Partitioning, SpecError};
use crate::WorkloadEntry;

/// Why one grid point failed to simulate — positioned by the caller,
/// who knows the labels.
#[derive(Debug, Clone, PartialEq)]
pub enum PointError {
    /// The platform configuration failed to build.
    Config(ConfigError),
    /// The simulation itself failed.
    Sim(SimError),
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::Config(e) => write!(f, "{e}"),
            PointError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PointError::Config(e) => Some(e),
            PointError::Sim(e) => Some(e),
        }
    }
}

/// One engine run's grid points as shippable work: the core count plus
/// the full configuration of each point and the workload description,
/// labels included.
///
/// Serializes with [`PointRequest::render`] and parses back with
/// [`PointRequest::parse`] through the exact spec-schema parsers, so a
/// round trip is identity and the [fingerprint](PointRequest::fingerprint)
/// — which ignores labels — agrees on both ends of the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRequest {
    /// Core count the platform and workload are built for.
    pub cores: u16,
    /// The first point's configuration column.
    pub config: ConfigSpec,
    /// The workload row.
    pub workload: WorkloadEntry,
    /// Whether the point runs with latency attribution — the worker
    /// then ships the [`PointAttribution`] extension back with the
    /// measurement.
    pub attribution: bool,
    /// The group's other points, in order, as full configurations. Each
    /// shares `config`'s run group, so it differs only in its memory
    /// backend and, on a shared partition, its sharing mode, and one
    /// [`measure`] call measures them all. Empty for a one-point group,
    /// and always empty with `attribution` on: attribution splits a
    /// latency by the run's own backend.
    pub twins: Vec<ConfigSpec>,
}

impl PointRequest {
    /// The first point's content address: [`point_fingerprint`] over
    /// the simulation inputs (labels and x-axis values excluded).
    pub fn fingerprint(&self) -> Fingerprint {
        point_fingerprint(self.cores, &self.config, &self.workload, self.attribution)
    }

    /// The group's points in request order: the first point, then the
    /// twins. A reply lists its measurements in this order.
    pub fn members(&self) -> Vec<&ConfigSpec> {
        std::iter::once(&self.config).chain(&self.twins).collect()
    }

    /// Renders the request as a JSON document. The `attribution` and
    /// `twins` keys are emitted only when the flag is on or the list is
    /// non-empty, so a one-point attribution-off request is
    /// byte-identical to those of older peers.
    ///
    /// # Errors
    ///
    /// A message when a configuration is not expressible in the spec
    /// schema (a programmatically built [`MemoryConfig`] with custom
    /// DRAM timing or row geometry) — spec-file experiments always
    /// render.
    pub fn render(&self) -> Result<String, String> {
        let mut members = vec![
            ("cores".into(), Json::UInt(u64::from(self.cores))),
            ("config".into(), render_config(&self.config)?),
            ("workload".into(), render_workload(&self.workload)),
        ];
        if self.attribution {
            members.push(("attribution".into(), Json::Bool(true)));
        }
        if !self.twins.is_empty() {
            let twins = self
                .twins
                .iter()
                .map(render_config)
                .collect::<Result<_, _>>()?;
            members.push(("twins".into(), Json::Array(twins)));
        }
        Ok(Json::Object(members).render())
    }

    /// Parses a request document rendered by [`PointRequest::render`].
    ///
    /// # Errors
    ///
    /// [`SpecError`] positioned exactly like experiment-spec parsing,
    /// each twin at `point.twins[i]`. Twins on an attributed request are
    /// invalid at `point.twins`, and a twin outside the first point's
    /// run group (by `run_fingerprint`: other sets, ways, schedule or
    /// partition kind) at its own `point.twins[i]`.
    pub fn parse(input: &str) -> Result<PointRequest, SpecError> {
        let doc = json::parse(input).map_err(SpecError::Json)?;
        check_keys(
            &doc,
            &["cores", "config", "workload", "attribution", "twins"],
            "point",
        )?;
        let cores = doc
            .get("cores")
            .and_then(Json::as_u64)
            .ok_or_else(|| SpecError::Invalid {
                at: "point.cores".into(),
                message: "required non-negative integer missing".into(),
            })?;
        let cores = u16::try_from(cores)
            .ok()
            .filter(|&c| c > 0)
            .ok_or_else(|| SpecError::Invalid {
                at: "point.cores".into(),
                message: format!("core count {cores} out of range"),
            })?;
        let config = parse_config(
            doc.get("config").ok_or_else(|| SpecError::Invalid {
                at: "point.config".into(),
                message: "required object missing".into(),
            })?,
            "config",
        )?;
        let workload = parse_workload(
            doc.get("workload").ok_or_else(|| SpecError::Invalid {
                at: "point.workload".into(),
                message: "required object missing".into(),
            })?,
            "workload",
        )?;
        let attribution = match doc.get("attribution") {
            None => false,
            Some(v) => v.as_bool().ok_or_else(|| SpecError::Invalid {
                at: "point.attribution".into(),
                message: "must be a boolean".into(),
            })?,
        };
        let twins: Vec<ConfigSpec> = match doc.get("twins") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| SpecError::Invalid {
                    at: "point.twins".into(),
                    message: "must be an array of config objects".into(),
                })?
                .iter()
                .enumerate()
                .map(|(i, c)| parse_config(c, &format!("point.twins[{i}]")))
                .collect::<Result<_, _>>()?,
        };
        if attribution && !twins.is_empty() {
            return Err(SpecError::Invalid {
                at: "point.twins".into(),
                message: "an attributed point runs alone and takes no twins".into(),
            });
        }
        let group = run_fingerprint(cores, &config, &workload);
        if let Some(i) = twins
            .iter()
            .position(|twin| run_fingerprint(cores, twin, &workload) != group)
        {
            return Err(SpecError::Invalid {
                at: format!("point.twins[{i}]"),
                message: "not in the first point's run group: a twin may differ from it \
                          only in its memory backend and sharing mode"
                    .into(),
            });
        }
        Ok(PointRequest {
            cores,
            config,
            workload,
            attribution,
            twins,
        })
    }
}

/// The measured outcome of one grid point, as exact integers only: the
/// serialized [`LatencyHistogram`] parts, the scalar extremes and the
/// raw DRAM row counters. Everything a [`GridResult`] derives from
/// these ships losslessly; the floats are recomputed at the receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct PointMeasurement {
    /// The full request-latency distribution.
    pub latency: LatencyHistogram,
    /// Worst observed request latency (the scalar per-core counter).
    pub observed_wcl: u64,
    /// Execution time (makespan), cycles.
    pub execution_time: u64,
    /// DRAM row-buffer hits.
    pub row_hits: u64,
    /// DRAM row-buffer empties.
    pub row_empties: u64,
    /// DRAM row-buffer conflicts.
    pub row_conflicts: u64,
    /// The attribution extension: component totals, WCL witness and gap
    /// split, shipped as exact integers when the point ran with
    /// attribution on.
    pub attribution: Option<PointAttribution>,
}

impl PointMeasurement {
    /// Renders the measurement as a JSON document of exact integers.
    /// The `attribution` member is emitted only when present, so
    /// attribution-off measurements are byte-identical to those of
    /// older peers.
    pub fn render(&self) -> String {
        let buckets = self
            .latency
            .bucket_entries()
            .into_iter()
            .map(|(low, n)| Json::Array(vec![Json::UInt(low), Json::UInt(n)]))
            .collect();
        let mut members = vec![
            ("requests".into(), Json::UInt(self.latency.count())),
            ("total".into(), Json::UInt(self.latency.total().as_u64())),
            ("min".into(), Json::UInt(self.latency.min().as_u64())),
            ("max".into(), Json::UInt(self.latency.max().as_u64())),
            ("observed_wcl".into(), Json::UInt(self.observed_wcl)),
            ("execution_time".into(), Json::UInt(self.execution_time)),
            ("row_hits".into(), Json::UInt(self.row_hits)),
            ("row_empties".into(), Json::UInt(self.row_empties)),
            ("row_conflicts".into(), Json::UInt(self.row_conflicts)),
            ("buckets".into(), Json::Array(buckets)),
        ];
        if let Some(attr) = &self.attribution {
            members.push(("attribution".into(), attr.to_json()));
        }
        Json::Object(members).render()
    }

    /// Rebuilds a measurement from a parsed document.
    ///
    /// # Errors
    ///
    /// A message naming what is missing or inconsistent (the histogram
    /// parts must reconstruct exactly and sum to `requests`).
    pub fn from_json(doc: &Json) -> Result<PointMeasurement, String> {
        let field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("measurement field '{key}' missing or not an integer"))
        };
        let mut entries = Vec::new();
        for (i, pair) in doc
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or("measurement field 'buckets' missing or not an array")?
            .iter()
            .enumerate()
        {
            match pair.as_array() {
                Some([low, n]) => entries.push((
                    low.as_u64()
                        .ok_or(format!("buckets[{i}] low not an integer"))?,
                    n.as_u64()
                        .ok_or(format!("buckets[{i}] count not an integer"))?,
                )),
                _ => return Err(format!("buckets[{i}] is not a [low, count] pair")),
            }
        }
        let latency = LatencyHistogram::from_parts(
            Cycles::new(field("total")?),
            Cycles::new(field("min")?),
            Cycles::new(field("max")?),
            &entries,
        )
        .ok_or("histogram parts are inconsistent")?;
        if latency.count() != field("requests")? {
            return Err("bucket counts do not sum to 'requests'".into());
        }
        let attribution = match doc.get("attribution") {
            None => None,
            Some(a) => Some(PointAttribution::from_json(a)?),
        };
        Ok(PointMeasurement {
            latency,
            observed_wcl: field("observed_wcl")?,
            execution_time: field("execution_time")?,
            row_hits: field("row_hits")?,
            row_empties: field("row_empties")?,
            row_conflicts: field("row_conflicts")?,
            attribution,
        })
    }

    /// Parses a document rendered by [`PointMeasurement::render`].
    ///
    /// # Errors
    ///
    /// Same as [`PointMeasurement::from_json`], plus JSON syntax errors.
    pub fn parse(input: &str) -> Result<PointMeasurement, String> {
        let doc = json::parse(input).map_err(|e| e.to_string())?;
        PointMeasurement::from_json(&doc)
    }

    /// Derives the [`GridResult`] row for this measurement — the same
    /// arithmetic, applied to the same integers, as the in-process grid
    /// path, so local and remote rows are bit-identical.
    pub fn to_grid_result(
        &self,
        config: &str,
        workload: &str,
        backend: &str,
        x: u64,
        analytical_wcl: Option<u64>,
    ) -> GridResult {
        GridResult {
            config: config.to_string(),
            workload: workload.to_string(),
            backend: backend.to_string(),
            x,
            attribution: self.attribution.clone().map(Box::new),
            requests: self.latency.count(),
            p50: self.latency.percentile(50.0).as_u64(),
            p90: self.latency.percentile(90.0).as_u64(),
            p99: self.latency.percentile(99.0).as_u64(),
            p100: self.latency.percentile(100.0).as_u64(),
            observed_wcl: self.observed_wcl,
            mean_latency: self.latency.mean(),
            execution_time: self.execution_time,
            analytical_wcl,
            row_hit_rate: predllc_dram::backend::row_hit_rate(
                self.row_hits,
                self.row_empties,
                self.row_conflicts,
            ),
        }
    }
}

/// Simulates the grid points of one run group on validated platforms —
/// the single measurement path shared by the in-process grid and fleet
/// workers. `members` are the group's platforms, which differ only in
/// their memory backend and, on a shared partition, its sharing mode
/// (the groups of [`plan_grid`](crate::plan_grid)). Returns one outcome
/// per member, in order, and the number of engine runs it took.
///
/// A group with a set-sequenced member runs that platform first, once,
/// on every backend of the group: its own as the configured backend and
/// the rest as twins ([`Simulator::run_with_twins`]; a backend never
/// moves simulated time). Each member takes the run's latencies and
/// execution time, and the DRAM row counters of its own backend. Its
/// best-effort members take that run's measurements too when no
/// sequencer queue ever held two requests
/// ([`max_sequencer_depth`](predllc_core::SimStats::max_sequencer_depth)
/// ≤ 1): the sequencer then held no core back, so best effort decides
/// every slot alike (see [`SharingMode::SetSequencer`]). Otherwise, or
/// when that run fails, one best-effort run measures them. A group with
/// no set-sequenced member runs once, best effort. So a group costs at
/// most one engine run per sharing mode.
///
/// Attribution-on points always run alone: attribution's DRAM split
/// reads the latencies of the run's own backend.
///
/// # Errors
///
/// Per member, [`PointError::Config`] when the simulator rejects the
/// platform, or [`PointError::Sim`] when the run that measures it fails
/// (a twin that breaks the slot budget included).
pub fn measure(
    members: &[&SystemConfig],
    workload: &dyn Workload,
) -> (Vec<Result<PointMeasurement, PointError>>, usize) {
    debug_assert!(
        members.len() == 1 || members.iter().all(|c| !c.attribution()),
        "an attributed point was grouped"
    );
    let mut measured: Vec<Option<Result<PointMeasurement, PointError>>> = vec![None; members.len()];
    let mut runs = 0;
    if let Some(first) = members.iter().position(|c| sequenced(c)) {
        runs += 1;
        let all: Vec<usize> = (0..members.len()).collect();
        let (backends, outcome) = run_on(members, first, &all, workload);
        let reused = matches!(outcome, Ok((_, depth)) if depth <= 1);
        for (k, config) in members.iter().enumerate() {
            if reused || sequenced(config) {
                measured[k] = Some(take(&outcome, &backends, config.memory()));
            }
        }
    }
    let rest: Vec<usize> = (0..members.len())
        .filter(|&k| measured[k].is_none())
        .collect();
    if let Some(&first) = rest.first() {
        runs += 1;
        let (backends, outcome) = run_on(members, first, &rest, workload);
        for &k in &rest {
            measured[k] = Some(take(&outcome, &backends, members[k].memory()));
        }
    }
    let measured = measured
        .into_iter()
        .map(|m| m.expect("every member is measured"))
        .collect();
    (measured, runs)
}

/// Whether `config` orders a shared partition with the set sequencer.
fn sequenced(config: &SystemConfig) -> bool {
    config
        .partitions()
        .partitions()
        .iter()
        .any(|p| !p.is_private() && p.mode == SharingMode::SetSequencer)
}

/// What one engine run measured: per backend, in the run's order, the
/// measurement of a point on it; and the run's deepest sequencer queue.
type RunOutcome = Result<(Vec<PointMeasurement>, usize), PointError>;

/// One engine run of `members[first]` on the distinct backends of the
/// members `of` names, its own first. Returns the backends in the run's
/// order beside what the run measured.
fn run_on(
    members: &[&SystemConfig],
    first: usize,
    of: &[usize],
    workload: &dyn Workload,
) -> (Vec<MemoryConfig>, RunOutcome) {
    let config = members[first];
    let mut backends = vec![config.memory().clone()];
    for &k in of {
        if !backends.contains(members[k].memory()) {
            backends.push(members[k].memory().clone());
        }
    }
    let outcome = Simulator::new(config.clone())
        .map_err(PointError::Config)
        .and_then(|sim| {
            sim.run_with_twins(workload, &backends[1..])
                .map_err(PointError::Sim)
        })
        .map(|(report, twin_stats)| {
            let own = PointMeasurement {
                latency: report.latency_histogram(),
                observed_wcl: report.max_request_latency().as_u64(),
                execution_time: report.execution_time().as_u64(),
                row_hits: report.stats.dram_row_hits,
                row_empties: report.stats.dram_row_empties,
                row_conflicts: report.stats.dram_row_conflicts,
                attribution: report
                    .attribution()
                    .map(|a| PointAttribution::from_report(config, a)),
            };
            let twins: Vec<PointMeasurement> = twin_stats
                .iter()
                .map(|mem| PointMeasurement {
                    row_hits: mem.row_hits,
                    row_empties: mem.row_empties,
                    row_conflicts: mem.row_conflicts,
                    ..own.clone()
                })
                .collect();
            let rows = std::iter::once(own).chain(twins).collect();
            (rows, report.stats.max_sequencer_depth)
        });
    (backends, outcome)
}

/// The measurement `outcome` gives the member on `memory`.
fn take(
    outcome: &RunOutcome,
    backends: &[MemoryConfig],
    memory: &MemoryConfig,
) -> Result<PointMeasurement, PointError> {
    let at = backends
        .iter()
        .position(|b| b == memory)
        .expect("every member's backend is in its run");
    outcome
        .as_ref()
        .map(|(rows, _)| rows[at].clone())
        .map_err(Clone::clone)
}

fn render_config(c: &ConfigSpec) -> Result<Json, String> {
    let partition = match c.partitioning {
        Partitioning::SharedAll { sets, ways, mode } => Json::Object(vec![
            ("kind".into(), Json::Str("shared".into())),
            ("sets".into(), Json::UInt(u64::from(sets))),
            ("ways".into(), Json::UInt(u64::from(ways))),
            ("mode".into(), Json::Str(mode_name(mode).into())),
        ]),
        Partitioning::PrivateEach { sets, ways } => Json::Object(vec![
            ("kind".into(), Json::Str("private".into())),
            ("sets".into(), Json::UInt(u64::from(sets))),
            ("ways".into(), Json::UInt(u64::from(ways))),
        ]),
    };
    let mut members = vec![
        ("label".into(), Json::Str(c.label.clone())),
        ("partition".into(), partition),
        ("memory".into(), render_memory(&c.memory)?),
    ];
    if let Some(owners) = &c.schedule {
        members.push((
            "schedule".into(),
            Json::Array(owners.iter().map(|&o| Json::UInt(u64::from(o))).collect()),
        ));
    }
    Ok(Json::Object(members))
}

fn mode_name(mode: SharingMode) -> &'static str {
    match mode {
        SharingMode::SetSequencer => "SS",
        SharingMode::BestEffort => "NSS",
    }
}

/// Renders a memory configuration back to its spec-schema object.
///
/// The schema can only express the paper-calibrated banked timing and
/// 64-line rows; anything else was built programmatically and has no
/// wire form — shipping an approximation would silently simulate a
/// different platform, so refuse instead.
fn render_memory(m: &MemoryConfig) -> Result<Json, String> {
    match m {
        MemoryConfig::FixedLatency { latency } => Ok(Json::Object(vec![
            ("kind".into(), Json::Str("fixed".into())),
            ("latency".into(), Json::UInt(latency.as_u64())),
        ])),
        MemoryConfig::Banked {
            timing,
            geometry,
            mapping,
        } => {
            if *timing != DramTiming::PAPER || geometry.row_lines() != 64 {
                return Err(
                    "memory backend uses custom DRAM timing or row geometry, which the \
                     spec schema cannot express"
                        .into(),
                );
            }
            Ok(Json::Object(vec![
                ("kind".into(), Json::Str("banked".into())),
                (
                    "banks".into(),
                    Json::UInt(u64::from(geometry.banks_per_channel())),
                ),
                (
                    "channels".into(),
                    Json::UInt(u64::from(geometry.channels())),
                ),
                (
                    "mapping".into(),
                    Json::Str(
                        match mapping {
                            BankMapping::Interleaved => "interleaved",
                            BankMapping::BankPrivate => "bank-private",
                        }
                        .into(),
                    ),
                ),
            ]))
        }
        MemoryConfig::WorstCaseOf(inner) => {
            if matches!(**inner, MemoryConfig::WorstCaseOf(_)) {
                return Err("nested worst-case memory adapters have no wire form".into());
            }
            let mut members = match render_memory(inner)? {
                Json::Object(m) => m,
                _ => unreachable!("render_memory returns objects"),
            };
            members.push(("worst_case".into(), Json::Bool(true)));
            Ok(Json::Object(members))
        }
        // `MemoryConfig` is non-exhaustive; a backend this crate does
        // not know cannot be expressed in the spec schema either.
        other => Err(format!(
            "memory backend {} has no spec-schema wire form",
            other.label()
        )),
    }
}

fn render_workload(w: &WorkloadEntry) -> Json {
    let mut members = vec![
        ("label".into(), Json::Str(w.label.clone())),
        ("x".into(), Json::UInt(w.x)),
        ("kind".into(), Json::Str(w.spec.kind().into())),
    ];
    let push_u64 = |members: &mut Vec<(String, Json)>, key: &str, v: u64| {
        members.push((key.into(), Json::UInt(v)));
    };
    match w.spec {
        WorkloadSpec::Uniform {
            range_bytes,
            ops,
            seed,
            write_fraction,
        } => {
            push_u64(&mut members, "range_bytes", range_bytes);
            push_u64(&mut members, "ops", ops as u64);
            push_u64(&mut members, "seed", seed);
            members.push(("write_fraction".into(), Json::Float(write_fraction)));
        }
        WorkloadSpec::Stride {
            range_bytes,
            stride,
            ops,
        } => {
            push_u64(&mut members, "range_bytes", range_bytes);
            push_u64(&mut members, "stride", stride);
            push_u64(&mut members, "ops", ops as u64);
        }
        WorkloadSpec::PointerChase {
            range_bytes,
            ops,
            seed,
        } => {
            push_u64(&mut members, "range_bytes", range_bytes);
            push_u64(&mut members, "ops", ops as u64);
            push_u64(&mut members, "seed", seed);
        }
        WorkloadSpec::HotCold {
            range_bytes,
            ops,
            seed,
            hot_fraction,
            hot_probability,
        } => {
            push_u64(&mut members, "range_bytes", range_bytes);
            push_u64(&mut members, "ops", ops as u64);
            push_u64(&mut members, "seed", seed);
            members.push(("hot_fraction".into(), Json::Float(hot_fraction)));
            members.push(("hot_probability".into(), Json::Float(hot_probability)));
        }
    }
    Json::Object(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;

    const SPEC: &str = r#"{
        "name": "point-test", "cores": 2,
        "configs": [
            {"partition": {"kind": "shared", "sets": 1, "ways": 4, "mode": "NSS"}},
            {"label": "wc", "partition": {"kind": "private", "sets": 4, "ways": 2},
             "memory": {"kind": "banked", "banks": 4, "mapping": "bank-private",
                        "worst_case": true},
             "schedule": [0, 1]}
        ],
        "workloads": [
            {"kind": "uniform", "range_bytes": 2048, "ops": 100, "seed": 3,
             "write_fraction": 0.25},
            {"label": "hc", "x": 9, "kind": "hotcold", "range_bytes": 2048, "ops": 100,
             "seed": 11, "hot_fraction": 0.125, "hot_probability": 0.75},
            {"kind": "stride", "range_bytes": 2048, "stride": 128, "ops": 100},
            {"kind": "chase", "range_bytes": 2048, "ops": 100, "seed": 5}
        ]
    }"#;

    fn points() -> Vec<PointRequest> {
        let spec = ExperimentSpec::parse(SPEC).unwrap();
        spec.configs
            .iter()
            .flat_map(|c| {
                spec.workloads.iter().map(move |w| PointRequest {
                    cores: spec.cores,
                    config: c.clone(),
                    workload: w.clone(),
                    attribution: false,
                    twins: Vec::new(),
                })
            })
            .collect()
    }

    /// `config` on `memory`.
    fn on(config: &ConfigSpec, memory: MemoryConfig) -> ConfigSpec {
        ConfigSpec {
            memory,
            ..config.clone()
        }
    }

    #[test]
    fn requests_round_trip_identically() {
        for point in points() {
            let wire = point.render().unwrap();
            let back = PointRequest::parse(&wire).unwrap();
            assert_eq!(back, point, "round trip changed the point: {wire}");
            assert_eq!(back.fingerprint(), point.fingerprint());
            // Rendering is deterministic, so the wire form is too.
            assert_eq!(back.render().unwrap(), wire);
        }
    }

    #[test]
    fn malformed_requests_are_positioned() {
        assert!(matches!(PointRequest::parse("{"), Err(SpecError::Json(_))));
        for (doc, at) in [
            (r#"{"config":{},"workload":{}}"#, "point.cores"),
            (r#"{"cores":0,"config":{},"workload":{}}"#, "point.cores"),
            (r#"{"cores":2,"workload":{}}"#, "point.config"),
            (
                r#"{"cores":2,"config":{"partition":{"kind":"shared","sets":1,"ways":4}}}"#,
                "point.workload",
            ),
            (
                r#"{"cores":2,"config":{"partition":{"kind":"shared","sets":1,"ways":4}},
                    "workload":{"kind":"uniform","range_bytes":64,"ops":1},"extra":1}"#,
                "point",
            ),
        ] {
            match PointRequest::parse(doc).unwrap_err() {
                SpecError::Invalid { at: got, .. } => assert_eq!(got, at, "for {doc}"),
                other => panic!("expected Invalid for {doc}, got {other:?}"),
            }
        }
    }

    #[test]
    fn unrepresentable_memory_is_refused_not_approximated() {
        let mut point = points().remove(0);
        point.config.memory = MemoryConfig::Banked {
            timing: DramTiming {
                t_rcd: 1,
                t_rp: 1,
                t_cas: 1,
                t_wr: 1,
                t_bus: 1,
            },
            geometry: predllc_model::DramGeometry::PAPER,
            mapping: BankMapping::Interleaved,
        };
        assert!(point.render().unwrap_err().contains("custom DRAM timing"));
        let nested = MemoryConfig::banked().worst_case().worst_case();
        point.config.memory = nested;
        assert!(point.render().unwrap_err().contains("nested worst-case"));
    }

    #[test]
    fn measurements_round_trip_and_rederive_rows() {
        for point in points() {
            let config = point.config.build(point.cores).unwrap();
            let workload = point.workload.spec.build(point.cores);
            let measured = measure(&[&config], &workload).0.remove(0).unwrap();
            let back = PointMeasurement::parse(&measured.render()).unwrap();
            assert_eq!(back, measured);
            let row = measured.to_grid_result("c", "w", &config.memory().label(), 7, None);
            let rerow = back.to_grid_result("c", "w", &config.memory().label(), 7, None);
            assert_eq!(row, rerow, "wire trip changed a derived row");
            assert_eq!(row.p100, row.observed_wcl);
            assert!(row.requests > 0);
        }
    }

    #[test]
    fn attributed_requests_and_measurements_round_trip() {
        for mut point in points() {
            point.attribution = true;
            let wire = point.render().unwrap();
            assert!(wire.contains("\"attribution\":true"));
            let back = PointRequest::parse(&wire).unwrap();
            assert_eq!(back, point);
            // The flag addresses a different cache slot than the same
            // point without it.
            let mut off = point.clone();
            off.attribution = false;
            assert_ne!(point.fingerprint(), off.fingerprint());
            // An attribution-off request never mentions the key.
            assert!(!off.render().unwrap().contains("attribution"));

            // The worker path: build with attribution, measure, ship.
            let config = point
                .config
                .build(point.cores)
                .unwrap()
                .with_attribution(true);
            let workload = point.workload.spec.build(point.cores);
            let measured = measure(&[&config], &workload).0.remove(0).unwrap();
            let attr = measured.attribution.as_ref().expect("attribution was on");
            // Component totals sum exactly to the total recorded latency.
            assert_eq!(
                attr.components.total().as_u64(),
                measured.latency.total().as_u64()
            );
            let shipped = PointMeasurement::parse(&measured.render()).unwrap();
            assert_eq!(shipped, measured, "attribution wire trip lost data");
            // The derived grid row carries the attribution along.
            let row = shipped.to_grid_result("c", "w", &config.memory().label(), 1, None);
            assert_eq!(row.attribution.as_deref(), Some(attr));
        }
    }

    #[test]
    fn corrupt_measurements_are_rejected() {
        let point = points().remove(0);
        let config = point.config.build(point.cores).unwrap();
        let measured = measure(&[&config], &point.workload.spec.build(point.cores))
            .0
            .remove(0)
            .unwrap();
        let wire = measured.render();
        // Drop a field, break the count, break a bucket pair.
        let no_field = wire.replace("\"observed_wcl\"", "\"observed\"");
        assert!(PointMeasurement::parse(&no_field)
            .unwrap_err()
            .contains("observed_wcl"));
        let doc = json::parse(&wire).unwrap();
        let mut members = doc.as_object().unwrap().to_vec();
        for m in &mut members {
            if m.0 == "requests" {
                m.1 = Json::UInt(1_000_000);
            }
        }
        assert!(PointMeasurement::from_json(&Json::Object(members))
            .unwrap_err()
            .contains("sum"));
        assert!(PointMeasurement::parse("nope").is_err());
        assert!(PointMeasurement::parse("{}").is_err());
    }

    #[test]
    fn measure_positions_config_failures() {
        // A platform too large to build reaches measure as a Sim/Config
        // error, not a panic.
        let spec = ExperimentSpec::parse(
            r#"{
            "name": "bad", "cores": 2,
            "configs": [{"partition": {"kind": "private", "sets": 1, "ways": 1}}],
            "workloads": [{"kind": "uniform", "range_bytes": 64, "ops": 4, "seed": 1}]
        }"#,
        )
        .unwrap();
        let config = spec.configs[0].build(spec.cores).unwrap();
        // A workload built for the wrong core count fails in the engine.
        let wrong = spec.workloads[0].spec.build(spec.cores + 1);
        assert!(matches!(
            measure(&[&config], &wrong).0.remove(0).unwrap_err(),
            PointError::Sim(_)
        ));
    }

    #[test]
    fn requests_with_twins_round_trip_identically() {
        let backends = [
            MemoryConfig::banked(),
            MemoryConfig::default(),
            MemoryConfig::banked().worst_case(),
        ];
        for mut point in points() {
            point.twins = backends
                .iter()
                .map(|m| on(&point.config, m.clone()))
                .collect();
            let wire = point.render().unwrap();
            assert!(wire.contains("\"twins\":["), "{wire}");
            let back = PointRequest::parse(&wire).unwrap();
            assert_eq!(back, point, "round trip changed the run: {wire}");
            assert_eq!(back.fingerprint(), point.fingerprint());
            assert_eq!(back.render().unwrap(), wire);
        }
        // A twin with no wire form is refused like the first point's
        // own backend.
        let mut point = points().remove(0);
        point.twins = vec![on(
            &point.config,
            MemoryConfig::banked().worst_case().worst_case(),
        )];
        assert!(point.render().unwrap_err().contains("nested worst-case"));
    }

    #[test]
    fn a_one_point_request_keeps_the_wire_of_older_peers() {
        let point = points().remove(0);
        assert_eq!(
            point.render().unwrap(),
            concat!(
                r#"{"cores":2,"config":{"label":"NSS(1,4)","partition":{"kind":"shared","#,
                r#""sets":1,"ways":4,"mode":"NSS"},"memory":{"kind":"fixed","latency":30}},"#,
                r#""workload":{"label":"uniform/2048B","x":2048,"kind":"uniform","#,
                r#""range_bytes":2048,"ops":100,"seed":3,"write_fraction":0.25}}"#
            )
        );
    }

    #[test]
    fn twins_are_positioned_and_never_ride_with_attribution() {
        let mut point = points().remove(0);
        point.twins = vec![on(&point.config, MemoryConfig::banked())];
        let wire = point.render().unwrap();
        let attributed = wire.replacen(r#""twins""#, r#""attribution":true,"twins""#, 1);
        let bad_kind = wire.replacen(r#""kind":"banked""#, r#""kind":"sram""#, 1);
        for (doc, at) in [
            (attributed.as_str(), "point.twins"),
            (bad_kind.as_str(), "point.twins[0].memory.kind"),
            (
                r#"{"cores":2,"config":{"partition":{"kind":"shared","sets":1,"ways":4}},
                    "workload":{"kind":"uniform","range_bytes":64,"ops":1},"twins":{}}"#,
                "point.twins",
            ),
        ] {
            match PointRequest::parse(doc).unwrap_err() {
                SpecError::Invalid { at: got, .. } => assert_eq!(got, at, "for {doc}"),
                other => panic!("expected Invalid for {doc}, got {other:?}"),
            }
        }
    }

    /// The measurement of `config`'s point measured alone.
    fn alone(config: &SystemConfig, workload: &dyn Workload) -> PointMeasurement {
        let (mut measured, runs) = measure(&[config], workload);
        assert_eq!(runs, 1);
        measured.remove(0).unwrap()
    }

    #[test]
    fn a_run_measures_each_member_as_its_own_point() {
        let first = points().remove(0);
        let point = PointRequest {
            twins: vec![
                on(&first.config, MemoryConfig::banked()),
                on(&first.config, MemoryConfig::default()),
            ],
            ..first
        };
        let members: Vec<SystemConfig> = point
            .members()
            .iter()
            .map(|c| c.build(point.cores).unwrap())
            .collect();
        let workload = point.workload.spec.build(point.cores);
        let (group, runs) = measure(&members.iter().collect::<Vec<_>>(), &workload);
        assert_eq!((group.len(), runs), (3, 1));
        for (config, got) in members.iter().zip(group) {
            assert_eq!(got.unwrap(), alone(config, &workload));
        }
    }

    /// One SS and one NSS point per backend, of `spec`'s first workload.
    fn mode_group(range_bytes: u64, write_fraction: f64) -> (Vec<SystemConfig>, Box<dyn Workload>) {
        let spec = ExperimentSpec::parse(&format!(
            r#"{{"name": "modes", "cores": 4,
                "configs": [{{"partition": {{"kind": "shared", "sets": 2, "ways": 4, "mode": "NSS"}},
                             "memory": {{"kind": "banked", "banks": 8}}}}],
                "workloads": [{{"kind": "uniform", "range_bytes": {range_bytes}, "ops": 200,
                               "seed": 7, "write_fraction": {write_fraction}}}]}}"#
        ))
        .unwrap();
        let nss = &spec.configs[0];
        let ss = |memory| ConfigSpec {
            partitioning: Partitioning::SharedAll {
                sets: 2,
                ways: 4,
                mode: SharingMode::SetSequencer,
            },
            memory,
            ..nss.clone()
        };
        let point = PointRequest {
            cores: spec.cores,
            config: nss.clone(),
            workload: spec.workloads[0].clone(),
            attribution: false,
            twins: vec![
                on(nss, MemoryConfig::default()),
                ss(MemoryConfig::default()),
                ss(MemoryConfig::bank_private()),
            ],
        };
        let members = point
            .members()
            .iter()
            .map(|c| c.build(spec.cores).unwrap())
            .collect();
        (members, point.workload.spec.build(spec.cores))
    }

    #[test]
    fn a_mode_group_measures_each_member_as_its_own_point() {
        // Reads of a working set that fits (every eviction frees in its
        // own slot, so no request waits in a queue) fold the NSS points
        // into the SS run; writes to a larger one do not.
        for (range_bytes, write_fraction, runs) in [(1024, 0.0, 1), (8192, 0.5, 2)] {
            let (members, workload) = mode_group(range_bytes, write_fraction);
            let (group, ran) = measure(&members.iter().collect::<Vec<_>>(), &workload);
            assert_eq!(ran, runs, "{range_bytes} B, writes {write_fraction}");
            for (config, got) in members.iter().zip(group) {
                assert_eq!(got.unwrap(), alone(config, &workload));
            }
        }
    }

    #[test]
    fn requests_with_mode_twins_round_trip_and_name_their_members() {
        let first = points().remove(0);
        let shared = |ways, mode| Partitioning::SharedAll {
            sets: 1,
            ways,
            mode,
        };
        let (nss, ss) = (
            shared(4, SharingMode::BestEffort),
            shared(4, SharingMode::SetSequencer),
        );
        let in_ss = |memory| ConfigSpec {
            partitioning: ss.clone(),
            memory,
            ..first.config.clone()
        };
        let point = PointRequest {
            twins: vec![
                on(&first.config, MemoryConfig::banked()),
                in_ss(MemoryConfig::default()),
                in_ss(MemoryConfig::banked().worst_case()),
            ],
            ..first.clone()
        };
        let wire = point.render().unwrap();
        let back = PointRequest::parse(&wire).unwrap();
        assert_eq!(back, point);
        assert_eq!(back.render().unwrap(), wire);
        let members: Vec<(Partitioning, MemoryConfig)> = point
            .members()
            .into_iter()
            .map(|c| (c.partitioning.clone(), c.memory.clone()))
            .collect();
        assert_eq!(
            members,
            [
                (nss.clone(), MemoryConfig::default()),
                (nss, MemoryConfig::banked()),
                (ss.clone(), MemoryConfig::default()),
                (ss.clone(), MemoryConfig::banked().worst_case()),
            ]
        );
        // Twins ride on no attributed point, and a twin outside the
        // first point's run group is refused at its own position: other
        // ways, a private partition under a shared first point, another
        // schedule.
        let attributed = wire.replacen(r#""twins""#, r#""attribution":true,"twins""#, 1);
        let outside = |twin: ConfigSpec| {
            PointRequest {
                twins: vec![in_ss(MemoryConfig::banked()), twin],
                ..first.clone()
            }
            .render()
            .unwrap()
        };
        let other_ways = outside(ConfigSpec {
            partitioning: shared(2, SharingMode::BestEffort),
            ..first.config.clone()
        });
        let private = outside(ConfigSpec {
            partitioning: Partitioning::PrivateEach { sets: 1, ways: 4 },
            ..first.config.clone()
        });
        let schedule = outside(ConfigSpec {
            schedule: Some(vec![1, 0]),
            ..first.config.clone()
        });
        for (doc, at) in [
            (attributed.as_str(), "point.twins"),
            (other_ways.as_str(), "point.twins[1]"),
            (private.as_str(), "point.twins[1]"),
            (schedule.as_str(), "point.twins[1]"),
        ] {
            match PointRequest::parse(doc).unwrap_err() {
                SpecError::Invalid { at: got, .. } => assert_eq!(got, at, "for {doc}"),
                other => panic!("expected Invalid for {doc}, got {other:?}"),
            }
        }
    }
}
