//! The experiment-spec layer: a JSON description of a design-space grid
//! — partition geometries, sharing modes, TDM schedules, memory
//! backends, workloads — plus an optional taskset and search block.
//!
//! The schema (all `memory`, `schedule`, `tasks` and `search` blocks are
//! optional):
//!
//! ```json
//! {
//!   "name": "demo",
//!   "cores": 4,
//!   "configs": [
//!     {"label": "SS(1,16,4)",
//!      "partition": {"kind": "shared", "sets": 1, "ways": 16, "mode": "SS"},
//!      "memory": {"kind": "banked", "banks": 8, "mapping": "bank-private"},
//!      "schedule": [0, 1, 2, 3]},
//!     {"label": "P(8,2)",
//!      "partition": {"kind": "private", "sets": 8, "ways": 2}}
//!   ],
//!   "workloads": [
//!     {"label": "u/8KiB", "kind": "uniform", "range_bytes": 8192,
//!      "ops": 2000, "seed": 7, "write_fraction": 0.2},
//!     {"kind": "stride", "range_bytes": 8192, "stride": 64, "ops": 2000}
//!   ],
//!   "tasks": [
//!     {"name": "control", "core": 0, "period": 1000000,
//!      "deadline": 1000000, "compute": 100000, "llc_requests": 500}
//!   ],
//!   "search": {"arrangements": ["private", "SS", "NSS"],
//!              "max_sets": 32, "max_ways": 16}
//! }
//! ```

use std::fmt;

use predllc_bus::TdmSchedule;
use predllc_core::analysis::TaskParams;
use predllc_core::{ConfigError, PartitionSpec, SharingMode, SystemConfig, SystemConfigBuilder};
use predllc_dram::{BankMapping, DramTiming, MemoryConfig};
use predllc_model::{CacheGeometry, CoreId, Cycles, DramGeometry};
use predllc_workload::WorkloadSpec;

use crate::json::{self, Json, JsonError};

/// A spec-file failure: either malformed JSON or a well-formed document
/// that violates the schema.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document does not match the spec schema.
    Invalid {
        /// Where in the document (a `configs[2].partition`-style path).
        at: String,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "spec is not valid json: {e}"),
            SpecError::Invalid { at, message } => write!(f, "invalid spec at {at}: {message}"),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Json(e) => Some(e),
            SpecError::Invalid { .. } => None,
        }
    }
}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

fn invalid(at: impl Into<String>, message: impl Into<String>) -> SpecError {
    SpecError::Invalid {
        at: at.into(),
        message: message.into(),
    }
}

/// How the LLC is carved for one grid configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Partitioning {
    /// One `sets × ways` partition shared by every core.
    SharedAll {
        /// Sets in the partition.
        sets: u32,
        /// Ways per set.
        ways: u32,
        /// How intra-partition contention is resolved.
        mode: SharingMode,
    },
    /// A private `sets × ways` partition per core.
    PrivateEach {
        /// Sets per private partition.
        sets: u32,
        /// Ways per private partition.
        ways: u32,
    },
}

/// One configuration column of the grid: a partitioning, a memory
/// backend and an optional TDM schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSpec {
    /// Report label.
    pub label: String,
    /// The LLC carve.
    pub partitioning: Partitioning,
    /// The memory backend (default: the seed's fixed 30-cycle DRAM).
    pub memory: MemoryConfig,
    /// Slot owners of a custom TDM schedule (default: 1S-TDM).
    pub schedule: Option<Vec<u16>>,
}

impl ConfigSpec {
    /// Builds the validated platform configuration for `cores` cores.
    ///
    /// # Errors
    ///
    /// Any [`ConfigError`] the builder raises (capacity, schedule,
    /// slot-budget, …).
    pub fn build(&self, cores: u16) -> Result<SystemConfig, ConfigError> {
        let partitions = match self.partitioning {
            Partitioning::SharedAll { sets, ways, mode } => vec![PartitionSpec::shared(
                sets,
                ways,
                CoreId::first(cores).collect(),
                mode,
            )],
            Partitioning::PrivateEach { sets, ways } => CoreId::first(cores)
                .map(|c| PartitionSpec::private(sets, ways, c))
                .collect(),
        };
        let mut builder = SystemConfigBuilder::new(cores)
            .partitions(partitions)
            .memory(self.memory.clone());
        if let Some(owners) = &self.schedule {
            let slots = owners.iter().map(|&i| CoreId::new(i)).collect();
            builder = builder.schedule(TdmSchedule::new(slots)?);
        }
        builder.build()
    }
}

/// One workload row of the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadEntry {
    /// Report label.
    pub label: String,
    /// Numeric x-axis value (defaults to the spec's `range_bytes`).
    pub x: u64,
    /// The buildable generator description.
    pub spec: WorkloadSpec,
}

/// A partition arrangement the search may propose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrangement {
    /// A private partition per core.
    Private,
    /// One partition shared by every core under `SharingMode`.
    Shared(SharingMode),
}

impl fmt::Display for Arrangement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arrangement::Private => f.write_str("P"),
            Arrangement::Shared(mode) => write!(f, "{mode}"),
        }
    }
}

/// The schedulability-driven search block: which arrangements to try
/// and how large a partition may grow.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// Arrangements to consider, in preference order for ties.
    pub arrangements: Vec<Arrangement>,
    /// Largest set count considered (candidates are the powers of two
    /// up to this).
    pub max_sets: u32,
    /// Largest way count considered (candidates are `1..=max_ways`).
    pub max_ways: u32,
    /// The memory backend candidates run with.
    pub memory: MemoryConfig,
    /// The physical LLC candidates must pack into.
    pub physical: CacheGeometry,
}

/// A fully parsed experiment specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment name (report header).
    pub name: String,
    /// Core count every configuration and workload is built for.
    pub cores: u16,
    /// The configuration axis.
    pub configs: Vec<ConfigSpec>,
    /// The workload axis.
    pub workloads: Vec<WorkloadEntry>,
    /// The taskset the search block analyzes (may be empty).
    pub tasks: Vec<TaskParams>,
    /// The optional partition search.
    pub search: Option<SearchSpec>,
    /// Whether every grid point runs with latency attribution (exact
    /// per-component latency decomposition, WCL witness, gap report).
    /// Attribution only *reads* the simulation — every existing output
    /// is bit-identical with it on or off.
    pub attribution: bool,
}

impl ExperimentSpec {
    /// Parses a spec document.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the failing path for schema violations, or
    /// the byte offset for JSON syntax errors.
    pub fn parse(input: &str) -> Result<ExperimentSpec, SpecError> {
        let doc = json::parse(input)?;
        check_keys(
            &doc,
            &[
                "name",
                "cores",
                "configs",
                "workloads",
                "tasks",
                "search",
                "attribution",
            ],
            "spec",
        )?;
        let name = require_str(&doc, "name", "spec")?.to_string();
        let cores = require_u64(&doc, "cores", "spec")?;
        if cores == 0 || cores > u64::from(u16::MAX) {
            return Err(invalid("cores", format!("core count {cores} out of range")));
        }
        let cores = cores as u16;

        let configs_json = doc
            .get("configs")
            .and_then(Json::as_array)
            .ok_or_else(|| invalid("configs", "required array missing"))?;
        let mut configs = Vec::with_capacity(configs_json.len());
        for (i, c) in configs_json.iter().enumerate() {
            configs.push(parse_config(c, &format!("configs[{i}]"))?);
        }

        let workloads_json = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or_else(|| invalid("workloads", "required array missing"))?;
        let mut workloads = Vec::with_capacity(workloads_json.len());
        for (i, w) in workloads_json.iter().enumerate() {
            workloads.push(parse_workload(w, &format!("workloads[{i}]"))?);
        }
        if configs.is_empty() && workloads.is_empty() {
            return Err(invalid("spec", "no configurations or workloads declared"));
        }

        let mut tasks = Vec::new();
        if let Some(list) = doc.get("tasks") {
            let list = list
                .as_array()
                .ok_or_else(|| invalid("tasks", "must be an array"))?;
            for (i, t) in list.iter().enumerate() {
                tasks.push(parse_task(t, cores, &format!("tasks[{i}]"))?);
            }
        }

        let search = match doc.get("search") {
            None => None,
            Some(s) => Some(parse_search(s, "search")?),
        };
        if search.is_some() && tasks.is_empty() {
            return Err(invalid(
                "search",
                "a search block needs a non-empty taskset",
            ));
        }

        let attribution = match doc.get("attribution") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| invalid("attribution", "must be a boolean"))?,
        };

        Ok(ExperimentSpec {
            name,
            cores,
            configs,
            workloads,
            tasks,
            search,
            attribution,
        })
    }

    /// Number of grid points (`configs × workloads`).
    pub fn grid_len(&self) -> usize {
        self.configs.len() * self.workloads.len()
    }
}

/// Rejects objects with keys outside `allowed` — a typo'd field must
/// not silently fall back to a default and change which experiment
/// runs.
pub(crate) fn check_keys(doc: &Json, allowed: &[&str], at: &str) -> Result<(), SpecError> {
    let members = doc
        .as_object()
        .ok_or_else(|| invalid(at, "must be an object"))?;
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(invalid(
                at,
                format!("unknown field '{key}' (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn require<'a>(doc: &'a Json, key: &str, at: &str) -> Result<&'a Json, SpecError> {
    doc.get(key)
        .ok_or_else(|| invalid(format!("{at}.{key}"), "required field missing"))
}

fn require_str<'a>(doc: &'a Json, key: &str, at: &str) -> Result<&'a str, SpecError> {
    require(doc, key, at)?
        .as_str()
        .ok_or_else(|| invalid(format!("{at}.{key}"), "must be a string"))
}

fn require_u64(doc: &Json, key: &str, at: &str) -> Result<u64, SpecError> {
    require(doc, key, at)?
        .as_u64()
        .ok_or_else(|| invalid(format!("{at}.{key}"), "must be a non-negative integer"))
}

fn optional_u64(doc: &Json, key: &str, at: &str, default: u64) -> Result<u64, SpecError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| invalid(format!("{at}.{key}"), "must be a non-negative integer")),
    }
}

fn optional_f64(doc: &Json, key: &str, at: &str, default: f64) -> Result<f64, SpecError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| invalid(format!("{at}.{key}"), "must be a number")),
    }
}

fn geometry_u32(value: u64, key: &str, at: &str) -> Result<u32, SpecError> {
    u32::try_from(value).map_err(|_| invalid(format!("{at}.{key}"), "value too large"))
}

fn parse_mode(text: &str, at: &str) -> Result<SharingMode, SpecError> {
    match text {
        "SS" => Ok(SharingMode::SetSequencer),
        "NSS" => Ok(SharingMode::BestEffort),
        other => Err(invalid(
            at,
            format!("unknown sharing mode '{other}' (SS or NSS)"),
        )),
    }
}

pub(crate) fn parse_config(doc: &Json, at: &str) -> Result<ConfigSpec, SpecError> {
    check_keys(doc, &["label", "partition", "memory", "schedule"], at)?;
    let partition = require(doc, "partition", at)?;
    let p_at = format!("{at}.partition");
    check_keys(partition, &["kind", "sets", "ways", "mode"], &p_at)?;
    let sets = geometry_u32(require_u64(partition, "sets", &p_at)?, "sets", &p_at)?;
    let ways = geometry_u32(require_u64(partition, "ways", &p_at)?, "ways", &p_at)?;
    let partitioning = match require_str(partition, "kind", &p_at)? {
        "shared" => Partitioning::SharedAll {
            sets,
            ways,
            mode: parse_mode(
                partition.get("mode").and_then(Json::as_str).unwrap_or("SS"),
                &format!("{p_at}.mode"),
            )?,
        },
        "private" => Partitioning::PrivateEach { sets, ways },
        other => {
            return Err(invalid(
                format!("{p_at}.kind"),
                format!("unknown partition kind '{other}' (shared or private)"),
            ))
        }
    };
    let memory = match doc.get("memory") {
        None => MemoryConfig::default(),
        Some(m) => parse_memory(m, &format!("{at}.memory"))?,
    };
    let schedule = match doc.get("schedule") {
        None => None,
        Some(s) => {
            let slots = s
                .as_array()
                .ok_or_else(|| invalid(format!("{at}.schedule"), "must be an array of core ids"))?;
            let mut owners = Vec::with_capacity(slots.len());
            for slot in slots {
                let v = slot.as_u64().ok_or_else(|| {
                    invalid(format!("{at}.schedule"), "slot owners must be integers")
                })?;
                owners.push(u16::try_from(v).map_err(|_| {
                    invalid(
                        format!("{at}.schedule"),
                        format!("core id {v} out of range"),
                    )
                })?);
            }
            Some(owners)
        }
    };
    let label = match doc.get("label") {
        Some(l) => l
            .as_str()
            .ok_or_else(|| invalid(format!("{at}.label"), "must be a string"))?
            .to_string(),
        None => match &partitioning {
            Partitioning::SharedAll { sets, ways, mode } => format!("{mode}({sets},{ways})"),
            Partitioning::PrivateEach { sets, ways } => format!("P({sets},{ways})"),
        },
    };
    Ok(ConfigSpec {
        label,
        partitioning,
        memory,
        schedule,
    })
}

pub(crate) fn parse_memory(doc: &Json, at: &str) -> Result<MemoryConfig, SpecError> {
    check_keys(
        doc,
        &[
            "kind",
            "latency",
            "banks",
            "channels",
            "mapping",
            "worst_case",
        ],
        at,
    )?;
    let config = match require_str(doc, "kind", at)? {
        "fixed" => MemoryConfig::fixed(Cycles::new(optional_u64(doc, "latency", at, 30)?)),
        "banked" => {
            let banks = geometry_u32(optional_u64(doc, "banks", at, 8)?, "banks", at)?;
            let channels = geometry_u32(optional_u64(doc, "channels", at, 1)?, "channels", at)?;
            let mapping = match doc
                .get("mapping")
                .and_then(Json::as_str)
                .unwrap_or("interleaved")
            {
                "interleaved" => BankMapping::Interleaved,
                "bank-private" => BankMapping::BankPrivate,
                other => {
                    return Err(invalid(
                        format!("{at}.mapping"),
                        format!("unknown mapping '{other}' (interleaved or bank-private)"),
                    ))
                }
            };
            MemoryConfig::Banked {
                timing: DramTiming::PAPER,
                geometry: DramGeometry::new(channels, banks, 64)
                    .map_err(|e| invalid(at, e.to_string()))?,
                mapping,
            }
        }
        other => {
            return Err(invalid(
                format!("{at}.kind"),
                format!("unknown memory kind '{other}' (fixed or banked)"),
            ))
        }
    };
    Ok(
        if doc.get("worst_case").and_then(Json::as_bool) == Some(true) {
            config.worst_case()
        } else {
            config
        },
    )
}

pub(crate) fn parse_workload(doc: &Json, at: &str) -> Result<WorkloadEntry, SpecError> {
    check_keys(
        doc,
        &[
            "label",
            "x",
            "kind",
            "range_bytes",
            "ops",
            "seed",
            "write_fraction",
            "stride",
            "hot_fraction",
            "hot_probability",
        ],
        at,
    )?;
    let kind = require_str(doc, "kind", at)?;
    let range_bytes = require_u64(doc, "range_bytes", at)?;
    let ops = require_u64(doc, "ops", at)? as usize;
    let seed = optional_u64(doc, "seed", at, 0xD0E5_11C5)?;
    let spec = match kind {
        "uniform" => WorkloadSpec::Uniform {
            range_bytes,
            ops,
            seed,
            write_fraction: optional_f64(doc, "write_fraction", at, 0.0)?,
        },
        "stride" => WorkloadSpec::Stride {
            range_bytes,
            stride: optional_u64(doc, "stride", at, 64)?,
            ops,
        },
        "chase" => WorkloadSpec::PointerChase {
            range_bytes,
            ops,
            seed,
        },
        "hotcold" => WorkloadSpec::HotCold {
            range_bytes,
            ops,
            seed,
            hot_fraction: optional_f64(doc, "hot_fraction", at, 0.1)?,
            hot_probability: optional_f64(doc, "hot_probability", at, 0.9)?,
        },
        other => {
            return Err(invalid(
                format!("{at}.kind"),
                format!("unknown workload kind '{other}' (uniform, stride, chase, hotcold)"),
            ))
        }
    };
    spec.validate().map_err(|m| invalid(at, m))?;
    let label = match doc.get("label") {
        Some(l) => l
            .as_str()
            .ok_or_else(|| invalid(format!("{at}.label"), "must be a string"))?
            .to_string(),
        None => format!("{}/{}B", spec.kind(), range_bytes),
    };
    let x = optional_u64(doc, "x", at, range_bytes)?;
    Ok(WorkloadEntry { label, x, spec })
}

fn parse_task(doc: &Json, cores: u16, at: &str) -> Result<TaskParams, SpecError> {
    check_keys(
        doc,
        &[
            "name",
            "core",
            "period",
            "deadline",
            "compute",
            "llc_requests",
        ],
        at,
    )?;
    let core = require_u64(doc, "core", at)?;
    if core >= u64::from(cores) {
        return Err(invalid(
            format!("{at}.core"),
            format!("core {core} out of range for a {cores}-core system"),
        ));
    }
    let period = require_u64(doc, "period", at)?;
    let deadline = optional_u64(doc, "deadline", at, period)?;
    Ok(TaskParams {
        name: require_str(doc, "name", at)?.to_string(),
        core: CoreId::new(core as u16),
        period: Cycles::new(period),
        deadline: Cycles::new(deadline),
        compute: Cycles::new(require_u64(doc, "compute", at)?),
        llc_requests: require_u64(doc, "llc_requests", at)?,
    })
}

fn parse_search(doc: &Json, at: &str) -> Result<SearchSpec, SpecError> {
    check_keys(
        doc,
        &["arrangements", "max_sets", "max_ways", "memory", "physical"],
        at,
    )?;
    let arrangements_json = doc
        .get("arrangements")
        .and_then(Json::as_array)
        .ok_or_else(|| invalid(format!("{at}.arrangements"), "required array missing"))?;
    let mut arrangements = Vec::with_capacity(arrangements_json.len());
    for a in arrangements_json {
        let text = a
            .as_str()
            .ok_or_else(|| invalid(format!("{at}.arrangements"), "entries must be strings"))?;
        arrangements.push(match text {
            "private" => Arrangement::Private,
            mode => Arrangement::Shared(parse_mode(mode, &format!("{at}.arrangements"))?),
        });
    }
    if arrangements.is_empty() {
        return Err(invalid(format!("{at}.arrangements"), "must not be empty"));
    }
    let max_sets = geometry_u32(require_u64(doc, "max_sets", at)?, "max_sets", at)?;
    let max_ways = geometry_u32(require_u64(doc, "max_ways", at)?, "max_ways", at)?;
    if max_sets == 0 || max_ways == 0 {
        return Err(invalid(at, "max_sets and max_ways must be non-zero"));
    }
    let memory = match doc.get("memory") {
        None => MemoryConfig::default(),
        Some(m) => parse_memory(m, &format!("{at}.memory"))?,
    };
    let physical = match doc.get("physical") {
        None => CacheGeometry::PAPER_L3,
        Some(p) => {
            let p_at = format!("{at}.physical");
            check_keys(p, &["sets", "ways"], &p_at)?;
            CacheGeometry::new(
                geometry_u32(require_u64(p, "sets", &p_at)?, "sets", &p_at)?,
                geometry_u32(require_u64(p, "ways", &p_at)?, "ways", &p_at)?,
                64,
            )
            .map_err(|e| invalid(p_at, e.to_string()))?
        }
    };
    Ok(SearchSpec {
        arrangements,
        max_sets,
        max_ways,
        memory,
        physical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"{
        "name": "demo",
        "cores": 4,
        "configs": [
            {"label": "SS(1,16,4)",
             "partition": {"kind": "shared", "sets": 1, "ways": 16, "mode": "SS"}},
            {"partition": {"kind": "private", "sets": 8, "ways": 2},
             "memory": {"kind": "banked", "banks": 8, "mapping": "bank-private"},
             "schedule": [0, 1, 2, 3]}
        ],
        "workloads": [
            {"kind": "uniform", "range_bytes": 8192, "ops": 200, "seed": 7,
             "write_fraction": 0.2},
            {"label": "walk", "kind": "stride", "range_bytes": 4096, "ops": 100}
        ],
        "tasks": [
            {"name": "control", "core": 0, "period": 1000000,
             "compute": 100000, "llc_requests": 500}
        ],
        "search": {"arrangements": ["private", "SS"], "max_sets": 8, "max_ways": 8}
    }"#;

    #[test]
    fn parses_the_full_schema() {
        let spec = ExperimentSpec::parse(FULL).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.cores, 4);
        assert_eq!(spec.grid_len(), 4);
        // Default labels derive from the content.
        assert_eq!(spec.configs[1].label, "P(8,2)");
        assert_eq!(spec.workloads[0].label, "uniform/8192B");
        assert_eq!(spec.workloads[0].x, 8192);
        assert_eq!(spec.workloads[1].label, "walk");
        // Deadline defaults to the period.
        assert_eq!(spec.tasks[0].deadline, spec.tasks[0].period);
        let search = spec.search.unwrap();
        assert_eq!(search.arrangements.len(), 2);
        assert_eq!(search.physical, CacheGeometry::PAPER_L3);
        assert_eq!(search.memory, MemoryConfig::default());
    }

    #[test]
    fn attribution_flag_parses_and_defaults_off() {
        assert!(!ExperimentSpec::parse(FULL).unwrap().attribution);
        let on = FULL.replacen(
            "\"name\": \"demo\",",
            "\"name\": \"demo\", \"attribution\": true,",
            1,
        );
        assert!(ExperimentSpec::parse(&on).unwrap().attribution);
        // Non-boolean values are rejected with a positioned error.
        let bad = r#"{"name":"x","cores":2,"configs":[],
            "workloads":[{"kind":"uniform","range_bytes":64,"ops":1}],
            "attribution":1}"#;
        match ExperimentSpec::parse(bad).unwrap_err() {
            SpecError::Invalid { at, .. } => assert_eq!(at, "attribution"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn configs_build_real_platforms() {
        let spec = ExperimentSpec::parse(FULL).unwrap();
        let shared = spec.configs[0].build(4).unwrap();
        assert_eq!(shared.partitions().len(), 1);
        assert_eq!(shared.memory(), &MemoryConfig::default());
        let private = spec.configs[1].build(4).unwrap();
        assert_eq!(private.partitions().len(), 4);
        assert_eq!(private.memory(), &MemoryConfig::bank_private());
        assert_eq!(private.schedule().period(), 4);
    }

    #[test]
    fn schema_violations_name_their_path() {
        for (doc, path) in [
            (r#"{"cores": 2}"#, "spec.name"),
            (
                r#"{"name": "x", "cores": 0, "configs": [], "workloads": []}"#,
                "cores",
            ),
            (
                r#"{"name":"x","cores":2,"configs":[{"partition":{"kind":"lattice","sets":1,"ways":1}}],"workloads":[]}"#,
                "configs[0].partition.kind",
            ),
            (
                r#"{"name":"x","cores":2,"configs":[],"workloads":[{"kind":"uniform","range_bytes":8,"ops":1}]}"#,
                "workloads[0]",
            ),
            (
                r#"{"name":"x","cores":2,"configs":[],"workloads":[{"kind":"uniform","range_bytes":64,"ops":1}],"tasks":[{"name":"t","core":9,"period":1,"compute":1,"llc_requests":0}]}"#,
                "tasks[0].core",
            ),
            (
                r#"{"name":"x","cores":2,"configs":[],"workloads":[{"kind":"uniform","range_bytes":64,"ops":1}],"search":{"arrangements":["SS"],"max_sets":1,"max_ways":1}}"#,
                "search",
            ),
        ] {
            match ExperimentSpec::parse(doc).unwrap_err() {
                SpecError::Invalid { at, .. } => assert_eq!(at, path, "for {doc}"),
                other => panic!("expected Invalid for {doc}, got {other:?}"),
            }
        }
        assert!(matches!(
            ExperimentSpec::parse("{").unwrap_err(),
            SpecError::Json(_)
        ));
    }

    #[test]
    fn unknown_fields_are_rejected_not_defaulted() {
        // A typo'd key must not silently run a different experiment.
        for (doc, path) in [
            (
                r#"{"name":"x","cores":2,"configz":[],"configs":[],"workloads":[{"kind":"uniform","range_bytes":64,"ops":1}]}"#,
                "spec",
            ),
            (
                r#"{"name":"x","cores":2,"workloads":[],"configs":[{"partition":{"kind":"private","sets":1,"ways":1},"memori":{"kind":"banked"}}]}"#,
                "configs[0]",
            ),
            (
                r#"{"name":"x","cores":2,"workloads":[],"configs":[{"partition":{"kind":"private","sets":1,"ways":1},"memory":{"kind":"banked","bank":4}}]}"#,
                "configs[0].memory",
            ),
            (
                r#"{"name":"x","cores":2,"configs":[],"workloads":[{"kind":"uniform","range_bytes":64,"ops":1,"sead":3}]}"#,
                "workloads[0]",
            ),
        ] {
            match ExperimentSpec::parse(doc).unwrap_err() {
                SpecError::Invalid { at, message } => {
                    assert_eq!(at, path, "for {doc}");
                    assert!(message.contains("unknown field"), "{message}");
                }
                other => panic!("expected Invalid for {doc}, got {other:?}"),
            }
        }
    }

    #[test]
    fn memory_blocks_cover_all_backends() {
        let parse = |body: &str| parse_memory(&json::parse(body).unwrap(), "m").unwrap();
        assert_eq!(
            parse(r#"{"kind":"fixed","latency":25}"#),
            MemoryConfig::fixed(Cycles::new(25))
        );
        assert_eq!(parse(r#"{"kind":"banked"}"#), MemoryConfig::banked());
        assert_eq!(
            parse(r#"{"kind":"banked","worst_case":true}"#),
            MemoryConfig::banked().worst_case()
        );
    }

    #[test]
    fn errors_display_helpfully() {
        let err = ExperimentSpec::parse(r#"{"name":1}"#).unwrap_err();
        assert!(err.to_string().contains("spec.name"));
        let jerr = ExperimentSpec::parse("nope").unwrap_err();
        assert!(jerr.to_string().contains("json"));
    }
}
