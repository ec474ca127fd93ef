//! Simulator configuration: the whole platform in one validated value.

use predllc_bus::{ArbiterPolicy, TdmSchedule};
use predllc_cache::ReplacementKind;
use predllc_dram::MemoryConfig;
use predllc_model::{CacheGeometry, CoreId, Cycles, SlotWidth};

use std::fmt;

use crate::error::ConfigError;
use crate::partition::{PartitionMap, PartitionSpec, SharingMode};

/// Which simulation loop [`crate::Simulator::run`] executes.
///
/// Both engines produce bit-identical [`crate::RunReport`]s — same
/// [`crate::SimStats`], same latency histograms, same event logs — the
/// fast-forward engine just gets there without walking every bus slot:
/// it batch-advances private-hit runs, walks the TDM schedule to the
/// next slot whose owner can transmit (leaping the idle slots before
/// it), and records steady LLC-hit runs' latencies in bulk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineMode {
    /// The slot-by-slot reference loop (the oracle the fast-forward
    /// engine is differentially tested against).
    Reference,
    /// The fast-forward loop, event recording included. This is the
    /// default.
    #[default]
    FastForward,
}

impl fmt::Display for EngineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineMode::Reference => f.write_str("reference"),
            EngineMode::FastForward => f.write_str("fast-forward"),
        }
    }
}

/// A validated simulator configuration.
///
/// Use the convenience constructors for the paper's three configuration
/// families, or [`SystemConfig::builder`] for full control.
///
/// # Examples
///
/// ```
/// use predllc_core::{SharingMode, SystemConfig};
///
/// # fn main() -> Result<(), predllc_core::ConfigError> {
/// // NSS(1,2,4): four cores share a 1-set x 2-way partition, best effort.
/// let nss = SystemConfig::shared_partition(1, 2, 4, SharingMode::BestEffort)?;
/// assert_eq!(nss.num_cores(), 4);
///
/// // P(8,2) x 4: every core gets a private 8-set x 2-way partition.
/// let p = SystemConfig::private_partitions(8, 2, 4)?;
/// assert!(p.partitions().partitions().iter().all(|s| s.is_private()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SystemConfig {
    num_cores: u16,
    schedule: TdmSchedule,
    slot_width: SlotWidth,
    l1i: CacheGeometry,
    l1d: CacheGeometry,
    l2: CacheGeometry,
    l1_latency: Cycles,
    l2_latency: Cycles,
    partitions: PartitionMap,
    llc_replacement: ReplacementKind,
    private_replacement: ReplacementKind,
    arbiter: ArbiterPolicy,
    memory: MemoryConfig,
    max_cycles: Option<u64>,
    record_events: bool,
    engine: EngineMode,
    attribution: bool,
}

impl SystemConfig {
    /// Starts building a configuration with the paper's platform
    /// defaults: 50-cycle slots, 1S-TDM, L2 = 16×4, LLC replacement LRU,
    /// write-back-first arbitration, fixed 30-cycle DRAM.
    pub fn builder(num_cores: u16) -> SystemConfigBuilder {
        SystemConfigBuilder::new(num_cores)
    }

    /// `SS(sets, ways, n)` / `NSS(sets, ways, n)`: all `n` cores share one
    /// partition under the given mode, with paper defaults elsewhere.
    ///
    /// # Errors
    ///
    /// Propagates validation failures (degenerate geometry, oversized
    /// partition, …).
    pub fn shared_partition(
        sets: u32,
        ways: u32,
        n: u16,
        mode: SharingMode,
    ) -> Result<SystemConfig, ConfigError> {
        SystemConfigBuilder::new(n)
            .partitions(vec![PartitionSpec::shared(
                sets,
                ways,
                CoreId::first(n).collect(),
                mode,
            )])
            .build()
    }

    /// `P(sets, ways)` for each of `n` cores: fully private partitioning.
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn private_partitions(sets: u32, ways: u32, n: u16) -> Result<SystemConfig, ConfigError> {
        SystemConfigBuilder::new(n)
            .partitions(
                CoreId::first(n)
                    .map(|c| PartitionSpec::private(sets, ways, c))
                    .collect(),
            )
            .build()
    }

    /// Number of cores.
    pub fn num_cores(&self) -> u16 {
        self.num_cores
    }

    /// The TDM bus schedule.
    pub fn schedule(&self) -> &TdmSchedule {
        &self.schedule
    }

    /// The bus slot width.
    pub fn slot_width(&self) -> SlotWidth {
        self.slot_width
    }

    /// L1 instruction cache geometry.
    pub fn l1i(&self) -> CacheGeometry {
        self.l1i
    }

    /// L1 data cache geometry.
    pub fn l1d(&self) -> CacheGeometry {
        self.l1d
    }

    /// Private L2 geometry.
    pub fn l2(&self) -> CacheGeometry {
        self.l2
    }

    /// L1 hit latency.
    pub fn l1_latency(&self) -> Cycles {
        self.l1_latency
    }

    /// L2 hit latency (also the miss-detection delay before a request
    /// enters the PRB).
    pub fn l2_latency(&self) -> Cycles {
        self.l2_latency
    }

    /// The LLC partitioning.
    pub fn partitions(&self) -> &PartitionMap {
        &self.partitions
    }

    /// LLC replacement policy.
    pub fn llc_replacement(&self) -> ReplacementKind {
        self.llc_replacement
    }

    /// Private-cache replacement policy.
    pub fn private_replacement(&self) -> ReplacementKind {
        self.private_replacement
    }

    /// PRB/PWB arbitration policy.
    pub fn arbiter(&self) -> ArbiterPolicy {
        self.arbiter
    }

    /// The memory-backend selection behind the LLC. A fresh backend is
    /// built from this value for every [`crate::Simulator::run`].
    pub fn memory(&self) -> &MemoryConfig {
        &self.memory
    }

    /// The backend's worst-case access latency (guaranteed to fit in a
    /// slot by validation). For the default fixed-latency backend this
    /// is the configured DRAM latency, preserving the seed-era meaning
    /// of this accessor.
    pub fn dram_latency(&self) -> Cycles {
        self.memory.worst_case_latency()
    }

    /// Optional simulation cycle cap (for potentially unbounded runs,
    /// such as the Fig. 2 scenario).
    pub fn max_cycles(&self) -> Option<u64> {
        self.max_cycles
    }

    /// Whether the event log records.
    pub fn record_events(&self) -> bool {
        self.record_events
    }

    /// The selected engine mode (see [`EngineMode`]).
    pub(crate) fn engine_mode(&self) -> EngineMode {
        self.engine
    }

    /// Whether latency attribution is enabled (see
    /// [`crate::attribution`]). Off by default. Attribution only *reads*
    /// the simulation — every counter, histogram and event in the
    /// [`crate::RunReport`] is bit-identical with it on or off.
    pub fn attribution(&self) -> bool {
        self.attribution
    }

    /// A copy of this configuration with attribution toggled — for
    /// layers (the experiment-spec grid) that decide the flag after the
    /// platform was built and validated. No re-validation is needed:
    /// attribution does not participate in any build-time check.
    pub fn with_attribution(mut self, on: bool) -> SystemConfig {
        self.attribution = on;
        self
    }

    /// The configuration a [`crate::attribution::WclWitness`] is
    /// replayed under: the same platform, truncated at `cap` cycles and
    /// forced onto the reference engine with attribution off — the
    /// independent oracle re-deriving the witness's latency.
    pub(crate) fn witness_replay_config(&self, cap: Cycles) -> SystemConfig {
        let mut cfg = self.clone();
        cfg.max_cycles = Some(cap.as_u64());
        cfg.engine = EngineMode::Reference;
        cfg.attribution = false;
        cfg.record_events = false;
        cfg
    }
}

/// Builder for [`SystemConfig`]; see [`SystemConfig::builder`].
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    num_cores: u16,
    schedule: Option<TdmSchedule>,
    slot_width: SlotWidth,
    l1i: CacheGeometry,
    l1d: CacheGeometry,
    l2: CacheGeometry,
    l1_latency: Cycles,
    l2_latency: Cycles,
    partitions: Option<Vec<PartitionSpec>>,
    physical_llc: CacheGeometry,
    llc_replacement: ReplacementKind,
    private_replacement: ReplacementKind,
    arbiter: ArbiterPolicy,
    memory: MemoryConfig,
    max_cycles: Option<u64>,
    record_events: bool,
    engine: EngineMode,
    attribution: bool,
}

impl SystemConfigBuilder {
    /// Creates a builder with paper defaults for `num_cores` cores.
    pub fn new(num_cores: u16) -> Self {
        SystemConfigBuilder {
            num_cores,
            schedule: None,
            slot_width: SlotWidth::PAPER,
            l1i: CacheGeometry::DEFAULT_L1,
            l1d: CacheGeometry::DEFAULT_L1,
            l2: CacheGeometry::PAPER_L2,
            l1_latency: Cycles::new(1),
            l2_latency: Cycles::new(10),
            partitions: None,
            physical_llc: CacheGeometry::PAPER_L3,
            llc_replacement: ReplacementKind::Lru,
            private_replacement: ReplacementKind::Lru,
            arbiter: ArbiterPolicy::WritebackFirst,
            memory: MemoryConfig::default(),
            max_cycles: None,
            record_events: false,
            engine: EngineMode::FastForward,
            attribution: false,
        }
    }

    /// Overrides the TDM schedule (default: 1S-TDM over all cores).
    pub fn schedule(mut self, schedule: TdmSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Overrides the slot width.
    pub fn slot_width(mut self, sw: SlotWidth) -> Self {
        self.slot_width = sw;
        self
    }

    /// Overrides the L1 instruction geometry.
    pub fn l1i(mut self, g: CacheGeometry) -> Self {
        self.l1i = g;
        self
    }

    /// Overrides the L1 data geometry.
    pub fn l1d(mut self, g: CacheGeometry) -> Self {
        self.l1d = g;
        self
    }

    /// Overrides the private L2 geometry.
    pub fn l2(mut self, g: CacheGeometry) -> Self {
        self.l2 = g;
        self
    }

    /// Overrides the L1 hit latency.
    pub fn l1_latency(mut self, c: Cycles) -> Self {
        self.l1_latency = c;
        self
    }

    /// Overrides the L2 hit latency.
    pub fn l2_latency(mut self, c: Cycles) -> Self {
        self.l2_latency = c;
        self
    }

    /// Sets the partition list (required).
    pub fn partitions(mut self, partitions: Vec<PartitionSpec>) -> Self {
        self.partitions = Some(partitions);
        self
    }

    /// Overrides the physical LLC the partitions must fit in.
    pub fn physical_llc(mut self, g: CacheGeometry) -> Self {
        self.physical_llc = g;
        self
    }

    /// Overrides the LLC replacement policy.
    pub fn llc_replacement(mut self, k: ReplacementKind) -> Self {
        self.llc_replacement = k;
        self
    }

    /// Overrides the private-cache replacement policy.
    pub fn private_replacement(mut self, k: ReplacementKind) -> Self {
        self.private_replacement = k;
        self
    }

    /// Overrides the PRB/PWB arbitration policy.
    pub fn arbiter(mut self, a: ArbiterPolicy) -> Self {
        self.arbiter = a;
        self
    }

    /// Selects the fixed-latency memory backend with the given access
    /// latency (must fit inside a slot). Shorthand for
    /// `memory(MemoryConfig::fixed(c))`.
    pub fn dram_latency(self, c: Cycles) -> Self {
        self.memory(MemoryConfig::fixed(c))
    }

    /// Selects the memory backend (default: the seed's fixed 30-cycle
    /// DRAM). The backend's analytical worst-case access latency must
    /// fit inside a slot — `build` rejects the configuration otherwise.
    pub fn memory(mut self, m: MemoryConfig) -> Self {
        self.memory = m;
        self
    }

    /// Caps the simulation length (needed for unbounded scenarios).
    pub fn max_cycles(mut self, cap: u64) -> Self {
        self.max_cycles = Some(cap);
        self
    }

    /// Enables the event log.
    pub fn record_events(mut self, on: bool) -> Self {
        self.record_events = on;
        self
    }

    /// Selects the simulation engine (default:
    /// [`EngineMode::FastForward`]).
    pub fn engine(mut self, mode: EngineMode) -> Self {
        self.engine = mode;
        self
    }

    /// Enables latency attribution (default: off): every request's
    /// latency is decomposed into causal components and the worst-case
    /// request is captured as a replayable witness (see
    /// [`crate::attribution`]). Purely observational — the simulation
    /// itself is bit-identical either way.
    pub fn attribution(mut self, on: bool) -> Self {
        self.attribution = on;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Any [`ConfigError`] from partition-map validation, schedule/core
    /// mismatch, an invalid memory backend, or a backend whose
    /// worst-case access latency does not fit in the slot
    /// ([`ConfigError::DramExceedsSlot`] for the fixed-latency backend,
    /// [`ConfigError::BackendExceedsSlot`] for every other).
    pub fn build(self) -> Result<SystemConfig, ConfigError> {
        if self.num_cores == 0 {
            return Err(ConfigError::NoCores);
        }
        let schedule = match self.schedule {
            Some(s) => s,
            None => TdmSchedule::one_slot(self.num_cores),
        };
        if schedule.num_cores() != self.num_cores {
            return Err(ConfigError::ScheduleCoreMismatch {
                schedule_cores: schedule.num_cores(),
                system_cores: self.num_cores,
            });
        }
        let partitions = self.partitions.unwrap_or_default();
        let partitions = PartitionMap::new(partitions, self.num_cores, self.physical_llc)?;
        check_memory(&self.memory, self.num_cores, self.slot_width)?;
        Ok(SystemConfig {
            num_cores: self.num_cores,
            schedule,
            slot_width: self.slot_width,
            l1i: self.l1i,
            l1d: self.l1d,
            l2: self.l2,
            l1_latency: self.l1_latency,
            l2_latency: self.l2_latency,
            partitions,
            llc_replacement: self.llc_replacement,
            private_replacement: self.private_replacement,
            arbiter: self.arbiter,
            memory: self.memory,
            max_cycles: self.max_cycles,
            record_events: self.record_events,
            engine: self.engine,
            attribution: self.attribution,
        })
    }
}

/// Validates a memory backend for a system of `num_cores` cores and
/// checks the slot-budget invariant (§3): every memory access, at its
/// analytical worst, completes within the requester's slot. The fixed
/// backend keeps its seed-era error shape.
pub(crate) fn check_memory(
    memory: &MemoryConfig,
    num_cores: u16,
    slot_width: SlotWidth,
) -> Result<(), ConfigError> {
    memory.validate(num_cores)?;
    let worst_case = memory.worst_case_latency();
    if worst_case < slot_width.cycles() {
        return Ok(());
    }
    Err(match memory {
        MemoryConfig::FixedLatency { .. } => ConfigError::DramExceedsSlot {
            dram_latency: worst_case.as_u64(),
            slot_width: slot_width.as_u64(),
        },
        _ => ConfigError::BackendExceedsSlot {
            backend: memory.label(),
            worst_case: worst_case.as_u64(),
            slot_width: slot_width.as_u64(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_partition_defaults() {
        let cfg = SystemConfig::shared_partition(1, 16, 4, SharingMode::SetSequencer).unwrap();
        assert_eq!(cfg.num_cores(), 4);
        assert!(cfg.schedule().is_one_slot());
        assert_eq!(cfg.slot_width(), SlotWidth::PAPER);
        assert_eq!(cfg.partitions().len(), 1);
        assert_eq!(cfg.partitions().spec_of(CoreId::new(2)).sharers(), 4);
        assert_eq!(cfg.l2().lines(), 64);
    }

    #[test]
    fn private_partitions_give_one_each() {
        let cfg = SystemConfig::private_partitions(8, 2, 4).unwrap();
        assert_eq!(cfg.partitions().len(), 4);
        for i in 0..4 {
            let spec = cfg.partitions().spec_of(CoreId::new(i));
            assert!(spec.is_private());
            assert_eq!(spec.cores, vec![CoreId::new(i)]);
        }
    }

    #[test]
    fn rejects_schedule_mismatch() {
        let err = SystemConfigBuilder::new(4)
            .schedule(TdmSchedule::one_slot(3))
            .partitions(vec![PartitionSpec::shared(
                1,
                2,
                CoreId::first(4).collect(),
                SharingMode::BestEffort,
            )])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ScheduleCoreMismatch {
                schedule_cores: 3,
                system_cores: 4
            }
        );
    }

    #[test]
    fn rejects_oversized_dram() {
        let err = SystemConfigBuilder::new(1)
            .partitions(vec![PartitionSpec::private(1, 1, CoreId::new(0))])
            .dram_latency(Cycles::new(50))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::DramExceedsSlot { .. }));
    }

    #[test]
    fn rejects_banked_backend_exceeding_the_slot() {
        // Paper timing has a 30-cycle worst case: a 30-cycle slot is too
        // narrow, and the error names the backend.
        let err = SystemConfigBuilder::new(1)
            .partitions(vec![PartitionSpec::private(1, 1, CoreId::new(0))])
            .slot_width(SlotWidth::new(30).unwrap())
            .memory(MemoryConfig::banked())
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::BackendExceedsSlot {
                backend: "banked(1x8,interleaved)".into(),
                worst_case: 30,
                slot_width: 30,
            }
        );
    }

    #[test]
    fn rejects_invalid_bank_private_slicing() {
        let err = SystemConfigBuilder::new(3)
            .partitions(
                CoreId::first(3)
                    .map(|c| PartitionSpec::private(1, 1, c))
                    .collect(),
            )
            .memory(MemoryConfig::bank_private())
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Memory(_)));
    }

    #[test]
    fn memory_selection_sticks_and_reports_worst_case() {
        let cfg = SystemConfigBuilder::new(4)
            .partitions(
                CoreId::first(4)
                    .map(|c| PartitionSpec::private(1, 2, c))
                    .collect(),
            )
            .memory(MemoryConfig::bank_private())
            .build()
            .unwrap();
        assert_eq!(cfg.memory(), &MemoryConfig::bank_private());
        // Paper-calibrated banked timing matches the seed's fixed charge.
        assert_eq!(cfg.dram_latency(), Cycles::new(30));
    }

    #[test]
    fn rejects_missing_partitions() {
        let err = SystemConfigBuilder::new(2).build().unwrap_err();
        assert!(matches!(err, ConfigError::CoreWithoutPartition { .. }));
    }

    #[test]
    fn rejects_zero_cores() {
        assert_eq!(
            SystemConfigBuilder::new(0).build().unwrap_err(),
            ConfigError::NoCores
        );
    }

    #[test]
    fn builder_overrides_stick() {
        let cfg = SystemConfigBuilder::new(2)
            .partitions(vec![PartitionSpec::shared(
                2,
                2,
                CoreId::first(2).collect(),
                SharingMode::BestEffort,
            )])
            .slot_width(SlotWidth::new(100).unwrap())
            .l1_latency(Cycles::new(2))
            .l2_latency(Cycles::new(12))
            .dram_latency(Cycles::new(70))
            .llc_replacement(ReplacementKind::RoundRobin)
            .arbiter(ArbiterPolicy::RoundRobin)
            .max_cycles(1_000_000)
            .record_events(true)
            .build()
            .unwrap();
        assert_eq!(cfg.slot_width().as_u64(), 100);
        assert_eq!(cfg.l1_latency(), Cycles::new(2));
        assert_eq!(cfg.l2_latency(), Cycles::new(12));
        assert_eq!(cfg.dram_latency(), Cycles::new(70));
        assert_eq!(cfg.llc_replacement(), ReplacementKind::RoundRobin);
        assert_eq!(cfg.arbiter(), ArbiterPolicy::RoundRobin);
        assert_eq!(cfg.max_cycles(), Some(1_000_000));
        assert!(cfg.record_events());
    }
}
