//! LLC partitions: rectangular `sets × ways` carve-outs of the physical
//! LLC, each either private to one core or shared by several.
//!
//! The paper's notation (§5):
//!
//! * `SS(s, w, n)` — a partition of `s` sets and `w` ways shared among `n`
//!   cores *with* the set sequencer;
//! * `NSS(s, w, n)` — the same sharing, but the LLC services contending
//!   requests best-effort;
//! * `P(s, w)` — a partition privately owned by one core.
//!
//! Partitions are disjoint cache real estate: cores in different
//! partitions never interfere in the LLC (they still share the TDM bus).

use std::fmt;

use predllc_model::{CacheGeometry, CoreId, LineAddr, PartitionId, SetIdx};

use crate::error::ConfigError;

/// The most cores one partition may hold: the LLC tracks a line's
/// private sharers as one bit per partition member.
pub const MAX_PARTITION_CORES: usize = 64;

/// How contention *within* a shared partition is resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SharingMode {
    /// The set sequencer (§4.5) orders pending allocations per set in bus
    /// broadcast order, giving the low WCL of Theorem 4.8.
    ///
    /// **It changes an outcome only when two requests wait on one set at
    /// once.** The LLC reads the sequencer for a decision only through
    /// `is_head` (the slot probe and the miss service); its other uses
    /// (enqueue, a hit's removal, an allocation's pop, the high-water
    /// marks) are bookkeeping. `is_head` is false only for a core queued
    /// behind another, so in a run whose deepest queue held one request
    /// ([`SimStats::max_sequencer_depth`](crate::SimStats::max_sequencer_depth)
    /// ≤ 1) every answer was the best-effort one. That run's report then
    /// equals the [`BestEffort`](Self::BestEffort) run's on the same
    /// platform and workload, attribution and the event log included,
    /// except that the best-effort run's `max_sequencer_depth` and
    /// `max_sequencer_sets` are 0 and it logs no `SequencerEnqueued`.
    /// Read-only workloads meet the condition by construction (every
    /// eviction frees in its own slot), and so do partitions whose sets
    /// never fill. `tests/fast_forward.rs` holds both engines to it;
    /// `predllc_explore::measure` relies on it to measure SS and NSS
    /// points with one engine run.
    #[default]
    SetSequencer,
    /// Best-effort: whichever core's slot comes first claims a freed
    /// entry. Bounded only by the pessimistic Theorem 4.7 under 1S-TDM,
    /// and unbounded under general TDM (§4.1). The paper's `NSS`.
    BestEffort,
}

impl fmt::Display for SharingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharingMode::SetSequencer => f.write_str("SS"),
            SharingMode::BestEffort => f.write_str("NSS"),
        }
    }
}

/// One LLC partition: its shape, its sharers, and its sharing mode.
///
/// # Examples
///
/// ```
/// use predllc_core::{PartitionSpec, SharingMode};
/// use predllc_model::CoreId;
///
/// // SS(1, 16, 4): one set, sixteen ways, shared by four cores.
/// let p = PartitionSpec::shared(1, 16, CoreId::first(4).collect(), SharingMode::SetSequencer);
/// assert_eq!(p.lines(), 16);
/// assert_eq!(p.to_string(), "SS(1,16,4)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Number of sets in the partition.
    pub sets: u32,
    /// Number of ways per set.
    pub ways: u32,
    /// The cores mapped to this partition.
    pub cores: Vec<CoreId>,
    /// How intra-partition contention is resolved (irrelevant when a
    /// single core owns the partition).
    pub mode: SharingMode,
}

impl PartitionSpec {
    /// Creates a shared partition (`SS`/`NSS` depending on `mode`).
    pub fn shared(sets: u32, ways: u32, cores: Vec<CoreId>, mode: SharingMode) -> Self {
        PartitionSpec {
            sets,
            ways,
            cores,
            mode,
        }
    }

    /// Creates a private partition `P(sets, ways)` owned by `core`.
    pub fn private(sets: u32, ways: u32, core: CoreId) -> Self {
        PartitionSpec {
            sets,
            ways,
            cores: vec![core],
            mode: SharingMode::default(),
        }
    }

    /// Number of cache lines in the partition (`M` in the analysis).
    pub fn lines(&self) -> u64 {
        u64::from(self.sets) * u64::from(self.ways)
    }

    /// Capacity in bytes for a given line size.
    pub fn capacity_bytes(&self, line_size: u32) -> u64 {
        self.lines() * u64::from(line_size)
    }

    /// Number of sharers (`n` in the analysis).
    pub fn sharers(&self) -> u16 {
        self.cores.len() as u16
    }

    /// Whether a single core owns the partition (the paper's `P`).
    pub fn is_private(&self) -> bool {
        self.cores.len() == 1
    }

    /// The partition-local set a line maps to (`line mod sets`).
    pub fn set_of(&self, line: LineAddr) -> SetIdx {
        SetIdx((line.as_u64() % u64::from(self.sets)) as u32)
    }

    /// The partition viewed as a cache geometry (for building the backing
    /// structure).
    ///
    /// # Errors
    ///
    /// Propagates [`predllc_model::ModelError`] for zero dimensions.
    pub fn geometry(&self, line_size: u32) -> Result<CacheGeometry, predllc_model::ModelError> {
        CacheGeometry::new(self.sets, self.ways, line_size)
    }
}

impl fmt::Display for PartitionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_private() {
            write!(f, "P({},{})", self.sets, self.ways)
        } else {
            write!(
                f,
                "{}({},{},{})",
                self.mode,
                self.sets,
                self.ways,
                self.cores.len()
            )
        }
    }
}

/// The full partitioning of the LLC: a list of disjoint partitions
/// covering every core exactly once.
///
/// # Examples
///
/// ```
/// use predllc_core::{PartitionMap, PartitionSpec, SharingMode};
/// use predllc_model::{CacheGeometry, CoreId};
///
/// # fn main() -> Result<(), predllc_core::ConfigError> {
/// // Two cores sharing one partition, two with private ones.
/// let map = PartitionMap::new(vec![
///     PartitionSpec::shared(8, 4, vec![CoreId::new(0), CoreId::new(1)],
///                           SharingMode::SetSequencer),
///     PartitionSpec::private(8, 4, CoreId::new(2)),
///     PartitionSpec::private(8, 4, CoreId::new(3)),
/// ], 4, CacheGeometry::PAPER_L3)?;
/// assert_eq!(map.partition_of(CoreId::new(1)).index(), 0);
/// assert_eq!(map.partition_of(CoreId::new(3)).index(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    partitions: Vec<PartitionSpec>,
    /// `core index → partition index`.
    core_to_partition: Vec<PartitionId>,
}

impl PartitionMap {
    /// Validates and builds a partition map for `num_cores` cores over a
    /// physical LLC of shape `physical`.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::NoCores`] if `num_cores` is zero;
    /// * [`ConfigError::ZeroPartition`] / [`ConfigError::EmptyPartition`]
    ///   for degenerate partitions;
    /// * [`ConfigError::PartitionExceedsGeometry`] /
    ///   [`ConfigError::PartitionsExceedLlc`] if the partitions do not fit
    ///   in `physical` (dimension-wise and in total lines);
    /// * [`ConfigError::PartitionTooManyCores`] for a partition of more
    ///   than [`MAX_PARTITION_CORES`] cores;
    /// * [`ConfigError::CoreWithoutPartition`] /
    ///   [`ConfigError::CoreInMultiplePartitions`] /
    ///   [`ConfigError::PartitionCoreOutOfRange`] for bad core mappings.
    pub fn new(
        partitions: Vec<PartitionSpec>,
        num_cores: u16,
        physical: CacheGeometry,
    ) -> Result<Self, ConfigError> {
        if num_cores == 0 {
            return Err(ConfigError::NoCores);
        }
        let mut core_to_partition: Vec<Option<PartitionId>> = vec![None; num_cores as usize];
        let mut total_lines = 0u64;
        for (i, p) in partitions.iter().enumerate() {
            if p.sets == 0 || p.ways == 0 {
                return Err(ConfigError::ZeroPartition { index: i });
            }
            if p.cores.is_empty() {
                return Err(ConfigError::EmptyPartition { index: i });
            }
            if p.cores.len() > MAX_PARTITION_CORES {
                return Err(ConfigError::PartitionTooManyCores {
                    index: i,
                    cores: p.cores.len(),
                });
            }
            if p.sets > physical.sets() || p.ways > physical.ways() {
                return Err(ConfigError::PartitionExceedsGeometry { index: i });
            }
            total_lines += p.lines();
            for &core in &p.cores {
                if core.index() >= num_cores {
                    return Err(ConfigError::PartitionCoreOutOfRange { core, num_cores });
                }
                let slot = &mut core_to_partition[core.as_usize()];
                if slot.is_some() {
                    return Err(ConfigError::CoreInMultiplePartitions { core });
                }
                *slot = Some(PartitionId::new(i as u16));
            }
        }
        if total_lines > physical.lines() {
            return Err(ConfigError::PartitionsExceedLlc {
                requested_lines: total_lines,
                available_lines: physical.lines(),
            });
        }
        let core_to_partition = core_to_partition
            .into_iter()
            .enumerate()
            .map(|(c, p)| {
                p.ok_or(ConfigError::CoreWithoutPartition {
                    core: CoreId::new(c as u16),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PartitionMap {
            partitions,
            core_to_partition,
        })
    }

    /// The partitions, in declaration order.
    pub fn partitions(&self) -> &[PartitionSpec] {
        &self.partitions
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// Whether the map is empty (never true for a validated map).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// The partition a core is mapped to.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the validated range.
    pub fn partition_of(&self, core: CoreId) -> PartitionId {
        self.core_to_partition[core.as_usize()]
    }

    /// The spec of the partition a core is mapped to.
    pub fn spec_of(&self, core: CoreId) -> &PartitionSpec {
        &self.partitions[self.partition_of(core).as_usize()]
    }

    /// The spec of a partition by id.
    pub fn spec(&self, id: PartitionId) -> &PartitionSpec {
        &self.partitions[id.as_usize()]
    }

    /// Number of cores covered.
    pub fn num_cores(&self) -> u16 {
        self.core_to_partition.len() as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn shared_partition_notation() {
        let ss = PartitionSpec::shared(1, 2, CoreId::first(4).collect(), SharingMode::SetSequencer);
        assert_eq!(ss.to_string(), "SS(1,2,4)");
        let nss = PartitionSpec::shared(1, 4, CoreId::first(4).collect(), SharingMode::BestEffort);
        assert_eq!(nss.to_string(), "NSS(1,4,4)");
        let p = PartitionSpec::private(8, 2, c(0));
        assert_eq!(p.to_string(), "P(8,2)");
        assert!(p.is_private());
        assert!(!ss.is_private());
    }

    #[test]
    fn lines_and_capacity() {
        let p = PartitionSpec::private(32, 2, c(0));
        assert_eq!(p.lines(), 64);
        assert_eq!(p.capacity_bytes(64), 4096);
        assert_eq!(p.sharers(), 1);
    }

    #[test]
    fn set_mapping_is_modulo() {
        let p = PartitionSpec::private(8, 2, c(0));
        assert_eq!(p.set_of(LineAddr::new(0)), SetIdx(0));
        assert_eq!(p.set_of(LineAddr::new(8)), SetIdx(0));
        assert_eq!(p.set_of(LineAddr::new(9)), SetIdx(1));
    }

    #[test]
    fn valid_map_builds() {
        let map = PartitionMap::new(
            vec![
                PartitionSpec::shared(4, 4, vec![c(0), c(1)], SharingMode::BestEffort),
                PartitionSpec::private(4, 4, c(2)),
            ],
            3,
            CacheGeometry::PAPER_L3,
        )
        .unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map.partition_of(c(0)), map.partition_of(c(1)));
        assert_ne!(map.partition_of(c(0)), map.partition_of(c(2)));
        assert_eq!(map.spec_of(c(2)).to_string(), "P(4,4)");
        assert_eq!(map.num_cores(), 3);
        assert!(!map.is_empty());
    }

    #[test]
    fn rejects_unmapped_core() {
        let err = PartitionMap::new(
            vec![PartitionSpec::private(4, 4, c(0))],
            2,
            CacheGeometry::PAPER_L3,
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::CoreWithoutPartition { core: c(1) });
    }

    #[test]
    fn rejects_double_mapping() {
        let err = PartitionMap::new(
            vec![
                PartitionSpec::private(4, 4, c(0)),
                PartitionSpec::shared(4, 4, vec![c(0), c(1)], SharingMode::BestEffort),
            ],
            2,
            CacheGeometry::PAPER_L3,
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::CoreInMultiplePartitions { core: c(0) });
    }

    #[test]
    fn rejects_out_of_range_core() {
        let err = PartitionMap::new(
            vec![PartitionSpec::private(4, 4, c(5))],
            2,
            CacheGeometry::PAPER_L3,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::PartitionCoreOutOfRange { core, num_cores: 2 } if core == c(5)
        ));
    }

    #[test]
    fn rejects_overcommitted_llc() {
        // 2 partitions x 32x16 = 1024 lines > 512 physical.
        let err = PartitionMap::new(
            vec![
                PartitionSpec::private(32, 16, c(0)),
                PartitionSpec::private(32, 16, c(1)),
            ],
            2,
            CacheGeometry::PAPER_L3,
        )
        .unwrap_err();
        assert!(matches!(err, ConfigError::PartitionsExceedLlc { .. }));
    }

    #[test]
    fn rejects_oversized_partition() {
        let err = PartitionMap::new(
            vec![PartitionSpec::private(64, 4, c(0))], // 64 sets > 32 physical
            1,
            CacheGeometry::PAPER_L3,
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::PartitionExceedsGeometry { index: 0 });
    }

    #[test]
    fn rejects_zero_and_empty() {
        let err = PartitionMap::new(
            vec![PartitionSpec::private(0, 4, c(0))],
            1,
            CacheGeometry::PAPER_L3,
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::ZeroPartition { index: 0 });

        let err = PartitionMap::new(
            vec![PartitionSpec::shared(4, 4, vec![], SharingMode::BestEffort)],
            1,
            CacheGeometry::PAPER_L3,
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::EmptyPartition { index: 0 });
    }

    #[test]
    fn rejects_partitions_over_64_cores() {
        let shared = |n: u16| {
            PartitionMap::new(
                vec![PartitionSpec::shared(
                    1,
                    16,
                    CoreId::first(n).collect(),
                    SharingMode::SetSequencer,
                )],
                n,
                CacheGeometry::PAPER_L3,
            )
        };
        assert!(shared(64).is_ok());
        let err = shared(65).unwrap_err();
        assert_eq!(
            err,
            ConfigError::PartitionTooManyCores {
                index: 0,
                cores: 65
            }
        );
        assert!(err.to_string().contains("at most 64"), "{err}");
    }

    #[test]
    fn rejects_zero_cores() {
        let err = PartitionMap::new(vec![], 0, CacheGeometry::PAPER_L3).unwrap_err();
        assert_eq!(err, ConfigError::NoCores);
    }
}
