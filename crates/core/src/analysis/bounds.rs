//! Boundedness classification of TDM schedules for shared partitions.
//!
//! §4.1 of the paper shows the WCL is *unbounded* when another core
//! sharing the partition "is allowed to access the LLC multiple times
//! before `c_ua` can access the bus again": the interferer frees an entry
//! with a write-back in one slot and re-occupies it with a request in a
//! second slot, indefinitely. §4.2's 1S-TDM restriction (one slot per
//! core per period) excludes exactly that pattern.
//!
//! [`classify_schedule`] makes the argument executable: it finds a
//! concrete interference witness or applies Theorem 4.7/4.8.

use predllc_bus::TdmSchedule;
use predllc_model::{CoreId, Cycles};

use crate::analysis::WclParams;
use crate::config::SystemConfig;
use crate::error::ConfigError;
use crate::partition::SharingMode;

/// The result of classifying a core's WCL under a given schedule and
/// partitioning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WclBound {
    /// A concrete unbounded-interference witness exists (§4.1).
    Unbounded {
        /// A partition-sharing core with two or more slots inside one of
        /// `c_ua`'s inter-slot gaps.
        interferer: CoreId,
        /// How many of the interferer's slots fall in that gap.
        slots_in_gap: u64,
    },
    /// The schedule is 1S-TDM; the bound follows from Theorem 4.7 or 4.8
    /// (or the private-partition bound).
    Bounded(Cycles),
    /// The schedule is not 1S-TDM but no §4.1 witness exists (e.g. the
    /// core under analysis itself holds multiple slots). The paper's
    /// analysis does not cover this case.
    NotCovered,
}

impl WclBound {
    /// The bound in cycles, if bounded.
    pub fn cycles(&self) -> Option<Cycles> {
        match self {
            WclBound::Bounded(c) => Some(*c),
            _ => None,
        }
    }
}

/// Classifies the WCL of `cua`'s LLC requests under `config`.
///
/// * Private partition → `Bounded((2N+1)·SW)`.
/// * Shared + 1S-TDM + set sequencer → `Bounded` by Theorem 4.8.
/// * Shared + 1S-TDM + best effort → `Bounded` by Theorem 4.7.
/// * Shared + non-1S-TDM with an interference witness → `Unbounded`.
/// * Otherwise → `NotCovered`.
///
/// # Errors
///
/// Returns [`ConfigError::PartitionCoreOutOfRange`] for a core outside
/// the system.
///
/// # Examples
///
/// ```
/// use predllc_core::analysis::{classify_schedule, WclBound};
/// use predllc_core::{SharingMode, SystemConfig};
/// use predllc_model::CoreId;
///
/// # fn main() -> Result<(), predllc_core::ConfigError> {
/// let cfg = SystemConfig::shared_partition(1, 16, 4, SharingMode::SetSequencer)?;
/// let bound = classify_schedule(&cfg, CoreId::new(0))?;
/// assert_eq!(bound.cycles().map(|c| c.as_u64()), Some(5_000));
/// # Ok(())
/// # }
/// ```
pub fn classify_schedule(config: &SystemConfig, cua: CoreId) -> Result<WclBound, ConfigError> {
    let params = WclParams::for_core(config, cua)?;
    let spec = config.partitions().spec_of(cua);
    let schedule = config.schedule();

    if spec.is_private() {
        return Ok(WclBound::Bounded(params.wcl_private()));
    }
    if schedule.is_one_slot() {
        let wcl = match spec.mode {
            SharingMode::SetSequencer => Some(params.wcl_set_sequencer()),
            SharingMode::BestEffort => params.wcl_one_slot_tdm_checked(),
        };
        return Ok(match wcl {
            Some(c) => WclBound::Bounded(c),
            None => WclBound::NotCovered, // overflowed: astronomically large
        });
    }
    // Non-1S-TDM: look for the §4.1 witness among the partition sharers.
    // NOTE: the witness argument needs best-effort contention; with a set
    // sequencer the interferer cannot re-occupy cua's entry, but the
    // paper only analyses the sequencer under 1S-TDM, so anything else is
    // NotCovered rather than Bounded.
    if spec.mode == SharingMode::BestEffort {
        if let Some((interferer, slots_in_gap)) =
            interference_witness(schedule, spec.cores.as_slice(), cua)
        {
            return Ok(WclBound::Unbounded {
                interferer,
                slots_in_gap,
            });
        }
    }
    Ok(WclBound::NotCovered)
}

/// Finds a sharer with ≥ 2 slots strictly inside one of `cua`'s
/// inter-slot gaps, which lets it free-then-reoccupy an entry before
/// `cua` returns to the bus (the Fig. 2 pattern).
fn interference_witness(
    schedule: &TdmSchedule,
    sharers: &[CoreId],
    cua: CoreId,
) -> Option<(CoreId, u64)> {
    let owners = schedule.slot_owners();
    let period = owners.len();
    let cua_positions: Vec<usize> = (0..period).filter(|&i| owners[i] == cua).collect();
    if cua_positions.is_empty() {
        return None;
    }
    let mut best: Option<(CoreId, u64)> = None;
    for (gi, &start) in cua_positions.iter().enumerate() {
        let end = cua_positions[(gi + 1) % cua_positions.len()];
        // Walk the cyclic gap (start, end).
        for &other in sharers.iter().filter(|&&c| c != cua) {
            let mut count = 0u64;
            let mut i = (start + 1) % period;
            while i != end {
                if owners[i] == other {
                    count += 1;
                }
                i = (i + 1) % period;
            }
            if count >= 2 && best.is_none_or(|(_, c)| count > c) {
                best = Some((other, count));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfigBuilder;
    use crate::partition::PartitionSpec;

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn private_partitions_are_bounded() {
        let cfg = SystemConfig::private_partitions(8, 2, 4).unwrap();
        let b = classify_schedule(&cfg, c(0)).unwrap();
        assert_eq!(b.cycles().unwrap().as_u64(), 450);
    }

    #[test]
    fn one_slot_tdm_sharing_is_bounded_both_modes() {
        let ss = SystemConfig::shared_partition(1, 16, 4, SharingMode::SetSequencer).unwrap();
        assert_eq!(
            classify_schedule(&ss, c(0))
                .unwrap()
                .cycles()
                .unwrap()
                .as_u64(),
            5_000
        );
        let nss = SystemConfig::shared_partition(1, 16, 4, SharingMode::BestEffort).unwrap();
        assert_eq!(
            classify_schedule(&nss, c(0))
                .unwrap()
                .cycles()
                .unwrap()
                .as_u64(),
            979_250
        );
    }

    #[test]
    fn fig2_schedule_is_unbounded() {
        // {cua, ci, ci}: ci has two slots in cua's gap.
        let schedule = TdmSchedule::new(vec![c(0), c(1), c(1)]).unwrap();
        let cfg = SystemConfigBuilder::new(2)
            .schedule(schedule)
            .partitions(vec![PartitionSpec::shared(
                1,
                2,
                vec![c(0), c(1)],
                SharingMode::BestEffort,
            )])
            .build()
            .unwrap();
        let b = classify_schedule(&cfg, c(0)).unwrap();
        assert_eq!(
            b,
            WclBound::Unbounded {
                interferer: c(1),
                slots_in_gap: 2
            }
        );
        assert_eq!(b.cycles(), None);
    }

    #[test]
    fn non_sharer_with_extra_slots_is_not_a_witness() {
        // c1 has two slots but shares nothing with cua (c0): from the
        // partition's viewpoint the schedule gives no §4.1 witness, but
        // it is also not 1S-TDM, so the analysis does not apply.
        let schedule = TdmSchedule::new(vec![c(0), c(1), c(1), c(2)]).unwrap();
        let cfg = SystemConfigBuilder::new(3)
            .schedule(schedule)
            .partitions(vec![
                PartitionSpec::shared(1, 2, vec![c(0), c(2)], SharingMode::BestEffort),
                PartitionSpec::private(1, 2, c(1)),
            ])
            .build()
            .unwrap();
        assert_eq!(classify_schedule(&cfg, c(0)).unwrap(), WclBound::NotCovered);
    }

    #[test]
    fn sequencer_outside_one_slot_tdm_is_not_covered() {
        let schedule = TdmSchedule::new(vec![c(0), c(1), c(1)]).unwrap();
        let cfg = SystemConfigBuilder::new(2)
            .schedule(schedule)
            .partitions(vec![PartitionSpec::shared(
                1,
                2,
                vec![c(0), c(1)],
                SharingMode::SetSequencer,
            )])
            .build()
            .unwrap();
        assert_eq!(classify_schedule(&cfg, c(0)).unwrap(), WclBound::NotCovered);
    }

    #[test]
    fn out_of_range_core_is_an_error() {
        let cfg = SystemConfig::private_partitions(2, 2, 2).unwrap();
        assert!(classify_schedule(&cfg, c(9)).is_err());
    }

    #[test]
    fn witness_counts_slots_in_cyclic_gap() {
        // Period {c1, c0, c1, c1}: the gap after c0's slot wraps around
        // and contains c1 three times... actually positions: c0 at 1;
        // gap (1 → 1 cyclic) covers 2, 3, 0 → three c1 slots.
        let schedule = TdmSchedule::new(vec![c(1), c(0), c(1), c(1)]).unwrap();
        let w = interference_witness(&schedule, &[c(0), c(1)], c(0)).unwrap();
        assert_eq!(w, (c(1), 3));
    }
}
