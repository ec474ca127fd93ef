//! Theorems 4.7 and 4.8, and the private-partition bound.

use predllc_model::{CoreId, Cycles, SlotWidth};

use crate::config::SystemConfig;
use crate::error::ConfigError;

/// Inputs to the WCL analysis for one core under analysis (`c_ua`).
///
/// # Examples
///
/// The paper's Fig. 7 platform — 4 cores, a shared 1-set × 16-way
/// partition, 64-line private L2, 50-cycle slots — yields exactly the
/// quoted analytical WCLs:
///
/// ```
/// use predllc_core::analysis::WclParams;
/// use predllc_model::SlotWidth;
///
/// let p = WclParams {
///     total_cores: 4,
///     sharers: 4,
///     ways: 16,
///     partition_lines: 16,
///     core_capacity_lines: 64,
///     slot_width: SlotWidth::PAPER,
/// };
/// assert_eq!(p.wcl_set_sequencer().as_u64(), 5_000);
/// assert_eq!(p.wcl_one_slot_tdm().as_u64(), 979_250);
/// assert_eq!(p.wcl_private().as_u64(), 450);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WclParams {
    /// `N`: cores on the TDM bus (period length of the 1S-TDM schedule).
    pub total_cores: u16,
    /// `n`: cores sharing the partition (`n ≤ N`).
    pub sharers: u16,
    /// `w`: ways per set of the partition.
    pub ways: u32,
    /// `M`: partition size in cache lines.
    pub partition_lines: u64,
    /// `m_cua`: the private cache capacity of the core under analysis,
    /// in lines (its L2 size).
    pub core_capacity_lines: u64,
    /// `SW`: the TDM slot width.
    pub slot_width: SlotWidth,
}

impl WclParams {
    /// Extracts the analysis parameters for `core` from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::PartitionCoreOutOfRange`] if `core` is
    /// outside the configured system.
    pub(crate) fn for_core(config: &SystemConfig, core: CoreId) -> Result<Self, ConfigError> {
        if core.index() >= config.num_cores() {
            return Err(ConfigError::PartitionCoreOutOfRange {
                core,
                num_cores: config.num_cores(),
            });
        }
        let spec = config.partitions().spec_of(core);
        Ok(WclParams {
            total_cores: config.num_cores(),
            sharers: spec.sharers(),
            ways: spec.ways,
            partition_lines: spec.lines(),
            core_capacity_lines: config.l2().lines(),
            slot_width: config.slot_width(),
        })
    }

    /// Extracts the analysis parameters for core 0 from a configuration
    /// — convenient when all cores are symmetric, as in every paper
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::PartitionCoreOutOfRange`] if the
    /// configuration has no core 0.
    pub fn from_config(config: &SystemConfig) -> Result<Self, ConfigError> {
        WclParams::for_core(config, CoreId::new(0))
    }

    /// `m = min(m_cua, M)`: the most lines the core under analysis can
    /// privately cache out of the partition, i.e. the most write-backs
    /// other cores can force on it.
    pub fn m(&self) -> u64 {
        self.core_capacity_lines.min(self.partition_lines)
    }

    /// `A = 2(n−1) · w · (n−1)`: periods for the distance of all `w`
    /// lines of a set to decay from `n` to 1 (Corollary 4.5 applied `w`
    /// times per unit of distance).
    pub(crate) fn interference_factor(&self) -> u64 {
        let n1 = u64::from(self.sharers).saturating_sub(1);
        2 * n1 * u64::from(self.ways) * n1
    }

    /// Theorem 4.7 in slots, `None` on overflow.
    pub(crate) fn wcl_one_slot_tdm_slots_checked(&self) -> Option<u64> {
        let m1 = self.m().checked_add(1)?;
        let a = self.interference_factor();
        m1.checked_mul(a)?
            .checked_mul(u64::from(self.total_cores))?
            .checked_add(1)
    }

    /// Theorem 4.7, in cycles: `((m+1)·A·N + 1)·SW`.
    ///
    /// # Panics
    ///
    /// Panics on arithmetic overflow.
    pub fn wcl_one_slot_tdm(&self) -> Cycles {
        self.wcl_one_slot_tdm_checked()
            .expect("WCL overflow: use the checked variant")
    }

    /// Theorem 4.7 in cycles, `None` on overflow.
    pub fn wcl_one_slot_tdm_checked(&self) -> Option<Cycles> {
        Cycles::new(self.wcl_one_slot_tdm_slots_checked()?).checked_mul(self.slot_width.as_u64())
    }

    /// Theorem 4.8, in slots: `(2(n−1)·n + 1)·N`.
    pub fn wcl_set_sequencer_slots(&self) -> u64 {
        let n = u64::from(self.sharers);
        (2 * (n - 1) * n + 1) * u64::from(self.total_cores)
    }

    /// Theorem 4.8, in cycles: `(2(n−1)·n + 1)·N·SW`. Independent of both
    /// the cache capacity and the partition size.
    pub fn wcl_set_sequencer(&self) -> Cycles {
        Cycles::new(self.wcl_set_sequencer_slots()) * self.slot_width.as_u64()
    }

    /// The private-partition WCL, in slots: `2N + 1` — up to one period
    /// to drain a pending write-back, one period to re-reach the core's
    /// slot, and the response slot (the "450 cycles" for `P` in Fig. 7).
    pub(crate) fn wcl_private_slots(&self) -> u64 {
        2 * u64::from(self.total_cores) + 1
    }

    /// The private-partition WCL in cycles: `(2N + 1)·SW`.
    pub fn wcl_private(&self) -> Cycles {
        Cycles::new(self.wcl_private_slots()) * self.slot_width.as_u64()
    }

    /// How many times lower the set-sequencer WCL is than the plain
    /// 1S-TDM sharing WCL — the paper's headline metric ("2048 times
    /// lower" for a 128-line 16-way partition; our exact arithmetic gives
    /// ≈1486, see `EXPERIMENTS.md`).
    pub fn improvement_ratio(&self) -> f64 {
        match self.wcl_one_slot_tdm_checked() {
            Some(nss) => nss.as_u64() as f64 / self.wcl_set_sequencer().as_u64() as f64,
            None => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::SharingMode;

    fn paper(ways: u32, partition_lines: u64) -> WclParams {
        WclParams {
            total_cores: 4,
            sharers: 4,
            ways,
            partition_lines,
            core_capacity_lines: 64,
            slot_width: SlotWidth::PAPER,
        }
    }

    #[test]
    fn fig7_analytical_values() {
        // NSS(1,16,4): 979 250 cycles. SS: 5 000. P: 450.
        let p = paper(16, 16);
        assert_eq!(p.m(), 16);
        assert_eq!(p.interference_factor(), 2 * 3 * 16 * 3);
        assert_eq!(p.wcl_one_slot_tdm_slots_checked().unwrap(), 19_585);
        assert_eq!(p.wcl_one_slot_tdm().as_u64(), 979_250);
        assert_eq!(p.wcl_set_sequencer_slots(), 100);
        assert_eq!(p.wcl_set_sequencer().as_u64(), 5_000);
        assert_eq!(p.wcl_private_slots(), 9);
        assert_eq!(p.wcl_private().as_u64(), 450);
    }

    #[test]
    fn fig7_two_way_variant() {
        // NSS(1,2,4): m = min(64, 2) = 2, A = 2·3·2·3 = 36.
        let p = paper(2, 2);
        assert_eq!(p.wcl_one_slot_tdm_slots_checked().unwrap(), 3 * 36 * 4 + 1);
        assert_eq!(p.wcl_one_slot_tdm().as_u64(), 21_650);
        // SS does not depend on ways/partition size.
        assert_eq!(p.wcl_set_sequencer().as_u64(), 5_000);
    }

    #[test]
    fn ss_bound_is_independent_of_sizes() {
        let a = paper(2, 2).wcl_set_sequencer();
        let b = paper(16, 512).wcl_set_sequencer();
        assert_eq!(a, b);
    }

    #[test]
    fn headline_ratio_for_128_line_partition() {
        // "a 16-way LLC with 128 cache lines": M = 128 ≥ m_cua would cap
        // at the private capacity, so take m_cua large enough.
        let p = WclParams {
            total_cores: 4,
            sharers: 4,
            ways: 16,
            partition_lines: 128,
            core_capacity_lines: 128,
            slot_width: SlotWidth::PAPER,
        };
        let ratio = p.improvement_ratio();
        // Our exact arithmetic: ((129·288·4)+1)/100 ≈ 1486. The paper
        // rounds/derives 2048; the shape (three orders of magnitude)
        // holds. See EXPERIMENTS.md.
        assert!((1400.0..1600.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn degenerate_single_sharer() {
        let p = WclParams {
            sharers: 1,
            ..paper(4, 64)
        };
        assert_eq!(p.interference_factor(), 0);
        // Theorem 4.7 degenerates to one slot — the private bound is the
        // meaningful one for n = 1.
        assert_eq!(p.wcl_one_slot_tdm_slots_checked().unwrap(), 1);
        assert_eq!(p.wcl_set_sequencer_slots(), 4);
    }

    #[test]
    fn checked_variants_catch_overflow() {
        let p = WclParams {
            total_cores: u16::MAX,
            sharers: u16::MAX,
            ways: u32::MAX,
            partition_lines: u64::MAX,
            core_capacity_lines: u64::MAX,
            slot_width: SlotWidth::PAPER,
        };
        assert_eq!(p.wcl_one_slot_tdm_slots_checked(), None);
        assert_eq!(p.wcl_one_slot_tdm_checked(), None);
        assert_eq!(p.improvement_ratio(), f64::INFINITY);
    }

    #[test]
    fn from_config_extracts_partition_parameters() {
        let cfg = SystemConfig::shared_partition(1, 16, 4, SharingMode::SetSequencer).unwrap();
        let p = WclParams::from_config(&cfg).unwrap();
        assert_eq!(p.total_cores, 4);
        assert_eq!(p.sharers, 4);
        assert_eq!(p.ways, 16);
        assert_eq!(p.partition_lines, 16);
        assert_eq!(p.core_capacity_lines, 64);
        assert_eq!(p.wcl_set_sequencer().as_u64(), 5_000);
    }

    #[test]
    fn for_core_rejects_out_of_range() {
        let cfg = SystemConfig::private_partitions(2, 2, 2).unwrap();
        assert!(WclParams::for_core(&cfg, CoreId::new(7)).is_err());
    }

    #[test]
    fn wcl_grows_with_sharers_without_sequencer() {
        let mut prev = 0;
        for n in 2..=8u16 {
            let p = WclParams {
                total_cores: 8,
                sharers: n,
                ways: 4,
                partition_lines: 32,
                core_capacity_lines: 64,
                slot_width: SlotWidth::PAPER,
            };
            let w = p.wcl_one_slot_tdm_slots_checked().unwrap();
            assert!(w > prev, "WCL must grow with n");
            prev = w;
        }
    }
}
