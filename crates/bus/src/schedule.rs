//! TDM schedules, the 1S-TDM restriction, and slot distance.

use std::error::Error;
use std::fmt;

use predllc_model::CoreId;

/// Errors raised while constructing or querying a [`TdmSchedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The slot list was empty.
    Empty,
    /// A core never appears in the schedule, so it could never issue a
    /// request and any analysis involving it is meaningless.
    CoreWithoutSlot {
        /// The absent core.
        core: CoreId,
    },
    /// A distance query (Definition 4.2) was made on a schedule that is
    /// not 1S-TDM; distance is only well-defined when each core has
    /// exactly one slot per period.
    NotOneSlot,
    /// A query referenced a core outside the schedule.
    UnknownCore {
        /// The unknown core.
        core: CoreId,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Empty => write!(f, "schedule must contain at least one slot"),
            ScheduleError::CoreWithoutSlot { core } => {
                write!(f, "core {core} below the schedule's maximum has no slot")
            }
            ScheduleError::NotOneSlot => {
                write!(f, "distance is only defined for 1S-TDM schedules")
            }
            ScheduleError::UnknownCore { core } => {
                write!(f, "core {core} does not appear in the schedule")
            }
        }
    }
}

impl Error for ScheduleError {}

/// A time-division-multiplexing bus schedule: the cyclic list of slot
/// owners within one period.
///
/// Slots are equally sized (the width lives in the simulator
/// configuration, not here); global slot `k` is owned by
/// `slots[k mod period]`.
///
/// # Examples
///
/// ```
/// use predllc_bus::TdmSchedule;
/// use predllc_model::CoreId;
///
/// # fn main() -> Result<(), predllc_bus::ScheduleError> {
/// // The unbounded-WCL scenario of Fig. 2: cua has one slot, ci two.
/// let cua = CoreId::new(0);
/// let ci = CoreId::new(1);
/// let s = TdmSchedule::new(vec![cua, ci, ci])?;
/// assert!(!s.is_one_slot());
/// assert_eq!(s.owner(0), cua);
/// assert_eq!(s.owner(5), ci); // slot 5 = index 2 of period 3
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TdmSchedule {
    slots: Vec<CoreId>,
    num_cores: u16,
    /// `period - 1` when the period is a power of two (every 1S-TDM
    /// schedule of 2^k cores), so [`TdmSchedule::owner`] masks instead
    /// of dividing; `None` otherwise.
    index_mask: Option<u64>,
}

impl TdmSchedule {
    /// Creates a schedule from an explicit slot-owner list.
    ///
    /// Cores are identified densely: the schedule covers cores
    /// `c0 ..= c_max` where `c_max` is the largest index appearing in
    /// `slots`, and every one of those cores must own at least one slot.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Empty`] for an empty list;
    /// [`ScheduleError::CoreWithoutSlot`] if some core below the maximum
    /// never appears.
    pub fn new(slots: Vec<CoreId>) -> Result<Self, ScheduleError> {
        if slots.is_empty() {
            return Err(ScheduleError::Empty);
        }
        let num_cores = slots.iter().map(|c| c.index()).max().unwrap() + 1;
        for core in CoreId::first(num_cores) {
            if !slots.contains(&core) {
                return Err(ScheduleError::CoreWithoutSlot { core });
            }
        }
        Ok(TdmSchedule::from_slots(slots, num_cores))
    }

    fn from_slots(slots: Vec<CoreId>, num_cores: u16) -> Self {
        let period = slots.len() as u64;
        TdmSchedule {
            index_mask: period.is_power_of_two().then(|| period - 1),
            slots,
            num_cores,
        }
    }

    /// Creates the canonical 1S-TDM schedule `{c0, c1, …, c(n-1)}`.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn one_slot(num_cores: u16) -> Self {
        assert!(num_cores > 0, "a schedule needs at least one core");
        TdmSchedule::from_slots(CoreId::first(num_cores).collect(), num_cores)
    }

    /// The period length in slots.
    pub fn period(&self) -> u64 {
        self.slots.len() as u64
    }

    /// The number of cores covered (`max index + 1`).
    pub fn num_cores(&self) -> u16 {
        self.num_cores
    }

    /// The slot owners within one period.
    pub fn slot_owners(&self) -> &[CoreId] {
        &self.slots
    }

    /// The owner of global slot `global_slot`.
    #[inline]
    pub fn owner(&self, global_slot: u64) -> CoreId {
        let index = match self.index_mask {
            Some(mask) => global_slot & mask,
            None => global_slot % self.period(),
        };
        self.slots[index as usize]
    }

    /// Whether this is a 1S-TDM schedule (Definition 4.1): exactly one
    /// slot per core per period.
    pub fn is_one_slot(&self) -> bool {
        self.period() == u64::from(self.num_cores)
    }

    /// The *distance* `d_{ci}^{cj}` of Definition 4.2: the number of slots
    /// between the start of `ci`'s slot and the start of `cj`'s next slot.
    ///
    /// By Corollary 4.3 the result is in `1..=N`; in particular the
    /// distance of a core to itself is `N` (a full period).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NotOneSlot`] if the schedule is not 1S-TDM (the
    /// definition presumes a unique slot per core);
    /// [`ScheduleError::UnknownCore`] for out-of-range cores.
    ///
    /// # Examples
    ///
    /// ```
    /// use predllc_bus::TdmSchedule;
    /// use predllc_model::CoreId;
    ///
    /// # fn main() -> Result<(), predllc_bus::ScheduleError> {
    /// let s = TdmSchedule::one_slot(4);
    /// assert_eq!(s.distance(CoreId::new(0), CoreId::new(0))?, 4);
    /// assert_eq!(s.distance(CoreId::new(0), CoreId::new(1))?, 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn distance(&self, ci: CoreId, cj: CoreId) -> Result<u64, ScheduleError> {
        if !self.is_one_slot() {
            return Err(ScheduleError::NotOneSlot);
        }
        let pos = |c: CoreId| -> Result<u64, ScheduleError> {
            self.slots
                .iter()
                .position(|&x| x == c)
                .map(|p| p as u64)
                .ok_or(ScheduleError::UnknownCore { core: c })
        };
        let pi = pos(ci)?;
        let pj = pos(cj)?;
        let n = self.period();
        // Slots strictly after ci's up to and including cj's next slot.
        Ok(((pj + n - pi - 1) % n) + 1)
    }
}

impl fmt::Display for TdmSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(TdmSchedule::new(vec![]), Err(ScheduleError::Empty));
    }

    #[test]
    fn rejects_missing_core() {
        // c1 never appears but c2 does.
        assert_eq!(
            TdmSchedule::new(vec![c(0), c(2)]),
            Err(ScheduleError::CoreWithoutSlot { core: c(1) })
        );
    }

    #[test]
    fn one_slot_schedule_properties() {
        let s = TdmSchedule::one_slot(4);
        assert!(s.is_one_slot());
        assert_eq!(s.period(), 4);
        assert_eq!(s.num_cores(), 4);
        for i in 0..4 {
            assert_eq!(s.owner(i), c(i as u16));
            assert_eq!(s.owner(i + 4), c(i as u16));
            assert_eq!(
                s.slot_owners()
                    .iter()
                    .filter(|&&o| o == c(i as u16))
                    .count(),
                1
            );
        }
    }

    #[test]
    fn fig2_schedule_is_not_one_slot() {
        let s = TdmSchedule::new(vec![c(0), c(1), c(1)]).unwrap();
        assert!(!s.is_one_slot());
        assert_eq!(s.slot_owners().iter().filter(|&&o| o == c(1)).count(), 2);
        assert_eq!(s.distance(c(0), c(1)), Err(ScheduleError::NotOneSlot));
    }

    #[test]
    fn distance_matches_paper_examples() {
        // Schedule {cua, c2, c3, c4} with cua = c0.
        let s = TdmSchedule::one_slot(4);
        assert_eq!(s.distance(c(2), c(0)).unwrap(), 2); // d_{c3}^{cua} = 2
        assert_eq!(s.distance(c(3), c(0)).unwrap(), 1); // d_{c4}^{cua} = 1
        assert_eq!(s.distance(c(1), c(0)).unwrap(), 3); // d_{c2}^{cua} = 3
        assert_eq!(s.distance(c(0), c(0)).unwrap(), 4); // self = N
    }

    #[test]
    fn distance_within_corollary_bounds() {
        // Corollary 4.3: 1 <= d <= N for every pair.
        for n in 1..=8u16 {
            let s = TdmSchedule::one_slot(n);
            for i in 0..n {
                for j in 0..n {
                    let d = s.distance(c(i), c(j)).unwrap();
                    assert!(d >= 1 && d <= u64::from(n), "d(c{i},c{j}) = {d}");
                }
            }
        }
    }

    #[test]
    fn owner_masks_and_divides_alike() {
        for owners in [vec![c(0), c(1), c(1)], vec![c(0), c(1), c(2), c(1)]] {
            let s = TdmSchedule::new(owners.clone()).unwrap();
            for slot in [0u64, 1, 2, 3, 7, 1 << 40, u64::MAX] {
                assert_eq!(s.owner(slot), owners[(slot % owners.len() as u64) as usize]);
            }
        }
    }

    #[test]
    fn display_lists_slots() {
        let s = TdmSchedule::one_slot(3);
        assert_eq!(s.to_string(), "{c0, c1, c2}");
    }

    #[test]
    fn clone_roundtrip() {
        let s = TdmSchedule::new(vec![c(0), c(1), c(1)]).unwrap();
        let back = s.clone();
        assert_eq!(back, s);
    }
}
