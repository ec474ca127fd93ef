//! The bank/row-buffer-aware DRAM model.

use predllc_model::{Cycles, DramGeometry, RowAddr};

use crate::backend::{MemAccess, MemRequest, MemStats, MemoryBackend, RowOutcome};
use crate::error::DramError;
use crate::mapping::BankMapping;
use crate::timing::DramTiming;

/// Per-bank state: the open row and when the bank is next ready.
#[derive(Debug, Default, Clone, Copy)]
struct BankState {
    open_row: Option<RowAddr>,
    ready_at: Cycles,
}

/// A channels × banks DRAM with open-row policy and per-bank state
/// machines.
///
/// Every access is decoded to a `(bank, row)` pair by the configured
/// [`BankMapping`], waits for that bank's readiness, then pays the
/// [`DramTiming`] cost of its row-buffer outcome (hit / empty /
/// conflict). Writes additionally hold the bank busy for `tWR` (write
/// recovery) after their transfer — the read/write turnaround a
/// subsequent access to the same bank must wait out. Banks are fully
/// independent; channel-level bus contention is not modelled (the TDM
/// bus in front of the LLC already serializes transactions).
///
/// # Examples
///
/// ```
/// use predllc_dram::{BankMapping, BankedDram, DramTiming, MemRequest, MemoryBackend};
/// use predllc_model::{CoreId, Cycles, DramGeometry, LineAddr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dram = BankedDram::new(
///     DramTiming::PAPER,
///     DramGeometry::PAPER,
///     BankMapping::Interleaved,
///     4,
/// )?;
/// // First touch of a row: the bank is empty.
/// let a = dram.access(MemRequest::fetch(LineAddr::new(0), CoreId::new(0), Cycles::ZERO));
/// assert_eq!(a.latency, DramTiming::PAPER.row_empty());
/// // The next line of the same row hits the open row.
/// let b = dram.access(MemRequest::fetch(LineAddr::new(1), CoreId::new(0), Cycles::new(50)));
/// assert_eq!(b.latency, DramTiming::PAPER.row_hit());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BankedDram {
    timing: DramTiming,
    geometry: DramGeometry,
    mapping: BankMapping,
    num_cores: u16,
    banks: Vec<BankState>,
    stats: MemStats,
}

impl BankedDram {
    /// Creates a banked DRAM for a system of `num_cores` cores.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BanksNotDivisibleByCores`] for a
    /// [`BankMapping::BankPrivate`] mapping whose total bank count is not
    /// an exact positive multiple of the core count (the per-core slices
    /// must be equal and non-empty).
    pub fn new(
        timing: DramTiming,
        geometry: DramGeometry,
        mapping: BankMapping,
        num_cores: u16,
    ) -> Result<Self, DramError> {
        if mapping == BankMapping::BankPrivate {
            let banks = geometry.total_banks();
            if num_cores == 0 || !banks.is_multiple_of(u32::from(num_cores)) {
                return Err(DramError::BanksNotDivisibleByCores {
                    banks,
                    cores: num_cores,
                });
            }
        }
        Ok(BankedDram {
            timing,
            geometry,
            mapping,
            num_cores,
            banks: vec![BankState::default(); geometry.total_banks() as usize],
            stats: MemStats::default(),
        })
    }

    /// The timing table in force.
    pub fn timing(&self) -> DramTiming {
        self.timing
    }

    /// The device geometry.
    pub fn geometry(&self) -> DramGeometry {
        self.geometry
    }

    /// The address mapping in force.
    pub fn mapping(&self) -> BankMapping {
        self.mapping
    }
}

impl MemoryBackend for BankedDram {
    fn access(&mut self, req: MemRequest) -> MemAccess {
        let (bank_id, row) = self
            .mapping
            .decode(req.line, req.core, self.geometry, self.num_cores);
        let bank = &mut self.banks[bank_id.as_usize()];
        let waited = bank.ready_at.saturating_sub(req.at);
        // The row outcome indexes its cost instead of branching on it: a
        // random workload's outcomes defeat a branch predictor.
        let outcome_index =
            usize::from(bank.open_row.is_some()) + usize::from(bank.open_row == Some(row));
        let outcome = [RowOutcome::Empty, RowOutcome::Conflict, RowOutcome::Hit][outcome_index];
        let cost = [
            self.timing.row_empty(),
            self.timing.row_conflict(),
            self.timing.row_hit(),
        ][outcome_index];
        let latency = waited + cost;
        bank.open_row = Some(row);
        bank.ready_at = req.at + latency + Cycles::new(self.timing.t_wr * u64::from(req.write));
        let access = MemAccess {
            latency,
            bank: bank_id,
            row: Some(outcome),
            waited,
        };
        self.stats.record(&access, req.write);
        access
    }

    fn worst_case_latency(&self) -> Cycles {
        self.timing.worst_case()
    }

    fn mem_stats(&self) -> &MemStats {
        &self.stats
    }

    fn label(&self) -> String {
        format!(
            "banked({}x{},{})",
            self.geometry.channels(),
            self.geometry.banks_per_channel(),
            self.mapping
        )
    }

    fn next_busy_until(&self) -> Cycles {
        self.banks
            .iter()
            .map(|b| b.ready_at)
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    fn open_rows(&self) -> Vec<(predllc_model::BankId, u64)> {
        self.banks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                b.open_row
                    .map(|r| (predllc_model::BankId::new(i as u32), r.as_u64()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predllc_model::{BankId, CoreId, LineAddr};

    const T: DramTiming = DramTiming::PAPER;

    fn dram(mapping: BankMapping) -> BankedDram {
        BankedDram::new(T, DramGeometry::PAPER, mapping, 4).unwrap()
    }

    fn fetch(d: &mut BankedDram, line: u64, core: u16, at: u64) -> MemAccess {
        d.access(MemRequest::fetch(
            LineAddr::new(line),
            CoreId::new(core),
            Cycles::new(at),
        ))
    }

    fn write(d: &mut BankedDram, line: u64, core: u16, at: u64) -> MemAccess {
        d.access(MemRequest::write_back(
            LineAddr::new(line),
            CoreId::new(core),
            Cycles::new(at),
        ))
    }

    #[test]
    fn row_hit_miss_conflict_cycle_counts() {
        let mut d = dram(BankMapping::Interleaved);
        // Cold bank: empty → tRCD + tCAS + tBUS.
        let a = fetch(&mut d, 0, 0, 0);
        assert_eq!(a.row, Some(RowOutcome::Empty));
        assert_eq!(a.latency, T.row_empty());
        // Same row, next slot: hit → tCAS + tBUS.
        let b = fetch(&mut d, 1, 0, 50);
        assert_eq!(b.row, Some(RowOutcome::Hit));
        assert_eq!(b.latency, T.row_hit());
        // Different row, same bank (8 banks × 64-line rows → +512 lines
        // revisits bank 0): conflict → tRP + tRCD + tCAS + tBUS.
        let c = fetch(&mut d, 512, 0, 100);
        assert_eq!(c.bank, a.bank);
        assert_eq!(c.row, Some(RowOutcome::Conflict));
        assert_eq!(c.latency, T.row_conflict());
        assert_eq!(d.mem_stats().row_hits, 1);
        assert_eq!(d.mem_stats().row_empties, 1);
        assert_eq!(d.mem_stats().row_conflicts, 1);
    }

    #[test]
    fn same_slot_second_access_waits_for_the_bank() {
        let mut d = dram(BankMapping::Interleaved);
        // A write-back and a fetch to the same bank in one slot: the
        // fetch waits out the write's latency plus write recovery.
        let w = write(&mut d, 0, 0, 0);
        assert_eq!(w.waited, Cycles::ZERO);
        let f = fetch(&mut d, 512, 0, 0); // same bank, different row
        assert_eq!(f.waited, w.latency + Cycles::new(T.t_wr));
        assert_eq!(f.latency, f.waited + T.row_conflict());
        assert!(f.latency <= T.worst_case(), "within the analytical bound");
        assert_eq!(d.mem_stats().busy_waits, 1);
    }

    #[test]
    fn banks_are_independent() {
        let mut d = dram(BankMapping::Interleaved);
        write(&mut d, 0, 0, 0); // bank 0 busy
        let f = fetch(&mut d, 64, 0, 0); // bank 1: no wait
        assert_eq!(f.bank, BankId::new(1));
        assert_eq!(f.waited, Cycles::ZERO);
    }

    #[test]
    fn bank_ready_again_by_the_next_slot() {
        // The self-stabilizing property behind the worst-case bound: with
        // worst_case() = 30 < 50-cycle slots, any two same-slot accesses
        // leave the bank ready before the next boundary.
        let mut d = dram(BankMapping::Interleaved);
        write(&mut d, 0, 0, 0);
        write(&mut d, 512, 0, 0); // worst same-slot chain, both writes
        let f = fetch(&mut d, 1024, 0, 50);
        assert_eq!(f.waited, Cycles::ZERO, "cross-slot wait must be zero");
    }

    #[test]
    fn bank_private_isolates_row_buffers_between_cores() {
        let mut shared = dram(BankMapping::Interleaved);
        // Core 0 streams a row; core 1 interleaves a different row of the
        // same (shared) bank → core 0 keeps conflicting.
        fetch(&mut shared, 0, 0, 0);
        fetch(&mut shared, 512, 1, 50);
        let a = fetch(&mut shared, 2, 0, 100);
        assert_eq!(a.row, Some(RowOutcome::Conflict));

        let mut private = dram(BankMapping::BankPrivate);
        // Same traffic under bank privatization: the cores' rows live in
        // disjoint banks, so core 0's second access still row-hits.
        fetch(&mut private, 0, 0, 0);
        fetch(&mut private, 512, 1, 50);
        let b = fetch(&mut private, 2, 0, 100);
        assert_eq!(b.row, Some(RowOutcome::Hit));
    }

    #[test]
    fn bank_private_requires_divisible_banks() {
        let err = BankedDram::new(T, DramGeometry::PAPER, BankMapping::BankPrivate, 3).unwrap_err();
        assert_eq!(
            err,
            DramError::BanksNotDivisibleByCores { banks: 8, cores: 3 }
        );
        // Interleaving has no such constraint.
        assert!(BankedDram::new(T, DramGeometry::PAPER, BankMapping::Interleaved, 3).is_ok());
    }

    #[test]
    fn label_names_geometry_and_mapping() {
        assert_eq!(
            dram(BankMapping::BankPrivate).label(),
            "banked(1x8,bank-private)"
        );
    }

    #[test]
    fn next_busy_until_tracks_the_latest_bank() {
        let mut d = dram(BankMapping::Interleaved);
        assert_eq!(d.next_busy_until(), Cycles::ZERO);
        let a = fetch(&mut d, 0, 0, 100);
        assert_eq!(d.next_busy_until(), Cycles::new(100) + a.latency);
        // A later access to another bank extends the horizon; the
        // earlier bank's window is subsumed by the max.
        let b = fetch(&mut d, 1, 0, 200);
        assert_eq!(d.next_busy_until(), Cycles::new(200) + b.latency);
        // A write adds the write-recovery window on top.
        let w = d.access(MemRequest::write_back(
            LineAddr::new(2),
            CoreId::new(0),
            Cycles::new(300),
        ));
        assert_eq!(
            d.next_busy_until(),
            Cycles::new(300) + w.latency + Cycles::new(T.t_wr)
        );
    }
}
