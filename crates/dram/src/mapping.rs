//! Line-address → (bank, row) mappings.

use std::fmt;

use predllc_model::{BankId, CoreId, DramGeometry, LineAddr, RowAddr};

/// How cache-line addresses are spread across DRAM banks.
///
/// Both mappings keep a whole row's worth of consecutive lines in one
/// bank (so streaming access enjoys row-buffer locality) and differ in
/// which banks a core's traffic can land in:
///
/// * [`BankMapping::Interleaved`] rotates rows across **all** banks —
///   maximal parallelism, but cores contend for row buffers.
/// * [`BankMapping::BankPrivate`] gives every core an equal, disjoint
///   slice of the banks and routes each access to its **issuing**
///   core's slice — the bank-privatization scheme of predictable
///   memory controllers. Traffic of different cores can never contend
///   for a row buffer, so for data that is not shared between cores
///   (private LLC partitions, disjoint address ranges) there is no
///   inter-core row-buffer interference by construction. For lines
///   genuinely shared across cores the guarantee weakens, as on real
///   privatized controllers: a shared line is routed per requester, so
///   its traffic lands in whichever sharer's slice carried the bus
///   transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BankMapping {
    /// Rows rotate over all banks, shared by every core.
    #[default]
    Interleaved,
    /// Banks are sliced per core; an access uses its core's slice only.
    BankPrivate,
}

impl fmt::Display for BankMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BankMapping::Interleaved => f.write_str("interleaved"),
            BankMapping::BankPrivate => f.write_str("bank-private"),
        }
    }
}

impl BankMapping {
    /// Decodes a line address to the bank and row it lives in.
    ///
    /// For [`BankMapping::BankPrivate`] the result depends on the
    /// issuing core: the line is placed within that core's bank slice.
    /// The caller guarantees `geometry.total_banks()` is divisible by
    /// `num_cores` (validated when the memory configuration is built).
    pub(crate) fn decode(
        &self,
        line: LineAddr,
        core: CoreId,
        geometry: DramGeometry,
        num_cores: u16,
    ) -> (BankId, RowAddr) {
        let row_lines = u64::from(geometry.row_lines());
        let banks = u64::from(geometry.total_banks());
        let row_of = div(line.as_u64(), row_lines);
        match self {
            BankMapping::Interleaved => {
                let (row, bank) = div_rem(row_of, banks);
                (BankId::new(bank as u32), RowAddr::new(row))
            }
            BankMapping::BankPrivate => {
                let per_core = banks / u64::from(num_cores.max(1));
                let base = u64::from(core.index()) * per_core;
                let (row, offset) = div_rem(row_of, per_core);
                (BankId::new((base + offset) as u32), RowAddr::new(row))
            }
        }
    }
}

/// `n / d`, by a shift when `d` is a power of two (every shipped
/// geometry: 64-line rows, 8 banks).
#[inline]
fn div(n: u64, d: u64) -> u64 {
    if d.is_power_of_two() {
        n >> d.trailing_zeros()
    } else {
        n / d
    }
}

/// `(n / d, n % d)`, by a shift and a mask when `d` is a power of two.
#[inline]
fn div_rem(n: u64, d: u64) -> (u64, u64) {
    if d.is_power_of_two() {
        (n >> d.trailing_zeros(), n & (d - 1))
    } else {
        (n / d, n % d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: DramGeometry = DramGeometry::PAPER; // 8 banks, 64 lines/row

    #[test]
    fn interleaved_keeps_rows_together_and_rotates_banks() {
        let m = BankMapping::Interleaved;
        // Lines 0..63 are one row in one bank.
        let (b0, r0) = m.decode(LineAddr::new(0), CoreId::new(0), G, 4);
        let (b1, r1) = m.decode(LineAddr::new(63), CoreId::new(0), G, 4);
        assert_eq!((b0, r0), (b1, r1));
        // The next row lands in the next bank.
        let (b2, _) = m.decode(LineAddr::new(64), CoreId::new(0), G, 4);
        assert_eq!(b2, BankId::new(1));
        // After all 8 banks, the row index advances.
        let (b3, r3) = m.decode(LineAddr::new(64 * 8), CoreId::new(3), G, 4);
        assert_eq!(b3, BankId::new(0));
        assert_eq!(r3, RowAddr::new(1));
        // The issuing core is irrelevant under interleaving.
        let (b4, _) = m.decode(LineAddr::new(64), CoreId::new(3), G, 4);
        assert_eq!(b4, b2);
    }

    #[test]
    fn bank_private_slices_are_disjoint_per_core() {
        let m = BankMapping::BankPrivate;
        // 8 banks / 4 cores = 2 banks per core.
        for core in 0..4u16 {
            for line in [0u64, 64, 128, 9999] {
                let (b, _) = m.decode(LineAddr::new(line), CoreId::new(core), G, 4);
                let slice = b.index() / 2;
                assert_eq!(slice, u32::from(core), "core {core} escaped its slice");
            }
        }
    }

    #[test]
    fn bank_private_rotates_within_the_slice() {
        let m = BankMapping::BankPrivate;
        let (b0, r0) = m.decode(LineAddr::new(0), CoreId::new(1), G, 4);
        let (b1, _) = m.decode(LineAddr::new(64), CoreId::new(1), G, 4);
        assert_eq!(b0, BankId::new(2));
        assert_eq!(b1, BankId::new(3));
        assert_eq!(r0, RowAddr::new(0));
        // Two rows later we are back in the first bank of the slice, one
        // row deeper.
        let (b2, r2) = m.decode(LineAddr::new(128), CoreId::new(1), G, 4);
        assert_eq!(b2, BankId::new(2));
        assert_eq!(r2, RowAddr::new(1));
    }

    #[test]
    fn shifts_and_divisions_decode_alike() {
        // 8 banks × 64-line rows take the shift path; 6 banks × 48-line
        // rows divide. Both must agree with plain division.
        for (g, cores) in [(G, 4u16), (DramGeometry::new(1, 6, 48).unwrap(), 3)] {
            let (row_lines, banks) = (u64::from(g.row_lines()), u64::from(g.total_banks()));
            for line in [0u64, 63, 64, 1000, 123_456_789, u64::MAX] {
                let row_of = line / row_lines;
                let (b, r) =
                    BankMapping::Interleaved.decode(LineAddr::new(line), CoreId::new(0), g, cores);
                assert_eq!(
                    (b.index() as u64, r.as_u64()),
                    (row_of % banks, row_of / banks)
                );
                let per_core = banks / u64::from(cores);
                let core = CoreId::new(cores - 1);
                let (b, r) = BankMapping::BankPrivate.decode(LineAddr::new(line), core, g, cores);
                let want = u64::from(core.index()) * per_core + row_of % per_core;
                assert_eq!((b.index() as u64, r.as_u64()), (want, row_of / per_core));
            }
        }
    }

    #[test]
    fn mapping_displays() {
        assert_eq!(BankMapping::Interleaved.to_string(), "interleaved");
        assert_eq!(BankMapping::BankPrivate.to_string(), "bank-private");
        assert_eq!(BankMapping::default(), BankMapping::Interleaved);
    }
}
