//! The [`MemoryBackend`] trait: the narrow latency interface the LLC
//! controller drives, and the request/response/statistics vocabulary all
//! backends share.

use std::fmt;

use predllc_model::{BankId, CoreId, Cycles, LineAddr};

/// One memory transaction presented to a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// The cache line being fetched or written back.
    pub line: LineAddr,
    /// The core whose bus transaction carries the access (used by the
    /// bank-privatized address mapping).
    pub core: CoreId,
    /// The cycle at which the access starts (the slot boundary).
    pub at: Cycles,
    /// `true` for a write-back, `false` for a miss fill fetch.
    pub write: bool,
}

impl MemRequest {
    /// A miss-fill fetch by `core` at cycle `at`.
    pub const fn fetch(line: LineAddr, core: CoreId, at: Cycles) -> Self {
        MemRequest {
            line,
            core,
            at,
            write: false,
        }
    }

    /// A write-back by `core` at cycle `at`.
    pub const fn write_back(line: LineAddr, core: CoreId, at: Cycles) -> Self {
        MemRequest {
            line,
            core,
            at,
            write: true,
        }
    }
}

/// How an access interacted with the targeted bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowOutcome {
    /// The open row matched: column access only.
    Hit,
    /// The bank had no open row: activate + column access.
    Empty,
    /// A different row was open: precharge + activate + column access.
    Conflict,
}

impl fmt::Display for RowOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowOutcome::Hit => f.write_str("row hit"),
            RowOutcome::Empty => f.write_str("row empty"),
            RowOutcome::Conflict => f.write_str("row conflict"),
        }
    }
}

/// The backend's answer to one [`MemRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Total access latency, including any wait on a busy bank.
    pub latency: Cycles,
    /// The bank the access was routed to (always `bank0` for flat
    /// backends).
    pub bank: BankId,
    /// Row-buffer interaction, or `None` for backends without banks
    /// (the fixed-latency model) — per-access DRAM events are only
    /// emitted when this is `Some`, which keeps fixed-latency event logs
    /// identical to the seed's.
    pub row: Option<RowOutcome>,
    /// Portion of `latency` spent waiting for the bank to become ready.
    pub waited: Cycles,
}

/// Traffic and row-buffer counters accumulated by a backend.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MemStats {
    /// Line fetches (LLC miss fills).
    pub reads: u64,
    /// Line write-backs (dirty LLC evictions).
    pub writes: u64,
    /// Accesses that hit the open row.
    pub row_hits: u64,
    /// Accesses to a bank with no open row.
    pub row_empties: u64,
    /// Accesses that conflicted with a different open row.
    pub row_conflicts: u64,
    /// Accesses that had to wait on a busy bank.
    pub busy_waits: u64,
    /// Worst single-access latency observed.
    pub max_latency: Cycles,
    /// Row conflicts per bank (empty for flat backends).
    pub per_bank_conflicts: Vec<u64>,
}

impl MemStats {
    /// Total accesses counted.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of banked accesses that hit the open row (0 when no
    /// banked access was recorded).
    pub fn row_hit_rate(&self) -> f64 {
        row_hit_rate(self.row_hits, self.row_empties, self.row_conflicts)
    }

    /// Records one banked access outcome. Every counter but the
    /// per-bank conflicts is a branch-free add: row outcomes of a
    /// random workload defeat a branch predictor.
    #[inline]
    pub fn record(&mut self, access: &MemAccess, write: bool) {
        self.writes += u64::from(write);
        self.reads += u64::from(!write);
        self.max_latency = self.max_latency.max(access.latency);
        self.busy_waits += u64::from(access.waited > Cycles::ZERO);
        let Some(row) = access.row else {
            return;
        };
        self.row_hits += u64::from(row == RowOutcome::Hit);
        self.row_empties += u64::from(row == RowOutcome::Empty);
        if row == RowOutcome::Conflict {
            self.row_conflicts += 1;
            let b = access.bank.as_usize();
            if self.per_bank_conflicts.len() <= b {
                self.per_bank_conflicts.resize(b + 1, 0);
            }
            self.per_bank_conflicts[b] += 1;
        }
    }
}

/// The row-hit rate over a hits/empties/conflicts breakdown: `hits`
/// over the total, or 0 when no banked access was recorded. The single
/// definition shared by [`MemStats`] and the simulator's report stats.
pub fn row_hit_rate(hits: u64, empties: u64, conflicts: u64) -> f64 {
    let banked = hits + empties + conflicts;
    if banked == 0 {
        0.0
    } else {
        hits as f64 / banked as f64
    }
}

/// A pluggable memory model behind the LLC.
///
/// The simulation engine owns the clock; a backend performs no timing of
/// its own beyond tracking per-bank readiness against the request
/// timestamps it is handed. Implementations must be deterministic: the
/// same request sequence yields the same latencies and statistics.
///
/// The contract with the paper's system model: every access must
/// complete within the requester's TDM slot, so
/// [`MemoryBackend::worst_case_latency`] is validated against the slot
/// width when a [`SystemConfig`] is built, and every latency returned by
/// [`MemoryBackend::access`] must be `≤ worst_case_latency()`.
///
/// Because of that budget, a backend's answer never feeds back into
/// simulated time: a request serviced in a slot is answered at the end
/// of the slot, whatever its latency. The engine reads a backend only
/// for `DramAccess` events, latency attribution's DRAM split, the WCL
/// witness's open rows and the report's DRAM counters. Two runs that
/// differ only in their backend therefore take the same course, which
/// is why one run may drive *twin* backends beside the one it reports
/// ([`Simulator::run_with_twins`]): each twin sees every access and
/// ends with the counters a run of its own would have.
///
/// [`SystemConfig`]: https://docs.rs/predllc-core
/// [`Simulator::run_with_twins`]: https://docs.rs/predllc-core
pub trait MemoryBackend: fmt::Debug + Send {
    /// Performs one access, returning its latency and routing details.
    fn access(&mut self, req: MemRequest) -> MemAccess;

    /// The analytical worst-case latency of any single access — the
    /// sound bound the WCL analysis and the slot-budget check fold in.
    fn worst_case_latency(&self) -> Cycles;

    /// Counters accumulated so far.
    fn mem_stats(&self) -> &MemStats;

    /// A short human-readable label for reports (e.g. `fixed(30)`).
    fn label(&self) -> String;

    /// The latest cycle at which any internal resource (a DRAM bank, a
    /// write-recovery window) is still busy from past accesses —
    /// [`Cycles::ZERO`] for stateless backends.
    ///
    /// Because all backend state is keyed by the request timestamps the
    /// engine hands in, a fast-forward engine may jump the clock across
    /// idle bus slots without stepping the backend; this accessor lets it
    /// (and tests) verify that such a jump never lands in front of
    /// residual bank busyness it would otherwise have simulated through.
    fn next_busy_until(&self) -> Cycles {
        Cycles::ZERO
    }

    /// The rows currently open across the backend's banks, as
    /// `(bank, row)` pairs — empty for backends without row buffers.
    /// A read-only diagnostic snapshot (the engine's WCL witness records
    /// it as the bank state a worst-case request ran into).
    fn open_rows(&self) -> Vec<(BankId, u64)> {
        Vec::new()
    }
}

impl<B: MemoryBackend + ?Sized> MemoryBackend for Box<B> {
    fn access(&mut self, req: MemRequest) -> MemAccess {
        (**self).access(req)
    }

    fn worst_case_latency(&self) -> Cycles {
        (**self).worst_case_latency()
    }

    fn mem_stats(&self) -> &MemStats {
        (**self).mem_stats()
    }

    fn label(&self) -> String {
        (**self).label()
    }

    fn next_busy_until(&self) -> Cycles {
        (**self).next_busy_until()
    }

    fn open_rows(&self) -> Vec<(BankId, u64)> {
        (**self).open_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors_set_direction() {
        let f = MemRequest::fetch(LineAddr::new(1), CoreId::new(0), Cycles::new(50));
        assert!(!f.write);
        let w = MemRequest::write_back(LineAddr::new(1), CoreId::new(0), Cycles::new(50));
        assert!(w.write);
        assert_eq!(w.at, Cycles::new(50));
    }

    #[test]
    fn stats_record_outcomes_and_per_bank_conflicts() {
        let mut s = MemStats::default();
        let hit = MemAccess {
            latency: Cycles::new(4),
            bank: BankId::new(0),
            row: Some(RowOutcome::Hit),
            waited: Cycles::ZERO,
        };
        let conflict = MemAccess {
            latency: Cycles::new(20),
            bank: BankId::new(3),
            row: Some(RowOutcome::Conflict),
            waited: Cycles::new(9),
        };
        s.record(&hit, false);
        s.record(&conflict, true);
        assert_eq!((s.reads, s.writes), (1, 1));
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.row_conflicts, 1);
        assert_eq!(s.busy_waits, 1);
        assert_eq!(s.max_latency, Cycles::new(20));
        assert_eq!(s.per_bank_conflicts, vec![0, 0, 0, 1]);
        assert_eq!(s.accesses(), 2);
        assert!((s.row_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn flat_accesses_do_not_touch_row_counters() {
        let mut s = MemStats::default();
        let flat = MemAccess {
            latency: Cycles::new(30),
            bank: BankId::new(0),
            row: None,
            waited: Cycles::ZERO,
        };
        s.record(&flat, false);
        assert_eq!(s.reads, 1);
        assert_eq!(s.row_hits + s.row_empties + s.row_conflicts, 0);
        assert_eq!(s.row_hit_rate(), 0.0);
        assert!(s.per_bank_conflicts.is_empty());
    }

    #[test]
    fn row_outcome_displays() {
        assert_eq!(RowOutcome::Hit.to_string(), "row hit");
        assert_eq!(RowOutcome::Empty.to_string(), "row empty");
        assert_eq!(RowOutcome::Conflict.to_string(), "row conflict");
    }
}
