//! Simulation statistics: per-core and system-wide counters, plus the
//! request-latency records the WCL experiments are built on.
//!
//! The seven per-transaction counters — per core `llc_hits`,
//! `llc_fills`, `back_invalidations`, `writebacks_sent` and
//! `blocked_slots`, system-wide `evictions_triggered` and `lines_freed`
//! — are folds over the slot facts the engine emits: each is counted by
//! `SimStats::count` from the same event the log records.

use predllc_model::{CoreId, Cycles};

use crate::events::EventKind;
use crate::histogram::LatencyHistogram;

/// Counters for one core.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CoreStats {
    /// Memory operations completed.
    pub ops_completed: u64,
    /// Hits in the private L1 (instruction or data).
    pub l1_hits: u64,
    /// Hits in the private L2.
    pub l2_hits: u64,
    /// LLC hits (request answered from LLC contents).
    pub llc_hits: u64,
    /// LLC fills (request answered after a DRAM fetch).
    pub llc_fills: u64,
    /// Back-invalidations received from the LLC.
    pub back_invalidations: u64,
    /// Write-backs transmitted on the bus (acks + capacity evictions).
    pub writebacks_sent: u64,
    /// Slots in which this core's pending request made no progress.
    pub blocked_slots: u64,
    /// Worst observed request latency (PRB entry → response).
    pub max_request_latency: Cycles,
    /// Sum of all request latencies (for averages).
    pub total_request_latency: Cycles,
    /// Number of LLC requests measured.
    pub requests: u64,
    /// Cycle at which the core finished its trace (0 if unfinished).
    pub finished_at: Cycles,
    /// The full request-latency distribution (log-bucketed; its exact
    /// maximum always equals [`CoreStats::max_request_latency`]).
    pub latencies: LatencyHistogram,
}

impl CoreStats {
    /// Records a completed LLC request's latency.
    pub(crate) fn record_latency(&mut self, latency: Cycles) {
        self.requests += 1;
        self.total_request_latency += latency;
        if latency > self.max_request_latency {
            self.max_request_latency = latency;
        }
        self.latencies.record(latency);
    }

    /// Records `n` completed LLC requests that all observed the same
    /// latency — the bulk path the engine's fast-forward mode uses for
    /// steady-state runs of identical response latencies. Equivalent to
    /// `n` calls to [`CoreStats::record_latency`].
    pub(crate) fn record_latency_n(&mut self, latency: Cycles, n: u64) {
        if n == 0 {
            return;
        }
        self.requests += n;
        self.total_request_latency += latency * n;
        if latency > self.max_request_latency {
            self.max_request_latency = latency;
        }
        self.latencies.record_n(latency, n);
    }

    /// Mean request latency, or zero if no requests were measured.
    pub fn mean_request_latency(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_request_latency.as_u64() as f64 / self.requests as f64
        }
    }

    /// Private-hierarchy hit rate over all completed operations.
    pub fn private_hit_rate(&self) -> f64 {
        if self.ops_completed == 0 {
            0.0
        } else {
            (self.l1_hits + self.l2_hits) as f64 / self.ops_completed as f64
        }
    }
}

/// System-wide counters and the per-core breakdown.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimStats {
    /// Per-core statistics, indexed by core.
    pub cores: Vec<CoreStats>,
    /// Total slots simulated.
    pub slots: u64,
    /// Slots in which the owner transmitted nothing.
    pub idle_slots: u64,
    /// LLC evictions triggered.
    pub evictions_triggered: u64,
    /// LLC entries freed after completing the eviction protocol.
    pub lines_freed: u64,
    /// DRAM line fetches.
    pub dram_reads: u64,
    /// DRAM line write-backs.
    pub dram_writes: u64,
    /// DRAM accesses that hit the open row (banked backends only).
    pub dram_row_hits: u64,
    /// DRAM accesses to a bank with no open row (banked backends only).
    pub dram_row_empties: u64,
    /// DRAM accesses that conflicted with a different open row (banked
    /// backends only).
    pub dram_row_conflicts: u64,
    /// DRAM accesses that waited on a busy bank (banked backends only).
    pub dram_busy_waits: u64,
    /// Worst single DRAM access latency observed.
    pub max_dram_latency: Cycles,
    /// Row conflicts per bank, indexed by global bank id (empty for the
    /// fixed-latency backend).
    pub dram_bank_conflicts: Vec<u64>,
    /// Largest sequencer queue depth observed across partitions.
    pub max_sequencer_depth: usize,
    /// Deepest any core's pending-write-back buffer ever got. The
    /// paper's Corollary 4.5 argument bounds it by the sharer count.
    pub max_pwb_depth: usize,
    /// Largest number of simultaneously tracked sets across partitions.
    pub max_sequencer_sets: usize,
}

impl SimStats {
    /// Creates zeroed stats for `n` cores.
    pub fn new(n: u16) -> Self {
        SimStats {
            cores: (0..n).map(|_| CoreStats::default()).collect(),
            ..SimStats::default()
        }
    }

    /// Statistics of one core.
    pub fn core(&self, core: CoreId) -> &CoreStats {
        &self.cores[core.as_usize()]
    }

    /// Mutable statistics of one core.
    pub(crate) fn core_mut(&mut self, core: CoreId) -> &mut CoreStats {
        &mut self.cores[core.as_usize()]
    }

    /// Counts one slot fact. Every event kind is matched by name, so a
    /// new kind must say which counter it feeds, if any. Always inlined:
    /// every engine call site builds its kind in place, so the match
    /// folds to one increment (or none) there.
    #[inline(always)]
    pub(crate) fn count(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::Hit { core, .. } => self.core_mut(core).llc_hits += 1,
            EventKind::Fill { core, .. } => self.core_mut(core).llc_fills += 1,
            EventKind::BackInvalidation { core, .. } => {
                self.core_mut(core).back_invalidations += 1;
            }
            EventKind::WritebackTransmitted { core, .. } => {
                self.core_mut(core).writebacks_sent += 1;
            }
            EventKind::Blocked { core, .. } => self.core_mut(core).blocked_slots += 1,
            EventKind::EvictionTriggered { .. } => self.evictions_triggered += 1,
            EventKind::LineFreed { .. } => self.lines_freed += 1,
            EventKind::RequestBroadcast { .. }
            | EventKind::SequencerEnqueued { .. }
            | EventKind::DramAccess { .. } => {}
        }
    }

    /// The worst request latency observed on any core.
    pub fn max_request_latency(&self) -> Cycles {
        self.cores
            .iter()
            .map(|c| c.max_request_latency)
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// The system-wide request-latency distribution: every core's
    /// histogram merged (lossless counter addition).
    pub(crate) fn request_latencies(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for core in &self.cores {
            merged.merge(&core.latencies);
        }
        merged
    }

    /// The cycle at which the last core finished (the workload's
    /// execution time).
    pub fn makespan(&self) -> Cycles {
        self.cores
            .iter()
            .map(|c| c.finished_at)
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// Fraction of banked DRAM accesses that hit the open row (0 when
    /// no banked access was recorded, e.g. under the fixed-latency
    /// backend).
    pub fn dram_row_hit_rate(&self) -> f64 {
        predllc_dram::backend::row_hit_rate(
            self.dram_row_hits,
            self.dram_row_empties,
            self.dram_row_conflicts,
        )
    }

    /// Folds a memory backend's counters into the report fields.
    pub fn absorb_memory(&mut self, mem: &predllc_dram::MemStats) {
        self.dram_reads = mem.reads;
        self.dram_writes = mem.writes;
        self.dram_row_hits = mem.row_hits;
        self.dram_row_empties = mem.row_empties;
        self.dram_row_conflicts = mem.row_conflicts;
        self.dram_busy_waits = mem.busy_waits;
        self.max_dram_latency = mem.max_latency;
        self.dram_bank_conflicts = mem.per_bank_conflicts.clone();
    }

    /// Bus utilization: fraction of slots carrying a transaction.
    pub fn bus_utilization(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            (self.slots - self.idle_slots) as f64 / self.slots as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_recording_tracks_max_and_mean() {
        let mut s = CoreStats::default();
        s.record_latency(Cycles::new(100));
        s.record_latency(Cycles::new(300));
        s.record_latency(Cycles::new(200));
        assert_eq!(s.max_request_latency, Cycles::new(300));
        assert_eq!(s.requests, 3);
        assert!((s.mean_request_latency() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = CoreStats::default();
        assert_eq!(s.mean_request_latency(), 0.0);
        assert_eq!(s.private_hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_counts_both_private_levels() {
        let s = CoreStats {
            ops_completed: 10,
            l1_hits: 6,
            l2_hits: 2,
            ..CoreStats::default()
        };
        assert!((s.private_hit_rate() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn latency_histogram_tracks_every_record() {
        let mut s = SimStats::new(2);
        s.core_mut(CoreId::new(0)).record_latency(Cycles::new(90));
        s.core_mut(CoreId::new(0)).record_latency(Cycles::new(450));
        s.core_mut(CoreId::new(1)).record_latency(Cycles::new(140));
        let merged = s.request_latencies();
        assert_eq!(merged.count(), 3);
        // The distribution's exact max is the scalar the experiments
        // always reported.
        assert_eq!(merged.max(), s.max_request_latency());
        assert_eq!(merged.percentile(100.0), Cycles::new(450));
        // Per core, the histogram agrees with the scalar counters too.
        let c0 = s.core(CoreId::new(0));
        assert_eq!(c0.latencies.count(), c0.requests);
        assert_eq!(c0.latencies.max(), c0.max_request_latency);
        assert_eq!(c0.latencies.total(), c0.total_request_latency);
    }

    #[test]
    fn sim_stats_aggregates() {
        let mut s = SimStats::new(2);
        s.core_mut(CoreId::new(0)).record_latency(Cycles::new(10));
        s.core_mut(CoreId::new(1)).record_latency(Cycles::new(99));
        s.core_mut(CoreId::new(0)).finished_at = Cycles::new(1000);
        s.core_mut(CoreId::new(1)).finished_at = Cycles::new(2000);
        assert_eq!(s.max_request_latency(), Cycles::new(99));
        assert_eq!(s.makespan(), Cycles::new(2000));
    }

    #[test]
    fn memory_counters_fold_into_the_report() {
        let mem = predllc_dram::MemStats {
            reads: 7,
            writes: 3,
            row_hits: 4,
            row_empties: 2,
            row_conflicts: 4,
            busy_waits: 1,
            max_latency: Cycles::new(23),
            per_bank_conflicts: vec![0, 4],
        };
        let mut s = SimStats::new(1);
        s.absorb_memory(&mem);
        assert_eq!((s.dram_reads, s.dram_writes), (7, 3));
        assert_eq!(s.dram_row_conflicts, 4);
        assert_eq!(s.max_dram_latency, Cycles::new(23));
        assert_eq!(s.dram_bank_conflicts, vec![0, 4]);
        assert!((s.dram_row_hit_rate() - 0.4).abs() < 1e-9);
        // No banked accesses → rate is defined as zero.
        assert_eq!(SimStats::new(1).dram_row_hit_rate(), 0.0);
    }

    #[test]
    fn bus_utilization_fraction() {
        let s = SimStats {
            slots: 10,
            idle_slots: 4,
            ..SimStats::new(1)
        };
        assert!((s.bus_utilization() - 0.6).abs() < 1e-9);
        assert_eq!(SimStats::new(1).bus_utilization(), 0.0);
    }
}
