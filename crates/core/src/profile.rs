//! Sampled wall-clock profiling of the engine's per-slot stages.
//!
//! An [`EngineProfile`] hands the engine four log-bucketed
//! [`TimingHistogram`]s — one per stage of a processed slot — plus a
//! sampling cadence. Profiling is **opt-in per run**
//! ([`Simulator::run_profiled`](crate::Simulator::run_profiled)); the
//! default [`Simulator::run`](crate::Simulator::run) passes `None`. At
//! each opportunity (a processed slot, or the fast loop's choice of its
//! next step) the engine asks `EngineProfile::should_sample` once and
//! keeps the answer as a start time on its own stack; without a profile
//! that is one branch on an empty `Option` and no clock read or atomic
//! operation.
//!
//! The profile only ever *reads* wall-clock time — nothing it measures
//! feeds back into simulated time, so a profiled run's [`RunReport`]
//! is bit-identical to an unprofiled one by construction.
//!
//! [`RunReport`]: crate::RunReport

use std::sync::atomic::{AtomicU64, Ordering};

use predllc_obs::TimingHistogram;

/// Sampled per-stage wall-clock timings of the simulation engine.
///
/// Stages of one processed slot:
///
/// * `arbiter` — grant selection: write-back/request hazard checks and
///   the [`SlotArbiter`](predllc_bus) decision.
/// * `llc` — a granted transaction that stayed inside the LLC (hits,
///   sequencer traffic, blocked probes).
/// * `dram` — a granted transaction whose LLC service or write-back
///   touched the memory backend.
/// * `idle_jump` — the fast-forward loop's event selection when it
///   decides to leap over idle slots (the walk over the TDM schedule to
///   the next transmitting slot + the four-way precedence pick).
///
/// Only every `sample_every`-th profiling opportunity is timed, so the
/// observer cost stays bounded on multi-million-slot runs.
#[derive(Debug)]
pub struct EngineProfile {
    sample_every: u64,
    /// Opportunities left before the next sample.
    countdown: AtomicU64,
    /// Grant-selection timings.
    pub arbiter: TimingHistogram,
    /// LLC-only transaction timings.
    pub llc: TimingHistogram,
    /// Memory-touching transaction timings.
    pub dram: TimingHistogram,
    /// Fast-forward idle-jump event-selection timings.
    pub idle_jump: TimingHistogram,
}

impl EngineProfile {
    /// A profile sampling every `sample_every`-th opportunity (`0` is
    /// treated as `1`: sample everything).
    pub fn new(sample_every: u64) -> EngineProfile {
        EngineProfile {
            sample_every: sample_every.max(1),
            countdown: AtomicU64::new(0),
            arbiter: TimingHistogram::default(),
            llc: TimingHistogram::default(),
            dram: TimingHistogram::default(),
            idle_jump: TimingHistogram::default(),
        }
    }

    /// Whether this profiling opportunity should be timed: the first
    /// one and every `sample_every`-th after it are. The countdown is a
    /// plain load and store, not a locked read-modify-write, so the
    /// engine's per-slot check stays nearly free; runs sharing one
    /// profile concurrently may sample slightly more or less often.
    pub(crate) fn should_sample(&self) -> bool {
        let left = self.countdown.load(Ordering::Relaxed);
        let next = left.checked_sub(1).unwrap_or(self.sample_every - 1);
        self.countdown.store(next, Ordering::Relaxed);
        left == 0
    }

    /// Total samples recorded across all four stages.
    pub fn samples(&self) -> u64 {
        self.arbiter.count() + self.llc.count() + self.dram.count() + self.idle_jump.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_cadence_is_respected() {
        let p = EngineProfile::new(4);
        let hits = (0..16).filter(|_| p.should_sample()).count();
        assert_eq!(hits, 4);
        // Zero clamps to "sample everything".
        let all = EngineProfile::new(0);
        assert!((0..5).all(|_| all.should_sample()));
    }
}
