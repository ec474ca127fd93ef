//! Sampled wall-clock profiling of the engine's per-slot stages.
//!
//! An [`EngineProfile`] hands the engine four log-bucketed
//! [`TimingHistogram`]s — one per stage of a processed slot — plus a
//! sampling cadence. Profiling is **opt-in per run**
//! ([`Simulator::run_profiled`](crate::Simulator::run_profiled)); the
//! default [`Simulator::run`](crate::Simulator::run) passes `None`, so
//! the unprofiled hot path costs exactly one branch per slot and zero
//! atomic operations.
//!
//! The profile only ever *reads* wall-clock time — nothing it measures
//! feeds back into simulated time, so a profiled run's [`RunReport`]
//! is bit-identical to an unprofiled one by construction.
//!
//! [`RunReport`]: crate::RunReport

use std::sync::atomic::{AtomicU64, Ordering};

use predllc_obs::{Registry, TimingHistogram};

/// The metric family engine-stage timings register under.
pub const STAGE_METRIC: &str = "predllc_engine_stage_ns";

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
    /// A standalone profile sampling every `sample_every`-th slot
    /// (`0` is treated as `1`: sample everything).
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

    /// A profile whose four stage histograms are registered in
    /// `registry` as `predllc_engine_stage_ns{stage="..."}`, so a
    /// `/metrics` scrape sees them.
    pub fn registered(registry: &Registry, sample_every: u64) -> EngineProfile {
        const HELP: &str = "Sampled wall-clock time per engine stage";
        EngineProfile {
            sample_every: sample_every.max(1),
            countdown: AtomicU64::new(0),
            arbiter: registry.histogram_with(STAGE_METRIC, HELP, "stage", "arbiter"),
            llc: registry.histogram_with(STAGE_METRIC, HELP, "stage", "llc"),
            dram: registry.histogram_with(STAGE_METRIC, HELP, "stage", "dram"),
            idle_jump: registry.histogram_with(STAGE_METRIC, HELP, "stage", "idle_jump"),
        }
    }

    /// The configured sampling cadence.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Whether this profiling opportunity should be timed: the first
    /// one and every `sample_every`-th after it are. The countdown is a
    /// plain load and store, not a locked read-modify-write, so the
    /// engine's per-slot check stays nearly free; runs sharing one
    /// profile concurrently may sample slightly more or less often.
    pub fn should_sample(&self) -> bool {
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

impl Default for EngineProfile {
    /// Samples every 64th opportunity — cheap enough for production
    /// runs while still resolving stage distributions.
    fn default() -> EngineProfile {
        EngineProfile::new(64)
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

    #[test]
    fn registered_profile_appears_in_exposition() {
        let reg = Registry::new();
        let p = EngineProfile::registered(&reg, 1);
        p.arbiter.record(std::time::Duration::from_nanos(120));
        p.dram.record(std::time::Duration::from_nanos(900));
        let text = reg.render();
        assert!(text.contains("predllc_engine_stage_ns_count{stage=\"arbiter\"} 1"));
        assert!(text.contains("predllc_engine_stage_ns_count{stage=\"dram\"} 1"));
        assert!(text.contains("predllc_engine_stage_ns_count{stage=\"llc\"} 0"));
        assert_eq!(p.samples(), 2);
    }
}
