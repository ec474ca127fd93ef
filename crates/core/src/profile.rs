//! Sampled wall-clock profiling of the engine loops' stages.
//!
//! An [`EngineProfile`] hands the engine five log-bucketed
//! [`TimingHistogram`]s — one per stage of a loop iteration — plus a
//! sampling cadence. Profiling is **opt-in per run**
//! ([`Simulator::run_profiled`](crate::Simulator::run_profiled)); the
//! default [`Simulator::run`](crate::Simulator::run) passes `None`. At
//! the top of each iteration of either loop the engine asks
//! `EngineProfile::should_sample` once and keeps the answer as a start
//! time on its own stack; a sampled iteration then laps that one clock
//! through every stage it runs, so the stages of one iteration are
//! timed back to back. Without a profile that is one branch on an empty
//! `Option` per stage and no clock read or atomic operation.
//!
//! A lap's interval includes the previous lap's own cost (its clock
//! read and histogram update), which the profile measures when it is
//! built and subtracts from every sample, so summed stages estimate the
//! engine's own time: scaled by the sampling cadence and set against a
//! run's wall time they give the share of it the stages account for.
//!
//! The profile only ever *reads* wall-clock time — nothing it measures
//! feeds back into simulated time, so a profiled run's [`RunReport`]
//! is bit-identical to an unprofiled one by construction.
//!
//! [`RunReport`]: crate::RunReport

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use predllc_obs::TimingHistogram;

/// Batches of empty laps the constructor times to calibrate a lap.
const CALIBRATION_BATCHES: usize = 5;
/// Empty laps per calibration batch.
const CALIBRATION_LAPS: u32 = 64;

/// Sampled per-stage wall-clock timings of the simulation engine.
///
/// Stages of one loop iteration, in the order they run:
///
/// * `local` — local advance: cores executing private-cache hits up to
///   the slot boundary (in the fast loop, a core alone in its partition
///   runs on to its next miss).
/// * `idle_jump` — the fast-forward loop's event selection when it
///   decides to leap over idle slots (the walk over the TDM schedule to
///   the next transmitting slot + the four-way precedence pick).
/// * `arbiter` — grant selection: write-back/request hazard checks and
///   the [`SlotArbiter`](predllc_bus) decision (and, in the fast loop, an
///   event selection that stays in the current slot).
/// * `llc` — a granted transaction that stayed inside the LLC (hits,
///   sequencer traffic, blocked probes).
/// * `dram` — a granted transaction whose LLC service or write-back
///   touched the memory backend.
///
/// Only every `sample_every`-th loop iteration is timed, so the
/// observer cost stays bounded on multi-million-slot runs. What the
/// stages leave out (run setup and teardown, the loops' own
/// bookkeeping) is the remainder of a run's wall time.
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
    /// Local-advance timings.
    pub local: TimingHistogram,
    /// What a lap's own bookkeeping adds to the next lap's interval —
    /// its clock read and its histogram update — measured at
    /// construction and subtracted from every sample.
    lap_cost: Duration,
}

impl EngineProfile {
    /// A profile sampling every `sample_every`-th loop iteration (`0` is
    /// treated as `1`: sample everything). It calibrates the lap cost it
    /// subtracts from each sample: the fastest of a few batches of empty
    /// laps, per lap.
    pub fn new(sample_every: u64) -> EngineProfile {
        let mut profile = EngineProfile {
            sample_every: sample_every.max(1),
            countdown: AtomicU64::new(0),
            arbiter: TimingHistogram::default(),
            llc: TimingHistogram::default(),
            dram: TimingHistogram::default(),
            idle_jump: TimingHistogram::default(),
            local: TimingHistogram::default(),
            lap_cost: Duration::ZERO,
        };
        let empty = TimingHistogram::default();
        profile.lap_cost = (0..CALIBRATION_BATCHES)
            .map(|_| {
                let started = Instant::now();
                let mut start = started;
                for _ in 0..CALIBRATION_LAPS {
                    profile.lap(&empty, &mut start);
                }
                started.elapsed() / CALIBRATION_LAPS
            })
            .min()
            .unwrap_or(Duration::ZERO);
        profile
    }

    /// Records the time since `start` into `stage`, less the lap cost,
    /// and restarts `start`.
    #[inline]
    pub(crate) fn lap(&self, stage: &TimingHistogram, start: &mut Instant) {
        let now = Instant::now();
        stage.record((now - *start).saturating_sub(self.lap_cost));
        *start = now;
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

    /// Total samples recorded across all five stages.
    pub fn samples(&self) -> u64 {
        self.stages().iter().map(|(_, h)| h.count()).sum()
    }

    /// Every stage by name, in the order a loop iteration runs them.
    pub fn stages(&self) -> [(&'static str, &TimingHistogram); 5] {
        [
            ("local", &self.local),
            ("idle_jump", &self.idle_jump),
            ("arbiter", &self.arbiter),
            ("llc", &self.llc),
            ("dram", &self.dram),
        ]
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
    fn laps_drop_their_own_cost() {
        let p = EngineProfile::new(1);
        assert!(p.lap_cost < Duration::from_millis(1), "{:?}", p.lap_cost);
        let mut start = Instant::now();
        p.lap(&p.llc, &mut start);
        let before = start;
        std::thread::sleep(Duration::from_millis(2));
        p.lap(&p.llc, &mut start);
        let llc = p.llc.snapshot();
        assert_eq!(llc.count, 2);
        assert!(llc.max < (start - before).as_nanos() as u64, "{llc:?}");
        assert!(llc.max >= 2_000_000 - p.lap_cost.as_nanos() as u64);
    }
}
