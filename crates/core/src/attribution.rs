//! Latency attribution and the worst-case witness: where every cycle of
//! a request's latency went, and a replayable record of the request that
//! achieved the run's observed WCL.
//!
//! The WCL experiments prove an inequality — `observed ≤ analytical` —
//! but a scalar cannot explain *why* a request was slow or why the
//! analytical bound is loose on a given configuration. Attribution
//! (enabled with [`SystemConfigBuilder::attribution`]) decomposes each
//! completed request's latency into exact causal [`Component`]s:
//!
//! * **arbitration** — slots spent waiting for the core's own TDM slot
//!   (and the sub-slot alignment between issue and the first boundary);
//! * **writeback** — owned slots the core had to spend transmitting a
//!   write-back (capacity eviction or back-invalidation acknowledgement)
//!   while the request was pending;
//! * **llc_wait** — owned slots in which the LLC could not answer (an
//!   eviction in flight, or a set-sequencer queue ahead of the request);
//! * **bus** — the response slot itself, minus the DRAM portion;
//! * **dram_row_hit / dram_row_empty / dram_row_conflict / dram_flat** —
//!   the DRAM access cycles of the response slot, split by row-buffer
//!   outcome (`dram_flat` for backends without row buffers).
//!
//! The decomposition is exact by construction: for every completed
//! request, the components sum to the recorded latency — in both the
//! reference and the fast-forward engine, which attribute from the same
//! slot facts (the `Blocked` events the stats and the event log count
//! too; the fast engine batches runs of identical component vectors, so
//! the overhead of attribution stays near zero).
//! Attribution only *reads* the simulation: every counter, histogram and
//! event in the report is bit-identical with it on or off.
//!
//! The [`WclWitness`] is the observability half of the worst case: the
//! single request that achieved [`observed max latency`], with its full
//! causal chain — issuing core, slot window, per-component cycles, the
//! interfering cores' concurrent state and the DRAM bank state at
//! service. The witness is *replayable*: [`WclWitness::replay`] re-runs
//! the workload through the reference engine truncated at the witness's
//! completion cycle and must reproduce the exact observed WCL, making
//! the record an independently checkable proof of the measurement.
//!
//! [`SystemConfigBuilder::attribution`]: crate::SystemConfigBuilder::attribution
//! [`observed max latency`]: crate::RunReport::max_request_latency
//!
//! # Examples
//!
//! ```
//! use predllc_core::{Simulator, SystemConfig};
//! use predllc_model::{Address, MemOp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SystemConfig::private_partitions(2, 2, 1)?.with_attribution(true);
//! let trace = vec![vec![MemOp::read(Address::new(0)), MemOp::read(Address::new(64))]];
//! let report = Simulator::new(cfg.clone())?.run(trace.clone())?;
//!
//! let attr = report.attribution().expect("attribution was enabled");
//! // Components sum exactly to the total recorded latency.
//! assert_eq!(
//!     attr.total_components().total(),
//!     report.stats.cores[0].total_request_latency,
//! );
//! // The witness is the request that achieved the observed WCL, and
//! // replaying it through the reference engine reproduces it exactly.
//! let witness = attr.witness().expect("requests were measured");
//! assert_eq!(witness.latency, report.max_request_latency());
//! assert!(witness.verify(&cfg, trace)?);
//! # Ok(())
//! # }
//! ```

use predllc_dram::RowOutcome;
use predllc_model::{BankId, CoreId, Cycles, LineAddr};
use predllc_workload::Workload;

use crate::config::SystemConfig;
use crate::engine::Simulator;
use crate::error::SimError;
use crate::events::{BlockReason, EventKind};
use crate::histogram::LatencyHistogram;
use crate::llc::MemTraffic;

/// One causal component of a request's latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Waiting for the core's own TDM slot (including the sub-slot
    /// alignment between issue and the first boundary).
    Arbitration,
    /// Owned slots spent transmitting the core's own write-backs while
    /// the request was pending.
    Writeback,
    /// Owned slots in which the LLC could not answer the broadcast
    /// request (eviction in flight, sequencer queue ahead of it).
    LlcWait,
    /// The response slot itself, minus its DRAM portion.
    Bus,
    /// DRAM cycles of the response slot that hit the open row.
    DramRowHit,
    /// DRAM cycles of the response slot on a bank with no open row.
    DramRowEmpty,
    /// DRAM cycles of the response slot that conflicted with a
    /// different open row.
    DramRowConflict,
    /// DRAM cycles of the response slot on a flat (row-less) backend.
    DramFlat,
}

impl Component {
    /// Every component, in the canonical reporting order.
    pub const ALL: [Component; 8] = [
        Component::Arbitration,
        Component::Writeback,
        Component::LlcWait,
        Component::Bus,
        Component::DramRowHit,
        Component::DramRowEmpty,
        Component::DramRowConflict,
        Component::DramFlat,
    ];

    /// The component's dense index into [`Component::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Component::Arbitration => 0,
            Component::Writeback => 1,
            Component::LlcWait => 2,
            Component::Bus => 3,
            Component::DramRowHit => 4,
            Component::DramRowEmpty => 5,
            Component::DramRowConflict => 6,
            Component::DramFlat => 7,
        }
    }

    /// A stable snake_case label (used in CSV columns, JSON keys and
    /// metric label values).
    pub const fn label(self) -> &'static str {
        match self {
            Component::Arbitration => "arbitration",
            Component::Writeback => "writeback",
            Component::LlcWait => "llc_wait",
            Component::Bus => "bus",
            Component::DramRowHit => "dram_row_hit",
            Component::DramRowEmpty => "dram_row_empty",
            Component::DramRowConflict => "dram_row_conflict",
            Component::DramFlat => "dram_flat",
        }
    }
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Exact cycle counts per [`Component`] — one request's decomposition,
/// or a per-core / system-wide accumulation of many.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ComponentSet {
    cycles: [u64; Component::ALL.len()],
}

impl ComponentSet {
    /// Assembles a set from raw per-component cycle counts in
    /// [`Component::ALL`] order — the inverse of
    /// [`ComponentSet::as_parts`], for lossless wire formats.
    pub const fn from_parts(cycles: [u64; Component::ALL.len()]) -> ComponentSet {
        ComponentSet { cycles }
    }

    /// The raw per-component cycle counts in [`Component::ALL`] order.
    pub const fn as_parts(&self) -> [u64; Component::ALL.len()] {
        self.cycles
    }

    /// The cycles attributed to one component.
    pub fn get(&self, component: Component) -> Cycles {
        Cycles::new(self.cycles[component.index()])
    }

    /// The sum over all components. For a single request this is exactly
    /// the recorded latency; for an accumulation it is exactly the sum
    /// of the recorded latencies.
    pub fn total(&self) -> Cycles {
        Cycles::new(self.cycles.iter().sum())
    }

    /// `(component, cycles)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Component, Cycles)> + '_ {
        Component::ALL
            .iter()
            .map(|&c| (c, Cycles::new(self.cycles[c.index()])))
    }

    fn add(&mut self, component: Component, cycles: u64) {
        self.cycles[component.index()] += cycles;
    }

    fn accumulate(&mut self, other: &ComponentSet) {
        for (slot, v) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *slot += v;
        }
    }
}

/// One interfering core's state at the moment the witness completed.
///
/// Only engine-invariant state is recorded (both engines process the
/// witness's slot identically), so the snapshot — like the rest of the
/// witness — is bit-identical across engine modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfererSnapshot {
    /// The interfering core.
    pub core: CoreId,
    /// The line of its pending request, if one was issued by then.
    pub pending_line: Option<LineAddr>,
    /// When that pending request was issued.
    pub pending_since: Option<Cycles>,
    /// Write-backs queued in its pending-write-back buffer.
    pub pwb_depth: usize,
    /// Write-backs it had transmitted so far.
    pub writebacks_sent: u64,
    /// Slots in which its requests had been blocked so far.
    pub blocked_slots: u64,
}

/// The request that achieved the run's observed WCL, with its full
/// causal chain — a small, replayable record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WclWitness {
    /// The core whose request achieved the observed WCL.
    pub core: CoreId,
    /// The requested cache line.
    pub line: LineAddr,
    /// The cycle the request was issued (miss detected, L2 charged).
    pub issued_at: Cycles,
    /// The cycle the response landed (end of the service slot).
    pub completed_at: Cycles,
    /// The observed latency: `completed_at − issued_at`.
    pub latency: Cycles,
    /// The slot index in which the request was serviced.
    pub slot: u64,
    /// The exact per-component decomposition of `latency`.
    pub components: ComponentSet,
    /// Every other core's concurrent state at completion.
    pub interferers: Vec<InterfererSnapshot>,
    /// DRAM rows open across the banks when the request was serviced
    /// (`(bank, row)` pairs; empty for flat backends).
    pub open_rows: Vec<(BankId, u64)>,
}

impl WclWitness {
    /// Replays the witness window: re-runs `workload` on `config`'s
    /// platform through the **reference** engine, truncated at the
    /// witness's completion cycle (attribution and event recording off).
    /// Returns the truncated run's worst observed latency — which must
    /// equal [`WclWitness::latency`] exactly, since both engines walk
    /// identical prefixes and the witness was the worst request up to
    /// its completion.
    ///
    /// `config` is the configuration the witness was captured under (the
    /// replay derives its truncated variant from it); `workload` must be
    /// the same workload.
    ///
    /// # Errors
    ///
    /// Propagates [`Simulator::run`] failures.
    pub fn replay<W: Workload>(
        &self,
        config: &SystemConfig,
        workload: W,
    ) -> Result<Cycles, SimError> {
        let cfg = config.witness_replay_config(self.completed_at);
        let sim = Simulator::new(cfg).expect("the witness's configuration was already validated");
        let report = sim.run(workload)?;
        Ok(report.max_request_latency())
    }

    /// Replays the witness window and checks that it reproduces the
    /// observed WCL exactly. See [`WclWitness::replay`].
    ///
    /// # Errors
    ///
    /// Propagates [`Simulator::run`] failures.
    pub fn verify<W: Workload>(
        &self,
        config: &SystemConfig,
        workload: W,
    ) -> Result<bool, SimError> {
        Ok(self.replay(config, workload)? == self.latency)
    }
}

/// The attribution outcome of one run: per-core exact component totals,
/// system-wide per-component latency histograms, and the WCL witness.
///
/// Returned by [`RunReport::attribution`](crate::RunReport::attribution)
/// when the configuration enabled attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionReport {
    per_core: Vec<ComponentSet>,
    histograms: Vec<LatencyHistogram>,
    witness: Option<WclWitness>,
}

impl AttributionReport {
    /// Every core's component totals, indexed by core.
    pub fn per_core(&self) -> &[ComponentSet] {
        &self.per_core
    }

    /// The system-wide component totals (all cores summed). Its
    /// [`ComponentSet::total`] equals the sum of every recorded request
    /// latency exactly.
    pub fn total_components(&self) -> ComponentSet {
        let mut total = ComponentSet::default();
        for set in &self.per_core {
            total.accumulate(set);
        }
        total
    }

    /// The system-wide distribution of one component's per-request
    /// contribution. Every completed request records into every
    /// component's histogram (zero when the component did not apply),
    /// so each histogram's count equals the run's request count.
    pub fn histogram(&self, component: Component) -> &LatencyHistogram {
        &self.histograms[component.index()]
    }

    /// The request that achieved the observed WCL (`None` only when no
    /// request completed).
    pub fn witness(&self) -> Option<&WclWitness> {
        self.witness.as_ref()
    }
}

/// The engine-side accumulator: per-request wait counters, run-length
/// batched component records, and the running witness. Lives on the
/// engine only when attribution is enabled; it only reads what the
/// engine shows it.
#[derive(Debug)]
pub(crate) struct AttrState {
    /// Slot width in cycles.
    sw: u64,
    /// Owned slots the in-flight request lost to the core's own
    /// write-backs, per core.
    wait_wb: Vec<u64>,
    /// Owned slots the in-flight request was granted-then-blocked or
    /// stuck behind an eviction, per core.
    wait_blocked: Vec<u64>,
    /// Run-length batch of identical component vectors, per core —
    /// the attribution counterpart of the engine's latency batch.
    batch: Vec<(ComponentSet, u64)>,
    /// Accumulated exact totals, per core.
    totals: Vec<ComponentSet>,
    /// System-wide per-component histograms.
    histograms: Vec<LatencyHistogram>,
    /// The worst request seen so far.
    witness: Option<WclWitness>,
}

impl AttrState {
    pub(crate) fn new(n: usize, slot_width: Cycles) -> Self {
        AttrState {
            sw: slot_width.as_u64(),
            wait_wb: vec![0; n],
            wait_blocked: vec![0; n],
            batch: vec![(ComponentSet::default(), 0); n],
            totals: vec![ComponentSet::default(); n],
            histograms: vec![LatencyHistogram::new(); Component::ALL.len()],
            witness: None,
        }
    }

    /// Folds one slot fact. A `Blocked` event is an owned slot the
    /// core's pending request lost: to the core's own write-back, or
    /// waiting on the LLC (an eviction in flight, or the set sequencer).
    #[inline]
    pub(crate) fn event(&mut self, kind: &EventKind) {
        if let EventKind::Blocked { core, reason } = *kind {
            let waits = if reason == BlockReason::SlotUsedForWriteback {
                &mut self.wait_wb
            } else {
                &mut self.wait_blocked
            };
            waits[core.as_usize()] += 1;
        }
    }

    /// A request completed: decompose its latency, accumulate, and
    /// update the witness. `mem` is the service slot's memory traffic;
    /// `snapshot` lazily captures the interferer/bank state and is only
    /// invoked when this completion is a new worst case.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_complete(
        &mut self,
        owner: CoreId,
        line: LineAddr,
        issued: Cycles,
        resume: Cycles,
        slot: u64,
        mem: &[Option<MemTraffic>; 2],
        snapshot: impl FnOnce() -> (Vec<InterfererSnapshot>, Vec<(BankId, u64)>),
    ) {
        let oi = owner.as_usize();
        let latency = (resume - issued).as_u64();

        // The service slot: DRAM first (each access in order, capped by
        // the remaining slot budget), the rest is the bus transfer.
        let mut set = ComponentSet::default();
        let mut budget = self.sw;
        for traffic in mem.iter().flatten() {
            let take = traffic.access.latency.as_u64().min(budget);
            budget -= take;
            let component = match traffic.access.row {
                Some(RowOutcome::Hit) => Component::DramRowHit,
                Some(RowOutcome::Empty) => Component::DramRowEmpty,
                Some(RowOutcome::Conflict) => Component::DramRowConflict,
                None => Component::DramFlat,
            };
            set.add(component, take);
        }
        set.add(Component::Bus, budget);

        // The wait window: counted slots are each one full slot; the
        // remainder is TDM arbitration. Every counted slot started at or
        // after `issued` and before the service slot, so the remainder
        // is never negative.
        let wb = std::mem::take(&mut self.wait_wb[oi]) * self.sw;
        let blocked = std::mem::take(&mut self.wait_blocked[oi]) * self.sw;
        set.add(Component::Writeback, wb);
        set.add(Component::LlcWait, blocked);
        debug_assert!(
            latency >= self.sw + wb + blocked,
            "wait slots exceed the request's latency window"
        );
        set.add(Component::Arbitration, latency - self.sw - wb - blocked);
        debug_assert_eq!(set.total().as_u64(), latency);

        self.totals[oi].accumulate(&set);

        // Witness: the strictly-first completion achieving the running
        // maximum. Completion order is identical across engines, so so
        // is the witness.
        if self
            .witness
            .as_ref()
            .is_none_or(|w| latency > w.latency.as_u64())
        {
            let (interferers, open_rows) = snapshot();
            self.witness = Some(WclWitness {
                core: owner,
                line,
                issued_at: issued,
                completed_at: resume,
                latency: Cycles::new(latency),
                slot,
                components: set.clone(),
                interferers,
                open_rows,
            });
        }

        // Run-length batch into the histograms (runs of identical
        // component vectors are the steady state the fast engine jumps
        // through; histograms are order-independent, so batching cannot
        // change the final distribution).
        let b = &mut self.batch[oi];
        if b.1 > 0 && b.0 == set {
            b.1 += 1;
        } else {
            if b.1 > 0 {
                let (prev, n) = (b.0.clone(), b.1);
                self.flush(&prev, n);
            }
            self.batch[oi] = (set, 1);
        }
    }

    fn flush(&mut self, set: &ComponentSet, n: u64) {
        for &c in &Component::ALL {
            self.histograms[c.index()].record_n(set.get(c), n);
        }
    }

    /// Flushes open batches and produces the report.
    pub(crate) fn into_report(mut self) -> AttributionReport {
        for i in 0..self.batch.len() {
            let (set, n) = std::mem::take(&mut self.batch[i]);
            if n > 0 {
                self.flush(&set, n);
            }
        }
        AttributionReport {
            per_core: self.totals,
            histograms: self.histograms,
            witness: self.witness,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_labels_are_stable_and_indexed() {
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(c.to_string(), c.label());
        }
        assert_eq!(Component::Arbitration.label(), "arbitration");
        assert_eq!(Component::DramRowConflict.label(), "dram_row_conflict");
    }

    #[test]
    fn component_set_sums_exactly() {
        let mut s = ComponentSet::default();
        s.add(Component::Arbitration, 40);
        s.add(Component::Bus, 50);
        s.add(Component::DramFlat, 30);
        assert_eq!(s.get(Component::Bus), Cycles::new(50));
        assert_eq!(s.total(), Cycles::new(120));
        let collected: u64 = s.iter().map(|(_, v)| v.as_u64()).sum();
        assert_eq!(collected, 120);
    }

    #[test]
    fn state_decomposes_a_plain_hit() {
        // latency 140 = 90 arbitration + 50 bus (no DRAM, no waits).
        let mut a = AttrState::new(1, Cycles::new(50));
        a.on_complete(
            CoreId::new(0),
            LineAddr::new(0),
            Cycles::new(10),
            Cycles::new(150),
            2,
            &[None, None],
            || (Vec::new(), Vec::new()),
        );
        let r = a.into_report();
        let set = &r.per_core()[0];
        assert_eq!(set.get(Component::Arbitration), Cycles::new(90));
        assert_eq!(set.get(Component::Bus), Cycles::new(50));
        assert_eq!(set.total(), Cycles::new(140));
        // Every component histogram saw exactly one record.
        for &c in &Component::ALL {
            assert_eq!(r.histogram(c).count(), 1);
        }
        let w = r.witness().expect("one completion");
        assert_eq!(w.latency, Cycles::new(140));
        assert_eq!(w.slot, 2);
    }

    #[test]
    fn wait_slots_and_dram_split_the_window() {
        let mut a = AttrState::new(1, Cycles::new(50));
        let blocked = |reason| EventKind::Blocked {
            core: CoreId::new(0),
            reason,
        };
        a.event(&blocked(BlockReason::SlotUsedForWriteback));
        a.event(&blocked(BlockReason::WaitingForEviction));
        a.event(&blocked(BlockReason::NotHead));
        // Not a lost slot: folds nothing.
        a.event(&EventKind::Hit {
            core: CoreId::new(0),
            line: LineAddr::new(7),
        });
        let traffic = MemTraffic {
            line: LineAddr::new(7),
            write: false,
            access: predllc_dram::MemAccess {
                latency: Cycles::new(30),
                bank: BankId::new(0),
                row: Some(RowOutcome::Conflict),
                waited: Cycles::ZERO,
            },
        };
        // latency 200 = 50 service + 1 wb slot + 2 blocked slots + 0 arb.
        a.on_complete(
            CoreId::new(0),
            LineAddr::new(7),
            Cycles::new(0),
            Cycles::new(200),
            4,
            &[Some(traffic), None],
            || (Vec::new(), Vec::new()),
        );
        let r = a.into_report();
        let set = &r.per_core()[0];
        assert_eq!(set.get(Component::Writeback), Cycles::new(50));
        assert_eq!(set.get(Component::LlcWait), Cycles::new(100));
        assert_eq!(set.get(Component::DramRowConflict), Cycles::new(30));
        assert_eq!(set.get(Component::Bus), Cycles::new(20));
        assert_eq!(set.get(Component::Arbitration), Cycles::ZERO);
        assert_eq!(set.total(), Cycles::new(200));
    }

    #[test]
    fn witness_tracks_the_strict_first_maximum() {
        let mut a = AttrState::new(2, Cycles::new(50));
        let complete = |a: &mut AttrState, core: u16, issued: u64, resume: u64, slot: u64| {
            a.on_complete(
                CoreId::new(core),
                LineAddr::new(u64::from(core)),
                Cycles::new(issued),
                Cycles::new(resume),
                slot,
                &[None, None],
                || (Vec::new(), Vec::new()),
            );
        };
        complete(&mut a, 0, 10, 100, 1); // latency 90
        complete(&mut a, 1, 0, 150, 2); // latency 150: new max
        complete(&mut a, 0, 150, 300, 5); // latency 150 again: not strict
        let r = a.into_report();
        let w = r.witness().expect("completions happened");
        assert_eq!(w.core, CoreId::new(1));
        assert_eq!(w.slot, 2);
        assert_eq!(w.latency, Cycles::new(150));
    }

    #[test]
    fn batched_and_unbatched_histograms_agree() {
        // Three identical completions batch into one flush; a fresh
        // state records them as two runs. Distributions must agree.
        let run = |splits: &[u64]| {
            let mut a = AttrState::new(1, Cycles::new(50));
            for &issued in splits {
                a.on_complete(
                    CoreId::new(0),
                    LineAddr::new(0),
                    Cycles::new(issued),
                    Cycles::new(issued + 100),
                    0,
                    &[None, None],
                    || (Vec::new(), Vec::new()),
                );
            }
            a.into_report()
        };
        let a = run(&[0, 0, 0]);
        let b = run(&[0, 0]);
        assert_eq!(a.histogram(Component::Bus).count(), 3);
        assert_eq!(b.histogram(Component::Bus).count(), 2);
        assert_eq!(
            a.histogram(Component::Arbitration).max(),
            b.histogram(Component::Arbitration).max()
        );
    }
}
