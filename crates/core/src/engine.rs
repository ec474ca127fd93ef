//! The slot-stepped multicore simulator.
//!
//! Time advances slot by slot. At each slot boundary every core's private
//! execution is advanced up to the boundary (private hits cost only local
//! cycles); then the slot's owner gets exactly one bus transaction —
//! a write-back or its pending request — which the LLC resolves within
//! the slot. Responses land at the end of the slot, so a request serviced
//! in the slot starting at cycle `t` completes at `t + SW`.
//!
//! This is a from-scratch reimplementation of the paper's in-house trace
//! simulator (§5), pinned to the calibration constants recovered from the
//! published analytical WCLs. The slot width is the one such constant:
//! 50 cycles ([`SlotWidth::PAPER`]) is the width at which all three
//! Fig. 7 WCLs come out exactly for 4 cores — SS 5000 = 100 slots × 50
//! (Theorem 4.8), NSS(1,16,4) 979250 = 19585 slots × 50 (Theorem 4.7)
//! and P 450 = 9 slots × 50.
//!
//! # Two engines, one behaviour
//!
//! The same predictability that makes the platform analyzable makes most
//! of that slot walk redundant: between LLC events a core's private-hit
//! run is pure-local (nothing on the bus can change its outcome until its
//! own miss), and a slot whose owner has neither a pending write-back nor
//! a ready request is idle by construction. [`Simulator::run`] therefore
//! dispatches on [`EngineMode`]:
//!
//! * the **reference** engine (`EngineMode::Reference`) walks every slot
//!   boundary exactly as the seed simulator did, and is kept as the
//!   oracle;
//! * the **fast-forward** engine (`EngineMode::FastForward`, the
//!   default) batch-advances each private-hit
//!   run in one call, finds the next slot in which *any* core can
//!   transmit by walking the TDM schedule forward from the cursor to the
//!   first slot whose owner holds a write-back or a ready request
//!   (`O(1)` per transaction while the bus is busy, instead of
//!   `O(cores)` per slot), jumps time directly across idle-slot spans
//!   (accounting them in bulk), and records steady LLC-hit runs with
//!   run-length-batched latency recording
//!   (`LatencyHistogram::record_n`).
//!
//! Both engines service every request through the one allocation-free
//! `SharedLlc::service` path (in the crate-private `llc` module), so the
//! LLC protocol has a single implementation.
//!
//! Both engines produce bit-identical [`RunReport`]s, event logs
//! included — the differential suite in `tests/fast_forward.rs` holds
//! them equal over randomized configuration × workload grids. Events
//! are emitted only inside the slot transaction both loops share, and
//! every slot the fast engine skips is idle by construction, so
//! `record_events(true)` runs on whichever engine was selected.
//!
//! # One emission per slot fact
//!
//! Every fact of a slot — a hit, a fill, a blocked request, a
//! write-back, an eviction, a freed line — is emitted once, as an
//! [`EventKind`]. [`SimStats`] counts it, and then a private `Watch`
//! shows it to whichever observers the run asked for: the event log
//! (`record_events`) and latency attribution (`attribution`), which
//! folds the `Blocked` events into its write-back and LLC waits. The
//! same `Watch` carries the optional [`EngineProfile`], whose stage
//! clocks the loops lap at each profiling opportunity. An unobserved run
//! pays one branch on an empty `Option` per observer touched; nothing
//! an observer does feeds back into simulated time.
//!
//! # Twin backends
//!
//! Nor does a memory backend's answer: every access fits inside its
//! requester's slot (the slot budget `SystemConfigBuilder::build`
//! enforces), and a request serviced in a slot is answered at the end of
//! that slot. [`Simulator::run_with_twins`] measures several memory
//! systems in one run on that basis: the LLC drives the configured
//! backend plus one twin per extra [`MemoryConfig`], each twin sees
//! every access, and only the configured backend's answers reach events,
//! attribution and the report.

use std::time::Instant;

use predllc_bus::{BusGrant, SlotArbiter, TdmSchedule};
use predllc_cache::PrivateHierarchy;
use predllc_dram::{MemStats, MemoryBackend, MemoryConfig};
use predllc_model::{CoreId, Cycles, SlotWidth};
use predllc_obs::TimingHistogram;
use predllc_workload::{OpStream, Workload};

use crate::attribution::{AttrState, AttributionReport, InterfererSnapshot};
use crate::config::{check_memory, EngineMode, SystemConfig};
use crate::core_model::{CoreModel, CoreProgress};
use crate::error::{ConfigError, SimError};
use crate::events::{BlockReason, EventKind, EventLog};
use crate::llc::{ResponseKind, ServiceOutcome, SharedLlc};
use crate::profile::EngineProfile;
use crate::stats::SimStats;

/// Slots without any progress — no bus transaction *and* no operation
/// completed anywhere (private hits are progress: a hit-heavy workload
/// can legitimately run millions of cycles in bus silence) — after which
/// the engine declares a deadlock and returns [`SimError::Deadlock`]
/// (a simulator bug, not a workload property: a correct configuration
/// always makes progress eventually).
const DEADLOCK_GUARD_SLOTS: u64 = 100_000;

/// The outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// All counters.
    pub stats: SimStats,
    /// The event log (empty unless recording was enabled).
    pub events: EventLog,
    /// Whether the run hit the configured `max_cycles` cap before every
    /// core finished — expected for the unbounded Fig. 2 scenario.
    pub timed_out: bool,
    /// The first cycle *after* the simulated span.
    pub cycles: Cycles,
    /// Latency attribution, when the configuration enabled it (boxed:
    /// most runs don't carry it).
    attribution: Option<Box<AttributionReport>>,
}

impl RunReport {
    /// The worst request latency observed on any core.
    pub fn max_request_latency(&self) -> Cycles {
        self.stats.max_request_latency()
    }

    /// The cycle at which the last core finished its trace (the
    /// workload's execution time). Zero for cores that never finished.
    pub fn execution_time(&self) -> Cycles {
        self.stats.makespan()
    }

    /// The system-wide request-latency distribution (every core's
    /// log-bucketed histogram merged).
    pub fn latency_histogram(&self) -> crate::histogram::LatencyHistogram {
        self.stats.request_latencies()
    }

    /// The value at percentile `p` of the system-wide request-latency
    /// distribution. `latency_percentile(100.0)` is exactly
    /// [`RunReport::max_request_latency`].
    pub fn latency_percentile(&self, p: f64) -> Cycles {
        self.latency_histogram().percentile(p)
    }

    /// The p50/p90/p99/p100 summary of the run's request latencies.
    pub fn latency_summary(&self) -> crate::histogram::LatencySummary {
        self.latency_histogram().summary()
    }

    /// The latency attribution report — per-core component totals,
    /// per-component histograms and the WCL witness — or `None` when the
    /// configuration did not enable attribution (see
    /// [`crate::SystemConfigBuilder::attribution`]).
    pub fn attribution(&self) -> Option<&AttributionReport> {
        self.attribution.as_deref()
    }
}

/// The multicore simulator.
///
/// Construct with a validated [`SystemConfig`], then [`Simulator::run`]
/// any number of [`Workload`]s against it — `run` borrows the simulator,
/// so one validated instance serves a whole parameter sweep. See the
/// crate-level example.
#[derive(Debug)]
pub struct Simulator {
    config: SystemConfig,
}

impl Simulator {
    /// Creates a simulator for a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoCores`] for an empty system. (Most
    /// validation already happened when the config was built.)
    pub fn new(config: SystemConfig) -> Result<Self, ConfigError> {
        if config.num_cores() == 0 {
            return Err(ConfigError::NoCores);
        }
        Ok(Simulator { config })
    }

    /// The configuration this simulator runs.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs a workload to completion (or to the `max_cycles` cap).
    ///
    /// Core `i` pulls its operations from
    /// `workload.core_ops(CoreId::new(i))` on demand — nothing is
    /// materialized, so per-core memory use is independent of the stream
    /// length. Accepts any [`Workload`]: a generator, a [`TraceSet`],
    /// a plain `Vec<Vec<MemOp>>`, or a reference to any of them (pass
    /// `&workload` to reuse the workload for further runs).
    ///
    /// `run` borrows the simulator, so the same instance can execute any
    /// number of successive workloads. Which engine executes the run is
    /// chosen by [`SystemConfigBuilder::engine`](crate::SystemConfigBuilder::engine);
    /// both engines produce bit-identical reports.
    ///
    /// [`TraceSet`]: predllc_workload::TraceSet
    ///
    /// # Errors
    ///
    /// * [`SimError::CoreCountMismatch`] if the workload drives a
    ///   different number of cores than the system has.
    /// * [`SimError::Deadlock`] if no bus transaction happens for a very
    ///   long time with unfinished work — a simulator bug, reported as a
    ///   typed error so sweeps stay panic-free.
    pub fn run<W: Workload>(&self, workload: W) -> Result<RunReport, SimError> {
        self.run_profiled(workload, None)
    }

    /// Like [`Simulator::run`], with optional sampled stage profiling.
    ///
    /// When `profile` is `Some`, the stages of every `sample_every`-th
    /// loop iteration are timed into the profile's per-stage histograms
    /// (local advance / idle-jump / arbiter / LLC / DRAM). Profiling
    /// only *reads* time — it never feeds back into simulated time — so
    /// the returned [`RunReport`] is bit-identical to an unprofiled run.
    /// When `profile` is `None` no clock is read: each stage costs a
    /// branch on an empty `Option`.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    pub fn run_profiled<W: Workload>(
        &self,
        workload: W,
        profile: Option<&EngineProfile>,
    ) -> Result<RunReport, SimError> {
        Ok(self.execute(workload, profile, Vec::new())?.0)
    }

    /// Like [`Simulator::run`], driving one *twin* backend per entry of
    /// `twins` beside the configured one, and returning each twin's
    /// counters in order.
    ///
    /// Every twin sees every memory access the configured backend sees,
    /// and nothing reads its answers: the configured backend alone feeds
    /// events, attribution and the report, which is bit-identical to
    /// [`Simulator::run`]'s. A backend never moves simulated time (see
    /// [`predllc_dram::MemoryBackend`]), so each twin's [`MemStats`]
    /// equal those of a plain run of the same platform on that backend,
    /// and the rest of that run's report equals this one. One run thus
    /// measures a platform under several memory systems.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`], plus [`SimError::Config`] for a twin
    /// that fails validation or the slot budget, as
    /// [`SystemConfigBuilder::build`](crate::SystemConfigBuilder::build)
    /// would reject it.
    pub fn run_with_twins<W: Workload>(
        &self,
        workload: W,
        twins: &[MemoryConfig],
    ) -> Result<(RunReport, Vec<MemStats>), SimError> {
        let n = self.config.num_cores();
        let twins = twins
            .iter()
            .map(|m| {
                check_memory(m, n, self.config.slot_width())?;
                Ok(m.build(n).expect("twin backend was validated above"))
            })
            .collect::<Result<Vec<_>, ConfigError>>()
            .map_err(SimError::Config)?;
        self.execute(workload, None, twins)
    }

    /// The one run path: the configured engine over `workload`, with the
    /// optional profile and any twin backends.
    fn execute<W: Workload>(
        &self,
        workload: W,
        profile: Option<&EngineProfile>,
        twins: Vec<Box<dyn MemoryBackend>>,
    ) -> Result<(RunReport, Vec<MemStats>), SimError> {
        let cfg = &self.config;
        let n = cfg.num_cores();
        if workload.num_cores() != n {
            return Err(SimError::CoreCountMismatch {
                workload_cores: workload.num_cores(),
                system_cores: n,
            });
        }

        let cores: Vec<CoreModel<OpStream<'_>>> = CoreId::first(n)
            .map(|id| {
                CoreModel::new(
                    id,
                    workload.core_ops(id),
                    PrivateHierarchy::new(
                        cfg.l1i(),
                        cfg.l1d(),
                        cfg.l2(),
                        cfg.private_replacement(),
                    ),
                    SlotArbiter::new(cfg.arbiter()),
                    cfg.l1_latency(),
                    cfg.l2_latency(),
                )
            })
            .collect();
        let memory = cfg
            .memory()
            .build(n)
            .expect("memory backend was validated when the config was built");
        let llc = SharedLlc::new(
            cfg.partitions().clone(),
            cfg.l2().line_size(),
            cfg.llc_replacement(),
            memory,
        )
        .with_twins(twins);
        let fast = cfg.engine_mode() == EngineMode::FastForward;
        let mut engine = Engine {
            cfg,
            sw: cfg.slot_width(),
            schedule: cfg.schedule().clone(),
            cores,
            llc,
            stats: SimStats::new(n),
            lat_batch: vec![(Cycles::ZERO, 0); n as usize],
            fast,
            watch: Watch {
                log: cfg.record_events().then(EventLog::default),
                attr: cfg
                    .attribution()
                    .then(|| Box::new(AttrState::new(n as usize, cfg.slot_width().cycles()))),
                profile,
            },
        };
        let (timed_out, end_slot) = if fast {
            engine.run_fast()?
        } else {
            engine.run_reference()?
        };
        Ok(engine.finalize(timed_out, end_slot))
    }
}

/// What one processed slot accomplished. Both loops read `progressed`;
/// the fast loop also returns a `responded` owner to its running set.
struct SlotOutcome {
    /// A bus transaction happened (write-back transmitted or request
    /// granted) — resets the deadlock guard, as in the seed engine.
    progressed: bool,
    /// The owner's index, when its request was answered: the owner
    /// resumes execution at the end of the slot.
    responded: Option<usize>,
}

/// The simulation state shared by both engine loops. `process_slot` is
/// the single implementation of a slot's bus transaction; the loops only
/// differ in how they move time between transactions.
struct Engine<'c, I> {
    cfg: &'c SystemConfig,
    sw: SlotWidth,
    schedule: TdmSchedule,
    cores: Vec<CoreModel<I>>,
    llc: SharedLlc,
    stats: SimStats,
    /// Per-core run-length latency batch `(latency, count)` — flushed
    /// into the histogram whenever the latency changes and at the end of
    /// the run. Only active in fast-forward mode; the reference engine
    /// records each latency directly.
    lat_batch: Vec<(Cycles, u64)>,
    /// Whether this run executes the fast-forward loop. Gates the
    /// latency batching, so the reference loop records every latency
    /// directly — an independent oracle for the differential suite.
    fast: bool,
    /// Whatever the run asked to observe.
    watch: Watch<'c>,
}

/// Everything that watches a run without steering it: the event log,
/// latency attribution and sampled stage profiling, each present only
/// when the run asked for it. The engine shows it every slot fact once
/// ([`Watch::event`]) and laps the profile's stage clocks through it
/// ([`Watch::lap`]). Nothing here feeds back into simulated time, so a
/// watched run's stats are bit-identical to an unwatched one's.
///
/// The watch is concrete on purpose: a run generic over its observer
/// compiles one copy of the slot transaction per observer, and the
/// unobserved run is timed against a different copy from the observed
/// one. Stage clocks live on the caller's stack, not in here: a clock
/// field measured a higher profiling overhead.
struct Watch<'p> {
    log: Option<EventLog>,
    attr: Option<Box<AttrState>>,
    profile: Option<&'p EngineProfile>,
}

impl Watch<'_> {
    /// Shows one slot fact to attribution and the event log.
    #[inline]
    fn event(&mut self, at: Cycles, slot: u64, kind: EventKind) {
        if let Some(attr) = &mut self.attr {
            attr.event(&kind);
        }
        if let Some(log) = &mut self.log {
            log.push(at, slot, kind);
        }
    }

    /// A profiling opportunity, one per loop iteration: the start of the
    /// iteration's stage clock when the profile samples it, `None`
    /// otherwise (and always without a profile, which reads no clock).
    #[inline]
    fn clock(&self) -> Option<Instant> {
        self.profile
            .filter(|p| p.should_sample())
            .map(|_| Instant::now())
    }

    /// Records the time since `clock` into the `stage` histogram and
    /// restarts the clock; does nothing on an unsampled opportunity.
    #[inline]
    fn lap(
        &self,
        clock: &mut Option<Instant>,
        stage: impl FnOnce(&EngineProfile) -> &TimingHistogram,
    ) {
        if let (Some(start), Some(p)) = (clock.as_mut(), self.profile) {
            p.lap(stage(p), start);
        }
    }
}

impl<I: Iterator<Item = predllc_model::MemOp>> Engine<'_, I> {
    /// The reference loop: every slot boundary, exactly as the seed
    /// simulator walked it.
    fn run_reference(&mut self) -> Result<(bool, u64), SimError> {
        let sw = self.sw;
        let mut slot: u64 = 0;
        let mut last_progress_slot: u64 = 0;
        let mut last_total_ops: u64 = 0;
        loop {
            let now = sw.slot_start(slot);
            if let Some(cap) = self.cfg.max_cycles() {
                if now.as_u64() >= cap {
                    return Ok((true, slot));
                }
            }

            // 1. Local progress: every core executes private hits up to
            //    the boundary.
            let mut clock = self.watch.clock();
            {
                let Engine { cores, stats, .. } = self;
                for core in cores.iter_mut() {
                    let id = core.id();
                    core.advance_to(now, stats.core_mut(id));
                }
            }
            self.watch.lap(&mut clock, |p| &p.local);
            if self.cores.iter().all(CoreModel::is_finished) {
                return Ok((false, slot));
            }

            // 2. One bus transaction for the slot's owner.
            let out = self.process_slot(slot, now, &mut clock);
            if out.progressed {
                last_progress_slot = slot;
            }

            // Private-hit execution is progress too: only bus silence
            // *and* a frozen completion count together indicate a stuck
            // engine.
            let total_ops: u64 = self.stats.cores.iter().map(|c| c.ops_completed).sum();
            if total_ops != last_total_ops {
                last_total_ops = total_ops;
                last_progress_slot = slot;
            }

            self.stats.slots += 1;
            slot += 1;

            if slot - last_progress_slot >= DEADLOCK_GUARD_SLOTS {
                return Err(self.deadlock_at(slot));
            }
        }
    }

    /// The fast-forward loop.
    ///
    /// Invariants relative to the reference loop:
    ///
    /// * a core whose partition it does not share ("solo") is advanced
    ///   through its whole private-hit run at once — pure-local, so
    ///   executing it in one call is indistinguishable from one bounded
    ///   call per boundary;
    /// * cores in shared partitions advance boundary-by-boundary while
    ///   running (a partition-mate's eviction could invalidate their
    ///   future hits), which forces stepped slots only while one of them
    ///   is mid-run;
    /// * otherwise the next transaction is the first slot, walking the
    ///   TDM schedule forward from the cursor, whose owner holds a
    ///   write-back or a ready request ([`Self::next_transmit`]); every
    ///   slot before it is idle by construction and is accounted in
    ///   bulk;
    /// * op-completion progress for the deadlock guard is credited at
    ///   the slot boundary where the reference engine would have counted
    ///   it (the first boundary at or after the op's start).
    ///
    /// While the bus is busy the walk stops at the cursor's own slot, so
    /// a transaction costs `O(1)`; an idle leap costs at most two
    /// periods plus one pass over the cores. The one costly regime is
    /// many tenants on a mostly idle bus (say one busy core among
    /// hundreds of finished ones), where every transaction walks up to a
    /// period of empty slots.
    fn run_fast(&mut self) -> Result<(bool, u64), SimError> {
        let sw = self.sw;
        let sw_raw = sw.as_u64();
        let n = self.cores.len();
        let cap_slot: Option<u64> = self.cfg.max_cycles().map(|cap| cap.div_ceil(sw_raw));
        if cap_slot == Some(0) {
            return Ok((true, 0));
        }
        // The last boundary the reference engine would advance cores to.
        let horizon = match cap_slot {
            Some(s) => sw.slot_start(s - 1),
            None => Cycles::new(u64::MAX),
        };
        // Which cores are alone in their LLC partition.
        let solo: Vec<bool> = (0..n)
            .map(|i| {
                self.cfg
                    .partitions()
                    .spec_of(CoreId::new(i as u16))
                    .is_private()
            })
            .collect();
        let mut running: Vec<usize> = (0..n).collect();
        let mut finished = 0usize;
        let mut finish_boundary: u64 = 0;
        let mut slot: u64 = 0;
        let mut last_progress_slot: u64 = 0;

        loop {
            let now = sw.slot_start(slot);
            if let Some(cs) = cap_slot {
                if slot >= cs {
                    return Ok((true, slot));
                }
            }

            // 1. Advance every core that can still execute locally. Solo
            //    cores run to their next miss (or the cap horizon) in one
            //    call; shared-partition cores stop at this boundary.
            let mut clock = self.watch.clock();
            let mut shared_running = false;
            {
                let Engine { cores, stats, .. } = self;
                let mut k = 0;
                while k < running.len() {
                    let i = running[k];
                    let id = cores[i].id();
                    let bound = if solo[i] { horizon } else { now };
                    let run = cores[i].advance_run(bound, stats.core_mut(id));
                    if let Some(start) = run.last_op_start {
                        let b = start.as_u64().div_ceil(sw_raw);
                        last_progress_slot = last_progress_slot.max(b);
                    }
                    match run.progress {
                        CoreProgress::Running => {
                            if !solo[i] {
                                shared_running = true;
                            }
                            k += 1;
                        }
                        CoreProgress::Stalled => {
                            running.swap_remove(k);
                        }
                        CoreProgress::Finished => {
                            running.swap_remove(k);
                            finished += 1;
                            let at = stats.core_mut(id).finished_at.as_u64();
                            finish_boundary = finish_boundary.max(at.div_ceil(sw_raw));
                        }
                    }
                }
            }

            self.watch.lap(&mut clock, |p| &p.local);

            // 2. While a shared-partition core is mid-run, its future
            //    hits are exposed to partition-mates' evictions: step
            //    this slot exactly like the reference engine.
            let event = if shared_running {
                Event::Transact(slot)
            } else {
                // Pick the earliest of: transaction slot, all-finished
                // boundary, cycle cap, deadlock threshold.
                let b_fin = (finished == n).then_some(finish_boundary);
                let d_slot = last_progress_slot + DEADLOCK_GUARD_SLOTS;
                // Precedence at equal slots mirrors the reference loop's
                // check order: deadlock (end of previous iteration), then
                // the cap (top of loop), then the all-finished break,
                // then the transaction itself.
                let mut choice = Event::Deadlock(d_slot);
                if let Some(cs) = cap_slot {
                    if cs < choice.slot() {
                        choice = Event::Timeout(cs);
                    }
                }
                if let Some(b) = b_fin {
                    if b < choice.slot() {
                        choice = Event::Finish(b);
                    }
                }
                match self.next_transmit(slot, choice.slot()) {
                    Some(s) => Event::Transact(s),
                    None => choice,
                }
            };
            // Only a genuine leap over idle slots counts as the
            // idle-jump stage; choosing a same-slot transaction is part
            // of the slot's grant selection (the arbiter stage).
            if matches!(event, Event::Transact(s) if s > slot) {
                self.watch.lap(&mut clock, |p| &p.idle_jump);
            }

            // Every slot before the event is idle by construction: its
            // owner has neither a write-back nor a ready request (the walk
            // stopped at the first slot whose owner does).
            debug_assert!(event.slot() >= slot, "event slot behind the cursor");
            let skipped = event.slot() - slot;
            self.stats.slots += skipped;
            self.stats.idle_slots += skipped;
            slot = event.slot();
            match event {
                Event::Transact(_) => {
                    // Bank state composes with the jump because it is
                    // keyed by transaction timestamps, which the jump
                    // preserves; residual busyness never outlives the
                    // write-recovery window of the last transaction.
                    debug_assert!(
                        skipped == 0
                            || self.llc.memory_next_busy_until()
                                <= sw.slot_start(slot) + sw.cycles(),
                        "idle-slot jump would overrun residual bank busyness"
                    );
                    let now = sw.slot_start(slot);
                    let out = self.process_slot(slot, now, &mut clock);
                    if out.progressed {
                        last_progress_slot = last_progress_slot.max(slot);
                    }
                    // A responded owner resumes local execution.
                    if let Some(owner) = out.responded {
                        running.push(owner);
                    }
                    self.stats.slots += 1;
                    slot += 1;
                    if slot.saturating_sub(last_progress_slot) >= DEADLOCK_GUARD_SLOTS {
                        return Err(self.deadlock_at(slot));
                    }
                }
                Event::Finish(_) => return Ok((false, slot)),
                Event::Timeout(_) => return Ok((true, slot)),
                Event::Deadlock(_) => return Err(self.deadlock_at(slot)),
            }
        }
    }

    /// The first slot in `from..until` whose owner holds a write-back or
    /// a request ready at the slot's start. Called only while no
    /// shared-partition core is mid-run, so no core's buffers change
    /// before its next transaction.
    ///
    /// Every core owns a slot in any window one period long
    /// (`TdmSchedule::new`), so one period's walk meets every write-back.
    /// Finding none, the earliest request's ready slot `r` bounds the
    /// leap: one more period from `max(r, from + period)` reaches its owner.
    fn next_transmit(&self, from: u64, until: u64) -> Option<u64> {
        let period = self.schedule.period();
        let can_transmit = |s: u64| {
            let core = &self.cores[self.schedule.owner(s).as_usize()];
            !core.pwb.is_empty() || core.request_ready(self.sw.slot_start(s))
        };
        if let Some(s) = (from..until.min(from + period)).find(|&s| can_transmit(s)) {
            return Some(s);
        }
        let sw_raw = self.sw.as_u64();
        let r = self
            .cores
            .iter()
            .filter_map(|c| c.prb.peek())
            .map(|req| req.issued_at.as_u64().div_ceil(sw_raw))
            .min()?;
        let start = r.max(from + period);
        (start..until.min(start + period)).find(|&s| can_transmit(s))
    }

    fn deadlock_at(&self, slot: u64) -> SimError {
        SimError::Deadlock {
            cycle: self.sw.slot_start(slot),
            pending: self
                .cores
                .iter()
                .filter(|c| !c.is_finished())
                .map(|c| c.id())
                .collect(),
        }
    }

    /// Executes the bus transaction of one slot: grant arbitration, LLC
    /// service or write-back, and all the accounting. This is the single
    /// shared implementation both engine loops call, so their behaviour
    /// cannot drift.
    ///
    /// Each fact of the slot is emitted once, through `emit!`: counted
    /// into the stats ([`SimStats::count`]), then shown to the [`Watch`].
    /// The counters, the event log and attribution's waits are one
    /// stream, so they cannot disagree either.
    ///
    /// `clock` is the loop iteration's stage clock, lapped here through
    /// the arbiter and then the LLC or DRAM stage.
    fn process_slot(&mut self, slot: u64, now: Cycles, clock: &mut Option<Instant>) -> SlotOutcome {
        let sw = self.sw;
        let fast = self.fast;
        let Engine {
            cores,
            llc,
            stats,
            watch,
            schedule,
            lat_batch,
            ..
        } = self;
        macro_rules! emit {
            ($kind:expr) => {{
                let kind = $kind;
                stats.count(&kind);
                watch.event(now, slot, kind);
            }};
        }
        let mut out = SlotOutcome {
            progressed: false,
            responded: None,
        };

        let owner = schedule.owner(slot);
        let oi = owner.as_usize();
        let has_wb = !cores[oi].pwb.is_empty();
        let has_req = cores[oi].request_ready(now);
        // A request only competes for the slot when it can make
        // progress: a first broadcast always can; afterwards the LLC
        // probe decides. Without this, a request stuck behind an
        // acknowledgement sitting in this core's own PWB would starve
        // that acknowledgement under a request-first arbiter.
        let req_useful = has_req && {
            let req = cores[oi].prb.peek().expect("request_ready checked");
            !req.broadcast || llc.probe(owner, req.op.addr.line()) != crate::llc::Probe::Stuck
        };
        let grant = if has_wb && req_useful && cores[oi].request_hazard() {
            // A request must not race its own queued write-back for
            // the same line.
            Some(BusGrant::WriteBack)
        } else {
            cores[oi].arbiter.choose(has_wb, req_useful)
        };
        // A ready-but-stuck request still counts as a blocked slot
        // for accounting when nothing else used the bus.
        if grant.is_none() && has_req {
            emit!(EventKind::Blocked {
                core: owner,
                reason: BlockReason::WaitingForEviction,
            });
        }
        watch.lap(clock, |p| &p.arbiter);

        let mut touched_memory = false;
        match grant {
            None => {
                stats.idle_slots += 1;
            }
            Some(BusGrant::WriteBack) => {
                out.progressed = true;
                let wb = cores[oi].pwb.pop().expect("arbiter saw a write-back");
                emit!(EventKind::WritebackTransmitted {
                    core: owner,
                    line: wb.line,
                    kind: wb.kind,
                });
                let wr = llc.writeback(owner, wb.line, wb.dirty, wb.kind, now);
                if let Some(traffic) = wr.mem_traffic {
                    touched_memory = true;
                    if let Some(kind) = dram_event(owner, &traffic) {
                        emit!(kind);
                    }
                }
                if let Some(line) = wr.freed {
                    emit!(EventKind::LineFreed {
                        line,
                        partition: llc.partition_map().partition_of(owner),
                    });
                }
                if has_req {
                    emit!(EventKind::Blocked {
                        core: owner,
                        reason: BlockReason::SlotUsedForWriteback,
                    });
                }
                #[cfg(debug_assertions)]
                llc.check(owner, wb.line);
            }
            Some(BusGrant::Request) => {
                out.progressed = true;
                let (line, first) = {
                    let req = cores[oi].prb.peek().expect("arbiter saw a request");
                    (req.op.addr.line(), !req.broadcast)
                };
                cores[oi].prb.mark_broadcast();
                if first {
                    emit!(EventKind::RequestBroadcast { core: owner, line });
                }
                let res = {
                    let cores = &mut *cores;
                    let mut evict = |target: CoreId, victim| {
                        cores[target.as_usize()]
                            .private
                            .back_invalidate(victim)
                            .dirty
                    };
                    llc.service(owner, line, now, &mut evict)
                };
                for traffic in res.mem_traffic.iter().flatten() {
                    touched_memory = true;
                    if let Some(kind) = dram_event(owner, traffic) {
                        emit!(kind);
                    }
                }
                if let Some(ev) = res.eviction {
                    let members = llc.partition_members(owner);
                    for target in res.invalidations.iter().map(|m| members[m]) {
                        emit!(EventKind::BackInvalidation {
                            core: target,
                            line: ev.victim,
                        });
                    }
                    // Dirty remote copies owe a data-carrying ack.
                    for target in res.ack_required.iter().map(|m| members[m]) {
                        cores[target.as_usize()].pwb.push(predllc_bus::WriteBack {
                            line: ev.victim,
                            dirty: true,
                            kind: predllc_bus::WbKind::BackInvalAck,
                            enqueued_at: now,
                        });
                    }
                }
                if let Some(position) = res.sequencer_position {
                    emit!(EventKind::SequencerEnqueued {
                        core: owner,
                        set: res.set,
                        position,
                    });
                }
                if let Some(ev) = res.eviction {
                    emit!(EventKind::EvictionTriggered {
                        by: owner,
                        victim: ev.victim,
                        sharers: ev.sharers,
                    });
                    // No data-carrying acknowledgements owed means
                    // the entry freed within this very slot (clean
                    // or requester-held copies only).
                    if res.ack_required.is_empty() {
                        emit!(EventKind::LineFreed {
                            line: ev.victim,
                            partition: llc.partition_map().partition_of(owner),
                        });
                    }
                }
                match res.outcome {
                    ServiceOutcome::Responded(kind) => {
                        let resume = now + sw.cycles();
                        let (issued, clean_drop) =
                            cores[oi].complete_request(resume, res.way, stats.core_mut(owner));
                        if let Some((dropped, way)) = clean_drop {
                            llc.note_clean_drop(owner, dropped, way);
                        }
                        record_latency(stats, lat_batch, fast, owner, resume - issued);
                        emit!(match kind {
                            ResponseKind::Hit => EventKind::Hit { core: owner, line },
                            ResponseKind::Fill => EventKind::Fill { core: owner, line },
                        });
                        if let Some(a) = &mut watch.attr {
                            a.on_complete(
                                owner,
                                line,
                                issued,
                                resume,
                                slot,
                                &res.mem_traffic,
                                || witness_snapshot(cores, stats, llc, owner, now),
                            );
                        }
                        out.responded = Some(oi);
                    }
                    ServiceOutcome::Blocked(reason) => {
                        emit!(EventKind::Blocked {
                            core: owner,
                            reason,
                        });
                    }
                }
                #[cfg(debug_assertions)]
                llc.check(owner, line);
            }
        }
        if grant.is_some() {
            watch.lap(clock, |p| match touched_memory {
                true => &p.dram,
                false => &p.llc,
            });
        }
        out
    }

    /// Folds substrate counters into the report and builds it, beside
    /// the twin backends' counters.
    fn finalize(mut self, timed_out: bool, end_slot: u64) -> (RunReport, Vec<MemStats>) {
        // Flush any run-length latency batches still open.
        for i in 0..self.lat_batch.len() {
            let (latency, count) = self.lat_batch[i];
            if count > 0 {
                self.stats
                    .core_mut(CoreId::new(i as u16))
                    .record_latency_n(latency, count);
            }
        }

        let Engine {
            cores,
            llc,
            mut stats,
            watch,
            sw,
            ..
        } = self;
        stats.absorb_memory(llc.memory_stats());
        debug_assert!(
            stats.max_dram_latency <= llc.memory_worst_case(),
            "memory backend exceeded its own analytical worst case: {} > {}",
            stats.max_dram_latency,
            llc.memory_worst_case()
        );
        let twins: Vec<MemStats> = llc
            .twins()
            .iter()
            .map(|twin| {
                let mem = twin.mem_stats();
                debug_assert!(
                    mem.max_latency <= twin.worst_case_latency(),
                    "twin backend {} exceeded its own analytical worst case: {} > {}",
                    twin.label(),
                    mem.max_latency,
                    twin.worst_case_latency()
                );
                mem.clone()
            })
            .collect();
        let (seq_sets, seq_depth) = llc.sequencer_pressure();
        stats.max_sequencer_sets = seq_sets;
        stats.max_sequencer_depth = seq_depth;
        stats.max_pwb_depth = cores.iter().map(|c| c.pwb.max_depth()).max().unwrap_or(0);

        // Inclusion invariant: every privately cached line is a valid,
        // tracked sharer in the LLC. (A sharer bit may outlive the
        // private copy: a write-back of it is still queued, or the copy
        // was dropped clean while the line was mid-eviction.)
        if cfg!(debug_assertions) && !timed_out {
            for core in &cores {
                for line in core.private.l2_lines() {
                    debug_assert!(
                        llc.is_valid_sharer(core.id(), line),
                        "inclusion violated: {} holds {line} but the LLC does not track it",
                        core.id()
                    );
                }
            }
        }

        let report = RunReport {
            stats,
            events: watch.log.unwrap_or_default(),
            timed_out,
            cycles: sw.slot_start(end_slot),
            attribution: watch.attr.map(|a| Box::new(a.into_report())),
        };
        (report, twins)
    }
}

/// Captures the witness's interferer and bank state: every other core's
/// concurrent request/write-back state plus the DRAM rows open at the
/// service slot. Restricted to engine-invariant state — counters and
/// buffers only mutated inside `process_slot`, and pending requests
/// gated on `issued_at <= now` (the fast engine's solo cores discover
/// their misses ahead of global time) — so the witness is bit-identical
/// across engine modes.
fn witness_snapshot<I: Iterator<Item = predllc_model::MemOp>>(
    cores: &[CoreModel<I>],
    stats: &SimStats,
    llc: &SharedLlc,
    owner: CoreId,
    now: Cycles,
) -> (Vec<InterfererSnapshot>, Vec<(predllc_model::BankId, u64)>) {
    let interferers = cores
        .iter()
        .filter(|c| c.id() != owner)
        .map(|c| {
            let pending = c.prb.peek().filter(|r| r.issued_at <= now);
            let cs = stats.core(c.id());
            InterfererSnapshot {
                core: c.id(),
                pending_line: pending.map(|r| r.op.addr.line()),
                pending_since: pending.map(|r| r.issued_at),
                pwb_depth: c.pwb.len(),
                writebacks_sent: cs.writebacks_sent,
                blocked_slots: cs.blocked_slots,
            }
        })
        .collect();
    (interferers, llc.open_rows())
}

/// The fast engine's next time-advancing step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Process this slot: the earliest slot in which some core can
    /// transmit, or the current one while a shared-partition core is
    /// mid-run.
    Transact(u64),
    /// The boundary at which the reference engine observes every core
    /// finished.
    Finish(u64),
    /// The first slot at or past the `max_cycles` cap.
    Timeout(u64),
    /// The deadlock-guard threshold.
    Deadlock(u64),
}

impl Event {
    fn slot(self) -> u64 {
        match self {
            Event::Transact(s) | Event::Finish(s) | Event::Timeout(s) | Event::Deadlock(s) => s,
        }
    }
}

/// Records one response latency — directly in reference mode, through the
/// per-core run-length batch in fast-forward mode (runs of identical
/// latencies collapse into one [`crate::LatencyHistogram::record_n`]).
fn record_latency(
    stats: &mut SimStats,
    lat_batch: &mut [(Cycles, u64)],
    batching: bool,
    owner: CoreId,
    latency: Cycles,
) {
    if !batching {
        stats.core_mut(owner).record_latency(latency);
        return;
    }
    let b = &mut lat_batch[owner.as_usize()];
    if b.1 > 0 && b.0 == latency {
        b.1 += 1;
    } else {
        if b.1 > 0 {
            stats.core_mut(owner).record_latency_n(b.0, b.1);
        }
        *b = (latency, 1);
    }
}

/// The [`EventKind::DramAccess`] of one backend access. Flat backends
/// (no row outcome) have none, which keeps fixed-latency event logs
/// identical to the seed simulator's.
fn dram_event(core: CoreId, traffic: &crate::llc::MemTraffic) -> Option<EventKind> {
    Some(EventKind::DramAccess {
        core,
        line: traffic.line,
        bank: traffic.access.bank,
        outcome: traffic.access.row?,
        latency: traffic.access.latency,
        write: traffic.write,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartitionSpec, SharingMode};
    use predllc_model::{Address, MemOp};

    fn read(addr: u64) -> MemOp {
        MemOp::read(Address::new(addr))
    }

    fn write(addr: u64) -> MemOp {
        MemOp::write(Address::new(addr))
    }

    #[test]
    fn single_core_single_miss_latency() {
        // One core, private partition: miss issued at cycle 10 (after L2
        // lookup), serviced in its first slot at/after 10 — slot 1 at
        // cycle 50 under a 1-core schedule... actually every slot belongs
        // to c0, so the slot starting at 50 services it: response at 100.
        let cfg = SystemConfig::private_partitions(2, 2, 1).unwrap();
        let report = Simulator::new(cfg)
            .unwrap()
            .run(vec![vec![read(0)]])
            .unwrap();
        assert_eq!(report.stats.core(CoreId::new(0)).llc_fills, 1);
        // issued_at = 10, serviced in slot starting 50, response 100:
        // latency 90.
        assert_eq!(report.max_request_latency(), Cycles::new(90));
        assert!(!report.timed_out);
    }

    #[test]
    fn llc_hit_after_l2_eviction() {
        // Access enough distinct lines to overflow a tiny L2, then
        // revisit: the revisit hits in the LLC (inclusive).
        let cfg = SystemConfig::builder(1)
            .l2(predllc_model::CacheGeometry::new(1, 2, 64).unwrap())
            .l1i(predllc_model::CacheGeometry::new(1, 1, 64).unwrap())
            .l1d(predllc_model::CacheGeometry::new(1, 1, 64).unwrap())
            .partitions(vec![PartitionSpec::private(4, 4, CoreId::new(0))])
            .build()
            .unwrap();
        let trace = vec![read(0), read(64), read(128), read(0)];
        let report = Simulator::new(cfg).unwrap().run(vec![trace]).unwrap();
        let s = report.stats.core(CoreId::new(0));
        assert_eq!(s.llc_fills, 3);
        assert_eq!(s.llc_hits, 1, "the revisit of line 0 hits in the LLC");
        assert_eq!(s.ops_completed, 4);
    }

    #[test]
    fn two_cores_share_bus_without_interference_in_private_partitions() {
        let cfg = SystemConfig::private_partitions(4, 4, 2).unwrap();
        let t0 = vec![read(0), read(64)];
        let t1 = vec![read(0), read(64)]; // same addresses, own partition
        let report = Simulator::new(cfg).unwrap().run(vec![t0, t1]).unwrap();
        for i in 0..2 {
            let s = report.stats.core(CoreId::new(i));
            assert_eq!(s.ops_completed, 2);
            assert_eq!(s.llc_fills, 2);
            assert_eq!(s.back_invalidations, 0);
        }
    }

    #[test]
    fn core_count_mismatch_is_an_error() {
        let cfg = SystemConfig::private_partitions(2, 2, 2).unwrap();
        let err = Simulator::new(cfg).unwrap().run(vec![vec![]]).unwrap_err();
        assert_eq!(
            err,
            SimError::CoreCountMismatch {
                workload_cores: 1,
                system_cores: 2
            }
        );
    }

    #[test]
    fn one_simulator_instance_runs_many_workloads() {
        // The redesigned API's core promise: validate once, run many.
        let sim = Simulator::new(SystemConfig::private_partitions(2, 2, 1).unwrap()).unwrap();
        let mut reports = Vec::new();
        for len in [1u64, 2, 3] {
            let trace: Vec<MemOp> = (0..len).map(|i| read(i * 64)).collect();
            reports.push(sim.run(vec![trace]).unwrap());
        }
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.stats.core(CoreId::new(0)).ops_completed, i as u64 + 1);
        }
        // Runs are independent: repeating the first workload reproduces
        // its report exactly (no state leaks between runs).
        let again = sim.run(vec![vec![read(0)]]).unwrap();
        assert_eq!(again.stats, reports[0].stats);
    }

    #[test]
    fn empty_traces_finish_at_cycle_zero() {
        let cfg = SystemConfig::private_partitions(2, 2, 2).unwrap();
        let report = Simulator::new(cfg)
            .unwrap()
            .run(vec![vec![], vec![]])
            .unwrap();
        assert_eq!(report.execution_time(), Cycles::ZERO);
        assert_eq!(report.stats.slots, 0);
    }

    #[test]
    fn shared_partition_eviction_roundtrip() {
        // Two cores, 1-set × 1-way shared partition: every access evicts
        // the other core's line; back-invalidations and acks must flow.
        let cfg = SystemConfig::shared_partition(1, 1, 2, SharingMode::BestEffort).unwrap();
        let t0 = vec![read(0), read(128)];
        let t1 = vec![read(64), read(192)];
        let report = Simulator::new(cfg).unwrap().run(vec![t0, t1]).unwrap();
        let total_invals: u64 = (0..2)
            .map(|i| report.stats.core(CoreId::new(i)).back_invalidations)
            .sum();
        assert!(
            total_invals >= 2,
            "sharing a 1-line partition forces invalidations"
        );
        assert!(!report.timed_out);
        for i in 0..2 {
            assert_eq!(report.stats.core(CoreId::new(i)).ops_completed, 2);
        }
    }

    #[test]
    fn set_sequencer_mode_completes_the_same_workload() {
        let cfg = SystemConfig::shared_partition(1, 1, 2, SharingMode::SetSequencer).unwrap();
        let t0 = vec![read(0), read(128), read(256)];
        let t1 = vec![read(64), read(192), read(320)];
        let report = Simulator::new(cfg).unwrap().run(vec![t0, t1]).unwrap();
        for i in 0..2 {
            assert_eq!(report.stats.core(CoreId::new(i)).ops_completed, 3);
        }
        assert!(report.stats.max_sequencer_depth >= 1);
    }

    #[test]
    fn dirty_lines_reach_dram_eventually() {
        // Write a line, then thrash the 1-way shared partition so it gets
        // evicted: the dirty data must reach DRAM.
        let cfg = SystemConfig::shared_partition(1, 1, 2, SharingMode::BestEffort).unwrap();
        let t0 = vec![write(0)];
        let t1 = vec![read(64), read(128)];
        let report = Simulator::new(cfg).unwrap().run(vec![t0, t1]).unwrap();
        assert!(
            report.stats.dram_writes >= 1,
            "dirty line 0 was evicted to DRAM"
        );
    }

    #[test]
    fn max_cycles_cap_reports_timeout() {
        // Fig. 2's unbounded scenario: cua shares with ci, ci has two
        // slots per period; ci thrashes the set forever.
        let schedule =
            TdmSchedule::new(vec![CoreId::new(0), CoreId::new(1), CoreId::new(1)]).unwrap();
        let cfg = SystemConfig::builder(2)
            .schedule(schedule)
            .partitions(vec![PartitionSpec::shared(
                1,
                1,
                vec![CoreId::new(0), CoreId::new(1)],
                SharingMode::BestEffort,
            )])
            .max_cycles(50_000)
            .build()
            .unwrap();
        // ci ping-pongs writes to two lines in the set (dirty copies
        // force the Evict→WB round trip); cua wants a third line.
        let t0 = vec![read(0)];
        let t1: Vec<MemOp> = (0..10_000).map(|i| write(64 + 64 * (i % 2))).collect();
        let report = Simulator::new(cfg).unwrap().run(vec![t0, t1]).unwrap();
        assert!(report.timed_out, "cua never completes: WCL unbounded");
        assert_eq!(report.stats.core(CoreId::new(0)).ops_completed, 0);
    }

    #[test]
    fn events_are_recorded_when_enabled() {
        let cfg = SystemConfig::builder(1)
            .partitions(vec![PartitionSpec::private(2, 2, CoreId::new(0))])
            .record_events(true)
            .build()
            .unwrap();
        let report = Simulator::new(cfg)
            .unwrap()
            .run(vec![vec![read(0)]])
            .unwrap();
        assert!(report
            .events
            .filter(|k| matches!(k, EventKind::Fill { .. }))
            .next()
            .is_some());
        assert!(report
            .events
            .filter(|k| matches!(k, EventKind::RequestBroadcast { .. }))
            .next()
            .is_some());
    }

    #[test]
    fn engine_modes_agree_on_a_small_run() {
        let trace: Vec<MemOp> = (0..200)
            .map(|i| read((i % 37) * 64))
            .chain((0..50).map(|i| write((i % 11) * 64)))
            .collect();
        let mut reports = Vec::new();
        for mode in [EngineMode::Reference, EngineMode::FastForward] {
            let cfg = SystemConfig::builder(2)
                .partitions(vec![
                    PartitionSpec::private(2, 2, CoreId::new(0)),
                    PartitionSpec::private(2, 2, CoreId::new(1)),
                ])
                .engine(mode)
                .build()
                .unwrap();
            assert_eq!(cfg.engine_mode(), mode);
            let report = Simulator::new(cfg)
                .unwrap()
                .run(vec![trace.clone(), trace.clone()])
                .unwrap();
            reports.push(report);
        }
        assert_eq!(reports[0].stats, reports[1].stats);
        assert_eq!(reports[0].timed_out, reports[1].timed_out);
        assert_eq!(reports[0].cycles, reports[1].cycles);
    }
}
