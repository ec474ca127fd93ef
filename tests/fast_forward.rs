//! Differential property suite: the fast-forward engine must be
//! bit-identical to the slot-by-slot reference engine.
//!
//! Every test runs the same (configuration, workload) pair through both
//! [`EngineMode::Reference`] and [`EngineMode::FastForward`] and asserts
//! the full [`predllc::sim::SimStats`] — which includes every per-core
//! counter *and* the per-core latency histograms — plus the report's
//! `timed_out` flag and cycle count are equal, and that with event
//! recording on both engines log the same events. The grids are randomized
//! but deterministic (splitmix-style RNG, fixed seeds), the same pattern
//! as the other property loops in this repo's offline build.
//!
//! The suite asserts its own coverage: every [`EventKind`] and every
//! [`BlockReason`] appears in its recorded runs at least once
//! (`the_suite_records_every_event_kind_and_block_reason`), so a
//! generator change that stops exercising one fails loudly.

mod common;

use common::{tally, CLASSES, TALLY};

use predllc::model::{Address, CacheGeometry, CoreId, Cycles, MemOp, SlotWidth};
use predllc::sim::EngineProfile;
use predllc::workload::rng::Rng64;
use predllc::workload_gen::{HotColdGen, PointerChaseGen, StrideGen, UniformGen};
use predllc::{
    ArbiterPolicy, EngineMode, EventKind, MemoryConfig, MultiCore, PartitionSpec, ReplacementKind,
    RunReport, SharingMode, Simulator, SystemConfigBuilder, TdmSchedule, Workload,
};

/// Runs one workload under both engines, with event recording off and
/// on, and asserts report equality — event logs included. Returns the
/// (identical) unrecorded report for additional scenario assertions.
fn assert_engines_agree(
    build: impl Fn() -> SystemConfigBuilder,
    workload: &dyn Workload,
    what: &str,
) -> RunReport {
    let run = |mode: EngineMode, events: bool| {
        let cfg = build()
            .engine(mode)
            .record_events(events)
            .build()
            .unwrap_or_else(|e| panic!("{what}: invalid config: {e}"));
        Simulator::new(cfg)
            .expect("valid config")
            .run(workload)
            .unwrap_or_else(|e| panic!("{what}: {mode} run failed: {e}"))
    };
    let reference = run(EngineMode::Reference, false);
    let fast = run(EngineMode::FastForward, false);
    assert_eq!(reference.stats, fast.stats, "{what}: stats diverged");
    assert_eq!(
        reference.timed_out, fast.timed_out,
        "{what}: timeout flag diverged"
    );
    assert_eq!(
        reference.cycles, fast.cycles,
        "{what}: cycle count diverged"
    );
    // The histogram equality is implied by SimStats, but assert the
    // derived views too — they are what reports consume.
    assert_eq!(
        reference.latency_histogram(),
        fast.latency_histogram(),
        "{what}: merged histograms diverged"
    );
    assert!(
        fast.events.events().is_empty(),
        "{what}: fast logged events"
    );
    // With recording on, both loops log the same events, and recording
    // changes nothing else.
    let logged_reference = run(EngineMode::Reference, true);
    let logged_fast = run(EngineMode::FastForward, true);
    assert_eq!(
        logged_reference.events.events(),
        logged_fast.events.events(),
        "{what}: event logs diverged"
    );
    assert_eq!(
        logged_fast.stats, fast.stats,
        "{what}: recording changed the stats"
    );
    assert_eq!(
        logged_reference.stats, reference.stats,
        "{what}: recording changed the reference stats"
    );
    for (logged, engine) in [(&logged_reference, "reference"), (&logged_fast, "fast")] {
        assert_counters_count_events(logged, &format!("{what}/{engine}"));
    }
    tally(&logged_reference);
    fast
}

/// Each per-transaction counter of a recorded run equals the number of
/// events of its kind: per core `blocked_slots`, `writebacks_sent`,
/// `back_invalidations`, `llc_hits` and `llc_fills`; system-wide
/// `evictions_triggered` and `lines_freed`.
fn assert_counters_count_events(report: &RunReport, what: &str) {
    let mut per_core = vec![[0u64; 5]; report.stats.cores.len()];
    let (mut evictions, mut freed) = (0u64, 0u64);
    for event in report.events.events() {
        match event.kind {
            EventKind::Blocked { core, .. } => per_core[core.as_usize()][0] += 1,
            EventKind::WritebackTransmitted { core, .. } => per_core[core.as_usize()][1] += 1,
            EventKind::BackInvalidation { core, .. } => per_core[core.as_usize()][2] += 1,
            EventKind::Hit { core, .. } => per_core[core.as_usize()][3] += 1,
            EventKind::Fill { core, .. } => per_core[core.as_usize()][4] += 1,
            EventKind::EvictionTriggered { .. } => evictions += 1,
            EventKind::LineFreed { .. } => freed += 1,
            _ => {}
        }
    }
    for (i, (c, events)) in report.stats.cores.iter().zip(&per_core).enumerate() {
        assert_eq!(
            [
                c.blocked_slots,
                c.writebacks_sent,
                c.back_invalidations,
                c.llc_hits,
                c.llc_fills
            ],
            *events,
            "{what}: core {i}'s [blocked_slots, writebacks_sent, back_invalidations, \
             llc_hits, llc_fills] differ from their event counts"
        );
    }
    assert_eq!(
        (report.stats.evictions_triggered, report.stats.lines_freed),
        (evictions, freed),
        "{what}: (evictions_triggered, lines_freed) differ from their event counts"
    );
}

/// A deterministic "random" multi-core workload mixing all generator
/// families, empty streams and tiny materialized traces.
fn random_workload(rng: &mut Rng64, cores: u16, ops: usize) -> MultiCore {
    let mut wl = MultiCore::new();
    for c in 0..cores {
        let base = u64::from(c) << 22;
        let seed = rng.next_u64();
        match rng.below(6) {
            0 => {
                wl = wl.core(
                    UniformGen::new(64 * (8 + rng.below(64)), ops)
                        .with_seed(seed)
                        .with_write_fraction(0.25),
                );
            }
            1 => {
                wl = wl.core(
                    StrideGen::new(base, 64 * (4 + rng.below(96)), ops)
                        .with_stride(64 * (1 + rng.below(3))),
                );
            }
            2 => {
                wl = wl.core(PointerChaseGen::new(base, 64 * (2 + rng.below(40)), ops));
            }
            3 => {
                let mut g = HotColdGen::new(base, 64 * (16 + rng.below(128)), ops).with_seed(seed);
                g.hot_probability = 0.85;
                wl = wl.core(g);
            }
            4 => {
                // A tiny materialized trace with writes and repeats.
                let trace: Vec<MemOp> = (0..ops.min(40))
                    .map(|i| {
                        let line = rng.below(24) * 64;
                        if i % 3 == 0 {
                            MemOp::write(Address::new(base + line))
                        } else {
                            MemOp::read(Address::new(base + line))
                        }
                    })
                    .collect();
                wl = wl.core(vec![trace]);
            }
            _ => {
                wl = wl.core(vec![Vec::<MemOp>::new()]); // finished at cycle 0
            }
        }
    }
    wl
}

fn random_replacement(rng: &mut Rng64) -> ReplacementKind {
    match rng.below(4) {
        0 => ReplacementKind::Lru,
        1 => ReplacementKind::Fifo,
        2 => ReplacementKind::RoundRobin,
        _ => ReplacementKind::Random {
            seed: rng.next_u64(),
        },
    }
}

fn random_arbiter(rng: &mut Rng64) -> ArbiterPolicy {
    match rng.below(3) {
        0 => ArbiterPolicy::WritebackFirst,
        1 => ArbiterPolicy::RequestFirst,
        _ => ArbiterPolicy::RoundRobin,
    }
}

#[test]
fn private_partition_grids_agree() {
    let mut rng = Rng64::new(0xFA57_F0D1);
    for round in 0..12 {
        let cores = 1 + (rng.below(4) as u16);
        let sets = 1 + rng.below(8) as u32;
        let ways = 1 + rng.below(4) as u32;
        let ops = 200 + rng.below(1200) as usize;
        let wl = random_workload(&mut rng, cores, ops);
        let replacement = random_replacement(&mut rng);
        let arbiter = random_arbiter(&mut rng);
        assert_engines_agree(
            || {
                SystemConfigBuilder::new(cores)
                    .partitions(
                        CoreId::first(cores)
                            .map(|c| PartitionSpec::private(sets, ways, c))
                            .collect(),
                    )
                    .llc_replacement(replacement)
                    .private_replacement(replacement)
                    .arbiter(arbiter)
            },
            &wl,
            &format!("private grid round {round}"),
        );
    }
}

#[test]
fn shared_partition_grids_agree() {
    let mut rng = Rng64::new(0x5EA_57A7E);
    for round in 0..10 {
        let cores = 2 + (rng.below(3) as u16);
        let sets = 1 + rng.below(4) as u32;
        let ways = 1 + rng.below(8) as u32;
        let mode_kind = if rng.below(2) == 0 {
            SharingMode::BestEffort
        } else {
            SharingMode::SetSequencer
        };
        let ops = 100 + rng.below(600) as usize;
        let wl = random_workload(&mut rng, cores, ops);
        let arbiter = random_arbiter(&mut rng);
        assert_engines_agree(
            || {
                SystemConfigBuilder::new(cores)
                    .partitions(vec![PartitionSpec::shared(
                        sets,
                        ways,
                        CoreId::first(cores).collect(),
                        mode_kind,
                    )])
                    .arbiter(arbiter)
            },
            &wl,
            &format!("shared({mode_kind:?}) grid round {round}"),
        );
    }
}

#[test]
fn shared_line_workloads_agree() {
    // Cores drawing from one small pool of lines on a tiny SS or NSS
    // partition: hits on lines other cores filled, sharers to
    // back-invalidate, and sequencer queues whose members hit.
    let mut rng = Rng64::new(0x5_4A2E_D11E);
    for round in 0..150 {
        let case = common::shared_lines(&mut rng);
        assert_engines_agree(
            || SystemConfigBuilder::new(case.cores).partitions(vec![case.partition.clone()]),
            &case.workload,
            &format!("shared lines {} round {round}", case.partition),
        );
    }
}

/// The theorem documented on `SharingMode::SetSequencer`: a
/// set-sequenced run whose deepest queue held one request is the
/// best-effort run of the same platform and workload. On both engines,
/// with events and attribution on, it is equal in everything but the
/// two sequencer high-water marks and the `SequencerEnqueued` events.
#[test]
fn a_sequenced_run_whose_queues_held_one_request_is_the_best_effort_run() {
    let mut rng = Rng64::new(0x5E9_0DE7);
    // Cases whose SS run's deepest queue held at most one request, and
    // cases where a queue held two or more.
    let mut classes = [0usize; 2];
    for round in 0..120 {
        let (cores, sets, ways, wl, arbiter) = if round % 3 == 0 {
            let cores = 2 + (rng.below(3) as u16);
            let sets = 1 + rng.below(8) as u32;
            let ways = 1 + rng.below(8) as u32;
            let ops = 50 + rng.below(300) as usize;
            let wl = random_workload(&mut rng, cores, ops);
            (cores, sets, ways, wl, random_arbiter(&mut rng))
        } else {
            let case = common::shared_lines(&mut rng);
            let p = case.partition;
            (
                case.cores,
                p.sets,
                p.ways,
                case.workload,
                ArbiterPolicy::default(),
            )
        };
        let what = format!("round {round}: ({sets},{ways},{cores}) {arbiter:?}");
        let run = |engine: EngineMode, mode: SharingMode| {
            let cfg = SystemConfigBuilder::new(cores)
                .partitions(vec![PartitionSpec::shared(
                    sets,
                    ways,
                    CoreId::first(cores).collect(),
                    mode,
                )])
                .arbiter(arbiter)
                .engine(engine)
                .record_events(true)
                .attribution(true)
                .build()
                .unwrap_or_else(|e| panic!("{what}: invalid config: {e}"));
            Simulator::new(cfg)
                .expect("valid config")
                .run(&wl)
                .unwrap_or_else(|e| panic!("{what}: {engine} {mode} run failed: {e}"))
        };
        let mut depth = 0;
        for engine in [EngineMode::Reference, EngineMode::FastForward] {
            let ss = run(engine, SharingMode::SetSequencer);
            depth = ss.stats.max_sequencer_depth;
            if depth > 1 {
                continue;
            }
            let nss = run(engine, SharingMode::BestEffort);
            let mut stats = ss.stats.clone();
            stats.max_sequencer_depth = 0;
            stats.max_sequencer_sets = 0;
            assert_eq!(nss.stats, stats, "{what}/{engine}: stats differ");
            assert_eq!(
                (nss.cycles, nss.timed_out),
                (ss.cycles, ss.timed_out),
                "{what}/{engine}"
            );
            let unsequenced: Vec<_> = ss
                .events
                .events()
                .iter()
                .filter(|e| !matches!(e.kind, EventKind::SequencerEnqueued { .. }))
                .copied()
                .collect();
            assert_eq!(
                nss.events.events(),
                unsequenced.as_slice(),
                "{what}/{engine}: event logs differ"
            );
            assert!(ss.attribution().is_some());
            assert_eq!(
                nss.attribution(),
                ss.attribution(),
                "{what}/{engine}: attribution differs"
            );
        }
        classes[usize::from(depth > 1)] += 1;
    }
    assert!(
        classes.iter().all(|&n| n >= 20),
        "cases with the deepest queue at <= 1 and >= 2 requests: {classes:?}"
    );
}

#[test]
fn mixed_private_and_shared_partitions_agree() {
    // Two solo cores + two cores sharing a contended partition: the fast
    // engine must interleave bulk-advanced solo runs with the stepped
    // slots the shared pair forces.
    let mut rng = Rng64::new(0x00D1_F00D);
    for round in 0..6 {
        let ops = 150 + rng.below(500) as usize;
        let wl = random_workload(&mut rng, 4, ops);
        assert_engines_agree(
            || {
                SystemConfigBuilder::new(4).partitions(vec![
                    PartitionSpec::private(4, 2, CoreId::new(0)),
                    PartitionSpec::shared(
                        1,
                        2,
                        vec![CoreId::new(1), CoreId::new(2)],
                        SharingMode::BestEffort,
                    ),
                    PartitionSpec::private(2, 2, CoreId::new(3)),
                ])
            },
            &wl,
            &format!("mixed grid round {round}"),
        );
    }
}

#[test]
fn banked_and_worst_case_backends_agree() {
    let mut rng = Rng64::new(0xBA_4CED);
    let memories = [
        MemoryConfig::fixed(Cycles::new(30)),
        MemoryConfig::fixed(Cycles::new(17)),
        MemoryConfig::banked(),
        MemoryConfig::bank_private(),
        MemoryConfig::banked().worst_case(),
        MemoryConfig::bank_private().worst_case(),
    ];
    for (k, memory) in memories.iter().enumerate() {
        // bank_private needs the bank count divisible by cores: use 4.
        let cores = 4u16;
        let ops = 150 + rng.below(500) as usize;
        let wl = random_workload(&mut rng, cores, ops);
        let report = assert_engines_agree(
            || {
                SystemConfigBuilder::new(cores)
                    .partitions(
                        CoreId::first(cores)
                            .map(|c| PartitionSpec::private(2, 4, c))
                            .collect(),
                    )
                    .memory(memory.clone())
            },
            &wl,
            &format!("backend {}", memory.label()),
        );
        if k >= 2 {
            assert!(
                report.stats.dram_row_hits
                    + report.stats.dram_row_empties
                    + report.stats.dram_row_conflicts
                    > 0,
                "banked backend saw no banked accesses"
            );
        }
    }
}

#[test]
fn weighted_schedules_and_timeouts_agree() {
    // The Fig. 2 flavour: an unbalanced schedule, a thrashing shared
    // set, and a max_cycles cap — the timed-out report must match to the
    // slot, including the bulk-accounted idle spans.
    let schedule = TdmSchedule::new(vec![CoreId::new(0), CoreId::new(1), CoreId::new(1)]).unwrap();
    let t0 = vec![MemOp::read(Address::new(0))];
    let t1: Vec<MemOp> = (0..6_000)
        .map(|i| MemOp::write(Address::new(64 + 64 * (i % 2))))
        .collect();
    let wl = vec![t0, t1];
    let report = assert_engines_agree(
        || {
            SystemConfigBuilder::new(2)
                .schedule(schedule.clone())
                .partitions(vec![PartitionSpec::shared(
                    1,
                    1,
                    vec![CoreId::new(0), CoreId::new(1)],
                    SharingMode::BestEffort,
                )])
                .max_cycles(30_000)
        },
        &wl,
        "fig2 timeout",
    );
    assert!(report.timed_out);

    // A cap that lands mid-run on a private-partition system exercises
    // the bulk-advance horizon clamp.
    let mut rng = Rng64::new(0x7133_0CA9);
    for round in 0..6 {
        let cores = 1 + (rng.below(3) as u16);
        let ops = 500 + rng.below(2000) as usize;
        let cap = 40 + rng.next_u64() % 20_000;
        let wl = random_workload(&mut rng, cores, ops);
        assert_engines_agree(
            || {
                SystemConfigBuilder::new(cores)
                    .partitions(
                        CoreId::first(cores)
                            .map(|c| PartitionSpec::private(2, 2, c))
                            .collect(),
                    )
                    .max_cycles(cap)
            },
            &wl,
            &format!("capped round {round} (cap {cap})"),
        );
    }

    // Solo cores leaping idle spans under a weighted schedule whose
    // period exceeds the core count: the search for the next
    // transmitting slot must span a whole period, not one slot per core.
    let mut rng = Rng64::new(0x5C4E_D01E);
    for round in 0..8 {
        let cores = 2 + (rng.below(4) as u16);
        let mut slots: Vec<CoreId> = CoreId::first(cores)
            .flat_map(|c| std::iter::repeat_n(c, 1 + rng.below(3) as usize))
            .collect();
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let schedule = TdmSchedule::new(slots).expect("every core owns a slot");
        let ops = 200 + rng.below(800) as usize;
        let wl = random_workload(&mut rng, cores, ops);
        assert_engines_agree(
            || {
                SystemConfigBuilder::new(cores)
                    .schedule(schedule.clone())
                    .partitions(
                        CoreId::first(cores)
                            .map(|c| PartitionSpec::private(2, 2, c))
                            .collect(),
                    )
            },
            &wl,
            &format!("weighted private round {round} ({schedule:?})"),
        );
    }
}

#[test]
fn odd_slot_widths_and_latencies_agree() {
    let mut rng = Rng64::new(0x0DD_51075);
    for round in 0..8 {
        let cores = 1 + (rng.below(3) as u16);
        let sw = 37 + rng.below(90);
        let l1 = 1 + rng.below(4);
        let l2 = l1 + 1 + rng.below(12);
        let dram = 1 + rng.below(sw.saturating_sub(l2).max(2) - 1);
        let ops = 200 + rng.below(800) as usize;
        let wl = random_workload(&mut rng, cores, ops);
        assert_engines_agree(
            || {
                SystemConfigBuilder::new(cores)
                    .slot_width(SlotWidth::new(sw).expect("nonzero"))
                    .l1_latency(Cycles::new(l1))
                    .l2_latency(Cycles::new(l2))
                    .dram_latency(Cycles::new(dram))
                    .partitions(
                        CoreId::first(cores)
                            .map(|c| PartitionSpec::private(3, 2, c))
                            .collect(),
                    )
            },
            &wl,
            &format!("odd widths round {round} (sw {sw}, l1 {l1}, l2 {l2})"),
        );
    }
}

#[test]
fn many_tenant_llc_hit_grid_agrees() {
    // A scaled-down version of the engine_perf headline workload: every
    // op misses private and hits the LLC, across enough tenants that the
    // fast engine's walk over the TDM schedule spans many owners.
    let tenants = 24u16;
    let mut wl = MultiCore::new();
    for i in 0..tenants {
        wl = wl.core(StrideGen::new(u64::from(i) << 20, 64 * 96, 400));
    }
    let report = assert_engines_agree(
        || {
            SystemConfigBuilder::new(tenants)
                .physical_llc(CacheGeometry::new(8 * u32::from(tenants), 16, 64).expect("valid"))
                .partitions(
                    CoreId::first(tenants)
                        .map(|c| PartitionSpec::private(6, 16, c))
                        .collect(),
                )
        },
        &wl,
        "many-tenant llc-hit grid",
    );
    let hits: u64 = report.stats.cores.iter().map(|c| c.llc_hits).sum();
    assert!(hits > 0, "scenario must exercise the LLC-hit fast path");
}

#[test]
fn long_private_op_with_busy_bus_does_not_false_deadlock() {
    // Regression: a shared-partition core mid-way through one enormous
    // private-hit op (longer than the deadlock guard's slot budget)
    // keeps the fast engine in stepped mode; the bus transactions of the
    // other core must keep resetting the deadlock guard there, exactly
    // as they do in the reference loop.
    let l1 = 6_000_000u64; // > DEADLOCK_GUARD_SLOTS (100_000) x 50-cycle slots
    let t0 = vec![
        MemOp::read(Address::new(0)),
        MemOp::read(Address::new(0)), // L1 hit: one op spanning ~6M cycles
    ];
    // The other core streams private misses long past the guard window.
    let t1 = StrideGen::new(1 << 20, 64 * 4096, 70_000).trace();
    let wl = vec![t0, t1];
    let report = assert_engines_agree(
        || {
            SystemConfigBuilder::new(2)
                .l1_latency(Cycles::new(l1))
                .partitions(vec![PartitionSpec::shared(
                    8,
                    8,
                    CoreId::first(2).collect(),
                    SharingMode::BestEffort,
                )])
        },
        &wl,
        "long private op under busy bus",
    );
    assert!(!report.timed_out);
    assert_eq!(report.stats.core(CoreId::new(0)).ops_completed, 2);
}

#[test]
fn the_fast_loop_records_the_reference_event_log() {
    // Event recording does not force the reference loop: a recorded
    // fast-forward run leaps idle slots (the idle-jump stage, which only
    // the fast loop profiles) and still logs exactly the reference
    // loop's events.
    let mut rng = Rng64::new(0xE7E9_0001);
    let wl = random_workload(&mut rng, 2, 300);
    let run = |mode: EngineMode| {
        let cfg = SystemConfigBuilder::new(2)
            .partitions(vec![PartitionSpec::shared(
                1,
                2,
                CoreId::first(2).collect(),
                SharingMode::SetSequencer,
            )])
            .record_events(true)
            .engine(mode)
            .build()
            .expect("valid config");
        let profile = EngineProfile::new(1);
        let report = Simulator::new(cfg)
            .unwrap()
            .run_profiled(&wl, Some(&profile))
            .unwrap();
        (report, profile)
    };
    let (reference, reference_profile) = run(EngineMode::Reference);
    let (fast, fast_profile) = run(EngineMode::FastForward);
    assert_eq!(
        reference_profile.idle_jump.count(),
        0,
        "the reference loop never leaps"
    );
    assert!(
        fast_profile.idle_jump.count() > 0,
        "the recorded run did not take the fast loop"
    );
    assert_eq!(reference.stats, fast.stats);
    assert_eq!(reference.events.events(), fast.events.events());
    assert!(!fast.events.events().is_empty());
    tally(&reference);
    // Sampling every opportunity, each granted slot times exactly one
    // LLC or DRAM stage, and each slot the reference loop processes
    // times its arbiter.
    for (report, profile, engine) in [
        (&reference, &reference_profile, "reference"),
        (&fast, &fast_profile, "fast"),
    ] {
        assert_eq!(
            profile.llc.count() + profile.dram.count(),
            report.stats.slots - report.stats.idle_slots,
            "{engine}: service stages timed != granted slots"
        );
    }
    assert_eq!(reference_profile.arbiter.count(), reference.stats.slots);
}

#[test]
fn the_suite_records_every_event_kind_and_block_reason() {
    // Re-run every recording test of the suite on this thread, then read
    // what their recorded runs logged.
    TALLY.set([0; CLASSES.len()]);
    private_partition_grids_agree();
    shared_partition_grids_agree();
    shared_line_workloads_agree();
    mixed_private_and_shared_partitions_agree();
    banked_and_worst_case_backends_agree();
    weighted_schedules_and_timeouts_agree();
    odd_slot_widths_and_latencies_agree();
    many_tenant_llc_hit_grid_agrees();
    long_private_op_with_busy_bus_does_not_false_deadlock();
    the_fast_loop_records_the_reference_event_log();
    let counts = TALLY.get();
    let tallies: Vec<String> = CLASSES
        .iter()
        .zip(counts)
        .map(|(class, n)| format!("{class} {n}"))
        .collect();
    for (class, n) in CLASSES.iter().zip(counts) {
        assert!(
            n > 0,
            "no recorded run of the suite logged {class}; tallies: {}",
            tallies.join(", ")
        );
    }
}
