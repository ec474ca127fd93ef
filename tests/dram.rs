//! Integration suite for the bank-aware DRAM subsystem.
//!
//! Four contracts:
//!
//! 1. **Seed equivalence** — the default (fixed-latency) backend
//!    produces reports bit-identical to the seed simulator's: same
//!    stats, same event logs, no per-access DRAM events, and the
//!    seed's golden numbers still hold.
//! 2. **Streaming equivalence** — under `BankedDram`, a streamed
//!    workload and its materialized twin stay byte-identical.
//! 3. **Worst-case soundness** — a property loop: every observed
//!    memory access latency is `≤` the backend's analytical worst case
//!    (the quantity the slot-budget check and WCL bounds fold in), and
//!    a `WorstCase`-wrapped run pins every access to exactly that bound.
//! 4. **Twin backends** — a backend never moves simulated time, so a
//!    run that drives twin backends beside its own
//!    (`Simulator::run_with_twins`) reports exactly the plain run, and
//!    each twin ends with the counters of a plain run on that backend.

use predllc::workload::rng::Rng64;
use predllc::workload_gen::{HotColdGen, PointerChaseGen, StrideGen, UniformGen};
use predllc::{
    BankMapping, ConfigError, CoreId, Cycles, DramGeometry, DramTiming, EngineMode, EventKind,
    MemoryConfig, MultiCore, PartitionSpec, RunReport, SharingMode, SimError, Simulator, SlotWidth,
    SystemConfig, Workload,
};

fn platform(memory: MemoryConfig, mode: Option<SharingMode>, record_events: bool) -> SystemConfig {
    let partitions = match mode {
        Some(mode) => vec![PartitionSpec::shared(
            2,
            2,
            CoreId::first(4).collect(),
            mode,
        )],
        None => CoreId::first(4)
            .map(|c| PartitionSpec::private(2, 2, c))
            .collect(),
    };
    SystemConfig::builder(4)
        .partitions(partitions)
        .memory(memory)
        .record_events(record_events)
        .build()
        .expect("valid test platform")
}

fn workload(seed: u64) -> UniformGen {
    UniformGen::new(16 << 10, 300)
        .with_seed(seed)
        .with_write_fraction(0.3)
        .with_cores(4)
}

fn run(config: SystemConfig, w: &impl Workload) -> RunReport {
    Simulator::new(config).unwrap().run(w).unwrap()
}

#[test]
fn default_backend_is_bit_identical_to_explicit_fixed_latency() {
    // The builder default and an explicit fixed(30) selection must be
    // the same backend: identical stats and identical event logs.
    let w = workload(7);
    let implicit = SystemConfig::builder(4)
        .partitions(
            CoreId::first(4)
                .map(|c| PartitionSpec::private(2, 2, c))
                .collect(),
        )
        .record_events(true)
        .build()
        .unwrap();
    let explicit = platform(MemoryConfig::fixed(Cycles::new(30)), None, true);
    let a = run(implicit, &w);
    let b = run(explicit, &w);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.events.events(), b.events.events());
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn fixed_latency_reports_match_seed_golden_values() {
    // The seed's single-core single-miss scenario: miss issued at cycle
    // 10, serviced in the slot starting at 50, response at 100 → latency
    // 90. The new stats fields stay zero and no DRAM events appear.
    let cfg = SystemConfig::builder(1)
        .partitions(vec![PartitionSpec::private(2, 2, CoreId::new(0))])
        .record_events(true)
        .build()
        .unwrap();
    let report = run(
        cfg,
        &vec![vec![predllc::MemOp::read(predllc::Address::new(0))]],
    );
    assert_eq!(report.max_request_latency(), Cycles::new(90));
    assert_eq!(report.stats.core(CoreId::new(0)).llc_fills, 1);
    assert_eq!(report.stats.dram_reads, 1);
    assert_eq!(
        report.stats.dram_row_hits
            + report.stats.dram_row_empties
            + report.stats.dram_row_conflicts,
        0,
        "the flat backend has no row outcomes"
    );
    assert!(report.stats.dram_bank_conflicts.is_empty());
    assert_eq!(
        report
            .events
            .filter(|k| matches!(k, EventKind::DramAccess { .. }))
            .count(),
        0,
        "fixed-latency logs are identical to the seed's (no DRAM events)"
    );
}

#[test]
fn streamed_and_materialized_twins_agree_under_banked_dram() {
    for memory in [MemoryConfig::banked(), MemoryConfig::bank_private()] {
        for mode in [
            None,
            Some(SharingMode::SetSequencer),
            Some(SharingMode::BestEffort),
        ] {
            let w = workload(42);
            let sim = Simulator::new(platform(memory.clone(), mode, false)).unwrap();
            let streamed = sim.run(&w).unwrap();
            let materialized = sim.run(w.materialize()).unwrap();
            assert_eq!(
                streamed.stats, materialized.stats,
                "stream/materialize divergence under {memory:?} mode {mode:?}"
            );
            // Replays are exact: the backend is rebuilt per run.
            let replay = sim.run(&w).unwrap();
            assert_eq!(streamed.stats, replay.stats);
        }
    }
}

#[test]
fn observed_memory_latency_never_exceeds_the_analytical_worst_case() {
    // Property loop: many seeds × mappings × sharing modes; every
    // DramAccess event's latency must respect the worst case the
    // analysis folds into the slot-budget check.
    for seed in 0..8u64 {
        for memory in [MemoryConfig::banked(), MemoryConfig::bank_private()] {
            for mode in [None, Some(SharingMode::BestEffort)] {
                let cfg = platform(memory.clone(), mode, true);
                let wc = cfg.memory().worst_case_latency();
                let report = run(cfg, &workload(seed));
                let mut accesses = 0u64;
                for e in report.events.events() {
                    if let EventKind::DramAccess { latency, .. } = e.kind {
                        accesses += 1;
                        assert!(
                            latency <= wc,
                            "seed {seed}: observed {latency} > worst case {wc}"
                        );
                    }
                }
                assert!(accesses > 0, "the workload must exercise the backend");
                assert_eq!(accesses, report.stats.dram_reads + report.stats.dram_writes);
                assert!(report.stats.max_dram_latency <= wc);
            }
        }
    }
}

#[test]
fn worst_case_adapter_pins_every_access_to_the_bound() {
    let memory = MemoryConfig::banked().worst_case();
    let cfg = platform(memory, Some(SharingMode::SetSequencer), true);
    let wc = cfg.memory().worst_case_latency();
    assert_eq!(wc, DramTiming::PAPER.worst_case());
    let report = run(cfg, &workload(3));
    let mut seen = 0;
    for e in report.events.events() {
        if let EventKind::DramAccess { latency, .. } = e.kind {
            seen += 1;
            assert_eq!(latency, wc, "worst-case adapter must answer exactly wc");
        }
    }
    assert!(seen > 0);
    assert_eq!(report.stats.max_dram_latency, wc);
}

#[test]
fn banked_run_is_dominated_by_its_worst_case_twin() {
    // The soundness story end to end: per-access latencies of a banked
    // run are bounded by the constant its WorstCase twin charges.
    let w = workload(11);
    let real = run(platform(MemoryConfig::banked(), None, false), &w);
    let pinned = run(
        platform(MemoryConfig::banked().worst_case(), None, false),
        &w,
    );
    assert!(real.stats.max_dram_latency <= pinned.stats.max_dram_latency);
    // Same traffic shape either way: latencies never change scheduling.
    assert_eq!(real.stats.dram_reads, pinned.stats.dram_reads);
    assert_eq!(real.stats.dram_writes, pinned.stats.dram_writes);
}

#[test]
fn builder_enforces_the_slot_budget_invariant_for_backends() {
    // Banked timing whose worst case (2·conflict + 2·tWR = 62) exceeds
    // the 50-cycle paper slot.
    let heavy = MemoryConfig::Banked {
        timing: DramTiming {
            t_rcd: 8,
            t_rp: 8,
            t_cas: 8,
            t_wr: 7,
            t_bus: 0,
        },
        geometry: DramGeometry::PAPER,
        mapping: BankMapping::Interleaved,
    };
    let err = SystemConfig::builder(1)
        .partitions(vec![PartitionSpec::private(1, 1, CoreId::new(0))])
        .memory(heavy)
        .build()
        .unwrap_err();
    match err {
        ConfigError::BackendExceedsSlot {
            worst_case,
            slot_width,
            ..
        } => {
            assert_eq!(worst_case, 62);
            assert_eq!(slot_width, 50);
        }
        other => panic!("expected BackendExceedsSlot, got {other:?}"),
    }

    // A wider slot admits the same backend.
    let heavy = MemoryConfig::Banked {
        timing: DramTiming {
            t_rcd: 8,
            t_rp: 8,
            t_cas: 8,
            t_wr: 7,
            t_bus: 0,
        },
        geometry: DramGeometry::PAPER,
        mapping: BankMapping::Interleaved,
    };
    assert!(SystemConfig::builder(1)
        .partitions(vec![PartitionSpec::private(1, 1, CoreId::new(0))])
        .slot_width(SlotWidth::new(100).unwrap())
        .memory(heavy)
        .build()
        .is_ok());

    // Bank-private slicing must divide evenly: 8 banks across 3 cores.
    let err = SystemConfig::builder(3)
        .partitions(
            CoreId::first(3)
                .map(|c| PartitionSpec::private(1, 1, c))
                .collect(),
        )
        .memory(MemoryConfig::bank_private())
        .build()
        .unwrap_err();
    assert!(matches!(err, ConfigError::Memory(_)), "got {err:?}");
}

#[test]
fn slot_budget_and_memory_aware_wcl_fold_the_backend_in() {
    use predllc::analysis::{MemoryAwareWcl, SlotBudget};
    let cfg = platform(
        MemoryConfig::banked(),
        Some(SharingMode::SetSequencer),
        false,
    );
    let budget = SlotBudget::from_config(&cfg);
    assert!(budget.is_valid());
    assert_eq!(budget.memory_worst_case, Cycles::new(30));
    assert_eq!(budget.slack(), Cycles::new(20));
    let wcl = MemoryAwareWcl::from_config(&cfg).unwrap();
    // 4 sharers under the sequencer: (2·3·4 + 1)·4·50 = 5000.
    assert_eq!(wcl.bound(), Some(Cycles::new(5_000)));
    // The observed WCL of a run stays inside the memory-aware bound.
    let report = run(cfg, &workload(5));
    assert!(report.max_request_latency() <= wcl.bound().unwrap());
}

/// A deterministic random workload: each core draws a generator family,
/// a footprint and a seed. Uniform streams start at address 0 on every
/// core, so they share lines.
fn random_workload(rng: &mut Rng64, cores: u16, ops: usize) -> MultiCore {
    let mut wl = MultiCore::new();
    for c in 0..cores {
        let base = u64::from(c) << 22;
        let range = 64 * (4 + rng.below(256));
        let seed = rng.next_u64();
        wl = match rng.below(4) {
            0 => wl.core(
                UniformGen::new(range, ops)
                    .with_seed(seed)
                    .with_write_fraction(0.3),
            ),
            1 => wl.core(StrideGen::new(base, range, ops).with_stride(64 * (1 + rng.below(3)))),
            2 => wl.core(PointerChaseGen::new(base, range, ops)),
            _ => wl.core(HotColdGen::new(base, range, ops).with_seed(seed)),
        };
    }
    wl
}

#[test]
fn twin_backends_reproduce_plain_runs_on_both_engines() {
    let backends = [
        MemoryConfig::fixed(Cycles::new(30)),
        MemoryConfig::fixed(Cycles::new(12)),
        MemoryConfig::fixed(Cycles::new(1)),
        MemoryConfig::banked(),
        MemoryConfig::bank_private(),
        MemoryConfig::banked().worst_case(),
        MemoryConfig::bank_private().worst_case(),
    ];
    let mut rng = Rng64::new(0x7_1A5);
    for round in 0..10 {
        // Bank-private mapping slices 8 banks evenly over 2 or 4 cores.
        let cores = [2u16, 4][rng.below(2) as usize];
        let sets = 1 + rng.below(4) as u32;
        let ways = 1 + rng.below(4) as u32;
        let partitions = match rng.below(3) {
            0 => CoreId::first(cores)
                .map(|c| PartitionSpec::private(sets, ways, c))
                .collect(),
            k => vec![PartitionSpec::shared(
                sets,
                ways,
                CoreId::first(cores).collect(),
                [SharingMode::SetSequencer, SharingMode::BestEffort][k as usize - 1],
            )],
        };
        let ops = 100 + rng.below(400) as usize;
        let wl = random_workload(&mut rng, cores, ops);
        let set: Vec<MemoryConfig> = (0..2 + rng.below(3))
            .map(|_| backends[rng.below(backends.len() as u64) as usize].clone())
            .collect();
        for mode in [EngineMode::Reference, EngineMode::FastForward] {
            let build = |memory: &MemoryConfig| {
                SystemConfig::builder(cores)
                    .partitions(partitions.clone())
                    .memory(memory.clone())
                    .engine(mode)
                    .record_events(true)
                    .attribution(true)
                    .build()
                    .unwrap()
            };
            let what = format!("round {round}, {mode}, backends {set:?}");
            let sim = Simulator::new(build(&set[0])).unwrap();
            let plain = sim.run(&wl).unwrap();
            let (twinned, twins) = sim.run_with_twins(&wl, &set[1..]).unwrap();
            // Bit for bit: stats, events, attribution, cycles and flags.
            assert_eq!(
                format!("{twinned:?}"),
                format!("{plain:?}"),
                "{what}: twins changed the primary's report"
            );
            assert_eq!(twins.len(), set.len() - 1, "{what}");
            for (memory, mem) in set[1..].iter().zip(&twins) {
                let alone = Simulator::new(build(memory)).unwrap().run(&wl).unwrap();
                // Everything but the DRAM counters is the shared run's;
                // the DRAM counters are the twin's own.
                let mut stats = twinned.stats.clone();
                stats.absorb_memory(mem);
                assert_eq!(stats, alone.stats, "{what}: twin {memory} diverged");
                assert_eq!(
                    (twinned.cycles, twinned.timed_out),
                    (alone.cycles, alone.timed_out),
                    "{what}: twin {memory} ran a different course"
                );
            }
        }
    }
}

#[test]
fn twins_that_break_the_slot_budget_are_config_errors() {
    let sim = Simulator::new(platform(MemoryConfig::default(), None, false)).unwrap();
    let err = sim
        .run_with_twins(
            workload(1),
            &[MemoryConfig::banked(), MemoryConfig::fixed(Cycles::new(50))],
        )
        .unwrap_err();
    assert_eq!(
        err,
        SimError::Config(ConfigError::DramExceedsSlot {
            dram_latency: 50,
            slot_width: 50,
        })
    );
    // No twins is a plain run.
    let (report, twins) = sim.run_with_twins(workload(1), &[]).unwrap();
    assert!(twins.is_empty());
    assert_eq!(report.stats, sim.run(workload(1)).unwrap().stats);
}
