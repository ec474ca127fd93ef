//! Differential property suite for latency attribution: across
//! randomized configurations, workloads, both engines and every memory
//! backend, (a) the per-component cycle totals sum **exactly** to the
//! recorded request latencies (system-wide and per core), (b) turning
//! attribution on changes no observable output — stats, cycles, events,
//! timeout flag — in either engine, (c) both engines produce the same
//! attribution report (the fast engine's run-length batching included),
//! and (d) the worst-case witness replays through the reference engine
//! to the exact observed WCL.
//!
//! The suite asserts its own coverage, as `tests/fast_forward.rs` does:
//! every [`EventKind`] and every [`BlockReason`] appears in its recorded
//! runs at least once
//! (`the_suite_records_every_event_kind_and_block_reason`), so the
//! contract is checked on LLC hits, sequencer queues and every kind of
//! wait.

mod common;

use common::{tally, CLASSES, TALLY};

use predllc::model::{Address, CoreId, Cycles, MemOp};
use predllc::sim::events::BlockReason;
use predllc::workload::rng::Rng64;
use predllc::workload_gen::{HotColdGen, PointerChaseGen, StrideGen, UniformGen};
use predllc::{
    analysis::WclGapReport, ArbiterPolicy, Component, EngineMode, EventKind, MemoryConfig,
    MultiCore, PartitionSpec, ReplacementKind, SharingMode, Simulator, SystemConfigBuilder,
};

/// A deterministic "random" multi-core workload mixing the generator
/// families, tiny materialized traces and empty streams — the same
/// shape the engine-equivalence suite uses.
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
                wl = wl.core(vec![Vec::<MemOp>::new()]);
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

/// Runs `build`'s platform four ways — {reference, fast-forward} ×
/// {attribution off, on}, each recording its events — and checks the
/// full attribution contract.
fn assert_attribution_contract(
    build: impl Fn() -> SystemConfigBuilder,
    wl: &MultiCore,
    what: &str,
) {
    let run = |mode: EngineMode, attribution: bool| {
        let config = build()
            .engine(mode)
            .record_events(true)
            .attribution(attribution)
            .build()
            .unwrap_or_else(|e| panic!("{what}: invalid config: {e}"));
        let report = Simulator::new(config.clone())
            .expect("valid config")
            .run(wl)
            .unwrap_or_else(|e| panic!("{what}: run failed: {e}"));
        (config, report)
    };
    let (_, off_ref) = run(EngineMode::Reference, false);
    let (_, off_fast) = run(EngineMode::FastForward, false);
    let (on_ref_cfg, on_ref) = run(EngineMode::Reference, true);
    let (_, on_fast) = run(EngineMode::FastForward, true);
    tally(&on_ref);

    // (b) Attribution only reads: with it on, every observable output
    // is identical to the off run — in both engines.
    for (on, off, engine) in [
        (&on_ref, &off_ref, "reference"),
        (&on_fast, &off_fast, "fast-forward"),
    ] {
        assert_eq!(on.stats, off.stats, "{what}/{engine}: stats changed");
        assert_eq!(on.cycles, off.cycles, "{what}/{engine}: cycles changed");
        assert_eq!(
            on.timed_out, off.timed_out,
            "{what}/{engine}: timeout flag changed"
        );
        assert_eq!(
            on.events.events(),
            off.events.events(),
            "{what}/{engine}: events changed"
        );
    }
    assert_eq!(off_ref.stats, off_fast.stats, "{what}: engines diverged");
    assert!(
        off_ref.attribution().is_none(),
        "{what}: attribution-off run produced a report"
    );

    // (c) Both engines attribute identically — per-core totals,
    // per-component histograms and the witness (the fast engine's
    // run-length batching must be invisible here).
    let attr = on_ref.attribution().expect("attribution was on");
    assert_eq!(
        Some(attr),
        on_fast.attribution(),
        "{what}: attribution diverged across engines"
    );

    // (a) Exact sums: system-wide and per core, the component totals
    // equal the recorded request latencies to the cycle.
    assert_eq!(
        attr.total_components().total(),
        on_ref.latency_histogram().total(),
        "{what}: system component sum broke"
    );
    for (i, set) in attr.per_core().iter().enumerate() {
        assert_eq!(
            set.total(),
            on_ref.stats.cores[i].total_request_latency,
            "{what}: core {i} component sum broke"
        );
    }
    // The write-back and LLC waits are the core's `Blocked` events, one
    // slot each. On a run that finished, every blocked request completed.
    if !on_ref.timed_out {
        let sw = on_ref_cfg.slot_width().cycles();
        for (i, set) in attr.per_core().iter().enumerate() {
            let (mut writeback, mut llc_wait) = (0u64, 0u64);
            for event in on_ref.events.events() {
                if let EventKind::Blocked { core, reason } = event.kind {
                    if core.as_usize() == i {
                        if reason == BlockReason::SlotUsedForWriteback {
                            writeback += 1;
                        } else {
                            llc_wait += 1;
                        }
                    }
                }
            }
            assert_eq!(
                set.get(Component::Writeback),
                sw * writeback,
                "{what}: core {i} write-back wait is not its write-back blocked slots"
            );
            assert_eq!(
                set.get(Component::LlcWait),
                sw * llc_wait,
                "{what}: core {i} LLC wait is not its other blocked slots"
            );
        }
    }
    // Every completed request records into every component histogram.
    let requests: u64 = on_ref.stats.cores.iter().map(|c| c.requests).sum();
    for c in Component::ALL {
        let h = attr.histogram(c);
        assert_eq!(
            h.count(),
            requests,
            "{what}: {} histogram miscounted",
            c.label()
        );
        assert_eq!(
            h.total(),
            attr.total_components().get(c),
            "{what}: {} histogram total broke",
            c.label()
        );
    }

    // (d) The witness is the observed WCL and replays to it exactly.
    match attr.witness() {
        Some(w) => {
            assert_eq!(
                w.latency,
                on_ref.max_request_latency(),
                "{what}: witness is not the WCL"
            );
            assert_eq!(
                w.components.total(),
                w.latency,
                "{what}: witness component sum broke"
            );
            assert!(
                w.verify(&on_ref_cfg, wl)
                    .unwrap_or_else(|e| panic!("{what}: replay failed: {e}")),
                "{what}: witness replay missed the observed WCL"
            );
        }
        None => assert_eq!(requests, 0, "{what}: completed requests but no witness"),
    }

    // The analytical gap, when a bound applies, splits both sides fully:
    // the per-component budgets sum back to the bound and the witness.
    if let Some(gap) = WclGapReport::from_run(&on_ref_cfg, &on_ref).expect("valid config") {
        let analytical: u64 = gap.entries().iter().map(|e| e.analytical.as_u64()).sum();
        let observed: u64 = gap.entries().iter().map(|e| e.observed.as_u64()).sum();
        assert_eq!(
            analytical,
            gap.analytical_wcl.as_u64(),
            "{what}: gap split broke"
        );
        assert_eq!(
            observed,
            gap.observed_wcl.as_u64(),
            "{what}: gap split broke"
        );
    }
}

#[test]
fn randomized_private_and_shared_grids_attribute_exactly() {
    let mut rng = Rng64::new(0xA77_4B07E);
    for round in 0..10 {
        let cores = 1 + (rng.below(4) as u16);
        let sets = 1 + rng.below(6) as u32;
        let ways = 1 + rng.below(4) as u32;
        let ops = 100 + rng.below(600) as usize;
        let wl = random_workload(&mut rng, cores, ops);
        let replacement = random_replacement(&mut rng);
        let arbiter = random_arbiter(&mut rng);
        let shared = cores >= 2 && rng.below(2) == 0;
        let mode_kind = if rng.below(2) == 0 {
            SharingMode::BestEffort
        } else {
            SharingMode::SetSequencer
        };
        assert_attribution_contract(
            || {
                let partitions = if shared {
                    vec![PartitionSpec::shared(
                        sets,
                        ways,
                        CoreId::first(cores).collect(),
                        mode_kind,
                    )]
                } else {
                    CoreId::first(cores)
                        .map(|c| PartitionSpec::private(sets, ways, c))
                        .collect()
                };
                SystemConfigBuilder::new(cores)
                    .partitions(partitions)
                    .llc_replacement(replacement)
                    .private_replacement(replacement)
                    .arbiter(arbiter)
            },
            &wl,
            &format!("random grid round {round} (shared={shared})"),
        );
    }
}

#[test]
fn shared_line_workloads_attribute_exactly() {
    // LLC hits, sequencer queues and several sharers of one line: the
    // exact-sum and witness contract on the protocol's shared paths.
    let mut rng = Rng64::new(0xA77_5A2E);
    for round in 0..150 {
        let case = common::shared_lines(&mut rng);
        assert_attribution_contract(
            || SystemConfigBuilder::new(case.cores).partitions(vec![case.partition.clone()]),
            &case.workload,
            &format!("shared lines {} round {round}", case.partition),
        );
    }
}

#[test]
fn every_memory_backend_attributes_exactly() {
    let mut rng = Rng64::new(0xD4A_4817);
    let memories = [
        MemoryConfig::fixed(Cycles::new(30)),
        MemoryConfig::fixed(Cycles::new(17)),
        MemoryConfig::banked(),
        MemoryConfig::bank_private(),
        MemoryConfig::banked().worst_case(),
        MemoryConfig::bank_private().worst_case(),
    ];
    for memory in &memories {
        // bank_private needs the bank count divisible by cores: use 4.
        let cores = 4u16;
        let ops = 100 + rng.below(400) as usize;
        let wl = random_workload(&mut rng, cores, ops);
        assert_attribution_contract(
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
    }
}

#[test]
fn timed_out_and_empty_runs_attribute_exactly() {
    // A cap landing mid-run: the witness (if any) completed before the
    // cap, so the contract — including replay — must hold unchanged.
    let mut rng = Rng64::new(0x7183_0CA7);
    for round in 0..4 {
        let cores = 1 + (rng.below(3) as u16);
        let ops = 400 + rng.below(1200) as usize;
        let cap = 500 + rng.next_u64() % 15_000;
        let wl = random_workload(&mut rng, cores, ops);
        assert_attribution_contract(
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

    // No requests at all: no witness, all-zero components.
    let empty = MultiCore::new().core(vec![Vec::<MemOp>::new()]);
    assert_attribution_contract(
        || {
            SystemConfigBuilder::new(1).partitions(vec![PartitionSpec::private(
                2,
                2,
                CoreId::new(0),
            )])
        },
        &empty,
        "empty workload",
    );
}

#[test]
fn the_suite_records_every_event_kind_and_block_reason() {
    // Re-run every test of the suite on this thread, then read what the
    // recorded runs they checked the contract on logged.
    TALLY.set([0; CLASSES.len()]);
    randomized_private_and_shared_grids_attribute_exactly();
    shared_line_workloads_attribute_exactly();
    every_memory_backend_attributes_exactly();
    timed_out_and_empty_runs_attribute_exactly();
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
