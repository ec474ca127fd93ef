//! Property-style tests of the simulator's structural invariants:
//! completion, determinism, conservation laws on the statistics, and
//! cross-mode consistency — under pseudo-randomly generated
//! configurations and workloads.
//!
//! The parameter space is sampled with the workspace's own deterministic
//! RNG (no external property-testing framework): every case is
//! reproducible from the fixed master seed, and a failure message names
//! the offending parameters.

use predllc::workload::rng::Rng64;
use predllc::workload_gen::UniformGen;
use predllc::{CoreId, EngineMode, PartitionSpec, RunReport, SharingMode, Simulator, SystemConfig};

#[allow(clippy::too_many_arguments)]
fn run_shared(
    sets: u32,
    ways: u32,
    n: u16,
    mode: SharingMode,
    range: u64,
    ops: usize,
    writes: f64,
    seed: u64,
) -> RunReport {
    let cfg = SystemConfig::shared_partition(sets, ways, n, mode).expect("valid dims");
    let gen = UniformGen::new(range, ops)
        .with_write_fraction(writes)
        .with_seed(seed)
        .with_cores(n);
    Simulator::new(cfg).unwrap().run(&gen).unwrap()
}

/// Deterministically samples `cases` parameter tuples.
fn sample_cases(cases: usize) -> impl Iterator<Item = (u32, u32, u16, SharingMode, u64, f64, u64)> {
    let mut rng = Rng64::new(0x1724_11A7_5EED_0001);
    (0..cases).map(move |_| {
        let sets = 1 + rng.below(7) as u32;
        let ways = 1u32 << rng.below(3);
        let n = 2 + rng.below(3) as u16;
        let mode = if rng.chance(0.5) {
            SharingMode::SetSequencer
        } else {
            SharingMode::BestEffort
        };
        let range = 1u64 << (10 + rng.below(5));
        let writes = rng.below(60) as f64 / 100.0;
        let seed = rng.next_u64();
        (sets, ways, n, mode, range, writes, seed)
    })
}

/// Every bounded configuration finishes every operation: no request is
/// lost, no deadlock occurs, and the completion counters add up.
#[test]
fn all_operations_complete() {
    for (sets, ways, n, mode, range, writes, seed) in sample_cases(24) {
        let ops = 150usize;
        let report = run_shared(sets, ways, n, mode, range, ops, writes, seed);
        let ctx = format!("{sets}x{ways} n={n} {mode:?} range={range} seed={seed:#x}");
        assert!(!report.timed_out, "{ctx}: timed out");
        for i in 0..n {
            let cs = report.stats.core(CoreId::new(i));
            assert_eq!(cs.ops_completed, ops as u64, "{ctx}: c{i} completion");
            // Every op was an L1 hit, an L2 hit, or an LLC transaction.
            assert_eq!(
                cs.l1_hits + cs.l2_hits + cs.llc_hits + cs.llc_fills,
                ops as u64,
                "{ctx}: c{i} op accounting"
            );
            // Latency accounting matches the number of LLC requests.
            assert_eq!(
                cs.requests,
                cs.llc_hits + cs.llc_fills,
                "{ctx}: c{i} requests"
            );
        }
    }
}

/// Same seed ⇒ byte-identical statistics: the simulator is fully
/// deterministic.
#[test]
fn simulation_is_deterministic() {
    for (_, _, n, mode, _, writes, seed) in sample_cases(12) {
        let a = run_shared(2, 2, n, mode, 4096, 120, writes, seed);
        let b = run_shared(2, 2, n, mode, 4096, 120, writes, seed);
        assert_eq!(a.stats, b.stats, "n={n} {mode:?} seed={seed:#x}");
        assert_eq!(a.cycles, b.cycles);
    }
}

/// DRAM conservation: every LLC fill is one DRAM read, and a write-free
/// workload produces no DRAM writes.
#[test]
fn dram_traffic_conservation() {
    for (_, _, n, _, _, writes, seed) in sample_cases(12) {
        let report = run_shared(2, 4, n, SharingMode::BestEffort, 8192, 200, writes, seed);
        let fills: u64 = (0..n)
            .map(|i| report.stats.core(CoreId::new(i)).llc_fills)
            .sum();
        assert_eq!(report.stats.dram_reads, fills, "n={n} seed={seed:#x}");
    }
    let read_only = run_shared(2, 4, 3, SharingMode::BestEffort, 8192, 200, 0.0, 7);
    assert_eq!(read_only.stats.dram_writes, 0);
}

/// A read-only workload never produces write-backs or DRAM writes, and
/// every eviction resolves within the triggering slot (entries freed by
/// the multi-slot protocol only exist for dirty lines).
#[test]
fn read_only_workloads_have_no_writeback_traffic() {
    for (_, _, n, _, _, _, seed) in sample_cases(12) {
        let report = run_shared(1, 2, n, SharingMode::BestEffort, 4096, 200, 0.0, seed);
        let ctx = format!("n={n} seed={seed:#x}");
        assert_eq!(report.stats.dram_writes, 0, "{ctx}");
        for i in 0..n {
            assert_eq!(
                report.stats.core(CoreId::new(i)).writebacks_sent,
                0,
                "{ctx}: c{i}"
            );
        }
        // All frees happened inline: the freed-lines counter only counts
        // multi-slot protocol completions plus instant frees; with no
        // dirty lines, evictions equal instant frees.
        assert_eq!(
            report.stats.lines_freed, report.stats.evictions_triggered,
            "{ctx}"
        );
    }
}

/// The sequencer can reorder *who* waits, but both sharing modes
/// complete the same workload with the same total LLC traffic profile
/// when there is no contention (disjoint sets).
#[test]
fn modes_agree_when_uncontended() {
    for (_, _, _, _, _, writes, seed) in sample_cases(8) {
        // 32-set partition, tiny ranges: every core misses into plenty
        // of free space, no set ever fills up.
        let a = run_shared(
            32,
            16,
            2,
            SharingMode::SetSequencer,
            1024,
            100,
            writes,
            seed,
        );
        let b = run_shared(32, 16, 2, SharingMode::BestEffort, 1024, 100, writes, seed);
        let ctx = format!("writes={writes} seed={seed:#x}");
        assert_eq!(a.stats.evictions_triggered, 0, "{ctx}");
        assert_eq!(b.stats.evictions_triggered, 0, "{ctx}");
        assert_eq!(a.execution_time(), b.execution_time(), "{ctx}");
    }
}

/// Private partitions are perfectly isolated: per-core statistics do not
/// depend on what the other cores run. One simulator instance serves all
/// the runs.
#[test]
fn private_partitions_isolate_latency() {
    let mut rng = Rng64::new(0x150_1A7E);
    let cfg = SystemConfig::private_partitions(4, 2, 2).unwrap();
    let sim = Simulator::new(cfg).unwrap();
    for _ in 0..8 {
        let seed = rng.next_u64();
        let other_ops = 1 + rng.below(400) as usize;
        let mine = UniformGen::new(2048, 100)
            .with_seed(seed)
            .core_trace(CoreId::new(0));
        let quiet = vec![];
        let noisy = UniformGen::new(2048, other_ops)
            .with_write_fraction(0.5)
            .with_seed(!seed)
            .core_trace(CoreId::new(1));
        let a = sim.run(vec![mine.clone(), quiet]).unwrap();
        let b = sim.run(vec![mine, noisy]).unwrap();
        // The neighbour's workload must not change core 0's cache
        // behaviour at all (bus slots are TDM-fixed; LLC is private).
        let sa = a.stats.core(CoreId::new(0));
        let sb = b.stats.core(CoreId::new(0));
        let ctx = format!("seed={seed:#x} other_ops={other_ops}");
        assert_eq!(sa.l1_hits, sb.l1_hits, "{ctx}");
        assert_eq!(sa.l2_hits, sb.l2_hits, "{ctx}");
        assert_eq!(sa.llc_hits, sb.llc_hits, "{ctx}");
        assert_eq!(sa.llc_fills, sb.llc_fills, "{ctx}");
        assert_eq!(sa.max_request_latency, sb.max_request_latency, "{ctx}");
        assert_eq!(sa.finished_at, sb.finished_at, "{ctx}");
    }
}

/// More than 64 cores: sharer bits are partition-local, so cores 64 and
/// up neither alias cores 0..7 nor overflow the sharer mask. Every core
/// thrashes a two-line partition (and, in the mixed layout, twelve cores
/// straddling core 64 share one), with dirty evictions throughout. A
/// debug build checks inclusion at the end of every run; both engines
/// must report the same run.
#[test]
fn more_than_64_cores_keep_inclusion_and_engines_agree() {
    const CORES: u16 = 72;
    let all_private: Vec<PartitionSpec> = CoreId::first(CORES)
        .map(|c| PartitionSpec::private(1, 2, c))
        .collect();
    let mut mixed: Vec<PartitionSpec> = CoreId::first(60)
        .map(|c| PartitionSpec::private(1, 2, c))
        .collect();
    mixed.push(PartitionSpec::shared(
        2,
        4,
        (60..CORES).map(CoreId::new).collect(),
        SharingMode::BestEffort,
    ));
    let workload = UniformGen::new(16 << 10, 400)
        .with_write_fraction(0.4)
        .with_seed(0x0072_C02E)
        .with_cores(CORES);
    for (layout, partitions) in [("private", all_private), ("mixed", mixed)] {
        let run = |mode| {
            let cfg = SystemConfig::builder(CORES)
                .partitions(partitions.clone())
                .engine(mode)
                .build()
                .expect("valid configuration");
            Simulator::new(cfg).unwrap().run(&workload).unwrap()
        };
        let reference = run(EngineMode::Reference);
        let fast = run(EngineMode::FastForward);
        assert!(!reference.timed_out, "{layout}");
        assert_eq!(reference.stats, fast.stats, "{layout}: engines diverged");
        assert_eq!(reference.cycles, fast.cycles, "{layout}");
        let high = reference.stats.core(CoreId::new(CORES - 1));
        assert_eq!(high.ops_completed, 400, "{layout}");
        // Core 71's own evictions invalidate its own copies: a wrapped
        // sharer bit would have sent them to core 7 instead.
        assert!(
            high.back_invalidations > 0,
            "{layout}: core 71 never evicted"
        );
        assert!(
            reference.stats.dram_writes > 0,
            "{layout}: partitions must thrash with dirty evictions"
        );
        if layout == "mixed" {
            let shared_invalidations: u64 = (60..CORES)
                .map(|i| reference.stats.core(CoreId::new(i)).back_invalidations)
                .sum();
            assert!(shared_invalidations > 0, "the shared partition must evict");
        }
    }
}
