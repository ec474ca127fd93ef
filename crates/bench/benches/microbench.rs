//! Self-contained microbenchmarks for the predllc components and the
//! end-to-end simulator (no external bench framework: the build runs in
//! network-isolated environments).
//!
//! Each benchmark runs a warm-up pass, then a measured batch, and prints
//! mean wall time per iteration. Groups:
//!
//! * `cache` — set-associative fill/lookup and replacement-policy victim
//!   selection;
//! * `sequencer` — QLT/SQ operations;
//! * `llc` — hit and fill service paths of the shared-LLC controller;
//! * `engine` — end-to-end runs for the three partitioning families,
//!   streamed vs. materialized workloads;
//! * `analysis` — the closed-form WCL evaluations.
//!
//! Usage: `cargo bench -p predllc-bench` (add `-- quick` for a fast
//! smoke pass, used by CI).

use std::hint::black_box;
use std::time::{Duration, Instant};

use predllc_cache::{ReplacementKind, SetAssocCache};
use predllc_core::analysis::WclParams;
use predllc_core::llc::SharedLlc;
use predllc_core::{
    PartitionMap, PartitionSpec, SetSequencer, SharingMode, Simulator, SystemConfig,
};
use predllc_dram::FixedLatency;
use predllc_model::{CacheGeometry, CoreId, Cycles, LineAddr, SetIdx, SlotWidth};
use predllc_workload::gen::UniformGen;
use predllc_workload::Workload;

/// Times `f` over `iters` iterations after `warmup` unmeasured ones and
/// prints ns/iteration. Every closure result is black-boxed so the work
/// cannot be optimized away.
fn bench<T>(name: &str, warmup: u32, iters: u32, mut f: impl FnMut() -> T) {
    for _ in 0..warmup {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let total = start.elapsed();
    let per = total / iters;
    println!(
        "{name:<44} {:>12}   ({iters} iters, total {:.3?})",
        format_per(per),
        total
    );
}

fn format_per(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 10_000_000 {
        format!("{:.2} ms/iter", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.2} µs/iter", ns as f64 / 1e3)
    } else {
        format!("{ns} ns/iter")
    }
}

fn bench_cache(scale: u32) {
    println!("-- cache --");
    bench("fill_lookup_paper_l2", 2, 200 * scale, || {
        let mut cache = SetAssocCache::<()>::new(CacheGeometry::PAPER_L2, ReplacementKind::Lru);
        for i in 0..256u64 {
            let line = LineAddr::new(i % 96);
            if cache.lookup(line).is_none() {
                cache.fill(line, i % 3 == 0, ());
            }
        }
        cache.occupancy()
    });
    for kind in [
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::RoundRobin,
        ReplacementKind::Random { seed: 1 },
    ] {
        let mut cache = SetAssocCache::<()>::new(CacheGeometry::PAPER_L3, kind);
        let sets = u64::from(CacheGeometry::PAPER_L3.sets());
        for w in 0..u64::from(CacheGeometry::PAPER_L3.ways()) {
            cache.fill(LineAddr::new(3 + w * sets), false, ());
        }
        bench(&format!("victim_{kind}"), 16, 4_000 * scale, || {
            cache.choose_victim(black_box(SetIdx(3)), |_| true)
        });
    }
}

fn bench_sequencer(scale: u32) {
    println!("-- sequencer --");
    bench("enqueue_pop_16_cores", 2, 400 * scale, || {
        let mut sq = SetSequencer::new();
        for s in 0..8u32 {
            for core in 0..16u16 {
                sq.enqueue(SetIdx(s), CoreId::new(core));
            }
        }
        for s in 0..8u32 {
            while sq.pop(SetIdx(s)).is_some() {}
        }
        sq.tracked_sets()
    });
}

fn bench_llc(scale: u32) {
    println!("-- llc --");
    let build = || {
        let map = PartitionMap::new(
            vec![PartitionSpec::shared(
                8,
                4,
                CoreId::first(4).collect(),
                SharingMode::SetSequencer,
            )],
            4,
            CacheGeometry::PAPER_L3,
        )
        .expect("valid");
        SharedLlc::new(
            map,
            64,
            ReplacementKind::Lru,
            Box::new(FixedLatency::default()),
        )
    };
    let mut llc = build();
    llc.service(
        CoreId::new(0),
        LineAddr::new(1),
        Cycles::ZERO,
        &mut |_, _| false,
    );
    bench("service_hit_path", 16, 20_000 * scale, || {
        llc.service(
            black_box(CoreId::new(1)),
            black_box(LineAddr::new(1)),
            Cycles::ZERO,
            &mut |_, _| false,
        )
    });
    bench("service_fill_evict_cycle", 2, 200 * scale, || {
        let mut llc = build();
        // Fill past capacity so every later service victimizes.
        for i in 0..64u64 {
            llc.service(
                CoreId::new((i % 4) as u16),
                LineAddr::new(i),
                Cycles::ZERO,
                &mut |_, _| false,
            );
        }
        llc.memory_stats().reads
    });
}

fn bench_engine(scale: u32) {
    println!("-- engine --");
    let cases = [
        (
            "ss_32x4x4",
            SystemConfig::shared_partition(32, 4, 4, SharingMode::SetSequencer),
        ),
        (
            "nss_32x4x4",
            SystemConfig::shared_partition(32, 4, 4, SharingMode::BestEffort),
        ),
        ("p_8x4_x4", SystemConfig::private_partitions(8, 4, 4)),
    ];
    let gen = UniformGen::new(8_192, 500)
        .with_write_fraction(0.2)
        .with_seed(1)
        .with_cores(4);
    for (name, cfg) in cases {
        let sim = Simulator::new(cfg.expect("valid")).expect("valid");
        // Streamed: the workload is generated on the fly each run.
        bench(&format!("{name}/streamed"), 1, 10 * scale, || {
            sim.run(&gen).expect("runs").execution_time()
        });
        // Materialized twin: same addresses, pre-collected traces.
        let traces = gen.materialize();
        bench(&format!("{name}/materialized"), 1, 10 * scale, || {
            sim.run(&traces).expect("runs").execution_time()
        });
    }
}

fn bench_analysis(scale: u32) {
    println!("-- analysis --");
    let params = WclParams {
        total_cores: 16,
        sharers: 16,
        ways: 16,
        partition_lines: 512,
        core_capacity_lines: 64,
        slot_width: SlotWidth::PAPER,
    };
    bench("wcl_theorem_4_7", 16, 100_000 * scale, || {
        black_box(params).wcl_one_slot_tdm_checked()
    });
    bench("wcl_theorem_4_8", 16, 100_000 * scale, || {
        black_box(params).wcl_set_sequencer()
    });
}

fn main() {
    // `cargo bench -- quick` (or `cargo test --benches`) runs a reduced
    // pass; CI uses it as a smoke test.
    let quick = std::env::args().any(|a| a == "quick" || a == "--quick");
    let scale = if quick { 1 } else { 10 };
    bench_cache(scale);
    bench_sequencer(scale);
    bench_llc(scale);
    bench_engine(scale);
    bench_analysis(scale);
}
