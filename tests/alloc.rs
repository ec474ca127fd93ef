//! The LLC slot transaction allocates nothing: a counting global
//! allocator watches a miss-heavy shared-partition run — nearly every
//! op misses the private L2, misses the LLC and evicts, with dirty
//! remote copies owing acknowledgement write-backs — at `N` and at
//! `10N` operations per core, through both engines.
//!
//! Whatever a run allocates up front (cores, caches, streams) or while
//! its bounded structures reach their working size (histogram buckets,
//! per-set sequencer queues, write-back buffers) is the same at both
//! lengths. Only a per-request allocation would make the longer run
//! allocate more, by thousands.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use predllc::workload_gen::UniformGen;
use predllc::{CoreId, EngineMode, PartitionSpec, SharingMode, Simulator, SystemConfig};

/// Counts allocation calls (fresh, zeroed and resizing) made by the
/// current thread, so other test threads cannot perturb a measurement.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CORES: u16 = 4;

/// Allocations made by one run of `ops_per_core` operations per core
/// over `SS(32,16,4)` — the e2e benchmark's `ss-fixed` shape — plus the
/// run's LLC transaction count.
fn run_allocations(mode: EngineMode, ops_per_core: usize) -> (u64, u64) {
    let cfg = SystemConfig::builder(CORES)
        .partitions(vec![PartitionSpec::shared(
            32,
            16,
            CoreId::first(CORES).collect(),
            SharingMode::SetSequencer,
        )])
        .engine(mode)
        .build()
        .expect("valid configuration");
    let sim = Simulator::new(cfg).expect("valid configuration");
    // 128 KiB shared by all four cores: 4x the partition and 32x the
    // private L2, with writes so evicted copies are often dirty.
    let workload = UniformGen::new(128 << 10, ops_per_core)
        .with_write_fraction(0.3)
        .with_seed(0x5EED_A110C)
        .with_cores(CORES);
    let before = allocations();
    let report = sim.run(&workload).expect("run completes");
    let allocated = allocations() - before;
    assert!(!report.timed_out);
    let stats = &report.stats;
    let requests: u64 = (0..CORES)
        .map(|i| stats.core(CoreId::new(i)).requests)
        .sum();
    let back_invalidations: u64 = (0..CORES)
        .map(|i| stats.core(CoreId::new(i)).back_invalidations)
        .sum();
    let writebacks: u64 = (0..CORES)
        .map(|i| stats.core(CoreId::new(i)).writebacks_sent)
        .sum();
    assert!(
        requests * 10 >= 7 * ops_per_core as u64 * u64::from(CORES),
        "{mode:?}: only {requests} LLC requests — not a miss-heavy run"
    );
    assert!(
        stats.evictions_triggered * 2 >= requests && back_invalidations > 0 && writebacks > 0,
        "{mode:?}: the run must exercise evictions, back-invalidations and write-backs"
    );
    (allocated, requests)
}

#[test]
fn llc_miss_path_allocates_nothing_per_request() {
    const N: usize = 2_000;
    for mode in [EngineMode::Reference, EngineMode::FastForward] {
        let (short, short_requests) = run_allocations(mode, N);
        let (long, long_requests) = run_allocations(mode, 10 * N);
        let extra_requests = long_requests - short_requests;
        assert!(extra_requests > 50_000, "{mode:?}: {extra_requests}");
        // Room for structures still growing into their working size;
        // one allocation per request would be thousands over.
        assert!(
            long <= short + 32,
            "{mode:?}: {short} allocations at {N} ops/core but {long} at {} \
             ({extra_requests} more LLC requests)",
            10 * N
        );
    }
}
