//! Test-only workload shapes and the event-coverage tally shared by the
//! differential suites.

use std::cell::Cell;

use predllc::model::{Address, CoreId, MemOp};
use predllc::sim::events::BlockReason;
use predllc::workload::rng::Rng64;
use predllc::{EventKind, MultiCore, PartitionSpec, RunReport, SharingMode};

/// The coverage classes: each [`EventKind`], with `Blocked` split by its
/// [`BlockReason`]. Indexed like [`class`].
pub const CLASSES: [&str; 13] = [
    "RequestBroadcast",
    "Hit",
    "Fill",
    "EvictionTriggered",
    "BackInvalidation",
    "WritebackTransmitted",
    "LineFreed",
    "SequencerEnqueued",
    "DramAccess",
    "Blocked(WaitingForEviction)",
    "Blocked(AllWaysEvicting)",
    "Blocked(NotHead)",
    "Blocked(SlotUsedForWriteback)",
];

/// An event's index in [`CLASSES`]. No `_` arm: a new event kind or
/// block reason does not compile until it is given a class.
fn class(kind: &EventKind) -> usize {
    match kind {
        EventKind::RequestBroadcast { .. } => 0,
        EventKind::Hit { .. } => 1,
        EventKind::Fill { .. } => 2,
        EventKind::EvictionTriggered { .. } => 3,
        EventKind::BackInvalidation { .. } => 4,
        EventKind::WritebackTransmitted { .. } => 5,
        EventKind::LineFreed { .. } => 6,
        EventKind::SequencerEnqueued { .. } => 7,
        EventKind::DramAccess { .. } => 8,
        EventKind::Blocked { reason, .. } => match reason {
            BlockReason::WaitingForEviction => 9,
            BlockReason::AllWaysEvicting => 10,
            BlockReason::NotHead => 11,
            BlockReason::SlotUsedForWriteback => 12,
        },
    }
}

thread_local! {
    /// Per-class event counts of the recorded runs made on this thread,
    /// so tests running side by side never mix their tallies.
    pub static TALLY: Cell<[u64; CLASSES.len()]> = const { Cell::new([0; CLASSES.len()]) };
}

/// Adds a recorded run's events to this thread's [`TALLY`]. Each
/// scenario counts one log: a suite asserts its other logs equal to it.
pub fn tally(report: &RunReport) {
    let mut counts = TALLY.get();
    for event in report.events.events() {
        counts[class(&event.kind)] += 1;
    }
    TALLY.set(counts);
}

/// A small platform and workload whose cores contend for the same lines:
/// the case the set sequencer exists for, and the one where a line has
/// several private sharers to back-invalidate and drop.
pub struct SharedLines {
    /// Cores of the platform, all in `partition`.
    pub cores: u16,
    /// One shared SS or NSS partition of 1–2 sets × 2 ways.
    pub partition: PartitionSpec,
    /// Per core, 4–12 ops drawn from one pool of 3–6 lines; a third of
    /// them are writes.
    pub workload: MultiCore,
}

/// Draws one [`SharedLines`] case from `rng`.
pub fn shared_lines(rng: &mut Rng64) -> SharedLines {
    let cores = 2 + rng.below(3) as u16;
    let mode = if rng.below(2) == 0 {
        SharingMode::SetSequencer
    } else {
        SharingMode::BestEffort
    };
    let sets = 1 + rng.below(2) as u32;
    let mut pool: Vec<u64> = Vec::new();
    let size = 3 + rng.below(4) as usize;
    while pool.len() < size {
        let line = rng.below(16);
        if !pool.contains(&line) {
            pool.push(line);
        }
    }
    let mut workload = MultiCore::new();
    for _ in 0..cores {
        let ops = 4 + rng.below(9);
        let trace: Vec<MemOp> = (0..ops)
            .map(|_| {
                let addr = Address::new(pool[rng.below(pool.len() as u64) as usize] * 64);
                if rng.below(3) == 0 {
                    MemOp::write(addr)
                } else {
                    MemOp::read(addr)
                }
            })
            .collect();
        workload = workload.core(vec![trace]);
    }
    SharedLines {
        cores,
        partition: PartitionSpec::shared(sets, 2, CoreId::first(cores).collect(), mode),
        workload,
    }
}
