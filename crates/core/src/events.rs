//! The slot facts of a simulation, and an inspectable log of them.
//!
//! The engine emits every fact of a slot — a hit, a fill, a blocked
//! request, a write-back, an eviction — exactly once, as an
//! [`EventKind`]. The per-transaction counters of [`crate::SimStats`]
//! are folds over those events, and latency attribution reads the
//! `Blocked` ones, so the three cannot drift apart. Keeping the events
//! themselves in an [`EventLog`] is off by default; enable it through
//! [`crate::SystemConfigBuilder::record_events`]. The integration tests
//! replay the paper's worked examples (Figures 2–4) against these
//! events slot by slot.

use std::fmt;

use predllc_bus::WbKind;
use predllc_dram::RowOutcome;
use predllc_model::{BankId, CoreId, Cycles, LineAddr, PartitionId, SetIdx};

/// Why a pending request made no progress in its owner's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockReason {
    /// The set is full and an eviction this request triggered is still in
    /// flight.
    WaitingForEviction,
    /// The set is full and every line is already mid-eviction, so nothing
    /// could be victimized.
    AllWaysEvicting,
    /// The set sequencer has another core at the head of this set's
    /// queue.
    NotHead,
    /// The slot was spent transmitting a write-back instead.
    SlotUsedForWriteback,
}

impl fmt::Display for BlockReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockReason::WaitingForEviction => f.write_str("waiting for eviction"),
            BlockReason::AllWaysEvicting => f.write_str("all ways mid-eviction"),
            BlockReason::NotHead => f.write_str("not at sequencer head"),
            BlockReason::SlotUsedForWriteback => f.write_str("slot used for write-back"),
        }
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A core's request was transmitted on the bus for the first time.
    RequestBroadcast {
        /// The requesting core.
        core: CoreId,
        /// The requested line.
        line: LineAddr,
    },
    /// The LLC answered a request from its contents.
    Hit {
        /// The requesting core.
        core: CoreId,
        /// The hit line.
        line: LineAddr,
    },
    /// The LLC allocated a way, fetched from DRAM and answered.
    Fill {
        /// The requesting core.
        core: CoreId,
        /// The filled line.
        line: LineAddr,
    },
    /// A pending request triggered an LLC eviction.
    EvictionTriggered {
        /// The core whose request forced the eviction.
        by: CoreId,
        /// The victim line.
        victim: LineAddr,
        /// How many private sharers must acknowledge before the entry
        /// frees (zero means it freed immediately).
        sharers: u32,
    },
    /// A core was told to evict a line from its private caches.
    BackInvalidation {
        /// The core receiving the invalidation.
        core: CoreId,
        /// The line to evict.
        line: LineAddr,
    },
    /// A write-back (or invalidation ack) was transmitted on the bus.
    WritebackTransmitted {
        /// The transmitting core.
        core: CoreId,
        /// The line written back.
        line: LineAddr,
        /// Why the write-back existed.
        kind: WbKind,
    },
    /// An LLC entry finished its eviction protocol and became free.
    LineFreed {
        /// The line whose entry freed.
        line: LineAddr,
        /// The partition it belonged to.
        partition: PartitionId,
    },
    /// A pending request made no progress in its core's slot.
    Blocked {
        /// The stalled core.
        core: CoreId,
        /// Why it stalled.
        reason: BlockReason,
    },
    /// A core was appended to a set's sequencer queue.
    SequencerEnqueued {
        /// The queued core.
        core: CoreId,
        /// The contended (partition-local) set.
        set: SetIdx,
        /// Queue position (0 = head).
        position: usize,
    },
    /// A banked memory backend serviced an access. (The fixed-latency
    /// backend emits no per-access events, keeping its logs identical to
    /// the seed's.)
    DramAccess {
        /// The core whose bus transaction carried the access.
        core: CoreId,
        /// The line fetched or written back.
        line: LineAddr,
        /// The bank the access was routed to.
        bank: BankId,
        /// Row-buffer interaction.
        outcome: RowOutcome,
        /// Total access latency, including any bank-busy wait.
        latency: Cycles,
        /// Whether this was a write-back (`true`) or a fill (`false`).
        write: bool,
    },
}

/// One timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Cycle at which the event occurred (always a slot boundary).
    pub at: Cycles,
    /// Global slot index.
    pub slot: u64,
    /// What happened.
    pub kind: EventKind,
}

/// An append-only log of simulation events.
///
/// # Examples
///
/// ```
/// use predllc_core::{EventKind, EventLog};
/// use predllc_model::{CoreId, Cycles, LineAddr};
///
/// let mut log = EventLog::default();
/// log.push(Cycles::ZERO, 0, EventKind::Hit {
///     core: CoreId::new(0),
///     line: LineAddr::new(4),
/// });
/// assert_eq!(log.events().len(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Records an event.
    pub fn push(&mut self, at: Cycles, slot: u64, kind: EventKind) {
        self.events.push(Event { at, slot, kind });
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events matching a predicate on their kind.
    pub fn filter<'a, F>(&'a self, mut pred: F) -> impl Iterator<Item = &'a Event>
    where
        F: FnMut(&EventKind) -> bool + 'a,
    {
        self.events.iter().filter(move |e| pred(&e.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(core: u16, line: u64) -> EventKind {
        EventKind::Hit {
            core: CoreId::new(core),
            line: LineAddr::new(line),
        }
    }

    #[test]
    fn log_records_in_order() {
        let mut log = EventLog::default();
        log.push(Cycles::new(0), 0, hit(0, 1));
        log.push(Cycles::new(50), 1, hit(1, 2));
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[0].slot, 0);
        assert_eq!(log.events()[1].at, Cycles::new(50));
    }

    #[test]
    fn kind_filter_selects_matching_events() {
        let mut log = EventLog::default();
        log.push(Cycles::new(0), 0, hit(0, 1));
        log.push(Cycles::new(50), 1, hit(1, 2));
        log.push(
            Cycles::new(50),
            1,
            EventKind::Blocked {
                core: CoreId::new(0),
                reason: BlockReason::NotHead,
            },
        );
        assert_eq!(
            log.filter(|k| matches!(k, EventKind::Blocked { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn block_reason_display() {
        assert_eq!(BlockReason::NotHead.to_string(), "not at sequencer head");
        assert_eq!(
            BlockReason::SlotUsedForWriteback.to_string(),
            "slot used for write-back"
        );
    }
}
