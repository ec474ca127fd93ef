//! The set sequencer (§4.5): the micro-architectural extension that makes
//! partition sharing cheap.
//!
//! The sequencer consists of a *Queue Lookup Table* (QLT) with one entry
//! per set that has at least one pending LLC request, each pointing at a
//! FIFO queue in the *Sequencer* (SQ) holding the cores whose requests
//! target that set, in the order their requests were broadcast on the
//! shared bus. Only the head of a set's queue may claim a freed cache
//! line in that set; everyone else waits their turn.
//!
//! The WCL analysis shows why this helps: without ordering, a core with a
//! *smaller* slot distance can intercept the entry a write-back freed for
//! the core under analysis, increasing the distance of the lines in the
//! set (Observation 3) and making the WCL grow with the partition size.
//! With broadcast order enforced, an interception can never happen, and
//! the WCL collapses to `(2(n−1)·n + 1)·N·SW` (Theorem 4.8).
//!
//! The sequencer decides nothing until a queue holds two requests: only
//! [`SetSequencer::is_head`] steers the LLC, and it answers `false` only
//! for a core queued behind another. A run whose deepest queue
//! ([`SimStats::max_sequencer_depth`](crate::SimStats::max_sequencer_depth))
//! held one request therefore decided every slot as best effort would;
//! see [`SharingMode::SetSequencer`](crate::SharingMode::SetSequencer)
//! for the equality this gives.
//!
//! The QLT is a per-set array rather than a hash map: a set's queue keeps
//! its buffer after it drains, and a count of non-empty queues tracks the
//! live QLT entries, so the per-request path neither hashes nor
//! allocates once every set has queued once.

use std::collections::VecDeque;

use predllc_model::{CoreId, SetIdx};

/// A set sequencer for one LLC partition.
///
/// The QLT is indexed by set rather than hashed: each set owns a queue
/// slot, and a drained queue keeps its buffer, so steady-state
/// enqueue/pop/remove neither hashes nor allocates. A count of non-empty
/// queues stands in for the number of live QLT entries.
///
/// # Examples
///
/// ```
/// use predllc_core::SetSequencer;
/// use predllc_model::{CoreId, SetIdx};
///
/// let mut sq = SetSequencer::new();
/// let set = SetIdx(5);
/// sq.enqueue(set, CoreId::new(2)); // c2's request broadcast first
/// sq.enqueue(set, CoreId::new(3));
/// assert_eq!(sq.head(set), Some(CoreId::new(2)));
/// assert!(sq.is_head(set, CoreId::new(2)));
/// assert!(!sq.is_head(set, CoreId::new(3)));
/// sq.pop(set); // c2 claimed its line
/// assert_eq!(sq.head(set), Some(CoreId::new(3)));
/// ```
#[derive(Debug, Default, Clone)]
pub struct SetSequencer {
    /// QLT + SQ fused: `queues[set]` is the FIFO of requesting cores in
    /// broadcast order (grown on demand to the highest set seen).
    queues: Vec<VecDeque<CoreId>>,
    /// Number of non-empty queues — the live QLT entries.
    live: usize,
    /// High-water mark of simultaneously tracked sets (QLT pressure).
    max_tracked_sets: usize,
    /// High-water mark of any single queue's depth (SQ pressure).
    max_queue_depth: usize,
}

impl SetSequencer {
    /// Creates an empty sequencer.
    pub fn new() -> Self {
        SetSequencer::default()
    }

    fn queue(&self, set: SetIdx) -> Option<&VecDeque<CoreId>> {
        self.queues.get(set.as_usize())
    }

    /// Appends `core` to `set`'s queue (its request was just broadcast).
    ///
    /// Enqueueing the same core twice for the same set is a logic error in
    /// the caller (a core has at most one outstanding request).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `core` is already queued for `set`.
    pub fn enqueue(&mut self, set: SetIdx, core: CoreId) {
        let i = set.as_usize();
        if i >= self.queues.len() {
            self.queues.resize_with(i + 1, VecDeque::new);
        }
        let q = &mut self.queues[i];
        debug_assert!(
            !q.contains(&core),
            "{core} queued twice for {set}: one-outstanding-request violated"
        );
        if q.is_empty() {
            self.live += 1;
        }
        q.push_back(core);
        self.max_queue_depth = self.max_queue_depth.max(q.len());
        self.max_tracked_sets = self.max_tracked_sets.max(self.live);
    }

    /// The core at the head of `set`'s queue, if any request is pending.
    pub fn head(&self, set: SetIdx) -> Option<CoreId> {
        self.queue(set).and_then(|q| q.front().copied())
    }

    /// Whether `core` is at the head of `set`'s queue.
    pub fn is_head(&self, set: SetIdx, core: CoreId) -> bool {
        self.head(set) == Some(core)
    }

    /// Pops the head of `set`'s queue (it claimed a line). The QLT entry
    /// retires when the queue drains.
    pub fn pop(&mut self, set: SetIdx) -> Option<CoreId> {
        let q = self.queues.get_mut(set.as_usize())?;
        let head = q.pop_front()?;
        if q.is_empty() {
            self.live -= 1;
        }
        Some(head)
    }

    /// Removes `core` from `set`'s queue wherever it is (its request was
    /// satisfied without an allocation, e.g. it turned into a hit).
    ///
    /// Returns whether the core was queued.
    pub fn remove(&mut self, set: SetIdx, core: CoreId) -> bool {
        let Some(q) = self.queues.get_mut(set.as_usize()) else {
            return false;
        };
        let Some(pos) = q.iter().position(|&c| c == core) else {
            return false;
        };
        q.remove(pos);
        if q.is_empty() {
            self.live -= 1;
        }
        true
    }

    /// Whether `core` is queued for `set` at any position.
    pub fn contains(&self, set: SetIdx, core: CoreId) -> bool {
        self.queue(set).is_some_and(|q| q.contains(&core))
    }

    /// Number of requests queued for `set`.
    pub(crate) fn queue_len(&self, set: SetIdx) -> usize {
        self.queue(set).map_or(0, VecDeque::len)
    }

    /// The cores queued for `set`, head first (protocol checks).
    #[cfg(debug_assertions)]
    pub(crate) fn queued(&self, set: SetIdx) -> impl Iterator<Item = CoreId> + '_ {
        self.queue(set).into_iter().flatten().copied()
    }

    /// Number of sets currently tracked (live QLT entries).
    pub fn tracked_sets(&self) -> usize {
        self.live
    }

    /// High-water mark of simultaneously tracked sets — the QLT capacity
    /// a hardware implementation would need for this run.
    pub(crate) fn max_tracked_sets(&self) -> usize {
        self.max_tracked_sets
    }

    /// High-water mark of a single queue's depth — the SQ depth a
    /// hardware implementation would need. Bounded by the sharer count,
    /// because each core has at most one outstanding request.
    pub(crate) fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S3: SetIdx = SetIdx(3);
    const S5: SetIdx = SetIdx(5);

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn fifo_order_is_broadcast_order() {
        let mut sq = SetSequencer::new();
        sq.enqueue(S5, c(2));
        sq.enqueue(S5, c(3));
        sq.enqueue(S5, c(1));
        assert_eq!(sq.pop(S5), Some(c(2)));
        assert_eq!(sq.pop(S5), Some(c(3)));
        assert_eq!(sq.pop(S5), Some(c(1)));
        assert_eq!(sq.pop(S5), None);
    }

    #[test]
    fn paper_fig6_shape() {
        // Fig. 6: c1 pending on set 3; c2 then c3 pending on set 5.
        let mut sq = SetSequencer::new();
        sq.enqueue(S3, c(1));
        sq.enqueue(S5, c(2));
        sq.enqueue(S5, c(3));
        assert_eq!(sq.tracked_sets(), 2);
        assert_eq!(sq.head(S3), Some(c(1)));
        assert_eq!(sq.head(S5), Some(c(2)));
        assert!(!sq.is_head(S5, c(3)));
        assert_eq!(sq.queue_len(S5), 2);
    }

    #[test]
    fn queues_for_different_sets_are_independent() {
        let mut sq = SetSequencer::new();
        sq.enqueue(S3, c(0));
        sq.enqueue(S5, c(1));
        sq.pop(S3);
        assert_eq!(sq.head(S3), None);
        assert_eq!(sq.head(S5), Some(c(1)));
    }

    #[test]
    fn qlt_entry_removed_when_queue_drains() {
        let mut sq = SetSequencer::new();
        sq.enqueue(S3, c(0));
        assert_eq!(sq.tracked_sets(), 1);
        sq.pop(S3);
        assert_eq!(sq.tracked_sets(), 0);
    }

    #[test]
    fn remove_from_middle() {
        let mut sq = SetSequencer::new();
        sq.enqueue(S5, c(0));
        sq.enqueue(S5, c(1));
        sq.enqueue(S5, c(2));
        assert!(sq.remove(S5, c(1)));
        assert!(!sq.remove(S5, c(1)));
        assert_eq!(sq.pop(S5), Some(c(0)));
        assert_eq!(sq.pop(S5), Some(c(2)));
    }

    #[test]
    fn contains_reflects_membership() {
        let mut sq = SetSequencer::new();
        sq.enqueue(S5, c(0));
        assert!(sq.contains(S5, c(0)));
        assert!(!sq.contains(S5, c(1)));
        assert!(!sq.contains(S3, c(0)));
    }

    #[test]
    fn high_water_marks() {
        let mut sq = SetSequencer::new();
        sq.enqueue(S3, c(0));
        sq.enqueue(S5, c(1));
        sq.enqueue(S5, c(2));
        sq.pop(S3);
        sq.pop(S5);
        sq.pop(S5);
        assert_eq!(sq.max_tracked_sets(), 2);
        assert_eq!(sq.max_queue_depth(), 2);
        assert_eq!(sq.tracked_sets(), 0);
    }

    /// The `HashMap`-of-deques sequencer this module shipped before the
    /// QLT became a per-set array, kept verbatim as the oracle for
    /// [`set_indexed_queues_match_the_hash_map_reference`].
    mod reference {
        use std::collections::hash_map::Entry as MapEntry;
        use std::collections::{HashMap, VecDeque};

        use predllc_model::{CoreId, SetIdx};

        #[derive(Default)]
        pub(crate) struct HashSequencer {
            queues: HashMap<SetIdx, VecDeque<CoreId>>,
            max_tracked_sets: usize,
            max_queue_depth: usize,
        }

        impl HashSequencer {
            pub(crate) fn enqueue(&mut self, set: SetIdx, core: CoreId) {
                let q = self.queues.entry(set).or_default();
                q.push_back(core);
                self.max_queue_depth = self.max_queue_depth.max(q.len());
                self.max_tracked_sets = self.max_tracked_sets.max(self.queues.len());
            }

            pub(crate) fn head(&self, set: SetIdx) -> Option<CoreId> {
                self.queues.get(&set).and_then(|q| q.front().copied())
            }

            pub(crate) fn pop(&mut self, set: SetIdx) -> Option<CoreId> {
                match self.queues.entry(set) {
                    MapEntry::Occupied(mut o) => {
                        let head = o.get_mut().pop_front();
                        if o.get().is_empty() {
                            o.remove();
                        }
                        head
                    }
                    MapEntry::Vacant(_) => None,
                }
            }

            pub(crate) fn remove(&mut self, set: SetIdx, core: CoreId) -> bool {
                match self.queues.entry(set) {
                    MapEntry::Occupied(mut o) => {
                        let before = o.get().len();
                        o.get_mut().retain(|&c| c != core);
                        let removed = o.get().len() != before;
                        if o.get().is_empty() {
                            o.remove();
                        }
                        removed
                    }
                    MapEntry::Vacant(_) => false,
                }
            }

            pub(crate) fn contains(&self, set: SetIdx, core: CoreId) -> bool {
                self.queues.get(&set).is_some_and(|q| q.contains(&core))
            }

            pub(crate) fn queue_len(&self, set: SetIdx) -> usize {
                self.queues.get(&set).map_or(0, VecDeque::len)
            }

            pub(crate) fn tracked_sets(&self) -> usize {
                self.queues.len()
            }

            pub(crate) fn max_tracked_sets(&self) -> usize {
                self.max_tracked_sets
            }

            pub(crate) fn max_queue_depth(&self) -> usize {
                self.max_queue_depth
            }
        }
    }

    /// Random enqueue/pop/remove sequences through the set-indexed
    /// sequencer and the hash-map reference: every return value and every
    /// query — per-set heads, membership and lengths, live entries and
    /// both high-water marks — must agree after every step.
    #[test]
    fn set_indexed_queues_match_the_hash_map_reference() {
        const SETS: u32 = 7;
        const CORES: u16 = 9;
        for seed in 1..=8u64 {
            let mut sq = SetSequencer::new();
            let mut oracle = reference::HashSequencer::default();
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            for step in 0..4_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let set = SetIdx((x >> 8) as u32 % SETS);
                let core = c((x >> 24) as u16 % CORES);
                match x % 4 {
                    0 | 1 => {
                        if !oracle.contains(set, core) {
                            sq.enqueue(set, core);
                            oracle.enqueue(set, core);
                        }
                    }
                    2 => assert_eq!(sq.pop(set), oracle.pop(set), "seed {seed} step {step}"),
                    _ => assert_eq!(
                        sq.remove(set, core),
                        oracle.remove(set, core),
                        "seed {seed} step {step}"
                    ),
                }
                // One set past the highest ever enqueued: never tracked.
                for s in (0..=SETS).map(SetIdx) {
                    assert_eq!(sq.head(s), oracle.head(s), "seed {seed} step {step}");
                    assert_eq!(sq.queue_len(s), oracle.queue_len(s));
                    for k in (0..CORES).map(c) {
                        assert_eq!(sq.contains(s, k), oracle.contains(s, k));
                        assert_eq!(sq.is_head(s, k), oracle.head(s) == Some(k));
                    }
                }
                assert_eq!(
                    sq.tracked_sets(),
                    oracle.tracked_sets(),
                    "seed {seed} step {step}"
                );
                assert_eq!(sq.max_tracked_sets(), oracle.max_tracked_sets());
                assert_eq!(sq.max_queue_depth(), oracle.max_queue_depth());
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "queued twice")]
    fn double_enqueue_panics_in_debug() {
        let mut sq = SetSequencer::new();
        sq.enqueue(S5, c(0));
        sq.enqueue(S5, c(0));
    }
}
