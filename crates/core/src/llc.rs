//! The shared, inclusive, partitioned last-level cache controller.
//!
//! This is where the paper's mechanism lives. The controller serves one
//! bus transaction per TDM slot and implements:
//!
//! * **hits** — answered within the requester's slot; the requester is
//!   recorded as a private sharer of the line (inclusion tracking);
//! * **fills** — a miss with a free way in the partition's set allocates,
//!   fetches from DRAM and answers within the slot;
//! * **the eviction protocol** — a miss into a full set *triggers* an
//!   eviction: the victim entry transitions to `Evicting`, every private
//!   sharer receives a back-invalidation and must acknowledge with a
//!   write-back in one of its own slots (the `Evict l → WB l` pattern of
//!   Figures 2–4); the entry frees when the last sharer acknowledges.
//!   A victim with no private sharers frees — and is re-allocated —
//!   immediately;
//! * **sequencer gating** — in [`SharingMode::SetSequencer`] partitions,
//!   pending requests are queued per set in bus broadcast order and only
//!   the head may claim a free way or trigger an eviction (§4.5). In
//!   [`SharingMode::BestEffort`] (`NSS`) the first core whose slot comes
//!   up wins, which is exactly the interception that Observation 3 shows
//!   makes distances grow.
//!
//! Each pending request carries an *eviction credit*: it may have at most
//! one eviction in flight, and the credit is returned when the line it
//! victimized frees (even if another core then steals the entry, as in
//! Fig. 3 slot 4). This reproduces the paper's per-request eviction
//! triggering: Fig. 4 has two evictions in flight in one set, one per
//! pending request.
//!
//! Representation invariants:
//!
//! * a line's sharer bits are **partition-local**: bit `i` is the `i`-th
//!   member of the line's partition in ascending core order, so a
//!   partition of at most [`MAX_PARTITION_CORES`] members tracks its
//!   sharers in one word whatever the system's core count (and
//!   iterating the bits visits sharers in ascending core order);
//! * a slot transaction allocates nothing: [`ServiceResult`] carries its
//!   invalidations and acknowledgements as [`SharerSet`]s, the victim is
//!   chosen by an eligibility test instead of a mask, and the set's
//!   per-set occupied count (kept by [`SetAssocCache`]) answers "is
//!   there a free way?" for a full set without a scan;
//! * each partition counts its `Evicting` entries per set, in lockstep
//!   with the entries' states: a full set whose count is 0 takes its
//!   victim from the replacement state alone
//!   ([`SetAssocCache::choose_victim_any`]), and the probe compares the
//!   count with the associativity instead of scanning for a valid way;
//! * a line in `Evicting` owes at least one acknowledgement (it frees
//!   with the last), and every eviction credit names a line with a copy
//!   in `Evicting`, with no more credits naming a line than it has such
//!   copies (a request for a line mid-eviction can allocate a second
//!   copy of it in a free way of the same set);
//! * a line has a second copy in its set only while a copy is in
//!   `Evicting`; a response reports the way it answered from
//!   ([`ServiceResult::way`]), the requester's private L2 copy keeps it
//!   as its tag and hands it back when dropped clean, and
//!   `SharedLlc::note_clean_drop` reads that way instead of scanning
//!   the set when the set has no line mid-eviction.
//!
//! Debug builds check these invariants on the set each slot touched
//! (`SharedLlc::check`).

use predllc_bus::WbKind;
use predllc_cache::{ReplacementKind, SetAssocCache};
use predllc_dram::{MemAccess, MemRequest, MemStats, MemoryBackend};
use predllc_model::{CoreId, Cycles, LineAddr, SetIdx, WayIdx};

use crate::events::BlockReason;
use crate::partition::{PartitionMap, SharingMode, MAX_PARTITION_CORES};
use crate::sequencer::SetSequencer;

/// A set of partition members, as a bitmask over *partition-local*
/// member indices: bit `i` stands for the `i`-th member of the partition
/// in ascending core order (see `SharedLlc::partition_members`). A
/// partition has at most [`MAX_PARTITION_CORES`] members, so the mask is
/// one word whatever the system's core count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SharerSet(u64);

impl SharerSet {
    /// The empty set.
    pub(crate) const EMPTY: SharerSet = SharerSet(0);

    /// The mask bit of member index `member`.
    ///
    /// # Panics
    ///
    /// Panics if `member` is not below [`MAX_PARTITION_CORES`] — never
    /// for an index of a validated [`PartitionMap`].
    #[inline]
    fn bit(member: usize) -> u64 {
        assert!(
            member < MAX_PARTITION_CORES,
            "sharer index {member} outside a {MAX_PARTITION_CORES}-member partition"
        );
        1 << member
    }

    /// Inserts a member.
    #[inline]
    pub(crate) fn insert(&mut self, member: usize) {
        self.0 |= Self::bit(member);
    }

    /// Removes a member; returns whether it was present.
    #[inline]
    pub(crate) fn remove(&mut self, member: usize) -> bool {
        let bit = Self::bit(member);
        let was = self.0 & bit != 0;
        self.0 &= !bit;
        was
    }

    /// Whether a member is present.
    #[inline]
    pub(crate) fn contains(&self, member: usize) -> bool {
        self.0 & Self::bit(member) != 0
    }

    /// Whether the set is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of members in the set.
    pub(crate) fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// Iterates over the member indices in ascending order (ascending
    /// core order), visiting only the set bits.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(i)
        })
    }
}

impl FromIterator<usize> for SharerSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = SharerSet::EMPTY;
        for m in iter {
            s.insert(m);
        }
        s
    }
}

/// Lifecycle of one LLC entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineState {
    /// Normal valid line.
    Valid,
    /// Eviction in progress: the entry is reserved-dead, waiting for the
    /// remaining sharers' write-back acknowledgements before it frees.
    Evicting,
}

/// Per-line LLC metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LlcMeta {
    /// While `Valid`: the partition members believed to cache the line
    /// privately. While `Evicting`: the members whose acknowledgements
    /// are still owed.
    pub(crate) sharers: SharerSet,
    /// Lifecycle state.
    pub(crate) state: LineState,
}

/// One pending (unanswered) LLC request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingReq {
    line: LineAddr,
    /// The victim line this request has an eviction in flight for.
    triggered_victim: Option<LineAddr>,
}

/// How the LLC answered a serviced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResponseKind {
    /// Answered from LLC contents.
    Hit,
    /// Answered after allocating a way and fetching from DRAM.
    Fill,
}

/// What happened when the LLC serviced a request in its owner's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ServiceOutcome {
    /// The LLC responds within this slot.
    Responded(ResponseKind),
    /// No response this slot.
    Blocked(BlockReason),
}

/// Details of an eviction triggered during service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EvictionInfo {
    /// The victimized line.
    pub(crate) victim: LineAddr,
    /// Private sharers that must acknowledge (0 = freed immediately).
    pub(crate) sharers: u32,
}

/// One memory-backend access performed during an LLC operation, for
/// event logging and per-access latency checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemTraffic {
    /// The line fetched or written back.
    pub(crate) line: LineAddr,
    /// Whether this was a write-back (`true`) or a fill (`false`).
    pub(crate) write: bool,
    /// The backend's answer: latency, bank, row outcome.
    pub(crate) access: MemAccess,
}

/// Full result of [`SharedLlc::service`].
///
/// Eviction semantics: when a victim is chosen, every private sharer's
/// copy is invalidated immediately (via the service callback). Sharers
/// whose copy was **clean** are done — clean data needs no transfer, so
/// their invalidation costs no bus slot. Sharers whose copy was **dirty**
/// owe a data-carrying write-back in one of their own slots (the
/// `Evict l → WB l` pattern of Figs. 2–4); the entry frees when the last
/// of those retires. A dirty copy held by the *requester itself*
/// transfers inline — the requester owns the bus this slot.
///
/// The result holds no heap data: both sharer lists are
/// [`SharerSet`]s over the requester's partition (map them to cores with
/// `SharedLlc::partition_members`), and the victim line is in
/// `eviction`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ServiceResult {
    /// The response/blocking outcome.
    pub(crate) outcome: ServiceOutcome,
    /// The way of `set` holding the answered line, when `outcome` is
    /// `Responded` (`WayIdx(0)` otherwise).
    pub(crate) way: WayIdx,
    /// Private copies of the victim invalidated during this slot (all of
    /// its sharers, for events/stats). Non-empty only with `eviction`.
    pub(crate) invalidations: SharerSet,
    /// The subset of invalidated sharers whose copy was dirty and who
    /// must therefore transmit an acknowledgement write-back; the engine
    /// queues one data-carrying write-back of the victim per member.
    pub(crate) ack_required: SharerSet,
    /// Eviction triggered during this service, if any.
    pub(crate) eviction: Option<EvictionInfo>,
    /// If the request was newly enqueued in the set sequencer, its queue
    /// position (0 = head).
    pub(crate) sequencer_position: Option<usize>,
    /// The partition-local set the request maps to.
    pub(crate) set: SetIdx,
    /// Memory-backend accesses performed in this slot, in order — at
    /// most two (a dirty-victim write-back plus the fill re-using the
    /// freed entry), held inline to keep the miss path allocation-free.
    pub(crate) mem_traffic: [Option<MemTraffic>; 2],
}

impl ServiceResult {
    /// A result with `outcome` and nothing else happened.
    fn new(set: SetIdx, outcome: ServiceOutcome) -> Self {
        ServiceResult {
            outcome,
            way: WayIdx(0),
            invalidations: SharerSet::EMPTY,
            ack_required: SharerSet::EMPTY,
            eviction: None,
            sequencer_position: None,
            set,
            mem_traffic: [None, None],
        }
    }
}

/// What a pending request could do with its next slot — a pure probe the
/// bus arbiter consults so a slot is never wasted retrying a request that
/// cannot move (e.g. while the acknowledgement it waits for sits in the
/// same core's PWB, which would otherwise livelock a request-first
/// arbiter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The request would be answered (hit, or allocation possible).
    WouldRespond,
    /// The request would trigger an eviction (progress, not a response).
    WouldTrigger,
    /// Nothing would happen: the slot is better spent on a write-back.
    Stuck,
}

/// Result of [`SharedLlc::writeback`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WritebackResult {
    /// The line whose entry completed eviction and freed, if any.
    pub(crate) freed: Option<LineAddr>,
    /// The memory-backend access this write-back caused, if the data
    /// went to DRAM.
    pub(crate) mem_traffic: Option<MemTraffic>,
}

/// Per-partition controller state.
#[derive(Debug)]
struct PartitionState {
    mode: SharingMode,
    shared: bool,
    /// The member cores in ascending order: sharer bit `i` is
    /// `members[i]`.
    members: Vec<CoreId>,
    cache: SetAssocCache<LlcMeta>,
    /// `evicting[set]`: the set's entries in `LineState::Evicting`.
    evicting: Vec<u32>,
    sequencer: SetSequencer,
    /// `pending[i]`: member `i`'s pending request (a core has at most
    /// one outstanding).
    pending: Vec<Option<PendingReq>>,
}

impl PartitionState {
    fn pending_of(&self, member: usize) -> Option<&PendingReq> {
        self.pending[member].as_ref()
    }

    /// Returns the eviction credit of every request that victimized
    /// `line` (its eviction completed; it may trigger again).
    fn return_credits(&mut self, line: LineAddr) {
        for p in self.pending.iter_mut().flatten() {
            if p.triggered_victim == Some(line) {
                p.triggered_victim = None;
            }
        }
    }

    fn uses_sequencer(&self) -> bool {
        self.shared && self.mode == SharingMode::SetSequencer
    }
}

/// The memory backends behind the LLC: the primary, whose answers the
/// run reports, and any twins, which see every access the primary sees.
/// A backend's answer never steers the run (see [`MemoryBackend`]), so
/// each twin ends with the counters a run of its own would have.
#[derive(Debug)]
struct Memory {
    primary: Box<dyn MemoryBackend>,
    twins: Vec<Box<dyn MemoryBackend>>,
}

impl Memory {
    /// Performs `req` on every backend and returns the primary's answer;
    /// a twin's answer reaches nothing but its own counters.
    #[inline]
    fn access(&mut self, req: MemRequest) -> MemAccess {
        if !self.twins.is_empty() {
            self.drive_twins(req);
        }
        self.primary.access(req)
    }

    /// Out of line, so a run without twins pays one untaken branch per
    /// access (an inline loop measured ~1% slower on the paper grid).
    #[cold]
    #[inline(never)]
    fn drive_twins(&mut self, req: MemRequest) {
        for twin in &mut self.twins {
            twin.access(req);
        }
    }
}

/// The shared LLC: one controller over all partitions, plus the memory
/// backend behind it.
///
/// All methods are called by the simulation engine at slot boundaries;
/// the controller performs no timing itself (the engine owns the clock
/// and hands each operation its slot-start timestamp, which the backend
/// uses to drive its per-bank state machines).
#[derive(Debug)]
pub(crate) struct SharedLlc {
    partitions: Vec<PartitionState>,
    /// `core index → member index` within the core's partition.
    member_of: Vec<u8>,
    map: PartitionMap,
    memory: Memory,
}

impl SharedLlc {
    /// Builds the controller for a partition map.
    ///
    /// # Panics
    ///
    /// Panics if a partition's geometry is invalid — impossible for a
    /// [`PartitionMap`] that passed validation.
    pub(crate) fn new(
        map: PartitionMap,
        line_size: u32,
        replacement: ReplacementKind,
        memory: Box<dyn MemoryBackend>,
    ) -> Self {
        let mut member_of = vec![0u8; usize::from(map.num_cores())];
        let partitions = map
            .partitions()
            .iter()
            .map(|spec| {
                let geometry = spec
                    .geometry(line_size)
                    .expect("validated partition has a valid geometry");
                let mut members = spec.cores.clone();
                members.sort_unstable();
                for (i, core) in members.iter().enumerate() {
                    member_of[core.as_usize()] =
                        u8::try_from(i).expect("validated partitions have at most 64 members");
                }
                PartitionState {
                    mode: spec.mode,
                    shared: !spec.is_private(),
                    pending: vec![None; members.len()],
                    members,
                    cache: SetAssocCache::new(geometry, replacement),
                    evicting: vec![0; geometry.sets() as usize],
                    sequencer: SetSequencer::new(),
                }
            })
            .collect();
        SharedLlc {
            partitions,
            member_of,
            map,
            memory: Memory {
                primary: memory,
                twins: Vec::new(),
            },
        }
    }

    /// Drives `twins` beside the backend the controller was built with:
    /// each twin sees every memory access, and nothing reads its answers.
    pub(crate) fn with_twins(mut self, twins: Vec<Box<dyn MemoryBackend>>) -> Self {
        self.memory.twins = twins;
        self
    }

    /// The twin backends, in the order [`SharedLlc::with_twins`] took them.
    pub(crate) fn twins(&self) -> &[Box<dyn MemoryBackend>] {
        &self.memory.twins
    }

    /// `core`'s member index within its partition (its sharer bit).
    #[inline]
    fn member(&self, core: CoreId) -> usize {
        usize::from(self.member_of[core.as_usize()])
    }

    /// The members of `core`'s partition in ascending core order: bit `i`
    /// of the partition's [`SharerSet`]s (such as
    /// [`ServiceResult::invalidations`]) stands for `members[i]`.
    pub(crate) fn partition_members(&self, core: CoreId) -> &[CoreId] {
        &self.partitions[self.map.partition_of(core).as_usize()].members
    }

    /// The partition map this controller was built from.
    pub(crate) fn partition_map(&self) -> &PartitionMap {
        &self.map
    }

    /// Counters of the memory backend behind the LLC.
    pub(crate) fn memory_stats(&self) -> &MemStats {
        self.memory.primary.mem_stats()
    }

    /// The backend's analytical worst-case access latency.
    pub(crate) fn memory_worst_case(&self) -> Cycles {
        self.memory.primary.worst_case_latency()
    }

    /// Sequencer high-water marks across partitions: `(max tracked sets,
    /// max queue depth)`.
    pub(crate) fn sequencer_pressure(&self) -> (usize, usize) {
        self.partitions
            .iter()
            .map(|p| {
                (
                    p.sequencer.max_tracked_sets(),
                    p.sequencer.max_queue_depth(),
                )
            })
            .fold((0, 0), |(s, d), (ps, pd)| (s.max(ps), d.max(pd)))
    }

    /// Whether `line` is present and valid in `core`'s partition, with
    /// `core` recorded as a sharer (test/invariant helper).
    pub(crate) fn is_valid_sharer(&self, core: CoreId, line: LineAddr) -> bool {
        let p = &self.partitions[self.map.partition_of(core).as_usize()];
        let me = self.member(core);
        p.cache
            .peek(line)
            .is_some_and(|e| e.meta.state == LineState::Valid && e.meta.sharers.contains(me))
    }

    /// The state of `line` in `core`'s partition, if present (test
    /// helper).
    #[cfg(test)]
    fn line_state(&self, core: CoreId, line: LineAddr) -> Option<(LineState, u32)> {
        self.partitions[self.map.partition_of(core).as_usize()]
            .cache
            .peek(line)
            .map(|e| (e.meta.state, e.meta.sharers.count()))
    }

    /// Occupancy of `core`'s partition (test helper).
    #[cfg(test)]
    fn partition_occupancy(&self, core: CoreId) -> usize {
        self.partitions[self.map.partition_of(core).as_usize()]
            .cache
            .occupancy()
    }

    /// Pure dry-run of [`SharedLlc::service`]: what would `core`'s
    /// pending request accomplish in a slot right now?
    ///
    /// Used by the engine's grant logic; never mutates state and assumes
    /// the request has already been broadcast (a first broadcast is
    /// always progress regardless of this probe).
    pub(crate) fn probe(&self, core: CoreId, line: LineAddr) -> Probe {
        let pid = self.map.partition_of(core);
        let p = &self.partitions[pid.as_usize()];
        let set = p.cache.set_of(line);
        if let Some(e) = p.cache.peek(line) {
            if e.meta.state == LineState::Valid {
                return Probe::WouldRespond;
            }
        }
        let is_head = !p.uses_sequencer()
            || !p.sequencer.contains(set, core)
            || p.sequencer.is_head(set, core);
        let free_way = p.cache.free_way_in(set).is_some();
        if is_head && free_way {
            return Probe::WouldRespond;
        }
        if free_way
            || p.pending_of(self.member(core))
                .is_some_and(|r| r.triggered_victim.is_some())
        {
            return Probe::Stuck;
        }
        // The set is full: a valid victim exists unless every way is
        // mid-eviction.
        if p.evicting[set.as_usize()] < p.cache.geometry().ways() {
            Probe::WouldTrigger
        } else {
            Probe::Stuck
        }
    }

    /// The backends' residual busyness horizon (see
    /// [`MemoryBackend::next_busy_until`]): the latest cycle any DRAM
    /// bank of the backend or of a twin is still busy from past
    /// accesses. The fast-forward engine asserts idle-slot jumps never
    /// land in front of it.
    pub(crate) fn memory_next_busy_until(&self) -> Cycles {
        self.memory
            .twins
            .iter()
            .map(|t| t.next_busy_until())
            .fold(self.memory.primary.next_busy_until(), Cycles::max)
    }

    /// The rows currently open across the backend's DRAM banks (empty
    /// for flat backends). A read-only snapshot for diagnostics — the
    /// WCL witness records it as the bank state a worst-case request
    /// ran into.
    pub(crate) fn open_rows(&self) -> Vec<(predllc_model::BankId, u64)> {
        self.memory.primary.open_rows()
    }

    /// Services `core`'s pending request for `line` within `core`'s
    /// slot, which starts at cycle `now`.
    ///
    /// Called by the engine when the arbiter grants the bus to the PRB.
    /// The same call covers the first broadcast and every subsequent
    /// retry; the controller tracks pending state internally. `now` is
    /// forwarded to the memory backend, whose banked implementations use
    /// it to track per-bank readiness.
    ///
    /// `evict` is invoked once per private sharer of a chosen victim: it
    /// must purge the line from that core's private hierarchy and return
    /// whether the purged copy was dirty. Dirty remote copies then owe an
    /// acknowledgement write-back slot; clean copies and the requester's
    /// own copy complete within this slot (the latter because the
    /// requester owns the bus — this is what gives private partitions
    /// their `(2N+1)·SW` bound).
    ///
    /// The hit case — the most common slot of all — is small enough to
    /// inline into the caller; every other case continues out of line.
    #[inline]
    pub(crate) fn service(
        &mut self,
        core: CoreId,
        line: LineAddr,
        now: Cycles,
        evict: &mut dyn FnMut(CoreId, LineAddr) -> bool,
    ) -> ServiceResult {
        let pid = self.map.partition_of(core);
        let me = self.member(core);
        let p = &mut self.partitions[pid.as_usize()];
        let set = p.cache.set_of(line);

        // 1. Hit on a valid line: respond regardless of sequencer state —
        //    the sequencer orders *allocations*, not reads of resident
        //    lines.
        if let Some(way) = p.cache.way_of(line) {
            let entry = p.cache.entry_mut(set, way).expect("way_of found it");
            if entry.meta.state == LineState::Valid {
                entry.meta.sharers.insert(me);
                p.cache.touch(set, way);
                p.pending[me] = None;
                if p.uses_sequencer() {
                    p.sequencer.remove(set, core);
                }
                return ServiceResult {
                    way,
                    ..ServiceResult::new(set, ServiceOutcome::Responded(ResponseKind::Hit))
                };
            }
            // Mid-eviction lines are not hits; fall through to the
            // pending path and wait for the entry to free.
        }
        self.service_miss(core, line, set, now, evict)
    }

    /// [`SharedLlc::service`] for a request that is not a hit on a valid
    /// line: registration, sequencing, allocation and eviction.
    fn service_miss(
        &mut self,
        core: CoreId,
        line: LineAddr,
        set: SetIdx,
        now: Cycles,
        evict: &mut dyn FnMut(CoreId, LineAddr) -> bool,
    ) -> ServiceResult {
        let pid = self.map.partition_of(core);
        let me = self.member(core);
        let p = &mut self.partitions[pid.as_usize()];
        let mut result = ServiceResult::new(
            set,
            ServiceOutcome::Blocked(BlockReason::WaitingForEviction),
        );

        // 2. Register the request (idempotent).
        let pending = p.pending[me].get_or_insert(PendingReq {
            line,
            triggered_victim: None,
        });
        let holds_credit = pending.triggered_victim.is_some();

        // 3. Sequencer: enqueue in broadcast order. The queue orders
        //    *occupation* of cache line entries (only the head may claim
        //    a free way, §4.5); eviction triggering stays concurrent, as
        //    under best effort — serializing it would only inflate
        //    latencies without strengthening the Theorem 4.8 bound.
        if p.uses_sequencer() && !p.sequencer.contains(set, core) {
            let position = p.sequencer.queue_len(set);
            p.sequencer.enqueue(set, core);
            result.sequencer_position = Some(position);
        }
        let is_head = !p.uses_sequencer() || p.sequencer.is_head(set, core);
        let blocked_reason = if is_head {
            BlockReason::WaitingForEviction
        } else {
            BlockReason::NotHead
        };

        // 4. Free way + at the head of the queue: allocate, fetch,
        //    respond within the slot. (A full set answers from its
        //    occupied count, without a scan.)
        let free_way = p.cache.free_way_in(set);
        if let (true, Some(way)) = (is_head, free_way) {
            let traffic = Self::allocate(p, &mut self.memory, core, me, line, way, now);
            result.mem_traffic[0] = Some(traffic);
            result.outcome = ServiceOutcome::Responded(ResponseKind::Fill);
            result.way = way;
            return result;
        }

        // 5. Full set: trigger an eviction if this request holds no
        //    in-flight eviction credit (any queue position may trigger).
        if free_way.is_some() || holds_credit {
            result.outcome = ServiceOutcome::Blocked(blocked_reason);
            return result;
        }
        // With no line of the set mid-eviction, every way is eligible.
        let victim = if p.evicting[set.as_usize()] == 0 {
            p.cache.choose_victim_any(set)
        } else {
            p.cache
                .choose_victim(set, |e| e.meta.state == LineState::Valid)
        };
        let Some(victim_way) = victim else {
            result.outcome = ServiceOutcome::Blocked(if is_head {
                BlockReason::AllWaysEvicting
            } else {
                BlockReason::NotHead
            });
            return result;
        };
        let victim_entry = p
            .cache
            .entry(set, victim_way)
            .expect("eligible way occupied");
        let victim_line = victim_entry.line;
        let victim_sharers = victim_entry.meta.sharers;
        if let Some(r) = &mut p.pending[me] {
            r.triggered_victim = Some(victim_line);
        }
        result.eviction = Some(EvictionInfo {
            victim: victim_line,
            sharers: victim_sharers.count(),
        });

        // Invalidate every private copy now. Clean copies are done (no
        // data to transfer); dirty remote copies owe a write-back slot;
        // a dirty copy of the requester itself transfers inline.
        let mut waiting = SharerSet::EMPTY;
        let mut inline_dirty = false;
        for member in victim_sharers.iter() {
            if evict(p.members[member], victim_line) {
                if member == me {
                    inline_dirty = true;
                } else {
                    waiting.insert(member);
                }
            }
        }
        result.invalidations = victim_sharers;
        result.ack_required = waiting;

        if waiting.is_empty() {
            // No data-carrying acknowledgements owed: the entry frees in
            // this slot.
            let evicted = p.cache.take(set, victim_way).expect("victim occupied");
            let mut accesses = 0;
            if evicted.dirty || inline_dirty {
                let access = self
                    .memory
                    .access(MemRequest::write_back(victim_line, core, now));
                result.mem_traffic[0] = Some(MemTraffic {
                    line: victim_line,
                    write: true,
                    access,
                });
                accesses = 1;
            }
            p.return_credits(victim_line);
            if is_head {
                // …and the head re-uses it immediately.
                let traffic = Self::allocate(p, &mut self.memory, core, me, line, victim_way, now);
                result.mem_traffic[accesses] = Some(traffic);
                result.outcome = ServiceOutcome::Responded(ResponseKind::Fill);
                result.way = victim_way;
            } else {
                // The freed entry waits for the queue head.
                result.outcome = ServiceOutcome::Blocked(BlockReason::NotHead);
            }
        } else {
            // Start the multi-slot eviction protocol for the dirty
            // remote copies.
            let entry = p.cache.entry_mut(set, victim_way).expect("victim occupied");
            entry.dirty |= inline_dirty;
            entry.meta.sharers = waiting;
            entry.meta.state = LineState::Evicting;
            p.evicting[set.as_usize()] += 1;
            result.outcome = ServiceOutcome::Blocked(blocked_reason);
        }
        result
    }

    /// Processes a write-back (capacity eviction or back-invalidation
    /// acknowledgement) transmitted by `core` in its slot starting at
    /// cycle `now`.
    pub(crate) fn writeback(
        &mut self,
        core: CoreId,
        line: LineAddr,
        dirty: bool,
        kind: WbKind,
        now: Cycles,
    ) -> WritebackResult {
        let pid = self.map.partition_of(core);
        let me = self.member(core);
        let p = &mut self.partitions[pid.as_usize()];
        let set = p.cache.set_of(line);
        let Some(way) = p.cache.way_of(line) else {
            // The entry is gone (already freed). Dirty data still goes to
            // memory.
            let mem_traffic = dirty.then(|| MemTraffic {
                line,
                write: true,
                access: self.memory.access(MemRequest::write_back(line, core, now)),
            });
            return WritebackResult {
                freed: None,
                mem_traffic,
            };
        };
        let entry = p.cache.entry_mut(set, way).expect("way_of found it");
        match entry.meta.state {
            LineState::Evicting => {
                entry.meta.sharers.remove(me);
                entry.dirty |= dirty;
                if entry.meta.sharers.is_empty() {
                    let evicted = p.cache.take(set, way).expect("entry exists");
                    p.evicting[set.as_usize()] -= 1;
                    let mem_traffic = evicted.dirty.then(|| MemTraffic {
                        line,
                        write: true,
                        access: self.memory.access(MemRequest::write_back(line, core, now)),
                    });
                    p.return_credits(line);
                    return WritebackResult {
                        freed: Some(line),
                        mem_traffic,
                    };
                }
                WritebackResult {
                    freed: None,
                    mem_traffic: None,
                }
            }
            LineState::Valid => {
                // A capacity write-back updates the (still valid) LLC
                // copy; either kind means the core no longer holds the
                // line privately.
                entry.meta.sharers.remove(me);
                if kind == WbKind::CapacityEviction {
                    entry.dirty = true;
                }
                WritebackResult {
                    freed: None,
                    mem_traffic: None,
                }
            }
        }
    }

    /// Records that `core` dropped a clean private copy of `line` — *not*
    /// a bus transaction.
    ///
    /// The engine calls this for every clean L2 victim, so the core's
    /// sharer bit clears at once and a later eviction of the line does
    /// not back-invalidate it. `way` is the copy's tag: the way that
    /// answered the request that brought it in. The first copy of the
    /// line in its set is the one updated; while no line of the set is
    /// mid-eviction the line has only one copy, so the tagged way is
    /// read first and the set is scanned only when it holds another
    /// line.
    pub(crate) fn note_clean_drop(&mut self, core: CoreId, line: LineAddr, way: WayIdx) {
        let pid = self.map.partition_of(core);
        let me = self.member(core);
        let p = &mut self.partitions[pid.as_usize()];
        let set = p.cache.set_of(line);
        let tagged = p.evicting[set.as_usize()] == 0
            && p.cache.entry(set, way).is_some_and(|e| e.line == line);
        let way = if tagged {
            Some(way)
        } else {
            p.cache.way_of(line)
        };
        if let Some(e) = way.and_then(|w| p.cache.entry_mut(set, w)) {
            if e.meta.state == LineState::Valid {
                e.meta.sharers.remove(me);
            }
        }
    }

    /// Asserts the representation invariants (module docs) on the set
    /// `line` maps to in `core`'s partition. The engine calls it after
    /// every slot in debug builds, on the set the slot touched.
    ///
    /// # Panics
    ///
    /// Panics on the first invariant that fails.
    #[cfg(debug_assertions)]
    pub(crate) fn check(&self, core: CoreId, line: LineAddr) {
        let p = &self.partitions[self.map.partition_of(core).as_usize()];
        let set = p.cache.set_of(line);
        let mut evicting = 0;
        for w in 0..p.cache.geometry().ways() {
            let Some(e) = p.cache.entry(set, WayIdx(w)) else {
                continue;
            };
            assert!(
                e.meta.sharers.iter().all(|m| m < p.members.len()),
                "{set}: sharer bits of {} name a non-member",
                e.line
            );
            if e.meta.state == LineState::Evicting {
                evicting += 1;
                assert!(
                    !e.meta.sharers.is_empty(),
                    "{set}: {} is mid-eviction but owes no acknowledgement",
                    e.line
                );
            }
        }
        assert_eq!(
            p.evicting[set.as_usize()],
            evicting,
            "{set}: Evicting count disagrees with its entries"
        );
        if evicting == 0 {
            let ways = p.cache.geometry().ways();
            let line_at = |w| p.cache.entry(set, WayIdx(w)).map(|e| e.line);
            for w in 0..ways {
                assert!(
                    line_at(w).is_none() || (w + 1..ways).all(|o| line_at(o) != line_at(w)),
                    "{set}: a line has two copies with none mid-eviction"
                );
            }
        }
        for queued in p.sequencer.queued(set) {
            assert!(
                p.pending_of(self.member(queued))
                    .is_some_and(|r| p.cache.set_of(r.line) == set),
                "{queued} is queued for {set} without a pending request on it"
            );
        }
        // Each in-flight eviction backs at most one credit. A line can sit
        // in two ways of a set at once (a request for a line mid-eviction
        // allocates a fresh copy), so count per line.
        let evicting_copies = |line: LineAddr| {
            (0..p.cache.geometry().ways())
                .filter_map(|w| p.cache.entry(set, WayIdx(w)))
                .filter(|e| e.line == line && e.meta.state == LineState::Evicting)
                .count()
        };
        for (i, r) in p.pending.iter().enumerate() {
            let Some((line, Some(victim))) = r.map(|r| (r.line, r.triggered_victim)) else {
                continue;
            };
            if p.cache.set_of(line) != set {
                continue;
            }
            let credits = p
                .pending
                .iter()
                .flatten()
                .filter(|o| o.triggered_victim == Some(victim))
                .count();
            assert!(
                (1..=evicting_copies(victim)).contains(&credits),
                "{}'s eviction credit names {victim}, which has {} copies mid-eviction \
                 for {credits} credits",
                p.members[i],
                evicting_copies(victim)
            );
        }
    }

    /// Whether `core` has a registered pending request (test helper).
    #[cfg(test)]
    fn has_pending(&self, core: CoreId) -> bool {
        let pid = self.map.partition_of(core);
        self.partitions[pid.as_usize()]
            .pending_of(self.member(core))
            .is_some()
    }

    fn allocate(
        p: &mut PartitionState,
        memory: &mut Memory,
        core: CoreId,
        member: usize,
        line: LineAddr,
        way: WayIdx,
        now: Cycles,
    ) -> MemTraffic {
        let set = p.cache.set_of(line);
        let access = memory.access(MemRequest::fetch(line, core, now));
        let mut sharers = SharerSet::EMPTY;
        sharers.insert(member);
        p.cache.install_at(
            set,
            way,
            line,
            false,
            LlcMeta {
                sharers,
                state: LineState::Valid,
            },
        );
        p.pending[member] = None;
        if p.uses_sequencer() {
            // The allocating core is the head by construction.
            debug_assert!(p.sequencer.is_head(set, core) || !p.sequencer.contains(set, core));
            if p.sequencer.is_head(set, core) {
                p.sequencer.pop(set);
            }
        }
        MemTraffic {
            line,
            write: false,
            access,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionSpec;
    use predllc_model::CacheGeometry;

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    fn l(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    /// Service treating every invalidated private copy as clean.
    fn svc(llc: &mut SharedLlc, core: CoreId, line: LineAddr) -> ServiceResult {
        llc.service(core, line, Cycles::ZERO, &mut |_, _| false)
    }

    /// Service treating every invalidated private copy as dirty — the
    /// worst case the paper's figures depict (`Evict l → WB l`).
    fn svc_dirty(llc: &mut SharedLlc, core: CoreId, line: LineAddr) -> ServiceResult {
        llc.service(core, line, Cycles::ZERO, &mut |_, _| true)
    }

    /// `cores` cores sharing one 1-set × `ways` partition.
    fn shared_llc(mode: SharingMode, cores: u16, ways: u32) -> SharedLlc {
        let map = PartitionMap::new(
            vec![PartitionSpec::shared(
                1,
                ways,
                CoreId::first(cores).collect(),
                mode,
            )],
            cores,
            CacheGeometry::PAPER_L3,
        )
        .unwrap();
        SharedLlc::new(
            map,
            64,
            ReplacementKind::Lru,
            Box::new(predllc_dram::FixedLatency::default()),
        )
    }

    /// The sharer set of the given member indices.
    fn members(m: &[usize]) -> SharerSet {
        m.iter().copied().collect()
    }

    #[test]
    fn sharer_set_basics() {
        let mut s = SharerSet::EMPTY;
        assert!(s.is_empty());
        s.insert(3);
        s.insert(5);
        s.insert(63);
        assert!(s.contains(3));
        assert!(!s.contains(4));
        assert_eq!(s.count(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 5, 63]);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert_eq!(members(&[1, 2]).count(), 2);
        assert_eq!(SharerSet::EMPTY.iter().next(), None);
    }

    #[test]
    #[should_panic(expected = "outside a 64-member partition")]
    fn sharer_set_rejects_index_64() {
        let mut s = SharerSet::EMPTY;
        s.insert(64);
    }

    #[test]
    fn sharer_bits_are_partition_local_in_ascending_core_order() {
        // Cores 70 and 5 share a partition declared out of order; core 0
        // is private. Bit 0 of the shared partition is core 5, bit 1 is
        // core 70 — no aliasing with core 70 - 64 = 6 or with core 0.
        let cores = 72u16;
        let mut specs = vec![PartitionSpec::shared(
            1,
            1,
            vec![c(70), c(5)],
            SharingMode::BestEffort,
        )];
        specs.extend(
            (0..cores)
                .filter(|&i| i != 5 && i != 70)
                .map(|i| PartitionSpec::private(1, 1, c(i))),
        );
        let map =
            PartitionMap::new(specs, cores, CacheGeometry::new(128, 16, 64).unwrap()).unwrap();
        let mut llc = SharedLlc::new(
            map,
            64,
            ReplacementKind::Lru,
            Box::new(predllc_dram::FixedLatency::default()),
        );
        assert_eq!(llc.partition_members(c(70)), &[c(5), c(70)]);
        svc(&mut llc, c(70), l(0));
        svc(&mut llc, c(5), l(0));
        assert!(llc.is_valid_sharer(c(70), l(0)) && llc.is_valid_sharer(c(5), l(0)));
        // c5 evicts line 0 (1-way partition): both members are invalidated,
        // reported as member bits 0 and 1 in ascending core order.
        let mut invalidated = Vec::new();
        let r = llc.service(c(5), l(1), Cycles::ZERO, &mut |core, v| {
            invalidated.push((core, v));
            core == c(70)
        });
        assert_eq!(invalidated, vec![(c(5), l(0)), (c(70), l(0))]);
        assert_eq!(r.invalidations, members(&[0, 1]));
        assert_eq!(r.ack_required, members(&[1]));
        // A private core's fills never touch the shared partition.
        svc(&mut llc, c(6), l(0));
        assert!(llc.is_valid_sharer(c(6), l(0)));
        assert_eq!(llc.partition_members(c(6)), &[c(6)]);
    }

    #[test]
    fn miss_fill_then_hit() {
        let mut llc = shared_llc(SharingMode::BestEffort, 2, 2);
        let r = svc(&mut llc, c(0), l(0));
        assert_eq!(r.outcome, ServiceOutcome::Responded(ResponseKind::Fill));
        assert!(llc.is_valid_sharer(c(0), l(0)));
        // Second core hits the same line and becomes a sharer too.
        let r = svc(&mut llc, c(1), l(0));
        assert_eq!(r.outcome, ServiceOutcome::Responded(ResponseKind::Hit));
        assert!(llc.is_valid_sharer(c(1), l(0)));
        assert_eq!(llc.memory_stats().reads, 1);
    }

    #[test]
    fn dirty_remote_victim_needs_ack_protocol() {
        let mut llc = shared_llc(SharingMode::BestEffort, 2, 2);
        // c1 fills both ways of the single set.
        svc(&mut llc, c(1), l(0));
        svc(&mut llc, c(1), l(1));
        // c0 misses: set full, victim dirty at c1 → ack write-back owed.
        let r = llc.service(c(0), l(2), Cycles::ZERO, &mut |core, _| core == c(1));
        assert_eq!(
            r.outcome,
            ServiceOutcome::Blocked(BlockReason::WaitingForEviction)
        );
        let ev = r.eviction.expect("eviction triggered");
        assert_eq!(ev.sharers, 1);
        assert_eq!(ev.victim, l(0));
        assert_eq!(r.invalidations, members(&[1]));
        assert_eq!(r.ack_required, members(&[1]));
        // Retrying before the ack: still blocked, no second eviction.
        let r2 = svc_dirty(&mut llc, c(0), l(2));
        assert_eq!(
            r2.outcome,
            ServiceOutcome::Blocked(BlockReason::WaitingForEviction)
        );
        assert!(r2.eviction.is_none());
        // c1's ack (carrying the data) frees the entry.
        let wr = llc.writeback(c(1), ev.victim, true, WbKind::BackInvalAck, Cycles::ZERO);
        assert_eq!(wr.freed, Some(ev.victim));
        // The dirty data reached DRAM with the free.
        assert_eq!(llc.memory_stats().writes, 1);
        // c0 now allocates.
        let r3 = svc(&mut llc, c(0), l(2));
        assert_eq!(r3.outcome, ServiceOutcome::Responded(ResponseKind::Fill));
    }

    #[test]
    fn clean_remote_victim_evicts_within_the_slot() {
        let mut llc = shared_llc(SharingMode::BestEffort, 2, 2);
        svc(&mut llc, c(1), l(0));
        svc(&mut llc, c(1), l(1));
        // c0 misses into the full set, but c1's copies are clean: the
        // invalidation costs no bus slot and c0 fills immediately.
        let r = svc(&mut llc, c(0), l(2));
        assert_eq!(r.outcome, ServiceOutcome::Responded(ResponseKind::Fill));
        assert!(r.eviction.is_some(), "an eviction still happened");
        assert_eq!(r.invalidations, members(&[1]));
        assert!(r.ack_required.is_empty());
        // Clean data does not go to DRAM.
        assert_eq!(llc.memory_stats().writes, 0);
    }

    #[test]
    fn requesters_own_dirty_victim_transfers_inline() {
        // The basis of the (2N+1)·SW private-partition bound.
        let mut llc = shared_llc(SharingMode::BestEffort, 2, 1);
        svc(&mut llc, c(0), l(0)); // c0 fills, c0 is the sole sharer
        let mut invalidated = Vec::new();
        let r = llc.service(c(0), l(2), Cycles::ZERO, &mut |core, v| {
            invalidated.push((core, v));
            true // the private copy was dirty
        });
        assert_eq!(r.outcome, ServiceOutcome::Responded(ResponseKind::Fill));
        assert_eq!(invalidated, vec![(c(0), l(0))]);
        assert!(r.ack_required.is_empty(), "own slot carries the data");
        // The dirty data went to DRAM within the slot.
        assert_eq!(llc.memory_stats().writes, 1);
        assert!(llc.is_valid_sharer(c(0), l(2)));
    }

    #[test]
    fn mixed_sharers_inline_self_but_waits_for_dirty_remote() {
        let mut llc = shared_llc(SharingMode::BestEffort, 3, 1);
        svc(&mut llc, c(0), l(0));
        svc(&mut llc, c(1), l(0)); // hit: both c0 and c1 share line 0
        let r = svc_dirty(&mut llc, c(0), l(3));
        // Both invalidated now; only remote c1 owes an ack slot.
        assert_eq!(r.eviction.unwrap().victim, l(0));
        assert_eq!(r.invalidations, members(&[0, 1]));
        assert_eq!(r.ack_required, members(&[1]));
        assert_eq!(
            r.outcome,
            ServiceOutcome::Blocked(BlockReason::WaitingForEviction)
        );
        // c1's ack frees the entry; c0 then fills.
        llc.writeback(c(1), l(0), true, WbKind::BackInvalAck, Cycles::ZERO);
        let r = svc(&mut llc, c(0), l(3));
        assert_eq!(r.outcome, ServiceOutcome::Responded(ResponseKind::Fill));
    }

    #[test]
    fn unshared_victim_frees_and_reallocates_in_one_slot() {
        let mut llc = shared_llc(SharingMode::BestEffort, 2, 2);
        svc(&mut llc, c(1), l(0));
        svc(&mut llc, c(1), l(1));
        // Both lines lose their private copies via capacity write-backs.
        llc.writeback(c(1), l(0), true, WbKind::CapacityEviction, Cycles::ZERO);
        llc.writeback(c(1), l(1), true, WbKind::CapacityEviction, Cycles::ZERO);
        // c0's miss victimizes an unshared line: responds immediately.
        let r = svc(&mut llc, c(0), l(2));
        assert_eq!(r.outcome, ServiceOutcome::Responded(ResponseKind::Fill));
        assert_eq!(r.eviction.unwrap().sharers, 0);
        // The (LLC-)dirty victim went to DRAM.
        assert_eq!(llc.memory_stats().writes, 1);
    }

    #[test]
    fn sequencer_orders_occupation_by_broadcast() {
        let mut llc = shared_llc(SharingMode::SetSequencer, 3, 2);
        // c2 fills both ways (dirty copies).
        svc(&mut llc, c(2), l(0));
        svc(&mut llc, c(2), l(1));
        // c0 broadcasts first, then c1: queue order fixed.
        let r0 = svc_dirty(&mut llc, c(0), l(3));
        assert_eq!(r0.sequencer_position, Some(0));
        let ev0 = r0.eviction.expect("head triggers eviction");
        let r1 = svc_dirty(&mut llc, c(1), l(4));
        assert_eq!(r1.sequencer_position, Some(1));
        assert_eq!(r1.outcome, ServiceOutcome::Blocked(BlockReason::NotHead));
        // Eviction triggering is concurrent: the non-head victimizes the
        // other way while waiting its turn to occupy.
        let ev1 = r1.eviction.expect("non-head may trigger");
        assert_ne!(ev1.victim, ev0.victim);
        // c2 acks c0's victim; the entry frees. c1 retries first but is
        // still not the head, so the free entry waits for c0.
        llc.writeback(c(2), ev0.victim, true, WbKind::BackInvalAck, Cycles::ZERO);
        let r1 = svc_dirty(&mut llc, c(1), l(4));
        assert_eq!(r1.outcome, ServiceOutcome::Blocked(BlockReason::NotHead));
        // Head (c0) allocates.
        let r0 = svc_dirty(&mut llc, c(0), l(3));
        assert_eq!(r0.outcome, ServiceOutcome::Responded(ResponseKind::Fill));
        // c2 acks c1's victim too; now the new head (c1) allocates.
        llc.writeback(c(2), ev1.victim, true, WbKind::BackInvalAck, Cycles::ZERO);
        let r1 = svc_dirty(&mut llc, c(1), l(4));
        assert_eq!(r1.outcome, ServiceOutcome::Responded(ResponseKind::Fill));
    }

    #[test]
    fn best_effort_lets_latecomer_steal_freed_entry() {
        // The NSS interception at the heart of the pessimistic WCL.
        let mut llc = shared_llc(SharingMode::BestEffort, 3, 2);
        svc(&mut llc, c(2), l(0));
        svc(&mut llc, c(2), l(1));
        let r0 = svc_dirty(&mut llc, c(0), l(3)); // c0 triggers eviction
        let ev = r0.eviction.unwrap();
        llc.writeback(c(2), ev.victim, true, WbKind::BackInvalAck, Cycles::ZERO);
        // c1's slot comes before c0's: it steals the freed way.
        let r1 = svc_dirty(&mut llc, c(1), l(4));
        assert_eq!(r1.outcome, ServiceOutcome::Responded(ResponseKind::Fill));
        // c0 is still waiting and must trigger a *new* eviction (its
        // credit returned when the victim freed).
        let r0 = svc_dirty(&mut llc, c(0), l(3));
        assert_eq!(
            r0.outcome,
            ServiceOutcome::Blocked(BlockReason::WaitingForEviction)
        );
        assert!(
            r0.eviction.is_some(),
            "credit was returned, so it re-triggers"
        );
    }

    #[test]
    fn eviction_with_multiple_dirty_sharers_waits_for_all() {
        let mut llc = shared_llc(SharingMode::BestEffort, 3, 1);
        // Both c1 and c2 share line 0 (1-way partition).
        svc(&mut llc, c(1), l(0));
        svc(&mut llc, c(2), l(0));
        let r = svc_dirty(&mut llc, c(0), l(5));
        let ev = r.eviction.unwrap();
        assert_eq!(ev.sharers, 2);
        assert_eq!(r.ack_required.count(), 2);
        // First ack: not yet freed.
        let wr = llc.writeback(c(1), ev.victim, true, WbKind::BackInvalAck, Cycles::ZERO);
        assert_eq!(wr.freed, None);
        // Second ack: freed.
        let wr = llc.writeback(c(2), ev.victim, true, WbKind::BackInvalAck, Cycles::ZERO);
        assert_eq!(wr.freed, Some(ev.victim));
        assert_eq!(llc.memory_stats().writes, 1);
    }

    #[test]
    fn capacity_writeback_marks_llc_dirty() {
        let mut llc = shared_llc(SharingMode::BestEffort, 2, 2);
        svc(&mut llc, c(0), l(0));
        llc.writeback(c(0), l(0), true, WbKind::CapacityEviction, Cycles::ZERO);
        let (state, sharers) = llc.line_state(c(0), l(0)).unwrap();
        assert_eq!(state, LineState::Valid);
        assert_eq!(sharers, 0);
        // Evicting it now: unshared and dirty → immediate free + DRAM WB.
        svc(&mut llc, c(1), l(1));
        let before = llc.memory_stats().writes;
        svc(&mut llc, c(0), l(2)); // LRU victim is the unshared line 0
        assert_eq!(llc.memory_stats().writes, before + 1);
    }

    #[test]
    fn writeback_for_absent_line_goes_to_dram() {
        let mut llc = shared_llc(SharingMode::BestEffort, 2, 2);
        let wr = llc.writeback(c(0), l(9), true, WbKind::CapacityEviction, Cycles::ZERO);
        assert_eq!(wr.freed, None);
        assert_eq!(llc.memory_stats().writes, 1);
        // Clean ack for an absent line: fully ignored.
        let wr = llc.writeback(c(0), l(9), false, WbKind::BackInvalAck, Cycles::ZERO);
        assert_eq!(wr.freed, None);
        assert_eq!(llc.memory_stats().writes, 1);
    }

    #[test]
    fn evicting_line_is_not_a_hit() {
        let mut llc = shared_llc(SharingMode::BestEffort, 3, 1);
        svc(&mut llc, c(1), l(0));
        let ev = svc_dirty(&mut llc, c(0), l(5)).eviction.unwrap();
        assert_eq!(ev.victim, l(0));
        // c2 requests the very line being evicted: not a hit; it becomes
        // pending (and in a 1-way set, blocked).
        let r = svc(&mut llc, c(2), l(0));
        assert!(matches!(r.outcome, ServiceOutcome::Blocked(_)));
        assert!(llc.has_pending(c(2)));
    }

    #[test]
    fn private_partitions_do_not_interfere() {
        let map = PartitionMap::new(
            vec![
                PartitionSpec::private(1, 1, c(0)),
                PartitionSpec::private(1, 1, c(1)),
            ],
            2,
            CacheGeometry::PAPER_L3,
        )
        .unwrap();
        let mut llc = SharedLlc::new(
            map,
            64,
            ReplacementKind::Lru,
            Box::new(predllc_dram::FixedLatency::default()),
        );
        svc(&mut llc, c(0), l(0));
        // c1's fill lands in its own partition; c0's line is untouched.
        svc(&mut llc, c(1), l(0));
        assert!(llc.is_valid_sharer(c(0), l(0)));
        assert!(llc.is_valid_sharer(c(1), l(0)));
        assert_eq!(llc.partition_occupancy(c(0)), 1);
        assert_eq!(llc.partition_occupancy(c(1)), 1);
    }

    #[test]
    fn note_clean_drop_clears_stale_sharer() {
        let mut llc = shared_llc(SharingMode::BestEffort, 2, 2);
        let r = svc(&mut llc, c(0), l(0));
        svc(&mut llc, c(1), l(2));
        llc.note_clean_drop(c(0), l(0), r.way);
        assert_eq!(llc.line_state(c(0), l(0)).unwrap().1, 0);
        // A tag naming another line's way falls back to the scan.
        svc(&mut llc, c(1), l(0));
        let other = llc.partitions[0].cache.way_of(l(2)).unwrap();
        llc.note_clean_drop(c(1), l(0), other);
        assert_eq!(llc.line_state(c(1), l(0)).unwrap().1, 0);
        assert_eq!(
            llc.line_state(c(1), l(2)).unwrap().1,
            1,
            "l2's sharer is untouched"
        );
    }

    #[test]
    fn probe_reflects_service_outcomes() {
        let mut llc = shared_llc(SharingMode::BestEffort, 3, 1);
        // Empty set: would respond (free way).
        assert_eq!(llc.probe(c(0), l(0)), Probe::WouldRespond);
        svc(&mut llc, c(1), l(0));
        // Hit on a valid line: would respond.
        assert_eq!(llc.probe(c(1), l(0)), Probe::WouldRespond);
        // Full set, no eviction in flight: would trigger.
        assert_eq!(llc.probe(c(0), l(2)), Probe::WouldTrigger);
        // Trigger it for real (dirty victim): the request is stuck until
        // the ack arrives.
        let r = svc_dirty(&mut llc, c(0), l(2));
        assert!(r.eviction.is_some());
        assert_eq!(llc.probe(c(0), l(2)), Probe::Stuck);
        // A second core with a different line: the only way is mid-
        // eviction, nothing to victimize → stuck.
        let r2 = svc(&mut llc, c(2), l(5));
        assert_eq!(
            r2.outcome,
            ServiceOutcome::Blocked(BlockReason::AllWaysEvicting)
        );
        assert_eq!(llc.probe(c(2), l(5)), Probe::Stuck);
        // The ack frees the entry: the waiting request becomes unstuck.
        llc.writeback(c(1), l(0), true, WbKind::BackInvalAck, Cycles::ZERO);
        assert_eq!(llc.probe(c(0), l(2)), Probe::WouldRespond);
    }

    #[test]
    fn probe_respects_sequencer_ordering() {
        let mut llc = shared_llc(SharingMode::SetSequencer, 3, 1);
        svc(&mut llc, c(2), l(0));
        let r = svc_dirty(&mut llc, c(0), l(3)); // head, triggers eviction
        assert!(r.eviction.is_some());
        svc_dirty(&mut llc, c(1), l(4)); // queued behind c0
        assert_eq!(llc.probe(c(1), l(4)), Probe::Stuck);
        llc.writeback(c(2), l(0), true, WbKind::BackInvalAck, Cycles::ZERO);
        // Entry free: head would respond, non-head still stuck.
        assert_eq!(llc.probe(c(0), l(3)), Probe::WouldRespond);
        assert_eq!(llc.probe(c(1), l(4)), Probe::Stuck);
    }
}
