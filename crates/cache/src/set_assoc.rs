//! A generic set-associative cache structure.
//!
//! [`SetAssocCache`] stores per-line metadata of any type `T`, so the same
//! structure backs the private L1/L2 caches (`T = ()`) and, in
//! `predllc-core`, the shared LLC (where `T` carries sharer bitmaps and the
//! eviction state machine).
//!
//! The storage is a single flat slot array (`set × ways + way`) with the
//! replacement bookkeeping inlined as flat state, so the hit path — the
//! hottest loop of the whole simulator — is one bounded scan with no
//! pointer chasing and no dynamic dispatch. The unit tests check the
//! inlined replacer victim for victim against boxed reference
//! implementations of each [`ReplacementKind`] policy.
//!
//! LRU and FIFO order a set by a per-way use stamp: the victim is the
//! smallest, ties (never-used and invalidated ways, stamp 0) to the
//! lowest way. Sets of 5 to 16 ways — LLC partitions — keep that order
//! as one packed recency word per set instead (`Recency`: one nibble per
//! rank), so the victim is the word's low nibble and no way is compared;
//! a use moves one nibble to the top with a SWAR find and two shifts.
//! Narrower sets — the private L1s and L2s — keep the stamps: their hits
//! far outnumber their victim choices, a stamp is one store, and a
//! victim is at most four compares. Wider sets keep the stamps too.
//!
//! Every mutation keeps a per-set count of occupied ways in lockstep with
//! the slots, so a full set — the steady state of any cache under
//! pressure — answers [`SetAssocCache::free_way_in`] without scanning
//! its ways, and a [`SetAssocCache::fill`] into it goes straight to
//! victim selection.

use predllc_model::{CacheGeometry, LineAddr, SetIdx, WayIdx};

use crate::replacement::ReplacementKind;

/// One occupied cache line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<T> {
    /// The line address stored in this way.
    pub line: LineAddr,
    /// Whether the line holds modifications not yet written back.
    pub dirty: bool,
    /// Caller-defined metadata (sharers, eviction state, …).
    pub meta: T,
}

/// Inlined replacement state for every [`ReplacementKind`], stored flat
/// and dispatched by a match instead of a vtable.
#[derive(Debug)]
enum Replacer {
    /// LRU (`refresh_on_hit`) and FIFO (`!refresh_on_hit`) on sets of
    /// [`PACKED_WAYS`] ways: one [`Recency`] word per set, whose victim
    /// is its low nibble.
    Packed {
        refresh_on_hit: bool,
        ways: usize,
        recency: Vec<Recency>,
    },
    /// LRU and FIFO on other sets: a per-way last-use/fill stamp driven
    /// by one monotonically increasing clock; the eligible way with the
    /// smallest stamp is the victim (ties to the lowest way, matching
    /// `min_by_key`).
    Stamped {
        refresh_on_hit: bool,
        /// `stamp[set * ways + way]`; 0 means "never used".
        stamp: Vec<u64>,
        clock: u64,
    },
    /// Round-robin pointer per set.
    RoundRobin { next: Vec<usize> },
    /// Deterministic xorshift64* selection.
    Random { state: u64 },
}

/// The associativities ordered by a [`Recency`] word. A word holds at
/// most 16 ways, one nibble each. Below 5 ways the stamps are cheaper:
/// such sets (the private L1s and L2s) are hit far more often than they
/// pick victims, a stamp update is one store against the word's dozen
/// operations, and their victim scan is at most four compares; with the
/// word there, the fleet-sweep grid ran 3% slower than with stamps.
const PACKED_WAYS: std::ops::RangeInclusive<usize> = 5..=16;

/// `0x1111…1`: a 1 in every nibble.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;

/// The LRU/FIFO order of one set of at most 16 ways,
/// exactly as the stamps of [`Replacer::Stamped`] would order it.
///
/// Stamps order a set as: the ways whose stamp is 0 (never used, or
/// invalidated since), by ascending way index, then the others by
/// ascending stamp. `order` holds that sequence one way per nibble, rank
/// 0 (the victim) lowest, and `unused` flags the stamp-0 ways, which
/// always fill ranks `0..unused.count_ones()`. A use gives a way the
/// largest stamp, so it moves to the top rank; an invalidation of a used
/// way gives it stamp 0, so it moves down to its index's place among the
/// unused ways. Each move is a SWAR find plus two shifts, and the
/// victim, the first eligible way in stamp order, needs no comparison.
#[derive(Debug, Clone, Copy)]
struct Recency {
    /// Nibble `r` (bits `4r..4r+4`) holds the way at rank `r`.
    order: u64,
    /// Bit `w` is set while way `w` would have stamp 0.
    unused: u32,
}

impl Recency {
    /// The order of a fresh set: every way unused, by index.
    fn new(ways: usize) -> Self {
        debug_assert!(ways <= 16);
        Recency {
            order: (0..ways as u64).fold(0, |o, w| o | w << (4 * w)),
            unused: (1u32 << ways) - 1,
        }
    }

    /// The rank of way `w`: the lowest nibble of `order` equal to `w`.
    /// In `order ^ (w × 0x11…1)` that nibble is zero, and the classic
    /// zero-lane test flags it exactly (a borrow only flags lanes above
    /// a true zero, and ranks past the set's ways lie above every way).
    #[inline(always)]
    fn rank(self, w: usize) -> u32 {
        let x = self.order ^ (w as u64).wrapping_mul(NIBBLE_ONES);
        let zero = x.wrapping_sub(NIBBLE_ONES) & !x & (NIBBLE_ONES << 3);
        debug_assert!(zero != 0, "way {w} missing from its recency word");
        zero.trailing_zeros() / 4
    }

    /// Way `w` took the largest stamp: it moves to the top rank
    /// (`ways - 1`) and the ranks above it shift down one.
    #[inline(always)]
    fn use_way(&mut self, w: usize, ways: usize) {
        let top = ways as u32 - 1;
        self.unused &= !(1 << w);
        let r = self.rank(w);
        let span = nibbles(r, top);
        self.order = (self.order & !span)
            | ((self.order >> 4) & span & !(0xf << (4 * top)))
            | ((w as u64) << (4 * top));
    }

    /// Way `w` took stamp 0: a used way moves down to its index's place
    /// among the unused ways; an unused one stays where it is.
    #[inline(always)]
    fn invalidate(&mut self, w: usize) {
        let bit = 1u32 << w;
        if self.unused & bit != 0 {
            return;
        }
        let p = (self.unused & (bit - 1)).count_ones();
        let r = self.rank(w);
        self.unused |= bit;
        // The LLC's usual case: its victim, at rank 0, frees.
        if r == p {
            return;
        }
        let span = nibbles(p, r);
        self.order = (self.order & !span)
            | ((self.order << 4) & span & !(0xf << (4 * p)))
            | ((w as u64) << (4 * p));
    }

    /// The way at rank 0: the smallest stamp.
    #[inline]
    fn victim(self) -> usize {
        (self.order & 0xf) as usize
    }

    /// The first way in stamp order that passes `eligible`.
    #[inline]
    fn first_eligible(self, ways: usize, mut eligible: impl FnMut(usize) -> bool) -> Option<usize> {
        (0..ways)
            .map(|r| ((self.order >> (4 * r)) & 0xf) as usize)
            .find(|&w| eligible(w))
    }
}

/// The bits of nibbles `from..=to` (`from <= to < 16`).
#[inline]
fn nibbles(from: u32, to: u32) -> u64 {
    (u64::MAX >> (60 - 4 * to)) & (u64::MAX << (4 * from))
}

/// `(set, way)` of a flat slot index in a cache of `ways` ways — a
/// shift and a mask for the usual power-of-two associativity.
#[inline]
fn split(slot: usize, ways: usize) -> (usize, usize) {
    if ways.is_power_of_two() {
        (slot >> ways.trailing_zeros(), slot & (ways - 1))
    } else {
        (slot / ways, slot % ways)
    }
}

impl Replacer {
    fn new(kind: ReplacementKind, sets: usize, ways: usize) -> Self {
        let ordered = |refresh_on_hit| {
            if PACKED_WAYS.contains(&ways) {
                Replacer::Packed {
                    refresh_on_hit,
                    ways,
                    recency: vec![Recency::new(ways); sets],
                }
            } else {
                Replacer::Stamped {
                    refresh_on_hit,
                    stamp: vec![0; sets * ways],
                    clock: 0,
                }
            }
        };
        match kind {
            ReplacementKind::Lru => ordered(true),
            ReplacementKind::Fifo => ordered(false),
            ReplacementKind::RoundRobin => Replacer::RoundRobin {
                next: vec![0; sets],
            },
            ReplacementKind::Random { seed } => {
                // Scramble the seed with splitmix64 so that nearby seeds
                // diverge and zero never becomes the xorshift state.
                let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                Replacer::Random { state: z | 1 }
            }
        }
    }

    #[inline(always)]
    fn on_fill(&mut self, slot: usize) {
        match self {
            Replacer::Packed { ways, recency, .. } => {
                let (set, way) = split(slot, *ways);
                recency[set].use_way(way, *ways);
            }
            Replacer::Stamped { stamp, clock, .. } => {
                *clock += 1;
                stamp[slot] = *clock;
            }
            Replacer::RoundRobin { .. } | Replacer::Random { .. } => {}
        }
    }

    #[inline(always)]
    fn on_hit(&mut self, slot: usize) {
        match self {
            Replacer::Packed {
                refresh_on_hit: true,
                ways,
                recency,
            } => {
                let (set, way) = split(slot, *ways);
                recency[set].use_way(way, *ways);
            }
            Replacer::Stamped {
                refresh_on_hit: true,
                stamp,
                clock,
            } => {
                *clock += 1;
                stamp[slot] = *clock;
            }
            _ => {}
        }
    }

    #[inline(always)]
    fn on_invalidate(&mut self, slot: usize) {
        match self {
            Replacer::Packed { ways, recency, .. } => {
                let (set, way) = split(slot, *ways);
                recency[set].invalidate(way);
            }
            Replacer::Stamped { stamp, .. } => stamp[slot] = 0,
            Replacer::RoundRobin { .. } | Replacer::Random { .. } => {}
        }
    }

    /// Victim selection with every way eligible — the private-cache fill
    /// path, where no way is ever excluded. Bit-identical to
    /// `choose_victim(set, ways, &[true; ways])` without materializing
    /// the mask.
    #[inline(always)]
    fn choose_victim_all(&mut self, set: usize, ways: usize) -> Option<WayIdx> {
        if ways == 0 {
            return None;
        }
        match self {
            Replacer::Packed { recency, .. } => Some(WayIdx(recency[set].victim() as u32)),
            Replacer::Stamped { stamp, .. } => {
                // The first smallest stamp, selected without a branch.
                let stamps = &stamp[set * ways..(set + 1) * ways];
                let (mut best, mut least) = (0usize, stamps[0]);
                for (w, &s) in stamps.iter().enumerate().skip(1) {
                    let smaller = s < least;
                    best = if smaller { w } else { best };
                    least = if smaller { s } else { least };
                }
                Some(WayIdx(best as u32))
            }
            Replacer::RoundRobin { next } => {
                let w = next[set] % ways;
                next[set] = (w + 1) % ways;
                Some(WayIdx(w as u32))
            }
            Replacer::Random { state } => {
                let mut x = *state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *state = x;
                let pick = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % ways as u64) as usize;
                Some(WayIdx(pick as u32))
            }
        }
    }

    /// Victim selection among the ways for which `eligible` holds, in a
    /// single pass over the set (the random policy makes a second pass to
    /// pick the n-th eligible way it drew).
    fn choose_victim(
        &mut self,
        set: usize,
        ways: usize,
        mut eligible: impl FnMut(usize) -> bool,
    ) -> Option<WayIdx> {
        match self {
            Replacer::Packed { recency, .. } => recency[set]
                .first_eligible(ways, eligible)
                .map(|w| WayIdx(w as u32)),
            Replacer::Stamped { stamp, .. } => {
                let stamps = &stamp[set * ways..(set + 1) * ways];
                let mut best: Option<usize> = None;
                for (w, &s) in stamps.iter().enumerate() {
                    if eligible(w) && best.is_none_or(|b| s < stamps[b]) {
                        best = Some(w);
                    }
                }
                best.map(|w| WayIdx(w as u32))
            }
            Replacer::RoundRobin { next } => {
                if ways == 0 {
                    return None;
                }
                let start = next[set] % ways;
                for i in 0..ways {
                    let w = (start + i) % ways;
                    if eligible(w) {
                        next[set] = (w + 1) % ways;
                        return Some(WayIdx(w as u32));
                    }
                }
                None
            }
            Replacer::Random { state } => {
                let count = (0..ways).filter(|&w| eligible(w)).count();
                if count == 0 {
                    return None;
                }
                let mut x = *state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *state = x;
                let pick = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % count as u64) as usize;
                (0..ways)
                    .filter(|&w| eligible(w))
                    .nth(pick)
                    .map(|w| WayIdx(w as u32))
            }
        }
    }
}

/// A set-associative cache with pluggable replacement and per-line
/// metadata.
///
/// The structure is purely functional bookkeeping: it never initiates
/// memory traffic itself. Timing, bus protocol and inclusion enforcement
/// live in the callers.
///
/// # Examples
///
/// ```
/// use predllc_cache::{ReplacementKind, SetAssocCache};
/// use predllc_model::{CacheGeometry, LineAddr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut c: SetAssocCache<u8> =
///     SetAssocCache::new(CacheGeometry::new(4, 2, 64)?, ReplacementKind::Lru);
/// c.fill(LineAddr::new(8), true, 7);
/// let e = c.lookup(LineAddr::new(8)).expect("just filled");
/// assert!(e.dirty);
/// assert_eq!(e.meta, 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SetAssocCache<T> {
    geometry: CacheGeometry,
    /// Associativity, cached as `usize` for indexing.
    ways: usize,
    /// `sets - 1` when the set count is a power of two (the common case:
    /// the index is a mask instead of a division), `0` otherwise.
    set_mask: u64,
    /// Flat slot storage: `slots[set * ways + way]`.
    slots: Vec<Option<Entry<T>>>,
    /// Redundant flat index of the line address in each slot
    /// (`EMPTY_LINE` when free), kept in lockstep with `slots` — the
    /// match scan of a lookup walks 8 bytes per way instead of a whole
    /// `Option<Entry>`, which is what the simulator's hottest loop does
    /// millions of times.
    lines: Vec<u64>,
    /// Occupied ways per set, kept in lockstep with `slots`: a full set
    /// has no free way to find, so the free-way scan is skipped.
    occupied: Vec<u32>,
    replacer: Replacer,
}

/// The `lines` sentinel for an empty way.
///
/// `u64::MAX` *is* representable as a line address (a 1-byte-line
/// geometry maps `Address::new(u64::MAX)` to it), so every sentinel
/// scan is backed by a guarded fallback: probes for the literal value
/// take [`SetAssocCache::find_way_slow`], and a sentinel match in the
/// free-way scans is confirmed against the slot itself. Real workloads
/// never hit either branch.
const EMPTY_LINE: u64 = u64::MAX;

impl<T> SetAssocCache<T> {
    /// Creates an empty cache of the given geometry and replacement
    /// policy.
    pub fn new(geometry: CacheGeometry, replacement: ReplacementKind) -> Self {
        let sets = geometry.sets() as usize;
        let ways = geometry.ways() as usize;
        let set_mask = if geometry.sets().is_power_of_two() {
            u64::from(geometry.sets()) - 1
        } else {
            0
        };
        SetAssocCache {
            geometry,
            ways,
            set_mask,
            slots: (0..sets * ways).map(|_| None).collect(),
            lines: vec![EMPTY_LINE; sets * ways],
            occupied: vec![0; sets],
            replacer: Replacer::new(replacement, sets, ways),
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The set a line address maps to, as a flat index.
    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        if self.set_mask != 0 {
            (line.as_u64() & self.set_mask) as usize
        } else {
            self.geometry.set_index(line) as usize
        }
    }

    #[inline]
    fn slot_index(&self, set: SetIdx, way: WayIdx) -> usize {
        set.as_usize() * self.ways + way.as_usize()
    }

    /// The set a line address maps to.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> SetIdx {
        SetIdx(self.set_index(line) as u32)
    }

    /// Way index of `line` within its set, via the flat line index —
    /// with the guarded fallback for the sentinel-colliding address.
    #[inline]
    fn find_way(&self, base: usize, line: LineAddr) -> Option<usize> {
        let raw = line.as_u64();
        if raw == EMPTY_LINE {
            return self.find_way_slow(base, line);
        }
        self.lines[base..base + self.ways]
            .iter()
            .position(|&l| l == raw)
    }

    /// Slot-array scan for the one line address that collides with the
    /// empty-way sentinel.
    #[cold]
    fn find_way_slow(&self, base: usize, line: LineAddr) -> Option<usize> {
        self.slots[base..base + self.ways]
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.line == line))
    }

    /// Finds the way holding `line`, if present.
    #[inline]
    pub fn way_of(&self, line: LineAddr) -> Option<WayIdx> {
        let base = self.set_index(line) * self.ways;
        self.find_way(base, line).map(|w| WayIdx(w as u32))
    }

    /// Returns the entry for `line` without touching replacement state.
    pub fn peek(&self, line: LineAddr) -> Option<&Entry<T>> {
        let base = self.set_index(line) * self.ways;
        let w = self.find_way(base, line)?;
        self.slots[base + w].as_ref()
    }

    /// Returns the entry for `line` mutably without touching replacement
    /// state.
    ///
    /// Used for metadata folding (e.g. merging an L1 victim's dirty bit
    /// into its L2 copy) that must not count as a use for recency.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut Entry<T>> {
        let base = self.set_index(line) * self.ways;
        let w = self.find_way(base, line)?;
        self.slots[base + w].as_mut()
    }

    /// Looks up `line`, updating replacement recency on a hit.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut Entry<T>> {
        let base = self.set_index(line) * self.ways;
        let way = self.find_way(base, line)?;
        self.replacer.on_hit(base + way);
        self.slots[base + way].as_mut()
    }

    /// Whether `line` is present.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Lowest truly empty way of `set` — `None` straight from the
    /// occupied count when the set is full, otherwise the sentinel scan,
    /// confirmed against the slot array (a stored line address equal to
    /// the sentinel must not read as a free way).
    #[inline]
    fn free_way_idx(&self, set: usize) -> Option<usize> {
        if self.occupied[set] as usize == self.ways {
            return None;
        }
        let base = set * self.ways;
        let mut from = 0;
        while let Some(w) = self.lines[base + from..base + self.ways]
            .iter()
            .position(|&l| l == EMPTY_LINE)
        {
            let w = from + w;
            if self.slots[base + w].is_none() {
                return Some(w);
            }
            from = w + 1;
        }
        None
    }

    /// Returns a free way in `line`'s set, if any (lowest index first).
    pub fn free_way(&self, line: LineAddr) -> Option<WayIdx> {
        self.free_way_idx(self.set_index(line))
            .map(|w| WayIdx(w as u32))
    }

    /// Returns a free way in `set`, if any (lowest index first).
    #[inline]
    pub fn free_way_in(&self, set: SetIdx) -> Option<WayIdx> {
        self.free_way_idx(set.as_usize()).map(|w| WayIdx(w as u32))
    }

    /// Inserts `line`, evicting if the set is full. Returns the evicted
    /// entry, if any.
    ///
    /// This is the "conventional cache" fill path used by the private
    /// levels, where the cache chooses its own victim internally. The LLC
    /// instead drives allocation explicitly via [`Self::install_at`] /
    /// [`Self::take`], because its evictions are a multi-slot protocol.
    ///
    /// # Panics
    ///
    /// Panics if the replacement policy fails to produce a victim for a
    /// full set (which would indicate a policy bug, not a caller error).
    pub fn fill(&mut self, line: LineAddr, dirty: bool, meta: T) -> Option<Entry<T>> {
        debug_assert!(!self.contains(line), "fill of already-present {line}");
        let set = self.set_index(line);
        let base = set * self.ways;
        let (way, evicted) = match self.free_way_idx(set) {
            Some(way) => {
                self.occupied[set] += 1;
                (way, None)
            }
            None => {
                let way = self
                    .replacer
                    .choose_victim_all(set, self.ways)
                    .expect("replacement policy must pick a victim from a full mask")
                    .as_usize();
                // The fill below makes the way the newest: invalidating
                // it first would not change the order.
                (way, self.slots[base + way].take())
            }
        };
        self.slots[base + way] = Some(Entry { line, dirty, meta });
        self.lines[base + way] = line.as_u64();
        self.replacer.on_fill(base + way);
        evicted
    }

    /// Installs `line` at an explicit `(set, way)` slot, which must be
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied.
    pub fn install_at(&mut self, set: SetIdx, way: WayIdx, line: LineAddr, dirty: bool, meta: T) {
        let idx = self.slot_index(set, way);
        let slot = &mut self.slots[idx];
        assert!(slot.is_none(), "install into occupied {set}/{way}");
        *slot = Some(Entry { line, dirty, meta });
        self.lines[idx] = line.as_u64();
        self.occupied[set.as_usize()] += 1;
        self.replacer.on_fill(idx);
    }

    /// Removes and returns the entry at `(set, way)`.
    pub fn take(&mut self, set: SetIdx, way: WayIdx) -> Option<Entry<T>> {
        let idx = self.slot_index(set, way);
        let e = self.slots[idx].take();
        if e.is_some() {
            self.lines[idx] = EMPTY_LINE;
            self.occupied[set.as_usize()] -= 1;
            self.replacer.on_invalidate(idx);
        }
        e
    }

    /// Removes `line` if present, returning its entry.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Entry<T>> {
        let set = self.set_of(line);
        let way = self.way_of(line)?;
        self.take(set, way)
    }

    /// Chooses a victim way in `set` among the occupied ways whose entry
    /// passes `eligible`; empty ways are never victims.
    ///
    /// Exposed for the LLC, which excludes lines that are already
    /// mid-eviction. The test runs once per way (twice under the random
    /// policy) and must not depend on call order.
    pub fn choose_victim(
        &mut self,
        set: SetIdx,
        mut eligible: impl FnMut(&Entry<T>) -> bool,
    ) -> Option<WayIdx> {
        let base = set.as_usize() * self.ways;
        let slots = &self.slots[base..base + self.ways];
        self.replacer.choose_victim(set.as_usize(), self.ways, |w| {
            slots[w].as_ref().is_some_and(&mut eligible)
        })
    }

    /// Chooses a victim way among every way of `set`, which must be
    /// full: the replacement state alone decides, with no per-way test.
    ///
    /// Equal to [`Self::choose_victim`] with a test that admits every
    /// entry. The LLC calls it for a full set with no line mid-eviction.
    #[inline]
    pub fn choose_victim_any(&mut self, set: SetIdx) -> Option<WayIdx> {
        debug_assert_eq!(
            self.occupied[set.as_usize()] as usize,
            self.ways,
            "choose_victim_any on a set with a free way"
        );
        self.replacer.choose_victim_all(set.as_usize(), self.ways)
    }

    /// Direct access to the entry at `(set, way)`.
    pub fn entry(&self, set: SetIdx, way: WayIdx) -> Option<&Entry<T>> {
        self.slots[self.slot_index(set, way)].as_ref()
    }

    /// Direct mutable access to the entry at `(set, way)`.
    pub fn entry_mut(&mut self, set: SetIdx, way: WayIdx) -> Option<&mut Entry<T>> {
        let idx = self.slot_index(set, way);
        self.slots[idx].as_mut()
    }

    /// Marks `(set, way)` as recently used.
    pub fn touch(&mut self, set: SetIdx, way: WayIdx) {
        self.replacer.on_hit(self.slot_index(set, way));
    }

    /// Iterates over all occupied entries.
    pub fn iter(&self) -> impl Iterator<Item = &Entry<T>> {
        self.slots.iter().flatten()
    }

    /// The number of occupied lines.
    pub fn occupancy(&self) -> usize {
        self.occupied.iter().map(|&n| n as usize).sum()
    }

    /// Removes every line, leaving the cache empty.
    pub fn clear(&mut self) {
        let sets = self.geometry.sets();
        let ways = self.geometry.ways();
        for s in 0..sets {
            for w in 0..ways {
                self.take(SetIdx(s), WayIdx(w));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache<u32> {
        SetAssocCache::new(CacheGeometry::new(2, 2, 64).unwrap(), ReplacementKind::Lru)
    }

    // Lines 0,2,4,… map to set 0 of a 2-set cache; 1,3,5,… to set 1.
    const L0: LineAddr = LineAddr::new(0);
    const L2: LineAddr = LineAddr::new(2);
    const L4: LineAddr = LineAddr::new(4);
    const L6: LineAddr = LineAddr::new(6);

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.contains(L0));
        assert!(c.fill(L0, false, 1).is_none());
        assert!(c.contains(L0));
        assert_eq!(c.lookup(L0).unwrap().meta, 1);
    }

    #[test]
    fn fill_evicts_lru_when_set_full() {
        let mut c = small();
        c.fill(L0, false, 1);
        c.fill(L2, false, 2);
        c.lookup(L0); // L0 becomes MRU, L2 LRU
        let evicted = c.fill(L4, false, 3).expect("set was full");
        assert_eq!(evicted.line, L2);
        assert!(c.contains(L0) && c.contains(L4) && !c.contains(L2));
    }

    #[test]
    fn dirty_flag_travels_with_eviction() {
        let mut c = small();
        c.fill(L0, true, 0);
        c.fill(L2, false, 0);
        c.lookup(L2);
        let evicted = c.fill(L4, false, 0).unwrap();
        assert_eq!(evicted.line, L0);
        assert!(evicted.dirty);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = small();
        c.fill(L0, false, 0);
        c.fill(LineAddr::new(1), false, 0);
        c.fill(L2, false, 0);
        c.fill(LineAddr::new(3), false, 0);
        assert_eq!(c.occupancy(), 4);
        // Filling set 0 again does not disturb set 1.
        c.fill(L4, false, 0);
        assert!(c.contains(LineAddr::new(1)) && c.contains(LineAddr::new(3)));
    }

    #[test]
    fn invalidate_removes_and_frees() {
        let mut c = small();
        c.fill(L0, true, 9);
        let e = c.invalidate(L0).unwrap();
        assert_eq!(e.meta, 9);
        assert!(!c.contains(L0));
        assert_eq!(c.free_way(L0), Some(WayIdx(0)));
        assert!(c.invalidate(L0).is_none());
    }

    #[test]
    fn install_take_roundtrip() {
        let mut c = small();
        let set = c.set_of(L0);
        c.install_at(set, WayIdx(1), L0, false, 5);
        assert_eq!(c.way_of(L0), Some(WayIdx(1)));
        let e = c.take(set, WayIdx(1)).unwrap();
        assert_eq!(e.line, L0);
        assert!(c.take(set, WayIdx(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "install into occupied")]
    fn install_into_occupied_panics() {
        let mut c = small();
        let set = c.set_of(L0);
        c.install_at(set, WayIdx(0), L0, false, 0);
        c.install_at(set, WayIdx(0), L2, false, 0);
    }

    #[test]
    fn free_way_reports_lowest() {
        let mut c = small();
        assert_eq!(c.free_way(L0), Some(WayIdx(0)));
        c.fill(L0, false, 0);
        assert_eq!(c.free_way(L2), Some(WayIdx(1)));
        c.fill(L2, false, 0);
        assert_eq!(c.free_way(L4), None);
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = small();
        for l in [L0, L2, L4, L6] {
            c.fill(l, false, 0);
        }
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.free_way(L0), Some(WayIdx(0)));
    }

    #[test]
    fn peek_does_not_disturb_recency() {
        let mut c = small();
        c.fill(L0, false, 0);
        c.fill(L2, false, 0);
        // peek L0 (no recency update) then fill: LRU victim must be L0.
        assert!(c.peek(L0).is_some());
        let evicted = c.fill(L4, false, 0).unwrap();
        assert_eq!(evicted.line, L0);
    }

    #[test]
    fn sentinel_colliding_line_address_behaves_like_any_other() {
        // `u64::MAX` is a representable line address (e.g. under a
        // 1-byte-line geometry); it must not read as an empty way.
        let mut c: SetAssocCache<u8> =
            SetAssocCache::new(CacheGeometry::new(2, 2, 1).unwrap(), ReplacementKind::Lru);
        let max = LineAddr::new(u64::MAX);
        assert!(!c.contains(max));
        assert!(c.lookup(max).is_none());
        assert!(c.fill(max, true, 9).is_none());
        assert!(c.contains(max));
        assert_eq!(c.lookup(max).unwrap().meta, 9);
        // Its way is occupied: the free-way scan must skip it, and a
        // second fill in the same set must not clobber it.
        let way = c.way_of(max).unwrap();
        assert_ne!(c.free_way(max), Some(way));
        let other = LineAddr::new(u64::MAX - 2); // same set (odd), 2 sets
        c.fill(other, false, 4);
        assert!(c.contains(max) && c.contains(other));
        assert_eq!(c.free_way(max), None);
        let e = c.invalidate(max).unwrap();
        assert_eq!((e.meta, e.dirty), (9, true));
        assert!(!c.contains(max) && c.contains(other));
        assert_eq!(c.free_way(max), Some(way));
    }

    #[test]
    fn non_power_of_two_sets_index_by_modulo() {
        let mut c: SetAssocCache<()> =
            SetAssocCache::new(CacheGeometry::new(3, 1, 64).unwrap(), ReplacementKind::Lru);
        assert_eq!(c.set_of(LineAddr::new(7)), SetIdx(1));
        c.fill(LineAddr::new(7), false, ());
        assert!(c.contains(LineAddr::new(7)));
        assert_eq!(c.way_of(LineAddr::new(4)), None);
    }

    /// A one-set, four-way cache under `kind`, ways filled in order.
    fn full_set(kind: ReplacementKind) -> SetAssocCache<()> {
        let mut c = SetAssocCache::new(CacheGeometry::new(1, 4, 64).unwrap(), kind);
        for w in 0..4 {
            c.install_at(SetIdx(0), WayIdx(w), LineAddr::new(u64::from(w)), false, ());
        }
        c
    }

    /// An eligibility test admitting the ways of `full_set` flagged in
    /// `mask` (each way `w` there holds line `w`).
    fn ways(mask: [bool; 4]) -> impl Fn(&Entry<()>) -> bool {
        move |e| mask[e.line.as_u64() as usize]
    }

    #[test]
    fn each_policy_picks_victims_by_its_rule() {
        const S0: SetIdx = SetIdx(0);
        let all = ways([true; 4]);
        // LRU: a hit refreshes, the test excludes, an emptied way is
        // never a victim, an all-false test has no victim.
        let mut lru = full_set(ReplacementKind::Lru);
        lru.touch(S0, WayIdx(0));
        assert_eq!(lru.choose_victim(S0, &all), Some(WayIdx(1)));
        assert_eq!(
            lru.choose_victim(S0, ways([true, false, true, true])),
            Some(WayIdx(2))
        );
        lru.take(S0, WayIdx(1));
        assert_eq!(lru.choose_victim(S0, &all), Some(WayIdx(2)));
        assert_eq!(lru.choose_victim(S0, ways([false; 4])), None);
        // FIFO: hits do not refresh.
        let mut fifo = full_set(ReplacementKind::Fifo);
        fifo.touch(S0, WayIdx(0));
        assert_eq!(fifo.choose_victim(S0, &all), Some(WayIdx(0)));
        // Round-robin: rotates, skipping ineligible ways.
        let mut rr = full_set(ReplacementKind::RoundRobin);
        let picks: Vec<_> = (0..5).map(|_| rr.choose_victim(S0, &all)).collect();
        assert_eq!(picks, [0, 1, 2, 3, 0].map(|w| Some(WayIdx(w))));
        let only_1 = ways([false, true, false, false]);
        assert_eq!(rr.choose_victim(S0, &only_1), Some(WayIdx(1)));
        assert_eq!(rr.choose_victim(S0, &only_1), Some(WayIdx(1)));
        // Random: deterministic per seed, eligible ways only.
        let picks = |seed| {
            let mut c = full_set(ReplacementKind::Random { seed });
            (0..16)
                .map(|_| c.choose_victim(S0, &all))
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(42), picks(42));
        assert_ne!(picks(42), picks(43));
        let mut random = full_set(ReplacementKind::Random { seed: 7 });
        let mask = [false, true, false, true];
        for _ in 0..64 {
            let w = random.choose_victim(S0, ways(mask)).unwrap();
            assert!(mask[w.as_usize()], "picked ineligible way {w}");
        }
        assert_eq!(random.choose_victim(S0, ways([false; 4])), None);
    }

    /// The inlined replacer must reproduce the boxed reference policies'
    /// victim sequences exactly — same stamps, same rotation, same
    /// xorshift stream.
    #[test]
    fn inlined_replacers_match_boxed_policies() {
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::Fifo,
            ReplacementKind::RoundRobin,
            ReplacementKind::Random { seed: 99 },
        ] {
            let g = CacheGeometry::new(4, 4, 64).unwrap();
            let mut cache: SetAssocCache<()> = SetAssocCache::new(g, kind);
            let mut boxed = crate::replacement::reference::build(kind, g);
            // Drive an identical access pattern through both.
            let mut x = 12345u64;
            for _ in 0..500 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let set = SetIdx((x >> 33) as u32 % 4);
                let way = WayIdx((x >> 20) as u32 % 4);
                match x % 4 {
                    0 => {
                        cache.replacer.on_fill(cache.slot_index(set, way));
                        boxed.on_fill(set, way);
                    }
                    1 => {
                        cache.touch(set, way);
                        boxed.on_hit(set, way);
                    }
                    2 => {
                        cache.replacer.on_invalidate(cache.slot_index(set, way));
                        boxed.on_invalidate(set, way);
                    }
                    _ => {
                        let mask: Vec<bool> = (0..4).map(|w| (x >> w) & 1 == 1).collect();
                        assert_eq!(
                            cache.replacer.choose_victim(set.as_usize(), 4, |w| mask[w]),
                            boxed.choose_victim(set, &mask),
                            "victim divergence under {kind:?}"
                        );
                    }
                }
            }
        }
    }

    /// The same check on the shapes the 4-way test above does not
    /// reach: recency words of 16, 12, 8 and 5 ways (5 splits slot
    /// indices by division), and stamps on 3-, 1- and 20-way sets.
    /// Victims with every way eligible go through the fill path's
    /// `choose_victim_all` as well.
    #[test]
    fn packed_and_wide_sets_match_boxed_policies() {
        for (sets, ways) in [
            (2u32, 16u32),
            (4, 12),
            (4, 8),
            (2, 5),
            (3, 3),
            (1, 1),
            (2, 20),
        ] {
            for kind in [ReplacementKind::Lru, ReplacementKind::Fifo] {
                let g = CacheGeometry::new(sets, ways, 64).unwrap();
                let mut cache: SetAssocCache<()> = SetAssocCache::new(g, kind);
                let mut boxed = crate::replacement::reference::build(kind, g);
                let mut x = 0x2545_f491_4f6c_dd1du64;
                for step in 0..4000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let set = SetIdx((x >> 40) as u32 % sets);
                    let way = WayIdx((x >> 20) as u32 % ways);
                    let slot = cache.slot_index(set, way);
                    match x % 5 {
                        0 | 1 => {
                            cache.replacer.on_fill(slot);
                            boxed.on_fill(set, way);
                        }
                        2 => {
                            cache.touch(set, way);
                            boxed.on_hit(set, way);
                        }
                        3 => {
                            cache.replacer.on_invalidate(slot);
                            boxed.on_invalidate(set, way);
                        }
                        _ => {
                            let mask: Vec<bool> =
                                (0..ways).map(|w| (x >> (w % 64)) & 1 == 1).collect();
                            let all = vec![true; ways as usize];
                            let s = set.as_usize();
                            assert_eq!(
                                cache.replacer.choose_victim(s, ways as usize, |w| mask[w]),
                                boxed.choose_victim(set, &mask),
                                "{kind:?} {sets}x{ways}, step {step}"
                            );
                            assert_eq!(
                                cache.replacer.choose_victim_all(s, ways as usize),
                                boxed.choose_victim(set, &all),
                                "{kind:?} {sets}x{ways}, step {step}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The per-set occupied count must track the slots through every
    /// mutation: after each fill, `install_at`, take, invalidate or
    /// eviction, `free_way_in` and `occupancy` agree with a brute-force
    /// scan of the slots — including for the line address that equals
    /// the empty-way sentinel.
    #[test]
    fn occupied_counts_agree_with_a_slot_scan() {
        const SETS: u32 = 4;
        const WAYS: u32 = 4;
        // 1-byte lines make `u64::MAX` a real line address (set 3).
        let mut c: SetAssocCache<u8> = SetAssocCache::new(
            CacheGeometry::new(SETS, WAYS, 1).unwrap(),
            ReplacementKind::Lru,
        );
        let pool: Vec<LineAddr> = (0..24u64)
            .map(LineAddr::new)
            .chain([u64::MAX, u64::MAX - 4, u64::MAX - 8].map(LineAddr::new))
            .collect();
        let brute_free = |c: &SetAssocCache<u8>, set: u32| {
            (0..WAYS)
                .find(|&w| c.entry(SetIdx(set), WayIdx(w)).is_none())
                .map(WayIdx)
        };
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut sentinel_resident_steps = 0;
        for step in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = pool[(x >> 8) as usize % pool.len()];
            let set = c.set_of(line);
            match x % 5 {
                0 => {
                    if !c.contains(line) {
                        c.fill(line, false, 1);
                    }
                }
                1 => {
                    let free: Vec<u32> = (0..WAYS)
                        .filter(|&w| c.entry(set, WayIdx(w)).is_none())
                        .collect();
                    if !c.contains(line) && !free.is_empty() {
                        let w = free[(x >> 40) as usize % free.len()];
                        c.install_at(set, WayIdx(w), line, true, 2);
                    }
                }
                2 => {
                    c.take(set, WayIdx((x >> 32) as u32 % WAYS));
                }
                3 => {
                    c.invalidate(line);
                }
                _ => {
                    if let Some(w) = c.choose_victim(set, |e| e.meta != 0) {
                        c.take(set, w).expect("victims are occupied");
                    }
                }
            }
            for s in 0..SETS {
                let want = brute_free(&c, s);
                assert_eq!(c.free_way_in(SetIdx(s)), want, "step {step}, set {s}");
            }
            let occupied = c.iter().count();
            assert_eq!(c.occupancy(), occupied, "step {step}");
            sentinel_resident_steps += usize::from(c.contains(LineAddr::new(u64::MAX)));
        }
        assert!(
            sentinel_resident_steps > 0,
            "the sentinel line was never resident"
        );
    }
}
