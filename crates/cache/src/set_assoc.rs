//! A generic set-associative cache structure.
//!
//! [`SetAssocCache`] stores per-line metadata of any type `T`, so the same
//! structure backs the private L1/L2 caches (`T = ()`) and, in
//! `predllc-core`, the shared LLC (where `T` carries sharer bitmaps and the
//! eviction state machine).
//!
//! The storage is a single flat slot array (`set × ways + way`) with the
//! replacement bookkeeping inlined as flat per-way state, so the hit path
//! — the hottest loop of the whole simulator — is one bounded scan with no
//! pointer chasing and no dynamic dispatch. The unit tests check the
//! inlined replacer victim for victim against boxed reference
//! implementations of each [`ReplacementKind`] policy.

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
    /// LRU (`refresh_on_hit`) and FIFO (`!refresh_on_hit`): a per-way
    /// last-use/fill stamp driven by one monotonically increasing clock;
    /// the eligible way with the smallest stamp is the victim (ties to
    /// the lowest way, matching `min_by_key`).
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

impl Replacer {
    fn new(kind: ReplacementKind, sets: usize, ways: usize) -> Self {
        match kind {
            ReplacementKind::Lru => Replacer::Stamped {
                refresh_on_hit: true,
                stamp: vec![0; sets * ways],
                clock: 0,
            },
            ReplacementKind::Fifo => Replacer::Stamped {
                refresh_on_hit: false,
                stamp: vec![0; sets * ways],
                clock: 0,
            },
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

    #[inline]
    fn on_fill(&mut self, slot: usize) {
        if let Replacer::Stamped { stamp, clock, .. } = self {
            *clock += 1;
            stamp[slot] = *clock;
        }
    }

    #[inline]
    fn on_hit(&mut self, slot: usize) {
        if let Replacer::Stamped {
            refresh_on_hit: true,
            stamp,
            clock,
        } = self
        {
            *clock += 1;
            stamp[slot] = *clock;
        }
    }

    #[inline]
    fn on_invalidate(&mut self, slot: usize) {
        if let Replacer::Stamped { stamp, .. } = self {
            stamp[slot] = 0;
        }
    }

    /// Victim selection with every way eligible — the private-cache fill
    /// path, where no way is ever excluded. Bit-identical to
    /// `choose_victim(set, ways, &[true; ways])` without materializing
    /// the mask.
    fn choose_victim_all(&mut self, set: usize, ways: usize) -> Option<WayIdx> {
        if ways == 0 {
            return None;
        }
        match self {
            Replacer::Stamped { stamp, .. } => {
                let stamps = &stamp[set * ways..(set + 1) * ways];
                let mut best = 0usize;
                for (w, &s) in stamps.iter().enumerate().skip(1) {
                    if s < stamps[best] {
                        best = w;
                    }
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

    fn choose_victim(&mut self, set: usize, ways: usize, eligible: &[bool]) -> Option<WayIdx> {
        match self {
            Replacer::Stamped { stamp, .. } => {
                let stamps = &stamp[set * ways..set * ways + eligible.len().min(ways)];
                eligible
                    .iter()
                    .enumerate()
                    .filter(|(_, &e)| e)
                    .min_by_key(|(w, _)| stamps[*w])
                    .map(|(w, _)| WayIdx(w as u32))
            }
            Replacer::RoundRobin { next } => {
                let n = eligible.len();
                if n == 0 {
                    return None;
                }
                let start = next[set] % n;
                for i in 0..n {
                    let w = (start + i) % n;
                    if eligible[w] {
                        next[set] = (w + 1) % n;
                        return Some(WayIdx(w as u32));
                    }
                }
                None
            }
            Replacer::Random { state } => {
                let count = eligible.iter().filter(|&&e| e).count();
                if count == 0 {
                    return None;
                }
                let mut x = *state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *state = x;
                let pick = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % count as u64) as usize;
                eligible
                    .iter()
                    .enumerate()
                    .filter(|(_, &e)| e)
                    .nth(pick)
                    .map(|(w, _)| WayIdx(w as u32))
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

    /// First truly empty way at or after `base` — the sentinel scan,
    /// confirmed against the slot array (a stored line address equal to
    /// the sentinel must not read as a free way).
    fn free_way_idx(&self, base: usize) -> Option<usize> {
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
        let base = self.set_index(line) * self.ways;
        self.free_way_idx(base).map(|w| WayIdx(w as u32))
    }

    /// Returns a free way in `set`, if any (lowest index first).
    pub fn free_way_in(&self, set: SetIdx) -> Option<WayIdx> {
        let base = set.as_usize() * self.ways;
        self.free_way_idx(base).map(|w| WayIdx(w as u32))
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
        let (way, evicted) = match self.free_way_in(SetIdx(set as u32)) {
            Some(way) => (way.as_usize(), None),
            None => {
                let way = self
                    .replacer
                    .choose_victim_all(set, self.ways)
                    .expect("replacement policy must pick a victim from a full mask")
                    .as_usize();
                let old = self.slots[base + way].take();
                self.replacer.on_invalidate(base + way);
                (way, old)
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
        self.replacer.on_fill(idx);
    }

    /// Removes and returns the entry at `(set, way)`.
    pub fn take(&mut self, set: SetIdx, way: WayIdx) -> Option<Entry<T>> {
        let idx = self.slot_index(set, way);
        let e = self.slots[idx].take();
        if e.is_some() {
            self.lines[idx] = EMPTY_LINE;
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

    /// Chooses a victim way in `set` among ways where `eligible` is true.
    ///
    /// Exposed for the LLC, which restricts eligibility to the active
    /// partition's ways minus lines that are already mid-eviction.
    pub fn choose_victim(&mut self, set: SetIdx, eligible: &[bool]) -> Option<WayIdx> {
        self.replacer
            .choose_victim(set.as_usize(), self.ways, eligible)
    }

    /// Chooses a victim with every way eligible and removes it from the
    /// cache — the conventional fill path's eviction, without the caller
    /// having to materialize an all-`true` eligibility mask. Returns
    /// `None` only when the set has an empty way (nothing to evict).
    pub fn evict_victim_in(&mut self, set: SetIdx) -> Option<Entry<T>> {
        if self.free_way_in(set).is_some() {
            return None;
        }
        let way = self
            .replacer
            .choose_victim_all(set.as_usize(), self.ways)
            .expect("replacement policy must pick a victim from a full set");
        self.take(set, way)
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

    /// Iterates over the occupied entries of one set.
    pub fn iter_set(&self, set: SetIdx) -> impl Iterator<Item = (WayIdx, &Entry<T>)> {
        let base = set.as_usize() * self.ways;
        self.slots[base..base + self.ways]
            .iter()
            .enumerate()
            .filter_map(|(w, e)| e.as_ref().map(|e| (WayIdx(w as u32), e)))
    }

    /// The number of occupied lines.
    pub fn occupancy(&self) -> usize {
        self.iter().count()
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
    fn iter_set_reports_ways() {
        let mut c = small();
        c.fill(L0, false, 1);
        c.fill(L2, false, 2);
        let set0: Vec<_> = c.iter_set(SetIdx(0)).map(|(w, e)| (w, e.line)).collect();
        assert_eq!(set0, vec![(WayIdx(0), L0), (WayIdx(1), L2)]);
        assert_eq!(c.iter_set(SetIdx(1)).count(), 0);
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

    #[test]
    fn each_policy_picks_victims_by_its_rule() {
        const S0: SetIdx = SetIdx(0);
        let all = [true; 4];
        // LRU: a hit refreshes, the mask excludes, an invalidated way
        // goes first, an empty mask has no victim.
        let mut lru = full_set(ReplacementKind::Lru);
        lru.touch(S0, WayIdx(0));
        assert_eq!(lru.choose_victim(S0, &all), Some(WayIdx(1)));
        assert_eq!(
            lru.choose_victim(S0, &[true, false, true, true]),
            Some(WayIdx(2))
        );
        lru.take(S0, WayIdx(3));
        assert_eq!(lru.choose_victim(S0, &all), Some(WayIdx(3)));
        assert_eq!(lru.choose_victim(S0, &[false; 4]), None);
        // FIFO: hits do not refresh.
        let mut fifo = full_set(ReplacementKind::Fifo);
        fifo.touch(S0, WayIdx(0));
        assert_eq!(fifo.choose_victim(S0, &all), Some(WayIdx(0)));
        // Round-robin: rotates, skipping ineligible ways.
        let mut rr = full_set(ReplacementKind::RoundRobin);
        let picks: Vec<_> = (0..5).map(|_| rr.choose_victim(S0, &all)).collect();
        assert_eq!(picks, [0, 1, 2, 3, 0].map(|w| Some(WayIdx(w))));
        let only_1 = [false, true, false, false];
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
            let w = random.choose_victim(S0, &mask).unwrap();
            assert!(mask[w.as_usize()], "picked ineligible way {w}");
        }
        assert_eq!(random.choose_victim(S0, &[false; 4]), None);
        assert_eq!(random.choose_victim(S0, &[]), None);
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
                            cache.choose_victim(set, &mask),
                            boxed.choose_victim(set, &mask),
                            "victim divergence under {kind:?}"
                        );
                    }
                }
            }
        }
    }
}
