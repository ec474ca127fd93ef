//! Replacement policies for set-associative caches.
//!
//! The paper's WCL analysis holds for *any* replacement policy (§4.3:
//! "our observation is agnostic of replacement policy … including
//! least-recently used"). To let experiments exercise that claim,
//! [`ReplacementKind`] selects LRU (the default), FIFO, round-robin, or a
//! deterministic xorshift-based pseudo-random policy, which
//! [`SetAssocCache`](crate::SetAssocCache) implements inline.

use std::fmt;

/// The selectable replacement policies, as configuration data.
///
/// # Examples
///
/// ```
/// use predllc_cache::{ReplacementKind, SetAssocCache};
/// use predllc_model::CacheGeometry;
///
/// let cache: SetAssocCache<()> =
///     SetAssocCache::new(CacheGeometry::PAPER_L2, ReplacementKind::Fifo);
/// assert_eq!(ReplacementKind::default(), ReplacementKind::Lru);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// Least-recently-used (per-set recency stack).
    #[default]
    Lru,
    /// First-in-first-out (victimize oldest fill, ignore hits).
    Fifo,
    /// Round-robin pointer per set.
    RoundRobin,
    /// Deterministic pseudo-random (xorshift64*), seeded.
    Random {
        /// Seed for the xorshift state; same seed ⇒ same victim sequence.
        seed: u64,
    },
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplacementKind::Lru => f.write_str("LRU"),
            ReplacementKind::Fifo => f.write_str("FIFO"),
            ReplacementKind::RoundRobin => f.write_str("round-robin"),
            ReplacementKind::Random { seed } => write!(f, "random(seed={seed})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_display_and_default_to_lru() {
        for (kind, name) in [
            (ReplacementKind::Lru, "LRU"),
            (ReplacementKind::Fifo, "FIFO"),
            (ReplacementKind::RoundRobin, "round-robin"),
            (ReplacementKind::Random { seed: 1 }, "random(seed=1)"),
        ] {
            assert_eq!(kind.to_string(), name);
        }
        assert_eq!(ReplacementKind::default(), ReplacementKind::Lru);
    }
}

/// Boxed, one-struct-per-policy implementations of every
/// [`ReplacementKind`] — the straightforward reference the inlined
/// replacer of [`SetAssocCache`](crate::SetAssocCache) is checked
/// against, victim for victim.
#[cfg(test)]
pub(crate) mod reference {
    use predllc_model::{CacheGeometry, SetIdx, WayIdx};

    use super::ReplacementKind;

    /// Per-set victim selection and usage bookkeeping for one cache,
    /// notified of every fill, hit and invalidation. Victim selection
    /// takes an eligibility mask: the LLC excludes ways outside the
    /// active partition and ways whose lines are mid-eviction.
    pub(crate) trait ReplacementPolicy: std::fmt::Debug {
        /// `way` of `set` was filled with a new line.
        fn on_fill(&mut self, set: SetIdx, way: WayIdx);

        /// `way` of `set` was hit.
        fn on_hit(&mut self, set: SetIdx, way: WayIdx);

        /// `way` of `set` was invalidated.
        fn on_invalidate(&mut self, set: SetIdx, way: WayIdx) {
            let _ = (set, way);
        }

        /// A victim among the ways where `eligible[way]` is `true`, or
        /// `None` if no way is eligible.
        fn choose_victim(&mut self, set: SetIdx, eligible: &[bool]) -> Option<WayIdx>;
    }

    /// Instantiates `kind` for a cache of the given geometry.
    pub(crate) fn build(
        kind: ReplacementKind,
        geometry: CacheGeometry,
    ) -> Box<dyn ReplacementPolicy> {
        let sets = geometry.sets() as usize;
        let ways = geometry.ways() as usize;
        match kind {
            ReplacementKind::Lru => Box::new(Lru::new(sets, ways)),
            ReplacementKind::Fifo => Box::new(Fifo::new(sets, ways)),
            ReplacementKind::RoundRobin => Box::new(RoundRobin::new(sets)),
            ReplacementKind::Random { seed } => Box::new(XorShiftRandom::new(seed)),
        }
    }

    /// Least-recently-used: per set, a monotonically increasing timestamp per
    /// way; the eligible way with the smallest timestamp is the victim.
    #[derive(Debug)]
    struct Lru {
        /// `stamp[set][way]`: last-use time; 0 means "never used".
        stamp: Vec<Vec<u64>>,
        clock: u64,
    }

    impl Lru {
        fn new(sets: usize, ways: usize) -> Self {
            Lru {
                stamp: vec![vec![0; ways]; sets],
                clock: 0,
            }
        }

        fn touch(&mut self, set: SetIdx, way: WayIdx) {
            self.clock += 1;
            self.stamp[set.as_usize()][way.as_usize()] = self.clock;
        }
    }

    impl ReplacementPolicy for Lru {
        fn on_fill(&mut self, set: SetIdx, way: WayIdx) {
            self.touch(set, way);
        }

        fn on_hit(&mut self, set: SetIdx, way: WayIdx) {
            self.touch(set, way);
        }

        fn on_invalidate(&mut self, set: SetIdx, way: WayIdx) {
            self.stamp[set.as_usize()][way.as_usize()] = 0;
        }

        fn choose_victim(&mut self, set: SetIdx, eligible: &[bool]) -> Option<WayIdx> {
            let stamps = &self.stamp[set.as_usize()];
            eligible
                .iter()
                .enumerate()
                .filter(|(_, &e)| e)
                .min_by_key(|(w, _)| stamps[*w])
                .map(|(w, _)| WayIdx(w as u32))
        }
    }

    /// FIFO: like LRU but hits do not refresh the timestamp.
    #[derive(Debug)]
    struct Fifo {
        stamp: Vec<Vec<u64>>,
        clock: u64,
    }

    impl Fifo {
        fn new(sets: usize, ways: usize) -> Self {
            Fifo {
                stamp: vec![vec![0; ways]; sets],
                clock: 0,
            }
        }
    }

    impl ReplacementPolicy for Fifo {
        fn on_fill(&mut self, set: SetIdx, way: WayIdx) {
            self.clock += 1;
            self.stamp[set.as_usize()][way.as_usize()] = self.clock;
        }

        fn on_hit(&mut self, _set: SetIdx, _way: WayIdx) {}

        fn on_invalidate(&mut self, set: SetIdx, way: WayIdx) {
            self.stamp[set.as_usize()][way.as_usize()] = 0;
        }

        fn choose_victim(&mut self, set: SetIdx, eligible: &[bool]) -> Option<WayIdx> {
            let stamps = &self.stamp[set.as_usize()];
            eligible
                .iter()
                .enumerate()
                .filter(|(_, &e)| e)
                .min_by_key(|(w, _)| stamps[*w])
                .map(|(w, _)| WayIdx(w as u32))
        }
    }

    /// Round-robin: a rotating pointer per set; the next eligible way at or
    /// after the pointer is the victim, and the pointer advances past it.
    #[derive(Debug)]
    struct RoundRobin {
        next: Vec<usize>,
    }

    impl RoundRobin {
        fn new(sets: usize) -> Self {
            RoundRobin {
                next: vec![0; sets],
            }
        }
    }

    impl ReplacementPolicy for RoundRobin {
        fn on_fill(&mut self, _set: SetIdx, _way: WayIdx) {}

        fn on_hit(&mut self, _set: SetIdx, _way: WayIdx) {}

        fn choose_victim(&mut self, set: SetIdx, eligible: &[bool]) -> Option<WayIdx> {
            let ways = eligible.len();
            if ways == 0 {
                return None;
            }
            let start = self.next[set.as_usize()] % ways;
            for i in 0..ways {
                let w = (start + i) % ways;
                if eligible[w] {
                    self.next[set.as_usize()] = (w + 1) % ways;
                    return Some(WayIdx(w as u32));
                }
            }
            None
        }
    }

    /// Deterministic pseudo-random selection using xorshift64*.
    ///
    /// "Random" replacement in real hardware is a cheap LFSR; this models the
    /// same behaviour reproducibly.
    #[derive(Debug)]
    struct XorShiftRandom {
        state: u64,
    }

    impl XorShiftRandom {
        fn new(seed: u64) -> Self {
            // Scramble the seed with splitmix64 so that nearby seeds diverge
            // and zero never becomes the xorshift state.
            let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            XorShiftRandom { state: z | 1 }
        }

        fn next(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    impl ReplacementPolicy for XorShiftRandom {
        fn on_fill(&mut self, _set: SetIdx, _way: WayIdx) {}

        fn on_hit(&mut self, _set: SetIdx, _way: WayIdx) {}

        fn choose_victim(&mut self, _set: SetIdx, eligible: &[bool]) -> Option<WayIdx> {
            let count = eligible.iter().filter(|&&e| e).count();
            if count == 0 {
                return None;
            }
            let pick = (self.next() % count as u64) as usize;
            eligible
                .iter()
                .enumerate()
                .filter(|(_, &e)| e)
                .nth(pick)
                .map(|(w, _)| WayIdx(w as u32))
        }
    }
}
