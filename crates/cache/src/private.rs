//! The private cache hierarchy of one core: L1I + L1D over a unified L2.
//!
//! Inclusion discipline (paper §3): the LLC is inclusive of L2, and L2 is
//! inclusive of both L1s, so an LLC eviction forces evictions "in both the
//! L1 and L2 private caches". This module maintains the L1 ⊆ L2 half; the
//! LLC ⊇ L2 half is driven from `predllc-core` through
//! [`PrivateHierarchy::back_invalidate`].
//!
//! Writes are write-back/write-allocate: a store dirties the L1 line, an L1
//! eviction folds dirtiness into L2, and only an L2 eviction (or an LLC
//! back-invalidation) produces bus traffic.
//!
//! Each L2 copy keeps the opaque `u32` tag its [`PrivateHierarchy::refill`]
//! caller gave it, and a clean L2 victim hands the tag back
//! ([`RefillEffect::clean_drop`]). The LLC tags each copy with the way
//! that answered it, so the drop finds its LLC entry without a scan.

use predllc_model::{CacheGeometry, LineAddr, MemOp};

use crate::replacement::ReplacementKind;
use crate::set_assoc::SetAssocCache;

/// Where a private-hierarchy lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrivateLookup {
    /// Hit in the L1 (instruction or data, depending on the access kind).
    L1Hit,
    /// Miss in L1, hit in L2; the line was promoted into L1.
    L2Hit,
    /// Miss in both private levels; the request must go to the LLC.
    Miss,
}

/// Side effects of refilling a line after an LLC response.
///
/// At most one of the two fields is `Some`: an L2 victim either needs a
/// real write-back on the bus (it was dirty somewhere in the private
/// hierarchy) or is silently dropped (clean).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefillEffect {
    /// A dirty L2 victim that must be written back to the LLC.
    pub dirty_writeback: Option<LineAddr>,
    /// A clean L2 victim dropped without bus traffic, with the tag its
    /// refill was given. The LLC's sharer bookkeeping becomes
    /// conservatively stale, which only ever *adds* back-invalidation
    /// work — consistent with worst-case analysis.
    pub clean_drop: Option<(LineAddr, u32)>,
}

/// Result of an LLC-initiated back-invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackInvalOutcome {
    /// Whether any private level actually held the line.
    pub had_line: bool,
    /// Whether any private copy was dirty (the write-back carries data).
    pub dirty: bool,
}

/// The private L1I/L1D/L2 hierarchy of a single core.
///
/// # Examples
///
/// ```
/// use predllc_cache::{PrivateHierarchy, PrivateLookup};
/// use predllc_model::{Address, CacheGeometry, MemOp};
///
/// let mut h = PrivateHierarchy::paper_default();
/// let op = MemOp::read(Address::new(0x40));
/// assert_eq!(h.access(op), PrivateLookup::Miss);
/// h.refill(op, 0); // LLC responded
/// assert_eq!(h.access(op), PrivateLookup::L1Hit);
/// ```
#[derive(Debug)]
pub struct PrivateHierarchy {
    l1i: SetAssocCache<()>,
    l1d: SetAssocCache<()>,
    /// Each L2 entry's metadata is its refill's tag.
    l2: SetAssocCache<u32>,
}

impl PrivateHierarchy {
    /// Builds a hierarchy with explicit geometries and one replacement
    /// policy for all levels.
    pub fn new(
        l1i: CacheGeometry,
        l1d: CacheGeometry,
        l2: CacheGeometry,
        replacement: ReplacementKind,
    ) -> Self {
        PrivateHierarchy {
            l1i: SetAssocCache::new(l1i, replacement),
            l1d: SetAssocCache::new(l1d, replacement),
            l2: SetAssocCache::new(l2, replacement),
        }
    }

    /// The paper's configuration: 4-way × 16-set L2, small default L1s,
    /// LRU everywhere.
    pub fn paper_default() -> Self {
        PrivateHierarchy::new(
            CacheGeometry::DEFAULT_L1,
            CacheGeometry::DEFAULT_L1,
            CacheGeometry::PAPER_L2,
            ReplacementKind::Lru,
        )
    }

    /// Performs a lookup for `op`, updating recency and dirtiness.
    ///
    /// On [`PrivateLookup::L2Hit`] the line is promoted into the
    /// appropriate L1 (possibly folding an L1 victim's dirtiness into L2).
    /// On [`PrivateLookup::Miss`] no state changes; the caller must later
    /// call [`Self::refill`] with the same operation once the LLC
    /// responds.
    pub fn access(&mut self, op: MemOp) -> PrivateLookup {
        let line = op.addr.line();
        let l1 = if op.kind.is_instr() {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        if let Some(e) = l1.lookup(line) {
            if op.kind.is_write() {
                e.dirty = true;
            }
            return PrivateLookup::L1Hit;
        }
        if self.l2.lookup(line).is_some() {
            self.promote_to_l1(op);
            return PrivateLookup::L2Hit;
        }
        PrivateLookup::Miss
    }

    /// Installs `op`'s line after an LLC response, enforcing L1 ⊆ L2.
    /// The L2 copy keeps `tag` until it leaves, and returns it if it is
    /// dropped clean.
    ///
    /// Returns which L2 victim (if any) must be written back on the bus or
    /// was dropped clean.
    pub fn refill(&mut self, op: MemOp, tag: u32) -> RefillEffect {
        let line = op.addr.line();
        let mut effect = RefillEffect::default();
        debug_assert!(
            !self.l2.contains(line),
            "refill of {line} already present in L2"
        );
        // 1. Install in L2 (clean; dirtiness lives in L1 until folded),
        //    into the way its victim frees when the set is full. The
        //    victim leaves the private hierarchy entirely, per inclusion.
        if let Some(victim) = self.l2.fill(line, false, tag) {
            let mut dirty = victim.dirty;
            if let Some(e) = self.l1i.invalidate(victim.line) {
                dirty |= e.dirty;
            }
            if let Some(e) = self.l1d.invalidate(victim.line) {
                dirty |= e.dirty;
            }
            if dirty {
                effect.dirty_writeback = Some(victim.line);
            } else {
                effect.clean_drop = Some((victim.line, victim.meta));
            }
        }
        // 2. Install in the right L1.
        self.promote_to_l1(op);
        effect
    }

    /// Removes `line` from every private level (LLC-initiated eviction).
    ///
    /// L2 answers first: L1 ⊆ L2, so a line L2 lacks is in neither L1
    /// and neither is scanned.
    pub fn back_invalidate(&mut self, line: LineAddr) -> BackInvalOutcome {
        let Some(e) = self.l2.invalidate(line) else {
            return BackInvalOutcome {
                had_line: false,
                dirty: false,
            };
        };
        let mut dirty = e.dirty;
        if let Some(e) = self.l1i.invalidate(line) {
            dirty |= e.dirty;
        }
        if let Some(e) = self.l1d.invalidate(line) {
            dirty |= e.dirty;
        }
        BackInvalOutcome {
            had_line: true,
            dirty,
        }
    }

    /// Whether any private level holds `line`.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.l1i.contains(line) || self.l1d.contains(line) || self.l2.contains(line)
    }

    /// Iterates over the lines currently held in L2.
    pub fn l2_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.l2.iter().map(|e| e.line)
    }

    /// Checks the L1 ⊆ L2 inclusion invariant.
    ///
    /// # Errors
    ///
    /// Returns the first violating line, for test diagnostics.
    #[cfg(test)]
    fn check_inclusion(&self) -> Result<(), LineAddr> {
        for e in self.l1i.iter().chain(self.l1d.iter()) {
            if !self.l2.contains(e.line) {
                return Err(e.line);
            }
        }
        Ok(())
    }

    /// Promotes `op`'s line into the appropriate L1, folding any L1
    /// victim's dirtiness into L2. Both callers know the line is in L2
    /// and absent from that L1 (`access` just missed it there; `refill`
    /// had it in neither level), so this is a fill without a lookup.
    fn promote_to_l1(&mut self, op: MemOp) {
        let l1 = if op.kind.is_instr() {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        if let Some(victim) = l1.fill(op.addr.line(), op.kind.is_write(), ()) {
            if victim.dirty {
                // Inclusion guarantees the victim is still in L2. Use
                // peek_mut: folding a dirty bit is not a use for recency.
                if let Some(e) = self.l2.peek_mut(victim.line) {
                    e.dirty = true;
                } else {
                    debug_assert!(false, "L1 victim {} missing from L2", victim.line);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predllc_model::Address;

    fn tiny() -> PrivateHierarchy {
        // L1: 1 set × 1 way; L2: 1 set × 2 ways. Tiny enough to force
        // every eviction path.
        PrivateHierarchy::new(
            CacheGeometry::new(1, 1, 64).unwrap(),
            CacheGeometry::new(1, 1, 64).unwrap(),
            CacheGeometry::new(1, 2, 64).unwrap(),
            ReplacementKind::Lru,
        )
    }

    fn read(line: u64) -> MemOp {
        MemOp::read(Address::new(line * 64))
    }

    fn write(line: u64) -> MemOp {
        MemOp::write(Address::new(line * 64))
    }

    #[test]
    fn miss_refill_hit_cycle() {
        let mut h = tiny();
        assert_eq!(h.access(read(0)), PrivateLookup::Miss);
        let eff = h.refill(read(0), 0);
        assert_eq!(eff, RefillEffect::default());
        assert_eq!(h.access(read(0)), PrivateLookup::L1Hit);
    }

    #[test]
    fn l2_hit_promotes_into_l1() {
        let mut h = tiny();
        h.refill(read(0), 0);
        h.refill(read(1), 0); // L1D (1-entry) now holds line 1; line 0 only in L2
        assert_eq!(h.access(read(0)), PrivateLookup::L2Hit);
        // Promoted: next access is an L1 hit.
        assert_eq!(h.access(read(0)), PrivateLookup::L1Hit);
    }

    #[test]
    fn clean_l2_victim_drops_silently() {
        let mut h = tiny();
        h.refill(read(0), 7);
        h.refill(read(1), 8);
        let eff = h.refill(read(2), 9); // evicts LRU line 0, clean
        assert_eq!(
            eff.clean_drop,
            Some((LineAddr::new(0), 7)),
            "the tag comes back"
        );
        assert_eq!(eff.dirty_writeback, None);
        assert!(!h.contains(LineAddr::new(0)));
    }

    #[test]
    fn dirty_line_forces_writeback_on_l2_eviction() {
        let mut h = tiny();
        h.refill(write(0), 0); // dirty in L1
        h.refill(read(1), 0);
        let eff = h.refill(read(2), 0); // evicts line 0; dirtiness was in L1
        assert_eq!(eff.dirty_writeback, Some(LineAddr::new(0)));
        assert_eq!(eff.clean_drop, None);
    }

    #[test]
    fn l1_victim_dirtiness_folds_into_l2() {
        let mut h = tiny();
        h.refill(write(0), 0); // line 0 dirty in L1D
        h.refill(read(1), 0); // L1D 1-entry: victim line 0 folds dirty into L2
                              // Now evicting line 0 from L2 must report dirty even though the L1
                              // copy is gone.
        let eff = h.refill(read(2), 0);
        assert_eq!(eff.dirty_writeback, Some(LineAddr::new(0)));
    }

    #[test]
    fn back_invalidate_reports_dirtiness_and_clears() {
        let mut h = tiny();
        h.refill(write(0), 0);
        let out = h.back_invalidate(LineAddr::new(0));
        assert_eq!(
            out,
            BackInvalOutcome {
                had_line: true,
                dirty: true
            }
        );
        assert!(!h.contains(LineAddr::new(0)));
        // Second invalidation: nothing there.
        let out = h.back_invalidate(LineAddr::new(0));
        assert!(!out.had_line);
        assert!(!out.dirty);
    }

    #[test]
    fn back_invalidate_clean_line() {
        let mut h = tiny();
        h.refill(read(0), 0);
        let out = h.back_invalidate(LineAddr::new(0));
        assert!(out.had_line);
        assert!(!out.dirty);
    }

    #[test]
    fn instruction_and_data_streams_use_separate_l1s() {
        let mut h = tiny();
        h.refill(MemOp::fetch(Address::new(0)), 0);
        h.refill(read(1), 0);
        // Both L1s hold their lines (1-entry each) without evicting the
        // other stream's line.
        assert_eq!(
            h.access(MemOp::fetch(Address::new(0))),
            PrivateLookup::L1Hit
        );
        assert_eq!(h.access(read(1)), PrivateLookup::L1Hit);
    }

    #[test]
    fn inclusion_invariant_holds_under_churn() {
        let mut h = PrivateHierarchy::paper_default();
        for i in 0..1000u64 {
            let line = (i * 7 + i / 3) % 256;
            let op = if i % 3 == 0 { write(line) } else { read(line) };
            if h.access(op) == PrivateLookup::Miss {
                h.refill(op, 0);
            }
            h.check_inclusion().expect("L1 subset of L2");
        }
    }

    #[test]
    fn write_hit_dirties_without_refill() {
        let mut h = tiny();
        h.refill(read(0), 0); // clean everywhere
        assert_eq!(h.access(write(0)), PrivateLookup::L1Hit); // dirties L1
        h.refill(read(1), 0);
        let eff = h.refill(read(2), 0);
        assert_eq!(eff.dirty_writeback, Some(LineAddr::new(0)));
    }

    #[test]
    fn l2_lines_lists_refilled_lines() {
        let mut h = tiny();
        h.refill(read(0), 0);
        h.refill(read(1), 0);
        let mut lines: Vec<_> = h.l2_lines().map(LineAddr::as_u64).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 1]);
    }
}
