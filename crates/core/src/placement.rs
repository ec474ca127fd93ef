//! Physical placement of partitions onto the LLC's sets × ways grid.
//!
//! [`PartitionMap`] validation checks capacity; real deployments also
//! need concrete **placement**: each partition must occupy a disjoint
//! rectangle of the physical cache (a set range × way range), the way
//! hardware way-masking (Arm Lite-DSU, Intel CAT) and page coloring
//! (sets) compose. [`pack`] computes such a placement with a shelf
//! packer, or reports that the partitions do not fit rectangularly.
//!
//! The packer is *sufficient*, not *necessary*: shelf packing can fail
//! on instances an optimal rectangle packer could place. For the paper's
//! configurations (uniform partitions) it is exact.

use std::error::Error;
use std::fmt;

use predllc_model::{CacheGeometry, PartitionId};

use crate::partition::PartitionMap;

/// The physical rectangle assigned to one partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Which partition this rectangle belongs to.
    pub partition: PartitionId,
    /// First physical set of the rectangle.
    pub set_start: u32,
    /// Number of sets.
    pub sets: u32,
    /// First physical way of the rectangle.
    pub way_start: u32,
    /// Number of ways.
    pub ways: u32,
}

impl Placement {
    /// Whether two placements overlap anywhere.
    pub(crate) fn overlaps(&self, other: &Placement) -> bool {
        let set_overlap = self.set_start < other.set_start + other.sets
            && other.set_start < self.set_start + self.sets;
        let way_overlap = self.way_start < other.way_start + other.ways
            && other.way_start < self.way_start + self.ways;
        set_overlap && way_overlap
    }

    /// Whether the rectangle fits inside `physical`.
    pub fn fits(&self, physical: CacheGeometry) -> bool {
        self.set_start + self.sets <= physical.sets()
            && self.way_start + self.ways <= physical.ways()
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: sets {}..{}, ways {}..{}",
            self.partition,
            self.set_start,
            self.set_start + self.sets,
            self.way_start,
            self.way_start + self.ways
        )
    }
}

/// Why packing failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlacementError {
    /// The shelf packer ran out of ways. The instance may still be
    /// packable by an optimal packer; try reshaping partitions.
    DoesNotFit {
        /// Ways the shelves would need.
        ways_needed: u32,
        /// Ways the physical cache has.
        ways_available: u32,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::DoesNotFit {
                ways_needed,
                ways_available,
            } => write!(
                f,
                "shelf packing needs {ways_needed} ways but the cache has {ways_available} \
                 (try reshaping partitions)"
            ),
        }
    }
}

impl Error for PlacementError {}

/// Packs the partitions of `map` into `physical` using shelf packing:
/// partitions are sorted by decreasing way count and placed left to
/// right along the set axis on "shelves" spanning a way range; a new
/// shelf opens when the current one runs out of sets.
///
/// The returned placements are disjoint and in-bounds (guaranteed, and
/// re-checked by a debug assertion).
///
/// # Errors
///
/// [`PlacementError::DoesNotFit`] when the shelves exceed the physical
/// way count.
///
/// # Examples
///
/// ```
/// use predllc_core::placement::pack;
/// use predllc_core::{PartitionMap, PartitionSpec};
/// use predllc_model::{CacheGeometry, CoreId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The paper's P(8,2) x 4 split of a 4096 B budget.
/// let map = PartitionMap::new(
///     (0..4).map(|i| PartitionSpec::private(8, 2, CoreId::new(i))).collect(),
///     4,
///     CacheGeometry::PAPER_L3,
/// )?;
/// let placements = pack(&map, CacheGeometry::PAPER_L3)?;
/// assert_eq!(placements.len(), 4);
/// # Ok(())
/// # }
/// ```
pub fn pack(map: &PartitionMap, physical: CacheGeometry) -> Result<Vec<Placement>, PlacementError> {
    // Indices sorted by decreasing ways, then decreasing sets: tallest
    // shelves first minimizes wasted way-bands.
    let mut order: Vec<usize> = (0..map.len()).collect();
    order.sort_by_key(|&i| {
        let p = &map.partitions()[i];
        (std::cmp::Reverse(p.ways), std::cmp::Reverse(p.sets))
    });

    let mut placements = vec![None; map.len()];
    let mut shelf_way_start = 0u32; // first way of the open shelf
    let mut shelf_ways = 0u32; // height of the open shelf
    let mut set_cursor = 0u32; // next free set on the open shelf

    for &i in &order {
        let p = &map.partitions()[i];
        let fits_open_shelf =
            shelf_ways >= p.ways && set_cursor + p.sets <= physical.sets() && shelf_ways > 0;
        if !fits_open_shelf {
            // Open a new shelf above the previous one.
            shelf_way_start += shelf_ways;
            shelf_ways = p.ways;
            set_cursor = 0;
            if shelf_way_start + shelf_ways > physical.ways() {
                return Err(PlacementError::DoesNotFit {
                    ways_needed: shelf_way_start + shelf_ways,
                    ways_available: physical.ways(),
                });
            }
        }
        placements[i] = Some(Placement {
            partition: PartitionId::new(i as u16),
            set_start: set_cursor,
            sets: p.sets,
            way_start: shelf_way_start,
            ways: p.ways,
        });
        set_cursor += p.sets;
    }

    let placements: Vec<Placement> = placements
        .into_iter()
        .map(|p| p.expect("every partition was placed"))
        .collect();
    debug_assert!(check_disjoint_and_in_bounds(&placements, physical).is_ok());
    Ok(placements)
}

/// Verifies placements are pairwise disjoint and inside `physical`.
///
/// # Errors
///
/// Returns the first offending pair (or a placement paired with itself
/// when it is out of bounds).
pub(crate) fn check_disjoint_and_in_bounds(
    placements: &[Placement],
    physical: CacheGeometry,
) -> Result<(), (Placement, Placement)> {
    for (i, a) in placements.iter().enumerate() {
        if !a.fits(physical) {
            return Err((*a, *a));
        }
        for b in &placements[i + 1..] {
            if a.overlaps(b) {
                return Err((*a, *b));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartitionSpec, SharingMode};
    use predllc_model::CoreId;

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    fn map(specs: Vec<PartitionSpec>, n: u16) -> PartitionMap {
        PartitionMap::new(specs, n, CacheGeometry::PAPER_L3).unwrap()
    }

    #[test]
    fn paper_private_split_packs() {
        let m = map(
            (0..4).map(|i| PartitionSpec::private(8, 2, c(i))).collect(),
            4,
        );
        let p = pack(&m, CacheGeometry::PAPER_L3).unwrap();
        check_disjoint_and_in_bounds(&p, CacheGeometry::PAPER_L3).unwrap();
        // Four 8x2 partitions fit on one 2-way shelf (4 x 8 = 32 sets).
        assert!(p.iter().all(|pl| pl.way_start == 0 && pl.ways == 2));
    }

    #[test]
    fn mixed_private_and_shared_pack() {
        let m = map(
            vec![
                PartitionSpec::private(8, 16, c(0)),
                PartitionSpec::shared(24, 4, vec![c(1), c(2), c(3)], SharingMode::SetSequencer),
            ],
            4,
        );
        let p = pack(&m, CacheGeometry::PAPER_L3).unwrap();
        check_disjoint_and_in_bounds(&p, CacheGeometry::PAPER_L3).unwrap();
        // The taller partition opens the first shelf; the shorter one
        // still fits beside it on the set axis, so no new shelf opens.
        assert_eq!(p[0].way_start, 0);
        assert_eq!((p[1].way_start, p[1].set_start), (0, 8));
    }

    #[test]
    fn full_llc_single_partition() {
        let m = map(
            vec![PartitionSpec::shared(
                32,
                16,
                CoreId::first(4).collect(),
                SharingMode::SetSequencer,
            )],
            4,
        );
        let p = pack(&m, CacheGeometry::PAPER_L3).unwrap();
        assert_eq!(p[0].sets, 32);
        assert_eq!(p[0].ways, 16);
        assert_eq!(p[0].set_start, 0);
        assert_eq!(p[0].way_start, 0);
    }

    #[test]
    fn shelf_overflow_is_reported() {
        // Three 20-set x 8-way partitions pass the capacity check
        // (480 <= 512 lines) but no two fit side by side on the set
        // axis, so shelf packing needs 24 ways > 16.
        let m = map(
            (0..3)
                .map(|i| PartitionSpec::private(20, 8, c(i)))
                .collect(),
            3,
        );
        let err = pack(&m, CacheGeometry::PAPER_L3).unwrap_err();
        assert!(matches!(
            err,
            PlacementError::DoesNotFit {
                ways_needed: 24,
                ways_available: 16
            }
        ));
    }

    #[test]
    fn placements_returned_in_partition_order() {
        let m = map(
            vec![
                PartitionSpec::private(4, 2, c(0)),  // small: placed later...
                PartitionSpec::private(8, 16, c(1)), // ...but index order preserved
            ],
            2,
        );
        let p = pack(&m, CacheGeometry::PAPER_L3).unwrap();
        assert_eq!(p[0].partition, PartitionId::new(0));
        assert_eq!(p[0].ways, 2);
        assert_eq!(p[1].partition, PartitionId::new(1));
        assert_eq!(p[1].ways, 16);
    }

    #[test]
    fn overlap_detection() {
        let a = Placement {
            partition: PartitionId::new(0),
            set_start: 0,
            sets: 8,
            way_start: 0,
            ways: 4,
        };
        let b = Placement {
            partition: PartitionId::new(1),
            set_start: 4,
            sets: 8,
            way_start: 2,
            ways: 4,
        };
        let c = Placement {
            partition: PartitionId::new(2),
            set_start: 8,
            sets: 8,
            way_start: 0,
            ways: 4,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert_eq!(
            check_disjoint_and_in_bounds(&[a, b], CacheGeometry::PAPER_L3),
            Err((a, b))
        );
        assert!(check_disjoint_and_in_bounds(&[a, c], CacheGeometry::PAPER_L3).is_ok());
    }

    #[test]
    fn out_of_bounds_detection() {
        let big = Placement {
            partition: PartitionId::new(0),
            set_start: 30,
            sets: 8,
            way_start: 0,
            ways: 4,
        };
        assert!(!big.fits(CacheGeometry::PAPER_L3));
        assert_eq!(
            check_disjoint_and_in_bounds(&[big], CacheGeometry::PAPER_L3),
            Err((big, big))
        );
    }

    #[test]
    fn display_is_informative() {
        let p = Placement {
            partition: PartitionId::new(1),
            set_start: 8,
            sets: 24,
            way_start: 4,
            ways: 12,
        };
        assert_eq!(p.to_string(), "P1: sets 8..32, ways 4..16");
        let e = PlacementError::DoesNotFit {
            ways_needed: 24,
            ways_available: 16,
        };
        assert!(e.to_string().contains("24"));
    }
}
