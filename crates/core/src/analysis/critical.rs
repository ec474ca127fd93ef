//! Adversarial trace construction: workloads that drive the simulator
//! toward the analytical worst cases.
//!
//! These are deterministic (no randomness): reproducing the critical
//! instance is about *structure* — forcing every access into one
//! partition set and keeping the set full of other cores' lines — not
//! about sampling.

use predllc_model::{Address, CoreId, LineAddr, MemOp};

use crate::partition::PartitionSpec;

/// Addresses (one per line) that all map to partition-local `set` of a
/// partition with `sets` sets, for the standard 64-byte lines.
///
/// With the simulator's modulo set mapping, line `l` maps to
/// `l mod sets`, so the `k`-th conflicting line is `set + k·sets`.
///
/// # Examples
///
/// ```
/// use predllc_core::analysis::critical::conflicting_lines;
///
/// let lines: Vec<_> = conflicting_lines(8, 3).take(3).collect();
/// assert_eq!(lines[0].as_u64(), 3);
/// assert_eq!(lines[1].as_u64(), 11);
/// assert_eq!(lines[2].as_u64(), 19);
/// ```
pub fn conflicting_lines(sets: u32, set: u32) -> impl Iterator<Item = LineAddr> {
    let sets = u64::from(sets);
    let set = u64::from(set);
    (0..).map(move |k| LineAddr::new(set + k * sets))
}

/// A trace of `count` reads cycling through `distinct` lines that all
/// collide in partition-local `set`, offset so that different cores use
/// disjoint lines (the paper's disjoint-address-range rule).
///
/// Core `i` uses lines `{set + (i·distinct + j)·sets | j < distinct}`.
pub(crate) fn set_thrash_trace(
    spec: &PartitionSpec,
    set: u32,
    core: CoreId,
    distinct: usize,
    count: usize,
) -> Vec<MemOp> {
    let base = core.as_usize() * distinct;
    let lines: Vec<LineAddr> = conflicting_lines(spec.sets, set)
        .skip(base)
        .take(distinct)
        .collect();
    (0..count)
        .map(|k| MemOp::read(Address::new(lines[k % distinct].as_u64() * 64)))
        .collect()
}

/// The Fig. 2 unbounded-WCL workload: the core under analysis wants one
/// line; the interferer ping-pongs **writes** to two other lines of the
/// same set forever (long enough to outlast any simulation cap).
///
/// The interferer must write: only a dirty private copy forces the
/// `Evict l → WB l` round trip whose free-then-reoccupy loop starves the
/// core under analysis (clean copies invalidate without a bus slot, so
/// the freed entry would go to the starved core immediately).
///
/// Returns `(cua_trace, interferer_trace)`.
pub fn fig2_traces(spec: &PartitionSpec, repetitions: usize) -> (Vec<MemOp>, Vec<MemOp>) {
    let mut lines = conflicting_lines(spec.sets, 0);
    let x = lines.next().expect("infinite iterator");
    let a = lines.next().expect("infinite iterator");
    let b = lines.next().expect("infinite iterator");
    let cua = vec![MemOp::read(Address::new(x.as_u64() * 64))];
    let interferer = (0..repetitions)
        .map(|k| {
            let l = if k % 2 == 0 { a } else { b };
            MemOp::write(Address::new(l.as_u64() * 64))
        })
        .collect();
    (cua, interferer)
}

/// A WCL stress workload for `n` cores sharing `spec`: every core cycles
/// through `ways + 1` distinct conflicting lines of set 0, with writes
/// mixed in so that evictions produce dirty write-backs (the write-backs
/// are what drive the distance dynamics of Observation 3).
pub fn wcl_stress_traces(spec: &PartitionSpec, ops_per_core: usize) -> Vec<Vec<MemOp>> {
    let distinct = spec.ways as usize + 1;
    spec.cores
        .iter()
        .map(|&core| {
            let mut t = set_thrash_trace(spec, 0, core, distinct, ops_per_core);
            // Every third access writes, creating dirty private lines.
            for (i, op) in t.iter_mut().enumerate() {
                if i % 3 == 0 {
                    *op = MemOp::write(op.addr);
                }
            }
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::SharingMode;

    fn spec(sets: u32, ways: u32, n: u16) -> PartitionSpec {
        PartitionSpec::shared(
            sets,
            ways,
            CoreId::first(n).collect(),
            SharingMode::BestEffort,
        )
    }

    #[test]
    fn conflicting_lines_all_hit_the_target_set() {
        let s = spec(8, 2, 2);
        for line in conflicting_lines(8, 5).take(16) {
            assert_eq!(s.set_of(line).0, 5);
        }
    }

    #[test]
    fn thrash_traces_are_disjoint_across_cores() {
        let s = spec(4, 2, 3);
        let t0 = set_thrash_trace(&s, 0, CoreId::new(0), 3, 30);
        let t1 = set_thrash_trace(&s, 0, CoreId::new(1), 3, 30);
        let lines0: std::collections::HashSet<u64> =
            t0.iter().map(|op| op.addr.line().as_u64()).collect();
        let lines1: std::collections::HashSet<u64> =
            t1.iter().map(|op| op.addr.line().as_u64()).collect();
        assert!(lines0.is_disjoint(&lines1));
        assert_eq!(lines0.len(), 3);
        // All map to set 0.
        for op in t0.iter().chain(&t1) {
            assert_eq!(s.set_of(op.addr.line()).0, 0);
        }
    }

    #[test]
    fn fig2_traces_share_one_set_but_not_lines() {
        let s = spec(1, 2, 2);
        let (cua, intf) = fig2_traces(&s, 10);
        assert_eq!(cua.len(), 1);
        assert_eq!(intf.len(), 10);
        let cua_line = cua[0].addr.line();
        assert!(intf.iter().all(|op| op.addr.line() != cua_line));
        // The interferer writes (dirty copies force the WB round trip).
        assert!(intf.iter().all(|op| op.kind.is_write()));
        // Interferer alternates exactly two lines.
        let distinct: std::collections::HashSet<u64> =
            intf.iter().map(|op| op.addr.line().as_u64()).collect();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn stress_traces_cover_ways_plus_one_lines_and_mix_writes() {
        let s = spec(2, 4, 2);
        let traces = wcl_stress_traces(&s, 20);
        assert_eq!(traces.len(), 2);
        for t in &traces {
            let distinct: std::collections::HashSet<u64> =
                t.iter().map(|op| op.addr.line().as_u64()).collect();
            assert_eq!(distinct.len(), 5); // ways + 1
            assert!(t.iter().any(|op| op.kind.is_write()));
            assert!(t.iter().any(|op| !op.kind.is_write()));
        }
    }
}
