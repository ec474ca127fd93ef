//! The paper's *distance* dynamics (Definition 4.2, Observations 1–3) as
//! an executable analysis over simulation event logs.
//!
//! The WCL analysis reasons about `d_{c(l)}^{c_ua}`: the number of bus
//! slots from the slot of the core privately caching line `l` to the
//! next slot of the core under analysis. Observation 1 says these
//! distances only decrease while `c_ua` waits without performing
//! write-backs; Observation 3 says a write-back by `c_ua` lets them
//! increase again. [`DistanceTracker`] replays an [`EventLog`] and
//! reports the distance profile of a partition set over time, so both
//! observations can be *measured* instead of taken on faith.

use std::collections::{BTreeSet, HashMap};

use predllc_bus::TdmSchedule;
use predllc_model::{CoreId, LineAddr};

use crate::events::{EventKind, EventLog};
use crate::partition::PartitionSpec;

/// The distance profile of one partition set at one slot boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceSample {
    /// Global slot index the sample was taken at (after the slot's
    /// events were applied).
    pub slot: u64,
    /// For every resident line of the set: `(line, max distance of its
    /// private sharers to c_ua)`. Lines with no private sharers have no
    /// distance (they can be re-used without any other core's slot).
    pub lines: Vec<(LineAddr, Option<u64>)>,
}

impl DistanceSample {
    /// The sum of distances (the "potential" that Observation 1 says
    /// drains while `c_ua` waits write-back-free).
    pub fn total_distance(&self) -> u64 {
        self.lines.iter().filter_map(|(_, d)| *d).sum()
    }
}

/// Replays an event log, tracking which cores privately cache each line
/// of one partition set, and sampling the distance profile at every slot
/// boundary.
///
/// # Examples
///
/// See `examples/distance_observations.rs` and the integration tests in
/// `tests/distance.rs`, which measure Observations 1 and 3 on real
/// simulations.
#[derive(Debug)]
pub struct DistanceTracker<'a> {
    schedule: &'a TdmSchedule,
    spec: &'a PartitionSpec,
    set: u32,
    cua: CoreId,
}

impl<'a> DistanceTracker<'a> {
    /// Creates a tracker for partition-local `set` of `spec`, measuring
    /// distances towards `cua`.
    pub fn new(schedule: &'a TdmSchedule, spec: &'a PartitionSpec, set: u32, cua: CoreId) -> Self {
        DistanceTracker {
            schedule,
            spec,
            set,
            cua,
        }
    }

    /// Replays `events` and returns one sample per slot that touched the
    /// tracked set (plus the slot's end state).
    ///
    /// Sharers are reconstructed from the event stream: a `Fill` makes
    /// the requester the sole sharer and a `Hit` adds one. A
    /// `BackInvalidation` does *not* retire the sharer: in the paper's
    /// accounting an entry under eviction still "belongs" to the core
    /// whose write-back must free it (its distance is what the analysis
    /// counts) until `LineFreed` retires the entry.
    pub fn samples(&self, events: &EventLog) -> Vec<DistanceSample> {
        let mut sharers: HashMap<LineAddr, BTreeSet<CoreId>> = HashMap::new();
        let mut resident: Vec<LineAddr> = Vec::new();
        let mut out = Vec::new();
        let mut current_slot: Option<u64> = None;

        let in_set = |line: LineAddr| self.spec.set_of(line).0 == self.set;

        for e in events.events() {
            if current_slot.is_some_and(|s| s != e.slot) {
                out.push(self.sample(current_slot.unwrap(), &resident, &sharers));
            }
            current_slot = Some(e.slot);
            match e.kind {
                EventKind::Fill { core, line } if in_set(line) => {
                    sharers.insert(line, BTreeSet::from([core]));
                    if !resident.contains(&line) {
                        resident.push(line);
                    }
                }
                EventKind::Hit { core, line } if in_set(line) => {
                    sharers.entry(line).or_default().insert(core);
                }
                EventKind::LineFreed { line, .. } if in_set(line) => {
                    sharers.remove(&line);
                    resident.retain(|&l| l != line);
                }
                _ => {}
            }
        }
        if let Some(slot) = current_slot {
            out.push(self.sample(slot, &resident, &sharers));
        }
        out
    }

    fn sample(
        &self,
        slot: u64,
        resident: &[LineAddr],
        sharers: &HashMap<LineAddr, BTreeSet<CoreId>>,
    ) -> DistanceSample {
        let lines = resident
            .iter()
            .map(|&line| {
                let d = sharers.get(&line).and_then(|s| {
                    s.iter()
                        .filter_map(|&c| self.schedule.distance(c, self.cua).ok())
                        .max()
                });
                (line, d)
            })
            .collect();
        DistanceSample { slot, lines }
    }
}

/// Checks Observation 1 over a window of samples: while `c_ua` performs
/// no write-backs, the set's total distance never increases between
/// consecutive samples taken at `c_ua`-relevant boundaries.
///
/// Returns the first violating pair of slots, if any.
pub fn check_nonincreasing(samples: &[DistanceSample]) -> Result<(), (u64, u64)> {
    for w in samples.windows(2) {
        if w[1].total_distance() > w[0].total_distance() {
            return Err((w[0].slot, w[1].slot));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventLog;
    use crate::partition::SharingMode;
    use predllc_model::Cycles;

    fn spec() -> PartitionSpec {
        PartitionSpec::shared(1, 2, CoreId::first(4).collect(), SharingMode::BestEffort)
    }

    fn log(entries: &[(u64, EventKind)]) -> EventLog {
        let mut l = EventLog::default();
        for &(slot, kind) in entries {
            l.push(Cycles::new(slot * 50), slot, kind);
        }
        l
    }

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    fn l(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn fill_sets_single_sharer_distance() {
        let schedule = TdmSchedule::one_slot(4);
        let spec = spec();
        // c3 fills line 0: d_{c3}^{c0} = 1 (schedule {c0,c1,c2,c3}).
        let events = log(&[(
            3,
            EventKind::Fill {
                core: c(3),
                line: l(0),
            },
        )]);
        let t = DistanceTracker::new(&schedule, &spec, 0, c(0));
        let s = t.samples(&events);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].lines, vec![(l(0), Some(1))]);
    }

    #[test]
    fn hit_adds_sharer_and_max_distance_wins() {
        let schedule = TdmSchedule::one_slot(4);
        let spec = spec();
        // c3 fills (d=1), then c1 hits (d_{c1}^{c0} = 3): max is 3.
        let events = log(&[
            (
                3,
                EventKind::Fill {
                    core: c(3),
                    line: l(0),
                },
            ),
            (
                5,
                EventKind::Hit {
                    core: c(1),
                    line: l(0),
                },
            ),
        ]);
        let t = DistanceTracker::new(&schedule, &spec, 0, c(0));
        let s = t.samples(&events);
        assert_eq!(s.last().unwrap().lines, vec![(l(0), Some(3))]);
    }

    #[test]
    fn owner_keeps_distance_until_freed() {
        let schedule = TdmSchedule::one_slot(4);
        let spec = spec();
        let events = log(&[
            (
                3,
                EventKind::Fill {
                    core: c(3),
                    line: l(0),
                },
            ),
            (
                4,
                EventKind::BackInvalidation {
                    core: c(3),
                    line: l(0),
                },
            ),
            (
                7,
                EventKind::LineFreed {
                    line: l(0),
                    partition: predllc_model::PartitionId::new(0),
                },
            ),
        ]);
        let t = DistanceTracker::new(&schedule, &spec, 0, c(0));
        let s = t.samples(&events);
        // The invalidated-but-unacknowledged entry still counts against
        // its owner's distance (the analysis charges c3's write-back
        // slot); only the free retires it.
        assert_eq!(s[1].lines, vec![(l(0), Some(1))]);
        assert!(s[2].lines.is_empty());
        assert_eq!(s[2].total_distance(), 0);
    }

    #[test]
    fn lines_of_other_sets_are_ignored() {
        let schedule = TdmSchedule::one_slot(4);
        // 2-set partition: line 1 maps to set 1 and must be invisible to
        // a set-0 tracker.
        let spec = PartitionSpec::shared(2, 2, CoreId::first(4).collect(), SharingMode::BestEffort);
        let events = log(&[
            (
                1,
                EventKind::Fill {
                    core: c(1),
                    line: l(1),
                },
            ),
            (
                2,
                EventKind::Fill {
                    core: c(2),
                    line: l(2),
                },
            ),
        ]);
        let t = DistanceTracker::new(&schedule, &spec, 0, c(0));
        let s = t.samples(&events);
        assert_eq!(s.last().unwrap().lines, vec![(l(2), Some(2))]);
    }

    #[test]
    fn nonincreasing_checker_flags_increase() {
        let a = DistanceSample {
            slot: 1,
            lines: vec![(l(0), Some(1))],
        };
        let b = DistanceSample {
            slot: 2,
            lines: vec![(l(0), Some(3))],
        };
        assert_eq!(check_nonincreasing(&[a.clone(), b.clone()]), Err((1, 2)));
        assert_eq!(check_nonincreasing(&[b, a]), Ok(()));
        assert_eq!(check_nonincreasing(&[]), Ok(()));
    }
}
