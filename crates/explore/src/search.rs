//! Schedulability-driven partition search: walk the `sets × ways`
//! design space and find the cheapest LLC carve under which a taskset
//! is schedulable.
//!
//! This mechanizes the paper's closing argument — that designers should
//! "judiciously share partitions with a subset of cores and isolate
//! others" based on each task's requirements. A candidate is an
//! [`Arrangement`] (private per core, or shared under SS/NSS) at one
//! `sets × ways` geometry. Each candidate must
//!
//! 1. **place**: build a valid [`SystemConfig`] and pack rectangularly
//!    into the physical LLC ([`predllc_core::placement::pack`]), and
//! 2. **schedule**: pass memory-aware response-time analysis
//!    ([`predllc_core::analysis::TaskSetAnalysis`]) for the given
//!    taskset.
//!
//! Candidates are evaluated in parallel on the [`Executor`] (analysis
//! only — no simulation), and the winner is the minimal schedulable
//! candidate under a deterministic order: fewest LLC lines used, then
//! fewest ways, then fewest sets, then declared arrangement order. The
//! full verdict list is returned too, so reports can show *why* smaller
//! carves lose.

use predllc_core::analysis::TaskSetAnalysis;
use predllc_core::placement::pack;
use predllc_core::{ConfigError, PartitionSpec, SystemConfig, SystemConfigBuilder};
use predllc_model::CoreId;

use crate::executor::Executor;
use crate::spec::{Arrangement, SearchSpec};
use crate::ExploreError;

/// One point of the search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The partition arrangement.
    pub arrangement: Arrangement,
    /// Sets per partition.
    pub sets: u32,
    /// Ways per partition.
    pub ways: u32,
}

impl Candidate {
    /// The paper-notation label for `cores` cores (e.g. `SS(4,2,4)` or
    /// `P(4,2)x4`).
    pub fn label(&self, cores: u16) -> String {
        match self.arrangement {
            Arrangement::Private => format!("P({},{})x{cores}", self.sets, self.ways),
            Arrangement::Shared(mode) => {
                format!("{mode}({},{},{cores})", self.sets, self.ways)
            }
        }
    }

    /// Total LLC lines the candidate consumes — the cost being
    /// minimized.
    pub fn lines_used(&self, cores: u16) -> u64 {
        let per_partition = u64::from(self.sets) * u64::from(self.ways);
        match self.arrangement {
            Arrangement::Private => per_partition * u64::from(cores),
            Arrangement::Shared(_) => per_partition,
        }
    }

    /// Builds the platform this candidate proposes.
    ///
    /// # Errors
    ///
    /// Any [`ConfigError`] — an expected outcome for oversized
    /// candidates, recorded as "does not place".
    pub fn build(&self, spec: &SearchSpec, cores: u16) -> Result<SystemConfig, ConfigError> {
        let partitions = match self.arrangement {
            Arrangement::Private => CoreId::first(cores)
                .map(|c| PartitionSpec::private(self.sets, self.ways, c))
                .collect(),
            Arrangement::Shared(mode) => vec![PartitionSpec::shared(
                self.sets,
                self.ways,
                CoreId::first(cores).collect(),
                mode,
            )],
        };
        SystemConfigBuilder::new(cores)
            .partitions(partitions)
            .physical_llc(spec.physical)
            .memory(spec.memory.clone())
            .build()
    }
}

/// What the search learned about one candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateVerdict {
    /// The candidate.
    pub candidate: Candidate,
    /// Its report label.
    pub label: String,
    /// LLC lines it would consume.
    pub lines_used: u64,
    /// Whether it builds and packs into the physical LLC.
    pub placed: bool,
    /// Whether the taskset is schedulable on it (always `false` when
    /// not placed).
    pub schedulable: bool,
    /// The per-task worst-case response times in task order, for placed
    /// candidates (`None` entries are tasks with no converging response).
    pub response_times: Vec<Option<u64>>,
}

/// The outcome of a search: the winner (if any candidate works) and
/// every verdict in evaluation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// The minimal schedulable candidate.
    pub winner: Option<CandidateVerdict>,
    /// All verdicts, cheapest candidate first.
    pub evaluated: Vec<CandidateVerdict>,
}

impl SearchOutcome {
    /// How many candidates were schedulable.
    pub(crate) fn schedulable_count(&self) -> usize {
        self.evaluated.iter().filter(|v| v.schedulable).count()
    }
}

/// Enumerates the candidate space of a [`SearchSpec`], cheapest first:
/// sets over the powers of two up to `max_sets`, ways over
/// `1..=max_ways`, each under every declared arrangement, ordered by
/// (lines used, ways, sets, arrangement declaration index).
pub fn candidates(spec: &SearchSpec, cores: u16) -> Vec<Candidate> {
    let mut out = Vec::new();
    let mut sets = 1u32;
    loop {
        for ways in 1..=spec.max_ways {
            for &arrangement in &spec.arrangements {
                out.push(Candidate {
                    arrangement,
                    sets,
                    ways,
                });
            }
        }
        match sets.checked_mul(2) {
            Some(next) if next <= spec.max_sets => sets = next,
            _ => break,
        }
    }
    // Stable sort: equal-cost candidates keep (ways, sets, declaration)
    // order, making the winner independent of enumeration details.
    out.sort_by_key(|c| (c.lines_used(cores), c.ways, c.sets));
    out
}

/// Runs the search for `tasks` on an `exec`-parallel sweep of the
/// candidate space.
///
/// # Errors
///
/// [`ExploreError::Config`] if the response-time analysis itself is
/// invalid (e.g. a task naming a core outside the system) — candidate
/// build/pack failures are verdicts, not errors.
pub fn search_partitions(
    spec: &SearchSpec,
    cores: u16,
    tasks: &[predllc_core::analysis::TaskParams],
    exec: &Executor,
) -> Result<SearchOutcome, ExploreError> {
    let space = candidates(spec, cores);
    let evaluated = exec.try_map(
        &space,
        |_, candidate| -> Result<CandidateVerdict, ExploreError> {
            let label = candidate.label(cores);
            let lines_used = candidate.lines_used(cores);
            let unplaced = |candidate: &Candidate| CandidateVerdict {
                candidate: *candidate,
                label: label.clone(),
                lines_used,
                placed: false,
                schedulable: false,
                response_times: Vec::new(),
            };
            let Ok(config) = candidate.build(spec, cores) else {
                return Ok(unplaced(candidate));
            };
            if pack(config.partitions(), spec.physical).is_err() {
                return Ok(unplaced(candidate));
            }
            let results = TaskSetAnalysis::new(&config, tasks.to_vec())
                .analyze()
                .map_err(|source| ExploreError::Config {
                    label: label.clone(),
                    source,
                })?;
            Ok(CandidateVerdict {
                candidate: *candidate,
                label,
                lines_used,
                placed: true,
                schedulable: results.iter().all(|r| r.schedulable),
                response_times: results
                    .iter()
                    .map(|r| r.response_time.map(|c| c.as_u64()))
                    .collect(),
            })
        },
    )?;
    let winner = evaluated.iter().find(|v| v.schedulable).cloned();
    Ok(SearchOutcome { winner, evaluated })
}

#[cfg(test)]
mod tests {
    use super::*;
    use predllc_core::analysis::TaskParams;
    use predllc_core::SharingMode;
    use predllc_dram::MemoryConfig;
    use predllc_model::{CacheGeometry, Cycles};

    fn spec(arrangements: Vec<Arrangement>, max_sets: u32, max_ways: u32) -> SearchSpec {
        SearchSpec {
            arrangements,
            max_sets,
            max_ways,
            memory: MemoryConfig::default(),
            physical: CacheGeometry::PAPER_L3,
        }
    }

    fn task(core: u16, period: u64, compute: u64, reqs: u64) -> TaskParams {
        TaskParams {
            name: format!("t{core}"),
            core: CoreId::new(core),
            period: Cycles::new(period),
            deadline: Cycles::new(period),
            compute: Cycles::new(compute),
            llc_requests: reqs,
        }
    }

    #[test]
    fn candidates_enumerate_cheapest_first() {
        let s = spec(
            vec![
                Arrangement::Private,
                Arrangement::Shared(SharingMode::SetSequencer),
            ],
            4,
            2,
        );
        let c = candidates(&s, 2);
        // 3 set values x 2 way values x 2 arrangements.
        assert_eq!(c.len(), 12);
        let costs: Vec<u64> = c.iter().map(|x| x.lines_used(2)).collect();
        let mut sorted = costs.clone();
        sorted.sort_unstable();
        assert_eq!(costs, sorted, "not cheapest-first: {costs:?}");
        // The very cheapest is the shared 1x1 (1 line vs 2 for private).
        assert_eq!(c[0].lines_used(2), 1);
        assert!(matches!(c[0].arrangement, Arrangement::Shared(_)));
    }

    #[test]
    fn search_finds_the_minimal_schedulable_carve() {
        // One 4-core task set that needs the private 250-cycle bound:
        // under SS(·,·,4) the WCL is 5000 — 2000 requests cost 10M > 5M
        // period; private partitions cost 500k and fit easily.
        let s = spec(
            vec![
                Arrangement::Shared(SharingMode::SetSequencer),
                Arrangement::Private,
            ],
            8,
            4,
        );
        let tasks: Vec<TaskParams> = (0..4).map(|c| task(c, 5_000_000, 100_000, 2_000)).collect();
        let outcome = search_partitions(&s, 4, &tasks, &Executor::new(2)).unwrap();
        let winner = outcome
            .winner
            .clone()
            .expect("private candidates are schedulable");
        assert!(matches!(winner.candidate.arrangement, Arrangement::Private));
        // Minimality: the cheapest private carve is 1x1 per core.
        assert_eq!((winner.candidate.sets, winner.candidate.ways), (1, 1));
        assert_eq!(winner.lines_used, 4);
        // Everything cheaper was evaluated and found wanting.
        for v in &outcome.evaluated {
            if v.lines_used < winner.lines_used {
                assert!(!v.schedulable, "{} is cheaper yet schedulable", v.label);
            }
        }
        assert!(outcome.schedulable_count() > 0);
    }

    #[test]
    fn infeasible_tasksets_have_no_winner() {
        let s = spec(vec![Arrangement::Private], 2, 2);
        // Pure compute overload: no cache carve can help.
        let tasks = vec![task(0, 1_000, 2_000, 0)];
        let outcome = search_partitions(&s, 1, &tasks, &Executor::new(1)).unwrap();
        assert!(outcome.winner.is_none());
        assert!(outcome.evaluated.iter().all(|v| !v.schedulable));
        assert!(outcome.evaluated.iter().all(|v| v.placed));
    }

    #[test]
    fn oversized_candidates_are_unplaced_not_errors() {
        // 64-way candidates cannot pack into the 16-way paper LLC.
        let s = spec(vec![Arrangement::Shared(SharingMode::SetSequencer)], 1, 64);
        let tasks = vec![task(0, 1_000_000, 1, 0)];
        let outcome = search_partitions(&s, 1, &tasks, &Executor::new(1)).unwrap();
        let wide = outcome
            .evaluated
            .iter()
            .find(|v| v.candidate.ways == 64)
            .unwrap();
        assert!(!wide.placed && !wide.schedulable);
        // Narrow ones still win.
        assert!(outcome.winner.is_some());
    }

    #[test]
    fn bad_tasks_surface_as_config_errors() {
        let s = spec(vec![Arrangement::Private], 1, 1);
        let tasks = vec![task(5, 1_000, 1, 0)]; // core 5 of a 1-core system
        let err = search_partitions(&s, 1, &tasks, &Executor::new(1)).unwrap_err();
        assert!(matches!(err, ExploreError::Config { .. }));
    }

    #[test]
    fn labels_follow_paper_notation() {
        let c = Candidate {
            arrangement: Arrangement::Shared(SharingMode::BestEffort),
            sets: 4,
            ways: 2,
        };
        assert_eq!(c.label(4), "NSS(4,2,4)");
        let p = Candidate {
            arrangement: Arrangement::Private,
            sets: 4,
            ways: 2,
        };
        assert_eq!(p.label(4), "P(4,2)x4");
    }
}
