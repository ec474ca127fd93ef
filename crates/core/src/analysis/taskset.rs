//! Memory-aware schedulability: from WCL bounds to response-time
//! analysis.
//!
//! The paper's closing vision is that designers "judiciously share
//! partitions with a subset of cores, and isolate others … depend\[ing\]
//! on their performance and real-time requirements". This module makes
//! that trade executable: every LLC request of a task costs at most the
//! partition's WCL bound, so a task's memory-aware worst-case execution
//! time is
//!
//! ```text
//! C_i = C_i^{compute} + (LLC requests)_i × WCL(partition of core i)
//! ```
//!
//! and the classical fixed-priority response-time analysis
//! (`R = C + Σ_{higher prio} ⌈R/T_j⌉·C_j`, Joseph & Pandya) then decides
//! schedulability per core. One task per core (the paper's system
//! model), so the interference term is empty and the per-task test
//! reduces to `C_i ≤ D_i` — but the module also supports several tasks
//! sharing a core (the consolidation case the introduction motivates),
//! where the full fixed-point matters.

use predllc_model::{CoreId, Cycles};

use crate::analysis::bounds::{classify_schedule, WclBound};
use crate::config::SystemConfig;
use crate::error::ConfigError;

/// One task's timing parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskParams {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// The core the task runs on.
    pub core: CoreId,
    /// Activation period.
    pub period: Cycles,
    /// Relative deadline (≤ period for this analysis).
    pub deadline: Cycles,
    /// Worst-case execution time excluding LLC request stalls (pure
    /// compute plus private-cache hits).
    pub compute: Cycles,
    /// Worst-case number of LLC requests per activation (private-cache
    /// misses; from static analysis or a measured bound).
    pub llc_requests: u64,
}

impl TaskParams {
    /// The memory-aware WCET: compute time plus every LLC request at the
    /// partition's WCL bound.
    ///
    /// Returns `None` if the arithmetic overflows (astronomical WCLs).
    pub(crate) fn wcet(&self, wcl: Cycles) -> Option<Cycles> {
        wcl.checked_mul(self.llc_requests)
            .and_then(|m| m.checked_add(self.compute))
    }
}

/// The verdict for one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtaResult {
    /// Task name.
    pub name: String,
    /// The memory-aware WCET used.
    pub wcet: Cycles,
    /// The worst-case response time, if the fixed point converged within
    /// the deadline horizon.
    pub response_time: Option<Cycles>,
    /// Whether the task meets its deadline.
    pub schedulable: bool,
}

/// Memory-aware response-time analysis for a set of tasks on a
/// configured platform.
///
/// Tasks on the same core are scheduled fixed-priority preemptive in
/// list order (earlier = higher priority); tasks on different cores only
/// interact through the LLC, which the WCL bound already accounts for.
///
/// # Examples
///
/// ```
/// use predllc_core::analysis::{TaskParams, TaskSetAnalysis};
/// use predllc_core::{SharingMode, SystemConfig};
/// use predllc_model::{CoreId, Cycles};
///
/// # fn main() -> Result<(), predllc_core::ConfigError> {
/// let cfg = SystemConfig::shared_partition(8, 4, 2, SharingMode::SetSequencer)?;
/// let tasks = vec![TaskParams {
///     name: "control".into(),
///     core: CoreId::new(0),
///     period: Cycles::new(1_000_000),
///     deadline: Cycles::new(1_000_000),
///     compute: Cycles::new(100_000),
///     llc_requests: 200,
/// }];
/// let results = TaskSetAnalysis::new(&cfg, tasks).analyze()?;
/// assert!(results[0].schedulable);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TaskSetAnalysis<'a> {
    config: &'a SystemConfig,
    tasks: Vec<TaskParams>,
}

impl<'a> TaskSetAnalysis<'a> {
    /// Creates an analysis over `tasks` on `config`.
    pub fn new(config: &'a SystemConfig, tasks: Vec<TaskParams>) -> Self {
        TaskSetAnalysis { config, tasks }
    }

    /// Runs the analysis, returning one verdict per task (input order).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if a task names a core outside the
    /// configuration.
    ///
    /// A task whose core's WCL is unbounded (or not covered by the
    /// paper's analysis) is reported unschedulable with no response
    /// time rather than an error: that is the analysis' verdict.
    pub fn analyze(&self) -> Result<Vec<RtaResult>, ConfigError> {
        // Resolve each task's memory-aware WCET.
        let mut wcets: Vec<Option<Cycles>> = Vec::with_capacity(self.tasks.len());
        for t in &self.tasks {
            let wcl = match classify_schedule(self.config, t.core)? {
                WclBound::Bounded(c) => Some(c),
                WclBound::Unbounded { .. } | WclBound::NotCovered => None,
            };
            wcets.push(wcl.and_then(|w| t.wcet(w)));
        }

        let mut out = Vec::with_capacity(self.tasks.len());
        for (i, t) in self.tasks.iter().enumerate() {
            let Some(wcet) = wcets[i] else {
                out.push(RtaResult {
                    name: t.name.clone(),
                    wcet: Cycles::ZERO,
                    response_time: None,
                    schedulable: false,
                });
                continue;
            };
            // Higher-priority tasks on the same core: earlier in list.
            let hp: Vec<(Cycles, Cycles)> = self.tasks[..i]
                .iter()
                .zip(&wcets[..i])
                .filter(|(other, _)| other.core == t.core)
                .filter_map(|(other, w)| w.map(|w| (other.period, w)))
                .collect();
            let response = fixed_point_response(wcet, &hp, t.deadline);
            let schedulable = response.is_some_and(|r| r <= t.deadline);
            out.push(RtaResult {
                name: t.name.clone(),
                wcet,
                response_time: response,
                schedulable,
            });
        }
        Ok(out)
    }

    /// Whether every task is schedulable.
    ///
    /// # Errors
    ///
    /// Propagates [`TaskSetAnalysis::analyze`] failures.
    pub fn is_schedulable(&self) -> Result<bool, ConfigError> {
        Ok(self.analyze()?.iter().all(|r| r.schedulable))
    }
}

/// Joseph–Pandya fixed point: `R = C + Σ ⌈R/T_j⌉·C_j`, iterated until
/// stable or past `horizon` (then `None`).
fn fixed_point_response(
    wcet: Cycles,
    higher_priority: &[(Cycles, Cycles)],
    horizon: Cycles,
) -> Option<Cycles> {
    let mut r = wcet;
    loop {
        let mut next = wcet;
        for &(period, cost) in higher_priority {
            let activations = r.as_u64().div_ceil(period.as_u64().max(1));
            next = next.checked_add(cost.checked_mul(activations)?)?;
        }
        if next == r {
            return Some(r);
        }
        if next > horizon {
            return None;
        }
        r = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::SharingMode;

    fn task(name: &str, core: u16, period: u64, compute: u64, reqs: u64) -> TaskParams {
        TaskParams {
            name: name.into(),
            core: CoreId::new(core),
            period: Cycles::new(period),
            deadline: Cycles::new(period),
            compute: Cycles::new(compute),
            llc_requests: reqs,
        }
    }

    #[test]
    fn wcet_combines_compute_and_memory() {
        let t = task("t", 0, 1_000_000, 5_000, 100);
        assert_eq!(t.wcet(Cycles::new(450)), Some(Cycles::new(50_000)));
        assert_eq!(t.wcet(Cycles::new(u64::MAX)), None);
    }

    #[test]
    fn single_task_per_core_reduces_to_wcet_check() {
        // SS(8,4,2): WCL = (2·1·2+1)·2·50 = 500 cycles.
        let cfg = SystemConfig::shared_partition(8, 4, 2, SharingMode::SetSequencer).unwrap();
        let tasks = vec![
            task("ok", 0, 1_000_000, 100_000, 1_000), // 100k + 500k = 600k ≤ 1M
            task("too-hungry", 1, 1_000_000, 100_000, 2_000), // 100k + 1M > 1M
        ];
        let res = TaskSetAnalysis::new(&cfg, tasks).analyze().unwrap();
        assert!(res[0].schedulable);
        assert_eq!(res[0].response_time, Some(res[0].wcet));
        assert!(!res[1].schedulable);
    }

    #[test]
    fn private_partition_admits_more_requests() {
        // The same task that fails under NSS sharing passes with a
        // private partition — the paper's partition-choice story.
        let nss = SystemConfig::shared_partition(8, 4, 2, SharingMode::BestEffort).unwrap();
        let private = SystemConfig::private_partitions(8, 4, 2).unwrap();
        let t = vec![task("hungry", 0, 10_000_000, 100_000, 3_000)];
        // NSS WCL = ((m+1)·A·N+1)·SW with m=min(64,32)=32, A=2·1·4·1=8:
        // (33·8·2+1)·50 = 26 450 cycles → 3k requests ≈ 79M > 10M.
        assert!(!TaskSetAnalysis::new(&nss, t.clone())
            .is_schedulable()
            .unwrap());
        // P: 250-cycle bound → 100k + 750k = 850k ≤ 10M.
        assert!(TaskSetAnalysis::new(&private, t).is_schedulable().unwrap());
    }

    #[test]
    fn rta_accounts_for_higher_priority_interference() {
        let cfg = SystemConfig::private_partitions(8, 4, 1).unwrap();
        // Private 1-core bound: (2·1+1)·50 = 150 cycles.
        // hi: period 1000, wcet = 100 + 1·150 = 250.
        // lo: wcet = 100 + 0 = 100; R = 100 + ⌈R/1000⌉·250 → 350.
        let tasks = vec![task("hi", 0, 1_000, 100, 1), task("lo", 0, 2_000, 100, 0)];
        let res = TaskSetAnalysis::new(&cfg, tasks).analyze().unwrap();
        assert_eq!(res[0].response_time, Some(Cycles::new(250)));
        assert_eq!(res[1].response_time, Some(Cycles::new(350)));
        assert!(res[1].schedulable);
    }

    #[test]
    fn rta_detects_overload() {
        let cfg = SystemConfig::private_partitions(8, 4, 1).unwrap();
        let tasks = vec![
            task("hog", 0, 1_000, 900, 0),
            task("starved", 0, 5_000, 800, 0),
        ];
        let res = TaskSetAnalysis::new(&cfg, tasks).analyze().unwrap();
        assert!(res[0].schedulable);
        // R = 800 + ⌈R/1000⌉·900 diverges past the 5000 deadline.
        assert_eq!(res[1].response_time, None);
        assert!(!res[1].schedulable);
    }

    #[test]
    fn unbounded_partitions_are_unschedulable() {
        use crate::partition::PartitionSpec;
        use predllc_bus::TdmSchedule;
        let schedule =
            TdmSchedule::new(vec![CoreId::new(0), CoreId::new(1), CoreId::new(1)]).unwrap();
        let cfg = crate::config::SystemConfigBuilder::new(2)
            .schedule(schedule)
            .partitions(vec![PartitionSpec::shared(
                1,
                2,
                vec![CoreId::new(0), CoreId::new(1)],
                SharingMode::BestEffort,
            )])
            .build()
            .unwrap();
        let res = TaskSetAnalysis::new(&cfg, vec![task("t", 0, 1_000_000, 10, 1)])
            .analyze()
            .unwrap();
        assert!(!res[0].schedulable);
        assert_eq!(res[0].response_time, None);
    }

    #[test]
    fn out_of_range_core_is_an_error() {
        let cfg = SystemConfig::private_partitions(8, 4, 1).unwrap();
        let err = TaskSetAnalysis::new(&cfg, vec![task("t", 7, 1_000, 10, 0)]).analyze();
        assert!(err.is_err());
    }

    #[test]
    fn tasks_on_different_cores_do_not_interfere_in_rta() {
        let cfg = SystemConfig::private_partitions(8, 4, 2).unwrap();
        let tasks = vec![
            task("c0-hog", 0, 1_000, 900, 0),
            task("c1-task", 1, 1_000, 900, 0), // would be unschedulable behind the hog
        ];
        let res = TaskSetAnalysis::new(&cfg, tasks).analyze().unwrap();
        assert!(
            res[1].schedulable,
            "different core: no preemption interference"
        );
        assert_eq!(res[1].response_time, Some(Cycles::new(900)));
    }
}
