//! The work-stealing experiment executor: independent jobs scheduled
//! across OS threads with deterministic, declaration-order result
//! assembly.
//!
//! Every job is one unit of work — for an experiment grid, one
//! `(configuration × workload)` point. Workers steal the next unclaimed
//! job from a shared counter the moment they finish their previous one,
//! so a single slow job never serializes a whole row of the grid (the
//! failure mode of parallelizing per-configuration): the longest job
//! bounds the makespan, not the longest row.
//!
//! Determinism: each result is delivered tagged with its job index and
//! assembled into the output slot that index names. As long as the job
//! function is pure (same input → same output), the returned vector is
//! **bit-identical for every thread count**, including 1.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// A pool-sized executor for embarrassingly parallel job lists.
///
/// # Examples
///
/// ```
/// use predllc_explore::Executor;
///
/// let exec = Executor::new(4);
/// let squares = exec.map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
///
/// // Results are assembled in declaration order whatever the thread
/// // count, so any two executors agree bit for bit.
/// assert_eq!(squares, Executor::new(1).map(&[1u64, 2, 3, 4, 5], |_, &x| x * x));
/// ```
#[derive(Debug, Clone)]
pub struct Executor {
    threads: NonZeroUsize,
}

impl Default for Executor {
    /// An executor over all available cores.
    fn default() -> Self {
        Executor::new(0)
    }
}

impl Executor {
    /// Creates an executor with `threads` workers; `0` means one worker
    /// per available core.
    pub fn new(threads: usize) -> Self {
        let threads = match NonZeroUsize::new(threads) {
            Some(n) => n,
            None => thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        };
        Executor { threads }
    }

    /// The worker count jobs will be spread over.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Runs `job` over every item and returns the results in item order.
    ///
    /// Jobs are claimed one at a time by whichever worker is free
    /// (self-scheduling work stealing), so unequal job costs balance
    /// automatically. `job` receives the item index and the item; it
    /// must be pure for the cross-thread-count determinism guarantee to
    /// hold.
    ///
    /// # Panics
    ///
    /// Propagates a panicking job (the scope joins every worker first).
    pub fn map<T, R, F>(&self, items: &[T], job: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.get().min(n);
        if workers <= 1 {
            // Inline fast path: no threads, same declaration order.
            return items.iter().enumerate().map(|(i, t)| job(i, t)).collect();
        }

        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let job = &job;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if tx.send((i, job(i, &items[i]))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // The receive loop ends when every worker has dropped its
            // sender — i.e. all jobs are delivered (or a worker
            // panicked, which the scope re-raises on exit).
            for (i, r) in rx {
                slots[i] = Some(r);
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every claimed job delivers exactly one result"))
            .collect()
    }

    /// Like [`Executor::map`] for fallible jobs: returns all results, or
    /// the **first error in item order** (not completion order), so
    /// error reporting is as deterministic as the results.
    ///
    /// Once some job has failed, jobs at higher indices than the
    /// lowest-failed one are skipped — they cannot affect the outcome,
    /// so a big grid with an early failure does not run to completion
    /// first. Lower-indexed jobs still run: one of them may hold an
    /// even earlier error.
    ///
    /// # Errors
    ///
    /// The lowest-indexed `Err` any job produced.
    pub(crate) fn try_map<T, R, E, F>(&self, items: &[T], job: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        self.try_map_ranked(items, |i, _| i, |i, item| job(i, item).map_err(|e| (i, e)))
    }

    /// [`Executor::try_map`] for jobs that rank their own errors: each
    /// `Err` carries a rank, the lowest-ranked error is returned, and
    /// `floor(i, item)` bounds from below every rank job `i` can fail
    /// with. Jobs whose floor lies above a rank already failed at are
    /// skipped. The grid ranks a failure by its grid point, so a job
    /// that measures several points reports the lowest failing one
    /// whichever job holds it.
    ///
    /// # Errors
    ///
    /// The lowest-ranked `Err` any job produced.
    pub(crate) fn try_map_ranked<T, R, E, F, K>(
        &self,
        items: &[T],
        floor: K,
        job: F,
    ) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        K: Fn(usize, &T) -> usize + Sync,
        F: Fn(usize, &T) -> Result<R, (usize, E)> + Sync,
    {
        // The lowest failed rank seen so far (usize::MAX = none yet) —
        // purely an optimization fence; correctness comes from the
        // ordered walk below.
        let min_err = AtomicUsize::new(usize::MAX);
        let results = self.map(items, |i, item| {
            if floor(i, item) > min_err.load(Ordering::Relaxed) {
                return None;
            }
            let r = job(i, item);
            if let Err((rank, _)) = &r {
                min_err.fetch_min(*rank, Ordering::Relaxed);
            }
            Some(r)
        });
        let mut out = Vec::with_capacity(items.len());
        let mut failed: Option<(usize, E)> = None;
        for r in results {
            match r {
                Some(Ok(v)) => out.push(v),
                Some(Err((rank, e))) if failed.as_ref().is_none_or(|&(f, _)| rank < f) => {
                    failed = Some((rank, e));
                }
                // A job is skipped only above a recorded error, so the
                // walk meets that error too.
                Some(Err(_)) | None => {}
            }
        }
        match failed {
            Some((_, e)) => Err(e),
            None => {
                assert_eq!(out.len(), items.len(), "job skipped with no error recorded");
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_arrive_in_declaration_order() {
        let items: Vec<u64> = (0..100).collect();
        // Make early jobs the slowest so completion order inverts
        // declaration order under parallelism.
        let out = Executor::new(4).map(&items, |_, &x| {
            std::thread::sleep(std::time::Duration::from_micros(100 - x));
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_one_to_eight_threads() {
        let items: Vec<u64> = (0..57).collect();
        let reference = Executor::new(1).map(&items, |i, &x| (i as u64) * 1000 + x);
        for threads in 2..=8 {
            let got = Executor::new(threads).map(&items, |i, &x| (i as u64) * 1000 + x);
            assert_eq!(got, reference, "thread count {threads} diverged");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let items = vec![(); 500];
        Executor::new(8).map(&items, |_, ()| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(Executor::new(4).map(&empty, |_, &x| x).is_empty());
        assert_eq!(Executor::new(8).map(&[7], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(Executor::new(0).threads() >= 1);
        assert_eq!(Executor::new(3).threads(), 3);
    }

    #[test]
    fn try_map_returns_first_error_in_item_order() {
        let items: Vec<u64> = (0..64).collect();
        // Items 10 and 40 fail; whichever finishes first must not win.
        let err = Executor::new(6)
            .try_map(
                &items,
                |_, &x| {
                    if x == 10 || x == 40 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                },
            )
            .unwrap_err();
        assert_eq!(err, 10);
        let ok = Executor::new(6)
            .try_map(&items, |_, &x| Ok::<_, ()>(x))
            .unwrap();
        assert_eq!(ok, items);
    }

    #[test]
    fn try_map_skips_jobs_past_a_known_error() {
        // Sequentially (1 thread), an error at index 0 makes every later
        // job skippable: exactly one job actually runs.
        let ran = AtomicU64::new(0);
        let items: Vec<u64> = (0..100).collect();
        let err = Executor::new(1)
            .try_map(&items, |i, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    Err("boom")
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert_eq!(err, "boom");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            1,
            "later jobs were not skipped"
        );
    }

    #[test]
    fn try_map_ranked_returns_the_lowest_rank_whichever_job_holds_it() {
        // Job i covers ranks 10i (its floor) and 10i + 9. Job 0 fails at
        // its high rank 9, job 1 at 15 and job 2 at its floor 20...
        let items: Vec<usize> = (0..6).collect();
        let fail = |i: usize| match i {
            0 => Some(9),
            1 => Some(15),
            2 => Some(20),
            _ => None,
        };
        for threads in [1, 3] {
            let ran = AtomicU64::new(0);
            let err = Executor::new(threads)
                .try_map_ranked(
                    &items,
                    |_, &i| 10 * i,
                    |_, &i| {
                        ran.fetch_add(1, Ordering::Relaxed);
                        fail(i).map_or(Ok(i), |rank| Err((rank, rank)))
                    },
                )
                .unwrap_err();
            assert_eq!(err, 9, "{threads} thread(s)");
            if threads == 1 {
                // ...so job 1's floor (10) is past rank 9: only job 0 runs.
                assert_eq!(ran.load(Ordering::Relaxed), 1);
            }
        }
        // A job whose floor is below a known failure still runs and wins.
        let err = Executor::new(1)
            .try_map_ranked(
                &items,
                |i, _| i,
                |i, _| match i {
                    0 => Err((5, "late")),
                    3 => Err((3, "early")),
                    _ => Ok(i),
                },
            )
            .unwrap_err();
        assert_eq!(err, "early");
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let items = vec![1, 2, 3, 4];
        Executor::new(2).map(&items, |_, &x| {
            if x == 3 {
                panic!("job failed");
            }
            x
        });
    }
}
