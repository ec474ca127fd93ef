//! Stream-driven execution of one core.
//!
//! Each core pulls memory operations from its workload stream on demand,
//! with at most one outstanding LLC request (paper §3). Private L1/L2
//! hits advance the core's local clock without bus traffic; a private
//! miss parks the operation in the PRB (timestamped after the L2 lookup
//! latency) and stalls the core until the LLC responds in one of its TDM
//! slots.
//!
//! Because operations are pulled lazily — exactly one look-ahead, the
//! op being executed — a core's memory footprint is independent of the
//! workload length: a million-op generator stream costs the same as a
//! ten-op one.

use predllc_bus::{Prb, Pwb, SlotArbiter, WbKind, WriteBack};
use predllc_cache::{PrivateHierarchy, PrivateLookup};
use predllc_model::{CoreId, Cycles, LineAddr, MemOp, WayIdx};

use crate::stats::CoreStats;

/// What a call to [`CoreModel::advance_to`] may leave behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoreProgress {
    /// The core is still executing private hits (or waiting for its local
    /// clock to catch up).
    Running,
    /// The core has a request parked in its PRB and is stalled.
    Stalled,
    /// The trace is exhausted.
    Finished,
}

/// What a [`CoreModel::advance_run`] batch advance accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunSummary {
    /// The core's state after the run.
    pub progress: CoreProgress,
    /// Start time of the last operation the run executed, if any — the
    /// moment the reference engine would have counted that operation's
    /// completion (at the first slot boundary at or after it).
    pub last_op_start: Option<Cycles>,
}

/// One simulated core: workload stream, private hierarchy, bus-side
/// buffers.
///
/// Generic over the operation source `I` so the engine can drive it from
/// any [`Workload`](predllc_workload::Workload) stream; tests and tools
/// can instantiate it with a plain `vec.into_iter()`.
#[derive(Debug)]
pub(crate) struct CoreModel<I> {
    id: CoreId,
    ops: I,
    /// The private L1I/L1D/L2 stack.
    pub private: PrivateHierarchy,
    /// The pending request buffer (capacity one).
    pub prb: Prb,
    /// The pending write-back buffer.
    pub pwb: Pwb,
    /// The PRB/PWB slot arbiter.
    pub arbiter: SlotArbiter,
    /// The next cycle at which the core can execute an operation.
    resume_at: Cycles,
    finished: bool,
    l1_latency: Cycles,
    l2_latency: Cycles,
}

impl<I: Iterator<Item = MemOp>> CoreModel<I> {
    /// Creates a core over its operation stream.
    pub(crate) fn new(
        id: CoreId,
        ops: I,
        private: PrivateHierarchy,
        arbiter: SlotArbiter,
        l1_latency: Cycles,
        l2_latency: Cycles,
    ) -> Self {
        CoreModel {
            id,
            ops,
            private,
            prb: Prb::new(),
            pwb: Pwb::new(),
            arbiter,
            resume_at: Cycles::ZERO,
            finished: false,
            l1_latency,
            l2_latency,
        }
    }

    /// This core's identifier.
    pub(crate) fn id(&self) -> CoreId {
        self.id
    }

    /// Whether the stream is exhausted and the last operation completed.
    pub(crate) fn is_finished(&self) -> bool {
        self.finished
    }

    /// Executes private-hit operations up to (and including) cycle `now`,
    /// stopping at the first private miss, which is parked in the PRB.
    ///
    /// Never advances past `now`: the outcome of an operation issued
    /// after `now` could still be changed by back-invalidations arriving
    /// at the `now` slot boundary.
    pub(crate) fn advance_to(&mut self, now: Cycles, stats: &mut CoreStats) -> CoreProgress {
        self.advance_run(now, stats).progress
    }

    /// Batch-advances the core through its whole private-hit run: executes
    /// operations until the next private miss, the end of the stream, or
    /// the first operation that would start after `horizon`.
    ///
    /// Behaviour is identical to [`CoreModel::advance_to`]`(horizon)` —
    /// runs are pure-local, so executing them in one call instead of one
    /// slot-boundary-bounded call per slot changes nothing observable —
    /// but the loop keeps its accumulators in locals and folds them into
    /// `stats` once, and it reports the start time of the last executed
    /// operation so the fast-forward engine can account op progress at
    /// the exact slot boundary where the reference engine would have seen
    /// it (its deadlock guard counts slots without progress).
    pub(crate) fn advance_run(&mut self, horizon: Cycles, stats: &mut CoreStats) -> RunSummary {
        let mut ops = 0u64;
        let mut l1 = 0u64;
        let mut l2 = 0u64;
        let mut last_op_start = None;
        let progress = loop {
            if self.finished {
                break CoreProgress::Finished;
            }
            if !self.prb.is_empty() {
                break CoreProgress::Stalled;
            }
            if self.resume_at > horizon {
                break CoreProgress::Running;
            }
            let Some(op) = self.ops.next() else {
                self.finished = true;
                stats.finished_at = self.resume_at;
                break CoreProgress::Finished;
            };
            match self.private.access(op) {
                PrivateLookup::L1Hit => {
                    last_op_start = Some(self.resume_at);
                    self.resume_at += self.l1_latency;
                    ops += 1;
                    l1 += 1;
                }
                PrivateLookup::L2Hit => {
                    last_op_start = Some(self.resume_at);
                    self.resume_at += self.l2_latency;
                    ops += 1;
                    l2 += 1;
                }
                PrivateLookup::Miss => {
                    let ready = self.resume_at + self.l2_latency;
                    self.prb.insert(op, ready);
                    break CoreProgress::Stalled;
                }
            }
        };
        stats.ops_completed += ops;
        stats.l1_hits += l1;
        stats.l2_hits += l2;
        RunSummary {
            progress,
            last_op_start,
        }
    }

    /// Whether the PRB holds a request that is ready for the bus at
    /// `now` (it has finished its private lookup).
    pub(crate) fn request_ready(&self, now: Cycles) -> bool {
        self.prb.peek().is_some_and(|r| r.issued_at <= now)
    }

    /// Whether the PRB request targets a line for which this core still
    /// has a write-back queued — a hazard that forces the write-back to
    /// drain first regardless of arbiter policy.
    pub(crate) fn request_hazard(&self) -> bool {
        self.prb
            .peek()
            .is_some_and(|r| self.pwb.contains_line(r.op.addr.line()))
    }

    /// Completes the outstanding request: refills the private hierarchy
    /// and resumes execution at `resume` (the end of the response slot).
    /// The refilled L2 copy keeps `llc_way`, the LLC way that answered.
    ///
    /// Returns the request's issue timestamp (for latency accounting)
    /// and the clean L2 victim the refill dropped, if any, with the LLC
    /// way its own refill kept — the engine forwards every such drop to
    /// the LLC, which clears the core's sharer bit. A dirty victim is
    /// pushed to the PWB as a capacity write-back instead.
    ///
    /// # Panics
    ///
    /// Panics if no request is outstanding.
    pub(crate) fn complete_request(
        &mut self,
        resume: Cycles,
        llc_way: WayIdx,
        stats: &mut CoreStats,
    ) -> (Cycles, Option<(LineAddr, WayIdx)>) {
        let req = self.prb.take().expect("a response needs a pending request");
        let effect = self.private.refill(req.op, llc_way.0);
        if let Some(line) = effect.dirty_writeback {
            self.pwb.push(WriteBack {
                line,
                dirty: true,
                kind: WbKind::CapacityEviction,
                enqueued_at: resume,
            });
        }
        self.resume_at = resume;
        stats.ops_completed += 1;
        (
            req.issued_at,
            effect.clean_drop.map(|(line, way)| (line, WayIdx(way))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predllc_bus::ArbiterPolicy;
    use predllc_model::Address;

    fn core_with(trace: Vec<MemOp>) -> CoreModel<std::vec::IntoIter<MemOp>> {
        CoreModel::new(
            CoreId::new(0),
            trace.into_iter(),
            PrivateHierarchy::paper_default(),
            SlotArbiter::new(ArbiterPolicy::WritebackFirst),
            Cycles::new(1),
            Cycles::new(10),
        )
    }

    fn read(line: u64) -> MemOp {
        MemOp::read(Address::new(line * 64))
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let mut c = core_with(vec![]);
        let mut stats = CoreStats::default();
        assert_eq!(
            c.advance_to(Cycles::ZERO, &mut stats),
            CoreProgress::Finished
        );
        assert!(c.is_finished());
        assert_eq!(stats.finished_at, Cycles::ZERO);
    }

    #[test]
    fn first_access_misses_and_parks_in_prb() {
        let mut c = core_with(vec![read(0)]);
        let mut stats = CoreStats::default();
        assert_eq!(
            c.advance_to(Cycles::ZERO, &mut stats),
            CoreProgress::Stalled
        );
        // Miss detected after the 10-cycle L2 lookup.
        assert_eq!(c.prb.peek().unwrap().issued_at, Cycles::new(10));
        assert!(!c.request_ready(Cycles::new(9)));
        assert!(c.request_ready(Cycles::new(10)));
    }

    #[test]
    fn completion_resumes_and_hits_privately() {
        let mut c = core_with(vec![read(0), read(0), read(0)]);
        let mut stats = CoreStats::default();
        c.advance_to(Cycles::ZERO, &mut stats);
        let (issued, clean_drop) = c.complete_request(Cycles::new(100), WayIdx(0), &mut stats);
        assert_eq!(issued, Cycles::new(10));
        assert_eq!(clean_drop, None);
        assert_eq!(stats.ops_completed, 1);
        // The two remaining reads are L1 hits at 1 cycle each.
        assert_eq!(
            c.advance_to(Cycles::new(200), &mut stats),
            CoreProgress::Finished
        );
        assert_eq!(stats.l1_hits, 2);
        assert_eq!(stats.finished_at, Cycles::new(102));
    }

    #[test]
    fn advance_does_not_run_past_now() {
        let mut c = core_with(vec![read(0), read(0)]);
        let mut stats = CoreStats::default();
        c.advance_to(Cycles::ZERO, &mut stats);
        c.complete_request(Cycles::new(100), WayIdx(0), &mut stats);
        // At now = 100 the core issues the op at 100; it completes at 101,
        // past the boundary, so the core reports Running (not Finished) —
        // finishing is only observed once `now` reaches the completion.
        assert_eq!(
            c.advance_to(Cycles::new(100), &mut stats),
            CoreProgress::Running,
        );
        assert_eq!(
            c.advance_to(Cycles::new(101), &mut stats),
            CoreProgress::Finished,
        );
        assert_eq!(stats.finished_at, Cycles::new(101));
    }

    #[test]
    fn hazard_detected_when_request_line_has_queued_writeback() {
        let mut c = core_with(vec![read(0)]);
        let mut stats = CoreStats::default();
        c.advance_to(Cycles::ZERO, &mut stats);
        assert!(!c.request_hazard());
        c.pwb.push(WriteBack {
            line: LineAddr::new(0),
            dirty: true,
            kind: WbKind::BackInvalAck,
            enqueued_at: Cycles::ZERO,
        });
        assert!(c.request_hazard());
    }

    #[test]
    fn dirty_refill_victim_lands_in_pwb() {
        // Tiny L2 so a refill evicts a dirty line quickly.
        let mut c = CoreModel::new(
            CoreId::new(0),
            vec![
                MemOp::write(Address::new(0)),
                MemOp::read(Address::new(64)),
                MemOp::read(Address::new(128)),
            ]
            .into_iter(),
            PrivateHierarchy::new(
                predllc_model::CacheGeometry::new(1, 1, 64).unwrap(),
                predllc_model::CacheGeometry::new(1, 1, 64).unwrap(),
                predllc_model::CacheGeometry::new(1, 2, 64).unwrap(),
                predllc_cache::ReplacementKind::Lru,
            ),
            SlotArbiter::new(ArbiterPolicy::WritebackFirst),
            Cycles::new(1),
            Cycles::new(10),
        );
        let mut stats = CoreStats::default();
        c.advance_to(Cycles::ZERO, &mut stats);
        c.complete_request(Cycles::new(50), WayIdx(0), &mut stats); // write 0 (dirty)
        c.advance_to(Cycles::new(50), &mut stats);
        c.complete_request(Cycles::new(100), WayIdx(0), &mut stats); // read 64
        c.advance_to(Cycles::new(100), &mut stats);
        // Refilling line 2 evicts the dirty line 0 from the 2-way L2.
        c.complete_request(Cycles::new(150), WayIdx(0), &mut stats);
        assert_eq!(c.pwb.len(), 1);
        let wb = c.pwb.peek().unwrap();
        assert_eq!(wb.line, LineAddr::new(0));
        assert_eq!(wb.kind, WbKind::CapacityEviction);
        assert!(wb.dirty);
    }
}
