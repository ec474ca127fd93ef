//! The worst-case adapter: sound WCL experiments on any backend.

use predllc_model::Cycles;

use crate::backend::{MemAccess, MemRequest, MemStats, MemoryBackend};

/// Wraps a backend and answers **every** request with the wrapped
/// backend's analytical worst-case latency.
///
/// The inner backend still sees every access (its bank state machines
/// advance and decide the row outcome), but the latency reported upward
/// is pinned to [`MemoryBackend::worst_case_latency`], and the adapter
/// keeps its own statistics so `mem_stats()` describes what the engine
/// actually observed (in particular `max_latency` equals the bound).
/// This makes WCL experiments sound by construction: a run against
/// `WorstCase<B>` charges each miss fill and write-back what the
/// analysis assumes, so observed request latencies upper-bound any run
/// against `B` itself.
///
/// # Examples
///
/// ```
/// use predllc_dram::{FixedLatency, MemRequest, MemoryBackend, WorstCase};
/// use predllc_model::{CoreId, Cycles, LineAddr};
///
/// let mut wc = WorstCase::new(FixedLatency::new(Cycles::new(20)));
/// let a = wc.access(MemRequest::fetch(LineAddr::new(0), CoreId::new(0), Cycles::ZERO));
/// assert_eq!(a.latency, Cycles::new(20));
/// ```
#[derive(Debug, Clone)]
pub struct WorstCase<B> {
    inner: B,
    stats: MemStats,
}

impl<B: MemoryBackend> WorstCase<B> {
    /// Wraps a backend.
    pub fn new(inner: B) -> Self {
        WorstCase {
            inner,
            stats: MemStats::default(),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: MemoryBackend> MemoryBackend for WorstCase<B> {
    fn access(&mut self, req: MemRequest) -> MemAccess {
        let real = self.inner.access(req);
        let pinned = MemAccess {
            latency: self.inner.worst_case_latency(),
            ..real
        };
        self.stats.record(&pinned, req.write);
        pinned
    }

    fn worst_case_latency(&self) -> Cycles {
        self.inner.worst_case_latency()
    }

    fn mem_stats(&self) -> &MemStats {
        &self.stats
    }

    fn label(&self) -> String {
        format!("wc({})", self.inner.label())
    }

    fn next_busy_until(&self) -> Cycles {
        self.inner.next_busy_until()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banked::BankedDram;
    use crate::mapping::BankMapping;
    use crate::timing::DramTiming;
    use predllc_model::{CoreId, DramGeometry, LineAddr};

    #[test]
    fn every_answer_is_the_analytical_worst_case() {
        let inner = BankedDram::new(
            DramTiming::PAPER,
            DramGeometry::PAPER,
            BankMapping::Interleaved,
            2,
        )
        .unwrap();
        let wc_latency = inner.worst_case_latency();
        let mut wc = WorstCase::new(inner);
        for (i, at) in [(0u64, 0u64), (1, 50), (512, 100), (513, 150)] {
            let a = wc.access(MemRequest::fetch(
                LineAddr::new(i),
                CoreId::new(0),
                Cycles::new(at),
            ));
            assert_eq!(a.latency, wc_latency);
        }
        // The inner model still decided row outcomes underneath, and the
        // adapter's own stats report the pinned latencies.
        assert_eq!(wc.mem_stats().row_hits, 2);
        assert_eq!(wc.inner().mem_stats().row_hits, 2);
        assert_eq!(wc.mem_stats().max_latency, wc_latency);
        assert!(wc.label().starts_with("wc(banked("));
    }
}
