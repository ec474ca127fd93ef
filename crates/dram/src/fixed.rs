//! The fixed-latency memory backend — the seed simulator's DRAM model.

use predllc_model::{BankId, Cycles};

use crate::backend::{MemAccess, MemRequest, MemStats, MemoryBackend};

/// A fixed-latency DRAM: every access costs the same number of cycles.
///
/// This is bit-identical to the seed simulator's DRAM — the
/// paper's system model collapses the memory system into one constant
/// charge provisioned to cover the worst case — and is the **default**
/// memory backend of every configuration. Its
/// [`worst_case_latency`](MemoryBackend::worst_case_latency) is the
/// fixed latency itself.
///
/// # Examples
///
/// ```
/// use predllc_dram::{FixedLatency, MemRequest, MemoryBackend};
/// use predllc_model::{CoreId, Cycles, LineAddr};
///
/// let mut dram = FixedLatency::new(Cycles::new(30));
/// let a = dram.access(MemRequest::fetch(LineAddr::new(4), CoreId::new(0), Cycles::ZERO));
/// assert_eq!(a.latency, Cycles::new(30));
/// assert_eq!(dram.mem_stats().reads, 1);
/// assert_eq!(dram.worst_case_latency(), Cycles::new(30));
/// ```
#[derive(Debug, Clone)]
pub struct FixedLatency {
    latency: Cycles,
    stats: MemStats,
}

impl FixedLatency {
    /// The paper-calibrated default access latency: 30 cycles, comfortably
    /// inside the 50-cycle slot together with the LLC tag lookup.
    pub(crate) const DEFAULT_LATENCY: Cycles = Cycles::new(30);

    /// Creates a fixed-latency DRAM.
    pub fn new(latency: Cycles) -> Self {
        FixedLatency {
            latency,
            stats: MemStats::default(),
        }
    }

    /// The fixed access latency.
    pub fn latency(&self) -> Cycles {
        self.latency
    }
}

impl Default for FixedLatency {
    fn default() -> Self {
        FixedLatency::new(FixedLatency::DEFAULT_LATENCY)
    }
}

impl MemoryBackend for FixedLatency {
    fn access(&mut self, req: MemRequest) -> MemAccess {
        let access = MemAccess {
            latency: self.latency,
            bank: BankId::new(0),
            row: None,
            waited: Cycles::ZERO,
        };
        self.stats.record(&access, req.write);
        access
    }

    fn worst_case_latency(&self) -> Cycles {
        self.latency
    }

    fn mem_stats(&self) -> &MemStats {
        &self.stats
    }

    fn label(&self) -> String {
        format!("fixed({})", self.latency.as_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predllc_model::{CoreId, LineAddr};

    #[test]
    fn backend_interface_matches_seed_semantics() {
        let mut d = FixedLatency::new(Cycles::new(12));
        let r = d.access(MemRequest::fetch(
            LineAddr::new(7),
            CoreId::new(1),
            Cycles::new(100),
        ));
        assert_eq!(r.latency, Cycles::new(12));
        assert_eq!(r.row, None, "flat backend reports no row outcome");
        let w = d.access(MemRequest::write_back(
            LineAddr::new(7),
            CoreId::new(1),
            Cycles::new(150),
        ));
        assert_eq!(w.latency, Cycles::new(12));
        assert_eq!((d.mem_stats().reads, d.mem_stats().writes), (1, 1));
        assert_eq!(d.mem_stats().max_latency, Cycles::new(12));
        assert_eq!(d.label(), "fixed(12)");
    }
}
