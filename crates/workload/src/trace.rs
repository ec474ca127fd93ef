//! A named bundle of per-core traces.

use predllc_model::MemOp;

/// The traces of all cores for one experiment, with a human-readable
/// name, ready for (de)serialization.
///
/// # Examples
///
/// ```
/// use predllc_model::{Address, MemOp};
/// use predllc_workload::TraceSet;
///
/// let set = TraceSet::new(
///     "demo",
///     vec![vec![MemOp::read(Address::new(0))], vec![]],
/// );
/// assert_eq!(set.num_cores(), 2);
/// assert_eq!(set.total_ops(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSet {
    /// Experiment/workload name.
    pub name: String,
    /// One trace per core, indexed by core.
    pub traces: Vec<Vec<MemOp>>,
}

impl TraceSet {
    /// Creates a trace set.
    pub fn new(name: impl Into<String>, traces: Vec<Vec<MemOp>>) -> Self {
        TraceSet {
            name: name.into(),
            traces,
        }
    }

    /// Number of cores covered.
    pub fn num_cores(&self) -> u16 {
        self.traces.len() as u16
    }

    /// Total operations across all cores.
    pub fn total_ops(&self) -> usize {
        self.traces.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predllc_model::Address;

    #[test]
    fn counts() {
        let set = TraceSet::new(
            "t",
            vec![
                vec![MemOp::read(Address::new(0)), MemOp::write(Address::new(64))],
                vec![MemOp::read(Address::new(128))],
            ],
        );
        assert_eq!(set.num_cores(), 2);
        assert_eq!(set.total_ops(), 3);
    }
}
