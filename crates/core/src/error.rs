//! Configuration and runtime error types for the simulator.

use std::error::Error;
use std::fmt;

use predllc_model::{CoreId, Cycles};

/// Errors raised while validating a simulator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The system has zero cores.
    NoCores,
    /// A core is mapped to no partition.
    CoreWithoutPartition {
        /// The unmapped core.
        core: CoreId,
    },
    /// A core is mapped to more than one partition.
    CoreInMultiplePartitions {
        /// The multiply-mapped core.
        core: CoreId,
    },
    /// A partition lists a core outside the system.
    PartitionCoreOutOfRange {
        /// The out-of-range core.
        core: CoreId,
        /// The number of cores in the system.
        num_cores: u16,
    },
    /// A partition has no cores mapped to it.
    EmptyPartition {
        /// Index of the empty partition in the map.
        index: usize,
    },
    /// A partition has a zero dimension.
    ZeroPartition {
        /// Index of the degenerate partition in the map.
        index: usize,
    },
    /// The partitions exceed the physical LLC capacity.
    PartitionsExceedLlc {
        /// Total lines requested across all partitions.
        requested_lines: u64,
        /// Lines available in the physical LLC.
        available_lines: u64,
    },
    /// A partition is wider or taller than the physical LLC.
    PartitionExceedsGeometry {
        /// Index of the oversized partition in the map.
        index: usize,
    },
    /// A partition has more member cores than the LLC's sharer tracking
    /// holds ([`crate::partition::MAX_PARTITION_CORES`]).
    PartitionTooManyCores {
        /// Index of the over-full partition in the map.
        index: usize,
        /// The number of cores mapped to it.
        cores: usize,
    },
    /// The TDM schedule covers a different number of cores than the
    /// system.
    ScheduleCoreMismatch {
        /// Cores covered by the schedule.
        schedule_cores: u16,
        /// Cores in the system.
        system_cores: u16,
    },
    /// The DRAM latency does not fit into a bus slot, violating the
    /// system-model requirement that a miss fill completes within the
    /// requester's slot.
    DramExceedsSlot {
        /// Configured DRAM latency in cycles.
        dram_latency: u64,
        /// Configured slot width in cycles.
        slot_width: u64,
    },
    /// A (non-fixed-latency) memory backend's analytical worst-case
    /// access latency does not fit into a bus slot — the slot-budget
    /// invariant every backend must satisfy (the banked analogue of
    /// [`ConfigError::DramExceedsSlot`]).
    BackendExceedsSlot {
        /// Report label of the offending backend.
        backend: String,
        /// The backend's analytical worst-case latency in cycles.
        worst_case: u64,
        /// Configured slot width in cycles.
        slot_width: u64,
    },
    /// An invalid memory-backend configuration was supplied.
    Memory(predllc_dram::DramError),
    /// An invalid model-level value (slot width, geometry) was supplied.
    Model(predllc_model::ModelError),
    /// An invalid bus schedule was supplied.
    Schedule(predllc_bus::ScheduleError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoCores => write!(f, "system must have at least one core"),
            ConfigError::CoreWithoutPartition { core } => {
                write!(f, "core {core} is not mapped to any partition")
            }
            ConfigError::CoreInMultiplePartitions { core } => {
                write!(f, "core {core} is mapped to more than one partition")
            }
            ConfigError::PartitionCoreOutOfRange { core, num_cores } => {
                write!(
                    f,
                    "partition references {core} but the system has only {num_cores} cores"
                )
            }
            ConfigError::EmptyPartition { index } => {
                write!(f, "partition {index} has no cores mapped to it")
            }
            ConfigError::ZeroPartition { index } => {
                write!(f, "partition {index} has a zero dimension")
            }
            ConfigError::PartitionsExceedLlc {
                requested_lines,
                available_lines,
            } => write!(
                f,
                "partitions request {requested_lines} lines but the LLC has {available_lines}"
            ),
            ConfigError::PartitionExceedsGeometry { index } => {
                write!(
                    f,
                    "partition {index} is larger than the physical LLC in some dimension"
                )
            }
            ConfigError::PartitionTooManyCores { index, cores } => write!(
                f,
                "partition {index} has {cores} cores but a partition holds at most {}",
                crate::partition::MAX_PARTITION_CORES
            ),
            ConfigError::ScheduleCoreMismatch {
                schedule_cores,
                system_cores,
            } => write!(
                f,
                "schedule covers {schedule_cores} cores but the system has {system_cores}"
            ),
            ConfigError::DramExceedsSlot {
                dram_latency,
                slot_width,
            } => write!(
                f,
                "dram latency {dram_latency} does not fit in the {slot_width}-cycle slot"
            ),
            ConfigError::BackendExceedsSlot {
                backend,
                worst_case,
                slot_width,
            } => write!(
                f,
                "memory backend {backend} has worst-case latency {worst_case}, which does \
                 not fit in the {slot_width}-cycle slot"
            ),
            ConfigError::Memory(e) => write!(f, "invalid memory backend: {e}"),
            ConfigError::Model(e) => write!(f, "invalid model parameter: {e}"),
            ConfigError::Schedule(e) => write!(f, "invalid schedule: {e}"),
        }
    }
}

impl Error for ConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConfigError::Model(e) => Some(e),
            ConfigError::Schedule(e) => Some(e),
            ConfigError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<predllc_model::ModelError> for ConfigError {
    fn from(e: predllc_model::ModelError) -> Self {
        ConfigError::Model(e)
    }
}

impl From<predllc_bus::ScheduleError> for ConfigError {
    fn from(e: predllc_bus::ScheduleError) -> Self {
        ConfigError::Schedule(e)
    }
}

impl From<predllc_dram::DramError> for ConfigError {
    fn from(e: predllc_dram::DramError) -> Self {
        ConfigError::Memory(e)
    }
}

/// Errors raised while running a simulation ([`crate::Simulator::run`]).
///
/// The redesigned run API is panic-free: conditions the engine used to
/// `panic!` on (most notably the deadlock guard) are reported as typed
/// errors so long sweeps can skip a bad point and keep going.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The workload drives a different number of cores than the system
    /// has (`Workload::num_cores()` must equal `SystemConfig::num_cores`).
    CoreCountMismatch {
        /// Cores the workload drives.
        workload_cores: u16,
        /// Cores in the system.
        system_cores: u16,
    },
    /// The engine observed no bus transaction for its guard interval
    /// while cores still had unfinished work. A correct configuration
    /// always makes progress eventually, so this indicates a simulator
    /// bug — but it is reported as an error, not a panic, so a sweep can
    /// record the failure and continue.
    Deadlock {
        /// The cycle at which the deadlock was declared.
        cycle: Cycles,
        /// The cores that still had unfinished work.
        pending: Vec<CoreId>,
    },
    /// A configuration failed validation on the way into a run — raised
    /// by batch surfaces (sweeps, experiment grids) that construct
    /// simulators from declared configurations, so one bad column is a
    /// typed error instead of a panic.
    Config(ConfigError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CoreCountMismatch {
                workload_cores,
                system_cores,
            } => write!(
                f,
                "workload drives {workload_cores} cores but the system has {system_cores}"
            ),
            SimError::Deadlock { cycle, pending } => {
                write!(
                    f,
                    "deadlock at cycle {}: no bus transaction while {} core(s) have \
                     unfinished work (simulator bug)",
                    cycle.as_u64(),
                    pending.len()
                )
            }
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_static() {
        fn assert_good<E: Error + Send + Sync + 'static>() {}
        assert_good::<ConfigError>();
        assert_good::<SimError>();
    }

    #[test]
    fn sim_error_displays() {
        let e = SimError::CoreCountMismatch {
            workload_cores: 2,
            system_cores: 4,
        };
        assert_eq!(
            e.to_string(),
            "workload drives 2 cores but the system has 4"
        );
        let d = SimError::Deadlock {
            cycle: Cycles::new(5_000_000),
            pending: vec![CoreId::new(0), CoreId::new(3)],
        };
        let msg = d.to_string();
        assert!(msg.contains("5000000") && msg.contains("2 core(s)"));
        assert!(!msg.ends_with('.'));
        let c = SimError::from(ConfigError::NoCores);
        assert!(c.to_string().contains("invalid configuration"));
        assert!(c.source().is_some());
    }

    #[test]
    fn displays_are_nonempty_and_unpunctuated() {
        let samples: Vec<ConfigError> = vec![
            ConfigError::NoCores,
            ConfigError::CoreWithoutPartition {
                core: CoreId::new(1),
            },
            ConfigError::PartitionsExceedLlc {
                requested_lines: 600,
                available_lines: 512,
            },
            ConfigError::DramExceedsSlot {
                dram_latency: 80,
                slot_width: 50,
            },
            ConfigError::BackendExceedsSlot {
                backend: "banked(1x8,interleaved)".into(),
                worst_case: 60,
                slot_width: 50,
            },
            ConfigError::Memory(predllc_dram::DramError::BanksNotDivisibleByCores {
                banks: 8,
                cores: 3,
            }),
            ConfigError::Model(predllc_model::ModelError::ZeroSlotWidth),
        ];
        for e in samples {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn sources_chain_for_wrapped_errors() {
        let e = ConfigError::Model(predllc_model::ModelError::ZeroGeometry);
        assert!(e.source().is_some());
        let m = ConfigError::from(predllc_dram::DramError::BanksNotDivisibleByCores {
            banks: 8,
            cores: 3,
        });
        assert!(m.source().is_some());
        assert!(ConfigError::NoCores.source().is_none());
    }
}
