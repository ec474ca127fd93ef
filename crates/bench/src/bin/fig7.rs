//! Regenerates **Figure 7** of the paper: observed worst-case latency of
//! SS/NSS/P one-set partition configurations across address ranges,
//! against the analytical WCLs (5000 cycles for SS, 979250 for NSS at 16
//! ways / 21650 at 2 ways, 450 for P).
//!
//! Usage: `cargo run --release -p predllc-bench --bin fig7 [--csv] [--ops N] [--seed S] [--writes F]`

use predllc_bench::flags::Flags;
use predllc_bench::render::{render_seed_csv, render_table, Metric};
use predllc_bench::{data, error};
use predllc_core::SharingMode::{BestEffort, SetSequencer};
use predllc_dram::MemoryConfig;
use predllc_explore::spec::Partitioning::{PrivateEach, SharedAll};
use predllc_explore::{run_grid, ConfigSpec, Executor, ExperimentSpec, WorkloadEntry};
use predllc_workload::WorkloadSpec;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            error!("fig7: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the grid; `Ok(false)` means a bound-violation check failed.
fn run() -> Result<bool, Box<dyn std::error::Error>> {
    let flags = Flags::from_env();
    let ops = flags.value("--ops", 2_000)?;
    let seed = flags.value("--seed", 0xF167)?;
    let write_fraction = flags.value("--writes", 0.2)?;

    // The paper's Fig. 7 configurations: one-set partitions "to force as
    // many conflicts as possible".
    let shared = |ways, mode| SharedAll {
        sets: 1,
        ways,
        mode,
    };
    let configs = [
        ("SS(1,2,4)", shared(2, SetSequencer)),
        ("SS(1,4,4)", shared(4, SetSequencer)),
        ("NSS(1,2,4)", shared(2, BestEffort)),
        ("NSS(1,4,4)", shared(4, BestEffort)),
        ("P(1,2)", PrivateEach { sets: 1, ways: 2 }),
        ("P(1,4)", PrivateEach { sets: 1, ways: 4 }),
    ];
    // The x-axis: per-core address ranges 1 KiB … 256 KiB. The same
    // (seed, ops) yields the same addresses under every configuration.
    let spec = ExperimentSpec {
        name: "fig7".into(),
        cores: 4,
        configs: configs
            .into_iter()
            .map(|(label, partitioning)| ConfigSpec {
                label: label.into(),
                partitioning,
                memory: MemoryConfig::default(),
                schedule: None,
            })
            .collect(),
        workloads: (10..=18)
            .map(|k| {
                let range_bytes = 1u64 << k;
                WorkloadEntry {
                    label: format!("uniform/{range_bytes}B"),
                    x: range_bytes,
                    spec: WorkloadSpec::Uniform {
                        range_bytes,
                        ops,
                        seed,
                        write_fraction,
                    },
                }
            })
            .collect(),
        tasks: Vec::new(),
        search: None,
        attribution: false,
    };
    let mut rows = run_grid(&spec, &Executor::new(0))?;
    rows.sort_by(|a, b| (a.x, &a.config).cmp(&(b.x, &b.config)));

    if flags.has("--csv") {
        predllc_bench::log::write_data(&render_seed_csv(&rows));
        return Ok(true);
    }
    data!(
        "{}",
        render_table(
            "Figure 7: observed WCL (cycles) vs per-core address range",
            &rows,
            Metric::ObservedWcl,
        )
    );
    data!("Analytical WCLs (cycles):");
    for c in &spec.configs {
        let bound = rows
            .iter()
            .find(|r| r.config == c.label)
            .and_then(|r| r.analytical_wcl);
        data!(
            "  {:<12} {}",
            c.label,
            bound.map_or("-".to_string(), |v| v.to_string())
        );
    }
    data!();
    // The paper's criterion: every observation within its analytical WCL.
    let violations: Vec<_> = rows
        .iter()
        .filter(|r| r.analytical_wcl.is_some_and(|a| r.observed_wcl > a))
        .collect();
    if violations.is_empty() {
        data!("CHECK ok: all observed WCLs are within their analytical bounds");
        Ok(true)
    } else {
        data!(
            "CHECK FAILED: {} observations exceed their bound:",
            violations.len()
        );
        for v in violations {
            data!(
                "  {} @ {} B: observed {} > analytical {}",
                v.config,
                v.x,
                v.observed_wcl,
                v.analytical_wcl.unwrap_or(0)
            );
        }
        Ok(false)
    }
}
