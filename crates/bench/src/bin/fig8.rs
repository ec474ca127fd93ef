//! Regenerates **Figure 8** of the paper: execution time of the
//! synthetic workload when a fixed LLC capacity is shared (SS/NSS) vs.
//! split into private partitions (P), for 2- and 4-core setups at 4096 B
//! and 8192 B total capacity.
//!
//! The paper's captions print `P(8,2)` / `P(8,4)` for both core counts.
//! For 4 cores that is the equal division of the fixed capacity; for 2
//! cores equal division would be `P(16,2)` / `P(16,4)`. Both readings are
//! reported (the printed one as `P`, the equal division as `P=`); see
//! `EXPERIMENTS.md`.
//!
//! Usage: `cargo run --release -p predllc-bench --bin fig8 [--csv] [--ops N] [--seed S] [--writes F]`

use predllc_bench::flags::Flags;
use predllc_bench::render::{render_seed_csv, render_table, Metric};
use predllc_bench::{data, error};
use predllc_core::SharingMode::{BestEffort, SetSequencer};
use predllc_dram::MemoryConfig;
use predllc_explore::spec::Partitioning::{self, PrivateEach, SharedAll};
use predllc_explore::{run_grid, ConfigSpec, Executor, ExperimentSpec, GridResult, WorkloadEntry};
use predllc_workload::WorkloadSpec;
use std::process::ExitCode;

/// One figure panel: a title, a core count and its configurations
/// (the shared-SS column first — the speedups are relative to it).
struct Panel {
    title: &'static str,
    cores: u16,
    configs: Vec<(&'static str, Partitioning)>,
}

fn panels() -> Vec<Panel> {
    let ss = |ways| SharedAll {
        sets: 32,
        ways,
        mode: SetSequencer,
    };
    let nss = |ways| SharedAll {
        sets: 32,
        ways,
        mode: BestEffort,
    };
    let p = |sets, ways| PrivateEach { sets, ways };
    vec![
        Panel {
            title: "Figure 8a: 2-core, 4096 B partition — execution time (cycles)",
            cores: 2,
            configs: vec![
                ("SS(32,2,2)", ss(2)),
                ("NSS(32,2,2)", nss(2)),
                ("P(8,2)", p(8, 2)),
                ("P=(16,2)", p(16, 2)),
            ],
        },
        Panel {
            title: "Figure 8b: 2-core, 8192 B partition — execution time (cycles)",
            cores: 2,
            configs: vec![
                ("SS(32,4,2)", ss(4)),
                ("NSS(32,4,2)", nss(4)),
                ("P(8,4)", p(8, 4)),
                ("P=(16,4)", p(16, 4)),
            ],
        },
        Panel {
            title: "Figure 8c: 4-core, 4096 B partition — execution time (cycles)",
            cores: 4,
            configs: vec![
                ("SS(32,2,4)", ss(2)),
                ("NSS(32,2,4)", nss(2)),
                ("P(8,2)", p(8, 2)),
            ],
        },
        Panel {
            title: "Figure 8d: 4-core, 8192 B partition — execution time (cycles)",
            cores: 4,
            configs: vec![
                ("SS(32,4,4)", ss(4)),
                ("NSS(32,4,4)", nss(4)),
                ("P(8,4)", p(8, 4)),
            ],
        },
    ]
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            error!("fig8: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let flags = Flags::from_env();
    let ops = flags.value("--ops", 4_000)?;
    let seed = flags.value("--seed", 0xF168)?;
    let write_fraction = flags.value("--writes", 0.0)?;

    let exec = Executor::new(0);
    for panel in panels() {
        // The x-axis: per-core address ranges 1 KiB … 256 KiB.
        let spec = ExperimentSpec {
            name: panel.title.into(),
            cores: panel.cores,
            configs: panel
                .configs
                .iter()
                .map(|(label, partitioning)| ConfigSpec {
                    label: (*label).into(),
                    partitioning: partitioning.clone(),
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
        let mut rows = run_grid(&spec, &exec)?;
        rows.sort_by(|a, b| (a.x, &a.config).cmp(&(b.x, &b.config)));

        if flags.has("--csv") {
            predllc_bench::log::write_data(&render_seed_csv(&rows));
        } else {
            data!(
                "{}",
                render_table(panel.title, &rows, Metric::ExecutionTime)
            );
            print_speedups(&panel, &rows);
        }
    }
    Ok(())
}

/// The paper reports SS's average speedup over NSS and P across the
/// ranges where the address range exceeds the partition share.
fn print_speedups(panel: &Panel, rows: &[GridResult]) {
    let ss_label = panel.configs[0].0;
    for &(label, _) in panel.configs.iter().skip(1) {
        let mut ratios = Vec::new();
        for r in rows.iter().filter(|r| r.config == ss_label) {
            if let Some(other) = rows.iter().find(|o| o.config == label && o.x == r.x) {
                if r.execution_time > 0 {
                    ratios.push(other.execution_time as f64 / r.execution_time as f64);
                }
            }
        }
        if !ratios.is_empty() {
            let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
            data!("  average speedup of {ss_label} over {label}: {avg:.2}x");
        }
    }
    data!();
}
