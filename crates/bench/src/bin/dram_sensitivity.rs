//! DRAM sensitivity sweep: row-hit ratio × bank count × bank-sharing
//! mode, beyond the paper's fixed-latency memory model.
//!
//! Workload locality controls the row-hit ratio (a 64 B stride streams
//! whole rows; a row-sized stride forces a row miss per access; uniform
//! traffic is the random baseline), while the configuration axis sweeps
//! the banked backend's bank count under both the interleaved and the
//! bank-privatized per-core mapping, against the seed's fixed-latency
//! DRAM. The grid runs through [`predllc_explore::run_spec`], and the
//! output is the CSV with the backend label column.
//!
//! Usage: `cargo run --release -p predllc-bench --bin dram_sensitivity
//! [--quick] [--ops N]`

use predllc_bench::flags::Flags;
use predllc_bench::render::render_backend_csv;
use predllc_bench::{error, status};
use predllc_dram::{BankMapping, DramTiming, MemoryConfig};
use predllc_explore::spec::Partitioning;
use predllc_explore::{run_spec, ConfigSpec, Executor, ExperimentSpec, WorkloadEntry};
use predllc_model::DramGeometry;
use predllc_workload::WorkloadSpec;
use std::process::ExitCode;

/// Per-core window of every workload: cores stream over disjoint 64 KiB
/// windows, so they never share DRAM rows.
const WINDOW: u64 = 64 << 10;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            error!("dram_sensitivity: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the grid; `Ok(false)` means the soundness check failed.
fn run() -> Result<bool, Box<dyn std::error::Error>> {
    let flags = Flags::from_env();
    let quick = flags.has("--quick");
    let ops = flags.value("--ops", if quick { 200 } else { 2_000 })?;

    // Configuration axis: fixed baseline, then bank counts × mappings.
    // Bank counts are multiples of the core count so the privatized
    // mapping always slices evenly.
    let bank_counts: &[u32] = if quick { &[8] } else { &[4, 8, 16] };
    let mut memories = vec![("fixed".to_string(), MemoryConfig::default())];
    for &banks in bank_counts {
        for (tag, mapping) in [
            ("il", BankMapping::Interleaved),
            ("priv", BankMapping::BankPrivate),
        ] {
            let memory = MemoryConfig::Banked {
                timing: DramTiming::PAPER,
                geometry: DramGeometry::new(1, banks, 64)?,
                mapping,
            };
            memories.push((format!("b{banks}/{tag}"), memory));
        }
    }

    // Workload axis: stride length controls the row-hit ratio.
    let strides: &[u64] = if quick { &[64] } else { &[64, 256, 4096] };
    let mut workloads: Vec<WorkloadEntry> = strides
        .iter()
        .map(|&stride| WorkloadEntry {
            label: format!("stride/{stride}B"),
            x: stride,
            spec: WorkloadSpec::Stride {
                range_bytes: WINDOW,
                stride,
                ops,
            },
        })
        .collect();
    workloads.push(WorkloadEntry {
        label: "uniform/64KiB".into(),
        x: 0,
        spec: WorkloadSpec::Uniform {
            range_bytes: WINDOW,
            ops,
            seed: 0xD8A,
            write_fraction: 0.2,
        },
    });

    // The fixed platform: four cores with private `P(4,2)` LLC
    // partitions, so DRAM effects are isolated from LLC interference.
    let spec = ExperimentSpec {
        name: "dram_sensitivity".into(),
        cores: 4,
        configs: memories
            .into_iter()
            .map(|(label, memory)| ConfigSpec {
                label,
                partitioning: Partitioning::PrivateEach { sets: 4, ways: 2 },
                memory,
                schedule: None,
            })
            .collect(),
        workloads,
        tasks: Vec::new(),
        search: None,
        attribution: false,
    };
    let rows = run_spec(&spec, &Executor::new(0))?.grid;
    predllc_bench::log::write_data(&render_backend_csv(&rows));

    // Soundness check: every observation stays within its row's
    // analytical WCL (the private-partition bound (2N+1)·SW here),
    // regardless of the memory backend.
    let violations = rows
        .iter()
        .filter(|r| r.observed_wcl > r.analytical_wcl.unwrap_or(u64::MAX))
        .count();
    if violations > 0 {
        error!("CHECK FAILED: {violations} observations exceed their analytical bound");
        return Ok(false);
    }
    status!(
        "CHECK ok: all {} observations within their analytical bounds",
        rows.len()
    );
    Ok(true)
}
