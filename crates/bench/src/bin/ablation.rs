//! Ablation experiments beyond the paper's figures:
//!
//! 1. **Arbiter policy** — writeback-first (the worst-case-faithful
//!    default) vs. round-robin vs. request-first, on the Fig. 7 stress
//!    workload.
//! 2. **LLC replacement policy** — the analysis is policy-agnostic;
//!    check the observed WCL stays within bounds for LRU, FIFO,
//!    round-robin and pseudo-random.
//! 3. **Sharer-count sweep** — observed and analytical WCL as 2…8 cores
//!    share one partition (requires widening the bus schedule).
//!
//! Usage: `cargo run --release -p predllc-bench --bin ablation`

use predllc_bench::{data, error};
use predllc_bus::ArbiterPolicy;
use predllc_cache::ReplacementKind;
use predllc_core::analysis::{critical, WclParams};
use predllc_core::{ConfigError, PartitionSpec, SharingMode, SimError, Simulator, SystemConfig};
use predllc_model::CoreId;
use std::process::ExitCode;

fn stress_run(cfg: SystemConfig, ops: usize) -> Result<(u64, u64), SimError> {
    let spec = cfg.partitions().spec_of(CoreId::new(0)).clone();
    let traces = critical::wcl_stress_traces(&spec, ops);
    let report = Simulator::new(cfg)?.run(traces)?;
    Ok((
        report.max_request_latency().as_u64(),
        report.execution_time().as_u64(),
    ))
}

fn shared(sets: u32, ways: u32, n: u16, mode: SharingMode) -> Result<SystemConfig, ConfigError> {
    SystemConfig::shared_partition(sets, ways, n, mode)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            error!("ablation: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let _ = predllc_bench::log::init(std::env::args().skip(1).collect());
    let ops = 1_000;

    data!("== Ablation 1: PRB/PWB arbiter policy (SS(1,4,4) + NSS(1,4,4), stress workload) ==");
    data!(
        "{:<18} {:>14} {:>14} {:>14} {:>14}",
        "arbiter",
        "SS wcl",
        "SS exec",
        "NSS wcl",
        "NSS exec"
    );
    for policy in [
        ArbiterPolicy::WritebackFirst,
        ArbiterPolicy::RoundRobin,
        ArbiterPolicy::RequestFirst,
    ] {
        let mk = |mode| {
            SystemConfig::builder(4)
                .partitions(vec![PartitionSpec::shared(
                    1,
                    4,
                    CoreId::first(4).collect(),
                    mode,
                )])
                .arbiter(policy)
                .build()
        };
        let (ss_wcl, ss_exec) = stress_run(mk(SharingMode::SetSequencer)?, ops)?;
        let (nss_wcl, nss_exec) = stress_run(mk(SharingMode::BestEffort)?, ops)?;
        data!(
            "{:<18} {:>14} {:>14} {:>14} {:>14}",
            policy.to_string(),
            ss_wcl,
            ss_exec,
            nss_wcl,
            nss_exec
        );
    }
    data!();

    data!("== Ablation 2: LLC replacement policy (bounds are policy-agnostic) ==");
    data!(
        "{:<20} {:>12} {:>14} {:>12} {:>14}",
        "replacement",
        "SS wcl",
        "SS bound",
        "NSS wcl",
        "NSS bound"
    );
    for repl in [
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::RoundRobin,
        ReplacementKind::Random { seed: 7 },
    ] {
        let mk = |mode| {
            SystemConfig::builder(4)
                .partitions(vec![PartitionSpec::shared(
                    1,
                    4,
                    CoreId::first(4).collect(),
                    mode,
                )])
                .llc_replacement(repl)
                .build()
        };
        let ss_cfg = mk(SharingMode::SetSequencer)?;
        let nss_cfg = mk(SharingMode::BestEffort)?;
        let ss_bound = WclParams::from_config(&ss_cfg)?.wcl_set_sequencer();
        let nss_bound = WclParams::from_config(&nss_cfg)?.wcl_one_slot_tdm();
        let (ss_wcl, _) = stress_run(ss_cfg, ops)?;
        let (nss_wcl, _) = stress_run(nss_cfg, ops)?;
        let ok = ss_wcl <= ss_bound.as_u64() && nss_wcl <= nss_bound.as_u64();
        data!(
            "{:<20} {:>12} {:>14} {:>12} {:>14}  {}",
            repl.to_string(),
            ss_wcl,
            ss_bound.as_u64(),
            nss_wcl,
            nss_bound.as_u64(),
            if ok { "ok" } else { "VIOLATION" }
        );
        assert!(ok, "observed WCL exceeded the analytical bound");
    }
    data!();

    data!("== Ablation 3: sharer-count sweep (1-set x 4-way shared partition, n = N) ==");
    data!(
        "{:>4} {:>12} {:>12} {:>14} {:>16}",
        "n",
        "SS wcl",
        "SS bound",
        "NSS wcl",
        "NSS bound"
    );
    for n in 2..=8u16 {
        let ss_cfg = shared(1, 4, n, SharingMode::SetSequencer)?;
        let nss_cfg = shared(1, 4, n, SharingMode::BestEffort)?;
        let ss_bound = WclParams::from_config(&ss_cfg)?.wcl_set_sequencer();
        let nss_bound = WclParams::from_config(&nss_cfg)?.wcl_one_slot_tdm();
        let (ss_wcl, _) = stress_run(ss_cfg, ops)?;
        let (nss_wcl, _) = stress_run(nss_cfg, ops)?;
        assert!(
            ss_wcl <= ss_bound.as_u64() && nss_wcl <= nss_bound.as_u64(),
            "bound violated at n = {n}"
        );
        data!(
            "{:>4} {:>12} {:>12} {:>14} {:>16}",
            n,
            ss_wcl,
            ss_bound.as_u64(),
            nss_wcl,
            nss_bound.as_u64()
        );
    }
    data!("\nAll observed WCLs within analytical bounds.");
    Ok(())
}
