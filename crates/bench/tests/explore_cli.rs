//! The `explore` CLI's failure contract for an invalid platform: a
//! spec whose shared partition holds more cores than the LLC's sharer
//! tracking (64) exits 1, prints no data, and names the configuration.

use std::process::Command;

#[test]
fn a_65_core_shared_spec_exits_1_naming_the_configuration() {
    let spec = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ss-65-cores.json");
    std::fs::write(
        &spec,
        r#"{"name": "too-wide", "cores": 65,
            "configs": [{"label": "ss-65", "partition":
                {"kind": "shared", "sets": 32, "ways": 16, "mode": "SS"}}],
            "workloads": [{"kind": "chase", "range_bytes": 131072,
                           "ops": 100, "seed": 3}]}"#,
    )
    .expect("write the spec");
    let out = Command::new(env!("CARGO_BIN_EXE_explore"))
        .arg(&spec)
        .output()
        .expect("spawn explore");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "printed data for a failed run");
    assert!(
        stderr.contains("configuration 'ss-65' is invalid")
            && stderr.contains("65 cores but a partition holds at most 64"),
        "unhelpful error: {stderr}"
    );
}
