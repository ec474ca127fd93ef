//! The figure binaries' stdout, byte for byte, against the checked-in
//! goldens in `tests/golden/` — plus the flag parser's contract that an
//! unparsable value fails the run instead of silently running the
//! default.
//!
//! Regenerate a golden only for an intended output change, e.g.
//! `cargo run --release -p predllc-bench --bin fig7 -- --csv > crates/bench/tests/golden/fig7.csv`.

use std::process::Command;

/// Runs `bin` with `args` and requires a successful exit whose stdout
/// equals `golden` exactly.
fn assert_golden(bin: &str, args: &[&str], golden: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn bin");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    if let Some((n, (got, want))) = stdout
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "{bin} {args:?}: line {} is\n  {got}\nbut the golden has\n  {want}",
            n + 1
        );
    }
    assert_eq!(stdout, golden, "{bin} {args:?}: output length diverged");
}

#[test]
fn fig7_table_and_csv_match_goldens() {
    let bin = env!("CARGO_BIN_EXE_fig7");
    assert_golden(bin, &[], include_str!("golden/fig7.txt"));
    assert_golden(bin, &["--csv"], include_str!("golden/fig7.csv"));
}

#[test]
fn fig8_table_and_csv_match_goldens() {
    let bin = env!("CARGO_BIN_EXE_fig8");
    assert_golden(bin, &[], include_str!("golden/fig8.txt"));
    assert_golden(bin, &["--csv"], include_str!("golden/fig8.csv"));
}

#[test]
fn dram_sensitivity_matches_goldens() {
    let bin = env!("CARGO_BIN_EXE_dram_sensitivity");
    assert_golden(bin, &[], include_str!("golden/dram_sensitivity.csv"));
    assert_golden(
        bin,
        &["--quick", "--ops", "50"],
        include_str!("golden/dram_sensitivity_quick.csv"),
    );
}

#[test]
fn ablation_and_headline_match_goldens() {
    assert_golden(
        env!("CARGO_BIN_EXE_ablation"),
        &[],
        include_str!("golden/ablation.txt"),
    );
    assert_golden(
        env!("CARGO_BIN_EXE_headline"),
        &[],
        include_str!("golden/headline.txt"),
    );
}

#[test]
fn experiments_record_quotes_the_goldens() {
    // Every number in a row's "Repo" column (comma-separated, an `x`
    // suffix allowed) appears, as a whole number, in the golden the row
    // names: the record cannot drift from the figures.
    let record = include_str!("../../../EXPERIMENTS.md");
    let mut rows = 0;
    for line in record.lines().filter(|l| l.starts_with('|')) {
        // | Claim | Paper | Repo | Golden | Verdict | Why |
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let Some(golden) = cells
            .get(4)
            .and_then(|c| c.strip_prefix('`')?.strip_suffix('`'))
        else {
            continue; // the header and separator rows
        };
        let path = format!("{}/tests/golden/{golden}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let apart = |c: Option<char>| !c.is_some_and(|c| c.is_ascii_digit() || c == '.');
        for n in cells[3].split(", ").map(|n| n.trim_end_matches('x')) {
            assert!(n.parse::<f64>().is_ok(), "not a number: {n:?} in {line}");
            let whole = text.match_indices(n).any(|(at, _)| {
                apart(text[..at].chars().next_back()) && apart(text[at + n.len()..].chars().next())
            });
            assert!(
                whole,
                "EXPERIMENTS.md quotes {n}, which {golden} does not hold: {line}"
            );
        }
        rows += 1;
    }
    assert!(rows >= 10, "EXPERIMENTS.md lost its rows ({rows} found)");
}

#[test]
fn unparsable_flag_values_exit_nonzero_without_output() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fig7"), ["--ops", "lots"]),
        (env!("CARGO_BIN_EXE_fig8"), ["--writes", "half"]),
        (env!("CARGO_BIN_EXE_dram_sensitivity"), ["--ops", "-1"]),
    ] {
        let out = Command::new(bin).args(args).output().expect("spawn bin");
        assert!(!out.status.success(), "{bin} {args:?} ran anyway");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed data");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(args[0]),
            "{bin}: unhelpful error {stderr:?}"
        );
    }
}
