//! The figure binaries' output formats over explore's [`GridResult`]
//! rows: an aligned table (one column per configuration, one line per
//! x-axis value) and two CSV layouts — the seed's column set (`fig7`,
//! `fig8`) and the backend-labelled one (`dram_sensitivity`).
//!
//! A row's `config` is the CSV `label` column and its `x` the
//! `range_bytes` column.

use std::fmt::Write;

use predllc_explore::GridResult;

/// Which metric a table shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Worst observed request latency (Fig. 7).
    ObservedWcl,
    /// Workload execution time (Fig. 8).
    ExecutionTime,
}

/// Renders rows as an aligned table: configurations as columns in
/// first-appearance order, x-axis values as ascending lines, `-` where a
/// point is missing.
pub fn render_table(title: &str, rows: &[GridResult], metric: Metric) -> String {
    let mut labels: Vec<&str> = Vec::new();
    for r in rows {
        if !labels.contains(&r.config.as_str()) {
            labels.push(&r.config);
        }
    }
    let mut xs: Vec<u64> = rows.iter().map(|r| r.x).collect();
    xs.sort_unstable();
    xs.dedup();

    let mut out = format!("{title}\n{:>10}", "range(B)");
    for l in &labels {
        let _ = write!(out, " {l:>14}");
    }
    out.push('\n');
    for x in xs {
        let _ = write!(out, "{x:>10}");
        for l in &labels {
            match rows.iter().find(|r| r.x == x && r.config == *l) {
                Some(r) => {
                    let v = match metric {
                        Metric::ObservedWcl => r.observed_wcl,
                        Metric::ExecutionTime => r.execution_time,
                    };
                    let _ = write!(out, " {v:>14}");
                }
                None => {
                    let _ = write!(out, " {:>14}", "-");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Renders rows in the seed's CSV column set.
pub fn render_seed_csv(rows: &[GridResult]) -> String {
    let mut out =
        String::from("label,workload,range_bytes,observed_wcl,execution_time,analytical_wcl\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            r.config,
            r.workload,
            r.x,
            r.observed_wcl,
            r.execution_time,
            bound(r),
        );
    }
    out
}

/// Renders rows as CSV with the memory-backend label and DRAM row-hit
/// rate columns.
pub fn render_backend_csv(rows: &[GridResult]) -> String {
    let mut out = String::from(
        "label,workload,backend,range_bytes,observed_wcl,execution_time,analytical_wcl,\
         row_hit_rate\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{:.3}",
            r.config,
            r.workload,
            r.backend,
            r.x,
            r.observed_wcl,
            r.execution_time,
            bound(r),
            r.row_hit_rate,
        );
    }
    out
}

/// The analytical WCL column: empty when the analysis does not apply.
fn bound(r: &GridResult) -> String {
    r.analytical_wcl.map_or(String::new(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(config: &str, backend: &str, wcl: u64, exec: u64, bound: Option<u64>) -> GridResult {
        GridResult {
            config: config.into(),
            workload: "uniform/1024B".into(),
            backend: backend.into(),
            x: 1024,
            requests: 1,
            p50: wcl,
            p90: wcl,
            p99: wcl,
            p100: wcl,
            observed_wcl: wcl,
            mean_latency: wcl as f64,
            execution_time: exec,
            analytical_wcl: bound,
            row_hit_rate: if bound.is_some() { 0.0 } else { 0.75 },
            attribution: None,
        }
    }

    #[test]
    fn tables_and_csvs_render_every_cell() {
        let mut rows = vec![
            row("A", "fixed(30)", 10, 99, Some(100)),
            row("B", "banked(1x8,interleaved)", 20, 88, None),
        ];
        rows.push(GridResult {
            x: 2048,
            ..row("A", "fixed(30)", 30, 77, Some(100))
        });
        assert_eq!(
            render_table("T", &rows, Metric::ObservedWcl),
            "T\n  range(B)              A              B\n\
             \x20     1024             10             20\n\
             \x20     2048             30              -\n"
        );
        let seed = render_seed_csv(&rows);
        assert_eq!(seed.lines().count(), 4);
        assert!(seed.contains("\nA,uniform/1024B,1024,10,99,100\n"));
        assert!(seed.contains("\nB,uniform/1024B,1024,20,88,\n"));
        let backend = render_backend_csv(&rows);
        assert!(backend.starts_with("label,workload,backend,"));
        assert!(backend.contains("\nA,uniform/1024B,fixed(30),1024,10,99,100,0.000\n"));
        assert!(backend.contains("\nB,uniform/1024B,banked(1x8,interleaved),1024,20,88,,0.750\n"));
    }
}
