//! Rendering grid and search results: CSV for plots, JSON for the
//! benchmark-artifact trajectory.
//!
//! The attribution renderer ([`render_attribution_json`]) writes a
//! **separate artifact**: the classic [`render_csv`] / [`render_json`]
//! outputs never mention attribution and are byte-identical whether a
//! spec ran with it or not.

use predllc_obs::json_string;

use crate::grid::GridResult;
use crate::json::Json;
use crate::search::SearchOutcome;

/// The CSV header line shared by [`render_csv`] and incremental
/// renderers (the serve layer streams `CSV_HEADER` + [`csv_row`] per
/// row, chunked, and must stay byte-identical to the one-shot render).
pub const CSV_HEADER: &str = "config,workload,backend,x,requests,p50,p90,p99,p100,mean_latency,\
                              execution_time,analytical_wcl,row_hit_rate\n";

/// One grid row as a CSV line (trailing newline included).
pub fn csv_row(r: &GridResult) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{:.3},{},{},{:.3}\n",
        r.config,
        r.workload,
        r.backend,
        r.x,
        r.requests,
        r.p50,
        r.p90,
        r.p99,
        r.p100,
        r.mean_latency,
        r.execution_time,
        r.analytical_wcl.map_or(String::new(), |v| v.to_string()),
        r.row_hit_rate,
    )
}

/// Renders grid rows as CSV, percentiles included.
pub fn render_csv(rows: &[GridResult]) -> String {
    let mut out = String::from(CSV_HEADER);
    for r in rows {
        out.push_str(&csv_row(r));
    }
    out
}

/// Renders the attribution of an attributed grid as a JSON document —
/// the `BENCH_explore_attribution.json` artifact: per point, the
/// component totals, the full replayable witness and the gap split
/// (exactly the [`PointAttribution`](crate::PointAttribution) wire
/// form).
pub fn render_attribution_json(name: &str, rows: &[GridResult]) -> String {
    let points = rows
        .iter()
        .filter_map(|r| {
            r.attribution.as_ref().map(|attr| {
                Json::Object(vec![
                    ("config".into(), Json::Str(r.config.clone())),
                    ("workload".into(), Json::Str(r.workload.clone())),
                    ("attribution".into(), attr.to_json()),
                ])
            })
        })
        .collect();
    Json::Object(vec![
        ("name".into(), Json::Str(name.to_string())),
        ("points".into(), Json::Array(points)),
    ])
    .render()
}

/// Renders a search outcome as a human-readable table: the winner, then
/// every candidate up to and including it (the ones it had to beat),
/// with an explicit count of the costlier candidates elided.
pub fn render_search(outcome: &SearchOutcome) -> String {
    let mut out = String::new();
    match &outcome.winner {
        Some(w) => out.push_str(&format!(
            "minimal schedulable configuration: {} ({} LLC lines)\n",
            w.label, w.lines_used
        )),
        None => out.push_str("no candidate configuration is schedulable\n"),
    }
    out.push_str(&format!(
        "{:>14} {:>6} {:>7} {:>12}\n",
        "candidate", "lines", "placed", "schedulable"
    ));
    // Up to the winner, every candidate matters (it was rejected on the
    // way); past it the table is noise, so elide with a count.
    let shown = match &outcome.winner {
        Some(w) => outcome
            .evaluated
            .iter()
            .position(|v| v == w)
            .map_or(outcome.evaluated.len(), |i| i + 1),
        None => outcome.evaluated.len(),
    };
    for v in &outcome.evaluated[..shown] {
        out.push_str(&format!(
            "{:>14} {:>6} {:>7} {:>12}\n",
            v.label,
            v.lines_used,
            if v.placed { "yes" } else { "no" },
            if v.schedulable { "yes" } else { "no" }
        ));
    }
    if shown < outcome.evaluated.len() {
        out.push_str(&format!(
            "... and {} costlier candidate(s) not shown\n",
            outcome.evaluated.len() - shown
        ));
    }
    out
}

/// The opening of the JSON report document, up to and including the
/// `"grid":[` bracket. Incremental renderers emit `json_head` +
/// comma-joined [`json_row`]s + [`json_tail`]; [`render_json`] is the
/// same parts concatenated, so both spellings are byte-identical.
pub fn json_head(name: &str, threads: usize, wall_ms: Option<u64>) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"name\":{},", json_string(name)));
    out.push_str(&format!("\"threads\":{threads},"));
    if let Some(ms) = wall_ms {
        out.push_str(&format!("\"wall_ms\":{ms},"));
    }
    out.push_str("\"grid\":[");
    out
}

/// One grid row as a JSON object (no surrounding separators).
pub fn json_row(r: &GridResult) -> String {
    format!(
        "{{\"config\":{},\"workload\":{},\"backend\":{},\"x\":{},\"requests\":{},\
         \"p50\":{},\"p90\":{},\"p99\":{},\"p100\":{},\"mean_latency\":{:.3},\
         \"execution_time\":{},\"analytical_wcl\":{},\"row_hit_rate\":{:.3}}}",
        json_string(&r.config),
        json_string(&r.workload),
        json_string(&r.backend),
        r.x,
        r.requests,
        r.p50,
        r.p90,
        r.p99,
        r.p100,
        r.mean_latency,
        r.execution_time,
        r.analytical_wcl
            .map_or("null".to_string(), |v| v.to_string()),
        r.row_hit_rate,
    )
}

/// The closing of the JSON report document: the grid `]`, the optional
/// `"search"` block, and the final `}`.
pub fn json_tail(search: Option<&SearchOutcome>) -> String {
    let mut out = String::from("]");
    if let Some(outcome) = search {
        out.push_str(",\"search\":{");
        match &outcome.winner {
            Some(w) => out.push_str(&format!(
                "\"winner\":{{\"label\":{},\"lines_used\":{}}},",
                json_string(&w.label),
                w.lines_used
            )),
            None => out.push_str("\"winner\":null,"),
        }
        out.push_str(&format!(
            "\"evaluated\":{},\"schedulable\":{}}}",
            outcome.evaluated.len(),
            outcome.schedulable_count()
        ));
    }
    out.push('}');
    out
}

/// Renders the whole experiment — grid rows, optional search outcome,
/// run metadata — as a JSON document (the `BENCH_explore.json`
/// artifact format).
pub fn render_json(
    name: &str,
    threads: usize,
    wall_ms: Option<u64>,
    rows: &[GridResult],
    search: Option<&SearchOutcome>,
) -> String {
    let mut out = json_head(name, threads, wall_ms);
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_row(r));
    }
    out.push_str(&json_tail(search));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::search::{Candidate, CandidateVerdict};
    use crate::spec::Arrangement;
    use predllc_core::SharingMode;

    fn row() -> GridResult {
        GridResult {
            config: "SS(1,4)".into(),
            workload: "u/2KiB".into(),
            backend: "fixed(30)".into(),
            x: 2048,
            requests: 100,
            p50: 150,
            p90: 300,
            p99: 400,
            p100: 450,
            observed_wcl: 450,
            mean_latency: 180.5,
            execution_time: 12_345,
            analytical_wcl: Some(5_000),
            row_hit_rate: 0.0,
            attribution: None,
        }
    }

    fn outcome() -> SearchOutcome {
        let verdict = CandidateVerdict {
            candidate: Candidate {
                arrangement: Arrangement::Shared(SharingMode::SetSequencer),
                sets: 1,
                ways: 2,
            },
            label: "SS(1,2,4)".into(),
            lines_used: 2,
            placed: true,
            schedulable: true,
            response_times: vec![Some(1_000)],
        };
        SearchOutcome {
            winner: Some(verdict.clone()),
            evaluated: vec![verdict],
        }
    }

    #[test]
    fn csv_has_a_line_per_row_and_all_percentiles() {
        let csv = render_csv(&[row()]);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("config,workload,backend,"));
        assert!(csv.contains("SS(1,4),u/2KiB,fixed(30),2048,100,150,300,400,450,180.500"));
        // A row with no analytical bound leaves the column empty.
        let mut no_bound = row();
        no_bound.analytical_wcl = None;
        assert!(render_csv(&[no_bound]).contains(",12345,,0.000"));
    }

    #[test]
    fn attribution_artifacts_cover_only_attributed_rows() {
        use crate::executor::Executor;
        use crate::spec::ExperimentSpec;

        // Rows without attribution yield an artifact with no points.
        let empty = json::parse(&render_attribution_json("a", &[row()])).unwrap();
        assert!(empty.get("points").unwrap().as_array().unwrap().is_empty());

        // A real attributed run fills the artifact, losslessly.
        let spec = ExperimentSpec::parse(
            r#"{"name":"a","cores":2,"attribution":true,
                "configs":[{"partition":{"kind":"shared","sets":1,"ways":4,"mode":"SS"}}],
                "workloads":[{"kind":"stride","range_bytes":2048,"stride":64,"ops":100}]}"#,
        )
        .unwrap();
        let rows = crate::run_spec(&spec, &Executor::new(1)).unwrap().grid;
        let attr = rows[0].attribution.as_deref().unwrap();

        let doc = json::parse(&render_attribution_json("a", &rows)).unwrap();
        let points = doc.get("points").unwrap().as_array().unwrap();
        assert_eq!(points.len(), 1);
        let back =
            crate::attribution::PointAttribution::from_json(points[0].get("attribution").unwrap())
                .unwrap();
        assert_eq!(&back, attr);
    }

    #[test]
    fn json_report_is_parseable_and_complete() {
        let text = render_json("demo", 4, Some(12), &[row()], Some(&outcome()));
        let doc = json::parse(&text).expect("report must be valid json");
        assert_eq!(doc.get("name").unwrap().as_str(), Some("demo"));
        assert_eq!(doc.get("threads").unwrap().as_u64(), Some(4));
        assert_eq!(doc.get("wall_ms").unwrap().as_u64(), Some(12));
        let grid = doc.get("grid").unwrap().as_array().unwrap();
        assert_eq!(grid.len(), 1);
        assert_eq!(grid[0].get("p100").unwrap().as_u64(), Some(450));
        assert_eq!(grid[0].get("analytical_wcl").unwrap().as_u64(), Some(5_000));
        let search = doc.get("search").unwrap();
        assert_eq!(
            search.get("winner").unwrap().get("label").unwrap().as_str(),
            Some("SS(1,2,4)")
        );
        assert_eq!(search.get("schedulable").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn incremental_parts_recompose_to_the_one_shot_renders() {
        let rows = vec![row(), row()];
        let mut csv = String::from(CSV_HEADER);
        for r in &rows {
            csv.push_str(&csv_row(r));
        }
        assert_eq!(csv, render_csv(&rows));

        let mut json = json_head("demo", 4, Some(12));
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&json_row(r));
        }
        json.push_str(&json_tail(Some(&outcome())));
        assert_eq!(
            json,
            render_json("demo", 4, Some(12), &rows, Some(&outcome()))
        );
    }

    #[test]
    fn json_report_handles_absent_blocks() {
        let text = render_json("x", 1, None, &[], None);
        let doc = json::parse(&text).unwrap();
        assert!(doc.get("wall_ms").is_none());
        assert!(doc.get("search").is_none());
        assert_eq!(doc.get("grid").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn search_table_reports_the_winner() {
        let text = render_search(&outcome());
        assert!(text.contains("minimal schedulable configuration: SS(1,2,4)"));
        assert!(text.contains("SS(1,2,4)") && text.contains("yes"));
        let none = SearchOutcome {
            winner: None,
            evaluated: vec![],
        };
        assert!(render_search(&none).contains("no candidate"));
    }
}
