//! The in-tree dashboard: one self-contained HTML page — inline CSS,
//! inline SVG sparklines, zero scripts, zero external references — so
//! `GET /dashboard` works from any browser (or `curl`) against an
//! air-gapped deployment. The renderer is a pure function from
//! collected data to a `String`, which keeps it unit-testable without
//! a server.

use crate::expo::ExpoValue;
use crate::series::SeriesHistory;
use crate::slo::AlertStatus;

/// Sparkline viewBox width.
const SPARK_W: f64 = 240.0;
/// Sparkline viewBox height.
const SPARK_H: f64 = 48.0;

/// Renders the dashboard page: an alert table (when any rules exist)
/// followed by one sparkline card per series. `now_ms` is the
/// store-relative timestamp the histories were taken at.
pub fn render_dashboard(
    title: &str,
    now_ms: u64,
    series: &[SeriesHistory],
    alerts: &[AlertStatus],
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str(&format!("<title>{}</title>\n", esc(title)));
    out.push_str("<style>\n");
    out.push_str(concat!(
        "body{font-family:monospace;background:#101418;color:#d8dee6;margin:1.5rem}\n",
        "h1{font-size:1.2rem}h2{font-size:1rem;margin-top:1.5rem}\n",
        "table{border-collapse:collapse;margin:.5rem 0}\n",
        "td,th{border:1px solid #2c333b;padding:.25rem .6rem;text-align:left}\n",
        ".firing{color:#ff6b6b;font-weight:bold}.pending{color:#ffc14d}\n",
        ".resolved{color:#7ec8a9}.inactive{color:#6b7683}\n",
        ".cards{display:flex;flex-wrap:wrap;gap:.75rem}\n",
        ".card{border:1px solid #2c333b;padding:.5rem;min-width:260px}\n",
        ".card .k{font-size:.75rem;color:#9aa7b4;word-break:break-all}\n",
        ".card .v{font-size:.9rem}\n",
        "svg{display:block;margin-top:.25rem}\n",
        "polyline{fill:none;stroke:#5ab0f0;stroke-width:1.5}\n",
    ));
    out.push_str("</style>\n</head>\n<body>\n");
    out.push_str(&format!("<h1>{}</h1>\n", esc(title)));
    out.push_str(&format!(
        "<p>generated at t={now_ms}ms · {} series · {} alert rules</p>\n",
        series.len(),
        alerts.len()
    ));
    if !alerts.is_empty() {
        out.push_str("<h2>Alerts</h2>\n<table>\n");
        out.push_str(
            "<tr><th>rule</th><th>state</th><th>since</th><th>series</th><th>value</th></tr>\n",
        );
        for a in alerts {
            let state = a.state.as_str();
            let value = a.value.map(format_value).unwrap_or_else(|| "–".to_string());
            out.push_str(&format!(
                "<tr><td>{}</td><td class=\"{state}\">{state}</td><td>{}ms</td><td>{}</td><td>{}</td></tr>\n",
                esc(&a.rule),
                a.since_ms,
                esc(&a.series),
                esc(&value),
            ));
        }
        out.push_str("</table>\n");
    }
    out.push_str("<h2>Series</h2>\n<div class=\"cards\">\n");
    for s in series {
        out.push_str("<div class=\"card\">\n");
        out.push_str(&format!("<div class=\"k\">{}</div>\n", esc(&s.key)));
        let values: Vec<f64> = s.samples.iter().map(|&(_, v)| v.as_f64()).collect();
        let last = s.samples.last();
        let summary = match (values.iter().cloned().reduce(f64::min), last) {
            (Some(min), Some(&(t, v))) => {
                let max = values.iter().cloned().fold(f64::MIN, f64::max);
                format!(
                    "last {} @ {t}ms · min {} · max {}",
                    format_sample(v),
                    format_value(min),
                    format_value(max)
                )
            }
            _ => "no samples in window".to_string(),
        };
        out.push_str(&format!("<div class=\"v\">{}</div>\n", esc(&summary)));
        out.push_str(&sparkline(&s.samples));
        out.push_str("</div>\n");
    }
    out.push_str("</div>\n</body>\n</html>\n");
    out
}

/// One inline-SVG sparkline over `(t_ms, value)` samples. Always emits
/// an `<svg>` element — an empty window renders an empty frame rather
/// than collapsing the card.
fn sparkline(samples: &[(u64, ExpoValue)]) -> String {
    let mut out = format!(
        "<svg viewBox=\"0 0 {SPARK_W} {SPARK_H}\" width=\"{SPARK_W}\" height=\"{SPARK_H}\" role=\"img\">"
    );
    if !samples.is_empty() {
        let t0 = samples.first().map(|&(t, _)| t).unwrap_or(0) as f64;
        let t1 = samples.last().map(|&(t, _)| t).unwrap_or(0) as f64;
        let values: Vec<f64> = samples.iter().map(|&(_, v)| v.as_f64()).collect();
        let vmin = values.iter().cloned().fold(f64::MAX, f64::min);
        let vmax = values.iter().cloned().fold(f64::MIN, f64::max);
        let tspan = if t1 > t0 { t1 - t0 } else { 1.0 };
        let vspan = if vmax > vmin { vmax - vmin } else { 1.0 };
        let pad = 3.0;
        let points: Vec<String> = samples
            .iter()
            .map(|&(t, v)| {
                let x = pad + (t as f64 - t0) / tspan * (SPARK_W - 2.0 * pad);
                // A flat series draws mid-height, not on the floor.
                let norm = if vmax > vmin {
                    (v.as_f64() - vmin) / vspan
                } else {
                    0.5
                };
                let y = SPARK_H - pad - norm * (SPARK_H - 2.0 * pad);
                format!("{x:.1},{y:.1}")
            })
            .collect();
        if points.len() == 1 {
            // A single sample gets a visible dot.
            let xy = points[0].split_once(',').expect("formatted above");
            out.push_str(&format!(
                "<circle cx=\"{}\" cy=\"{}\" r=\"2\" fill=\"#5ab0f0\"/>",
                xy.0, xy.1
            ));
        } else {
            out.push_str(&format!("<polyline points=\"{}\"/>", points.join(" ")));
        }
    }
    out.push_str("</svg>\n");
    out
}

/// Formats a sample for display: exact integers stay exact.
fn format_sample(v: ExpoValue) -> String {
    match v {
        ExpoValue::UInt(v) => v.to_string(),
        ExpoValue::Float(f) => format_value(f),
    }
}

/// Formats an `f64` tersely (integers without the `.0`).
fn format_value(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Escapes text for HTML element content and attribute values.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::AlertState;

    fn histories() -> Vec<SeriesHistory> {
        vec![
            SeriesHistory {
                key: "predllc_jobs_done".to_string(),
                samples: vec![
                    (0, ExpoValue::UInt(1)),
                    (100, ExpoValue::UInt(4)),
                    (200, ExpoValue::UInt(9)),
                ],
            },
            SeriesHistory {
                key: "predllc_rtt_p99{worker=\"<w0>\"}".to_string(),
                samples: vec![(150, ExpoValue::Float(123.5))],
            },
            SeriesHistory {
                key: "predllc_stale".to_string(),
                samples: vec![],
            },
        ]
    }

    #[test]
    fn dashboard_is_self_contained_html_with_svg_per_series() {
        let alerts = vec![AlertStatus {
            rule: "queue-depth".to_string(),
            series: "predllc_jobs_queued".to_string(),
            state: AlertState::Firing,
            since_ms: 42,
            value: Some(120.0),
        }];
        let html = render_dashboard("predllc", 250, &histories(), &alerts);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
        assert_eq!(html.matches("<svg").count(), 3, "one sparkline per series");
        assert!(html.contains("<polyline points="), "multi-sample polyline");
        assert!(html.contains("<circle"), "single-sample dot");
        assert!(html.contains("class=\"firing\""));
        assert!(html.contains("queue-depth"));
        assert!(html.contains("since"));
        assert!(html.contains("no samples in window"), "stale series card");
        // Self-contained: no scripts, no external fetches.
        assert!(!html.contains("<script"));
        assert!(!html.contains("http://"));
        assert!(!html.contains("https://"));
    }

    #[test]
    fn html_escapes_keys_and_titles() {
        let html = render_dashboard("a<b>&\"c\"", 0, &histories(), &[]);
        assert!(html.contains("a&lt;b&gt;&amp;&quot;c&quot;"));
        assert!(html.contains("predllc_rtt_p99{worker=&quot;&lt;w0&gt;&quot;}"));
        assert!(!html.contains("<w0>"));
    }

    #[test]
    fn flat_and_empty_series_render_without_degenerate_geometry() {
        let flat = vec![SeriesHistory {
            key: "flat".to_string(),
            samples: vec![(0, ExpoValue::UInt(7)), (100, ExpoValue::UInt(7))],
        }];
        let html = render_dashboard("t", 100, &flat, &[]);
        // Flat series: mid-height line, no NaN coordinates.
        assert!(html.contains("<polyline"));
        assert!(!html.contains("NaN"));
        let empty = vec![SeriesHistory {
            key: "empty".to_string(),
            samples: vec![],
        }];
        let html = render_dashboard("t", 0, &empty, &[]);
        assert!(html.contains("<svg"), "empty frame still renders");
        assert!(!html.contains("NaN"));
    }
}
