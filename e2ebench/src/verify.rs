//! Correctness: every served document must equal, byte for byte, the
//! same document rendered from an in-process `run_spec` of the same
//! spec, and every served attribution witness must sum to its latency.
//! References are computed outside the timed window.

use predllc_explore::json::{self, Json};
use predllc_explore::report::{render_attribution_json, render_csv, render_json};
use predllc_explore::{run_spec, Executor, ExploreReport};
use predllc_serve::Format;

use crate::specs::JobSpec;

/// The in-process reference of one spec.
pub struct Reference {
    /// The in-process report. Its grid rows are what the served document
    /// renders (the byte check ties them), so the engine replay is
    /// checked against them.
    pub report: ExploreReport,
    /// The expected document in the job's format.
    pub expected: Vec<u8>,
}

/// Runs `job` in process and renders the document the service must
/// serve for it. `threads_label` is the thread count the serving runner
/// stamps into JSON reports (a fleet coordinator always says 1).
pub fn reference(
    job: &JobSpec,
    exec: &Executor,
    threads_label: usize,
) -> Result<Reference, String> {
    let report = run_spec(&job.spec, exec).map_err(|e| format!("reference run: {e}"))?;
    let expected = match job.format {
        Format::Csv => render_csv(&report.grid),
        Format::Json => render_json(
            &job.spec.name,
            threads_label,
            None,
            &report.grid,
            report.search.as_ref(),
        ),
        Format::Attribution => render_attribution_json(&job.spec.name, &report.grid),
    }
    .into_bytes();
    Ok(Reference { report, expected })
}

/// Checks one served body against its reference.
pub fn check(job: &JobSpec, served: &[u8], reference: &Reference) -> Result<(), String> {
    if served != reference.expected.as_slice() {
        let at = served
            .iter()
            .zip(&reference.expected)
            .position(|(a, b)| a != b)
            .unwrap_or(served.len().min(reference.expected.len()));
        return Err(format!(
            "{}: served {} bytes, expected {}; first difference at byte {at}",
            job.spec.name,
            served.len(),
            reference.expected.len()
        ));
    }
    if job.format == Format::Attribution {
        check_witnesses(served).map_err(|e| format!("{}: {e}", job.spec.name))?;
    }
    Ok(())
}

/// Every point's witness components must sum exactly to its latency.
fn check_witnesses(body: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "attribution is not utf-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("attribution is not json: {e}"))?;
    let points = doc
        .get("points")
        .and_then(Json::as_array)
        .ok_or("attribution has no points")?;
    if points.is_empty() {
        return Err("attribution lists no points".into());
    }
    for (i, point) in points.iter().enumerate() {
        let Some(witness) = point.get("attribution").and_then(|a| a.get("witness")) else {
            continue; // a point that completed no request has no witness
        };
        let latency = witness
            .get("latency")
            .and_then(Json::as_u64)
            .ok_or(format!("point {i}: witness has no latency"))?;
        let sum: u64 = witness
            .get("components")
            .and_then(Json::as_array)
            .ok_or(format!("point {i}: witness has no components"))?
            .iter()
            .map(|c| {
                c.as_u64()
                    .ok_or(format!("point {i}: non-integer component"))
            })
            .sum::<Result<u64, String>>()?;
        if sum != latency {
            return Err(format!(
                "point {i}: witness components sum to {sum}, latency is {latency}"
            ));
        }
    }
    Ok(())
}
