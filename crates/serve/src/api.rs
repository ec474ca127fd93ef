//! The service endpoints, written once against the [`Handler`] API and
//! served identically by both the epoll reactor and the blocking
//! fallback.
//!
//! [`build_router`] registers every endpoint; [`dispatch`] is the one
//! entry point both serve modes call per request — it owns the killed
//! check, the request counter, per-endpoint latency metrics, the
//! 404/405 fallbacks, and panic containment (a panicking handler
//! answers `500 {"error","kind":"internal"}` instead of taking the
//! connection thread down).
//!
//! Every non-2xx JSON body has the shape `{"error": "...", "kind":
//! "..."}`; `kind` is a small closed vocabulary (`http`, `limits`,
//! `spec`, `format`, `query`, `point`, `not_found`,
//! `method_not_allowed`, `not_ready`, `config`, `sim`, `backpressure`,
//! `job`, `internal`, `unavailable`) so clients can branch without
//! parsing prose.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use predllc_explore::hash::Fingerprint;
use predllc_explore::json::{render_string, Json};
use predllc_explore::{measure, PointError, PointRequest};
use predllc_obs::{fields, render_jsonl, SampleValue, TraceId, TRACE_HEADER};

use crate::handler::{Dispatch, Lookup, Router};
use crate::http::{HttpError, Request, Response};
use crate::registry::{JobStatus, SubmitError};
use crate::server::{
    kill_shared, record_component_cycles, refresh_trace_dropped, MonitorState, Shared,
};

/// A JSON error body: `{"error": message, "kind": kind}`.
pub(crate) fn error_response(status: u16, kind: &str, message: &str) -> Response {
    Response::json(
        status,
        format!(
            "{{\"error\":{},\"kind\":{}}}",
            render_string(message),
            render_string(kind),
        ),
    )
}

/// Maps a request-parse failure to its wire answer, or `None` when the
/// transport is gone and no response can be delivered.
pub(crate) fn parse_error_response(e: &HttpError) -> Option<Response> {
    match e {
        HttpError::Io(_) => None,
        HttpError::TooLarge(what) => {
            let status = if *what == "body" { 413 } else { 431 };
            Some(error_response(status, "limits", what))
        }
        HttpError::Malformed(what) => Some(error_response(400, "http", what)),
    }
}

/// The `429` answer when the dispatch executor queue is full: shed the
/// request now, tell the client when to come back.
#[cfg(target_os = "linux")]
pub(crate) fn backpressure_response(retry_after: u64) -> Response {
    error_response(429, "backpressure", "dispatch queue is full; retry later")
        .with_retry_after(retry_after)
}

/// Whether the route a request resolves to is marked heavy (must run
/// on the dispatch executor rather than inline on a reactor thread).
/// Unroutable requests are light — answering 404/405 is cheap.
#[cfg(target_os = "linux")]
pub(crate) fn is_heavy(router: &Router, req: &Request) -> bool {
    matches!(
        router.lookup(&req.method, &req.path),
        Lookup::Matched { heavy: true, .. }
    )
}

/// Serves one parsed request end to end: killed check, request
/// counter, routing, the handler itself (panic-contained), fallback
/// 404/405 bodies, and the per-endpoint latency record.
pub(crate) fn dispatch(shared: &Shared, router: &Router, req: &Request) -> Dispatch {
    if shared.killed.load(Ordering::SeqCst) {
        return Dispatch::Hangup; // a crashed server answers nothing
    }
    let metrics = &shared.registry.metrics;
    metrics.http_requests.inc();
    let started = Instant::now();
    let (label, outcome) = match router.lookup(&req.method, &req.path) {
        Lookup::Matched {
            label,
            handler,
            params,
            ..
        } => {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handler.handle(req, &params)
            }));
            match run {
                Ok(outcome) => (label, outcome),
                Err(_) => (
                    label,
                    Dispatch::Reply(error_response(500, "internal", "internal server error")),
                ),
            }
        }
        Lookup::MethodNotAllowed => (
            "other",
            Dispatch::Reply(error_response(
                405,
                "method_not_allowed",
                "method not allowed",
            )),
        ),
        Lookup::NotFound => (
            "other",
            Dispatch::Reply(error_response(404, "not_found", "no such endpoint")),
        ),
    };
    metrics.endpoint_latency(label).record(started.elapsed());
    outcome
}

/// Registers every endpoint. Light routes run inline on a reactor
/// thread; heavy routes (body parsing, simulation, unbounded renders)
/// run on the dispatch executor, whose bounded queue is the
/// backpressure signal.
pub(crate) fn build_router(shared: &Arc<Shared>) -> Router {
    let mut router = Router::new();
    macro_rules! route {
        ($reg:ident, $method:literal, $pattern:literal, $label:literal, $f:expr) => {{
            let s = Arc::clone(shared);
            router.$reg(
                $method,
                $pattern,
                $label,
                move |req: &Request, params: &[&str]| $f(&s, req, params),
            );
        }};
    }
    route!(at, "GET", "/healthz", "healthz", healthz);
    route!(at, "GET", "/metrics", "metrics", metrics_exposition);
    route!(
        at_heavy,
        "GET",
        "/v1/metrics/history",
        "metrics_history",
        metrics_history
    );
    route!(at, "GET", "/v1/alerts", "alerts", alerts);
    route!(at_heavy, "GET", "/dashboard", "dashboard", dashboard);
    route!(at_heavy, "POST", "/v1/experiments", "submit", submit);
    route!(at, "GET", "/v1/experiments/{id}", "job_status", status);
    route!(
        at,
        "GET",
        "/v1/experiments/{id}/results",
        "job_results",
        results
    );
    route!(
        at,
        "GET",
        "/v1/experiments/{id}/attribution",
        "job_attribution",
        attribution_results
    );
    route!(
        at_heavy,
        "GET",
        "/v1/jobs/{id}/trace",
        "job_trace",
        job_trace
    );
    route!(at_heavy, "POST", "/v1/points", "point_post", point_post);
    route!(at, "GET", "/v1/points/{fp}", "point_get", point_get);
    router
}

/// `GET /healthz`.
fn healthz(_shared: &Shared, _req: &Request, _params: &[&str]) -> Dispatch {
    Dispatch::Reply(Response::text("ok\n"))
}

/// `GET /metrics` — the Prometheus text exposition (the content type
/// scrapers negotiate on; `Metrics::render` guarantees the trailing
/// newline).
fn metrics_exposition(shared: &Shared, _req: &Request, _params: &[&str]) -> Dispatch {
    refresh_trace_dropped(shared);
    Dispatch::Reply(Response::new(
        200,
        "text/plain; version=0.0.4",
        shared.registry.metrics.render(),
    ))
}

/// The configured monitor, or the `404` explaining how to enable it.
fn monitor_of(shared: &Shared) -> Result<&MonitorState, Response> {
    shared.monitor.as_ref().ok_or_else(|| {
        error_response(
            404,
            "not_found",
            "monitoring is not enabled (set ServerConfig::monitor)",
        )
    })
}

/// A positioned query-string rejection: `{"error": "...", "kind":
/// "query"}` at `400`, the error message naming the offending
/// parameter so clients see *which* one was bad.
fn query_error(key: &str, raw: &str, why: &str) -> Response {
    error_response(
        400,
        "query",
        &format!("query parameter '{key}'={raw}: {why}"),
    )
}

/// Parses a history query parameter: absent means `default`, anything
/// explicit must be a positive integer. Zero and non-numeric values are
/// rejected ([`query_error`]) rather than silently coerced — a
/// `window=0` or `step=banana` request gets a `400` naming the
/// parameter, not an empty-looking history.
fn history_param(req: &Request, key: &str, default: u64) -> Result<u64, Response> {
    match req.query_param(key) {
        None => Ok(default),
        Some(raw) => match raw.parse::<u64>() {
            Ok(0) => Err(query_error(key, raw, "must be a positive integer")),
            Ok(v) => Ok(v),
            Err(_) => Err(query_error(key, raw, "must be a positive integer")),
        },
    }
}

/// Converts a collected sample value to JSON (exact integers stay
/// integers).
fn sample_json(v: SampleValue) -> Json {
    match v {
        SampleValue::U64(v) => Json::UInt(v),
        SampleValue::F64(f) => Json::Float(f),
    }
}

/// `GET /v1/metrics/history?window=<ms>&step=<ms>` — every collected
/// series' samples in the window, downsampled to one per step:
/// `{"now_ms", "window_ms", "step_ms", "interval_ms", "series":
/// [{"name", "samples": [[t_ms, value], ...]}, ...]}`. Explicit
/// `window`/`step` values must be positive integers; zero or
/// non-numeric gets a positioned `400` ([`history_param`]).
fn metrics_history(shared: &Shared, req: &Request, _params: &[&str]) -> Dispatch {
    let monitor = match monitor_of(shared) {
        Ok(m) => m,
        Err(resp) => return Dispatch::Reply(resp),
    };
    let window_ms = match history_param(req, "window", 300_000) {
        Ok(w) => w,
        Err(resp) => return Dispatch::Reply(resp),
    };
    let step_ms = match history_param(req, "step", 0) {
        Ok(s) => s,
        Err(resp) => return Dispatch::Reply(resp),
    };
    let (now_ms, histories) = monitor.store.history(window_ms, step_ms);
    let series: Vec<Json> = histories
        .into_iter()
        .map(|h| {
            let samples: Vec<Json> = h
                .samples
                .into_iter()
                .map(|(t, v)| Json::Array(vec![Json::UInt(t), sample_json(v)]))
                .collect();
            Json::Object(vec![
                ("name".to_string(), Json::Str(h.key)),
                ("samples".to_string(), Json::Array(samples)),
            ])
        })
        .collect();
    let body = Json::Object(vec![
        ("now_ms".to_string(), Json::UInt(now_ms)),
        ("window_ms".to_string(), Json::UInt(window_ms)),
        ("step_ms".to_string(), Json::UInt(step_ms.max(1))),
        ("interval_ms".to_string(), Json::UInt(monitor.interval_ms)),
        ("series".to_string(), Json::Array(series)),
    ]);
    Dispatch::Reply(Response::json(200, body.render()))
}

/// `GET /v1/alerts` — every SLO rule's state with since-timestamps:
/// `{"now_ms", "firing", "alerts": [{"rule", "series", "state",
/// "since_ms", "value"}, ...]}`.
fn alerts(shared: &Shared, _req: &Request, _params: &[&str]) -> Dispatch {
    let monitor = match monitor_of(shared) {
        Ok(m) => m,
        Err(resp) => return Dispatch::Reply(resp),
    };
    let statuses = monitor.slo.statuses();
    let alerts: Vec<Json> = statuses
        .iter()
        .map(|a| {
            Json::Object(vec![
                ("rule".to_string(), Json::Str(a.rule.clone())),
                ("series".to_string(), Json::Str(a.series.clone())),
                ("state".to_string(), Json::Str(a.state.as_str().to_string())),
                ("since_ms".to_string(), Json::UInt(a.since_ms)),
                ("value".to_string(), a.value.map_or(Json::Null, Json::Float)),
            ])
        })
        .collect();
    let body = Json::Object(vec![
        ("now_ms".to_string(), Json::UInt(monitor.store.now_ms())),
        ("firing".to_string(), Json::UInt(monitor.slo.firing())),
        ("alerts".to_string(), Json::Array(alerts)),
    ]);
    Dispatch::Reply(Response::json(200, body.render()))
}

/// `GET /dashboard` — the self-contained HTML dashboard over the full
/// collected window.
fn dashboard(shared: &Shared, _req: &Request, _params: &[&str]) -> Dispatch {
    let monitor = match monitor_of(shared) {
        Ok(m) => m,
        Err(resp) => return Dispatch::Reply(resp),
    };
    let (now_ms, histories) = monitor.store.history(u64::MAX, 0);
    let statuses = monitor.slo.statuses();
    let title = format!("predllc · {}", shared.addr);
    let html = predllc_obs::dash::render_dashboard(&title, now_ms, &histories, &statuses);
    Dispatch::Reply(Response::new(200, "text/html; charset=utf-8", html))
}

/// `GET /v1/jobs/{id}/trace` — every buffered trace event for the
/// job's trace id, as JSON Lines (submission, queue wait, run span,
/// per-point timings — whatever the runner recorded).
fn job_trace(shared: &Shared, _req: &Request, params: &[&str]) -> Dispatch {
    let Some(job) = shared.registry.get(params[0]) else {
        return Dispatch::Reply(error_response(404, "not_found", "unknown experiment id"));
    };
    let events = shared.tracer.snapshot_trace(job.trace);
    Dispatch::Reply(Response::new(
        200,
        "application/x-ndjson",
        render_jsonl(&events),
    ))
}

/// The point endpoints' success body: the fingerprint, whether the
/// cache answered, and the measurement document.
fn point_body(fp: &Fingerprint, cached: bool, measurement: &str) -> Response {
    Response::json(
        200,
        format!(
            "{{\"fingerprint\":{},\"cached\":{cached},\"measurement\":{measurement}}}",
            render_string(&fp.to_hex()),
        ),
    )
}

/// A `422` body positioning a point failure: `{"error": ..., "kind":
/// "config"|"sim"}` — the coordinator surfaces these as positioned job
/// failures rather than generic transport errors.
fn point_error(kind: &str, message: &str) -> Response {
    error_response(422, kind, message)
}

/// `POST /v1/points` — simulate (or answer from cache) one grid point:
/// the endpoint that makes this server a fleet worker.
fn point_post(shared: &Shared, req: &Request, _params: &[&str]) -> Dispatch {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Dispatch::Reply(error_response(
            503,
            "unavailable",
            "service is shutting down",
        ));
    }
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Dispatch::Reply(error_response(400, "http", "body is not utf-8"));
    };
    let point = match PointRequest::parse(body) {
        Ok(p) => p,
        Err(e) => return Dispatch::Reply(error_response(400, "point", &e.to_string())),
    };
    let fp = point.fingerprint();
    let metrics = &shared.registry.metrics;

    // A coordinator propagates its trace id in the X-Predllc-Trace
    // header; the worker-side compute span records under the same id,
    // so one fleet point is reconstructable end to end.
    let trace = req.header(TRACE_HEADER).and_then(TraceId::parse_hex);
    let mut span = trace.map(|t| {
        shared.tracer.span(
            t,
            "worker.point",
            fields(&[("fingerprint", fp.to_hex().into())]),
        )
    });

    let cached = shared.points.lock().unwrap().get(&fp).map(str::to_string);
    let (was_cached, rendered) = match cached {
        Some(rendered) => {
            metrics.points_cache_shared.inc();
            (true, rendered)
        }
        None => {
            let config = match point.config.build(point.cores) {
                Ok(c) => c.with_attribution(point.attribution),
                Err(e) => return Dispatch::Reply(point_error("config", &e.to_string())),
            };
            let workload = point.workload.spec.build(point.cores);
            let measurement = match measure(&config, &workload) {
                Ok(m) => m,
                Err(PointError::Config(e)) => {
                    return Dispatch::Reply(point_error("config", &e.to_string()))
                }
                Err(PointError::Sim(e)) => {
                    return Dispatch::Reply(point_error("sim", &e.to_string()))
                }
            };
            if let Some(attr) = &measurement.attribution {
                record_component_cycles(metrics, &attr.components);
            }
            let rendered = measurement.render();
            shared.points.lock().unwrap().insert(fp, rendered.clone());
            metrics.points_simulated.inc();
            (false, rendered)
        }
    };
    if let Some(span) = span.as_mut() {
        span.field("cached", u64::from(was_cached));
    }
    drop(span);

    // Fault injection: after `fail_after_points` successful answers, the
    // next one crashes mid-response — the worker-loss scenario the
    // coordinator's recovery path is tested against.
    if let Some(limit) = shared.fail_after_points {
        let n = shared.points_answered.fetch_add(1, Ordering::SeqCst) + 1;
        if n > limit {
            kill_shared(shared);
            return Dispatch::Hangup;
        }
    } else {
        shared.points_answered.fetch_add(1, Ordering::SeqCst);
    }
    Dispatch::Reply(point_body(&fp, was_cached, &rendered))
}

/// `GET /v1/points/{fingerprint}` — a cached measurement, if this
/// server has one (`404` otherwise; the caller simulates or POSTs).
fn point_get(shared: &Shared, _req: &Request, params: &[&str]) -> Dispatch {
    let Some(fp) = Fingerprint::parse_hex(params[0]) else {
        return Dispatch::Reply(error_response(404, "not_found", "not a point fingerprint"));
    };
    let cached = shared.points.lock().unwrap().get(&fp).map(str::to_string);
    Dispatch::Reply(match cached {
        Some(rendered) => {
            shared.registry.metrics.points_cache_shared.inc();
            point_body(&fp, true, &rendered)
        }
        None => error_response(404, "not_found", "point not cached"),
    })
}

/// `POST /v1/experiments` — submit a spec; coalesces duplicates.
fn submit(shared: &Shared, req: &Request, _params: &[&str]) -> Dispatch {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Dispatch::Reply(error_response(
            503,
            "unavailable",
            "service is shutting down",
        ));
    }
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Dispatch::Reply(error_response(400, "http", "body is not utf-8"));
    };
    // Callers may supply the trace id (X-Predllc-Trace) so their own
    // spans and the server's share one trace; otherwise mint a fresh
    // one. A cache hit keeps the existing job's trace.
    let trace = req
        .header(TRACE_HEADER)
        .and_then(TraceId::parse_hex)
        .unwrap_or_else(TraceId::fresh);
    let submission = match shared.registry.submit_traced(body, trace) {
        Ok(s) => s,
        Err(e @ SubmitError::AtCapacity) => {
            return Dispatch::Reply(error_response(503, "unavailable", &e.to_string()))
        }
        Err(SubmitError::Spec(e)) => {
            return Dispatch::Reply(error_response(400, "spec", &e.to_string()))
        }
    };
    shared.tracer.instant(
        submission.job.trace,
        "serve.job.submitted",
        fields(&[
            ("job", submission.job.id.to_hex().into()),
            ("cached", u64::from(!submission.fresh).into()),
        ]),
    );
    if submission.fresh {
        // Enqueue for the runners; if the queue closed under us
        // (shutdown raced the submit), unregister the job so the
        // queued-jobs gauge and the cache stay truthful.
        let enqueued = match &*shared.queue.lock().unwrap() {
            Some(tx) => tx.send(Arc::clone(&submission.job)).is_ok(),
            None => false,
        };
        if !enqueued {
            shared
                .registry
                .abandon(&submission.job, "service is shutting down");
            return Dispatch::Reply(error_response(
                503,
                "unavailable",
                "service is shutting down",
            ));
        }
    }
    let job = &submission.job;
    let body = format!(
        "{{\"id\":{},\"name\":{},\"status\":{},\"cached\":{},\"points_total\":{}}}",
        render_string(&job.id.to_hex()),
        render_string(&job.name),
        render_string(job.status().as_str()),
        !submission.fresh,
        job.points_total,
    );
    Dispatch::Reply(Response::json(
        if submission.fresh { 202 } else { 200 },
        body,
    ))
}

/// `GET /v1/experiments/{id}` — status and progress.
fn status(shared: &Shared, _req: &Request, params: &[&str]) -> Dispatch {
    let Some(job) = shared.registry.get(params[0]) else {
        return Dispatch::Reply(error_response(404, "not_found", "unknown experiment id"));
    };
    let status = job.status();
    let mut body = format!(
        "{{\"id\":{},\"name\":{},\"status\":{},\"points_done\":{},\"points_total\":{}",
        render_string(&job.id.to_hex()),
        render_string(&job.name),
        render_string(status.as_str()),
        // A done job's progress is complete by definition, even though
        // a cache-hit reader may race the last progress store.
        if status == JobStatus::Done {
            job.points_total
        } else {
            job.points_done()
        },
        job.points_total,
    );
    if let Some(error) = job.error() {
        body.push_str(&format!(",\"error\":{}", render_string(&error)));
    }
    body.push('}');
    Dispatch::Reply(Response::json(200, body))
}

/// The shared done/failed/not-ready ladder of the result endpoints:
/// `Ok` hands back the finished job's result.
fn finished_result(shared: &Shared, id: &str) -> Result<Arc<crate::registry::JobResult>, Response> {
    let Some(job) = shared.registry.get(id) else {
        return Err(error_response(404, "not_found", "unknown experiment id"));
    };
    match job.status() {
        JobStatus::Done => Ok(job.result().expect("status was Done")),
        JobStatus::Failed => Err(error_response(
            500,
            "job",
            &job.error().unwrap_or_else(|| "job failed".into()),
        )),
        other => Err(Response::json(
            409,
            format!(
                "{{\"error\":\"results not ready\",\"kind\":\"not_ready\",\"status\":{}}}",
                render_string(other.as_str())
            ),
        )),
    }
}

/// `GET /v1/experiments/{id}/results?format=csv|json` — the finished
/// result, streamed chunk by chunk from the cached grid rows (the
/// bytes are identical to the one-shot renders; the whole document
/// never exists in server memory).
fn results(shared: &Shared, req: &Request, params: &[&str]) -> Dispatch {
    let result = match finished_result(shared, params[0]) {
        Ok(r) => r,
        Err(resp) => return Dispatch::Reply(resp),
    };
    Dispatch::Reply(match req.query_param("format").unwrap_or("csv") {
        "csv" => Response::stream(200, "text/csv; charset=utf-8", result.csv_stream()),
        "json" => Response::stream(200, "application/json", result.json_stream()),
        other => error_response(
            400,
            "format",
            &format!("unknown format '{other}' (csv or json)"),
        ),
    })
}

/// `GET /v1/experiments/{id}/attribution` — the attribution artifact,
/// streamed. `404` when the job ran without `"attribution": true`, so
/// callers can distinguish "off" from "not ready" (`409`) without
/// parsing bodies.
fn attribution_results(shared: &Shared, _req: &Request, params: &[&str]) -> Dispatch {
    let result = match finished_result(shared, params[0]) {
        Ok(r) => r,
        Err(resp) => return Dispatch::Reply(resp),
    };
    Dispatch::Reply(match result.attribution_stream() {
        Some(stream) => Response::stream(200, "application/json", stream),
        None => error_response(
            404,
            "not_found",
            "attribution is off for this experiment (submit with \"attribution\": true)",
        ),
    })
}
