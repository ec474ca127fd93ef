//! The redesigned dispatch API: endpoints are [`Handler`]s registered
//! on a [`Router`] instead of arms of one giant `match` in `server.rs`.
//!
//! A handler takes the parsed request plus any captured path
//! parameters and returns a [`Dispatch`]: either a [`Response`] to
//! write (whose body may be fully materialized bytes or a pull-based
//! stream) or a deliberate hang-up (the fault-injection path answers
//! nothing, like a crashed process). The epoll reactor drives the
//! router; like the reactor, this module is compiled on Linux only.

use std::sync::Arc;
use std::time::Instant;

use crate::http::{Request, Response};
use crate::registry::Job;

/// What the dispatch layer decided to do with a request.
#[derive(Debug)]
pub(crate) enum Dispatch {
    /// Write this response (then keep the connection per its wishes).
    Reply(Response),
    /// Hold the request until `job` settles or `until` passes, then
    /// answer with the job's status document at that moment — a
    /// `GET /v1/experiments/{id}?wait_ms=N` long poll. The reactor
    /// parks the connection on [`Job::watch`] (no thread waits).
    Hold {
        /// The job whose settling releases the request.
        job: Arc<Job>,
        /// When the request is answered even if the job is unsettled.
        until: Instant,
    },
    /// Close the connection without answering (fault injection:
    /// simulates a process crash mid-request).
    Hangup,
}

/// One endpoint: a parsed request plus captured path parameters in,
/// a [`Dispatch`] out.
pub(crate) trait Handler: Send + Sync {
    /// Handles one request. `params` holds the path segments captured
    /// by `{placeholders}` in the route pattern, in order.
    fn handle(&self, req: &Request, params: &[&str]) -> Dispatch;
}

impl<F> Handler for F
where
    F: Fn(&Request, &[&str]) -> Dispatch + Send + Sync,
{
    fn handle(&self, req: &Request, params: &[&str]) -> Dispatch {
        self(req, params)
    }
}

/// One compiled route pattern segment.
#[derive(Debug, PartialEq, Eq)]
enum Seg {
    Lit(&'static str),
    Param,
}

struct Route {
    method: &'static str,
    segs: Vec<Seg>,
    label: &'static str,
    heavy: bool,
    handler: Box<dyn Handler>,
}

/// Where a request landed in the routing table.
pub(crate) enum Lookup<'r, 'p> {
    /// A route matched; run its handler with the captured params.
    Matched {
        /// The route's metric label (`predllc_endpoint_latency` etc.).
        label: &'static str,
        /// Whether the endpoint does heavy work (simulation, large
        /// renders) and must run on the dispatch executor rather than
        /// inline on a reactor thread.
        heavy: bool,
        /// The endpoint.
        handler: &'r dyn Handler,
        /// Captured `{placeholder}` path segments, in order.
        params: Vec<&'p str>,
    },
    /// The path shape exists but not under this method (405).
    MethodNotAllowed,
    /// Nothing matches (404).
    NotFound,
}

/// Method + path-pattern routing table over boxed [`Handler`]s.
///
/// Patterns are literal segments with `{name}` placeholders, e.g.
/// `/v1/experiments/{id}/results`. Lookup walks the routes in
/// registration order; a path that matches some route's pattern under
/// a different method reports 405, otherwise 404.
#[derive(Default)]
pub(crate) struct Router {
    routes: Vec<Route>,
}

impl Router {
    /// An empty router.
    pub(crate) fn new() -> Router {
        Router::default()
    }

    /// Registers a lightweight endpoint (cheap enough to run inline on
    /// a reactor thread: O(registry lookup) work, small allocations).
    pub(crate) fn at(
        &mut self,
        method: &'static str,
        pattern: &'static str,
        label: &'static str,
        handler: impl Handler + 'static,
    ) {
        self.route(method, pattern, label, false, handler);
    }

    /// Registers a heavyweight endpoint (parses arbitrary payloads,
    /// simulates, or renders large documents): the reactor runs it on
    /// the bounded dispatch executor, whose queue depth drives 429
    /// backpressure.
    pub(crate) fn at_heavy(
        &mut self,
        method: &'static str,
        pattern: &'static str,
        label: &'static str,
        handler: impl Handler + 'static,
    ) {
        self.route(method, pattern, label, true, handler);
    }

    fn route(
        &mut self,
        method: &'static str,
        pattern: &'static str,
        label: &'static str,
        heavy: bool,
        handler: impl Handler + 'static,
    ) {
        let segs = pattern
            .split('/')
            .filter(|s| !s.is_empty())
            .map(|s| {
                if s.starts_with('{') && s.ends_with('}') {
                    Seg::Param
                } else {
                    Seg::Lit(s)
                }
            })
            .collect();
        self.routes.push(Route {
            method,
            segs,
            label,
            heavy,
            handler: Box::new(handler),
        });
    }

    /// Routes `method path`.
    pub(crate) fn lookup<'p>(&self, method: &str, path: &'p str) -> Lookup<'_, 'p> {
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        let mut shape_matched = false;
        for route in &self.routes {
            let Some(params) = capture(&route.segs, &segments) else {
                continue;
            };
            if route.method == method {
                return Lookup::Matched {
                    label: route.label,
                    heavy: route.heavy,
                    handler: route.handler.as_ref(),
                    params,
                };
            }
            shape_matched = true;
        }
        if shape_matched {
            Lookup::MethodNotAllowed
        } else {
            Lookup::NotFound
        }
    }
}

/// Matches `segments` against a pattern, capturing `{}` positions.
fn capture<'p>(pattern: &[Seg], segments: &[&'p str]) -> Option<Vec<&'p str>> {
    if pattern.len() != segments.len() {
        return None;
    }
    let mut params = Vec::new();
    for (seg, &actual) in pattern.iter().zip(segments) {
        match seg {
            Seg::Lit(lit) => {
                if *lit != actual {
                    return None;
                }
            }
            Seg::Param => params.push(actual),
        }
    }
    Some(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query: None,
            headers: vec![],
            body: vec![],
            keep_alive: true,
            http11: true,
        }
    }

    fn table() -> Router {
        let mut router = Router::new();
        router.at("GET", "/healthz", "healthz", |_: &Request, _: &[&str]| {
            Dispatch::Reply(Response::text("ok\n"))
        });
        router.at(
            "GET",
            "/v1/experiments/{id}/results",
            "job_results",
            |_: &Request, params: &[&str]| Dispatch::Reply(Response::text(params[0].to_string())),
        );
        router.at_heavy(
            "POST",
            "/v1/experiments",
            "submit",
            |_: &Request, _: &[&str]| Dispatch::Reply(Response::json(202, "{}")),
        );
        router
    }

    fn run(router: &Router, method: &str, path: &str) -> (&'static str, bool, Vec<String>) {
        match router.lookup(method, path) {
            Lookup::Matched {
                label,
                heavy,
                params,
                ..
            } => (label, heavy, params.iter().map(|p| p.to_string()).collect()),
            Lookup::MethodNotAllowed => ("405", false, vec![]),
            Lookup::NotFound => ("404", false, vec![]),
        }
    }

    #[test]
    fn literal_and_param_routes_match_with_captures() {
        let router = table();
        assert_eq!(run(&router, "GET", "/healthz"), ("healthz", false, vec![]));
        assert_eq!(
            run(&router, "GET", "/v1/experiments/abc123/results"),
            ("job_results", false, vec!["abc123".to_string()])
        );
        assert_eq!(
            run(&router, "POST", "/v1/experiments"),
            ("submit", true, vec![])
        );
    }

    #[test]
    fn wrong_method_is_405_unknown_path_is_404() {
        let router = table();
        assert_eq!(run(&router, "POST", "/healthz").0, "405");
        assert_eq!(run(&router, "GET", "/v1/experiments").0, "405");
        assert_eq!(run(&router, "GET", "/nope").0, "404");
        assert_eq!(run(&router, "GET", "/v1/experiments/x/nope").0, "404");
        // Param segments match any value but not a different arity.
        assert_eq!(
            run(&router, "GET", "/v1/experiments/x/results/extra").0,
            "404"
        );
    }

    #[test]
    fn handlers_see_the_request_they_were_routed() {
        let router = table();
        let r = req("GET", "/v1/experiments/deadbeef/results");
        match router.lookup(&r.method, &r.path) {
            Lookup::Matched {
                handler, params, ..
            } => match handler.handle(&r, &params) {
                Dispatch::Reply(resp) => {
                    assert_eq!(resp.body.into_bytes(), b"deadbeef");
                }
                other => panic!("unexpected {other:?}"),
            },
            _ => panic!("route must match"),
        }
    }
}
