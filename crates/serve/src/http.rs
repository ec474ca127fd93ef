//! A minimal HTTP/1.1 codec over byte buffers, for both ends.
//!
//! The build is network-isolated (no hyper, no tokio), and the service
//! only needs the narrow slice of HTTP/1.1 that `curl`, browsers and the
//! in-tree [`client`](crate::client) speak: request line + headers +
//! `Content-Length` bodies, persistent connections by default, and a
//! handful of status codes. Everything is **bounded** — request-line
//! length, header count and size, body size — so a misbehaving client
//! cannot balloon server memory.
//!
//! [`Lines`] is the one line scanner: both ends read every head,
//! header and chunk-size line through it, and it searches each byte
//! once however many reads a line arrives in. [`Parser`] is the one
//! request parser: the reactor keeps one beside each connection's
//! buffer, and it parses each line once, when its LF arrives. [`frame`]
//! is the one response writer. A response carries a [`Body`] that is
//! either fully materialized bytes (framed with `Content-Length`) or a
//! pull-based [`BodyStream`] (framed with chunked `Transfer-Encoding`
//! on HTTP/1.1, per RFC 9112 §6), so large results are rendered
//! incrementally instead of being built in memory first.

use std::fmt;

use crate::server::Limits;

/// A parsed request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path component of the target (no query string).
    pub path: String,
    /// Raw query string after `?`, if any.
    pub query: Option<String>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
    /// Whether the client spoke HTTP/1.1 (or later 1.x). Chunked
    /// `Transfer-Encoding` responses are only legal here; HTTP/1.0
    /// clients get streamed bodies materialized into `Content-Length`
    /// framing instead.
    pub http11: bool,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of query parameter `key`, if present (`k=v` pairs
    /// separated by `&`; no percent-decoding — the API's values are
    /// plain tokens).
    pub(crate) fn query_param(&self, key: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Why the bytes of a message cannot be read.
#[derive(Debug, PartialEq)]
pub(crate) enum HttpError {
    /// The message violated a [`Limits`] bound (the field names the
    /// offending part; a request gets 413 or 431).
    TooLarge(&'static str),
    /// The bytes were not valid HTTP (a request gets 400).
    Malformed(&'static str),
}

/// A resumable scan over the lines of a buffer that grows at its end:
/// where the open line starts, and how far the search for its LF got.
#[derive(Debug, Default)]
pub(crate) struct Lines {
    /// The open line's first byte; the bytes before it are consumed.
    start: usize,
    /// Where the LF search resumes: `start..scanned` holds no LF.
    scanned: usize,
}

impl Lines {
    /// The open line, without its LF and a CR right before it, once its
    /// LF is in `buf`, which must be the last call's bytes plus any that
    /// arrived since. `None` while the LF has not arrived. More than
    /// `max` bytes before the LF (a CR among them) are
    /// [`HttpError::TooLarge`]`(what)` as soon as they are buffered.
    pub(crate) fn next<'b>(
        &mut self,
        buf: &'b [u8],
        max: usize,
        what: &'static str,
    ) -> Result<Option<&'b str>, HttpError> {
        let bound = buf
            .len()
            .min(self.start.saturating_add(max).saturating_add(1));
        let Some(lf) = buf[self.scanned..bound].iter().position(|&b| b == b'\n') else {
            self.scanned = bound;
            return if buf.len() - self.start > max {
                Err(HttpError::TooLarge(what))
            } else {
                Ok(None)
            };
        };
        let line = &buf[self.start..self.scanned + lf];
        self.start += line.len() + 1;
        self.scanned = self.start;
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let text = std::str::from_utf8(line).map_err(|_| HttpError::Malformed("non-utf8"))?;
        Ok(Some(text))
    }

    /// The `n` bytes at the scan's start, consumed, once all are in `buf`.
    pub(crate) fn take<'b>(&mut self, buf: &'b [u8], n: usize) -> Option<&'b [u8]> {
        let bytes = buf.get(self.start..self.start.checked_add(n)?)?;
        self.start += n;
        self.scanned = self.start;
        Some(bytes)
    }

    /// Forgets the bytes the scan consumed, for its caller to drop from
    /// the front of the buffer; how many there were.
    pub(crate) fn forget_consumed(&mut self) -> usize {
        let consumed = self.start;
        self.scanned -= consumed;
        self.start = 0;
        consumed
    }
}

/// A header line's lowercased name and trimmed value, if it has a `:`.
pub(crate) fn field(line: &str) -> Option<(String, &str)> {
    let (name, value) = line.split_once(':')?;
    Some((name.trim().to_ascii_lowercase(), value.trim()))
}

/// `digits` as a number in `radix`, digits only: no sign (which
/// `usize::from_str_radix` takes) and nothing past `usize`.
pub(crate) fn number(digits: &str, radix: u32) -> Option<usize> {
    if !digits.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    usize::from_str_radix(digits, radix).ok()
}

/// The body length after one more `content-length` header (RFC 9112
/// §6.3): `1*DIGIT`, and the same as any `earlier` header's.
pub(crate) fn content_length(value: &str, earlier: Option<usize>) -> Result<usize, HttpError> {
    match (number(value, 10), earlier) {
        (Some(n), None) => Ok(n),
        (Some(n), Some(m)) if n == m => Ok(n),
        _ => Err(HttpError::Malformed("bad content-length")),
    }
}

/// How far a request is parsed in the buffer its bytes arrive in.
#[derive(Debug, Default)]
pub(crate) struct Parser {
    lines: Lines,
    /// Method, target and version once the request line is in, then
    /// each header as its line arrives; the body is copied in last.
    req: Request,
    content_length: Option<usize>,
    /// The blank line that ends the head is in.
    head_ended: bool,
}

impl Parser {
    /// Parses the front of `buf` as one request, picking up where the
    /// last call stopped: `buf` must be that call's bytes plus any that
    /// arrived since. The outcome is a fresh parser's: `Ok(None)` exactly
    /// while the request is incomplete; a request and how many bytes it
    /// took, which the caller must drop from `buf` (the parser starts
    /// afresh); or why the bytes can never be a request (answer 4xx and
    /// close). The [`Limits`] bound a `buf` that never completes one.
    pub(crate) fn parse(
        &mut self,
        buf: &[u8],
        limits: &Limits,
    ) -> Result<Option<(Box<Request>, usize)>, HttpError> {
        while !self.head_ended {
            // A parsed request line has a method.
            let first = self.req.method.is_empty();
            let (max, what) = if first {
                (limits.max_request_line, "request line")
            } else {
                (limits.max_header_line, "header line")
            };
            let Some(line) = self.lines.next(buf, max, what)? else {
                return Ok(None);
            };
            if first {
                self.request_line(line)?;
            } else if line.is_empty() {
                self.head_ended = true;
            } else {
                self.header(line, limits)?;
            }
        }
        let Some(body) = self.lines.take(buf, self.content_length.unwrap_or(0)) else {
            return Ok(None);
        };
        let consumed = self.lines.forget_consumed();
        let mut req = std::mem::take(self).req;
        req.body = body.to_vec();
        Ok(Some((Box::new(req), consumed)))
    }

    fn request_line(&mut self, line: &str) -> Result<(), HttpError> {
        let mut parts = line.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or(HttpError::Malformed("missing method"))?;
        let target = parts.next().ok_or(HttpError::Malformed("missing target"))?;
        let version = parts
            .next()
            .ok_or(HttpError::Malformed("missing version"))?;
        if parts.next().is_some() || !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("bad request line"));
        }
        let req = &mut self.req;
        req.method = method.to_string();
        (req.path, req.query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), Some(q.to_string())),
            None => (target.to_string(), None),
        };
        // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
        req.http11 = version != "HTTP/1.0";
        req.keep_alive = req.http11;
        Ok(())
    }

    fn header(&mut self, line: &str, limits: &Limits) -> Result<(), HttpError> {
        if self.req.headers.len() >= limits.max_headers {
            return Err(HttpError::TooLarge("header count"));
        }
        let (name, value) = field(line).ok_or(HttpError::Malformed("header without ':'"))?;
        match name.as_str() {
            "content-length" => {
                let len = content_length(value, self.content_length)?;
                if len > limits.max_body {
                    return Err(HttpError::TooLarge("body"));
                }
                self.content_length = Some(len);
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    self.req.keep_alive = false;
                } else if v.contains("keep-alive") {
                    self.req.keep_alive = true;
                }
            }
            "transfer-encoding" => {
                // Chunked uploads are out of scope; refusing beats
                // misreading the framing.
                return Err(HttpError::Malformed("transfer-encoding not supported"));
            }
            _ => {}
        }
        self.req.headers.push((name, value.to_string()));
        Ok(())
    }
}

/// A pull-based response body: the writer asks for the next chunk only
/// when it has drained what it already holds, so a slow or stalled
/// reader naturally stops the producer instead of ballooning memory
/// (write backpressure by construction).
pub(crate) trait BodyStream: Send {
    /// The next chunk of body bytes, or `None` when the body is done.
    /// Implementations should return kilobyte-scale chunks; empty
    /// chunks are skipped by the writers (an empty chunk would
    /// terminate chunked framing early).
    fn next_chunk(&mut self) -> Option<Vec<u8>>;
}

impl BodyStream for std::vec::IntoIter<Vec<u8>> {
    fn next_chunk(&mut self) -> Option<Vec<u8>> {
        self.next()
    }
}

/// A response body: fully materialized bytes, or a stream rendered
/// incrementally as the connection drains.
pub(crate) enum Body {
    /// The whole body, framed with `Content-Length`.
    Full(Vec<u8>),
    /// A pull-based stream, framed with chunked `Transfer-Encoding`
    /// on HTTP/1.1 (materialized for HTTP/1.0 clients).
    Stream(Box<dyn BodyStream>),
}

impl Body {
    /// Drains the body into plain bytes (pulls a stream to completion).
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        match self {
            Body::Full(bytes) => bytes,
            Body::Stream(mut s) => {
                let mut out = Vec::new();
                while let Some(chunk) = s.next_chunk() {
                    out.extend_from_slice(&chunk);
                }
                out
            }
        }
    }
}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Body::Full(b) => write!(f, "Full({} bytes)", b.len()),
            Body::Stream(_) => write!(f, "Stream(..)"),
        }
    }
}

impl From<String> for Body {
    fn from(s: String) -> Body {
        Body::Full(s.into_bytes())
    }
}

impl From<&str> for Body {
    fn from(s: &str) -> Body {
        Body::Full(s.as_bytes().to_vec())
    }
}

/// A response about to be written.
#[derive(Debug)]
pub(crate) struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body.
    pub body: Body,
    /// Seconds for a `Retry-After` header (the 429 backpressure path).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A response with a text/JSON-ish string body.
    pub(crate) fn new(status: u16, content_type: &'static str, body: impl Into<Body>) -> Response {
        Response {
            status,
            content_type,
            body: body.into(),
            retry_after: None,
        }
    }

    /// A `200 OK` plain-text response.
    pub(crate) fn text(body: impl Into<Body>) -> Response {
        Response::new(200, "text/plain; charset=utf-8", body)
    }

    /// A JSON response at `status`.
    pub(crate) fn json(status: u16, body: impl Into<Body>) -> Response {
        Response::new(status, "application/json", body)
    }

    /// A streamed response at `status`.
    pub(crate) fn stream(
        status: u16,
        content_type: &'static str,
        body: Box<dyn BodyStream>,
    ) -> Response {
        Response {
            status,
            content_type,
            body: Body::Stream(body),
            retry_after: None,
        }
    }

    /// Adds a `Retry-After: secs` header (used with 429).
    #[must_use]
    pub(crate) fn with_retry_after(mut self, secs: u64) -> Response {
        self.retry_after = Some(secs);
        self
    }

    /// Collapses a streamed body into `Content-Length` framing (for
    /// HTTP/1.0 clients, which predate chunked encoding).
    #[must_use]
    pub(crate) fn materialized(self) -> Response {
        Response {
            body: Body::Full(self.body.into_bytes()),
            ..self
        }
    }
}

/// The reason phrase for the status codes the service uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Frames `resp` for the wire, announcing `keep_alive`: the status
/// line and headers, then a `Full` body, framed with `Content-Length`.
/// A `Stream` body is announced as chunked `Transfer-Encoding` and
/// handed back, to be pulled through [`encode_chunk`] and ended with
/// [`encode_last_chunk`] as the connection drains. Callers serving an
/// HTTP/1.0 peer must pass the response through
/// [`Response::materialized`] first.
pub(crate) fn frame(resp: Response, keep_alive: bool) -> (Vec<u8>, Option<Box<dyn BodyStream>>) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
    );
    match &resp.body {
        Body::Full(bytes) => head.push_str(&format!("content-length: {}\r\n", bytes.len())),
        Body::Stream(_) => head.push_str("transfer-encoding: chunked\r\n"),
    }
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("retry-after: {secs}\r\n"));
    }
    head.push_str(if keep_alive {
        "connection: keep-alive\r\n\r\n"
    } else {
        "connection: close\r\n\r\n"
    });
    let mut out = head.into_bytes();
    match resp.body {
        Body::Full(bytes) => {
            out.extend_from_slice(&bytes);
            (out, None)
        }
        Body::Stream(stream) => (out, Some(stream)),
    }
}

/// Appends one chunked-encoding frame (`{len:x}\r\n` + data + `\r\n`)
/// to `out`. Empty chunks are skipped — a zero-length frame would be
/// the terminator.
pub(crate) fn encode_chunk(out: &mut Vec<u8>, data: &[u8]) {
    if data.is_empty() {
        return;
    }
    out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Appends the chunked-encoding terminator (`0\r\n\r\n`) to `out`.
pub(crate) fn encode_last_chunk(out: &mut Vec<u8>) {
    out.extend_from_slice(b"0\r\n\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// A parse's outcome, as the tests below read it.
    #[derive(Debug)]
    enum Parse {
        /// A complete request and how many buffer bytes it consumed.
        Complete(Box<Request>, usize),
        /// The buffer holds a valid prefix of a request.
        Partial,
        /// The bytes can never become a valid request.
        Invalid(HttpError),
    }

    impl From<Result<Option<(Box<Request>, usize)>, HttpError>> for Parse {
        fn from(outcome: Result<Option<(Box<Request>, usize)>, HttpError>) -> Parse {
            match outcome {
                Ok(Some((req, consumed))) => Parse::Complete(req, consumed),
                Ok(None) => Parse::Partial,
                Err(e) => Parse::Invalid(e),
            }
        }
    }

    /// The one parser run from a fresh state over a whole buffer.
    fn try_parse(buf: &[u8], limits: &Limits) -> Parse {
        Parser::default().parse(buf, limits).into()
    }

    /// The request `bytes` hold exactly, or why they are invalid.
    fn parse_all(bytes: &[u8], limits: &Limits) -> Result<Request, HttpError> {
        match try_parse(bytes, limits) {
            Parse::Complete(req, consumed) => {
                assert_eq!(consumed, bytes.len(), "trailing bytes");
                Ok(*req)
            }
            Parse::Invalid(e) => Err(e),
            Parse::Partial => panic!("partial: {:?}", String::from_utf8_lossy(bytes)),
        }
    }

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        parse_all(bytes, &Limits::default())
    }

    /// The bytes `resp` puts on the wire: its framed head and body, then
    /// a streamed body pulled to the end the way the reactor pulls it.
    fn wire(resp: Response, keep_alive: bool) -> String {
        let (mut out, stream) = frame(resp, keep_alive);
        if let Some(mut stream) = stream {
            while let Some(chunk) = stream.next_chunk() {
                encode_chunk(&mut out, &chunk);
            }
            encode_last_chunk(&mut out);
        }
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let req = parse(
            b"POST /v1/experiments?format=csv&x=1 HTTP/1.1\r\n\
              Host: localhost\r\nContent-Type: application/json\r\n\
              Content-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/experiments");
        assert_eq!(req.query_param("format"), Some("csv"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.header("content-type"), Some("application/json"));
        assert_eq!(req.body, b"{\"a\":1}");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.keep_alive);
        let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!old.keep_alive);
        let old_ka = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(old_ka.keep_alive);
    }

    #[test]
    fn keep_alive_sessions_yield_multiple_requests() {
        let bytes = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let mut at = 0;
        let mut paths = Vec::new();
        while let Parse::Complete(req, consumed) = try_parse(&bytes[at..], &Limits::default()) {
            paths.push(req.path);
            at += consumed;
        }
        assert_eq!(paths, ["/healthz", "/metrics"]);
        assert_eq!(at, bytes.len());
    }

    #[test]
    fn bounds_are_enforced() {
        let limits = Limits {
            max_request_line: 32,
            max_header_line: 32,
            max_headers: 2,
            max_body: 8,
        };
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(64));
        assert!(matches!(
            parse_all(long_line.as_bytes(), &limits),
            Err(HttpError::TooLarge("request line"))
        ));
        let big_body = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        assert!(matches!(
            parse_all(big_body, &limits),
            Err(HttpError::TooLarge("body"))
        ));
        let many_headers = b"GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n";
        assert!(matches!(
            parse_all(many_headers, &limits),
            Err(HttpError::TooLarge("header count"))
        ));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bytes in [
            &b"NOT-HTTP\r\n\r\n"[..],
            &b"GET /\r\n\r\n"[..],
            &b"GET / FTP/1.1\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nbad header\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
        ] {
            assert!(
                matches!(parse(bytes), Err(HttpError::Malformed(_))),
                "accepted {:?}",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    /// One table row: a buffer, the prefix length that decides it (every
    /// shorter prefix is `Partial`, every longer one parses like the
    /// whole buffer) and what the whole buffer parses to.
    struct Case {
        name: &'static str,
        bytes: Vec<u8>,
        decide: usize,
        want: Result<Want, HttpError>,
    }

    /// The parts of a complete request a row checks; it consumed
    /// `Case::decide` bytes.
    struct Want {
        path: String,
        keep_alive: bool,
        http11: bool,
        headers: usize,
        body: &'static [u8],
    }

    fn get(path: &str, headers: usize) -> Want {
        Want {
            path: path.to_string(),
            keep_alive: true,
            http11: true,
            headers,
            body: b"",
        }
    }

    fn table(limits: &Limits) -> Vec<Case> {
        // The target that makes `GET {target} HTTP/1.1` `len` bytes long.
        let target = |len: usize| format!("/{}", "a".repeat(len - 14));
        let header_line = |len: usize| format!("x: {}", "h".repeat(len - 3));
        let (line_max, header_max) = (limits.max_request_line, limits.max_header_line);
        let mut cases = Vec::new();
        for (eol, cr) in [("\r\n", 1), ("\n", 0)] {
            // The request line: a CR before the LF counts toward the limit.
            for len in [line_max - 1, line_max, line_max + 1] {
                let bytes = format!("GET {} HTTP/1.1{eol}{eol}", target(len)).into_bytes();
                let (decide, want) = if len + cr <= line_max {
                    (bytes.len(), Ok(get(&target(len), 0)))
                } else {
                    (line_max + 1, Err(HttpError::TooLarge("request line")))
                };
                cases.push(Case {
                    name: "request line at its limit",
                    bytes,
                    decide,
                    want,
                });
            }
            // A header line, the same way.
            for len in [header_max - 1, header_max, header_max + 1] {
                let head = format!("GET /h HTTP/1.1{eol}");
                let bytes = format!("{head}{}{eol}{eol}", header_line(len)).into_bytes();
                let (decide, want) = if len + cr <= header_max {
                    (bytes.len(), Ok(get("/h", 1)))
                } else {
                    (
                        head.len() + header_max + 1,
                        Err(HttpError::TooLarge("header line")),
                    )
                };
                cases.push(Case {
                    name: "header line at its limit",
                    bytes,
                    decide,
                    want,
                });
            }
        }
        // `max_headers` headers, then one more.
        for count in [limits.max_headers, limits.max_headers + 1] {
            let mut text = String::from("GET /n HTTP/1.1\r\n");
            let mut ends = Vec::new();
            for i in 0..count {
                text.push_str(&format!("h{i}: v\r\n"));
                ends.push(text.len());
            }
            text.push_str("\r\n");
            let (decide, want) = if count <= limits.max_headers {
                (text.len(), Ok(get("/n", count)))
            } else {
                (ends[count - 1], Err(HttpError::TooLarge("header count")))
            };
            cases.push(Case {
                name: "header count",
                bytes: text.into_bytes(),
                decide,
                want,
            });
        }
        // `content-length` at `max_body`, then one more.
        const BODY: &[u8; 9] = b"123456789";
        for len in [limits.max_body, limits.max_body + 1] {
            let head = format!("POST /b HTTP/1.1\r\ncontent-length: {len}\r\n");
            let mut bytes = format!("{head}\r\n").into_bytes();
            bytes.extend_from_slice(&BODY[..len]);
            let (decide, want) = if len <= limits.max_body {
                let body: &'static [u8] = &BODY[..len];
                (
                    bytes.len(),
                    Ok(Want {
                        body,
                        ..get("/b", 1)
                    }),
                )
            } else {
                (head.len(), Err(HttpError::TooLarge("body")))
            };
            cases.push(Case {
                name: "content-length at its limit",
                bytes,
                decide,
                want,
            });
        }
        let non_utf8 = b"GET /\xff HTTP/1.1\r\n\r\n".to_vec();
        cases.push(Case {
            name: "non-utf8 request line",
            decide: non_utf8.len() - 2,
            bytes: non_utf8,
            want: Err(HttpError::Malformed("non-utf8")),
        });
        let te = "POST /t HTTP/1.1\r\nTransfer-Encoding: chunked\r\n";
        cases.push(Case {
            name: "transfer-encoding",
            bytes: format!("{te}\r\n5\r\nhello\r\n0\r\n\r\n").into_bytes(),
            decide: te.len(),
            want: Err(HttpError::Malformed("transfer-encoding not supported")),
        });
        for (connection, keep_alive) in [("", false), ("Connection: keep-alive\r\n", true)] {
            let bytes = format!("GET /old HTTP/1.0\r\n{connection}\r\n").into_bytes();
            cases.push(Case {
                name: "HTTP/1.0",
                decide: bytes.len(),
                bytes,
                want: Ok(Want {
                    keep_alive,
                    http11: false,
                    ..get("/old", usize::from(keep_alive))
                }),
            });
        }
        let first = "POST /one HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc";
        cases.push(Case {
            name: "a pipelined pair",
            bytes: format!("{first}GET /two HTTP/1.1\r\n\r\n").into_bytes(),
            decide: first.len(),
            want: Ok(Want {
                body: b"abc",
                ..get("/one", 1)
            }),
        });
        // `content-length` is `1*DIGIT`, and a repeat must agree: a bad
        // one is decided at its own line's LF.
        for lengths in [&["+5"][..], &["5", "7"], &["5", "5"]] {
            let mut head = String::from("POST /l HTTP/1.1\r\n");
            for len in lengths {
                head.push_str(&format!("content-length: {len}\r\n"));
            }
            let mut bytes = format!("{head}\r\n").into_bytes();
            bytes.extend_from_slice(&BODY[..5]);
            cases.push(if lengths.iter().all(|len| *len == "5") {
                Case {
                    name: "a repeated content-length",
                    decide: bytes.len(),
                    bytes,
                    want: Ok(Want {
                        body: &BODY[..5],
                        ..get("/l", lengths.len())
                    }),
                }
            } else {
                Case {
                    name: "a signed or conflicting content-length",
                    decide: head.len(),
                    bytes,
                    want: Err(HttpError::Malformed("bad content-length")),
                }
            });
        }
        cases
    }

    #[test]
    fn every_prefix_is_partial_until_its_deciding_byte() {
        let limits = Limits {
            max_request_line: 32,
            max_header_line: 30,
            max_headers: 3,
            max_body: 8,
        };
        for case in table(&limits) {
            let name = case.name;
            for cut in 0..=case.bytes.len() {
                let got = try_parse(&case.bytes[..cut], &limits);
                match (&got, &case.want) {
                    (Parse::Partial, _) if cut < case.decide => {}
                    (Parse::Complete(req, consumed), Ok(want)) if cut >= case.decide => {
                        assert_eq!(*consumed, case.decide, "{name}: consumed at {cut}");
                        assert_eq!(req.path, want.path, "{name}");
                        assert_eq!(req.keep_alive, want.keep_alive, "{name}");
                        assert_eq!(req.http11, want.http11, "{name}");
                        assert_eq!(req.headers.len(), want.headers, "{name}");
                        assert_eq!(req.body, want.body, "{name}");
                    }
                    (Parse::Invalid(e), Err(want)) if cut >= case.decide => {
                        assert_eq!(e, want, "{name}");
                    }
                    _ => panic!(
                        "{name}: prefix of {cut} of {} bytes (decided at {}) parsed {got:?}",
                        case.bytes.len(),
                        case.decide
                    ),
                }
            }
        }
    }

    #[test]
    fn responses_frame_with_content_length() {
        let text = wire(Response::json(202, r#"{"id":"x"}"#), true);
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"));
        assert!(text.contains("content-length: 10\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"id\":\"x\"}"));
        assert!(wire(Response::text("ok\n"), false).contains("connection: close"));
    }

    fn chunks(parts: &[&str]) -> Box<dyn BodyStream> {
        Box::new(
            parts
                .iter()
                .map(|p| p.as_bytes().to_vec())
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    #[test]
    fn streamed_responses_frame_with_chunked_encoding() {
        let resp = Response::stream(
            200,
            "text/csv; charset=utf-8",
            chunks(&["hello,", "world\n"]),
        );
        let text = wire(resp, true);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        assert!(!text.contains("content-length"));
        assert!(text.ends_with("\r\n\r\n6\r\nhello,\r\n6\r\nworld\n\r\n0\r\n\r\n"));
    }

    #[test]
    fn materialized_streams_collapse_to_content_length() {
        let resp = Response::stream(200, "text/plain; charset=utf-8", chunks(&["a", "", "bc"]));
        let text = wire(resp.materialized(), false);
        assert!(text.contains("content-length: 3\r\n"));
        assert!(text.ends_with("\r\n\r\nabc"));
    }

    #[test]
    fn retry_after_header_rides_along() {
        let text = wire(Response::json(429, "{}").with_retry_after(2), true);
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
    }

    #[test]
    fn try_parse_classifies_partial_complete_and_invalid() {
        let limits = Limits::default();
        let whole = b"POST /v1/points HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody";
        // Every strict prefix is Partial; the full buffer is Complete.
        for cut in 1..whole.len() {
            assert!(
                matches!(try_parse(&whole[..cut], &limits), Parse::Partial),
                "prefix of {cut} bytes should be partial"
            );
        }
        assert!(matches!(try_parse(&[], &limits), Parse::Partial));
        match try_parse(whole, &limits) {
            Parse::Complete(req, consumed) => {
                assert_eq!(req.path, "/v1/points");
                assert_eq!(req.body, b"body");
                assert!(req.http11);
                assert_eq!(consumed, whole.len());
            }
            other => panic!("expected complete, got {other:?}"),
        }
        // Pipelined bytes past the first request are not consumed.
        let mut two = whole.to_vec();
        two.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        match try_parse(&two, &limits) {
            Parse::Complete(_, consumed) => assert_eq!(consumed, whole.len()),
            other => panic!("expected complete, got {other:?}"),
        }
        // Garbage is Invalid even though a later request might follow.
        assert!(matches!(
            try_parse(b"NOT-HTTP\r\n\r\n", &limits),
            Parse::Invalid(HttpError::Malformed(_))
        ));
        // Bounds still fire incrementally: an endless request line
        // turns Invalid as soon as it crosses the limit.
        let long = vec![b'x'; limits.max_request_line + 2];
        assert!(matches!(
            try_parse(&long, &limits),
            Parse::Invalid(HttpError::TooLarge("request line"))
        ));
    }

    /// A seeded splitmix64 stream.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// One random edit of `bytes`: a byte flip, a deletion, a CRLF↔LF
    /// swap, a spliced `content-length` header or a pipelined tail.
    fn mutate(rng: &mut SplitMix, bytes: &mut Vec<u8>, tails: &[Vec<u8>]) {
        let at = rng.below(bytes.len() + 1);
        let next_line = bytes[at..].iter().position(|&b| b == b'\n').map(|i| at + i);
        match rng.below(5) {
            0 if at < bytes.len() => bytes[at] = b"a :\r\n5+"[rng.below(7)],
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => match next_line {
                Some(lf) if lf > 0 && bytes[lf - 1] == b'\r' => {
                    bytes.remove(lf - 1);
                }
                Some(lf) => bytes.insert(lf, b'\r'),
                None => {}
            },
            3 => {
                let value = ["0", "3", "5", "+5", "9", "05", " 4"][rng.below(7)];
                let line = format!("content-length: {value}\r\n");
                let at = next_line.map_or(bytes.len(), |lf| lf + 1);
                bytes.splice(at..at, line.into_bytes());
            }
            _ => bytes.extend_from_slice(&tails[rng.below(tails.len())]),
        }
    }

    /// Grows a buffer to each of `cuts` in turn and parses it with one
    /// kept [`Parser`], dropping each complete request from the front as
    /// the reactor does; every outcome must be a fresh parse's.
    fn resume_matches_fresh(bytes: &[u8], cuts: &[usize], limits: &Limits) {
        let mut parser = Parser::default();
        let mut start = 0;
        for &cut in cuts {
            loop {
                let resumed = Parse::from(parser.parse(&bytes[start..cut], limits));
                let fresh = try_parse(&bytes[start..cut], limits);
                assert_eq!(
                    format!("{resumed:?}"),
                    format!("{fresh:?}"),
                    "{:?} grown to {cuts:?}, at {cut}",
                    String::from_utf8_lossy(bytes)
                );
                match resumed {
                    Parse::Complete(_, consumed) => start += consumed,
                    Parse::Partial => break,
                    Parse::Invalid(_) => return,
                }
            }
        }
    }

    #[test]
    fn a_resumed_parse_equals_a_fresh_one_at_every_step() {
        let limits = Limits {
            max_request_line: 32,
            max_header_line: 30,
            max_headers: 3,
            max_body: 8,
        };
        let cases: Vec<Vec<u8>> = table(&limits).into_iter().map(|c| c.bytes).collect();
        let mut rng = SplitMix(0x0C0D_EC5E_ED00);
        for round in 0..4000 {
            let mut bytes = cases[round % cases.len()].clone();
            if round >= cases.len() {
                for _ in 0..1 + rng.below(3) {
                    mutate(&mut rng, &mut bytes, &cases);
                }
            }
            let mut cuts = Vec::new();
            let mut cut = 0;
            while cut < bytes.len() {
                cut = (cut + 1 + rng.below(8)).min(bytes.len());
                cuts.push(cut);
            }
            resume_matches_fresh(&bytes, &cuts, &limits);
        }
    }

    /// A `POST` whose head holds `headers` header lines of 2 KiB each
    /// (a `content-length` among them when `body` is not empty), then
    /// `body` bytes.
    fn big_request(headers: usize, body: usize) -> Vec<u8> {
        let mut text = String::from("POST /v1/points HTTP/1.1\r\n");
        for i in 0..headers - usize::from(body > 0) {
            let line = format!("x-pad-{i:02}: ");
            text.push_str(&line);
            text.push_str(&"p".repeat(2048 - line.len() - 2));
            text.push_str("\r\n");
        }
        if body > 0 {
            text.push_str(&format!("content-length: {body}\r\n"));
        }
        text.push_str("\r\n");
        let mut bytes = text.into_bytes();
        bytes.resize(bytes.len() + body, b'b');
        bytes
    }

    /// Feeds `bytes` to one parser `step` bytes more per call, failing
    /// as soon as `budget` is spent; the last call must complete.
    fn feed_within(bytes: &[u8], step: usize, budget: Duration) {
        let limits = Limits::default();
        let mut parser = Parser::default();
        let started = Instant::now();
        let mut cut = 0;
        loop {
            cut = (cut + step).min(bytes.len());
            let outcome = Parse::from(parser.parse(&bytes[..cut], &limits));
            let spent = started.elapsed();
            assert!(
                spent < budget,
                "{spent:?} spent by byte {cut} of {}",
                bytes.len()
            );
            match outcome {
                Parse::Partial if cut < bytes.len() => {}
                Parse::Complete(req, consumed) if cut == bytes.len() => {
                    assert_eq!(consumed, bytes.len());
                    assert_eq!(req.headers.len(), 64);
                    return;
                }
                other => panic!("byte {cut} of {} parsed {other:?}", bytes.len()),
            }
        }
    }

    // On a 2-vCPU host, rescanning the head from byte 0 on every call
    // took 10.9 s (first shape) and 207 ms (second) in a release build,
    // and restarting each line's LF search at the line start took
    // 0.76 s (first shape) in a debug build; parsing each line once took
    // 15–21 ms and ~2 ms in a debug build.

    #[test]
    fn a_128_kib_head_fed_one_byte_per_call_costs_linear_work() {
        let head = big_request(64, 0);
        assert_eq!(head.len() >> 10, 128);
        feed_within(&head, 1, Duration::from_millis(250));
    }

    #[test]
    fn a_body_fed_1_kib_per_call_costs_no_head_parse() {
        let request = big_request(64, 1 << 20);
        assert_eq!((request.len() - (1 << 20)) >> 10, 126);
        feed_within(&request, 1024, Duration::from_millis(50));
    }
}
