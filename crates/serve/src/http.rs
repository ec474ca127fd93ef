//! A minimal HTTP/1.1 request/response layer over `std` I/O.
//!
//! The build is network-isolated (no hyper, no tokio), and the service
//! only needs the narrow slice of HTTP/1.1 that `curl`, browsers and the
//! in-tree [`client`](crate::client) speak: request line + headers +
//! `Content-Length` bodies, persistent connections by default, and a
//! handful of status codes. Everything is **bounded** — request-line
//! length, header count and size, body size — so a misbehaving client
//! cannot balloon server memory.
//!
//! Responses carry a [`Body`] that is either fully materialized bytes
//! (framed with `Content-Length`) or a pull-based [`BodyStream`]
//! (framed with chunked `Transfer-Encoding` on HTTP/1.1), so large
//! results are rendered incrementally instead of being built in memory
//! first. [`try_parse`] is the incremental front of the same bounded
//! parser, used by the nonblocking reactor to parse requests out of an
//! accumulation buffer.

use std::fmt;
use std::io::{self, BufRead, Write};

use crate::server::Limits;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Why a request could not be read.
#[derive(Debug)]
pub(crate) enum HttpError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The request violated a [`Limits`] bound (the field names the
    /// offending part; responds 413 or 431).
    TooLarge(&'static str),
    /// The bytes were not valid HTTP (responds 400).
    Malformed(&'static str),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::TooLarge(what) => write!(f, "{what} exceeds the configured limit"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one line (up to CRLF or LF), bounded by `max` bytes.
///
/// Returns `Ok(None)` on clean EOF before any byte.
fn read_line(
    r: &mut impl BufRead,
    max: usize,
    what: &'static str,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Malformed("truncated line"));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text =
                        String::from_utf8(line).map_err(|_| HttpError::Malformed("non-utf8"))?;
                    return Ok(Some(text));
                }
                line.push(byte[0]);
                if line.len() > max {
                    return Err(HttpError::TooLarge(what));
                }
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Reads one request from the stream.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly
/// between requests (the normal end of a keep-alive session).
///
/// # Errors
///
/// [`HttpError`] describing the transport failure, violated bound or
/// malformed syntax; the caller maps these to 4xx responses where a
/// response is still possible.
pub(crate) fn read_request(
    r: &mut impl BufRead,
    limits: &Limits,
) -> Result<Option<Request>, HttpError> {
    let Some(request_line) = read_line(r, limits.max_request_line, "request line")? else {
        return Ok(None);
    };
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("missing target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("bad request line"));
    }
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let http11 = version != "HTTP/1.0";
    let mut keep_alive = http11;

    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let line = read_line(r, limits.max_header_line, "header line")?
            .ok_or(HttpError::Malformed("truncated headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::TooLarge("header count"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without ':'"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad content-length"))?;
                if content_length > limits.max_body {
                    return Err(HttpError::TooLarge("body"));
                }
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            "transfer-encoding" => {
                // Chunked uploads are out of scope; refusing beats
                // misreading the framing.
                return Err(HttpError::Malformed("transfer-encoding not supported"));
            }
            _ => {}
        }
        headers.push((name, value));
    }

    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target, None),
    };
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
        keep_alive,
        http11,
    }))
}

/// The outcome of [`try_parse`] over an accumulation buffer.
#[derive(Debug)]
pub(crate) enum Parse {
    /// A complete request; `usize` is how many buffer bytes it consumed.
    Complete(Box<Request>, usize),
    /// The buffer holds a valid prefix of a request — read more bytes.
    Partial,
    /// The bytes can never become a valid request (or violated a
    /// bound); the connection should answer 4xx and close.
    Invalid(HttpError),
}

/// Incrementally parses the front of `buf` as one request.
///
/// This is the reactor-facing face of [`read_request`]: the same
/// bounded parser is run speculatively over the buffered bytes, and
/// "ran out of input mid-request" outcomes are classified as
/// [`Parse::Partial`] instead of errors. Because every [`Limits`]
/// bound is enforced *while* parsing, a buffer that keeps growing
/// without completing a request is guaranteed to hit
/// [`Parse::Invalid`] — the accumulation buffer is bounded by the
/// limits themselves.
pub(crate) fn try_parse(buf: &[u8], limits: &Limits) -> Parse {
    if buf.is_empty() {
        return Parse::Partial;
    }
    let mut cursor = io::Cursor::new(buf);
    match read_request(&mut cursor, limits) {
        Ok(Some(req)) => Parse::Complete(Box::new(req), cursor.position() as usize),
        // read_request only reports clean-EOF `None` on an empty
        // stream, handled above; treat it as needing more bytes.
        Ok(None) => Parse::Partial,
        Err(HttpError::Malformed("truncated line" | "truncated headers")) => Parse::Partial,
        Err(HttpError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => Parse::Partial,
        Err(e) => Parse::Invalid(e),
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

impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Body {
        Body::Full(bytes)
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

impl From<&[u8]> for Body {
    fn from(bytes: &[u8]) -> Body {
        Body::Full(bytes.to_vec())
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
pub(crate) fn reason(status: u16) -> &'static str {
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

/// How the body of a response is framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Framing {
    /// `Content-Length: n`.
    Length(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// Renders the status line + headers (through the blank line) for a
/// response with the given framing and keep-alive intent.
pub(crate) fn head_bytes(resp: &Response, framing: Framing, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
    );
    match framing {
        Framing::Length(n) => head.push_str(&format!("content-length: {n}\r\n")),
        Framing::Chunked => head.push_str("transfer-encoding: chunked\r\n"),
    }
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("retry-after: {secs}\r\n"));
    }
    head.push_str(if keep_alive {
        "connection: keep-alive\r\n\r\n"
    } else {
        "connection: close\r\n\r\n"
    });
    head.into_bytes()
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

/// Writes `resp`, framing `Full` bodies with `Content-Length` and
/// `Stream` bodies with chunked `Transfer-Encoding`, and announcing
/// keep-alive intent. Callers serving an HTTP/1.0 peer must pass the
/// response through [`Response::materialized`] first.
///
/// Full responses are assembled into a single buffer and written with
/// one syscall; streamed responses flush chunk by chunk as the body is
/// pulled.
///
/// # Errors
///
/// Any transport failure.
pub(crate) fn write_response(
    w: &mut impl Write,
    resp: Response,
    keep_alive: bool,
) -> io::Result<()> {
    let framing = match &resp.body {
        Body::Full(bytes) => Framing::Length(bytes.len()),
        Body::Stream(_) => Framing::Chunked,
    };
    let head = head_bytes(&resp, framing, keep_alive);
    match resp.body {
        Body::Full(bytes) => {
            let mut out = head;
            out.extend_from_slice(&bytes);
            w.write_all(&out)?;
        }
        Body::Stream(mut stream) => {
            w.write_all(&head)?;
            let mut frame = Vec::new();
            while let Some(chunk) = stream.next_chunk() {
                frame.clear();
                encode_chunk(&mut frame, &chunk);
                w.write_all(&frame)?;
            }
            w.write_all(b"0\r\n\r\n")?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut Cursor::new(bytes.to_vec()), &Limits::default())
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let req = parse(
            b"POST /v1/experiments?format=csv&x=1 HTTP/1.1\r\n\
              Host: localhost\r\nContent-Type: application/json\r\n\
              Content-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap()
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
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!close.keep_alive);
        let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!old.keep_alive);
        let old_ka = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(old_ka.keep_alive);
    }

    #[test]
    fn keep_alive_sessions_yield_multiple_requests() {
        let bytes = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let mut cursor = Cursor::new(bytes.to_vec());
        let first = read_request(&mut cursor, &Limits::default())
            .unwrap()
            .unwrap();
        let second = read_request(&mut cursor, &Limits::default())
            .unwrap()
            .unwrap();
        assert_eq!(first.path, "/healthz");
        assert_eq!(second.path, "/metrics");
        // Clean EOF between requests is the normal session end.
        assert!(read_request(&mut cursor, &Limits::default())
            .unwrap()
            .is_none());
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
            read_request(&mut Cursor::new(long_line.into_bytes()), &limits),
            Err(HttpError::TooLarge("request line"))
        ));
        let big_body = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        assert!(matches!(
            read_request(&mut Cursor::new(big_body.to_vec()), &limits),
            Err(HttpError::TooLarge("body"))
        ));
        let many_headers = b"GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n";
        assert!(matches!(
            read_request(&mut Cursor::new(many_headers.to_vec()), &limits),
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
        // A clean EOF before any request is not an error.
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn responses_frame_with_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, Response::json(202, r#"{"id":"x"}"#), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"));
        assert!(text.contains("content-length: 10\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"id\":\"x\"}"));
        let mut closed = Vec::new();
        write_response(&mut closed, Response::text("ok\n"), false).unwrap();
        assert!(String::from_utf8(closed)
            .unwrap()
            .contains("connection: close"));
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
        let mut out = Vec::new();
        let resp = Response::stream(
            200,
            "text/csv; charset=utf-8",
            chunks(&["hello,", "world\n"]),
        );
        write_response(&mut out, resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        assert!(!text.contains("content-length"));
        assert!(text.ends_with("\r\n\r\n6\r\nhello,\r\n6\r\nworld\n\r\n0\r\n\r\n"));
    }

    #[test]
    fn materialized_streams_collapse_to_content_length() {
        let resp = Response::stream(200, "text/plain; charset=utf-8", chunks(&["a", "", "bc"]));
        let mut out = Vec::new();
        write_response(&mut out, resp.materialized(), false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("content-length: 3\r\n"));
        assert!(text.ends_with("\r\n\r\nabc"));
    }

    #[test]
    fn retry_after_header_rides_along() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            Response::json(429, "{}").with_retry_after(2),
            true,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
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
}
