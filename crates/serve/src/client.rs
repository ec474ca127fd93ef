//! A small blocking HTTP client for the experiment service — used by
//! the integration tests, the CI smoke binary, the fleet coordinator
//! and scripts that prefer Rust over `curl`.
//!
//! One [`Client`] holds one keep-alive connection and replays requests
//! over it, reconnecting transparently when the server (or an idle
//! timeout) closed it. Fresh-connection transport failures retry a
//! bounded number of times with capped exponential backoff — every
//! endpoint is idempotent (content-addressed), so a replay is always
//! safe.
//!
//! Result documents stream: [`Client::results`] hands back a
//! [`ResultBody`] that decodes the server's chunked transfer encoding
//! incrementally ([`ResultBody::read_chunk`]), so a large grid never
//! has to exist in client memory at once — or collapse it with
//! [`ResultBody::text`] when it comfortably fits.
//!
//! The client reads its status, header and chunk-size lines through the
//! server's line scanner, over its own buffer, so a response that
//! trickles in costs one pass over its bytes.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use predllc_explore::json::{self, Json};
use predllc_obs::expo::{self, ExpoValue};
use predllc_obs::metrics::series_key;

use crate::http::{self, HttpError, Lines};
use crate::Limits;

/// Any client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, write).
    Io(std::io::Error),
    /// The server answered with a non-success status.
    Status {
        /// The HTTP status code.
        status: u16,
        /// The response body (usually `{"error": "..."}`).
        body: String,
    },
    /// The server's bytes were not understandable.
    Protocol(String),
    /// The job did not finish within the wait deadline.
    Timeout {
        /// The job's last observed status.
        last_status: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport failed: {e}"),
            ClientError::Status { status, body } => {
                write!(f, "server answered {status}: {body}")
            }
            ClientError::Protocol(what) => write!(f, "protocol error: {what}"),
            ClientError::Timeout { last_status } => {
                write!(
                    f,
                    "timed out waiting for the job (last status: {last_status})"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The answer to a spec submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submitted {
    /// The experiment's content-addressed id (32 hex chars).
    pub id: String,
    /// The spec's name.
    pub name: String,
    /// Status at submission time.
    pub status: String,
    /// Whether the submission coalesced onto an existing job.
    pub cached: bool,
    /// Unique grid points the job simulates.
    pub points_total: u64,
}

/// A job-status report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Status {
    /// The experiment id.
    pub id: String,
    /// The spec's name.
    pub name: String,
    /// `queued` / `running` / `done` / `failed`.
    pub status: String,
    /// Unique grid points completed.
    pub points_done: u64,
    /// Unique grid points total.
    pub points_total: u64,
    /// The failure message, when failed.
    pub error: Option<String>,
}

/// The answer to a point request ([`Client::point`] /
/// [`Client::cached_point`]): the request's first point, plus one reply
/// per twin.
#[derive(Debug, Clone, PartialEq)]
pub struct PointReply {
    /// The point's content-addressed fingerprint (32 hex chars).
    pub fingerprint: String,
    /// Whether a point cache answered instead of simulating.
    pub cached: bool,
    /// The exact-integer measurement document
    /// (`predllc_explore::PointMeasurement` wire form).
    pub measurement: Json,
    /// The replies for the request's twins, in order
    /// (`predllc_explore::PointRequest::members` after the first), each
    /// with no twins of its own. Empty for a one-point request.
    pub twins: Vec<PointReply>,
}

/// Which result document to fetch via [`Client::results`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `GET /v1/experiments/{id}/results?format=csv`.
    Csv,
    /// `GET /v1/experiments/{id}/results?format=json`.
    Json,
    /// `GET /v1/experiments/{id}/attribution` — present only for jobs
    /// submitted with `"attribution": true`.
    Attribution,
}

impl Format {
    fn path(self, id: &str) -> String {
        match self {
            Format::Csv => format!("/v1/experiments/{id}/results?format=csv"),
            Format::Json => format!("/v1/experiments/{id}/results?format=json"),
            Format::Attribution => format!("/v1/experiments/{id}/attribution"),
        }
    }
}

/// A response body still on the wire: how it is framed, how much of it
/// is read, and whether the connection outlives it.
struct BodyState {
    /// Data bytes left in the body, or in the current chunk of a
    /// chunked body (0: a chunk-size line comes next).
    remaining: usize,
    chunked: bool,
    keep_alive: bool,
    /// Fully consumed — the connection is clean.
    done: bool,
}

/// An in-flight result body borrowed off a [`Client`].
///
/// Pull it incrementally with [`ResultBody::read_chunk`] or collapse
/// it with [`ResultBody::text`]. Dropping it unfinished abandons the
/// underlying connection (the unread bytes make it unreusable); the
/// client transparently reconnects on its next request.
pub struct ResultBody<'c> {
    client: &'c mut Client,
    state: BodyState,
}

impl ResultBody<'_> {
    /// The next slab of body bytes, or `None` once the body is fully
    /// consumed. Slabs are bounded (≤ 16 KiB), so memory stays flat no
    /// matter how large the result document is.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] / [`ClientError::Protocol`] when the
    /// transport dies or misframes mid-body; the connection is dropped
    /// and the body cannot be resumed.
    pub fn read_chunk(&mut self) -> Result<Option<Vec<u8>>, ClientError> {
        if self.state.done {
            return Ok(None);
        }
        let Some(conn) = self.client.conn.as_mut() else {
            return Err(ClientError::Protocol("connection lost mid-body".into()));
        };
        let slab = conn.slab(&mut self.state);
        if slab.is_err() || (self.state.done && !self.state.keep_alive) {
            // A half-read body leaves the stream unframed; a finished
            // one retires the connection unless the response kept it.
            self.client.conn = None;
        }
        slab
    }

    /// Reads the remaining body to completion as one UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport failure or a non-UTF-8 body.
    pub fn text(mut self) -> Result<String, ClientError> {
        let mut out = Vec::new();
        while let Some(chunk) = self.read_chunk()? {
            out.extend_from_slice(&chunk);
        }
        String::from_utf8(out).map_err(|_| ClientError::Protocol("non-utf8 body".into()))
    }
}

impl Drop for ResultBody<'_> {
    fn drop(&mut self) {
        // An unfinished body leaves unread bytes on the stream; the
        // connection cannot frame another response, so drop it.
        if !self.state.done {
            self.client.conn = None;
        }
    }
}

/// Most bytes one socket read asks for, and one body slab holds.
const SLAB: usize = 16 * 1024;

/// A keep-alive connection: the socket, and the bytes read from it that
/// no response has consumed yet.
struct Conn<S = TcpStream> {
    stream: S,
    buf: Vec<u8>,
    /// The scan of `buf`'s lines and body bytes.
    lines: Lines,
    /// Where each socket read lands before it joins `buf`.
    scratch: Box<[u8]>,
}

impl<S: Read> Conn<S> {
    fn new(stream: S) -> Conn<S> {
        Conn {
            stream,
            buf: Vec::new(),
            lines: Lines::default(),
            scratch: vec![0; SLAB].into_boxed_slice(),
        }
    }

    /// Reads more bytes after dropping the consumed ones, so the buffer
    /// holds at most the open line or slab and one read; `Ok(0)` at EOF.
    fn fill(&mut self) -> io::Result<usize> {
        self.buf.drain(..self.lines.forget_consumed());
        let n = loop {
            match self.stream.read(&mut self.scratch) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                read => break read?,
            }
        };
        self.buf.extend_from_slice(&self.scratch[..n]);
        Ok(n)
    }

    /// The next line, without its line ending. As on the server, more
    /// than `max` bytes before the LF is a protocol error: a peer that
    /// never sends a newline cannot grow the line past the bound.
    fn line(&mut self, max: usize, what: &'static str) -> Result<String, ClientError> {
        loop {
            match self.lines.next(&self.buf, max, what) {
                Ok(Some(line)) => return Ok(line.to_string()),
                Ok(None) => {}
                Err(HttpError::TooLarge(_)) => {
                    return Err(ClientError::Protocol(format!(
                        "{what} longer than {max} bytes"
                    )))
                }
                Err(HttpError::Malformed(why)) => {
                    return Err(ClientError::Protocol(format!("{why} {what}")))
                }
            }
            if self.fill()? == 0 {
                return Err(ClientError::Protocol(format!(
                    "connection closed before the {what} ended"
                )));
            }
        }
    }

    /// The next `n` bytes of a body.
    fn bytes(&mut self, n: usize) -> Result<Vec<u8>, ClientError> {
        loop {
            if let Some(bytes) = self.lines.take(&self.buf, n) {
                return Ok(bytes.to_vec());
            }
            if self.fill()? == 0 {
                return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
            }
        }
    }

    /// Reads one response head: status line plus headers, stopping at
    /// the blank line; its status and the body still on the wire. Lines
    /// and the header count are bounded by [`Limits::default`], as the
    /// server bounds a request's head.
    fn head(&mut self) -> Result<(u16, BodyState), ClientError> {
        let limits = Limits::default();
        let line = self.line(limits.max_request_line, "status line")?;
        let mut parts = line.trim_end().splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad status line {line:?}")))?;
        if !version.starts_with("HTTP/1.") {
            return Err(ClientError::Protocol(format!("bad version in {line:?}")));
        }

        let mut content_length = None;
        let mut chunked = false;
        let mut keep_alive = true;
        let mut headers = 0usize;
        loop {
            let header = self.line(limits.max_header_line, "header line")?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            headers += 1;
            if headers > limits.max_headers {
                return Err(ClientError::Protocol(format!(
                    "more than {} headers",
                    limits.max_headers
                )));
            }
            let Some((name, value)) = http::field(header) else {
                continue;
            };
            match name.as_str() {
                "content-length" => {
                    let len = http::content_length(value, content_length)
                        .map_err(|_| ClientError::Protocol("bad content-length".into()))?;
                    content_length = Some(len);
                }
                "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let body = BodyState {
            // A chunked body's own framing overrides `content-length`.
            remaining: content_length.filter(|_| !chunked).unwrap_or(0),
            chunked,
            keep_alive,
            done: false,
        };
        Ok((status, body))
    }

    /// The next slab (at most [`SLAB`] bytes) of a body that `state`
    /// frames, or `None` once the body has ended.
    fn slab(&mut self, state: &mut BodyState) -> Result<Option<Vec<u8>>, ClientError> {
        while !state.done {
            if state.remaining > 0 {
                let slab = self.bytes(state.remaining.min(SLAB))?;
                state.remaining -= slab.len();
                if state.chunked && state.remaining == 0 {
                    self.chunk_end()?;
                }
                return Ok(Some(slab));
            }
            if !state.chunked {
                break;
            }
            let line = self.line(Limits::default().max_header_line, "chunk size")?;
            state.remaining = http::number(line.trim(), 16)
                .ok_or_else(|| ClientError::Protocol(format!("bad chunk size {line:?}")))?;
            if state.remaining == 0 {
                self.chunk_end()?;
                break;
            }
        }
        state.done = true;
        Ok(None)
    }

    /// The empty line that ends a chunk's data, or the chunked body: at
    /// most a CR before its LF.
    fn chunk_end(&mut self) -> Result<(), ClientError> {
        if self.line(1, "chunk terminator")?.is_empty() {
            Ok(())
        } else {
            Err(ClientError::Protocol("missing chunk terminator".into()))
        }
    }
}

/// A blocking client for one service address.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    /// Per-request read timeout.
    timeout: Duration,
    /// Most transport retries per request on a fresh connection.
    retries: u32,
    /// First retry delay; doubles per retry up to [`Client::BACKOFF_CAP`].
    backoff: Duration,
    /// Trace id announced in the `X-Predllc-Trace` header of every
    /// request, when set.
    trace: Option<predllc_obs::TraceId>,
}

impl Client {
    /// Longest delay between transport retries.
    const BACKOFF_CAP: Duration = Duration::from_millis(80);

    /// A client for the service at `addr`.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            timeout: Duration::from_secs(120),
            retries: 4,
            backoff: Duration::from_millis(5),
            trace: None,
        }
    }

    /// Propagates `trace` in the `X-Predllc-Trace` header of every
    /// subsequent request, so server-side spans record under the
    /// caller's trace id (`None` stops announcing one).
    pub fn set_trace(&mut self, trace: Option<predllc_obs::TraceId>) {
        self.trace = trace;
    }

    /// Overrides the per-request read timeout (default 120 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// Overrides how many times a request is retried after a transport
    /// failure on a fresh connection (default 4; `0` fails fast). The
    /// single free replay after a dead keep-alive connection is not
    /// counted — that failure mode is routine, not a sick server.
    pub fn with_retries(mut self, retries: u32) -> Client {
        self.retries = retries;
        self
    }

    fn connect(&mut self) -> Result<&mut Conn, ClientError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            self.conn = Some(Conn::new(stream));
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Runs `attempt` with bounded transport retries.
    ///
    /// A failure on a reused keep-alive connection gets one free,
    /// immediate replay on a fresh connection (the connection was
    /// simply stale). Failures on fresh connections — refused connects,
    /// resets from a crashing server — retry up to `self.retries` times
    /// with exponential backoff (doubling from `self.backoff`, capped
    /// at [`Client::BACKOFF_CAP`]). Every service endpoint is
    /// idempotent, so replays are safe.
    fn retrying<T>(
        &mut self,
        mut attempt: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempts = 0u32;
        let mut delay = self.backoff;
        loop {
            let had_conn = self.conn.is_some();
            match attempt(self) {
                Ok(out) => return Ok(out),
                Err(e @ (ClientError::Io(_) | ClientError::Protocol(_))) => {
                    self.conn = None;
                    if had_conn {
                        continue; // stale keep-alive: free immediate replay
                    }
                    if attempts >= self.retries {
                        return Err(e);
                    }
                    attempts += 1;
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Client::BACKOFF_CAP);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One request/response exchange with bounded transport retries
    /// ([`Client::retrying`]): send, read the head, collect the body
    /// (either framing) as it arrives, classify by status.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ClientError> {
        self.retrying(|client| {
            let (status, state) = client.send_request(method, path, body)?.head()?;
            let text = ResultBody { client, state }.text()?;
            if (200..300).contains(&status) {
                Ok((status, text))
            } else {
                Err(ClientError::Status { status, body: text })
            }
        })
    }

    /// Writes one request (connecting lazily first), and hands back the
    /// connection to read the response from.
    fn send_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<&mut Conn, ClientError> {
        let addr = self.addr;
        let trace_header = match self.trace {
            Some(trace) => format!("{}: {}\r\n", predllc_obs::TRACE_HEADER, trace.to_hex()),
            None => String::new(),
        };
        let conn = self.connect()?;
        let payload = body.unwrap_or("");
        conn.stream.write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
                 {trace_header}content-length: {}\r\n\r\n{payload}",
                payload.len()
            )
            .as_bytes(),
        )?;
        Ok(conn)
    }

    fn request_json(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Json, ClientError> {
        let (_, text) = self.request(method, path, body)?;
        json::parse(&text).map_err(|e| ClientError::Protocol(format!("invalid json reply: {e}")))
    }

    /// `GET /healthz`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or status failure.
    pub fn healthz(&mut self) -> Result<String, ClientError> {
        Ok(self.request("GET", "/healthz", None)?.1)
    }

    /// `GET /metrics` — the raw plain-text exposition.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or status failure.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        Ok(self.request("GET", "/metrics", None)?.1)
    }

    /// One integer sample out of [`Client::metrics`], by its exact series
    /// key: the bare name, or the name with its labels as the exposition
    /// writes them (`name{label="value"}`, see
    /// [`predllc_obs::metrics::series_key`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when the exposition does not parse or
    /// holds no integer sample under that key.
    pub fn metric(&mut self, name: &str) -> Result<u64, ClientError> {
        let text = self.metrics()?;
        let exposition = expo::parse(&text)
            .map_err(|e| ClientError::Protocol(format!("invalid exposition: {e}")))?;
        let value = exposition
            .samples()
            .find(|s| series_key(&s.name, &s.labels) == name)
            .and_then(|s| match s.value {
                ExpoValue::UInt(v) => Some(v),
                ExpoValue::Float(_) => None,
            });
        value.ok_or_else(|| ClientError::Protocol(format!("no metric named {name}")))
    }

    /// `GET /v1/metrics/history` — collected time-series over the last
    /// `window` milliseconds, downsampled to one sample per `step`
    /// milliseconds (server defaults apply when `None`). Returns the
    /// parsed JSON document (`{"now_ms", .., "series": [...]}`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] carrying the server's 404 when
    /// monitoring is not enabled, or any transport failure.
    pub fn metrics_history(
        &mut self,
        window_ms: Option<u64>,
        step_ms: Option<u64>,
    ) -> Result<Json, ClientError> {
        let mut path = String::from("/v1/metrics/history");
        let mut sep = '?';
        if let Some(w) = window_ms {
            path.push_str(&format!("{sep}window={w}"));
            sep = '&';
        }
        if let Some(s) = step_ms {
            path.push_str(&format!("{sep}step={s}"));
        }
        self.request_json("GET", &path, None)
    }

    /// `GET /v1/alerts` — every SLO rule's current state, as the
    /// parsed JSON document (`{"now_ms", "firing", "alerts": [...]}`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] carrying the server's 404 when
    /// monitoring is not enabled, or any transport failure.
    pub fn alerts(&mut self) -> Result<Json, ClientError> {
        self.request_json("GET", "/v1/alerts", None)
    }

    /// `GET /dashboard` — the self-contained HTML dashboard page.
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] carrying the server's 404 when
    /// monitoring is not enabled, or any transport failure.
    pub fn dashboard(&mut self) -> Result<String, ClientError> {
        Ok(self.request("GET", "/dashboard", None)?.1)
    }

    /// `GET /v1/jobs/{id}/trace` — the job's trace events as JSON
    /// Lines (one event object per line).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or status failure (404 for an
    /// unknown id).
    pub fn job_trace(&mut self, id: &str) -> Result<String, ClientError> {
        Ok(self
            .request("GET", &format!("/v1/jobs/{id}/trace"), None)?
            .1)
    }

    /// `POST /v1/experiments` — submit a spec document.
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] carrying the server's 400 for invalid
    /// specs, or any transport failure.
    pub fn submit(&mut self, spec: &str) -> Result<Submitted, ClientError> {
        let doc = self.request_json("POST", "/v1/experiments", Some(spec))?;
        Ok(Submitted {
            id: str_field(&doc, "id")?,
            name: str_field(&doc, "name")?,
            status: str_field(&doc, "status")?,
            cached: doc
                .get("cached")
                .and_then(Json::as_bool)
                .ok_or_else(|| ClientError::Protocol("missing 'cached'".into()))?,
            points_total: u64_field(&doc, "points_total")?,
        })
    }

    /// `GET /v1/experiments/{id}` — status and progress.
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] carrying the server's 404 for unknown
    /// ids, or any transport failure.
    pub fn status(&mut self, id: &str) -> Result<Status, ClientError> {
        self.status_at(&format!("/v1/experiments/{id}"))
    }

    /// One status request to `path` (plain or held), parsed.
    fn status_at(&mut self, path: &str) -> Result<Status, ClientError> {
        let doc = self.request_json("GET", path, None)?;
        Ok(Status {
            id: str_field(&doc, "id")?,
            name: str_field(&doc, "name")?,
            status: str_field(&doc, "status")?,
            points_done: u64_field(&doc, "points_done")?,
            points_total: u64_field(&doc, "points_total")?,
            error: doc.get("error").and_then(Json::as_str).map(str::to_string),
        })
    }

    /// Waits until the job is `done`, failing on `failed` or when
    /// `timeout` elapses.
    ///
    /// The server does the waiting: each round is one
    /// `GET /v1/experiments/{id}?wait_ms=N` that it holds until the job
    /// settles (or `N` ms pass), so the answer arrives as soon as the
    /// job finishes, with no polling in between. `N` is the time left,
    /// capped at the server's 30 s hold limit and at half this client's
    /// read timeout, so a held answer always beats the socket timeout.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when the deadline passes first, or
    /// [`ClientError::Status`] when the job failed server-side.
    pub fn wait_done(&mut self, id: &str, timeout: Duration) -> Result<Status, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let hold = left
                .min(Duration::from_millis(crate::server::MAX_WAIT_MS))
                .min(self.timeout / 2);
            let wait_ms = u64::try_from(hold.as_millis()).unwrap_or(u64::MAX).max(1);
            let status = self.status_at(&format!("/v1/experiments/{id}?wait_ms={wait_ms}"))?;
            match status.status.as_str() {
                "done" => return Ok(status),
                "failed" => {
                    return Err(ClientError::Status {
                        status: 500,
                        body: status.error.unwrap_or_else(|| "job failed".into()),
                    })
                }
                _ if Instant::now() >= deadline => {
                    return Err(ClientError::Timeout {
                        last_status: status.status,
                    })
                }
                _ => {}
            }
        }
    }

    /// Opens a finished job's result document as a streamed body.
    ///
    /// The server chunk-encodes result documents, rendering them row
    /// by row; the returned [`ResultBody`] decodes that stream
    /// incrementally, so neither side materializes the whole grid.
    /// Transport retries apply to opening the stream (same policy as
    /// every other request); once bytes flow, a failure surfaces as an
    /// error from [`ResultBody::read_chunk`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] for 404 (unknown id, or
    /// [`Format::Attribution`] on a job run without
    /// `"attribution": true`), 409 while not yet done, 500 for a
    /// failed job — the error body is fully drained first, keeping the
    /// connection reusable. Any transport failure.
    pub fn results(&mut self, id: &str, format: Format) -> Result<ResultBody<'_>, ClientError> {
        let path = format.path(id);
        let (status, state) =
            self.retrying(|client| client.send_request("GET", &path, None)?.head())?;
        let body = ResultBody {
            client: self,
            state,
        };
        if !(200..300).contains(&status) {
            let body = body.text()?;
            return Err(ClientError::Status { status, body });
        }
        Ok(body)
    }

    /// `POST /v1/points` — have the server measure (or answer from its
    /// point cache) one run group's grid points: the request's first
    /// point and its twins.
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] carrying the server's 400 for malformed
    /// requests (a twin outside the first point's run group included)
    /// or 422 for points that fail to build/simulate, or any transport
    /// failure.
    pub fn point(&mut self, request: &str) -> Result<PointReply, ClientError> {
        let doc = self.request_json("POST", "/v1/points", Some(request))?;
        point_reply(&doc)
    }

    /// `GET /v1/points/{fingerprint}` — a measurement the server already
    /// has cached.
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] carrying 404 when the point is not
    /// cached, or any transport failure.
    pub fn cached_point(&mut self, fingerprint: &str) -> Result<PointReply, ClientError> {
        let doc = self.request_json("GET", &format!("/v1/points/{fingerprint}"), None)?;
        point_reply(&doc)
    }
}

fn point_reply(doc: &Json) -> Result<PointReply, ClientError> {
    let twins = match doc.get("twins") {
        None => Vec::new(),
        Some(twins) => twins
            .as_array()
            .ok_or_else(|| ClientError::Protocol("'twins' is not an array".into()))?
            .iter()
            .map(|twin| match twin.get("twins") {
                None => point_reply(twin),
                Some(_) => Err(ClientError::Protocol("a twin has twins".into())),
            })
            .collect::<Result<_, _>>()?,
    };
    Ok(PointReply {
        fingerprint: str_field(doc, "fingerprint")?,
        cached: doc
            .get("cached")
            .and_then(Json::as_bool)
            .ok_or_else(|| ClientError::Protocol("missing 'cached'".into()))?,
        measurement: doc
            .get("measurement")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("missing 'measurement'".into()))?,
        twins,
    })
}

fn str_field(doc: &Json, key: &str) -> Result<String, ClientError> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ClientError::Protocol(format!("missing '{key}'")))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, ClientError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ClientError::Protocol(format!("missing '{key}'")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// An address that refuses connections: bind an ephemeral port,
    /// read it back, drop the listener.
    fn dead_addr() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    }

    #[test]
    fn refused_connections_exhaust_bounded_retries() {
        let addr = dead_addr();
        let started = Instant::now();
        let mut client = Client::new(addr).with_retries(3);
        let err = client.healthz().unwrap_err();
        assert!(matches!(err, ClientError::Io(_)), "got {err}");
        // Three backoff sleeps happened: 5 + 10 + 20 ms.
        assert!(
            started.elapsed() >= Duration::from_millis(35),
            "retries returned too fast to have backed off: {:?}",
            started.elapsed()
        );
        // Zero retries fails fast with the same error class.
        let mut eager = Client::new(addr).with_retries(0);
        assert!(matches!(eager.healthz().unwrap_err(), ClientError::Io(_)));
    }

    #[test]
    fn retries_ride_out_dropped_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Accept and immediately drop two connections (resets seen
            // client-side), then serve one canned response.
            for _ in 0..2 {
                drop(listener.accept().unwrap());
            }
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 512];
            let _ = stream.read(&mut buf);
            stream
                .write_all(
                    b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\n\
                      content-length: 3\r\nconnection: close\r\n\r\nok\n",
                )
                .unwrap();
        });
        let mut client = Client::new(addr).with_retries(4);
        assert_eq!(client.healthz().unwrap(), "ok\n");
        server.join().unwrap();
    }

    #[test]
    fn chunked_bodies_decode_chunk_by_chunk() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 512];
            let _ = stream.read(&mut buf);
            stream
                .write_all(
                    b"HTTP/1.1 200 OK\r\ncontent-type: text/csv\r\n\
                      transfer-encoding: chunked\r\nconnection: close\r\n\r\n\
                      6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n",
                )
                .unwrap();
        });
        let mut client = Client::new(addr).with_retries(2);
        let mut body = client.results("x", Format::Csv).unwrap();
        assert_eq!(body.read_chunk().unwrap().unwrap(), b"hello ");
        assert_eq!(body.read_chunk().unwrap().unwrap(), b"world");
        assert!(body.read_chunk().unwrap().is_none());
        assert!(body.read_chunk().unwrap().is_none(), "Done state is sticky");
        server.join().unwrap();
    }

    #[test]
    fn endless_response_lines_are_protocol_errors_not_timeouts() {
        let endless = "x".repeat(64 << 10);
        for reply in [
            format!("HTTP/1.1 200 OK\r\nx-pad: {endless}"),
            format!("HTTP/1.1 200 {endless}"),
            format!("HTTP/1.1 200 OK\r\n{}", "h: v\r\n".repeat(65)),
            format!("HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n{endless}"),
        ] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let peer = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = [0u8; 512];
                let _ = stream.read(&mut buf);
                stream.write_all(reply.as_bytes()).unwrap();
                // Hold the socket open until the client hangs up.
                let _ = stream.read(&mut buf);
            });
            let mut client = Client::new(addr)
                .with_retries(0)
                .with_timeout(Duration::from_secs(5));
            let err = client.healthz().unwrap_err();
            assert!(matches!(err, ClientError::Protocol(_)), "got {err}");
            drop(client);
            peer.join().unwrap();
        }
    }

    #[test]
    fn abandoned_stream_poisons_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 512];
            let _ = stream.read(&mut buf);
            stream
                .write_all(
                    b"HTTP/1.1 200 OK\r\ncontent-type: text/csv\r\n\
                      transfer-encoding: chunked\r\n\r\n\
                      6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n",
                )
                .unwrap();
        });
        let mut client = Client::new(addr).with_retries(2);
        let mut body = client.results("x", Format::Csv).unwrap();
        // Read one chunk, then abandon mid-body.
        assert_eq!(body.read_chunk().unwrap().unwrap(), b"hello ");
        drop(body);
        assert!(
            client.conn.is_none(),
            "an unfinished body must not leave a mis-framed connection behind"
        );
        server.join().unwrap();
    }

    /// A peer that answers one request with `reply`, one byte per write
    /// when `trickle`, then holds the socket until the client hangs up.
    fn peer(reply: String, trickle: bool) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut buf = [0u8; 512];
            let _ = stream.read(&mut buf);
            if trickle {
                for byte in reply.as_bytes() {
                    stream.write_all(std::slice::from_ref(byte)).unwrap();
                }
            } else {
                stream.write_all(reply.as_bytes()).unwrap();
            }
            let _ = stream.read(&mut buf);
        });
        (addr, peer)
    }

    #[test]
    fn misframed_bodies_are_protocol_errors() {
        for body in [
            // Chunk sizes and lengths are digits only, and lengths agree.
            "transfer-encoding: chunked\r\n\r\n+a\r\n0123456789\r\n0\r\n\r\n",
            "content-length: +3\r\n\r\nabc",
            "content-length: 3\r\ncontent-length: 2\r\n\r\nabc",
            // A chunk's data ends in an empty line.
            "transfer-encoding: chunked\r\n\r\n5\r\nhelloXX\r\n0\r\n\r\n",
            "transfer-encoding: chunked\r\n\r\n5\r\nhelloX\n0\r\n\r\n",
        ] {
            let (addr, peer) = peer(format!("HTTP/1.1 200 OK\r\n{body}"), false);
            let mut client = Client::new(addr).with_retries(0);
            let err = client.healthz().unwrap_err();
            assert!(matches!(err, ClientError::Protocol(_)), "{body:?}: {err}");
            drop(client);
            peer.join().unwrap();
        }
    }

    #[test]
    fn a_response_written_one_byte_per_write_reads_whole() {
        let mut reply = String::from("HTTP/1.1 200 OK\r\n");
        for i in 0..63 {
            reply.push_str(&format!("x-h{i}: v{i}\r\n"));
        }
        reply.push_str("transfer-encoding: chunked\r\n\r\n");
        let body = "config,workload,wcl\nss,uniform,120\nnss,stride,96\n";
        for piece in body.as_bytes().chunks(7) {
            let piece = std::str::from_utf8(piece).unwrap();
            reply.push_str(&format!("{:x}\r\n{piece}\r\n", piece.len()));
        }
        reply.push_str("0\r\n\r\n");
        let (addr, peer) = peer(reply, true);
        let mut client = Client::new(addr).with_retries(0);
        let text = client.results("x", Format::Csv).unwrap().text().unwrap();
        assert_eq!(text, body);
        drop(client);
        peer.join().unwrap();
    }

    /// A stream that hands over `step` bytes per read, failing the test
    /// as soon as `budget` is spent.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        step: usize,
        started: Instant,
        budget: Duration,
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let spent = self.started.elapsed();
            assert!(
                spent < self.budget,
                "{spent:?} spent by byte {} of {}",
                self.at,
                self.bytes.len()
            );
            let n = out.len().min(self.step).min(self.bytes.len() - self.at);
            out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    fn trickle(bytes: Vec<u8>, step: usize, budget: Duration) -> Conn<Trickle> {
        Conn::new(Trickle {
            bytes,
            at: 0,
            step,
            started: Instant::now(),
            budget,
        })
    }

    /// A `200` head of 64 header lines of 2 KiB each, the last announcing
    /// a chunked body when `chunked`.
    fn big_head(chunked: bool) -> String {
        let mut text = String::from("HTTP/1.1 200 OK\r\n");
        for i in 0..64 - usize::from(chunked) {
            let line = format!("x-pad-{i:02}: ");
            text.push_str(&line);
            text.push_str(&"p".repeat(2048 - line.len() - 2));
            text.push_str("\r\n");
        }
        if chunked {
            text.push_str("transfer-encoding: chunked\r\n");
        }
        text + "\r\n"
    }

    // The same shapes and budgets as the server's bounded-work tests in
    // `http`: the client reads its lines with the same scanner.

    #[test]
    fn a_128_kib_response_head_read_one_byte_per_read_costs_linear_work() {
        let head = big_head(false);
        assert_eq!(head.len() >> 10, 128);
        let mut conn = trickle(head.into_bytes(), 1, Duration::from_millis(250));
        assert_eq!(conn.head().unwrap().0, 200);
    }

    #[test]
    fn a_chunked_body_read_1_kib_per_read_costs_linear_work() {
        let head = big_head(true);
        assert_eq!(head.len() >> 10, 126);
        let mut bytes = head.into_bytes();
        for _ in 0..256 {
            bytes.extend_from_slice(b"1000\r\n");
            bytes.resize(bytes.len() + 4096, b'b');
            bytes.extend_from_slice(b"\r\n");
        }
        bytes.extend_from_slice(b"0\r\n\r\n");
        let mut conn = trickle(bytes, 1024, Duration::from_millis(50));
        let (_, mut state) = conn.head().unwrap();
        let mut body = 0;
        while let Some(slab) = conn.slab(&mut state).unwrap() {
            body += slab.len();
        }
        assert_eq!(body, 1 << 20);
    }
}
