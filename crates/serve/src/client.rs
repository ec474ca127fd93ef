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

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use predllc_explore::json::{self, Json};

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
/// [`Client::cached_point`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PointReply {
    /// The point's content-addressed fingerprint (32 hex chars).
    pub fingerprint: String,
    /// Whether a point cache answered instead of simulating.
    pub cached: bool,
    /// The exact-integer measurement document
    /// (`predllc_explore::PointMeasurement` wire form).
    pub measurement: Json,
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

/// How a response body is framed on the wire.
enum Transfer {
    /// `content-length: n` — exactly `n` bytes follow the head.
    Length(usize),
    /// `transfer-encoding: chunked` — hex-sized chunks until a zero
    /// chunk.
    Chunked,
}

/// One parsed response head; the body is still on the wire.
struct Head {
    status: u16,
    keep_alive: bool,
    transfer: Transfer,
}

/// Progress through a streamed response body.
enum BodyState {
    /// `remaining` bytes of a content-length body left to read.
    Length { remaining: usize },
    /// Inside a chunked body, `remaining` data bytes left in the
    /// current chunk (0 = next read starts at a chunk header).
    Chunk { remaining: usize },
    /// Fully consumed — the connection is clean.
    Done,
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
    keep_alive: bool,
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
        const SLAB: usize = 16 * 1024;
        loop {
            match self.state {
                BodyState::Done => return Ok(None),
                BodyState::Length { remaining } => {
                    if remaining == 0 {
                        self.finish();
                        return Ok(None);
                    }
                    let take = remaining.min(SLAB);
                    let mut buf = vec![0u8; take];
                    self.client.read_body_exact(&mut buf)?;
                    self.state = BodyState::Length {
                        remaining: remaining - take,
                    };
                    return Ok(Some(buf));
                }
                BodyState::Chunk { remaining } => {
                    if remaining == 0 {
                        let size = self.client.read_chunk_size()?;
                        if size == 0 {
                            self.client.consume_crlf()?;
                            self.finish();
                            return Ok(None);
                        }
                        self.state = BodyState::Chunk { remaining: size };
                        continue;
                    }
                    let take = remaining.min(SLAB);
                    let mut buf = vec![0u8; take];
                    self.client.read_body_exact(&mut buf)?;
                    let left = remaining - take;
                    if left == 0 {
                        self.client.consume_crlf()?;
                    }
                    self.state = BodyState::Chunk { remaining: left };
                    return Ok(Some(buf));
                }
            }
        }
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

    /// Marks the body consumed and releases (or retires) the
    /// connection per the response's keep-alive answer.
    fn finish(&mut self) {
        self.state = BodyState::Done;
        if !self.keep_alive {
            self.client.conn = None;
        }
    }
}

impl Drop for ResultBody<'_> {
    fn drop(&mut self) {
        // An unfinished body leaves unread bytes on the stream; the
        // connection cannot frame another response, so drop it.
        if !matches!(self.state, BodyState::Done) {
            self.client.conn = None;
        }
    }
}

/// A blocking client for one service address.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
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

    fn connect(&mut self) -> Result<&mut BufReader<TcpStream>, ClientError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// One request/response exchange with bounded transport retries.
    ///
    /// A failure on a reused keep-alive connection gets one free,
    /// immediate replay on a fresh connection (the connection was
    /// simply stale). Failures on fresh connections — refused connects,
    /// resets from a crashing server — retry up to `self.retries` times
    /// with exponential backoff (doubling from `self.backoff`, capped
    /// at [`Client::BACKOFF_CAP`]). Every service endpoint is
    /// idempotent, so replays are safe.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ClientError> {
        let mut attempts = 0u32;
        let mut delay = self.backoff;
        loop {
            let had_conn = self.conn.is_some();
            match self.exchange(method, path, body) {
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

    /// One full buffered exchange: send, read the head, collapse the
    /// body (either framing), classify by status.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ClientError> {
        self.send_request(method, path, body)?;
        let head = self.read_head()?;
        let body = self.read_full_body(&head)?;
        if (200..300).contains(&head.status) {
            Ok((head.status, body))
        } else {
            Err(ClientError::Status {
                status: head.status,
                body,
            })
        }
    }

    /// Writes one request (connecting lazily first).
    fn send_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(), ClientError> {
        let addr = self.addr;
        let trace_header = match self.trace {
            Some(trace) => format!("{}: {}\r\n", predllc_obs::TRACE_HEADER, trace.to_hex()),
            None => String::new(),
        };
        let conn = self.connect()?;
        let payload = body.unwrap_or("");
        conn.get_mut().write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
                 {trace_header}content-length: {}\r\n\r\n{payload}",
                payload.len()
            )
            .as_bytes(),
        )?;
        conn.get_mut().flush()?;
        Ok(())
    }

    /// Reads one response head: status line plus headers, stopping at
    /// the blank line. The body (if any) is still on the wire, framed
    /// per [`Head::transfer`].
    fn read_head(&mut self) -> Result<Head, ClientError> {
        let conn = match self.conn.as_mut() {
            Some(conn) => conn,
            None => return Err(ClientError::Protocol("no connection to read from".into())),
        };

        // Status line.
        let mut line = String::new();
        if conn.read_line(&mut line)? == 0 {
            self.conn = None;
            return Err(ClientError::Protocol("connection closed".into()));
        }
        let mut parts = line.trim_end().splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad status line {line:?}")))?;
        if !version.starts_with("HTTP/1.") {
            return Err(ClientError::Protocol(format!("bad version in {line:?}")));
        }

        // Headers.
        let mut content_length = 0usize;
        let mut chunked = false;
        let mut keep_alive = true;
        loop {
            let mut header = String::new();
            if conn.read_line(&mut header)? == 0 {
                return Err(ClientError::Protocol("truncated headers".into()));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => {
                        content_length = value
                            .trim()
                            .parse()
                            .map_err(|_| ClientError::Protocol("bad content-length".into()))?;
                    }
                    "transfer-encoding" => {
                        chunked = value.trim().eq_ignore_ascii_case("chunked");
                    }
                    "connection" => {
                        keep_alive = !value.trim().eq_ignore_ascii_case("close");
                    }
                    _ => {}
                }
            }
        }
        let transfer = if chunked {
            Transfer::Chunked
        } else {
            Transfer::Length(content_length)
        };
        Ok(Head {
            status,
            keep_alive,
            transfer,
        })
    }

    /// Collapses a whole response body into one string, decoding the
    /// chunked transfer encoding when the server streamed it.
    fn read_full_body(&mut self, head: &Head) -> Result<String, ClientError> {
        let mut out;
        match head.transfer {
            Transfer::Length(n) => {
                out = vec![0u8; n];
                self.read_body_exact(&mut out)?;
            }
            Transfer::Chunked => {
                out = Vec::new();
                loop {
                    let size = self.read_chunk_size()?;
                    if size == 0 {
                        self.consume_crlf()?;
                        break;
                    }
                    let start = out.len();
                    out.resize(start + size, 0);
                    self.read_body_exact(&mut out[start..])?;
                    self.consume_crlf()?;
                }
            }
        }
        if !head.keep_alive {
            self.conn = None;
        }
        String::from_utf8(out).map_err(|_| ClientError::Protocol("non-utf8 body".into()))
    }

    /// `read_exact` over the live connection, dropping it on failure —
    /// a half-read body leaves the stream unframed, so it must not be
    /// reused.
    fn read_body_exact(&mut self, buf: &mut [u8]) -> Result<(), ClientError> {
        let result = match self.conn.as_mut() {
            Some(conn) => conn.read_exact(buf).map_err(ClientError::from),
            None => Err(ClientError::Protocol("connection lost mid-body".into())),
        };
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// Reads one `<hex-size>\r\n` chunk header, dropping the connection
    /// on failure.
    fn read_chunk_size(&mut self) -> Result<usize, ClientError> {
        let result = match self.conn.as_mut() {
            Some(conn) => {
                let mut line = String::new();
                match conn.read_line(&mut line) {
                    Err(e) => Err(ClientError::Io(e)),
                    Ok(0) => Err(ClientError::Protocol("truncated chunked body".into())),
                    Ok(_) => usize::from_str_radix(line.trim(), 16)
                        .map_err(|_| ClientError::Protocol(format!("bad chunk size {line:?}"))),
                }
            }
            None => Err(ClientError::Protocol("connection lost mid-body".into())),
        };
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// Consumes the `\r\n` that terminates a chunk (or the final
    /// zero-chunk), dropping the connection on failure.
    fn consume_crlf(&mut self) -> Result<(), ClientError> {
        let mut crlf = [0u8; 2];
        self.read_body_exact(&mut crlf)?;
        if crlf != *b"\r\n" {
            self.conn = None;
            return Err(ClientError::Protocol("missing chunk terminator".into()));
        }
        Ok(())
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

    /// One counter out of [`Client::metrics`], by exact name.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when the counter is missing.
    pub fn metric(&mut self, name: &str) -> Result<u64, ClientError> {
        let text = self.metrics()?;
        text.lines()
            .find_map(|l| {
                let (n, v) = l.split_once(' ')?;
                (n == name).then(|| v.parse().ok())?
            })
            .ok_or_else(|| ClientError::Protocol(format!("no metric named {name}")))
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
        let doc = self.request_json("GET", &format!("/v1/experiments/{id}"), None)?;
        Ok(Status {
            id: str_field(&doc, "id")?,
            name: str_field(&doc, "name")?,
            status: str_field(&doc, "status")?,
            points_done: u64_field(&doc, "points_done")?,
            points_total: u64_field(&doc, "points_total")?,
            error: doc.get("error").and_then(Json::as_str).map(str::to_string),
        })
    }

    /// Polls [`Client::status`] until the job is `done`, failing on
    /// `failed` or when `timeout` elapses.
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when the deadline passes first, or
    /// [`ClientError::Status`] when the job failed server-side.
    pub fn wait_done(&mut self, id: &str, timeout: Duration) -> Result<Status, ClientError> {
        let deadline = Instant::now() + timeout;
        let mut delay = Duration::from_millis(2);
        loop {
            let status = self.status(id)?;
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
                _ => {
                    std::thread::sleep(delay);
                    // Back off to spare tiny jobs the polling overhead
                    // without making big ones laggy to observe.
                    delay = (delay * 2).min(Duration::from_millis(200));
                }
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
        let mut attempts = 0u32;
        let mut delay = self.backoff;
        let head = loop {
            let had_conn = self.conn.is_some();
            let sent = self
                .send_request("GET", &path, None)
                .and_then(|()| self.read_head());
            match sent {
                Ok(head) => break head,
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
        };
        if !(200..300).contains(&head.status) {
            let body = self.read_full_body(&head)?;
            return Err(ClientError::Status {
                status: head.status,
                body,
            });
        }
        let state = match head.transfer {
            Transfer::Length(n) => BodyState::Length { remaining: n },
            Transfer::Chunked => BodyState::Chunk { remaining: 0 },
        };
        Ok(ResultBody {
            keep_alive: head.keep_alive,
            state,
            client: self,
        })
    }

    /// `POST /v1/points` — have the server simulate (or answer from its
    /// point cache) one grid point.
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] carrying the server's 400 for malformed
    /// requests or 422 for points that fail to build/simulate, or any
    /// transport failure.
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
}
