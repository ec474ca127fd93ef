//! The event-driven serve mode: a few reactor threads multiplex
//! thousands of nonblocking connections over `epoll`.
//!
//! Topology (see [`serve`]):
//!
//! * the **acceptor** (the caller's thread) accepts connections,
//!   takes a [`ConnTicket`] for each, and round-robins them to the
//!   reactors through per-reactor inboxes;
//! * each **reactor** owns an [`Epoll`] instance and a slab of
//!   connection state machines (read → parse → dispatch → write).
//!   Light endpoints run inline; heavy ones are queued to the
//!   [`DispatchPool`], and their connections park in `Dispatching`
//!   until the worker injects the outcome back;
//! * the **dispatch pool** is a bounded queue + worker threads. A full
//!   queue is the backpressure signal: the reactor answers `429` +
//!   `Retry-After` immediately instead of queueing (shedding by queue
//!   depth, not connection count).
//!
//! Held requests (`GET /v1/experiments/{id}?wait_ms=N`, see
//! [`Dispatch::Hold`]) park in `Held` on their reactor, not on a
//! dispatch thread: the job's [`registry::Job::watch`] waker injects
//! [`Injection::Settled`] when it settles, and a per-reactor deadline
//! heap answers the ones whose time runs out. Any number of holders
//! therefore costs no dispatch capacity. A holder whose peer hangs up
//! is closed at once, which also unregisters its waker.
//!
//! Timeout discipline: a connection's idle clock anchors at its last
//! *completed* activity (accept, response flushed, write progress) —
//! reading bytes does **not** reset it, so a slow-loris trickle cannot
//! hold a connection past `idle_timeout`. Connections parked in
//! `Dispatching` or `Held` are never reaped (server-side slowness is
//! not client misbehavior; a hold ends by its own deadline, and
//! shutdown answers it at once). A stalled reader of a streamed
//! response is bounded to ~[`LOW_WATER`] buffered bytes and reaped once
//! writes make no progress for `idle_timeout`.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::api;
use crate::handler::{Dispatch, Router};
use crate::http::{encode_chunk, encode_last_chunk, frame, try_parse, BodyStream, Parse, Request};
use crate::registry;
use crate::server::{register_waker, ConnTicket, ReactorOptions, Shared};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Refill threshold for streamed bodies: the writer pulls more chunks
/// only while fewer than this many bytes sit unflushed, so a stalled
/// reader bounds buffered memory instead of draining the whole body.
const LOW_WATER: usize = 64 * 1024;
/// Consumed-prefix size past which the output buffer is compacted.
const COMPACT: usize = 256 * 1024;
/// The epoll token of a reactor's wake eventfd (connections start at 1).
const WAKE: u64 = 0;

/// Work injected into a reactor from another thread (the acceptor or a
/// dispatch worker); the reactor drains its inbox on every wake.
enum Injection {
    /// A freshly accepted connection (already nonblocking + nodelay)
    /// and its live claim against the connection cap.
    NewConn(TcpStream, ConnTicket),
    /// A heavy request's outcome, coming back from the dispatch pool.
    /// `seq` guards against slot reuse: a stale outcome for a closed
    /// connection is dropped.
    Done {
        token: u64,
        seq: u64,
        outcome: Dispatch,
    },
    /// The job a held request waits on settled; same `seq` guard.
    Settled { token: u64, seq: u64 },
}

/// A reactor's cross-thread mailbox: push an [`Injection`], signal the
/// eventfd, and the parked `epoll_wait` returns.
struct ReactorShared {
    inbox: Mutex<Vec<Injection>>,
    wake: EventFd,
}

impl ReactorShared {
    fn inject(&self, injection: Injection) {
        self.inbox.lock().unwrap().push(injection);
        self.wake.signal();
    }
}

/// One heavy request in flight on the dispatch pool.
struct Job {
    req: Box<Request>,
    token: u64,
    seq: u64,
    reactor: Arc<ReactorShared>,
}

struct PoolState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded dispatch executor's queue. Depth is the backpressure
/// signal: [`DispatchPool::try_submit`] refuses once `max` jobs wait,
/// and the reactor sheds that request with `429`.
struct DispatchPool {
    state: Mutex<PoolState>,
    cond: Condvar,
    max: usize,
}

impl DispatchPool {
    fn new(max: usize) -> DispatchPool {
        DispatchPool {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            max,
        }
    }

    /// Queues a job unless the queue is full (or closed); the rejected
    /// job comes back so the caller can answer `429` on its connection.
    fn try_submit(&self, job: Job) -> Result<(), Job> {
        let mut state = self.state.lock().unwrap();
        if state.closed || state.jobs.len() >= self.max {
            return Err(job);
        }
        state.jobs.push_back(job);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once closed and drained.
    fn take(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.cond.wait(state).unwrap();
        }
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cond.notify_all();
    }
}

/// Where a connection's state machine stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Accumulating request bytes until one parses complete.
    Reading,
    /// A heavy request is on the dispatch pool; waiting for its
    /// [`Injection::Done`].
    Dispatching,
    /// A held status request waits for its job to settle
    /// ([`Injection::Settled`]) or its deadline to pass.
    Held,
    /// Flushing a response (head + body, possibly a pulled stream).
    Writing,
}

/// One connection's state, slotted in the reactor's slab.
struct Conn {
    stream: TcpStream,
    token: u64,
    /// Holds the connection's claim against `max_connections`; dropping
    /// the `Conn` releases it however the connection ends.
    _ticket: ConnTicket,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// Rendered-but-unflushed response bytes (`out_pos` consumed).
    out: Vec<u8>,
    out_pos: usize,
    /// The streamed body still being pulled, when the response is
    /// chunked.
    stream_body: Option<Box<dyn BodyStream>>,
    state: State,
    /// The dispatch sequence number guarding [`Injection::Done`] and
    /// [`Injection::Settled`] delivery against slot reuse.
    seq: u64,
    /// The job registration of a `Held` request.
    hold: Option<Watch>,
    http11: bool,
    pending_keep_alive: bool,
    /// The peer shut down its writing half: deliver the pending
    /// response, accept no further requests.
    half_closed: bool,
    /// Last completed activity (accept / response flushed / write
    /// progress). Read bytes do not touch it — see the module doc.
    anchor: Instant,
    /// Currently registered epoll interest mask.
    interest: u32,
}

/// A held request's waker registration on its job; dropping it (the
/// request was answered, or its connection closed) unregisters the
/// waker, so a departed holder leaves nothing behind on the job.
struct Watch {
    job: Arc<registry::Job>,
    /// `None` when the waker already ran at registration.
    key: Option<u64>,
}

impl Drop for Watch {
    fn drop(&mut self) {
        if let Some(key) = self.key {
            self.job.unwatch(key);
        }
    }
}

/// A reactor's held-request deadlines, earliest first: `(until, token,
/// seq)`. Entries of requests answered early go stale and are skipped
/// when they come due.
type Holds = RefCell<BinaryHeap<Reverse<(Instant, u64, u64)>>>;

/// Everything an event handler needs besides the connection itself.
struct Ctx<'a> {
    epoll: &'a Epoll,
    shared: &'a Arc<Shared>,
    router: &'a Arc<Router>,
    pool: &'a Arc<DispatchPool>,
    rshared: &'a Arc<ReactorShared>,
    holds: &'a Holds,
}

fn set_interest(epoll: &Epoll, conn: &mut Conn, mask: u32) {
    if conn.interest != mask {
        let _ = epoll.modify(&conn.stream, mask, conn.token);
        conn.interest = mask;
    }
}

enum Fill {
    /// More bytes may come later.
    Open,
    /// Orderly end of the peer's request stream.
    Eof,
    /// Transport error; nothing can be delivered.
    Dead,
}

/// Drains readable bytes into `conn.buf`.
fn fill_read(conn: &mut Conn) -> Fill {
    let mut tmp = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut tmp) {
            Ok(0) => return Fill::Eof,
            Ok(n) => conn.buf.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Fill::Open,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Fill::Dead,
        }
    }
}

enum Pump {
    /// Everything (including any streamed body) is on the wire.
    Flushed,
    /// The socket would block; wait for writability.
    Parked,
    /// Transport error.
    Dead,
}

/// Writes as much pending output as the socket accepts, pulling more
/// chunks from a streamed body only while the unflushed backlog is
/// under [`LOW_WATER`].
fn pump_write(
    stream: &mut TcpStream,
    out: &mut Vec<u8>,
    out_pos: &mut usize,
    body: &mut Option<Box<dyn BodyStream>>,
) -> Pump {
    loop {
        while let Some(stream_body) = body.as_mut() {
            if out.len() - *out_pos >= LOW_WATER {
                break;
            }
            match stream_body.next_chunk() {
                Some(chunk) => encode_chunk(out, &chunk),
                None => {
                    encode_last_chunk(out);
                    *body = None;
                }
            }
        }
        if *out_pos >= out.len() && body.is_none() {
            out.clear();
            *out_pos = 0;
            return Pump::Flushed;
        }
        match stream.write(&out[*out_pos..]) {
            Ok(0) => return Pump::Dead,
            Ok(n) => {
                *out_pos += n;
                if *out_pos >= COMPACT {
                    out.drain(..*out_pos);
                    *out_pos = 0;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Pump::Parked,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Pump::Dead,
        }
    }
}

enum WriteEnd {
    /// Response fully flushed, keep-alive: back to `Reading`.
    BackToReading,
    /// Parked on writability (or, for a held request, on its job); the
    /// state machine stays where it is.
    Pending,
    /// Close the connection (hang-up, error, or keep-alive over).
    Close,
}

/// Begins writing a dispatch outcome: renders the head, stages the
/// body (inline bytes or a pulled stream), and pumps what the socket
/// will take now.
fn start_write(ctx: &Ctx<'_>, conn: &mut Conn, outcome: Dispatch) -> WriteEnd {
    let resp = match outcome {
        Dispatch::Hangup => return WriteEnd::Close,
        Dispatch::Hold { job, until } => return park(ctx, conn, job, until),
        Dispatch::Reply(resp) => resp,
    };
    let keep = conn.pending_keep_alive && !ctx.shared.shutdown.load(Ordering::SeqCst);
    conn.pending_keep_alive = keep;
    // HTTP/1.0 peers don't speak chunked framing.
    let resp = if conn.http11 {
        resp
    } else {
        resp.materialized()
    };
    (conn.out, conn.stream_body) = frame(resp, keep);
    conn.out_pos = 0;
    conn.state = State::Writing;
    conn.anchor = Instant::now();
    drive_write(ctx, conn)
}

/// Parks a held status request on its job: the connection waits in
/// `Held`, watching only for hang-up, until the job's waker injects
/// [`Injection::Settled`] or `until` comes due. A server shutting down,
/// or a peer that already half-closed (its departure could not be seen
/// while held), gets the current status at once.
fn park(ctx: &Ctx<'_>, conn: &mut Conn, job: Arc<registry::Job>, until: Instant) -> WriteEnd {
    if conn.half_closed || ctx.shared.shutdown.load(Ordering::SeqCst) {
        return start_write(ctx, conn, Dispatch::Reply(api::status_response(&job)));
    }
    conn.state = State::Held;
    set_interest(ctx.epoll, conn, EPOLLRDHUP);
    let (token, seq) = (conn.token, conn.seq);
    let rshared = Arc::clone(ctx.rshared);
    // Runs right here when the job settled since the handler checked;
    // the injection then waits in the inbox for the next loop turn.
    let key = job.watch(Box::new(move || {
        rshared.inject(Injection::Settled { token, seq });
    }));
    conn.hold = Some(Watch { job, key });
    ctx.holds.borrow_mut().push(Reverse((until, token, seq)));
    WriteEnd::Pending
}

/// Answers a `Held` request with its job's status now: the job settled,
/// the hold expired, or the server is shutting down. `false` = close.
fn release_hold(ctx: &Ctx<'_>, conn: &mut Conn, seq: &mut u64) -> bool {
    let Some(watch) = conn.hold.take() else {
        return true;
    };
    let resp = api::status_response(&watch.job);
    drop(watch);
    on_done(ctx, conn, Dispatch::Reply(resp), seq)
}

/// The connection a held-request wake or deadline is for, if it still
/// waits on that very request: the holder may have hung up, or its slot
/// may now serve another connection or request.
fn held_conn(conns: &mut [Option<Conn>], idx: usize, seq: u64) -> Option<&mut Conn> {
    conns
        .get_mut(idx)?
        .as_mut()
        .filter(|conn| conn.seq == seq && conn.state == State::Held)
}

/// Pops the next held-request deadline that has come due by `now`.
fn pop_due(holds: &Holds, now: Instant) -> Option<(u64, u64)> {
    let mut holds = holds.borrow_mut();
    match holds.peek() {
        Some(Reverse((until, _, _))) if *until <= now => {
            holds.pop().map(|Reverse((_, token, seq))| (token, seq))
        }
        _ => None,
    }
}

/// Pumps an in-progress `Writing` state and applies the transition.
fn drive_write(ctx: &Ctx<'_>, conn: &mut Conn) -> WriteEnd {
    match pump_write(
        &mut conn.stream,
        &mut conn.out,
        &mut conn.out_pos,
        &mut conn.stream_body,
    ) {
        Pump::Dead => WriteEnd::Close,
        Pump::Parked => {
            let mask = if conn.half_closed {
                EPOLLOUT
            } else {
                EPOLLOUT | EPOLLRDHUP
            };
            set_interest(ctx.epoll, conn, mask);
            WriteEnd::Pending
        }
        Pump::Flushed => {
            if conn.pending_keep_alive && !conn.half_closed {
                conn.state = State::Reading;
                set_interest(ctx.epoll, conn, EPOLLIN | EPOLLRDHUP);
                conn.anchor = Instant::now();
                WriteEnd::BackToReading
            } else {
                WriteEnd::Close
            }
        }
    }
}

/// Parses and serves as many buffered requests as possible (keep-alive
/// pipelining), returning `false` when the connection should close.
fn process_read(ctx: &Ctx<'_>, conn: &mut Conn, seq: &mut u64) -> bool {
    loop {
        if conn.state != State::Reading {
            return true;
        }
        match try_parse(&conn.buf, &ctx.shared.limits) {
            Parse::Partial => {
                set_interest(ctx.epoll, conn, EPOLLIN | EPOLLRDHUP);
                // A half-closed peer sends nothing more: whether the
                // buffer is empty (keep-alive over) or holds a request
                // prefix (it can never complete), the connection is
                // done.
                return !conn.half_closed;
            }
            Parse::Complete(req, consumed) => {
                conn.buf.drain(..consumed);
                conn.http11 = req.http11;
                conn.pending_keep_alive = req.keep_alive;
                *seq += 1;
                conn.seq = *seq;
                let end = if api::is_heavy(ctx.router, &req) {
                    let job = Job {
                        req,
                        token: conn.token,
                        seq: conn.seq,
                        reactor: Arc::clone(ctx.rshared),
                    };
                    match ctx.pool.try_submit(job) {
                        Ok(()) => {
                            conn.state = State::Dispatching;
                            let mask = if conn.half_closed { 0 } else { EPOLLRDHUP };
                            set_interest(ctx.epoll, conn, mask);
                            return true;
                        }
                        Err(_rejected) => {
                            // Shed: queue full. The request counter
                            // still ticks (a 429 is an answer).
                            let metrics = &ctx.shared.registry.metrics;
                            metrics.http_requests.inc();
                            metrics.requests_shed.inc();
                            start_write(ctx, conn, Dispatch::Reply(api::backpressure_response(1)))
                        }
                    }
                } else {
                    let outcome = api::dispatch(ctx.shared, ctx.router, &req);
                    start_write(ctx, conn, outcome)
                };
                match end {
                    WriteEnd::BackToReading => continue,
                    WriteEnd::Pending => return true,
                    WriteEnd::Close => return false,
                }
            }
            Parse::Invalid(e) => {
                conn.pending_keep_alive = false;
                let resp = api::parse_error_response(&e);
                return match start_write(ctx, conn, Dispatch::Reply(resp)) {
                    WriteEnd::Pending => true,
                    WriteEnd::BackToReading | WriteEnd::Close => false,
                };
            }
        }
    }
}

/// Handles one epoll event for a connection; `false` = close it.
fn on_event(ctx: &Ctx<'_>, conn: &mut Conn, bits: u32, seq: &mut u64) -> bool {
    if bits & (EPOLLERR | EPOLLHUP) != 0 {
        return false;
    }
    match conn.state {
        State::Reading => match fill_read(conn) {
            Fill::Dead => false,
            Fill::Open => process_read(ctx, conn, seq),
            Fill::Eof => {
                conn.half_closed = true;
                process_read(ctx, conn, seq)
            }
        },
        State::Dispatching => {
            if bits & EPOLLRDHUP != 0 {
                // Note the half-close once, then go quiet (level-
                // triggered RDHUP would otherwise wake every tick).
                conn.half_closed = true;
                set_interest(ctx.epoll, conn, 0);
            }
            true
        }
        // A held request has nothing in flight: a peer that hangs up is
        // gone, and closing drops its waker from the job.
        State::Held => bits & EPOLLRDHUP == 0,
        State::Writing => {
            if bits & EPOLLRDHUP != 0 {
                conn.half_closed = true;
            }
            let before = conn.out_pos;
            match drive_write(ctx, conn) {
                WriteEnd::Close => false,
                WriteEnd::Pending => {
                    if conn.out_pos != before {
                        conn.anchor = Instant::now();
                    }
                    true
                }
                WriteEnd::BackToReading => process_read(ctx, conn, seq),
            }
        }
    }
}

/// A dispatch outcome arrived for a parked connection.
fn on_done(ctx: &Ctx<'_>, conn: &mut Conn, outcome: Dispatch, seq: &mut u64) -> bool {
    match start_write(ctx, conn, outcome) {
        WriteEnd::Close => false,
        WriteEnd::Pending => true,
        WriteEnd::BackToReading => process_read(ctx, conn, seq),
    }
}

/// A fresh reactor mailbox and the epoll its reactor runs on, already
/// watching the mailbox's wake eventfd under [`WAKE`].
fn reactor_fds() -> io::Result<(Epoll, Arc<ReactorShared>)> {
    let rshared = Arc::new(ReactorShared {
        inbox: Mutex::new(Vec::new()),
        wake: EventFd::new()?,
    });
    let epoll = Epoll::new()?;
    epoll.add(&rshared.wake, EPOLLIN, WAKE)?;
    Ok((epoll, rshared))
}

/// One reactor thread: epoll loop over its slab of connections, on the
/// epoll [`reactor_fds`] made for it.
fn reactor_loop(
    epoll: Epoll,
    shared: Arc<Shared>,
    router: Arc<Router>,
    pool: Arc<DispatchPool>,
    rshared: Arc<ReactorShared>,
) -> io::Result<()> {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut live: usize = 0;
    let mut seq: u64 = 0;
    let mut events = vec![EpollEvent::zeroed(); 1024];
    let mut last_sweep = Instant::now();
    let holds: Holds = RefCell::new(BinaryHeap::new());

    let close_conn = |epoll: &Epoll,
                      conns: &mut Vec<Option<Conn>>,
                      free: &mut Vec<usize>,
                      live: &mut usize,
                      idx: usize| {
        if let Some(conn) = conns[idx].take() {
            let _ = epoll.delete(&conn.stream);
            free.push(idx);
            *live -= 1;
        }
    };

    loop {
        // Wake for the earliest held-request deadline (rounded up, so an
        // early wake never spins), or at the sweep cadence.
        let timeout_ms = holds.borrow().peek().map_or(100, |Reverse((until, _, _))| {
            let left = until.saturating_duration_since(Instant::now());
            left.as_micros().div_ceil(1000).min(100) as i32
        });
        let fired = epoll.wait(&mut events, timeout_ms)?;
        if shared.killed.load(Ordering::SeqCst) {
            // A crashed server drops everything without a goodbye.
            return Ok(());
        }
        rshared.wake.drain();
        let ctx = Ctx {
            epoll: &epoll,
            shared: &shared,
            router: &router,
            pool: &pool,
            rshared: &rshared,
            holds: &holds,
        };

        let injections = std::mem::take(&mut *rshared.inbox.lock().unwrap());
        for injection in injections {
            match injection {
                Injection::NewConn(stream, ticket) => {
                    let idx = free.pop().unwrap_or_else(|| {
                        conns.push(None);
                        conns.len() - 1
                    });
                    let token = idx as u64 + 1;
                    if epoll.add(&stream, EPOLLIN | EPOLLRDHUP, token).is_err() {
                        free.push(idx);
                        continue; // stream + ticket drop: count stays right
                    }
                    conns[idx] = Some(Conn {
                        stream,
                        token,
                        _ticket: ticket,
                        buf: Vec::new(),
                        out: Vec::new(),
                        out_pos: 0,
                        stream_body: None,
                        state: State::Reading,
                        seq: 0,
                        hold: None,
                        http11: true,
                        pending_keep_alive: true,
                        half_closed: false,
                        anchor: Instant::now(),
                        interest: EPOLLIN | EPOLLRDHUP,
                    });
                    live += 1;
                }
                Injection::Done {
                    token,
                    seq: done_seq,
                    outcome,
                } => {
                    let idx = (token - 1) as usize;
                    let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                        continue; // connection died while dispatched
                    };
                    if conn.seq != done_seq || conn.state != State::Dispatching {
                        continue; // stale outcome for a reused slot
                    }
                    if !on_done(&ctx, conn, outcome, &mut seq) {
                        close_conn(&epoll, &mut conns, &mut free, &mut live, idx);
                    }
                }
                Injection::Settled {
                    token,
                    seq: held_seq,
                } => {
                    let idx = (token - 1) as usize;
                    let Some(conn) = held_conn(&mut conns, idx, held_seq) else {
                        continue;
                    };
                    if !release_hold(&ctx, conn, &mut seq) {
                        close_conn(&epoll, &mut conns, &mut free, &mut live, idx);
                    }
                }
            }
        }

        for ev in events.iter().take(fired) {
            let ev = *ev; // copy out of the packed slice
            if ev.data == WAKE {
                continue;
            }
            let idx = (ev.data - 1) as usize;
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                continue; // already closed this tick
            };
            if !on_event(&ctx, conn, ev.events, &mut seq) {
                close_conn(&epoll, &mut conns, &mut free, &mut live, idx);
            }
        }

        let now = Instant::now();
        while let Some((token, held_seq)) = pop_due(&holds, now) {
            // Requests answered on their job's settling left stale
            // entries behind.
            let idx = (token - 1) as usize;
            let Some(conn) = held_conn(&mut conns, idx, held_seq) else {
                continue;
            };
            if !release_hold(&ctx, conn, &mut seq) {
                close_conn(&epoll, &mut conns, &mut free, &mut live, idx);
            }
        }

        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        if last_sweep.elapsed() >= Duration::from_millis(100) || shutting_down {
            last_sweep = Instant::now();
            let idle = shared.idle_timeout;
            for idx in 0..conns.len() {
                let reap = match conns[idx].as_mut() {
                    None => false,
                    // Server-side slowness is not client misbehavior.
                    Some(conn) if conn.state == State::Dispatching => false,
                    // A hold ends by its own deadline; shutdown answers
                    // it now.
                    Some(conn) if conn.state == State::Held => {
                        shutting_down && !release_hold(&ctx, conn, &mut seq)
                    }
                    Some(conn) => {
                        if shutting_down {
                            // Idle keep-alive connections close now;
                            // anything mid-flight gets a short grace.
                            (conn.state == State::Reading && conn.buf.is_empty())
                                || conn.anchor.elapsed() >= idle.min(Duration::from_secs(1))
                        } else {
                            conn.anchor.elapsed() >= idle
                        }
                    }
                };
                if reap {
                    close_conn(&epoll, &mut conns, &mut free, &mut live, idx);
                }
            }
        }

        if shutting_down && live == 0 && rshared.inbox.lock().unwrap().is_empty() {
            return Ok(());
        }
    }
}

/// A dispatch-pool worker: run heavy requests, inject outcomes back
/// into the owning reactor.
fn worker_loop(shared: Arc<Shared>, router: Arc<Router>, pool: Arc<DispatchPool>) {
    while let Some(job) = pool.take() {
        let outcome = api::dispatch(&shared, &router, &job.req);
        job.reactor.inject(Injection::Done {
            token: job.token,
            seq: job.seq,
            outcome,
        });
    }
}

/// Runs the reactor serve mode: spawns reactors and dispatch workers,
/// then runs the accept loop on the calling thread until shutdown/kill,
/// and drains everything before returning.
///
/// Every eventfd and epoll is made before the first thread starts. A
/// later failure (a spawn, the accept loop's wait) shuts the server
/// down, and the threads already running drain and are joined before
/// the error returns.
///
/// # Errors
///
/// Fatal failures to set up the reactors or the acceptor, or to run the
/// accept loop.
pub(crate) fn serve(
    listener: TcpListener,
    shared: &Arc<Shared>,
    router: Arc<Router>,
    opts: &ReactorOptions,
) -> io::Result<()> {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let n_reactors = if opts.reactors == 0 {
        (cores / 4).max(1)
    } else {
        opts.reactors
    };
    let n_dispatchers = if opts.dispatchers == 0 {
        cores.max(2)
    } else {
        opts.dispatchers
    };

    let loops = (0..n_reactors)
        .map(|_| reactor_fds())
        .collect::<io::Result<Vec<_>>>()?;
    // The acceptor: nonblocking listener + a wake eventfd on its own
    // epoll, so shutdown() interrupts a parked wait immediately.
    let accept_wake = Arc::new(EventFd::new()?);
    let epoll = Epoll::new()?;
    listener.set_nonblocking(true)?;
    epoll.add(&listener, EPOLLIN, 0)?;
    epoll.add(&*accept_wake, EPOLLIN, 1)?;

    let reactors: Vec<Arc<ReactorShared>> = loops.iter().map(|(_, r)| Arc::clone(r)).collect();
    for rshared in &reactors {
        let rshared = Arc::clone(rshared);
        register_waker(shared, Box::new(move || rshared.wake.signal()));
    }
    register_waker(shared, {
        let accept_wake = Arc::clone(&accept_wake);
        Box::new(move || accept_wake.signal())
    });

    let pool = Arc::new(DispatchPool::new(opts.max_dispatch_queue));
    let mut reactor_threads = Vec::with_capacity(n_reactors);
    let mut worker_threads = Vec::with_capacity(n_dispatchers);
    let start = || -> io::Result<()> {
        for (i, (epoll, rshared)) in loops.into_iter().enumerate() {
            let (shared, router, pool) =
                (Arc::clone(shared), Arc::clone(&router), Arc::clone(&pool));
            reactor_threads.push(
                std::thread::Builder::new()
                    .name(format!("predllc-reactor-{i}"))
                    .spawn(move || {
                        if let Err(e) = reactor_loop(epoll, shared, router, pool, rshared) {
                            eprintln!("predllc-serve: reactor failed: {e}");
                        }
                    })?,
            );
        }
        for i in 0..n_dispatchers {
            let (shared, router, pool) =
                (Arc::clone(shared), Arc::clone(&router), Arc::clone(&pool));
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("predllc-dispatch-{i}"))
                    .spawn(move || worker_loop(shared, router, pool))?,
            );
        }
        Ok(())
    };
    let served = start().and_then(|()| accept(&listener, &epoll, &accept_wake, shared, &reactors));
    if served.is_err() {
        // No handle asked for this shutdown; the reactors stop on the
        // same flag.
        shared.shutdown.store(true, Ordering::SeqCst);
    }
    // Refuse new connections during the drain, then let the reactors
    // finish in-flight work (dispatch workers stay up until the
    // reactors are gone — parked connections need their outcomes).
    drop(listener);
    stop_reactors(&reactors, reactor_threads);
    pool.close();
    for thread in worker_threads {
        let _ = thread.join();
    }
    served
}

/// The accept loop: hands each accepted connection to the next reactor
/// until shutdown or kill.
fn accept(
    listener: &TcpListener,
    epoll: &Epoll,
    wake: &EventFd,
    shared: &Arc<Shared>,
    reactors: &[Arc<ReactorShared>],
) -> io::Result<()> {
    let mut events = [EpollEvent::zeroed(); 16];
    let mut next_reactor = 0usize;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || shared.killed.load(Ordering::SeqCst) {
            return Ok(());
        }
        epoll.wait(&mut events, 500)?;
        wake.drain();
        loop {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    if shared.killed.load(Ordering::SeqCst) {
                        // A crashed server hands nothing more to its
                        // reactors: the stream drops here, closed.
                        break;
                    }
                    let ticket = ConnTicket::new(shared);
                    if ticket.over_capacity() {
                        // Accepted sockets are blocking (nonblocking is
                        // not inherited), so this small write is safe
                        // inline.
                        let refusal =
                            api::error_response(503, "unavailable", "too many connections");
                        let _ = stream.write_all(&frame(refusal, false).0);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue; // stream + ticket drop
                    }
                    reactors[next_reactor % reactors.len()]
                        .inject(Injection::NewConn(stream, ticket));
                    next_reactor += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("predllc-serve: accept failed: {e}");
                    break;
                }
            }
        }
    }
}

/// Wakes and joins the reactor threads, then closes every connection
/// still waiting in an inbox. A killed reactor returns without draining
/// its inbox, and the waker registered on [`Shared`] keeps that inbox
/// alive as long as the server's handles: a connection accepted while
/// the server died would stay open, and its peer would wait out its
/// whole read timeout instead of seeing the close.
fn stop_reactors(reactors: &[Arc<ReactorShared>], threads: Vec<std::thread::JoinHandle<()>>) {
    for rshared in reactors {
        rshared.wake.signal();
    }
    for thread in threads {
        let _ = thread.join();
    }
    for rshared in reactors {
        // The joins above already set a reactor's panic aside; its
        // poisoned inbox still only holds injections to drop.
        let mut inbox = rshared.inbox.lock().unwrap_or_else(PoisonError::into_inner);
        inbox.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A body that never ends: the stalled-reader bound must come from
    /// the writer's refill discipline, not the body running dry.
    struct Endless;

    impl BodyStream for Endless {
        fn next_chunk(&mut self) -> Option<Vec<u8>> {
            Some(vec![b'x'; 4096])
        }
    }

    #[test]
    fn pump_write_bounds_backlog_when_the_reader_stalls() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut out = Vec::new();
        let mut out_pos = 0usize;
        let mut body: Option<Box<dyn BodyStream>> = Some(Box::new(Endless));
        // The peer never reads: the kernel buffer fills, the write
        // parks — and must park rather than pull the endless body
        // forever.
        match pump_write(&mut server_side, &mut out, &mut out_pos, &mut body) {
            Pump::Parked => {}
            Pump::Flushed => panic!("an endless body cannot flush"),
            Pump::Dead => panic!("the socket is healthy"),
        }
        assert!(body.is_some(), "the body must not be drained");
        // Unflushed backlog is bounded by the refill threshold plus at
        // most one chunk and its framing overhead.
        let backlog = out.len() - out_pos;
        assert!(
            backlog < LOW_WATER + 4096 + 32,
            "backlog {backlog} exceeds the low-water bound"
        );
        drop(peer);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn dispatch_pool_sheds_past_capacity_and_drains_on_close() {
        fn job(reactor: &Arc<ReactorShared>, seq: u64) -> Job {
            Job {
                req: Box::new(Request {
                    method: "GET".into(),
                    path: "/healthz".into(),
                    query: None,
                    headers: vec![],
                    body: vec![],
                    keep_alive: true,
                    http11: true,
                }),
                token: 1,
                seq,
                reactor: Arc::clone(reactor),
            }
        }
        let (_, reactor) = reactor_fds().unwrap();
        let pool = DispatchPool::new(1);
        assert!(pool.try_submit(job(&reactor, 1)).is_ok());
        // Queue depth 1 is the cap: the next submit is shed.
        assert!(pool.try_submit(job(&reactor, 2)).is_err());
        let taken = pool.take().expect("queued job");
        assert_eq!(taken.seq, 1);
        // Taking freed the slot.
        assert!(pool.try_submit(job(&reactor, 3)).is_ok());
        pool.close();
        assert_eq!(pool.take().map(|j| j.seq), Some(3));
        assert!(pool.take().is_none(), "closed and drained");
        assert!(pool.try_submit(job(&reactor, 4)).is_err(), "closed refuses");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_stopped_reactor_closes_the_connections_left_in_its_inbox() {
        let server = crate::Server::bind("127.0.0.1:0", crate::ServerConfig::default()).unwrap();
        let shared = Arc::clone(&server.shared);
        let router = Arc::new(api::build_router(&shared));
        let pool = Arc::new(DispatchPool::new(1));
        let (epoll, rshared) = reactor_fds().unwrap();
        // The server was killed: its reactor returns at its first wake,
        // without draining its inbox...
        shared.killed.store(true, Ordering::SeqCst);
        let thread = std::thread::spawn({
            let (shared, rshared) = (Arc::clone(&shared), Arc::clone(&rshared));
            move || reactor_loop(epoll, shared, router, pool, rshared).unwrap()
        });
        // ...where the acceptor left a connection it took while dying.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        rshared.inject(Injection::NewConn(accepted, ConnTicket::new(&shared)));
        stop_reactors(std::slice::from_ref(&rshared), vec![thread]);

        // The inbox is still alive (the test holds it, as a server's
        // handle would), yet the peer sees the connection close.
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match peer.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("the peer read {other:?} instead of a close"),
        }
        assert_eq!(shared.connections.load(Ordering::SeqCst), 0);
    }
}
