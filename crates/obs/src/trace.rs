//! Structured tracing: span/instant [`TraceEvent`] records collected
//! into sharded bounded ring buffers, keyed by 128-bit [`TraceId`]s.
//!
//! The recording path takes one lock on a *per-thread shard* — threads
//! are spread across `SHARDS` (16) independent rings by a thread-local
//! index, so recorder threads never contend with each other, only with
//! the (rare) snapshot reader. Rings are bounded: when a shard is full
//! the oldest event is dropped and a counter incremented, so tracing
//! can stay on in a long-lived server without unbounded memory.
//!
//! Events serialise to JSON Lines — one object per line, parseable by
//! any JSON parser (the workspace proves this against
//! `predllc_explore`'s in-tree parser). Trace IDs cross process
//! boundaries as 32-digit hex in the `X-Predllc-Trace` HTTP header.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Independent ring buffers; threads hash onto one each.
const SHARDS: usize = 16;

/// Default per-shard ring capacity.
const DEFAULT_CAPACITY: usize = 8192;

/// Name of the HTTP header that carries a [`TraceId`] between the
/// fleet coordinator and its workers.
pub const TRACE_HEADER: &str = "x-predllc-trace";

/// A 128-bit trace identifier, rendered as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u128);

/// Process-wide sequence feeding [`TraceId::fresh`].
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

impl TraceId {
    /// A new, almost-surely-unique id: a hash of process start time,
    /// pid, and a process-wide sequence number, whitened through two
    /// splitmix64 rounds per half.
    pub fn fresh() -> TraceId {
        let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id() as u64;
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos() & u64::MAX as u128).unwrap_or(0))
            .unwrap_or(0);
        let hi = splitmix64(t ^ pid.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15);
        let lo = splitmix64(seq ^ pid ^ t.rotate_left(17));
        TraceId(((hi as u128) << 64) | lo as u128)
    }

    /// Renders the id as 32 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses a 32-hex-digit id (as produced by [`TraceId::to_hex`]).
    pub fn parse_hex(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// One round of the splitmix64 finaliser — a cheap, well-mixed bijection.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// A span closed; `dur_ns` holds its length.
    End,
    /// A point-in-time event.
    Instant,
}

impl EventKind {
    /// Wire name, as emitted in the JSONL `kind` field.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Instant => "instant",
        }
    }

    /// Inverse of [`EventKind::as_str`].
    pub fn parse(s: &str) -> Option<EventKind> {
        match s {
            "begin" => Some(EventKind::Begin),
            "end" => Some(EventKind::End),
            "instant" => Some(EventKind::Instant),
            _ => None,
        }
    }
}

/// A structured field value attached to an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// A string field.
    Str(String),
    /// An unsigned integer field.
    U64(u64),
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> FieldValue {
        FieldValue::Str(s.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> FieldValue {
        FieldValue::Str(s)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The trace this event belongs to.
    pub trace: TraceId,
    /// Event (span) name, e.g. `"fleet.dispatch"`.
    pub name: String,
    /// Begin / end / instant.
    pub kind: EventKind,
    /// Nanoseconds since the recording [`Tracer`]'s epoch.
    pub ts_ns: u64,
    /// Span length for [`EventKind::End`] events.
    pub dur_ns: Option<u64>,
    /// Structured key/value payload.
    pub fields: Vec<(String, FieldValue)>,
}

impl TraceEvent {
    /// Renders the event as one JSON object (no trailing newline).
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"trace\":\"");
        out.push_str(&self.trace.to_hex());
        out.push_str("\",\"name\":");
        out.push_str(&json_string(&self.name));
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"ts_ns\":");
        out.push_str(&self.ts_ns.to_string());
        if let Some(d) = self.dur_ns {
            out.push_str(",\"dur_ns\":");
            out.push_str(&d.to_string());
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(k));
                out.push(':');
                match v {
                    FieldValue::Str(s) => out.push_str(&json_string(s)),
                    FieldValue::U64(n) => out.push_str(&n.to_string()),
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Renders a slice of events as JSON Lines (one object per line, each
/// line newline-terminated).
pub fn render_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.render_json());
        out.push('\n');
    }
    out
}

/// Escapes `s` as a JSON string literal, quotes included: quotes,
/// backslashes, and control characters (as `\u00XX` or the short
/// forms). The workspace's one JSON string encoder — trace lines,
/// experiment reports and service answers all render through it.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One bounded ring of events.
#[derive(Debug, Default)]
struct Shard {
    ring: Mutex<VecDeque<TraceEvent>>,
}

/// Collects [`TraceEvent`]s from many threads with per-thread sharding.
///
/// Create one per process (or per logical component), hand `&Tracer`
/// to anything that records.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    shards: Vec<Shard>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Hands out shard indices to threads, round-robin.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home shard.
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

impl Tracer {
    /// A tracer with the default per-shard capacity.
    pub fn new() -> Tracer {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// A tracer keeping at most `capacity` events per shard
    /// (oldest dropped first).
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since this tracer's epoch.
    pub(crate) fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Events discarded because a shard ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records a fully-formed event.
    pub fn record(&self, event: TraceEvent) {
        let shard = &self.shards[MY_SHARD.with(|s| *s)];
        let mut ring = shard.ring.lock().unwrap();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Records an [`EventKind::Instant`] event.
    pub fn instant(&self, trace: TraceId, name: &str, fields: Vec<(String, FieldValue)>) {
        self.record(TraceEvent {
            trace,
            name: name.to_string(),
            kind: EventKind::Instant,
            ts_ns: self.now_ns(),
            dur_ns: None,
            fields,
        });
    }

    /// Opens a span: records the `Begin` event now and returns a guard
    /// that records the matching `End` (with duration) when dropped.
    pub fn span<'a>(
        &'a self,
        trace: TraceId,
        name: &str,
        fields: Vec<(String, FieldValue)>,
    ) -> SpanGuard<'a> {
        let start = Instant::now();
        self.record(TraceEvent {
            trace,
            name: name.to_string(),
            kind: EventKind::Begin,
            ts_ns: self.now_ns(),
            dur_ns: None,
            fields: fields.clone(),
        });
        SpanGuard {
            tracer: self,
            trace,
            name: name.to_string(),
            fields,
            start,
        }
    }

    /// Copies every buffered event out, ordered by timestamp.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::new();
        for shard in &self.shards {
            all.extend(shard.ring.lock().unwrap().iter().cloned());
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Copies the events for one trace out, ordered by timestamp.
    pub fn snapshot_trace(&self, trace: TraceId) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::new();
        for shard in &self.shards {
            all.extend(
                shard
                    .ring
                    .lock()
                    .unwrap()
                    .iter()
                    .filter(|e| e.trace == trace)
                    .cloned(),
            );
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }

    /// Removes and returns every buffered event, ordered by timestamp.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::new();
        for shard in &self.shards {
            all.extend(shard.ring.lock().unwrap().drain(..));
        }
        all.sort_by_key(|e| e.ts_ns);
        all
    }
}

/// Open-span guard returned by [`Tracer::span`]; records the `End`
/// event (with `dur_ns`) on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    trace: TraceId,
    name: String,
    fields: Vec<(String, FieldValue)>,
    start: Instant,
}

impl SpanGuard<'_> {
    /// Attaches another field to the eventual `End` event.
    pub fn field(&mut self, key: &str, value: impl Into<FieldValue>) {
        self.fields.push((key.to_string(), value.into()));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.tracer.record(TraceEvent {
            trace: self.trace,
            name: std::mem::take(&mut self.name),
            kind: EventKind::End,
            ts_ns: self.tracer.now_ns(),
            dur_ns: Some(dur),
            fields: std::mem::take(&mut self.fields),
        });
    }
}

/// A tracer plus the trace id to record under — the unit that flows
/// down a request path.
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx<'a> {
    /// Where events go.
    pub tracer: &'a Tracer,
    /// Which trace they belong to.
    pub trace: TraceId,
}

impl<'a> TraceCtx<'a> {
    /// Binds a tracer to a trace id.
    pub fn new(tracer: &'a Tracer, trace: TraceId) -> TraceCtx<'a> {
        TraceCtx { tracer, trace }
    }

    /// Records an instant event on this trace.
    pub fn instant(&self, name: &str, fields: Vec<(String, FieldValue)>) {
        self.tracer.instant(self.trace, name, fields);
    }

    /// Opens a span on this trace.
    pub fn span(&self, name: &str, fields: Vec<(String, FieldValue)>) -> SpanGuard<'a> {
        self.tracer.span(self.trace, name, fields)
    }
}

/// Builds a field list tersely: `fields(&[("point", 3.into())])`.
pub fn fields(pairs: &[(&str, FieldValue)]) -> Vec<(String, FieldValue)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_round_trip_hex_and_never_collide_in_a_small_sample() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            let id = TraceId::fresh();
            assert_eq!(TraceId::parse_hex(&id.to_hex()), Some(id));
            assert!(seen.insert(id), "duplicate trace id {id}");
        }
        assert_eq!(TraceId::parse_hex("zz"), None);
        assert_eq!(TraceId::parse_hex(""), None);
        assert_eq!(
            TraceId::parse_hex("00000000000000000000000000000abc"),
            Some(TraceId(0xabc))
        );
    }

    #[test]
    fn spans_record_begin_and_end_with_duration() {
        let tracer = Tracer::new();
        let trace = TraceId::fresh();
        {
            let mut span = tracer.span(trace, "work", vec![]);
            span.field("points", 7u64);
        }
        tracer.instant(trace, "tick", fields(&[("n", 1u64.into())]));
        let events = tracer.snapshot_trace(trace);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Begin);
        let end = events.iter().find(|e| e.kind == EventKind::End).unwrap();
        assert!(end.dur_ns.is_some());
        assert_eq!(end.fields, vec![("points".to_string(), FieldValue::U64(7))]);
    }

    #[test]
    fn full_rings_drop_oldest_and_count_drops() {
        let tracer = Tracer::with_capacity(4);
        let trace = TraceId::fresh();
        for i in 0..10u64 {
            tracer.instant(trace, "e", fields(&[("i", i.into())]));
        }
        // This thread writes one shard, so the ring holds the last 4.
        let events = tracer.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(tracer.dropped(), 6);
        assert_eq!(events.last().unwrap().fields[0].1, FieldValue::U64(9));
    }

    #[test]
    fn jsonl_rendering_escapes_and_is_line_oriented() {
        let event = TraceEvent {
            trace: TraceId(0x1234),
            name: "with \"quotes\"\nand newline".to_string(),
            kind: EventKind::Instant,
            ts_ns: 42,
            dur_ns: None,
            fields: vec![("k\\ey".to_string(), FieldValue::Str("v".to_string()))],
        };
        let line = event.render_json();
        assert!(line.contains("\\\"quotes\\\""));
        assert!(line.contains("\\n"));
        assert!(line.contains("k\\\\ey"));
        let text = render_jsonl(&[event.clone(), event]);
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }
}
