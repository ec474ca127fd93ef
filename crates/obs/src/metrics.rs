//! The metric registry: counters, gauges and log-bucketed timing
//! histograms, rendered in the Prometheus text exposition format.
//!
//! Handles ([`Counter`], [`Gauge`], [`TimingHistogram`]) are cheap
//! `Arc` clones of the registered cell, so the struct that *records* a
//! metric and the [`Registry`] that *renders* it share storage without
//! any lookup on the hot path. Registration is idempotent: asking for
//! an already-registered name returns a handle to the existing cell, so
//! layers can re-declare the metrics they touch without coordination.
//!
//! Counter and gauge updates are sequentially consistent, and they are
//! deliberately cheap enough to leave on all the time; the histograms
//! use relaxed bucket counters (they are recorded from sampled or
//! per-request call sites, never from the simulator's inner loop).
//!
//! # Snapshot consistency
//!
//! Layers that maintain *derived* counters (e.g. "every registered job
//! came from a cache miss") follow a write discipline — increment the
//! source counter before the derived one, decrement a state gauge
//! before incrementing its successor — and reads run in the reverse
//! order. Every read goes through [`Registry::render`] or
//! [`Registry::snapshot_series`], which read series in registration
//! order, so a layer registers each derived or successor series before
//! its source. With sequentially consistent operations on both sides,
//! a read can observe a momentarily *smaller* derived value, but never
//! a torn pair (a derived count without its source). This is the
//! reader/writer rule of Lamport, *Concurrent Reading and Writing*
//! (CACM 1977).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^GROUP_BITS` linear sub-buckets.
const GROUP_BITS: u32 = 3;
/// Sub-buckets per octave.
const SUB: u64 = 1 << GROUP_BITS;
/// Total bucket count: group 0 holds the exact values `0..SUB`, and each
/// of the `64 - GROUP_BITS` remaining octave groups holds `SUB` buckets.
/// `u64::MAX` lands in the last bucket.
const BUCKETS: usize = (64 - GROUP_BITS as usize + 1) * SUB as usize;

/// The bucket a value is counted in, under the one log-linear
/// (HDR-style) layout both [`TimingHistogram`] and the simulator's
/// `LatencyHistogram` use: values below 8 get exact buckets, and every
/// power-of-two octave above splits into 8 linear sub-buckets, so a
/// bucket's bounds are within 12.5% of any value in it.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let group = (msb - GROUP_BITS + 1) as usize;
    let offset = ((v >> (msb - GROUP_BITS)) - SUB) as usize;
    group * SUB as usize + offset
}

/// The largest value that maps to bucket `i` (inclusive) — a
/// histogram's `le` bound for that bucket.
#[inline]
pub fn bucket_high(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let group = (i / SUB as usize) as u32;
    let offset = (i % SUB as usize) as u64;
    let shift = group - 1;
    ((SUB + offset) << shift) + ((1u64 << shift) - 1)
}

/// The smallest value that maps to bucket `i`.
#[inline]
pub fn bucket_low(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let group = (i / SUB as usize) as u32;
    let offset = (i % SUB as usize) as u64;
    (SUB + offset) << (group - 1)
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::SeqCst);
    }

    /// Overwrites the value. This exists for *mirrors*: a federation
    /// layer (the fleet coordinator) re-exporting a counter it scraped
    /// from another process sets the observed value outright instead of
    /// counting locally. Never mix `set` with `inc`/`add` on the same
    /// series — monotonicity is then the upstream's business, not ours.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::SeqCst);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::SeqCst)
    }
}

/// A gauge: a value that can go up, down, or be set outright.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::SeqCst);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.cell.fetch_sub(1, Ordering::SeqCst);
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::SeqCst);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::SeqCst)
    }
}

/// Interior of a [`TimingHistogram`]: lock-free atomic bucket counters.
#[derive(Debug)]
struct HistogramCell {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed histogram of wall-clock durations in nanoseconds.
///
/// Buckets follow [`bucket_index`]'s layout (values below 8 get exact
/// buckets; every power-of-two octave above splits into 8 linear
/// sub-buckets, relative quantile error ≤ 12.5%), with atomic counters
/// so many threads record concurrently without a lock. Recording is
/// O(1): one bucket increment plus the count/sum/extreme updates.
#[derive(Debug, Clone, Default)]
pub struct TimingHistogram {
    cell: Arc<HistogramCell>,
}

/// A point-in-time copy of a [`TimingHistogram`]'s aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all recorded nanosecond values.
    pub sum: u64,
    /// Exact smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Exact largest recorded value (0 when empty).
    pub max: u64,
    /// `(inclusive_high_bound, count)` for every non-empty bucket, in
    /// increasing bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The value at percentile `p` (0–100), resolved to a bucket's high
    /// bound; the 100th percentile is the exact recorded maximum.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p >= 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(high, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return high.min(self.max);
            }
        }
        self.max
    }
}

impl TimingHistogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        self.record_ns(duration_ns(d));
    }

    /// Records one raw nanosecond value.
    pub fn record_ns(&self, ns: u64) {
        let c = &*self.cell;
        c.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(ns, Ordering::Relaxed);
        c.min.fetch_min(ns, Ordering::Relaxed);
        c.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Recorded samples so far.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Copies the aggregates out.
    ///
    /// Recording is not one atomic step (bucket, then count), so a
    /// snapshot racing a writer can observe a bucket increment whose
    /// count increment has not landed yet. The count is clamped up to
    /// the bucket total so the snapshot is always internally
    /// consistent: cumulative bucket counts never exceed `count`, and
    /// a render mid-write still passes the exposition validator.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &*self.cell;
        let buckets: Vec<(u64, u64)> = c
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_high(i), n))
            })
            .collect();
        let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
        HistogramSnapshot {
            count: c.count.load(Ordering::Relaxed).max(total),
            sum: c.sum.load(Ordering::Relaxed),
            min: c.min.load(Ordering::Relaxed),
            max: c.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// `Duration` → saturated nanoseconds.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One registered value cell (a labelled series within a family).
#[derive(Debug, Clone)]
enum Value {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(TimingHistogram),
}

/// A metric family: one name/help/type, one or more labelled series.
#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    /// `(label_key, label_value)` pairs per series; empty for the
    /// unlabelled singleton series.
    series: Vec<(Vec<(String, String)>, Value)>,
}

/// One family copied out of the registry lock: `(name, help, kind,
/// series)`, with each series carrying its label pairs.
type FamilySnapshot = (String, String, Kind, Vec<(Vec<(String, String)>, Value)>);

/// The metric registry: an ordered set of families, rendered in
/// registration order as Prometheus text exposition.
///
/// [`Registry::render`] and [`Registry::snapshot_series`] read every
/// series in registration order — families in the order they were
/// first registered, series within a family likewise — and that order
/// is the only read order. A layer therefore registers each derived or
/// successor series before its source (see the module docs).
///
/// All registration methods are idempotent on `(name, labels)`: the
/// first call creates the cell, later calls return a handle to it and
/// leave its place in the order unchanged. Registering one name as two
/// different kinds panics — that is a programming error, not a runtime
/// condition.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or finds) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.series(name, help, Kind::Counter, &[], || {
            Value::Counter(Counter::default())
        }) {
            Value::Counter(c) => c,
            _ => unreachable!("kind was checked"),
        }
    }

    /// Registers (or finds) a labelled counter series.
    pub fn counter_with(&self, name: &str, help: &str, key: &str, value: &str) -> Counter {
        let labels = [(key, value)];
        match self.series(name, help, Kind::Counter, &labels, || {
            Value::Counter(Counter::default())
        }) {
            Value::Counter(c) => c,
            _ => unreachable!("kind was checked"),
        }
    }

    /// Registers (or finds) a counter series under an arbitrary label
    /// set — the fleet aggregation path, where a scraped series keeps
    /// its original labels plus a `worker` label.
    pub fn counter_labeled(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, Kind::Counter, labels, || {
            Value::Counter(Counter::default())
        }) {
            Value::Counter(c) => c,
            _ => unreachable!("kind was checked"),
        }
    }

    /// Registers (or finds) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.series(name, help, Kind::Gauge, &[], || {
            Value::Gauge(Gauge::default())
        }) {
            Value::Gauge(g) => g,
            _ => unreachable!("kind was checked"),
        }
    }

    /// Registers (or finds) a gauge series under an arbitrary label
    /// set (see [`Registry::counter_labeled`]).
    pub fn gauge_labeled(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, Kind::Gauge, labels, || {
            Value::Gauge(Gauge::default())
        }) {
            Value::Gauge(g) => g,
            _ => unreachable!("kind was checked"),
        }
    }

    /// Registers (or finds) an unlabelled timing histogram.
    pub fn histogram(&self, name: &str, help: &str) -> TimingHistogram {
        match self.series(name, help, Kind::Histogram, &[], || {
            Value::Histogram(TimingHistogram::default())
        }) {
            Value::Histogram(h) => h,
            _ => unreachable!("kind was checked"),
        }
    }

    /// Registers (or finds) a labelled timing-histogram series —
    /// per-endpoint request latencies, per-worker RTTs, per-stage
    /// engine timings.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        key: &str,
        value: &str,
    ) -> TimingHistogram {
        let labels = [(key, value)];
        match self.series(name, help, Kind::Histogram, &labels, || {
            Value::Histogram(TimingHistogram::default())
        }) {
            Value::Histogram(h) => h,
            _ => unreachable!("kind was checked"),
        }
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Value,
    ) -> Value {
        assert!(valid_name(name), "invalid metric name '{name}'");
        for (k, _) in labels {
            assert!(valid_name(k), "invalid label name '{k}'");
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().unwrap();
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric '{name}' registered as both {} and {}",
                    f.kind.as_str(),
                    kind.as_str()
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some((_, v)) = family.series.iter().find(|(l, _)| *l == labels) {
            return v.clone();
        }
        let v = make();
        family.series.push((labels, v.clone()));
        v
    }

    /// The declared kind of family `name` (`"counter"` / `"gauge"` /
    /// `"histogram"`), or `None` if it has never been registered. Lets
    /// a mirror layer skip incompatible scraped families instead of
    /// tripping the registry's kind-conflict panic.
    pub fn family_kind(&self, name: &str) -> Option<&'static str> {
        self.families
            .lock()
            .unwrap()
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.kind.as_str())
    }

    /// Copies the family list out of the lock: `(name, help, kind,
    /// series)` in registration order. The [`Value`]s are `Arc` clones
    /// of the live cells, so reading them afterwards sees current data
    /// without holding the registry lock.
    fn snapshot_families(&self) -> Vec<FamilySnapshot> {
        self.families
            .lock()
            .unwrap()
            .iter()
            .map(|f| (f.name.clone(), f.help.clone(), f.kind, f.series.clone()))
            .collect()
    }

    /// A point-in-time copy of every registered series' value, in
    /// registration order — the feed for the time-series
    /// [`Collector`](crate::series::Collector).
    pub fn snapshot_series(&self) -> Vec<SeriesSnapshot> {
        let mut out = Vec::new();
        for (name, _help, _kind, series) in self.snapshot_families() {
            for (labels, value) in series {
                let value = match value {
                    Value::Counter(c) => SnapshotValue::Counter(c.get()),
                    Value::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    Value::Histogram(h) => SnapshotValue::Histogram(h.snapshot()),
                };
                out.push(SeriesSnapshot {
                    name: name.clone(),
                    labels,
                    value,
                });
            }
        }
        out
    }

    /// Renders every family as Prometheus text exposition (`# HELP` /
    /// `# TYPE` then the samples), in registration order. The output
    /// always ends with a newline.
    ///
    /// The family list is snapshotted first and the text is built
    /// outside the registry lock, so a slow scrape (or a huge
    /// exposition) never stalls threads recording metrics.
    pub fn render(&self) -> String {
        let families = self.snapshot_families();
        let mut out = String::new();
        for (name, help, kind, series) in &families {
            out.push_str(&format!("# HELP {name} {}\n", escape_help(help)));
            out.push_str(&format!("# TYPE {name} {}\n", kind.as_str()));
            for (labels, value) in series {
                match value {
                    Value::Counter(c) => {
                        out.push_str(&sample(name, labels, c.get()));
                    }
                    Value::Gauge(g) => {
                        out.push_str(&sample(name, labels, g.get()));
                    }
                    Value::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for &(high, n) in &snap.buckets {
                            cumulative += n;
                            out.push_str(&sample_le(name, labels, &high.to_string(), cumulative));
                        }
                        out.push_str(&sample_le(name, labels, "+Inf", snap.count));
                        out.push_str(&sample(&format!("{name}_sum"), labels, snap.sum));
                        out.push_str(&sample(&format!("{name}_count"), labels, snap.count));
                    }
                }
            }
        }
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out
    }
}

/// A point-in-time view of one labelled series, as returned by
/// [`Registry::snapshot_series`].
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// The family name.
    pub name: String,
    /// The series' label pairs (empty for the unlabelled singleton).
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: SnapshotValue,
}

impl SeriesSnapshot {
    /// The series' exposition-style key: `name` or
    /// `name{k="v",...}` with label values escaped exactly as
    /// [`Registry::render`] escapes them.
    pub fn key(&self) -> String {
        series_key(&self.name, &self.labels)
    }
}

/// The value half of a [`SeriesSnapshot`].
#[derive(Debug, Clone)]
pub enum SnapshotValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(u64),
    /// A full histogram snapshot.
    Histogram(HistogramSnapshot),
}

/// Renders a series key (`name` or `name{k="v",...}`) with the same
/// label escaping as the exposition renderer.
pub fn series_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{name}{{{}}}", pairs.join(","))
}

/// One `name{labels} value` sample line.
fn sample(name: &str, labels: &[(String, String)], value: u64) -> String {
    format!("{} {value}\n", series_key(name, labels))
}

/// One `name_bucket{...,le="bound"} value` line.
fn sample_le(name: &str, labels: &[(String, String)], le: &str, value: u64) -> String {
    let mut labels = labels.to_vec();
    labels.push(("le".to_string(), le.to_string()));
    sample(&format!("{name}_bucket"), &labels, value)
}

/// Whether `name` is a legal Prometheus metric/label name.
pub(crate) fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Escapes a HELP line (`\` and newlines).
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value (`\`, `"` and newlines) — the inverse of the
/// unescaping in [`crate::expo::parse`].
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = None;
        for v in (0..2048).chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]) {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            assert!(bucket_low(i) <= v && v <= bucket_high(i), "v={v} i={i}");
            if let Some(p) = prev {
                assert!(i >= p, "bucket index not monotone at {v}");
            }
            prev = Some(i);
        }
        // Small values get exact buckets.
        for v in 0..SUB {
            assert_eq!(bucket_low(bucket_index(v)), v);
            assert_eq!(bucket_high(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_ranges_tile_without_gaps() {
        for i in 0..BUCKETS - 1 {
            assert_eq!(
                bucket_high(i) + 1,
                bucket_low(i + 1),
                "gap or overlap between buckets {i} and {}",
                i + 1
            );
        }
        assert_eq!(bucket_high(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn counters_gauges_and_histograms_register_idempotently() {
        let reg = Registry::new();
        let a = reg.counter("predllc_test_total", "help");
        let b = reg.counter("predllc_test_total", "help");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = reg.gauge("predllc_test_gauge", "help");
        g.set(5);
        g.dec();
        assert_eq!(g.get(), 4);
        let h1 = reg.histogram_with("predllc_test_ns", "help", "stage", "a");
        let h2 = reg.histogram_with("predllc_test_ns", "help", "stage", "a");
        let other = reg.histogram_with("predllc_test_ns", "help", "stage", "b");
        h1.record_ns(10);
        h2.record_ns(20);
        assert_eq!(h1.count(), 2);
        assert_eq!(other.count(), 0);
    }

    #[test]
    #[should_panic(expected = "registered as both")]
    fn kind_conflicts_panic() {
        let reg = Registry::new();
        reg.counter("predllc_conflict", "help");
        reg.gauge("predllc_conflict", "help");
    }

    #[test]
    fn render_is_exposition_shaped_and_newline_terminated() {
        let reg = Registry::new();
        reg.counter("predllc_a_total", "a counter").inc();
        let h = reg.histogram_with("predllc_b_ns", "a histogram", "endpoint", "x");
        h.record_ns(5);
        h.record_ns(5000);
        let text = reg.render();
        assert!(text.ends_with('\n'));
        assert!(text.contains("# TYPE predllc_a_total counter\n"));
        assert!(text.contains("predllc_a_total 1\n"));
        assert!(text.contains("# TYPE predllc_b_ns histogram\n"));
        assert!(text.contains("predllc_b_ns_bucket{endpoint=\"x\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("predllc_b_ns_sum{endpoint=\"x\"} 5005\n"));
        assert!(text.contains("predllc_b_ns_count{endpoint=\"x\"} 2\n"));
    }

    #[test]
    fn labeled_registration_and_counter_set_mirror_semantics() {
        let reg = Registry::new();
        let c = reg.counter_labeled(
            "predllc_mirror_total",
            "mirrored",
            &[("worker", "w-0"), ("kind", "hit")],
        );
        c.set(41);
        c.set(7); // a mirror follows the upstream, even downwards
        assert_eq!(c.get(), 7);
        let again = reg.counter_labeled(
            "predllc_mirror_total",
            "mirrored",
            &[("worker", "w-0"), ("kind", "hit")],
        );
        assert_eq!(again.get(), 7, "idempotent on the full label set");
        let g = reg.gauge_labeled("predllc_mirror_depth", "mirrored", &[("worker", "w-1")]);
        g.set(3);
        assert_eq!(reg.family_kind("predllc_mirror_total"), Some("counter"));
        assert_eq!(reg.family_kind("predllc_mirror_depth"), Some("gauge"));
        assert_eq!(reg.family_kind("predllc_absent"), None);
        let text = reg.render();
        assert!(text.contains("predllc_mirror_total{worker=\"w-0\",kind=\"hit\"} 7\n"));
        assert!(text.contains("predllc_mirror_depth{worker=\"w-1\"} 3\n"));
    }

    #[test]
    fn snapshot_series_covers_every_kind_with_exposition_keys() {
        let reg = Registry::new();
        reg.counter("predllc_snap_total", "c").add(5);
        reg.gauge_labeled("predllc_snap_depth", "g", &[("q", "a\"b")])
            .set(2);
        reg.histogram("predllc_snap_ns", "h").record_ns(100);
        let snaps = reg.snapshot_series();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].key(), "predllc_snap_total");
        assert!(matches!(snaps[0].value, SnapshotValue::Counter(5)));
        assert_eq!(snaps[1].key(), "predllc_snap_depth{q=\"a\\\"b\"}");
        assert!(matches!(snaps[1].value, SnapshotValue::Gauge(2)));
        match &snaps[2].value {
            SnapshotValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram snapshot, got {other:?}"),
        }
    }

    #[test]
    fn render_and_snapshot_series_read_in_registration_order() {
        let reg = Registry::new();
        reg.counter("predllc_z_done", "z").add(3);
        reg.gauge("predllc_m_running", "m").set(2);
        reg.counter_with("predllc_a_by", "a", "k", "y").inc();
        reg.counter_with("predllc_a_by", "a", "k", "x").inc();
        reg.counter("predllc_b_source", "b").add(4);
        // Re-registering an early name keeps its place.
        reg.counter("predllc_z_done", "z").inc();
        let keys: Vec<String> = reg.snapshot_series().iter().map(|s| s.key()).collect();
        let want = [
            "predllc_z_done",
            "predllc_m_running",
            "predllc_a_by{k=\"y\"}",
            "predllc_a_by{k=\"x\"}",
            "predllc_b_source",
        ];
        assert_eq!(keys, want);
        let text = reg.render();
        let rendered: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.rsplit_once(' ').expect("sample value").0)
            .collect();
        assert_eq!(rendered, want);
    }

    #[test]
    fn histogram_snapshot_percentiles_and_extremes_are_exact_at_the_ends() {
        let h = TimingHistogram::default();
        for v in [100u64, 150, 150, 900] {
            h.record_ns(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1300);
        assert_eq!(s.min, 100);
        assert_eq!(s.max, 900);
        assert_eq!(s.percentile(100.0), 900);
        let p50 = s.percentile(50.0);
        assert!((144..=159).contains(&p50), "p50 {p50} out of bucket");
        // Cumulative bucket counts total the sample count.
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 4);
    }
}
