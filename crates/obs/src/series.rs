//! Continuous time-series collection over a metric [`Registry`]:
//! a background [`Collector`] thread snapshots the registry at a fixed
//! interval into per-series ring buffers ([`SeriesStore`]), giving
//! every process a bounded-memory local history that `/v1/metrics/
//! history`, the SLO evaluator ([`crate::slo`]) and the dashboard
//! renderer ([`crate::dash`]) all read from.
//!
//! Design points, in keeping with the crate's read-only rule:
//!
//! * **Exact samples.** Counter and gauge readings are stored as the
//!   `u64` they are; only derived values (histogram percentiles) are
//!   `f64`. Nothing is averaged at collection time — downsampling
//!   happens at query time ([`SeriesStore::history`]) by picking the
//!   last sample per step, so what you see is a value that existed.
//! * **Bounded memory.** Every series is a fixed-capacity ring
//!   (drop-oldest) and the store caps the number of series; a
//!   label-cardinality explosion degrades history, never memory.
//! * **Handle-owned lifecycle.** Dropping the [`Collector`] (or
//!   calling [`Collector::stop`]) wakes and joins the thread — no
//!   detached threads, no sleeps on the shutdown path.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::expo::ExpoValue;
use crate::metrics::{Registry, SnapshotValue};
use crate::slo::SloRuntime;

/// One series' queried history: the key plus `(t_ms, value)` samples
/// in increasing time order.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesHistory {
    /// The exposition-style series key (`name` or `name{k="v",...}`).
    pub key: String,
    /// `(milliseconds since the store's epoch, value)` samples.
    pub samples: Vec<(u64, ExpoValue)>,
}

/// Ring-buffer storage for collected series, keyed by exposition-style
/// series name. Timestamps are milliseconds since the store's creation
/// ([`SeriesStore::now_ms`]), which keeps every stored number small,
/// monotonic, and wall-clock-free.
#[derive(Debug)]
pub struct SeriesStore {
    epoch: Instant,
    inner: Mutex<StoreInner>,
}

#[derive(Debug)]
struct StoreInner {
    capacity: usize,
    max_series: usize,
    /// Insertion order of keys (stable display order).
    order: Vec<String>,
    series: HashMap<String, VecDeque<(u64, ExpoValue)>>,
    /// Samples refused because `max_series` was reached.
    overflow: u64,
}

impl SeriesStore {
    /// A fresh store: at most `max_series` series of `capacity`
    /// samples each (both floored at 1).
    pub fn new(capacity: usize, max_series: usize) -> SeriesStore {
        SeriesStore {
            epoch: Instant::now(),
            inner: Mutex::new(StoreInner {
                capacity: capacity.max(1),
                max_series: max_series.max(1),
                order: Vec::new(),
                series: HashMap::new(),
                overflow: 0,
            }),
        }
    }

    /// Milliseconds since the store was created.
    pub fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Records one batch of samples at the current time.
    pub fn record(&self, samples: &[(String, ExpoValue)]) {
        self.record_at(self.now_ms(), samples);
    }

    /// Records one batch at an explicit timestamp (tests drive time
    /// directly through this).
    pub(crate) fn record_at(&self, t_ms: u64, samples: &[(String, ExpoValue)]) {
        let mut inner = self.inner.lock().unwrap();
        for (key, value) in samples {
            if !inner.series.contains_key(key) {
                if inner.series.len() >= inner.max_series {
                    inner.overflow += 1;
                    continue;
                }
                let cap = inner.capacity;
                inner.order.push(key.clone());
                inner
                    .series
                    .insert(key.clone(), VecDeque::with_capacity(cap));
            }
            let cap = inner.capacity;
            let ring = inner.series.get_mut(key).expect("just ensured");
            if ring.len() == cap {
                ring.pop_front();
            }
            ring.push_back((t_ms, *value));
        }
    }

    /// Number of distinct series currently stored.
    pub(crate) fn series_count(&self) -> usize {
        self.inner.lock().unwrap().series.len()
    }

    /// Samples refused because the series cap was hit.
    pub fn overflow(&self) -> u64 {
        self.inner.lock().unwrap().overflow
    }

    /// The most recent `(t_ms, value)` sample of `key`, if any.
    pub fn latest(&self, key: &str) -> Option<(u64, ExpoValue)> {
        let inner = self.inner.lock().unwrap();
        inner.series.get(key).and_then(|r| r.back().copied())
    }

    /// All stored keys matching `selector`: either the key itself, or
    /// a family name that matches every labelled series of that family
    /// (`selector == "m"` matches `m` and `m{worker="w0"}`).
    pub(crate) fn keys_matching(&self, selector: &str) -> Vec<String> {
        let prefix = format!("{selector}{{");
        let inner = self.inner.lock().unwrap();
        inner
            .order
            .iter()
            .filter(|k| k.as_str() == selector || k.starts_with(&prefix))
            .cloned()
            .collect()
    }

    /// Every series' history over the last `window_ms`, downsampled to
    /// at most one sample (the last) per `step_ms` bucket. Returns
    /// `(now_ms, histories)`; series with no samples in the window are
    /// returned with an empty sample list (a *gap*, not an absence —
    /// the caller can tell "stale" from "never existed").
    pub fn history(&self, window_ms: u64, step_ms: u64) -> (u64, Vec<SeriesHistory>) {
        self.history_at(window_ms, step_ms, self.now_ms())
    }

    /// [`SeriesStore::history`] at an explicit `now` (tests drive time
    /// directly through this).
    pub(crate) fn history_at(
        &self,
        window_ms: u64,
        step_ms: u64,
        now: u64,
    ) -> (u64, Vec<SeriesHistory>) {
        let step = step_ms.max(1);
        let start = now.saturating_sub(window_ms);
        let inner = self.inner.lock().unwrap();
        let mut out = Vec::with_capacity(inner.order.len());
        for key in &inner.order {
            let ring = &inner.series[key];
            let mut samples: Vec<(u64, ExpoValue)> = Vec::new();
            for &(t, v) in ring.iter() {
                if t < start || t > now {
                    continue;
                }
                let bucket = (t - start) / step;
                match samples.last_mut() {
                    // Same step bucket: keep only the last sample.
                    Some(last) if (last.0 - start) / step == bucket => *last = (t, v),
                    _ => samples.push((t, v)),
                }
            }
            out.push(SeriesHistory {
                key: key.clone(),
                samples,
            });
        }
        (now, out)
    }
}

/// Flattens a registry snapshot into collector samples: counters and
/// gauges as exact `u64`s under their exposition key; each histogram
/// series as three derived sub-series — `{name}_count` (`u64`),
/// `{name}_sum` (`u64`) and `{name}_p99` (`f64`, the log-bucket p99).
pub fn registry_samples(registry: &Registry) -> Vec<(String, ExpoValue)> {
    let mut out = Vec::new();
    for snap in registry.snapshot_series() {
        match &snap.value {
            SnapshotValue::Counter(v) | SnapshotValue::Gauge(v) => {
                out.push((snap.key(), ExpoValue::UInt(*v)));
            }
            SnapshotValue::Histogram(h) => {
                let count =
                    crate::metrics::series_key(&format!("{}_count", snap.name), &snap.labels);
                let sum = crate::metrics::series_key(&format!("{}_sum", snap.name), &snap.labels);
                let p99 = crate::metrics::series_key(&format!("{}_p99", snap.name), &snap.labels);
                out.push((count, ExpoValue::UInt(h.count)));
                out.push((sum, ExpoValue::UInt(h.sum)));
                out.push((p99, ExpoValue::Float(h.percentile(99.0) as f64)));
            }
        }
    }
    out
}

/// Collector configuration: how often to sample and how much to keep.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Snapshot interval.
    pub interval: Duration,
    /// Ring capacity per series (samples kept).
    pub capacity: usize,
    /// Maximum distinct series.
    pub max_series: usize,
}

impl Default for CollectorConfig {
    /// One sample per second, ten minutes of history, 512 series.
    fn default() -> Self {
        CollectorConfig {
            interval: Duration::from_secs(1),
            capacity: 600,
            max_series: 512,
        }
    }
}

/// A background collection thread. Samples are produced by a caller-
/// supplied closure (usually wrapping [`registry_samples`], possibly
/// preceded by refresh work like mirroring the tracer's drop count),
/// recorded into the owned [`SeriesStore`], and — when an
/// [`SloRuntime`] is attached — fed straight to alert evaluation on
/// the same tick.
pub struct Collector {
    store: Arc<SeriesStore>,
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("series", &self.store.series_count())
            .finish_non_exhaustive()
    }
}

impl Collector {
    /// Starts the collection thread. The first sample is taken
    /// immediately, then every `config.interval` until the handle is
    /// stopped or dropped.
    pub fn start(
        config: CollectorConfig,
        mut sampler: impl FnMut() -> Vec<(String, ExpoValue)> + Send + 'static,
        slo: Option<Arc<SloRuntime>>,
    ) -> Collector {
        let store = Arc::new(SeriesStore::new(config.capacity, config.max_series));
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let interval = config.interval;
            thread::Builder::new()
                .name("obs-collector".to_string())
                .spawn(move || {
                    // Ticks run on absolute deadlines: a relative sleep
                    // after each sample would add the sampler's own
                    // runtime to every step, drifting the series clock
                    // by (cost × ticks) over a run.
                    let mut next = Instant::now();
                    loop {
                        let samples = sampler();
                        store.record(&samples);
                        if let Some(slo) = &slo {
                            slo.tick(&store);
                        }
                        next += interval;
                        if next < Instant::now() {
                            // The sampler overran the whole interval:
                            // re-anchor and skip the missed ticks rather
                            // than firing a burst to catch up.
                            next = Instant::now();
                        }
                        let (lock, cond) = &*stop;
                        let mut stopped = lock.lock().unwrap();
                        loop {
                            if *stopped {
                                return;
                            }
                            let now = Instant::now();
                            if now >= next {
                                break;
                            }
                            let (guard, _) = cond.wait_timeout(stopped, next - now).unwrap();
                            stopped = guard;
                        }
                    }
                })
                .expect("spawn obs-collector")
        };
        Collector {
            store,
            stop,
            thread: Some(thread),
        }
    }

    /// The store the collector records into (shared: endpoints read it
    /// while collection continues).
    pub fn store(&self) -> Arc<SeriesStore> {
        Arc::clone(&self.store)
    }

    /// Stops and joins the collection thread. Idempotent; also runs on
    /// drop.
    pub fn stop(&mut self) {
        let (lock, cond) = &*self.stop;
        *lock.lock().unwrap() = true;
        cond.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_drop_oldest_at_capacity() {
        let store = SeriesStore::new(3, 8);
        for t in 0..5u64 {
            store.record_at(t * 10, &[("m".to_string(), ExpoValue::UInt(t))]);
        }
        let (_, histories) = store.history_at(u64::MAX, 1, 40);
        let m = &histories[0];
        assert_eq!(m.key, "m");
        let times: Vec<u64> = m.samples.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![20, 30, 40], "first two samples dropped");
    }

    #[test]
    fn series_cap_bounds_memory_and_counts_overflow() {
        let store = SeriesStore::new(4, 2);
        store.record_at(
            0,
            &[
                ("a".to_string(), ExpoValue::UInt(1)),
                ("b".to_string(), ExpoValue::UInt(2)),
                ("c".to_string(), ExpoValue::UInt(3)),
            ],
        );
        assert_eq!(store.series_count(), 2);
        assert_eq!(store.overflow(), 1);
        // Existing series still record fine.
        store.record_at(5, &[("a".to_string(), ExpoValue::UInt(9))]);
        assert_eq!(store.latest("a"), Some((5, ExpoValue::UInt(9))));
        assert_eq!(store.latest("c"), None);
    }

    #[test]
    fn history_downsamples_to_last_sample_per_step() {
        let store = SeriesStore::new(64, 4);
        for t in [0u64, 40, 80, 120, 160, 199] {
            store.record_at(t, &[("m".to_string(), ExpoValue::UInt(t))]);
        }
        // Query before any further time passes: the window covers all.
        let (_, histories) = store.history_at(u64::MAX, 100, 199);
        let m = &histories[0];
        // Step buckets relative to window start: last-of-bucket wins.
        let values: Vec<u64> = m
            .samples
            .iter()
            .map(|&(_, v)| match v {
                ExpoValue::UInt(v) => v,
                ExpoValue::Float(_) => unreachable!(),
            })
            .collect();
        assert!(values.len() < 6, "downsampled: {values:?}");
        assert_eq!(*values.last().unwrap(), 199, "last sample survives");
    }

    #[test]
    fn keys_matching_selects_family_and_exact_keys() {
        let store = SeriesStore::new(4, 8);
        store.record_at(
            0,
            &[
                ("m".to_string(), ExpoValue::UInt(1)),
                ("m{worker=\"w0\"}".to_string(), ExpoValue::UInt(2)),
                ("m_total".to_string(), ExpoValue::UInt(3)),
            ],
        );
        assert_eq!(store.keys_matching("m"), vec!["m", "m{worker=\"w0\"}"]);
        assert_eq!(store.keys_matching("m_total"), vec!["m_total"]);
        assert!(store.keys_matching("absent").is_empty());
    }

    #[test]
    fn collector_ticks_on_absolute_deadlines_despite_slow_samplers() {
        // A sampler that costs 3/4 of the interval: with relative
        // sleeps every step would stretch to interval + cost (~35ms
        // here); absolute deadlines keep the mean spacing at the
        // configured interval.
        let config = CollectorConfig {
            interval: Duration::from_millis(20),
            capacity: 600,
            max_series: 8,
        };
        let mut collector = Collector::start(
            config,
            || {
                thread::sleep(Duration::from_millis(15));
                vec![("drift".to_string(), ExpoValue::UInt(1))]
            },
            None,
        );
        let store = collector.store();
        thread::sleep(Duration::from_millis(800));
        collector.stop();
        let (_, histories) = store.history(u64::MAX, 1);
        let samples = &histories
            .iter()
            .find(|h| h.key == "drift")
            .expect("the collector recorded")
            .samples;
        assert!(samples.len() >= 2, "collector barely ticked");
        let span = samples.last().unwrap().0 - samples.first().unwrap().0;
        let mean = span as f64 / (samples.len() - 1) as f64;
        // 30ms splits the regimes: drifting ticks average >= 35ms no
        // matter the machine, absolute ones hover at 20ms with room
        // for scheduler noise.
        assert!(
            mean < 30.0,
            "mean tick spacing {mean:.1}ms drifted past the 20ms interval \
             ({} samples over {span}ms)",
            samples.len(),
        );
    }

    #[test]
    fn collector_samples_records_and_stops_cleanly() {
        let n = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let sampler = {
            let n = Arc::clone(&n);
            move || {
                let v = n.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                vec![("ticks".to_string(), ExpoValue::UInt(v))]
            }
        };
        let config = CollectorConfig {
            interval: Duration::from_millis(5),
            capacity: 128,
            max_series: 8,
        };
        let mut collector = Collector::start(config, sampler, None);
        let store = collector.store();
        let deadline = Instant::now() + Duration::from_secs(5);
        while store.latest("ticks").is_none_or(|(_, v)| v.as_f64() < 2.0) {
            assert!(Instant::now() < deadline, "collector never ticked");
            thread::sleep(Duration::from_millis(2));
        }
        collector.stop();
        let after = store.latest("ticks");
        thread::sleep(Duration::from_millis(20));
        assert_eq!(store.latest("ticks"), after, "no ticks after stop");
        collector.stop(); // idempotent
    }

    #[test]
    fn registry_samples_flatten_histograms_into_derived_series() {
        let reg = Registry::new();
        reg.counter("predllc_c_total", "c").add(3);
        let h = reg.histogram_with("predllc_h_ns", "h", "endpoint", "x");
        h.record_ns(100);
        h.record_ns(200);
        let samples = registry_samples(&reg);
        let get = |key: &str| {
            samples
                .iter()
                .find(|(k, _)| k == key)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing series {key} in {samples:?}"))
        };
        assert_eq!(get("predllc_c_total"), ExpoValue::UInt(3));
        assert_eq!(
            get("predllc_h_ns_count{endpoint=\"x\"}"),
            ExpoValue::UInt(2)
        );
        assert_eq!(
            get("predllc_h_ns_sum{endpoint=\"x\"}"),
            ExpoValue::UInt(300)
        );
        match get("predllc_h_ns_p99{endpoint=\"x\"}") {
            ExpoValue::Float(p) => assert!(p >= 200.0, "p99 {p} below max"),
            other => panic!("p99 should be F64, got {other:?}"),
        }
    }
}
