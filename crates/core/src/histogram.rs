//! Per-request latency histograms: log-bucketed, mergeable, O(1) per
//! record.
//!
//! The WCL experiments used to report a single scalar — the worst
//! request latency of a run. A [`LatencyHistogram`] keeps the whole
//! distribution at a bounded memory cost (at most 496 counters, only as
//! many as its largest value needs), so a run can report
//! p50/p90/p99/p100 and the full bucket breakdown. The bucket
//! scheme is `predllc_obs::metrics`'s log-linear (HDR-histogram style)
//! layout, the one its wall-clock histograms use: values below 8 get
//! exact buckets, and every power-of-two octave above is split into 8
//! sub-buckets, keeping the relative quantile error below 12.5%.
//!
//! Exact extremes are tracked separately, so [`LatencyHistogram::max`]
//! — and therefore the 100th percentile — is *exact*, not a bucket
//! bound: `p100` always equals the run's `max_request_latency`.
//!
//! Histograms merge associatively and commutatively (plain counter
//! addition), so per-core records fold into a system-wide distribution
//! — and distributions from different runs fold into campaign-level
//! reports — without any loss.

use std::fmt;

use predllc_model::Cycles;
use predllc_obs::metrics::{bucket_high, bucket_index, bucket_low};

/// A log-bucketed histogram of request latencies.
///
/// Recording is O(1). Counters are allocated on demand, up to the bucket
/// of the largest recorded value (at most 496), so an idle core's stats
/// stay empty and a run of short latencies keeps a short vector. Merging
/// two histograms is exact counter addition — associative and
/// commutative — and percentile queries run over the merged counts.
///
/// # Examples
///
/// ```
/// use predllc_core::histogram::LatencyHistogram;
/// use predllc_model::Cycles;
///
/// let mut h = LatencyHistogram::new();
/// for latency in [100, 150, 150, 900] {
///     h.record(Cycles::new(latency));
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), Cycles::new(900));
/// // The 100th percentile is the exact maximum, not a bucket bound.
/// assert_eq!(h.percentile(100.0), Cycles::new(900));
/// // Lower percentiles resolve to within one sub-bucket (≤ 12.5%).
/// assert!(h.percentile(50.0).as_u64() >= 144 && h.percentile(50.0).as_u64() <= 159);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Bucket counters, up to the bucket of the largest recorded value:
    /// empty when nothing is recorded, otherwise `buckets.len() ==
    /// bucket_index(max) + 1`. Equal contents therefore mean equal
    /// lengths, which keeps the derived `PartialEq` exact.
    buckets: Vec<u64>,
    /// Total records.
    count: u64,
    /// Sum of all recorded values (for the exact mean).
    total: u64,
    /// Exact smallest recorded value (`u64::MAX` when empty).
    min: u64,
    /// Exact largest recorded value.
    max: u64,
}

impl Default for LatencyHistogram {
    /// An empty histogram (the `min` sentinel makes this a manual impl).
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Vec::new(),
            count: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one latency observation. O(1).
    pub fn record(&mut self, latency: Cycles) {
        let v = latency.as_u64();
        let i = bucket_index(v);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.total = self.total.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records `n` observations of the same latency in one O(1) update —
    /// the bulk insert the simulation engine's fast-forward path uses for
    /// runs of identical response latencies (steady-state LLC-hit slots).
    ///
    /// Equivalent to calling [`LatencyHistogram::record`] `n` times
    /// (except that the saturating running total saturates as one product
    /// instead of `n` additions, indistinguishable until a run exceeds
    /// `u64::MAX` total cycles). `record_n(v, 0)` is a no-op.
    pub(crate) fn record_n(&mut self, latency: Cycles, n: u64) {
        if n == 0 {
            return;
        }
        let v = latency.as_u64();
        let i = bucket_index(v);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += n;
        self.count += n;
        self.total = self.total.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one. Plain counter addition:
    /// associative, commutative, and lossless.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exact smallest recorded value (zero when empty).
    pub fn min(&self) -> Cycles {
        if self.count == 0 {
            Cycles::ZERO
        } else {
            Cycles::new(self.min)
        }
    }

    /// The exact largest recorded value (zero when empty).
    pub fn max(&self) -> Cycles {
        Cycles::new(self.max)
    }

    /// Sum of all recorded values (saturating).
    pub fn total(&self) -> Cycles {
        Cycles::new(self.total)
    }

    /// The exact mean, or zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// The value at percentile `p` (`0.0 ..= 100.0`, clamped).
    ///
    /// The rank-`⌈p/100·count⌉` observation's bucket upper bound, clamped
    /// into the exact `[min, max]` range — so `percentile(100.0)` is the
    /// exact maximum and low percentiles never undershoot the minimum.
    /// Returns zero for an empty histogram. Deterministic: the same
    /// counts always give the same answer.
    pub fn percentile(&self, p: f64) -> Cycles {
        if self.count == 0 {
            return Cycles::ZERO;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Cycles::new(bucket_high(i).clamp(self.min, self.max));
            }
        }
        // Unreachable while counters are consistent; the exact max is
        // the safe answer.
        Cycles::new(self.max)
    }

    /// The non-empty buckets as `(low, high, count)` ranges, low to
    /// high — the full distribution for reports.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_low(i), bucket_high(i), n))
            .collect()
    }

    /// The non-empty buckets as `(bucket_low, count)` pairs, low to high
    /// — together with [`LatencyHistogram::total`],
    /// [`LatencyHistogram::min`] and [`LatencyHistogram::max`] this is a
    /// *complete* serialization: [`LatencyHistogram::from_parts`]
    /// rebuilds a bit-identical histogram from these four pieces, which
    /// is how fleet workers ship distributions to a coordinator without
    /// loss.
    pub fn bucket_entries(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_low(i), n))
            .collect()
    }

    /// Rebuilds a histogram from its serialized parts: the exact
    /// `total`/`min`/`max` plus the `(bucket_low, count)` pairs of
    /// [`LatencyHistogram::bucket_entries`]. The result is bit-identical
    /// (`==`) to the histogram the parts came from, so merges and
    /// percentiles computed on either side of a wire agree exactly.
    ///
    /// Returns `None` when the parts are not a consistent serialization:
    /// a `low` that is not a bucket boundary, non-ascending or
    /// zero-count entries, a count overflow, `min > max`, extremes
    /// outside the occupied buckets, or non-zero extremes/total with no
    /// entries.
    pub fn from_parts(
        total: Cycles,
        min: Cycles,
        max: Cycles,
        entries: &[(u64, u64)],
    ) -> Option<LatencyHistogram> {
        if entries.is_empty() {
            return (total.as_u64() == 0 && min.as_u64() == 0 && max.as_u64() == 0)
                .then(LatencyHistogram::new);
        }
        let mut buckets = Vec::new();
        let mut count = 0u64;
        let mut prev_low = None;
        for &(low, n) in entries {
            let i = bucket_index(low);
            if bucket_low(i) != low || n == 0 || prev_low.is_some_and(|p| p >= low) {
                return None;
            }
            prev_low = Some(low);
            // Ascending entries: each one extends the vector.
            buckets.resize(i + 1, 0);
            buckets[i] = n;
            count = count.checked_add(n)?;
        }
        let (min, max) = (min.as_u64(), max.as_u64());
        // The exact extremes must live in the lowest/highest occupied
        // buckets, or the serialization is internally inconsistent.
        if min > max
            || bucket_index(min) != bucket_index(entries[0].0)
            || bucket_index(max) != bucket_index(entries[entries.len() - 1].0)
        {
            return None;
        }
        Some(LatencyHistogram {
            buckets,
            count,
            total: total.as_u64(),
            min,
            max,
        })
    }

    /// The p50/p90/p99/p100 summary of this distribution.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean: self.mean(),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
            p100: self.max(),
        }
    }
}

/// The headline percentiles of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Observations in the distribution.
    pub count: u64,
    /// Exact mean latency.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: Cycles,
    /// 90th percentile.
    pub p90: Cycles,
    /// 99th percentile.
    pub p99: Cycles,
    /// Exact maximum (100th percentile).
    pub p100: Cycles,
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p90={} p99={} p100={}",
            self.count,
            self.mean,
            self.p50.as_u64(),
            self.p90.as_u64(),
            self.p99.as_u64(),
            self.p100.as_u64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &v in values {
            h.record(Cycles::new(v));
        }
        h
    }

    #[test]
    fn counts_sum_to_total_records() {
        let h = filled(&[0, 1, 7, 8, 100, 100, 5000, u64::MAX]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count());
        assert_eq!(h.nonzero_buckets().iter().map(|b| b.2).sum::<u64>(), 8);
    }

    #[test]
    fn buckets_grow_only_to_the_largest_value() {
        let len_for = |max: u64| bucket_index(max) + 1;
        let mut h = LatencyHistogram::new();
        assert!(h.buckets.is_empty());
        h.record(Cycles::new(5));
        assert_eq!(h.buckets.len(), len_for(5));
        h.record_n(Cycles::new(100), 3);
        assert_eq!(h.buckets.len(), len_for(100));
        h.record(Cycles::new(3)); // below the max: no growth
        assert_eq!(h.buckets.len(), len_for(100));

        // Merging either way round lands on the longer length, so equal
        // contents compare equal whatever order built them.
        let long = filled(&[9, 40_000]);
        let mut short_then_long = h.clone();
        short_then_long.merge(&long);
        let mut long_then_short = long.clone();
        long_then_short.merge(&h);
        assert_eq!(short_then_long, long_then_short);
        assert_eq!(short_then_long.buckets.len(), len_for(40_000));

        // The wire form rebuilds the same length, and the top value
        // needs every bucket.
        let rebuilt =
            LatencyHistogram::from_parts(h.total(), h.min(), h.max(), &h.bucket_entries()).unwrap();
        assert_eq!(rebuilt.buckets.len(), h.buckets.len());
        assert_eq!(filled(&[u64::MAX]).buckets.len(), 496);
    }

    #[test]
    fn p100_is_the_exact_max() {
        let h = filled(&[90, 140, 143, 4391]);
        assert_eq!(h.percentile(100.0), Cycles::new(4391));
        assert_eq!(h.max(), Cycles::new(4391));
        assert_eq!(h.summary().p100, Cycles::new(4391));
    }

    #[test]
    fn percentiles_stay_within_one_sub_bucket() {
        // 1000 distinct values 1..=1000: pN must land within 12.5% above
        // the exact order statistic (bucket upper bound), and never
        // below it.
        let values: Vec<u64> = (1..=1000).collect();
        let h = filled(&values);
        for (p, exact) in [(50.0, 500u64), (90.0, 900), (99.0, 990)] {
            let got = h.percentile(p).as_u64();
            assert!(got >= exact, "p{p} undershoots: {got} < {exact}");
            assert!(
                (got as f64) <= exact as f64 * 1.125 + 1.0,
                "p{p} overshoots: {got} vs {exact}"
            );
        }
        assert_eq!(h.percentile(100.0).as_u64(), 1000);
        assert_eq!(h.percentile(0.0).as_u64(), 1);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut bulk = LatencyHistogram::new();
        bulk.record_n(Cycles::new(90), 3);
        bulk.record_n(Cycles::new(140), 1);
        bulk.record_n(Cycles::new(7), 0); // no-op
        let single = filled(&[90, 90, 90, 140]);
        assert_eq!(bulk, single);
        assert_eq!(bulk.count(), 4);
        assert_eq!(bulk.total(), Cycles::new(410));
        assert_eq!(bulk.min(), Cycles::new(90));
        assert_eq!(bulk.max(), Cycles::new(140));
        // A zero-count bulk insert on an empty histogram stays empty.
        let mut empty = LatencyHistogram::new();
        empty.record_n(Cycles::new(1), 0);
        assert_eq!(empty, LatencyHistogram::new());
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), Cycles::ZERO);
        assert_eq!(h.max(), Cycles::ZERO);
        assert_eq!(h.min(), Cycles::ZERO);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
        // Default and new compare equal, as do two untouched histograms.
        assert_eq!(h, LatencyHistogram::default());
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let a = filled(&[1, 50, 900]);
        let b = filled(&[7, 7, 12_000]);
        let c = filled(&[0, u64::MAX]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");

        // The merge is lossless: same as recording everything into one.
        let all = filled(&[1, 50, 900, 7, 7, 12_000, 0, u64::MAX]);
        assert_eq!(ab_c, all);
    }

    #[test]
    fn merging_an_empty_histogram_is_identity() {
        let a = filled(&[10, 20]);
        let mut merged = a.clone();
        merged.merge(&LatencyHistogram::new());
        assert_eq!(merged, a);
        let mut empty = LatencyHistogram::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn parts_round_trip_bit_identically() {
        for h in [
            LatencyHistogram::new(),
            filled(&[0]),
            filled(&[90, 140, 143, 4391, u64::MAX]),
            filled(&[7, 7, 7, 8, 9, 1_000_000]),
        ] {
            let rebuilt =
                LatencyHistogram::from_parts(h.total(), h.min(), h.max(), &h.bucket_entries())
                    .expect("own parts must reconstruct");
            assert_eq!(rebuilt, h);
            assert_eq!(rebuilt.percentile(99.0), h.percentile(99.0));
            assert_eq!(rebuilt.mean(), h.mean());
        }
    }

    #[test]
    fn inconsistent_parts_are_rejected() {
        let h = filled(&[100, 200]);
        let entries = h.bucket_entries();
        let c = |v: u64| Cycles::new(v);
        // A low that is not a bucket boundary.
        assert!(LatencyHistogram::from_parts(c(300), c(100), c(200), &[(101, 2)]).is_none());
        // Zero-count and non-ascending entries.
        assert!(LatencyHistogram::from_parts(c(300), c(100), c(200), &[(96, 0)]).is_none());
        let mut reversed = entries.clone();
        reversed.reverse();
        assert!(LatencyHistogram::from_parts(c(300), c(100), c(200), &reversed).is_none());
        // Extremes outside the occupied buckets, or inverted.
        assert!(LatencyHistogram::from_parts(c(300), c(1), c(200), &entries).is_none());
        assert!(LatencyHistogram::from_parts(c(300), c(100), c(9000), &entries).is_none());
        assert!(LatencyHistogram::from_parts(c(300), c(200), c(100), &entries).is_none());
        // Count overflow across entries.
        assert!(LatencyHistogram::from_parts(c(0), c(0), c(1), &[(0, u64::MAX), (1, 1)]).is_none());
        // Non-empty extremes with no entries.
        assert!(LatencyHistogram::from_parts(c(0), c(0), c(1), &[]).is_none());
        assert!(LatencyHistogram::from_parts(c(0), c(0), c(0), &[]).is_some());
    }

    #[test]
    fn summary_reports_and_displays() {
        let h = filled(&[100, 200, 300, 400]);
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert!((s.mean - 250.0).abs() < 1e-9);
        assert_eq!(s.p100, Cycles::new(400));
        let text = s.to_string();
        assert!(text.contains("n=4") && text.contains("p100=400"));
    }
}
