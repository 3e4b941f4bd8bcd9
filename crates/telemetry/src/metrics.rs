//! Metrics registry: ordered counters / gauges / latency histograms.
//!
//! Everything is `BTreeMap`-backed so snapshots iterate in a deterministic
//! order (lint R1), and the histogram uses fixed log₂ buckets with three
//! sub-bucket bits, bounding quantile error at ≈12.5% while keeping the
//! whole structure a flat `Vec<u64>`.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use reopt_common::lock_unpoisoned;

/// Values below this are given exact single-value buckets.
const LINEAR_CUTOFF: u64 = 16;
/// Sub-bucket bits per power of two above the linear cutoff.
const SUB_BITS: u64 = 3;
const SUBS: u64 = 1 << SUB_BITS;
/// Bucket count: 16 exact + 8 sub-buckets for each msb in 4..=63.
const NUM_BUCKETS: usize = (LINEAR_CUTOFF + (64 - 4) * SUBS) as usize;

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let msb = 63 - u64::from(v.leading_zeros()); // >= 4
        let sub = (v >> (msb - SUB_BITS)) & (SUBS - 1);
        (LINEAR_CUTOFF + (msb - 4) * SUBS + sub) as usize
    }
}

/// Largest value that maps to bucket `i` (inclusive).
fn bucket_upper_bound(i: usize) -> u64 {
    let i = i as u64;
    if i < LINEAR_CUTOFF {
        i
    } else {
        let j = i - LINEAR_CUTOFF;
        let msb = j / SUBS + 4;
        let sub = j % SUBS;
        // Widen: the top sub-bucket of the msb=63 octave overflows u64.
        let ub = ((u128::from(SUBS + sub + 1)) << (msb - SUB_BITS)) - 1;
        u64::try_from(ub).unwrap_or(u64::MAX)
    }
}

/// Fixed-bucket latency histogram over `u64` microsecond samples.
///
/// Exact below 16µs, ≤12.5% relative error above; 496 buckets total.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn observe(&mut self, micros: u64) {
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(micros);
        self.max_us = self.max_us.max(micros);
        self.counts[bucket_index(micros)] += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Upper bound (inclusive) of the bucket holding the `q`-quantile
    /// sample, with `q` in `[0, 1]`. Exact for values < 16µs; otherwise
    /// within 12.5% above the true sample. Returns 0 on an empty histogram.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                // Never report past the observed maximum.
                return bucket_upper_bound(i).min(self.max_us);
            }
        }
        self.max_us
    }

    pub fn p50(&self) -> u64 {
        self.quantile_upper_bound(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile_upper_bound(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile_upper_bound(0.99)
    }

    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_us: self.sum_us.checked_div(self.count).unwrap_or(0),
            max_us: self.max_us,
            p50_us: self.p50(),
            p95_us: self.p95(),
            p99_us: self.p99(),
        }
    }

    /// `(inclusive upper bound µs, count)` for every non-empty bucket.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (bucket_upper_bound(i), *c))
            .collect()
    }
}

/// Compact, `Copy` summary of a latency histogram — all-µs integers so it
/// can ride in `Copy + Eq` stats structs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    pub count: u64,
    pub mean_us: u64,
    pub max_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LatencyHistogram>,
}

/// Shared, thread-safe registry. Cloning shares the underlying maps.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (creating it at zero).
    pub fn add(&self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        match inner.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    pub fn set_gauge(&self, name: &str, v: f64) {
        let mut inner = lock_unpoisoned(&self.inner);
        match inner.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                inner.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Record one sample into the named latency histogram.
    pub fn observe_micros(&self, name: &str, micros: u64) {
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(h) = inner.histograms.get_mut(name) {
            h.observe(micros);
        } else {
            let mut h = LatencyHistogram::new();
            h.observe(micros);
            inner.histograms.insert(name.to_string(), h);
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        lock_unpoisoned(&self.inner)
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    pub fn latency_summary(&self, name: &str) -> LatencySummary {
        lock_unpoisoned(&self.inner)
            .histograms
            .get(name)
            .map(LatencyHistogram::summary)
            .unwrap_or_default()
    }

    /// Point-in-time copy of everything in the registry, in sorted order.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = lock_unpoisoned(&self.inner);
        TelemetrySnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            summary: h.summary(),
                            buckets: h.nonzero_buckets(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Immutable snapshot of one histogram.
#[derive(Debug, Clone, Default)]
pub struct HistogramSnapshot {
    pub summary: LatencySummary,
    /// `(inclusive upper bound µs, count)` for non-empty buckets.
    pub buckets: Vec<(u64, u64)>,
}

/// Immutable, ordered snapshot of the whole registry. Counters come only
/// from the registry; callers may add point-in-time gauges (sizes, versions)
/// with [`TelemetrySnapshot::set_gauge`] before handing it out.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl TelemetrySnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Sorted plain-text dump (one `name value` pair per line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge {k} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let s = h.summary;
            out.push_str(&format!(
                "histogram {k} count={} mean_us={} p50_us={} p95_us={} p99_us={} max_us={}\n",
                s.count, s.mean_us, s.p50_us, s.p95_us, s.p99_us, s.max_us
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_u64_line() {
        // Every bucket's upper bound maps back to that bucket, and the next
        // integer maps to a strictly later bucket.
        for i in 0..NUM_BUCKETS {
            let ub = bucket_upper_bound(i);
            assert_eq!(bucket_index(ub), i, "upper bound of bucket {i}");
            if ub < u64::MAX {
                assert!(bucket_index(ub + 1) > i, "successor of bucket {i}");
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        // For v >= 16 the bucket upper bound overshoots by at most 12.5%.
        for v in [16u64, 100, 999, 4096, 123_456, 987_654_321] {
            let ub = bucket_upper_bound(bucket_index(v));
            assert!(ub >= v);
            assert!((ub - v) as f64 <= v as f64 * 0.125, "v={v} ub={ub}");
        }
    }

    #[test]
    fn exact_quantiles_below_cutoff() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.observe(v);
        }
        assert_eq!(h.p50(), 5);
        assert_eq!(h.quantile_upper_bound(1.0), 10);
        assert_eq!(h.quantile_upper_bound(0.0), 1);
    }

    #[test]
    fn uniform_distribution_quantiles_within_error_band() {
        // 1..=1000 µs uniformly: true p50=500, p95=950, p99=990.
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.mean_us, 500);
        assert_eq!(s.max_us, 1000);
        for (got, want) in [(s.p50_us, 500.0), (s.p95_us, 950.0), (s.p99_us, 990.0)] {
            assert!(got as f64 >= want, "got {got} want >= {want}");
            assert!(
                got as f64 <= want * 1.125,
                "got {got} want <= {}",
                want * 1.125
            );
        }
    }

    #[test]
    fn constant_distribution_is_exact_to_the_bucket() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.observe(777);
        }
        let ub = bucket_upper_bound(bucket_index(777));
        assert_eq!(h.p50(), ub.min(777));
        assert_eq!(h.p99(), ub.min(777));
        assert_eq!(h.summary().mean_us, 777);
    }

    #[test]
    fn quantiles_never_exceed_observed_max() {
        let mut h = LatencyHistogram::new();
        h.observe(1_000_000);
        assert_eq!(h.p99(), 1_000_000);
        assert_eq!(h.summary().max_us, 1_000_000);
    }

    #[test]
    fn merge_matches_combined_observation() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in [3u64, 17, 250, 9000] {
            a.observe(v);
            all.observe(v);
        }
        for v in [5u64, 42, 100_000] {
            b.observe(v);
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.summary(), all.summary());
    }

    #[test]
    fn registry_is_ordered_and_shared() {
        let r = MetricsRegistry::new();
        let r2 = r.clone();
        r.add("z.last", 1);
        r.add("a.first", 2);
        r2.add("a.first", 3);
        r.set_gauge("g", 1.5);
        r.observe_micros("lat", 100);
        r.observe_micros("lat", 200);

        assert_eq!(r.counter("a.first"), 5);
        assert_eq!(r.counter("missing"), 0);
        let snap = r2.snapshot();
        let keys: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(keys, ["a.first", "z.last"]);
        assert_eq!(snap.gauge("g"), Some(1.5));
        assert_eq!(snap.histograms["lat"].summary.count, 2);
        assert!(snap.render().contains("counter a.first 5"));
    }
}
