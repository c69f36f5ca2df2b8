//! Typed metrics registry: counters, gauges, and log₂ histograms.
//!
//! The registry is the cross-experiment store behind the observability
//! layer. Instrumentation sites resolve a handle once
//! ([`Registry::counter`] / [`Registry::gauge`] / [`Registry::histogram`])
//! and then update it with relaxed atomics — wait-free on the hot path.
//!
//! **Determinism contract.** Every value recorded into the registry must
//! be *simulation-domain* (event counts, settle times in simulated time
//! units, lane counts, probe counts) — never wall-clock time. Sums of such
//! values are commutative, so [`Registry::snapshot`] totals are
//! bit-identical regardless of worker-thread count or interleaving; the
//! `OLA_THREADS=1` vs `=4` proptest holds the whole instrumentation set to
//! that standard. Wall-clock timing lives in spans
//! ([`trace`](crate::obs::trace)), which are deliberately excluded from
//! snapshot equality.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotonically increasing sum.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
///
/// Only record *deterministic* quantities (e.g. the depth of the last
/// compiled batch program) — see the module docs.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: bucket `k < 64` counts values `v` with
/// `bit_length(v) == k` (i.e. `v == 0` → bucket 0, `1` → 1, `2..3` → 2,
/// `4..7` → 3, …); the top bucket catches the rest.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram over `u64` samples, with exact count and sum.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0u64; BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Bucket index of a sample: its bit length.
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded samples (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// `(bucket_index, count)` for every non-empty bucket, ascending.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect()
    }
}

/// A point-in-time copy of every metric, keyed by metric name.
///
/// Counters appear under their name; gauges under their name (as `i64`
/// values); histograms expand to `name/count`, `name/sum` and one
/// `name/bl<k>` entry per non-empty bit-length bucket. All values are
/// integers, so snapshot equality and [`MetricSnapshot::diff`] are exact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// Counter and histogram totals (monotone, diffable).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values (instantaneous, not diffed — the later value wins).
    pub gauges: BTreeMap<String, i64>,
}

impl MetricSnapshot {
    /// The change since `earlier`: counters subtract (saturating, dropping
    /// zero entries); gauges keep this snapshot's values.
    #[must_use]
    pub fn diff(&self, earlier: &MetricSnapshot) -> MetricSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, &v)| {
                let delta = v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0));
                (delta > 0).then(|| (k.clone(), delta))
            })
            .collect();
        MetricSnapshot { counters, gauges: self.gauges.clone() }
    }

    /// True when no counter moved and no gauge is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named family of metrics.
///
/// `ola-core` keeps one process-global registry
/// ([`crate::obs::registry()`]); independent registries can be created for
/// tests.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// A point-in-time copy of every registered metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricSnapshot {
        let map = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let mut snap = MetricSnapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.counters.insert(format!("{name}/count"), h.count());
                    snap.counters.insert(format!("{name}/sum"), h.sum());
                    for (bucket, n) in h.nonzero_buckets() {
                        snap.counters.insert(format!("{name}/bl{bucket}"), n);
                    }
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("x").get(), 5, "same handle behind the name");
        let g = r.gauge("g");
        g.set(-7);
        g.add(3);
        assert_eq!(g.get(), -4);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 0u64.wrapping_add(1 + 2 + 3 + 4 + 1000).wrapping_add(u64::MAX));
        let buckets: BTreeMap<usize, u64> = h.nonzero_buckets().into_iter().collect();
        assert_eq!(buckets[&0], 1, "0");
        assert_eq!(buckets[&1], 1, "1");
        assert_eq!(buckets[&2], 2, "2..3");
        assert_eq!(buckets[&3], 1, "4..7");
        assert_eq!(buckets[&10], 1, "512..1023");
        assert_eq!(buckets[&64], 1, "top");
    }

    #[test]
    fn snapshot_diff_subtracts_counters() {
        let r = Registry::new();
        r.counter("a").add(10);
        let before = r.snapshot();
        r.counter("a").add(5);
        r.counter("b").add(2);
        r.histogram("h").observe(3);
        let after = r.snapshot();
        let d = after.diff(&before);
        assert_eq!(d.counters["a"], 5);
        assert_eq!(d.counters["b"], 2);
        assert_eq!(d.counters["h/count"], 1);
        assert_eq!(d.counters["h/sum"], 3);
        assert_eq!(d.counters["h/bl2"], 1);
        assert!(after.diff(&after).is_empty() || !after.gauges.is_empty());
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_is_rejected() {
        let r = Registry::new();
        let _ = r.gauge("m");
        let _ = r.counter("m");
    }

    #[test]
    fn concurrent_adds_sum_exactly() {
        let r = Registry::new();
        let c = r.counter("n");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }
}
