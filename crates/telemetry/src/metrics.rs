//! The metrics registry: named counters, gauges and power-of-two-bucket
//! latency histograms.
//!
//! Handles are `Arc`-backed: after a one-time lookup in the registry's
//! map, recording is a single relaxed atomic op with no lock and no
//! allocation, cheap enough for the dispatch hot path. Snapshots subtract
//! (`Snapshot::delta`) so tests and the `hbrun --stats` report can reason
//! about "what happened during this run" even though the underlying
//! counters only ever grow.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `u64::MAX`.
pub const HIST_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Clone, Default, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Clone, Default, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Subtracts `n` (wrapping like the additions it undoes).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

struct HistogramCore {
    buckets: [AtomicU64; HIST_BUCKETS],
}

/// A latency histogram with power-of-two buckets.
///
/// Bucket `0` holds the value `0`; bucket `i` (for `i >= 1`) holds values
/// in `[2^(i-1), 2^i)`. [`Histogram::record`] is exactly one relaxed
/// `fetch_add` on the bucket index — count and total are derived at
/// snapshot time, never maintained separately.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }
}

/// Bucket index for a recorded value.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` label).
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Records one observation: a single relaxed atomic add.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Relaxed);
    }

    /// Records a duration in microseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros() as u64);
    }

    /// A consistent-enough copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.0.buckets[i].load(Relaxed)),
        }
    }
}

/// Immutable bucket counts captured from a [`Histogram`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; see [`bucket_upper`] for bounds.
    pub counts: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Cumulative counts: `cumulative()[i]` = observations `<=`
    /// [`bucket_upper`]`(i)`. Non-decreasing by construction.
    pub fn cumulative(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0; HIST_BUCKETS];
        let mut acc = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            acc += c;
            out[i] = acc;
        }
        out
    }

    fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].saturating_sub(earlier.counts[i])),
        }
    }
}

type GaugeFn = Arc<dyn Fn() -> u64 + Send + Sync>;

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    GaugeFn(GaugeFn),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) | Metric::GaugeFn(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named-metric registry.
///
/// [`global()`] is the process-wide instance; per-server instances exist
/// too (each `hbserve` [`Server`](../hardbound_serve/net/struct.Server.html)
/// keeps its own so multiple in-process test servers never collide).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Registry {
        Registry {
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    fn get_or<T: Clone>(
        &self,
        name: &str,
        make: impl FnOnce() -> (T, Metric),
        read: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        let mut map = self.inner.lock().unwrap();
        if let Some(existing) = map.get(name) {
            return read(existing).unwrap_or_else(|| {
                panic!(
                    "metric {name:?} already registered as a {}",
                    existing.kind()
                )
            });
        }
        let (handle, metric) = make();
        map.insert(name.to_string(), metric);
        handle
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or(
            name,
            || {
                let c = Counter::default();
                (c.clone(), Metric::Counter(c))
            },
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or(
            name,
            || {
                let g = Gauge::default();
                (g.clone(), Metric::Gauge(g))
            },
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.get_or(
            name,
            || {
                let h = Histogram::default();
                (h.clone(), Metric::Histogram(h))
            },
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Registers (or replaces) a computed gauge: `f` is evaluated at
    /// snapshot/render time. Keep `f` cheap and deadlock-free — it runs
    /// outside the registry lock but may run on a scrape thread.
    pub fn gauge_fn(&self, name: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.inner
            .lock()
            .unwrap()
            .insert(name.to_string(), Metric::GaugeFn(Arc::new(f)));
    }

    /// Captures every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        // Clone the handles out first so gauge closures (which may take
        // other locks, e.g. the global service mutex) never run under the
        // registry lock.
        let handles: Vec<(String, MetricHandle)> = {
            let map = self.inner.lock().unwrap();
            map.iter()
                .map(|(name, m)| {
                    let h = match m {
                        Metric::Counter(c) => MetricHandle::Counter(c.clone()),
                        Metric::Gauge(g) => MetricHandle::Gauge(g.clone()),
                        Metric::GaugeFn(f) => MetricHandle::GaugeFn(f.clone()),
                        Metric::Histogram(h) => MetricHandle::Histogram(h.clone()),
                    };
                    (name.clone(), h)
                })
                .collect()
        };
        let values = handles
            .into_iter()
            .map(|(name, h)| {
                let v = match h {
                    MetricHandle::Counter(c) => Value::Counter(c.get()),
                    MetricHandle::Gauge(g) => Value::Gauge(g.get()),
                    MetricHandle::GaugeFn(f) => Value::Gauge(f()),
                    MetricHandle::Histogram(h) => Value::Histogram(Box::new(h.snapshot())),
                };
                (name, v)
            })
            .collect();
        Snapshot { values }
    }

    /// Renders every metric in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

enum MetricHandle {
    Counter(Counter),
    Gauge(Gauge),
    GaugeFn(GaugeFn),
    Histogram(Histogram),
}

/// One captured metric value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Value {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading (plain or computed).
    Gauge(u64),
    /// A histogram reading (boxed: a snapshot carries every bucket).
    Histogram(Box<HistogramSnapshot>),
}

/// A point-in-time capture of a [`Registry`].
#[derive(Clone, Default, Debug)]
pub struct Snapshot {
    /// Metric values by name.
    pub values: BTreeMap<String, Value>,
}

impl Snapshot {
    /// The counter named `name`, or 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(Value::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge named `name`, or 0 if absent.
    pub fn gauge(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(Value::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.values.get(name) {
            Some(Value::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// What happened between `earlier` and `self`: counters and histogram
    /// buckets subtract (saturating, so a metric registered in between
    /// reads as its full value); gauges keep the later reading.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let values = self
            .values
            .iter()
            .map(|(name, v)| {
                let dv = match (v, earlier.values.get(name)) {
                    (Value::Counter(now), Some(Value::Counter(then))) => {
                        Value::Counter(now.saturating_sub(*then))
                    }
                    (Value::Histogram(now), Some(Value::Histogram(then))) => {
                        Value::Histogram(Box::new(now.delta(then)))
                    }
                    (v, _) => v.clone(),
                };
                (name.clone(), dv)
            })
            .collect();
        Snapshot { values }
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// `# TYPE` comments, `name value` samples, histograms as cumulative
    /// `_bucket{le="..."}` series plus `_count`.
    ///
    /// Output is ordered by the **sanitized** metric name (labels within a
    /// histogram family stay in bucket order). The registry map is keyed
    /// by raw names, where `.` sorts before alphanumerics but sanitizes to
    /// `_`, which sorts after — so iterating the map directly would leave
    /// the exposition order dependent on which spelling registered the
    /// metric, and repeated scrapes would not diff cleanly.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut entries: Vec<(String, &Value)> = self
            .values
            .iter()
            .map(|(name, v)| (sanitize(name), v))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        for (name, v) in entries {
            match v {
                Value::Counter(n) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {n}");
                }
                Value::Gauge(n) => {
                    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {n}");
                }
                Value::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let cum = h.cumulative();
                    let mut last = 0;
                    for (i, c) in cum.iter().enumerate() {
                        // Elide empty interior buckets to keep scrapes small;
                        // cumulative counts stay correct because each emitted
                        // bucket carries the running total.
                        if *c != last || i == 0 {
                            let _ =
                                writeln!(out, "{name}_bucket{{le=\"{}\"}} {c}", bucket_upper(i));
                            last = *c;
                        }
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Extracts a plain `name value` sample from Prometheus-format text, as
/// produced by [`Snapshot::render`] — the scrape-side complement used by
/// tests and operational scripts.
pub fn scrape_value(text: &str, name: &str) -> Option<u64> {
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        if parts.next() == Some(name) {
            if let Some(v) = parts.next() {
                return v.parse().ok();
            }
        }
    }
    None
}

static GLOBAL: Registry = Registry::new();

/// The process-global registry.
pub fn global() -> &'static Registry {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_of(bucket_upper(i)), i, "upper bound of bucket {i}");
        }
        for i in 1..HIST_BUCKETS {
            assert_eq!(bucket_of(bucket_upper(i - 1) + 1), i);
        }
    }

    #[test]
    fn registry_handles_are_shared_and_kind_checked() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.snapshot().counter("x"), 3);
        assert!(std::panic::catch_unwind(|| r.gauge("x")).is_err());
    }

    #[test]
    fn snapshot_delta_subtracts_counters_and_keeps_gauges() {
        let r = Registry::new();
        let c = r.counter("c");
        let g = r.gauge("g");
        let h = r.histogram("h");
        c.add(5);
        g.set(10);
        h.record(3);
        let before = r.snapshot();
        c.add(7);
        g.set(4);
        h.record(3);
        h.record(100);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.counter("c"), 7);
        assert_eq!(d.gauge("g"), 4);
        let hd = d.histogram("h").unwrap();
        assert_eq!(hd.count(), 2);
        assert_eq!(hd.counts[bucket_of(3)], 1);
        assert_eq!(hd.counts[bucket_of(100)], 1);
    }

    #[test]
    fn render_is_sorted_by_sanitized_name() {
        // Raw map order would put "grid.cells" (`.` = 0x2e) before
        // "grid_age" (`_` = 0x5f); after sanitizing, "grid_age" must come
        // first. Pin the exact exposition text so any ordering regression
        // shows up as a golden diff.
        let r = Registry::new();
        r.counter("grid.cells").add(7);
        r.gauge("grid_age").set(3);
        r.counter("grid_cells_total").add(9);
        let golden = "# TYPE grid_age gauge\n\
                      grid_age 3\n\
                      # TYPE grid_cells counter\n\
                      grid_cells 7\n\
                      # TYPE grid_cells_total counter\n\
                      grid_cells_total 9\n";
        assert_eq!(r.render(), golden);
        // Repeated scrapes of an idle registry are byte-identical.
        assert_eq!(r.render(), r.render());
    }

    #[test]
    fn render_and_scrape_round_trip() {
        let r = Registry::new();
        r.counter("cells.executed").add(42);
        r.gauge_fn("uptime", || 9);
        r.histogram("lat_us").record(5);
        let text = r.render();
        assert_eq!(scrape_value(&text, "cells_executed"), Some(42));
        assert_eq!(scrape_value(&text, "uptime"), Some(9));
        assert_eq!(scrape_value(&text, "lat_us_count"), Some(1));
        assert!(text.contains("# TYPE cells_executed counter"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 1"));
    }
}
