//! Process-global metrics: counters, gauges, and fixed-bucket latency
//! histograms behind cheap atomic handles.
//!
//! Handles are `Arc`s into a global registry; the [`crate::counter!`],
//! [`crate::gauge!`], and [`crate::histogram!`] macros cache the registry
//! lookup in a per-call-site static. A [`Counter`] is an array of
//! cache-line-aligned per-thread cells, so a hot-path increment is one
//! uncontended atomic add on the calling thread's cell and threads
//! counting the same event never share a cache line; reads sum the
//! cells. [`snapshot`] freezes every metric into plain data that exports
//! through [`sim_rt::ser`] — the same JSONL/CSV pipeline the attack
//! results use.
//!
//! # Examples
//!
//! ```
//! let c = obs::metrics::counter("doc.reads");
//! c.add(3);
//! let h = obs::metrics::histogram("doc.latency_ns");
//! h.observe(900);
//! h.observe(1_800);
//!
//! let snap = obs::metrics::snapshot();
//! assert_eq!(snap.counter("doc.reads"), Some(3));
//! let s = snap.histogram("doc.latency_ns").unwrap();
//! assert_eq!(s.count, 2);
//! assert!(s.p50 >= 900.0 && s.p99 <= 2_048.0);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use sim_rt::ser::{Record, ToRecord};

/// Runtime kill-switch: when `false`, every counter/gauge/histogram
/// update is a no-op (one relaxed load). Used by the overhead bench to
/// compare instrumented and uninstrumented hot paths in one binary; the
/// `compile-off` feature removes updates entirely.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables all metric updates at runtime.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether metric updates are currently live.
pub fn enabled() -> bool {
    !crate::COMPILED_OUT && ENABLED.load(Ordering::Relaxed)
}

/// Cells per [`Counter`]. Threads take cells round-robin in creation
/// order, so up to this many live threads (pool workers, serve threads)
/// count without sharing a cache line.
const CELLS: usize = 16;

/// One counter cell, alone on its cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Cell(AtomicU64);

/// The calling thread's cell index, assigned on its first count.
fn cell_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % CELLS;
    }
    INDEX.with(|i| *i)
}

/// Monotonically increasing event count, sharded into per-thread cells
/// that [`Counter::get`] sums.
#[derive(Debug, Default)]
pub struct Counter {
    cells: [Cell; CELLS],
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cells[cell_index()].0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one even when metrics are disabled — for bookkeeping the
    /// observability layer itself relies on (per-level event counts).
    pub(crate) fn force_inc(&self) {
        if !crate::COMPILED_OUT {
            self.cells[cell_index()].0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current value: the sum over every thread's cell.
    pub fn get(&self) -> u64 {
        self.cells
            .iter()
            .fold(0u64, |sum, c| sum.wrapping_add(c.0.load(Ordering::Relaxed)))
    }

    fn reset(&self) {
        for c in &self.cells {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        if enabled() {
            self.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// Bucket count: values 0–15 exactly, then four linear sub-buckets per
/// power of two up to `u64::MAX` (HDR-style, ≤ 25 % relative bucket
/// width).
const BUCKETS: usize = 16 + 60 * 4;

/// Fixed-bucket histogram of non-negative integer samples (typically
/// latency nanoseconds).
///
/// Small values (0–15) are recorded exactly; larger values land in one of
/// four linear sub-buckets per power of two, bounding the relative
/// quantization error of any percentile estimate at ~25 %. `min`, `max`,
/// `sum`, and `count` are tracked exactly.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 4
    let sub = ((v >> (msb - 2)) & 3) as usize;
    16 + (msb - 4) * 4 + sub
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lo(i: usize) -> u64 {
    if i < 16 {
        return i as u64;
    }
    let msb = (i - 16) / 4 + 4;
    let sub = ((i - 16) % 4) as u64;
    (1u64 << msb) + sub * (1u64 << (msb - 2))
}

/// Exclusive upper bound of bucket `i` (saturating at `u64::MAX`).
fn bucket_hi(i: usize) -> u64 {
    if i < 16 {
        return i as u64 + 1;
    }
    let msb = (i - 16) / 4 + 4;
    bucket_lo(i).saturating_add(1u64 << (msb - 2))
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the covering bucket, clamped to the observed min/max.
    /// Returns `NaN` for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let count = self.count();
        if count == 0 {
            return f64::NAN;
        }
        let rank = (q * count as f64).ceil().max(1.0);
        let mut cum = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if (cum + n) as f64 >= rank {
                let lo = bucket_lo(i) as f64;
                let hi = bucket_hi(i) as f64;
                // Rank r of the bucket's n samples sits at fraction
                // (r-1)/n through [lo, hi): rank 1 of 1 is lo, not hi.
                let within = (rank - cum as f64 - 1.0) / n as f64;
                let est = lo + (hi - lo) * within;
                let min = self.min.load(Ordering::Relaxed) as f64;
                let max = self.max.load(Ordering::Relaxed) as f64;
                return est.clamp(min, max);
            }
            cum += n;
        }
        self.max.load(Ordering::Relaxed) as f64
    }

    /// Freezes the histogram into plain summary data.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let sum = self.sum.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum,
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            mean: if count == 0 {
                f64::NAN
            } else {
                sum as f64 / count as f64
            },
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }

    fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Plain-data summary of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Exact mean (`NaN` when empty).
    pub mean: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Registers (or retrieves) the counter named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: impl Into<String>) -> Arc<Counter> {
    let name = name.into();
    let mut map = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let metric = map
        .entry(name.clone())
        .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
    match metric {
        Metric::Counter(c) => Arc::clone(c),
        other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
    }
}

/// Registers (or retrieves) the gauge named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: impl Into<String>) -> Arc<Gauge> {
    let name = name.into();
    let mut map = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let metric = map
        .entry(name.clone())
        .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())));
    match metric {
        Metric::Gauge(g) => Arc::clone(g),
        other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
    }
}

/// Registers (or retrieves) the histogram named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: impl Into<String>) -> Arc<Histogram> {
    let name = name.into();
    let mut map = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let metric = map
        .entry(name.clone())
        .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())));
    match metric {
        Metric::Histogram(h) => Arc::clone(h),
        other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
    }
}

/// Zeroes every registered metric in place (handles cached at call sites
/// stay valid). For tests and between-campaign baselines.
pub fn reset() {
    let map = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for metric in map.values() {
        match metric {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

/// One frozen counter value.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One frozen gauge value.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: f64,
}

/// One frozen histogram summary.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Percentile summary at snapshot time.
    pub summary: HistogramSummary,
}

/// A frozen copy of the whole registry, ordered by metric name within
/// each kind.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<CounterSample>,
    /// All gauges.
    pub gauges: Vec<GaugeSample>,
    /// All histograms.
    pub histograms: Vec<HistogramSample>,
}

/// Mirrors the [`sim_rt::lockorder`] watchdog counters into the registry
/// as gauges (`lockorder.acquisitions`, `lockorder.edges_tracked`,
/// `lockorder.cycles_detected`). Called by every [`snapshot`], so exports
/// always carry fresh values; in release builds all three read zero.
pub fn sync_lockorder() {
    gauge("lockorder.acquisitions").set(sim_rt::lockorder::acquisitions() as f64);
    gauge("lockorder.edges_tracked").set(sim_rt::lockorder::edges_tracked() as f64);
    gauge("lockorder.cycles_detected").set(sim_rt::lockorder::cycles_detected() as f64);
}

/// Mirrors the [`sim_rt::pool::profile`] aggregate totals into the
/// registry as gauges (`pool.profile.enabled`, `.samples`, `.run_ns`,
/// `.steal_ns`). Called by every [`snapshot`]; with profiling disabled
/// the totals read zero but the names still export, so dashboards can
/// pin them unconditionally.
pub fn sync_pool_profile() {
    let stats = sim_rt::pool::profile::stats();
    gauge("pool.profile.enabled").set(if stats.enabled { 1.0 } else { 0.0 });
    gauge("pool.profile.samples").set(stats.samples as f64);
    gauge("pool.profile.run_ns").set(stats.run_ns as f64);
    gauge("pool.profile.steal_ns").set(stats.steal_ns as f64);
}

/// Freezes every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    sync_lockorder();
    sync_pool_profile();
    let map = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut snap = MetricsSnapshot::default();
    for (name, metric) in map.iter() {
        match metric {
            Metric::Counter(c) => snap.counters.push(CounterSample {
                name: name.clone(),
                value: c.get(),
            }),
            Metric::Gauge(g) => snap.gauges.push(GaugeSample {
                name: name.clone(),
                value: g.get(),
            }),
            Metric::Histogram(h) => snap.histograms.push(HistogramSample {
                name: name.clone(),
                summary: h.summary(),
            }),
        }
    }
    snap
}

/// The shared export schema: one row per metric, uniform field set across
/// kinds so mixed snapshots render as a single CSV table.
fn metric_record(
    name: &str,
    kind: &str,
    value: Option<f64>,
    summary: Option<&HistogramSummary>,
) -> Record {
    let mut r = Record::new();
    r.push("name", name).push("kind", kind).push("value", value);
    match summary {
        Some(s) => {
            r.push("count", s.count)
                .push("sum", s.sum)
                .push("min", s.min)
                .push("max", s.max)
                .push("mean", s.mean)
                .push("p50", s.p50)
                .push("p95", s.p95)
                .push("p99", s.p99);
        }
        None => {
            r.push("count", None::<u64>)
                .push("sum", None::<u64>)
                .push("min", None::<u64>)
                .push("max", None::<u64>)
                .push("mean", None::<f64>)
                .push("p50", None::<f64>)
                .push("p95", None::<f64>)
                .push("p99", None::<f64>);
        }
    }
    r
}

impl ToRecord for CounterSample {
    fn to_record(&self) -> Record {
        metric_record(&self.name, "counter", Some(self.value as f64), None)
    }
}

impl ToRecord for GaugeSample {
    fn to_record(&self) -> Record {
        metric_record(&self.name, "gauge", Some(self.value), None)
    }
}

impl ToRecord for HistogramSample {
    fn to_record(&self) -> Record {
        metric_record(&self.name, "histogram", None, Some(&self.summary))
    }
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.summary)
    }

    /// Total number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One export record per metric, counters first, uniform schema.
    pub fn to_records(&self) -> Vec<Record> {
        let mut out: Vec<Record> = Vec::with_capacity(self.len());
        out.extend(self.counters.iter().map(ToRecord::to_record));
        out.extend(self.gauges.iter().map(ToRecord::to_record));
        out.extend(self.histograms.iter().map(ToRecord::to_record));
        out
    }

    /// Renders the snapshot as JSON Lines, one object per metric with a
    /// uniform schema across counters, gauges, and histograms.
    pub fn to_jsonl(&self) -> String {
        sim_rt::to_jsonl(&self.to_records())
    }

    /// Renders the snapshot as CSV, one row per metric (same rows as
    /// [`MetricsSnapshot::to_jsonl`]).
    pub fn to_csv(&self) -> String {
        sim_rt::to_csv(self.to_records().iter())
    }

    /// Renders an aligned human-readable table (the `--profile` view).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for c in &self.counters {
                out.push_str(&format!("  {:<44} {:>14}\n", c.name, c.value));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for g in &self.gauges {
                out.push_str(&format!("  {:<44} {:>14.3}\n", g.name, g.value));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (ns):\n");
            out.push_str(&format!(
                "  {:<44} {:>10} {:>12} {:>12} {:>12}\n",
                "name", "count", "p50", "p95", "p99"
            ));
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {:<44} {:>10} {:>12.0} {:>12.0} {:>12.0}\n",
                    h.name, h.summary.count, h.summary.p50, h.summary.p95, h.summary.p99
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_maths_is_consistent() {
        // Every value lands in a bucket whose [lo, hi) range contains it.
        for v in (0..2_000u64).chain([
            4_095,
            4_096,
            1 << 20,
            (1 << 40) + 12_345,
            u64::MAX - 1,
            u64::MAX,
        ]) {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "{v}");
            assert!(
                bucket_lo(i) <= v && (v < bucket_hi(i) || bucket_hi(i) == u64::MAX),
                "v={v} bucket={i} lo={} hi={}",
                bucket_lo(i),
                bucket_hi(i)
            );
        }
        // Buckets tile the axis: each hi is the next bucket's lo.
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_hi(i), bucket_lo(i + 1), "bucket {i}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::default();
        for v in 0..16u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 16);
        // p-quantiles of 0..15 interpolate inside exact one-wide buckets.
        assert!(
            (h.percentile(0.5) - 8.0).abs() <= 1.0,
            "{}",
            h.percentile(0.5)
        );
        assert_eq!(h.percentile(1.0), 15.0);
        assert_eq!(h.percentile(0.0), 0.0);
    }

    #[test]
    fn percentiles_of_uniform_range_are_within_bucket_error() {
        let h = Histogram::default();
        for v in 1..=10_000u64 {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10_000);
        assert!((s.mean - 5_000.5).abs() < 1e-9);
        // ≤ 25 % relative bucket width bounds each estimate.
        assert!((s.p50 - 5_000.0).abs() / 5_000.0 < 0.25, "p50 {}", s.p50);
        assert!((s.p95 - 9_500.0).abs() / 9_500.0 < 0.25, "p95 {}", s.p95);
        assert!((s.p99 - 9_900.0).abs() / 9_900.0 < 0.25, "p99 {}", s.p99);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn empty_histogram_summary() {
        let h = Histogram::default();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert!(s.mean.is_nan());
        assert!(s.p50.is_nan());
    }

    #[test]
    #[should_panic(expected = "[0, 1]")]
    fn quantile_out_of_range_panics() {
        Histogram::default().percentile(1.5);
    }

    #[test]
    fn registry_roundtrip_and_snapshot() {
        counter("test.reg.counter").add(5);
        gauge("test.reg.gauge").set(2.5);
        histogram("test.reg.hist").observe(100);
        let snap = snapshot();
        assert_eq!(snap.counter("test.reg.counter"), Some(5));
        assert_eq!(snap.gauge("test.reg.gauge"), Some(2.5));
        assert_eq!(snap.histogram("test.reg.hist").unwrap().count, 1);
        assert!(snap.counter("test.reg.missing").is_none());
        assert!(!snap.is_empty());

        // Same-name lookups return the same underlying metric.
        counter("test.reg.counter").add(1);
        assert_eq!(snapshot().counter("test.reg.counter"), Some(6));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        counter("test.reg.kind-clash").inc();
        let _ = gauge("test.reg.kind-clash");
    }

    #[test]
    fn snapshot_records_share_one_schema() {
        counter("test.schema.c").inc();
        gauge("test.schema.g").set(1.0);
        histogram("test.schema.h").observe(10);
        let records = snapshot().to_records();
        assert!(records.len() >= 3);
        let names: Vec<Vec<String>> = records
            .iter()
            .map(|r| r.names().map(str::to_string).collect())
            .collect();
        assert!(names.iter().all(|n| n == &names[0]), "uniform CSV schema");
        // And the whole snapshot renders as one CSV table.
        let csv = sim_rt::ser::to_csv(records.iter());
        assert!(csv.starts_with("name,kind,value,count,"));
    }

    /// Serializes the tests that toggle [`set_enabled`] against those that
    /// assert exact totals: the kill-switch is process-global.
    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn sharded_counter_sums_every_thread() {
        let _guard = exclusive();
        let c = counter("test.sharded.counter");
        let threads: Vec<usize> = (0..8).collect();
        let start = std::sync::Barrier::new(threads.len());
        sim_rt::pool::Pool::new(threads.len()).par_map(&threads, |_, _| {
            start.wait();
            for _ in 0..100_000 {
                c.inc();
            }
        });
        assert_eq!(c.get(), 800_000);
        assert_eq!(snapshot().counter("test.sharded.counter"), Some(800_000));
    }

    #[test]
    fn counter_reset_zeroes_every_cell() {
        let _guard = exclusive();
        let c = Counter::default();
        let threads: Vec<usize> = (0..CELLS + 3).collect();
        // The barrier holds every job on its own worker thread.
        let start = std::sync::Barrier::new(threads.len());
        sim_rt::pool::Pool::new(threads.len()).par_map(&threads, |_, &i| {
            start.wait();
            c.add(i as u64 + 1);
        });
        assert!(
            c.cells
                .iter()
                .filter(|cell| cell.0.load(Ordering::Relaxed) > 0)
                .count()
                > 1
        );
        c.reset();
        assert!(c
            .cells
            .iter()
            .all(|cell| cell.0.load(Ordering::Relaxed) == 0));
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn add_and_force_inc_share_one_total() {
        let _guard = exclusive();
        let c = Counter::default();
        let jobs = [0usize, 1, 2, 3];
        sim_rt::pool::Pool::new(jobs.len()).par_map(&jobs, |_, &j| {
            if j % 2 == 0 {
                c.add(10);
            } else {
                c.force_inc();
            }
        });
        c.add(5);
        c.force_inc();
        assert_eq!(c.get(), 10 + 1 + 10 + 1 + 5 + 1);
    }

    #[test]
    fn disabled_metrics_do_not_record() {
        let _guard = exclusive();
        let c = counter("test.disabled.counter");
        set_enabled(false);
        c.inc();
        set_enabled(true);
        let before = c.get();
        c.inc();
        assert_eq!(c.get(), before + 1);
    }

    #[test]
    fn render_table_lists_every_metric() {
        counter("test.table.c").add(2);
        histogram("test.table.h").observe(50);
        let table = snapshot().render_table();
        assert!(table.contains("test.table.c"));
        assert!(table.contains("test.table.h"));
        assert!(table.contains("p95"));
    }
}
