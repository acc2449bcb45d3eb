//! Std-only observability for the EdgeBOL reproduction.
//!
//! The paper's whole pitch is closing a *measurement* loop — the
//! orchestrator steers energy and delay from observed KPIs — so the
//! reproduction exports the same kind of telemetry an O-RAN energy-saving
//! rApp would: per-period step latency, per-stage control-plane failures,
//! injected-fault counts, runner utilization. This crate is the registry
//! those layers record into. Its one dependency is the std-only
//! `edgebol-trace`, whose JSON string escaper and `f64` writer
//! [`Snapshot::to_json`] shares. It has three metric kinds:
//!
//! * [`Counter`] — a monotonically increasing `u64` ([`Counter::inc`] /
//!   [`Counter::add`]).
//! * [`Gauge`] — a last-write-wins `f64` ([`Gauge::set`] / [`Gauge::add`]).
//! * [`Histogram`] — fixed upper-bound buckets plus a running count and
//!   sum ([`Histogram::observe`]); bucket layout is chosen at
//!   registration and never reallocated.
//!
//! All three are backed by [`std::sync::atomic::AtomicU64`] cells, so
//! handles are `Send + Sync`, recording is lock-free, and the registry
//! can be shared across the parallel experiment runner's worker threads.
//!
//! # Naming scheme
//!
//! Metric names follow `edgebol_<layer>_<name>` with Prometheus-style
//! unit suffixes (`_total`, `_seconds`, `_bytes`) and optional labels
//! rendered into the name (`edgebol_oran_frames_total{dir="tx",link="A1"}`
//! — see [`Registry::counter_with`]). DESIGN.md §8 documents the full
//! scheme and every metric the workspace exports.
//!
//! # Disabled registries
//!
//! [`Registry::default`] (= [`Registry::disabled`]) is a null registry:
//! every handle it returns is a no-op whose record path is a single
//! branch on an `Option`, no allocation, no clock read ([`Stopwatch`]
//! skips [`std::time::Instant::now`] entirely). Instrumented layers
//! therefore take a `Registry` unconditionally and cost nothing unless
//! the caller opted in — the argument is spelled out in DESIGN.md §8 and
//! pinned by `tests/metrics.rs`.
//!
//! # Example
//!
//! ```
//! use edgebol_metrics::Registry;
//!
//! let reg = Registry::new();
//! reg.counter("edgebol_core_periods_total").inc();
//! let h = reg.histogram("edgebol_core_step_latency_seconds", &[0.01, 0.1, 1.0]);
//! h.observe(0.042);
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("edgebol_core_periods_total"), Some(1));
//! assert!(snap.render_prometheus().contains("edgebol_core_periods_total 1"));
//! ```

#![deny(missing_docs)]

use edgebol_trace::json::{escape, push_f64};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Atomic add of an `f64` stored as its bit pattern in an [`AtomicU64`]
/// (CAS loop; Relaxed suffices — metric cells carry no cross-cell
/// ordering obligations).
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// One registered histogram: cumulative-free per-bucket counts (bucket
/// `i` counts observations in `(bounds[i-1], bounds[i]]`, with a final
/// overflow bucket), plus total count and sum.
#[derive(Debug)]
struct HistogramCore {
    /// Finite, strictly increasing upper bounds; observations above the
    /// last bound land in the overflow (`+Inf`) bucket.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` cells; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, stored as `f64` bits.
    sum_bits: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing: {bounds:?}"
        );
        HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: f64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0, Ordering::Relaxed);
    }
}

/// One registered metric cell.
#[derive(Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    /// Gauge value stored as `f64` bits.
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug, Default)]
struct Inner {
    /// Full series key (name + rendered labels) → cell. A `BTreeMap` so
    /// snapshots iterate in one deterministic order.
    slots: Mutex<BTreeMap<String, Slot>>,
    /// Family base name → `# HELP` text ([`Registry::describe`]).
    help: Mutex<BTreeMap<String, String>>,
}

/// A named set of metrics. Cloning is cheap and shares the underlying
/// cells; the registry is `Send + Sync` and recording through its
/// handles is lock-free (registration takes a short-lived mutex, so
/// resolve handles once on hot paths).
///
/// ```
/// use edgebol_metrics::Registry;
///
/// let reg = Registry::new();
/// reg.counter("edgebol_core_periods_total").inc();
/// reg.counter_with("edgebol_core_degraded_total", &[("stage", "A1 put")]).add(2);
/// reg.gauge("edgebol_bench_worker_threads").set(4.0);
///
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("edgebol_core_periods_total"), Some(1));
/// assert_eq!(snap.counter("edgebol_core_degraded_total{stage=\"A1 put\"}"), Some(2));
/// assert_eq!(snap.gauge("edgebol_bench_worker_threads"), Some(4.0));
/// ```
#[derive(Debug, Clone)]
pub struct Registry {
    /// `None` = disabled: every handle is a no-op.
    inner: Option<Arc<Inner>>,
}

impl Default for Registry {
    /// The disabled registry — see [`Registry::disabled`].
    fn default() -> Self {
        Registry::disabled()
    }
}

/// Escapes a label value for the Prometheus exposition format: the
/// backslash first (so later escapes don't double up), then the quote
/// that would close the value, then raw newlines (which would break the
/// line-oriented format).
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Renders `name{k="v",...}` (or just `name` without labels). Label
/// values are escaped for the Prometheus exposition format
/// ([`escape_label_value`]).
fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

impl Registry {
    /// Creates an enabled, empty registry.
    pub fn new() -> Self {
        Registry { inner: Some(Arc::new(Inner::default())) }
    }

    /// Creates a disabled registry: every handle it returns records
    /// nothing, [`Registry::snapshot`] is empty, and the record path is
    /// a single branch (no allocation, no lock, no clock read).
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether this registry actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches `# HELP` text to the metric family `name` (the base
    /// name, without labels — for a histogram, the name *without* the
    /// `_bucket`/`_sum`/`_count` suffixes). The text is emitted once
    /// per family by [`Snapshot::render_prometheus`], ahead of the
    /// family's `# TYPE` line. The first description for a family wins;
    /// describing is a no-op on a disabled registry.
    pub fn describe(&self, name: &str, help: &str) {
        let Some(inner) = &self.inner else { return };
        let mut map = inner.help.lock().unwrap_or_else(PoisonError::into_inner);
        map.entry(name.to_string()).or_insert_with(|| help.to_string());
    }

    fn slot<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Slot,
        pick: impl FnOnce(&Slot) -> Option<T>,
    ) -> Option<T> {
        let inner = self.inner.as_ref()?;
        let key = series_key(name, labels);
        let mut slots = inner.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = slots.entry(key).or_insert_with(make);
        Some(pick(slot).unwrap_or_else(|| {
            panic!("metric {:?} already registered with a different kind", series_key(name, labels))
        }))
    }

    /// Returns (registering on first use) the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a gauge or histogram.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Returns (registering on first use) the counter `name{labels}`.
    /// Labels become part of the series key verbatim, in the given
    /// order — use one consistent order per metric.
    ///
    /// # Panics
    /// If the series is already registered with a different kind.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(self.slot(
            name,
            labels,
            || Slot::Counter(Arc::new(AtomicU64::new(0))),
            |s| match s {
                Slot::Counter(c) => Some(c.clone()),
                _ => None,
            },
        ))
    }

    /// Returns (registering on first use) the gauge `name`.
    ///
    /// # Panics
    /// If the series is already registered with a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Returns (registering on first use) the gauge `name{labels}`.
    ///
    /// # Panics
    /// If the series is already registered with a different kind.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(self.slot(
            name,
            labels,
            || Slot::Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits()))),
            |s| match s {
                Slot::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        ))
    }

    /// Returns (registering on first use) the histogram `name` with the
    /// given finite, strictly increasing bucket upper bounds; an
    /// overflow (`+Inf`) bucket is always appended.
    ///
    /// # Panics
    /// If `bounds` is empty, non-finite or not strictly increasing; or
    /// if the series is already registered with a different kind or
    /// different bounds.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, &[], bounds)
    }

    /// Returns (registering on first use) the histogram `name{labels}` —
    /// see [`Registry::histogram`].
    ///
    /// # Panics
    /// As [`Registry::histogram`].
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        let h = Histogram(self.slot(
            name,
            labels,
            || Slot::Histogram(Arc::new(HistogramCore::new(bounds))),
            |s| match s {
                Slot::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        ));
        if let Some(core) = &h.0 {
            assert_eq!(
                core.bounds, bounds,
                "histogram {name:?} already registered with different bounds"
            );
        }
        h
    }

    /// Starts a wall-clock timer, or a null timer when the registry is
    /// disabled (no [`Instant::now`] call — part of the disabled-path
    /// cost contract).
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Zeroes every registered series in place. Registrations (names,
    /// bucket layouts) and outstanding handles stay valid.
    pub fn reset(&self) {
        let Some(inner) = &self.inner else { return };
        let slots = inner.slots.lock().unwrap_or_else(PoisonError::into_inner);
        for slot in slots.values() {
            match slot {
                Slot::Counter(c) => c.store(0, Ordering::Relaxed),
                Slot::Gauge(g) => g.store(0.0f64.to_bits(), Ordering::Relaxed),
                Slot::Histogram(h) => h.reset(),
            }
        }
    }

    /// A point-in-time copy of every registered series, in deterministic
    /// (sorted-key) order.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries = Vec::new();
        if let Some(inner) = &self.inner {
            let slots = inner.slots.lock().unwrap_or_else(PoisonError::into_inner);
            for (key, slot) in slots.iter() {
                let value = match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Slot::Gauge(g) => MetricValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed))),
                    Slot::Histogram(h) => MetricValue::Histogram {
                        bounds: h.bounds.clone(),
                        buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                        count: h.count.load(Ordering::Relaxed),
                        sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
                    },
                };
                entries.push(MetricSnapshot { name: key.clone(), value });
            }
        }
        let help = match &self.inner {
            Some(inner) => inner.help.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            None => BTreeMap::new(),
        };
        Snapshot { entries, help }
    }
}

/// A monotonically increasing `u64`. Cloning shares the cell; a handle
/// from a disabled [`Registry`] is a no-op.
#[derive(Debug, Clone)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-write-wins `f64`. Cloning shares the cell; a handle from a
/// disabled [`Registry`] is a no-op.
#[derive(Debug, Clone)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `d` (atomically, CAS loop).
    pub fn add(&self, d: f64) {
        if let Some(g) = &self.0 {
            atomic_f64_add(g, d);
        }
    }

    /// Current value (0.0 for a disabled handle).
    pub fn get(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

/// A fixed-bucket histogram. Cloning shares the cells; a handle from a
/// disabled [`Registry`] is a no-op.
///
/// ```
/// use edgebol_metrics::Registry;
///
/// let reg = Registry::new();
/// let h = reg.histogram("edgebol_bench_rep_wall_seconds", &[0.1, 1.0, 10.0]);
/// h.observe(0.5);
/// h.observe(42.0); // above the last bound: lands in the +Inf bucket
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.sum(), 42.5);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one observation into the bucket whose upper bound first
    /// contains it (the overflow bucket when above every bound).
    pub fn observe(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.observe(v);
        }
    }

    /// Number of observations so far (0 for a disabled handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Sum of observations so far (0.0 for a disabled handle).
    pub fn sum(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |h| f64::from_bits(h.sum_bits.load(Ordering::Relaxed)))
    }
}

/// A wall-clock timer from [`Registry::stopwatch`]; null (records
/// nothing, reads no clock) when the registry is disabled.
#[derive(Debug)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Seconds since the stopwatch started; `None` for a null timer.
    pub fn elapsed_seconds(&self) -> Option<f64> {
        self.0.map(|t| t.elapsed().as_secs_f64())
    }

    /// Observes the elapsed seconds into `h` (no-op for a null timer).
    pub fn observe(&self, h: &Histogram) {
        if let Some(s) = self.elapsed_seconds() {
            h.observe(s);
        }
    }
}

/// The value part of one snapshotted series.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(f64),
    /// A histogram's buckets and aggregates.
    Histogram {
        /// The finite upper bounds (the overflow bucket is implicit).
        bounds: Vec<f64>,
        /// Per-bucket (non-cumulative) counts; `bounds.len() + 1` cells,
        /// the last being the overflow bucket.
        buckets: Vec<u64>,
        /// Total observation count.
        count: u64,
        /// Sum of observed values.
        sum: f64,
    },
}

/// One snapshotted series: the full key (name plus rendered labels) and
/// its value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Series key, e.g. `edgebol_oran_frames_total{dir="tx",link="A1"}`.
    pub name: String,
    /// The snapshotted value.
    pub value: MetricValue,
}

/// A point-in-time copy of a [`Registry`], renderable as Prometheus
/// exposition text, an aligned human table, JSON or CSV.
///
/// ```
/// use edgebol_metrics::Registry;
///
/// let reg = Registry::new();
/// reg.counter("edgebol_oran_frames_total").add(3);
/// reg.histogram("edgebol_core_step_latency_seconds", &[0.01, 0.1]).observe(0.02);
///
/// let snap = reg.snapshot();
/// let prom = snap.render_prometheus();
/// assert!(prom.contains("edgebol_oran_frames_total 3"));
/// assert!(prom.contains("edgebol_core_step_latency_seconds_bucket{le=\"0.1\"} 1"));
/// let table = snap.render_table("metrics");
/// assert!(table.starts_with("== metrics =="));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Every series, in deterministic (sorted-key) order.
    pub entries: Vec<MetricSnapshot>,
    /// Family base name → `# HELP` text ([`Registry::describe`]).
    pub help: BTreeMap<String, String>,
}

/// Splits a series key into (base name, rendered label body).
fn split_key(key: &str) -> (&str, Option<&str>) {
    match key.split_once('{') {
        Some((base, rest)) => (base, Some(rest.trim_end_matches('}'))),
        None => (key, None),
    }
}

/// A key with one more label appended (used for histogram `le` series).
fn key_with_suffix_label(key: &str, suffix: &str, label: &str) -> String {
    let (base, labels) = split_key(key);
    match labels {
        Some(body) => format!("{base}{suffix}{{{body},{label}}}"),
        None => format!("{base}{suffix}{{{label}}}"),
    }
}

impl Snapshot {
    /// Whether nothing was registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value of the series with exactly this key, if registered.
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|e| e.name == key).map(|e| &e.value)
    }

    /// The counter with exactly this key, if registered as one.
    pub fn counter(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge with exactly this key, if registered as one.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// A new snapshot keeping only the series `keep` accepts — e.g. to
    /// strip wall-clock series before a determinism comparison.
    pub fn filtered(&self, keep: impl Fn(&MetricSnapshot) -> bool) -> Snapshot {
        Snapshot {
            entries: self.entries.iter().filter(|e| keep(e)).cloned().collect(),
            help: self.help.clone(),
        }
    }

    /// Prometheus-style exposition text: counters and gauges as single
    /// samples, histograms as cumulative `_bucket{le=...}` series plus
    /// `_sum` and `_count`. Each family gets its `# HELP` line (when
    /// described via [`Registry::describe`]) and `# TYPE` line exactly
    /// once, ahead of the family's first sample.
    pub fn render_prometheus(&self) -> String {
        // Help text escaping per the exposition format: backslash and
        // newline only (quotes are legal in help text).
        fn escape_help(s: &str) -> String {
            s.replace('\\', "\\\\").replace('\n', "\\n")
        }
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for e in &self.entries {
            let (base, _) = split_key(&e.name);
            let kind = match e.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram { .. } => "histogram",
            };
            if typed.insert(base) {
                if let Some(help) = self.help.get(base) {
                    let _ = writeln!(out, "# HELP {base} {}", escape_help(help));
                }
                let _ = writeln!(out, "# TYPE {base} {kind}");
            }
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{} {v}", e.name);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {v}", e.name);
                }
                MetricValue::Histogram { bounds, buckets, count, sum } => {
                    let mut cum = 0u64;
                    for (i, b) in buckets.iter().enumerate() {
                        cum += b;
                        let le = bounds
                            .get(i)
                            .map(|b| format!("le=\"{b}\""))
                            .unwrap_or_else(|| "le=\"+Inf\"".to_string());
                        let _ = writeln!(
                            out,
                            "{} {cum}",
                            key_with_suffix_label(&e.name, "_bucket", &le)
                        );
                    }
                    let (base, labels) = split_key(&e.name);
                    let tail = labels.map(|l| format!("{{{l}}}")).unwrap_or_default();
                    let _ = writeln!(out, "{base}_sum{tail} {sum}");
                    let _ = writeln!(out, "{base}_count{tail} {count}");
                }
            }
        }
        out
    }

    /// An aligned, human-readable table (histograms as count / mean /
    /// approximate p50 / p95 — the bucket upper bound at each quantile).
    pub fn render_table(&self, title: &str) -> String {
        let quantile = |bounds: &[f64], buckets: &[u64], count: u64, q: f64| -> String {
            if count == 0 {
                return "-".into();
            }
            let target = (q * count as f64).ceil().max(1.0) as u64;
            let mut cum = 0u64;
            for (i, b) in buckets.iter().enumerate() {
                cum += b;
                if cum >= target {
                    return match bounds.get(i) {
                        Some(bound) => format!("<={bound}"),
                        None => ">inf-bucket".into(),
                    };
                }
            }
            "-".into()
        };
        let rows: Vec<(String, String)> = self
            .entries
            .iter()
            .map(|e| {
                let rendered = match &e.value {
                    MetricValue::Counter(v) => format!("{v}"),
                    MetricValue::Gauge(v) => format!("{v:.3}"),
                    MetricValue::Histogram { bounds, buckets, count, sum } => {
                        let mean = if *count > 0 { sum / *count as f64 } else { 0.0 };
                        format!(
                            "count={count} mean={mean:.4} p50={} p95={}",
                            quantile(bounds, buckets, *count, 0.50),
                            quantile(bounds, buckets, *count, 0.95),
                        )
                    }
                };
                (e.name.clone(), rendered)
            })
            .collect();
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        let _ = writeln!(out, "== {title} ==");
        for (name, value) in rows {
            let _ = writeln!(out, "{name:<width$}  {value}");
        }
        out
    }

    /// JSON document: `{"counters": {...}, "gauges": {...},
    /// "histograms": {...}}`, hand-rolled on `edgebol_trace::json`:
    /// series names go through [`escape`], so any label value yields valid
    /// JSON, and gauge values and histogram sums through [`push_f64`], so
    /// a non-finite reading renders as `null` (bucket bounds are finite by
    /// construction).
    pub fn to_json(&self) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for e in &self.entries {
            match &e.value {
                MetricValue::Counter(v) => counters.push(format!("{}: {v}", escape(&e.name))),
                MetricValue::Gauge(v) => {
                    let mut g = format!("{}: ", escape(&e.name));
                    push_f64(&mut g, *v);
                    gauges.push(g);
                }
                MetricValue::Histogram { bounds, buckets, count, sum } => {
                    let bucket_objs: Vec<String> = buckets
                        .iter()
                        .enumerate()
                        .map(|(i, b)| match bounds.get(i) {
                            Some(le) => format!("{{\"le\": {le}, \"count\": {b}}}"),
                            None => format!("{{\"le\": \"+Inf\", \"count\": {b}}}"),
                        })
                        .collect();
                    let mut h = format!("{}: {{\"count\": {count}, \"sum\": ", escape(&e.name));
                    push_f64(&mut h, *sum);
                    let _ = write!(h, ", \"buckets\": [{}]}}", bucket_objs.join(", "));
                    hists.push(h);
                }
            }
        }
        format!(
            "{{\n  \"counters\": {{{}}},\n  \"gauges\": {{{}}},\n  \"histograms\": {{{}}}\n}}\n",
            counters.join(", "),
            gauges.join(", "),
            hists.join(", ")
        )
    }

    /// CSV rows `metric,kind,field,value`; histograms expand into one
    /// cumulative row per bucket plus `sum` and `count`.
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::from("metric,kind,field,value\n");
        for e in &self.entries {
            let name = cell(&e.name);
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name},counter,value,{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name},gauge,value,{v}");
                }
                MetricValue::Histogram { bounds, buckets, count, sum } => {
                    let mut cum = 0u64;
                    for (i, b) in buckets.iter().enumerate() {
                        cum += b;
                        let le = bounds.get(i).map(|b| format!("le={b}"));
                        let le = le.as_deref().unwrap_or("le=+Inf");
                        let _ = writeln!(out, "{name},histogram,{},{cum}", cell(le));
                    }
                    let _ = writeln!(out, "{name},histogram,sum,{sum}");
                    let _ = writeln!(out, "{name},histogram,count,{count}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("c_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = reg.gauge("g");
        g.set(1.5);
        g.add(1.0);
        assert_eq!(g.get(), 2.5);
        let h = reg.histogram("h_seconds", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(7.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 7.55);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c_total"), Some(5));
        assert_eq!(snap.gauge("g"), Some(2.5));
        match snap.get("h_seconds") {
            Some(MetricValue::Histogram { buckets, count, .. }) => {
                assert_eq!(buckets, &vec![1, 1, 1]);
                assert_eq!(*count, 3);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn labels_make_distinct_series_and_render_in_key_order() {
        let reg = Registry::new();
        reg.counter_with("f_total", &[("link", "A1"), ("dir", "tx")]).inc();
        reg.counter_with("f_total", &[("link", "E2"), ("dir", "tx")]).add(2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("f_total{link=\"A1\",dir=\"tx\"}"), Some(1));
        assert_eq!(snap.counter("f_total{link=\"E2\",dir=\"tx\"}"), Some(2));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x").inc();
        let _ = reg.gauge("x");
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_bounds_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.histogram("h", &[1.0, 2.0]);
        let _ = reg.histogram("h", &[1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_bounds_panic() {
        let _ = Registry::new().histogram("h", &[2.0, 1.0]);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("c");
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = reg.histogram("h", &[1.0]);
        h.observe(0.5);
        assert_eq!(h.count(), 0);
        assert!(reg.snapshot().is_empty());
        assert!(reg.stopwatch().elapsed_seconds().is_none());
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_typed() {
        let reg = Registry::new();
        let h = reg.histogram_with("lat_seconds", &[("stage", "a")], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(9.0);
        let prom = reg.snapshot().render_prometheus();
        assert!(prom.contains("# TYPE lat_seconds histogram"));
        assert!(prom.contains("lat_seconds_bucket{stage=\"a\",le=\"0.1\"} 1"));
        assert!(prom.contains("lat_seconds_bucket{stage=\"a\",le=\"1\"} 2"));
        assert!(prom.contains("lat_seconds_bucket{stage=\"a\",le=\"+Inf\"} 3"));
        assert!(prom.contains("lat_seconds_sum{stage=\"a\"} 9.55"));
        assert!(prom.contains("lat_seconds_count{stage=\"a\"} 3"));
    }

    #[test]
    fn hostile_label_values_are_escaped_in_the_exposition() {
        let reg = Registry::new();
        // Every character the exposition format cannot carry raw: the
        // escape character itself, the value-closing quote, a newline.
        reg.counter_with("hostile_total", &[("path", "C:\\tmp\\\"x\"\nnext")]).inc();
        reg.counter_with("hostile_total", &[("path", "benign")]).add(2);

        let snap = reg.snapshot();
        let key = "hostile_total{path=\"C:\\\\tmp\\\\\\\"x\\\"\\nnext\"}";
        assert_eq!(snap.counter(key), Some(1), "keys: {:?}", snap.entries);

        let prom = snap.render_prometheus();
        // One sample line per series — the raw newline must not have
        // split the hostile sample in two.
        assert_eq!(prom.matches("# TYPE hostile_total counter").count(), 1);
        assert_eq!(prom.lines().count(), 3);
        assert!(prom.contains(&format!("{key} 1\n")));
        assert!(prom.contains("hostile_total{path=\"benign\"} 2\n"));
    }

    #[test]
    fn help_renders_once_per_family_before_type() {
        let reg = Registry::new();
        reg.describe("f_total", "frames moved\nacross both links");
        reg.describe("lat_seconds", "per-stage latency");
        reg.describe("lat_seconds", "a later description loses");
        reg.counter_with("f_total", &[("link", "A1")]).inc();
        reg.counter_with("f_total", &[("link", "E2")]).inc();
        reg.histogram("lat_seconds", &[0.1]).observe(0.05);
        reg.gauge("undescribed").set(1.0);

        let prom = reg.snapshot().render_prometheus();
        assert_eq!(prom.matches("# HELP f_total frames moved\\nacross both links").count(), 1);
        assert_eq!(prom.matches("# TYPE f_total counter").count(), 1);
        assert_eq!(prom.matches("# HELP lat_seconds per-stage latency").count(), 1);
        assert!(!prom.contains("loses"), "first description wins");
        assert!(!prom.contains("# HELP undescribed"));
        let help_at = prom.find("# HELP f_total").unwrap();
        let type_at = prom.find("# TYPE f_total").unwrap();
        assert!(help_at < type_at, "HELP precedes TYPE:\n{prom}");
    }

    #[test]
    fn control_characters_in_label_values_still_render_valid_json() {
        let reg = Registry::new();
        reg.counter_with("odd_total", &[("v", "a\tb\r\u{1}")]).inc();
        reg.gauge_with("odd", &[("v", "a\tb\r\u{1}")]).set(1.0);
        reg.histogram("odd_seconds", &[1.0]).observe(0.5);
        let json = reg.snapshot().to_json();
        edgebol_trace::json::validate(&json).unwrap_or_else(|e| panic!("{e}:\n{json}"));
        assert!(json.contains("\"odd_total{v=\\\"a\\tb\\r\\u0001\\\"}\": 1"), "{json}");
    }

    #[test]
    fn non_finite_readings_still_render_valid_json() {
        let reg = Registry::new();
        reg.gauge("nan").set(f64::NAN);
        reg.gauge("inf").set(f64::INFINITY);
        reg.histogram("neg_inf_seconds", &[1.0]).observe(f64::NEG_INFINITY);
        let json = reg.snapshot().to_json();
        edgebol_trace::json::validate(&json).unwrap_or_else(|e| panic!("{e}:\n{json}"));
        assert!(json.contains("\"nan\": null"), "{json}");
        assert!(json.contains("\"sum\": null"), "{json}");
    }

    #[test]
    fn json_and_csv_contain_every_series() {
        let reg = Registry::new();
        reg.counter("a_total").inc();
        reg.gauge("b").set(2.0);
        reg.histogram("c_seconds", &[1.0]).observe(0.5);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"a_total\": 1"));
        assert!(json.contains("\"b\": 2"));
        assert!(json.contains("\"c_seconds\""));
        let csv = snap.to_csv();
        assert!(csv.starts_with("metric,kind,field,value\n"));
        assert!(csv.contains("a_total,counter,value,1"));
        assert!(csv.contains("c_seconds,histogram,le=1,1"));
        assert!(csv.contains("c_seconds,histogram,count,1"));
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations_and_handles() {
        let reg = Registry::new();
        let c = reg.counter("c");
        c.add(7);
        let h = reg.histogram("h", &[1.0]);
        h.observe(0.5);
        reg.reset();
        assert_eq!(reg.snapshot().counter("c"), Some(0));
        assert_eq!(h.count(), 0);
        c.inc();
        assert_eq!(c.get(), 1, "handles stay wired to the same cell after reset");
    }

    #[test]
    fn snapshot_filter_keeps_subsets() {
        let reg = Registry::new();
        reg.counter("keep_total").inc();
        reg.gauge("drop_me").set(1.0);
        let snap = reg.snapshot().filtered(|e| matches!(e.value, MetricValue::Counter(_)));
        assert_eq!(snap.entries.len(), 1);
        assert_eq!(snap.counter("keep_total"), Some(1));
    }

    #[test]
    fn table_rendering_aligns_and_summarizes() {
        let reg = Registry::new();
        reg.counter("long_counter_name_total").add(3);
        let h = reg.histogram("h", &[1.0, 2.0]);
        for _ in 0..20 {
            h.observe(0.5);
        }
        h.observe(1.5);
        let table = reg.snapshot().render_table("t");
        assert!(table.starts_with("== t =="));
        assert!(table.contains("long_counter_name_total  3"));
        assert!(table.contains("count=21"));
        assert!(table.contains("p50=<=1"));
        assert!(table.contains("p95=<=1"));
    }
}
