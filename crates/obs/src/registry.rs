//! Process-global registry of named counters, gauges, and latency histograms.
//!
//! All instruments are atomic and lock-free on the hot path: the registry's
//! `RwLock<BTreeMap>` is only taken when an instrument handle is first looked
//! up (callers cache the returned `Arc`) or when the registry is exported.
//!
//! Naming convention: Prometheus-style labels are embedded in the instrument
//! name, e.g. `serve_request_us{verb="append"}`. The text exposition splits
//! the name at the first `{` so `name_count{labels}`-style lines stay valid.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Counter { value: AtomicU64::new(0) }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub const fn new() -> Self {
        Gauge { value: AtomicI64::new(0) }
    }

    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of exact low-value buckets: values `0..LINEAR` each get their own.
const LINEAR: usize = 8;
/// Sub-buckets per octave above the linear range (log-linear layout).
const SUB: usize = 4;
const SUB_BITS: u32 = 2;
/// Octaves covered above the linear range; 38 octaves starting at 2^3 reach
/// past 2^41 microseconds (~25 days), far beyond any latency we record.
const OCTAVES: usize = 38;
/// Total bucket count.
pub const BUCKETS: usize = LINEAR + OCTAVES * SUB;

fn bucket_index(v: u64) -> usize {
    if v < LINEAR as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize;
    if octave >= 3 + OCTAVES {
        return BUCKETS - 1;
    }
    LINEAR + (octave - 3) * SUB + ((v >> (octave as u32 - SUB_BITS)) & (SUB as u64 - 1)) as usize
}

fn bucket_lower(i: usize) -> u64 {
    if i < LINEAR {
        return i as u64;
    }
    let block = (i - LINEAR) / SUB;
    let rem = ((i - LINEAR) % SUB) as u64;
    let octave = (block + 3) as u32;
    (1u64 << octave) + rem * (1u64 << (octave - SUB_BITS))
}

fn bucket_upper(i: usize) -> u64 {
    if i + 1 < BUCKETS {
        bucket_lower(i + 1) - 1
    } else {
        u64::MAX
    }
}

/// Fixed-bucket log-linear latency histogram (microsecond-valued by
/// convention). Recording is a single relaxed `fetch_add` into one of 160
/// buckets plus count/sum/max updates; the relative error of any reported
/// quantile is bounded by the sub-bucket width (< 25%).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Quantile estimate (upper bound of the containing bucket, clamped to
    /// the observed maximum). `q` is in `0.0..=1.0`.
    pub fn percentile(&self, q: f64) -> u64 {
        self.snapshot().percentile(q)
    }

    /// A point-in-time copy of the histogram state, usable for deltas.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

/// Immutable copy of a [`Histogram`]; supports quantiles and snapshot deltas
/// (used by the bench harness to isolate one run's fsync latencies from the
/// process-global cumulative state).
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// Bucket-wise difference `self - earlier`. Both snapshots must come from
    /// the same histogram, with `earlier` taken first.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }

    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Named instrument store. Use [`crate::global`] for the process-wide
/// instance; tests may build private registries.
pub struct Registry {
    instruments: RwLock<BTreeMap<String, Instrument>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    pub const fn new() -> Self {
        Registry { instruments: RwLock::new(BTreeMap::new()) }
    }

    fn lookup<T, F, G>(&self, name: &str, get: F, make: G) -> Arc<T>
    where
        F: Fn(&Instrument) -> Option<Arc<T>>,
        G: Fn(Arc<T>) -> Instrument,
        T: Default,
    {
        if let Some(found) = self
            .instruments
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(name)
            .and_then(&get)
        {
            return found;
        }
        let mut map = self.instruments.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(found) = map.get(name).and_then(&get) {
            return found;
        }
        let fresh = Arc::new(T::default());
        map.insert(name.to_string(), make(Arc::clone(&fresh)));
        fresh
    }

    /// Fetch or create the counter with this name. Panics only if the name is
    /// already registered as a different instrument kind (a programming bug).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.lookup(
            name,
            |i| match i {
                Instrument::Counter(c) => Some(Arc::clone(c)),
                _ => panic!("metric `{name}` is not a counter"),
            },
            Instrument::Counter,
        )
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.lookup(
            name,
            |i| match i {
                Instrument::Gauge(g) => Some(Arc::clone(g)),
                _ => panic!("metric `{name}` is not a gauge"),
            },
            Instrument::Gauge,
        )
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.lookup(
            name,
            |i| match i {
                Instrument::Histogram(h) => Some(Arc::clone(h)),
                _ => panic!("metric `{name}` is not a histogram"),
            },
            Instrument::Histogram,
        )
    }

    /// Export the registry as a JSON object with integer-only values:
    /// `{"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,"sum":..,"max":..,"p50":..,"p99":..}}}`.
    pub fn to_json(&self) -> String {
        let map = self.instruments.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut hists = String::new();
        for (name, inst) in map.iter() {
            match inst {
                Instrument::Counter(c) => {
                    push_sep(&mut counters);
                    counters.push_str(&format!("{}:{}", json_string(name), c.get()));
                }
                Instrument::Gauge(g) => {
                    push_sep(&mut gauges);
                    gauges.push_str(&format!("{}:{}", json_string(name), g.get()));
                }
                Instrument::Histogram(h) => {
                    push_sep(&mut hists);
                    let snap = h.snapshot();
                    hists.push_str(&format!(
                        "{}:{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p99\":{}}}",
                        json_string(name),
                        snap.count,
                        snap.sum,
                        snap.max,
                        snap.percentile(0.50),
                        snap.percentile(0.99),
                    ));
                }
            }
        }
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{hists}}}}}"
        )
    }

    /// Copy every instrument's current value into a
    /// [`crate::RegistrySnapshot`] (name-ordered; histograms keep their
    /// full buckets so windowed quantiles stay exact).
    pub fn snapshot(&self) -> crate::RegistrySnapshot {
        let map = self.instruments.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut snap = crate::RegistrySnapshot::default();
        for (name, inst) in map.iter() {
            match inst {
                Instrument::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Instrument::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Instrument::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap
    }

    /// Render Prometheus-style text exposition. Histograms are rendered as
    /// summaries: `name_count`, `name_sum`, `name_max`, and `quantile` lines;
    /// every metric family gets `# HELP` and `# TYPE` headers.
    pub fn render_text(&self) -> String {
        let map = self.instruments.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, inst) in map.iter() {
            let (base, labels) = split_labels(name);
            if base != last_base {
                let kind = match inst {
                    Instrument::Counter(_) => "counter",
                    Instrument::Gauge(_) => "gauge",
                    Instrument::Histogram(_) => "summary",
                };
                out.push_str(&format!("# HELP {base} {}\n", help_text(base, kind)));
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_base = base.to_string();
            }
            match inst {
                Instrument::Counter(c) => {
                    out.push_str(&format!("{base}{labels} {}\n", c.get()));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!("{base}{labels} {}\n", g.get()));
                }
                Instrument::Histogram(h) => {
                    let snap = h.snapshot();
                    out.push_str(&format!("{base}_count{labels} {}\n", snap.count));
                    out.push_str(&format!("{base}_sum{labels} {}\n", snap.sum));
                    out.push_str(&format!("{base}_max{labels} {}\n", snap.max));
                    for (q, tag) in [(0.50, "0.5"), (0.99, "0.99")] {
                        let quantile = format!("quantile=\"{tag}\"");
                        let labelled = if labels.is_empty() {
                            format!("{{{quantile}}}")
                        } else {
                            format!("{},{quantile}}}", &labels[..labels.len() - 1])
                        };
                        out.push_str(&format!("{base}{labelled} {}\n", snap.percentile(q)));
                    }
                }
            }
        }
        out
    }
}

fn push_sep(buf: &mut String) {
    if !buf.is_empty() {
        buf.push(',');
    }
}

/// One-line `# HELP` text for a metric family, derived from the naming
/// convention (`*_total` counters, `*_us` microsecond latencies): there
/// is no side-channel help registry, so the name is the documentation.
fn help_text(base: &str, kind: &str) -> String {
    if let Some(stem) = base.strip_suffix("_total") {
        format!("Cumulative count of {} events.", stem.replace('_', " "))
    } else if let Some(stem) = base.strip_suffix("_us") {
        format!("Latency of {} in microseconds.", stem.replace('_', " "))
    } else {
        format!("Current {} value of {}.", kind, base.replace('_', " "))
    }
}

/// Split `name{labels}` into `("name", "{labels}")`; labels may be empty.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Append `s` to `out` as a JSON string literal (the workspace has no
/// serde). The one escaper outside the ledger: the registry, profile
/// and trace writers and `stream::protocol` all encode through it.
#[inline]
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// [`write_json_string`] into a fresh `String`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_maths_are_continuous_and_monotone() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(16), 12);
        let mut last = 0usize;
        for v in 0..100_000u64 {
            let i = bucket_index(v);
            assert!(i >= last, "index must be monotone at {v}");
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "v={v} i={i}");
            last = i;
        }
        // Overflow values clamp to the last bucket rather than indexing out.
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        let registry = Registry::new();
        let counter = registry.counter("t_total");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&counter);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(counter.get(), 80_000);
        assert_eq!(registry.counter("t_total").get(), 80_000);
    }

    #[test]
    fn concurrent_histogram_records_count_exactly() {
        let hist = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = &hist;
                scope.spawn(move || {
                    for i in 0..25_000u64 {
                        h.record(t * 7 + i % 100);
                    }
                });
            }
        });
        assert_eq!(hist.count(), 100_000);
    }

    #[test]
    fn histogram_percentile_bounds() {
        let hist = Histogram::new();
        for v in 1..=1000u64 {
            hist.record(v);
        }
        assert_eq!(hist.count(), 1000);
        assert_eq!(hist.sum(), 500_500);
        assert_eq!(hist.max(), 1000);
        let p50 = hist.percentile(0.50);
        let p99 = hist.percentile(0.99);
        // True p50 = 500, p99 = 990; bucket error is bounded by 25%.
        assert!((375..=625).contains(&p50), "p50={p50}");
        assert!((743..=1238).contains(&p99), "p99={p99}");
        assert!(p50 <= p99);
        // p100 is clamped to the observed max, never a bucket bound above it.
        assert_eq!(hist.percentile(1.0), 1000);
    }

    #[test]
    fn snapshot_delta_isolates_a_window() {
        let hist = Histogram::new();
        for _ in 0..100 {
            hist.record(5);
        }
        let before = hist.snapshot();
        for _ in 0..50 {
            hist.record(4000);
        }
        let delta = hist.snapshot().delta_since(&before);
        assert_eq!(delta.count, 50);
        assert_eq!(delta.sum, 50 * 4000);
        let p50 = delta.percentile(0.5);
        assert!((3000..=5000).contains(&p50), "delta p50={p50}");
    }

    #[test]
    fn gauge_moves_both_ways() {
        let registry = Registry::new();
        let gauge = registry.gauge("g");
        gauge.set(7);
        gauge.add(-10);
        assert_eq!(gauge.get(), -3);
    }

    #[test]
    fn json_and_text_exposition_render() {
        let registry = Registry::new();
        registry.counter("req_total{verb=\"append\"}").add(3);
        registry.gauge("stale_ops").set(2);
        let hist = registry.histogram("req_us{verb=\"append\"}");
        hist.record(100);
        hist.record(200);

        let json = registry.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"req_total{verb=\\\"append\\\"}\":3"));
        assert!(json.contains("\"stale_ops\":2"));
        assert!(json.contains("\"count\":2"));
        assert!(json.contains("\"p50\":"));

        let text = registry.render_text();
        assert!(text.contains("# TYPE req_total counter"));
        assert!(text.contains("req_total{verb=\"append\"} 3"));
        assert!(text.contains("# TYPE req_us summary"));
        assert!(text.contains("req_us_count{verb=\"append\"} 2"));
        assert!(text.contains("req_us_sum{verb=\"append\"} 300"));
        assert!(text.contains("req_us{verb=\"append\",quantile=\"0.5\"}"));
        assert!(text.contains("# TYPE stale_ops gauge"));
        assert!(text.contains("stale_ops 2"));
        // Every family gets exactly one HELP line, directly above TYPE.
        assert!(text.contains("# HELP req_total Cumulative count of req events.\n# TYPE"));
        assert!(text.contains("# HELP req_us Latency of req in microseconds.\n# TYPE"));
        assert!(text.contains("# HELP stale_ops Current gauge value of stale ops.\n# TYPE"));
    }

    #[test]
    fn snapshot_copies_every_instrument() {
        let registry = Registry::new();
        registry.counter("snap_total").add(4);
        registry.gauge("snap_gauge").set(-2);
        registry.histogram("snap_us").record(99);
        let snap = registry.snapshot();
        assert_eq!(snap.counters, vec![("snap_total".to_string(), 4)]);
        assert_eq!(snap.gauges, vec![("snap_gauge".to_string(), -2)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].0, "snap_us");
        assert_eq!(snap.histograms[0].1.count, 1);
        assert_eq!(snap.histograms[0].1.sum, 99);
    }

    #[test]
    fn unlabelled_histogram_quantile_lines_are_well_formed() {
        let registry = Registry::new();
        registry.histogram("solo_us").record(42);
        let text = registry.render_text();
        assert!(text.contains("solo_us_count 1"));
        assert!(text.contains("solo_us{quantile=\"0.5\"} "));
    }
}
