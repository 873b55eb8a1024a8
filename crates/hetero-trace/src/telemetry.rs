//! Always-on telemetry: sharded atomic counters, gauges and log-bucketed
//! histograms that are cheap enough to leave enabled in production runs
//! (including with [`crate::TraceSink::Null`]).
//!
//! Design constraints, in order:
//!
//! * **No locks on the hot path.** Observations touch only relaxed
//!   atomics. The registry's `RwLock` is taken once per instrument
//!   *handle* (cold path); the returned [`Arc`] handles are then used
//!   lock-free for the lifetime of the process.
//! * **No cross-core ping-pong.** Counters and histograms are sharded
//!   into cache-line-padded cells indexed by a per-thread shard id, so
//!   concurrent writers on different cores do not serialize on one line.
//! * **No extra clock reads.** Instruments never read a clock; callers
//!   observe durations they already measured (the thread engine reuses
//!   the span timestamps it records anyway).
//!
//! Reads ([`Counter::get`], [`AtomicHistogram::snapshot`]) merge the
//! shards; they are racy-but-monotonic, which is what scrapes want.
//! [`Telemetry::render_prometheus`] emits the classic text exposition
//! format; instrument names may carry a `{label="value"}` suffix which is
//! folded into the series labels.

use crate::metrics::{Histogram, BUCKETS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Number of shards per instrument (power of two).
const SHARDS: usize = 16;

/// One cache line per shard so concurrent writers don't false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedAtomic(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// This thread's shard slot (assigned once, round-robin across threads).
fn shard_index() -> usize {
    thread_local! {
        static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed);
    }
    SHARD.with(|s| *s) & (SHARDS - 1)
}

fn shard_cells() -> [PaddedAtomic; SHARDS] {
    std::array::from_fn(|_| PaddedAtomic::default())
}

/// A monotonically increasing sharded counter.
#[derive(Debug)]
pub struct Counter {
    shards: [PaddedAtomic; SHARDS],
}

impl Default for Counter {
    fn default() -> Self {
        Counter {
            shards: shard_cells(),
        }
    }
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-value-wins gauge (e.g. the registry snapshot epoch).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is higher than the current value.
    #[inline]
    pub fn raise(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// One histogram shard: per-bucket counts plus count/sum/min/max, padded
/// as a block (the arrays inside share lines, but different shards do
/// not). min/max live **per shard** so `observe` never touches a cache
/// line another thread writes, as a shared min/max pair would under 8
/// workers.
#[derive(Debug)]
#[repr(align(64))]
struct HistShard {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistShard {
    fn default() -> Self {
        HistShard {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A lock-free histogram on [`Histogram`]'s buckets (16 ns .. ~18 min in
/// powers of two, plus overflow). [`AtomicHistogram::snapshot`] reads it
/// out as a plain [`Histogram`], so quantile logic lives in one place.
#[derive(Debug)]
pub struct AtomicHistogram {
    shards: [HistShard; SHARDS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            shards: std::array::from_fn(|_| HistShard::default()),
        }
    }
}

impl AtomicHistogram {
    /// Records one observation — a handful of relaxed atomic RMWs, no
    /// locks, no clock reads.
    #[inline]
    pub fn observe(&self, value: u64) {
        let shard = &self.shards[shard_index()];
        shard.counts[Histogram::bucket(value)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
        shard.min.fetch_min(value, Ordering::Relaxed);
        shard.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total observations across shards.
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Merges the shards into a plain [`Histogram`] (quantiles, JSON
    /// export).
    pub fn snapshot(&self) -> Histogram {
        let mut out = Histogram::new();
        for shard in &self.shards {
            out.merge(&Histogram {
                counts: std::array::from_fn(|i| shard.counts[i].load(Ordering::Relaxed)),
                count: shard.count.load(Ordering::Relaxed),
                sum: shard.sum.load(Ordering::Relaxed),
                min: shard.min.load(Ordering::Relaxed),
                max: shard.max.load(Ordering::Relaxed),
            });
        }
        out
    }

    /// Merges a batch a single owner pre-aggregated in a plain
    /// [`Histogram`] — one atomic add per non-empty bucket. This is how
    /// the executors flush per-task latencies at join: thousands of
    /// individual `observe` calls from every worker at once measurably
    /// contend on the shared buckets, a batched merge does not.
    pub fn merge(&self, batch: &Histogram) {
        if batch.count == 0 {
            return;
        }
        let shard = &self.shards[shard_index()];
        for (c, &n) in shard.counts.iter().zip(batch.counts.iter()) {
            if n > 0 {
                c.fetch_add(n, Ordering::Relaxed);
            }
        }
        shard.count.fetch_add(batch.count, Ordering::Relaxed);
        shard.sum.fetch_add(batch.sum, Ordering::Relaxed);
        shard.min.fetch_min(batch.min, Ordering::Relaxed);
        shard.max.fetch_max(batch.max, Ordering::Relaxed);
    }
}

/// The process-wide instrument registry. Handle lookup takes a lock once
/// (cold); the returned [`Arc`] handles are then lock-free forever.
#[derive(Debug, Default)]
pub struct Telemetry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<AtomicHistogram>>>,
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(found) = map.read().expect("telemetry map poisoned").get(name) {
        return Arc::clone(found);
    }
    let mut w = map.write().expect("telemetry map poisoned");
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl Telemetry {
    /// An empty registry (most code uses [`global`]).
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Gets or creates a counter handle.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Gets or creates a gauge handle.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Gets or creates a histogram handle.
    pub fn histogram(&self, name: &str) -> Arc<AtomicHistogram> {
        get_or_create(&self.histograms, name)
    }

    /// Renders every instrument in the Prometheus text exposition format.
    ///
    /// An instrument name of the form `base{label="v"}` keeps its labels;
    /// histogram `le` labels are merged into the existing label set.
    /// Series sharing a base name are grouped into one metric family with
    /// a single `# HELP` / `# TYPE` header (the exposition format forbids
    /// repeating them), and label values are escaped per the spec
    /// (backslash, double quote and newline).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();

        let counters = self.counters.read().expect("poisoned");
        let mut families: BTreeMap<&str, Vec<(Option<&str>, u64)>> = BTreeMap::new();
        for (name, c) in counters.iter() {
            let (base, labels) = split_labels(name);
            families.entry(base).or_default().push((labels, c.get()));
        }
        for (base, series) in families {
            out.push_str(&format!(
                "# HELP {base} hetero-trace telemetry counter.\n# TYPE {base} counter\n"
            ));
            for (labels, value) in series {
                out.push_str(&format!("{base}{} {value}\n", label_tail(labels)));
            }
        }

        let gauges = self.gauges.read().expect("poisoned");
        let mut families: BTreeMap<&str, Vec<(Option<&str>, u64)>> = BTreeMap::new();
        for (name, g) in gauges.iter() {
            let (base, labels) = split_labels(name);
            families.entry(base).or_default().push((labels, g.get()));
        }
        for (base, series) in families {
            out.push_str(&format!(
                "# HELP {base} hetero-trace telemetry gauge.\n# TYPE {base} gauge\n"
            ));
            for (labels, value) in series {
                out.push_str(&format!("{base}{} {value}\n", label_tail(labels)));
            }
        }

        let histograms = self.histograms.read().expect("poisoned");
        let mut families: BTreeMap<&str, Vec<(Option<&str>, Histogram)>> = BTreeMap::new();
        for (name, h) in histograms.iter() {
            let (base, labels) = split_labels(name);
            families
                .entry(base)
                .or_default()
                .push((labels, h.snapshot()));
        }
        for (base, series) in families {
            out.push_str(&format!(
                "# HELP {base} hetero-trace telemetry histogram (log2 buckets).\n\
                 # TYPE {base} histogram\n"
            ));
            for (labels, snap) in series {
                let escaped = labels.map(rewrite_labels);
                let mut cum = 0u64;
                for (le, n) in snap.buckets() {
                    cum += n;
                    let le = if le == u64::MAX {
                        "+Inf".to_string()
                    } else {
                        le.to_string()
                    };
                    out.push_str(&format!(
                        "{base}_bucket{{{}le=\"{le}\"}} {cum}\n",
                        escaped
                            .as_ref()
                            .map(|l| format!("{l},"))
                            .unwrap_or_default()
                    ));
                }
                let tail = escaped
                    .as_ref()
                    .map(|l| format!("{{{l}}}"))
                    .unwrap_or_default();
                out.push_str(&format!("{base}_sum{tail} {}\n", snap.sum()));
                out.push_str(&format!("{base}_count{tail} {}\n", snap.count()));
            }
        }
        out
    }
}

/// Splits `base{labels}` into `(base, Some(labels))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}')),
        None => (name, None),
    }
}

/// Renders an optional raw label set as a `{k="v",…}` suffix with the
/// values escaped.
fn label_tail(labels: Option<&str>) -> String {
    labels.map_or_else(String::new, |l| format!("{{{}}}", rewrite_labels(l)))
}

/// Re-emits a raw `k="v",k2="v2"` label set with every value escaped per
/// the exposition format: `\` → `\\`, `"` → `\"`, newline → `\n`. A
/// value is taken to end at the first `",` pair boundary (or the final
/// closing quote), so quotes inside values survive as long as they are
/// not immediately followed by a comma.
fn rewrite_labels(raw: &str) -> String {
    let mut out = String::new();
    let mut rest = raw;
    let mut first = true;
    while !rest.is_empty() {
        let Some(eq) = rest.find("=\"") else {
            out.push_str(rest);
            break;
        };
        let key = &rest[..eq];
        let after = &rest[eq + 2..];
        let (value, next) = match after.find("\",") {
            Some(i) => (&after[..i], &after[i + 2..]),
            None => (after.strip_suffix('"').unwrap_or(after), ""),
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(key);
        out.push_str("=\"");
        out.push_str(&escape_label_value(value));
        out.push('"');
        rest = next;
    }
    out
}

/// Escapes one label value per the Prometheus text exposition format.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The process-wide telemetry registry.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::default());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_set_and_raise() {
        let g = Gauge::default();
        g.set(5);
        g.raise(3);
        assert_eq!(g.get(), 5);
        g.raise(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_snapshot_matches_observations() {
        let h = AtomicHistogram::default();
        for v in [100, 200, 400, 100_000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4);
        assert_eq!(snap.sum(), 100_700);
        assert_eq!(snap.min(), Some(100));
        assert_eq!(snap.max(), Some(100_000));
        let p50 = snap.quantile(0.5).unwrap();
        assert!((100..=400).contains(&p50), "p50 = {p50}");
        // Quantile edges are exact observed extremes, never interpolated
        // out of the bucket range.
        assert_eq!(snap.quantile(0.0), Some(100));
        assert_eq!(snap.quantile(1.0), Some(100_000));
        let empty = AtomicHistogram::default().snapshot();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.quantile(0.0), None);
        assert_eq!(empty.quantile(0.99), None);
        assert_eq!(empty.quantile(1.0), None);
    }

    #[test]
    fn snapshot_equals_the_plain_histogram_of_the_same_observations() {
        let direct = AtomicHistogram::default();
        let batched = AtomicHistogram::default();
        let mut plain = Histogram::new();
        let values = [5u64, 16, 17, 300, 4_000, 1 << 41, 77, 77];
        for &v in &values {
            direct.observe(v);
            plain.observe(v);
        }
        batched.merge(&plain);
        assert_eq!(direct.snapshot(), plain);
        assert_eq!(batched.snapshot(), plain);
        // Merging an empty batch is a no-op.
        batched.merge(&Histogram::new());
        assert_eq!(batched.snapshot(), plain);
    }

    #[test]
    fn concurrent_histogram_observations_all_land() {
        let h = Arc::new(AtomicHistogram::default());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        h.observe(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 2000);
    }

    #[test]
    fn registry_handles_are_shared() {
        let t = Telemetry::new();
        let a = t.counter("x_total");
        let b = t.counter("x_total");
        a.inc();
        b.inc();
        assert_eq!(t.counter("x_total").get(), 2);
        t.histogram("lat_ns").observe(100);
        t.gauge("epoch").set(7);
        assert_eq!(t.histogram("lat_ns").count(), 1);
        assert_eq!(t.gauge("epoch").get(), 7);
    }

    #[test]
    fn prometheus_exposition_format() {
        let t = Telemetry::new();
        t.counter("requests_total").add(3);
        t.gauge("epoch").set(9);
        t.histogram("lat_ns{op=\"resolve\"}").observe(20);
        let text = t.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total 3"));
        assert!(text.contains("# TYPE epoch gauge"));
        assert!(text.contains("epoch 9"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{op=\"resolve\",le=\"32\"} 1"));
        assert!(text.contains("lat_ns_sum{op=\"resolve\"} 20"));
        assert!(text.contains("lat_ns_count{op=\"resolve\"} 1"));
        // Cumulative buckets end at the total count.
        assert!(text.contains("le=\"+Inf\"} 1"));
        // Every family carries a HELP line ahead of its TYPE line.
        assert!(text.contains("# HELP requests_total "));
        assert!(text.contains("# HELP epoch "));
        assert!(text.contains("# HELP lat_ns "));
    }

    #[test]
    fn families_share_one_help_and_type_header() {
        let t = Telemetry::new();
        t.counter("requests_total{code=\"200\"}").add(5);
        t.counter("requests_total{code=\"500\"}").add(1);
        let text = t.render_prometheus();
        assert_eq!(text.matches("# TYPE requests_total counter").count(), 1);
        assert_eq!(text.matches("# HELP requests_total ").count(), 1);
        assert!(text.contains("requests_total{code=\"200\"} 5"));
        assert!(text.contains("requests_total{code=\"500\"} 1"));
        // Headers precede every sample of the family.
        let type_at = text.find("# TYPE requests_total").unwrap();
        let sample_at = text.find("requests_total{").unwrap();
        assert!(type_at < sample_at);
    }

    #[test]
    fn label_values_are_escaped() {
        let t = Telemetry::new();
        t.counter("io_total{path=\"C:\\temp\"}").add(1);
        t.gauge("state{msg=\"line1\nline2\"}").set(2);
        t.counter("odd_total{q=\"say \"hi\"\"}").add(3);
        let text = t.render_prometheus();
        assert!(text.contains("io_total{path=\"C:\\\\temp\"} 1"));
        assert!(text.contains("state{msg=\"line1\\nline2\"} 2"));
        assert!(text.contains("odd_total{q=\"say \\\"hi\\\"\"} 3"));
        // No raw newline survives inside any sample line.
        for line in text.lines() {
            assert!(!line.is_empty() || text.ends_with('\n'));
        }
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(rewrite_labels("a=\"x\\y\",b=\"z\""), "a=\"x\\\\y\",b=\"z\"");
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let c = global().counter("telemetry_selftest_total");
        let before = c.get();
        global().counter("telemetry_selftest_total").inc();
        assert_eq!(c.get(), before + 1);
    }
}
