//! The thread-safe metric registry and its immutable snapshots.
//!
//! A [`Registry`] aggregates everything recorded into it: recording
//! locks a single mutex, which is fine because the workspace instruments
//! at *stage* and *shard* granularity (tens to thousands of records per
//! run), never per session. Per-worker shards of a parallel region
//! therefore merge through the same ordered structure — `u64` additions
//! commute exactly, so counter and histogram values are independent of
//! which worker recorded first.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of times the span ran.
    pub count: u64,
    /// Total wall-clock time across all runs, nanoseconds.
    pub total_ns: u64,
    /// Longest single run, nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    /// Total wall-clock time, milliseconds.
    pub(crate) fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Mean wall-clock time per run, milliseconds.
    pub(crate) fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ms() / self.count as f64
        }
    }
}

/// A fixed-bucket histogram: `edges[i]` is the inclusive upper bound of
/// bucket `i`; the final bucket counts everything past the last edge.
#[derive(Debug, Clone, PartialEq)]
pub struct HistStat {
    /// Inclusive upper bounds, ascending.
    pub edges: Vec<f64>,
    /// One count per edge plus the overflow bucket
    /// (`counts.len() == edges.len() + 1`).
    pub counts: Vec<u64>,
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
}

impl HistStat {
    fn new(edges: &[f64]) -> Self {
        HistStat {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    fn record(&mut self, value: f64) {
        let bucket = self
            .edges
            .iter()
            .position(|e| value <= *e)
            .unwrap_or(self.edges.len());
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += value;
    }
}

/// A thread-safe metric store. The crate's free functions record into
/// the registry installed on the calling thread by
/// [`scoped`](crate::scoped) — e.g. the one a pipeline run owns — and
/// into the process-wide global registry when none is installed.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Snapshot>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Snapshot> {
        // A panicking recorder must not take observability down with it.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Adds `delta` to counter `name`.
    pub(crate) fn add(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        *entry_or_insert(&mut inner.counters, name, 0) += delta;
    }

    /// Adds `delta` to `f64` counter `name`.
    pub(crate) fn add_f64(&self, name: &str, delta: f64) {
        let mut inner = self.lock();
        *entry_or_insert(&mut inner.fcounters, name, 0.0) += delta;
    }

    /// Sets gauge `name` to `value`.
    pub(crate) fn gauge(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        *entry_or_insert(&mut inner.gauges, name, 0.0) = value;
    }

    /// Records `value` into histogram `name` with the given bucket edges
    /// (fixed at first use).
    pub(crate) fn observe(&self, name: &str, value: f64, edges: &[f64]) {
        let mut inner = self.lock();
        if let Some(h) = inner.histograms.get_mut(name) {
            h.record(value);
            return;
        }
        let mut h = HistStat::new(edges);
        h.record(value);
        inner.histograms.insert(name.to_string(), h);
    }

    /// Folds a `ns` run into span `path`.
    pub(crate) fn record_span(&self, path: &str, ns: u64) {
        let mut inner = self.lock();
        let stat = entry_or_insert(&mut inner.spans, path, SpanStat::default());
        stat.count += 1;
        stat.total_ns += ns;
        stat.max_ns = stat.max_ns.max(ns);
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> Snapshot {
        self.lock().clone()
    }

    /// Folds `snapshot` into this registry with [`Snapshot::merge`]'s
    /// rules — how a finished run's own registry joins the enclosing
    /// one.
    pub(crate) fn merge(&self, snapshot: &Snapshot) {
        self.lock().merge(snapshot);
    }

    /// Clears every metric.
    pub(crate) fn reset(&self) {
        *self.lock() = Snapshot::default();
    }
}

/// `BTreeMap::entry(name.to_string()).or_insert(..)` without allocating
/// when the key already exists — registries sit on hot-ish paths and
/// names repeat run after run.
fn entry_or_insert<'m, V>(map: &'m mut BTreeMap<String, V>, name: &str, default: V) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), default);
    }
    map.get_mut(name).expect("key just ensured")
}

/// An immutable copy of a [`Registry`]'s state, ordered by name so every
/// rendering is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Span statistics by hierarchical path (`a/b/c`).
    pub spans: BTreeMap<String, SpanStat>,
    /// Monotonic `u64` counters by name.
    pub counters: BTreeMap<String, u64>,
    /// `f64` counters by name.
    pub fcounters: BTreeMap<String, f64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistStat>,
}

impl Snapshot {
    /// The value of counter `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The value of `f64` counter `name`, if recorded.
    pub fn fcounter(&self, name: &str) -> Option<f64> {
        self.fcounters.get(name).copied()
    }

    /// The statistics of span `path`, if recorded.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.get(path)
    }

    /// The histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistStat> {
        self.histograms.get(name)
    }

    /// The subset of this snapshot whose metric names (and span paths)
    /// start with any of `prefixes` — how a service carves its own
    /// namespace (e.g. `serve.*` + `netsim.ingest.*`) out of the global
    /// registry for a health endpoint.
    pub fn filtered(&self, prefixes: &[&str]) -> Snapshot {
        fn keep<V: Clone>(map: &BTreeMap<String, V>, prefixes: &[&str]) -> BTreeMap<String, V> {
            map.iter()
                .filter(|(k, _)| prefixes.iter().any(|p| k.starts_with(p)))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        }
        Snapshot {
            spans: keep(&self.spans, prefixes),
            counters: keep(&self.counters, prefixes),
            fcounters: keep(&self.fcounters, prefixes),
            gauges: keep(&self.gauges, prefixes),
            histograms: keep(&self.histograms, prefixes),
        }
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.fcounters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters and histograms add, gauges
    /// take `other`'s value, spans accumulate. Histograms whose bucket
    /// edges disagree adopt `other`'s layout wholesale.
    pub(crate) fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *entry_or_insert(&mut self.counters, k, 0) += v;
        }
        for (k, v) in &other.fcounters {
            *entry_or_insert(&mut self.fcounters, k, 0.0) += v;
        }
        for (k, v) in &other.gauges {
            *entry_or_insert(&mut self.gauges, k, 0.0) = *v;
        }
        for (k, v) in &other.spans {
            let stat = entry_or_insert(&mut self.spans, k, SpanStat::default());
            stat.count += v.count;
            stat.total_ns += v.total_ns;
            stat.max_ns = stat.max_ns.max(v.max_ns);
        }
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(h) if h.edges == v.edges => {
                    for (a, b) in h.counts.iter_mut().zip(v.counts.iter()) {
                        *a += b;
                    }
                    h.count += v.count;
                    h.sum += v.sum;
                }
                _ => {
                    self.histograms.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// A deterministic text rendering of the **count-exact** sections:
    /// counters, `f64` counters, and histogram bucket counts. Spans are
    /// excluded (durations are wall-clock, and per-worker probes make
    /// span *counts* scheduling-dependent); gauges are excluded too
    /// (last-write-wins state such as worker counts is environment
    /// description, not workload accounting). Two runs of the same
    /// workload must produce identical fingerprints regardless of thread
    /// count.
    pub fn counts_fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k}={v}");
        }
        for (k, v) in &self.fcounters {
            let _ = writeln!(out, "fcounter {k}={:x}", v.to_bits());
        }
        for (k, v) in &self.histograms {
            let _ = writeln!(out, "hist {k}={:?} sum={:x}", v.counts, v.sum.to_bits());
        }
        out
    }
}
