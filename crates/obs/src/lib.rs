//! Observability layer for the mobilenet workspace.
//!
//! The measurement pipeline (synthesis → probes → DPI → aggregation →
//! analysis) is the paper's §2 apparatus; a real packet-core collection
//! system lives and dies by per-stage counters and drop accounting. This
//! crate is that substrate for the simulator, on `std` alone:
//!
//! * **spans** — RAII wall-clock timers ([`span`]) that nest: a span
//!   started while another is active on the same thread records under the
//!   parent's path (`generate/collect/shards`);
//! * **counters** — monotonic `u64` ([`add`]) and `f64` ([`add_f64`])
//!   accumulators for session, record and byte accounting;
//! * **gauges** — last-write-wins `f64` values ([`gauge`]);
//! * **histograms** — fixed-bucket distributions ([`observe`]), e.g. the
//!   ULI localization-error displacement histogram.
//!
//! Everything lands in a thread-safe [`Registry`]: the one installed on
//! the recording thread by [`scoped`] if any, else the process-wide
//! global registry. A pipeline run records into its own registry
//! (so its report holds only its own metrics, however many runs share
//! the process) and folds it into the enclosing one when it ends;
//! `mobilenet-par` hands the caller's registry to every worker of a
//! parallel region. [`snapshot`] returns an immutable [`Snapshot`] of
//! the global registry that renders to a human-readable report
//! ([`Snapshot::render`]) or machine-readable JSON
//! ([`Snapshot::to_json`]).
//!
//! # Determinism contract
//!
//! Counters, `f64` counters recorded from deterministic (merge-ordered)
//! contexts, and histograms are **exact**: their values are identical no
//! matter how many worker threads ran the instrumented code. Span
//! *durations* (and span counts of per-worker instrumentation such as
//! queue-wait probes) are wall-clock measurements, and gauges may
//! describe the environment itself (e.g. `par.workers`), so both are
//! thread-count-dependent by design. [`Snapshot::counts_fingerprint`]
//! renders exactly the deterministic sections, for tests that assert
//! the contract.
//!
//! # Enabling
//!
//! Collection is **off by default**: every instrumentation entry point
//! first reads one relaxed atomic and returns immediately when disabled,
//! so the instrumented hot paths pay no measurable cost; only enabled
//! recording looks up the thread's scoped registry. Enable with the
//! `MOBILENET_OBS` environment variable (any value other than
//! `0`/`off`/`false`; a value that looks like a path additionally names
//! the JSON report file the binaries write) or programmatically with
//! [`set_enabled`], which takes precedence over the environment.
//!
//! ```
//! mobilenet_obs::set_enabled(Some(true));
//! {
//!     let _outer = mobilenet_obs::span("stage");
//!     let _inner = mobilenet_obs::span("substep"); // records as "stage/substep"
//!     mobilenet_obs::add("stage.items", 128);
//! }
//! let snap = mobilenet_obs::snapshot();
//! assert_eq!(snap.counter("stage.items"), Some(128));
//! assert!(snap.span("stage/substep").is_some());
//! mobilenet_obs::set_enabled(None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
mod render;

pub use registry::{HistStat, Registry, Snapshot, SpanStat};

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Name of the environment variable that enables collection (and may name
/// the JSON output file, see [`env_output_path`]).
pub(crate) const OBS_ENV: &str = "MOBILENET_OBS";

/// Process-wide runtime override; 0 = unset, 1 = disabled, 2 = enabled.
static ENABLE_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached resolution of `MOBILENET_OBS`.
static DEFAULT_ENABLED: OnceLock<bool> = OnceLock::new();

fn default_enabled() -> bool {
    *DEFAULT_ENABLED.get_or_init(|| match std::env::var(OBS_ENV) {
        Ok(v) => !matches!(v.trim(), "" | "0" | "off" | "false"),
        Err(_) => false,
    })
}

/// Whether instrumentation currently records anything: the
/// [`set_enabled`] override if set, else the `MOBILENET_OBS` environment
/// variable, else off.
#[inline]
pub fn enabled() -> bool {
    match ENABLE_OVERRIDE.load(Ordering::Relaxed) {
        0 => default_enabled(),
        1 => false,
        _ => true,
    }
}

/// Forces collection on or off for the whole process, taking precedence
/// over `MOBILENET_OBS`; `None` restores the environment default.
pub fn set_enabled(on: Option<bool>) {
    let v = match on {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    ENABLE_OVERRIDE.store(v, Ordering::Relaxed);
}

/// The JSON output path carried by `MOBILENET_OBS`, if its value names a
/// file rather than a bare on/off switch.
pub fn env_output_path() -> Option<PathBuf> {
    match std::env::var(OBS_ENV) {
        Ok(v) => {
            let v = v.trim();
            if matches!(v, "" | "0" | "1" | "on" | "off" | "true" | "false") {
                None
            } else {
                Some(PathBuf::from(v))
            }
        }
        Err(_) => None,
    }
}

/// The process-wide registry the free functions record into on a thread
/// with no [`scoped`] registry installed.
pub(crate) fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

thread_local! {
    /// The registry [`scoped`] installed on this thread, if any.
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// Runs `f` with `registry` installed as this thread's recording target:
/// every span, counter, gauge and histogram recorded on this thread
/// inside `f` lands there instead of in the global registry (`None`
/// records into the global one). The previous target is restored when
/// `f` returns or unwinds. Worker threads start with no target, so code
/// that spawns threads passes [`current`] on to them (`mobilenet-par`
/// does).
pub fn scoped<R>(registry: Option<Arc<Registry>>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<Registry>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = previous);
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(registry)));
    f()
}

/// The registry [`scoped`] installed on this thread, if any.
pub fn current() -> Option<Arc<Registry>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Calls `f` on this thread's recording target: the [`scoped`] registry
/// if one is installed, else the global registry.
fn with_target(f: impl FnOnce(&Registry)) {
    CURRENT.with(|c| match c.borrow().as_deref() {
        Some(scoped) => f(scoped),
        None => f(global()),
    });
}

thread_local! {
    /// Active span names of this thread, outermost first. Worker threads
    /// spawned inside a parallel region start with an empty stack, so
    /// spans recorded there are root-level — name them accordingly.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// An RAII span timer; records its wall-clock duration (and increments
/// the span's call count) under the hierarchical path when dropped.
///
/// When collection is disabled the guard is inert — no clock read, no
/// allocation, no lock.
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct Span {
    inner: Option<(String, Instant)>,
}

/// Starts a span named `name`, nested under any span already active on
/// this thread.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    let path = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(name);
        s.join("/")
    });
    Span {
        inner: Some((path, Instant::now())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((path, start)) = self.inner.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
            with_target(|r| r.record_span(&path, ns));
        }
    }
}

/// Adds `delta` to the monotonic `u64` counter `name`.
#[inline]
pub fn add(name: &str, delta: u64) {
    if enabled() {
        with_target(|r| r.add(name, delta));
    }
}

/// Adds `delta` to the `f64` counter `name`.
///
/// Unlike `u64` addition, floating-point accumulation is
/// order-sensitive: call this from merge-ordered (or single-threaded)
/// contexts when the value must be bit-identical across thread counts.
#[inline]
pub fn add_f64(name: &str, delta: f64) {
    if enabled() {
        with_target(|r| r.add_f64(name, delta));
    }
}

/// Sets the gauge `name` to `value` (last write wins).
#[inline]
pub fn gauge(name: &str, value: f64) {
    if enabled() {
        with_target(|r| r.gauge(name, value));
    }
}

/// Records `value` into the fixed-bucket histogram `name`.
///
/// `edges` are the inclusive upper bounds of the buckets; one overflow
/// bucket past the last edge is implicit. The first call fixes the
/// histogram's edges; later calls must pass the same edges.
#[inline]
pub fn observe(name: &str, value: f64, edges: &[f64]) {
    if enabled() {
        with_target(|r| r.observe(name, value, edges));
    }
}

/// Records an externally measured duration under span `path` — the hook
/// for instrumentation that cannot hold a [`Span`] guard across the
/// measured region (e.g. per-worker queue-wait probes).
#[inline]
pub fn record_span_ns(path: &str, ns: u64) {
    if enabled() {
        with_target(|r| r.record_span(path, ns));
    }
}

/// Folds `snapshot` into this thread's recording target (the [`scoped`]
/// registry, else the global one) — how a finished run's own registry joins
/// the enclosing one. Unlike the recording functions it does not check
/// [`enabled`]: the snapshot was recorded while collection was on.
pub fn merge(snapshot: &Snapshot) {
    with_target(|r| r.merge(snapshot));
}

/// An immutable copy of everything recorded so far into the global
/// registry, which includes every pipeline run that has ended.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clears the global registry (the enabled state is untouched).
pub fn reset() {
    global().reset();
}

/// Writes the current [`snapshot`] as JSON to `path`.
pub fn write_json(path: &Path) -> std::io::Result<()> {
    std::fs::write(path, snapshot().to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global enable flag and registry are process-wide, so all tests
    /// that touch them run under this lock.
    fn with_global_obs<R>(f: impl FnOnce() -> R) -> R {
        use std::sync::Mutex;
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(Some(true));
        reset();
        let r = f();
        reset();
        set_enabled(None);
        r
    }

    #[test]
    fn spans_nest_on_one_thread() {
        with_global_obs(|| {
            {
                let _a = span("outer");
                {
                    let _b = span("inner");
                    let _c = span("leaf");
                }
                let _d = span("inner"); // second visit aggregates
            }
            let snap = snapshot();
            assert_eq!(snap.span("outer").unwrap().count, 1);
            assert_eq!(snap.span("outer/inner").unwrap().count, 2);
            assert_eq!(snap.span("outer/inner/leaf").unwrap().count, 1);
            assert!(snap.span("inner").is_none(), "child must not leak to root");
            // A sibling started after the tree closed is root-level again.
            drop(span("outer"));
            assert_eq!(snapshot().span("outer").unwrap().count, 2);
        });
    }

    #[test]
    fn disabled_mode_records_nothing() {
        with_global_obs(|| {
            set_enabled(Some(false));
            let _s = span("ghost");
            add("ghost.count", 5);
            add_f64("ghost.mb", 1.5);
            gauge("ghost.gauge", 2.0);
            observe("ghost.hist", 1.0, &[1.0, 2.0]);
            drop(_s);
            set_enabled(Some(true));
            let snap = snapshot();
            assert!(snap.spans.is_empty());
            assert!(snap.counters.is_empty());
            assert!(snap.fcounters.is_empty());
            assert!(snap.gauges.is_empty());
            assert!(snap.histograms.is_empty());
        });
    }

    #[test]
    fn filtered_snapshot_keeps_only_matching_prefixes() {
        with_global_obs(|| {
            add("serve.queries", 3);
            add("serve.connections", 1);
            add("netsim.ingest.records", 100);
            add("core.r2_pairs", 190);
            gauge("serve.watermark_hour", 42.0);
            gauge("par.threads", 8.0);
            drop(span("serve"));
            drop(span("collect"));
            let snap = snapshot();
            let health = snap.filtered(&["serve.", "netsim.ingest.", "serve"]);
            assert_eq!(health.counter("serve.queries"), Some(3));
            assert_eq!(health.counter("netsim.ingest.records"), Some(100));
            assert_eq!(health.counter("core.r2_pairs"), None);
            assert_eq!(
                health.gauges.get("serve.watermark_hour").copied(),
                Some(42.0)
            );
            assert_eq!(health.gauges.get("par.threads").copied(), None);
            assert!(health.span("serve").is_some());
            assert!(health.span("collect").is_none());
            // Filtering an already-filtered snapshot is idempotent.
            assert_eq!(
                health.filtered(&["serve.", "netsim.ingest.", "serve"]),
                health
            );
        });
    }

    #[test]
    fn counter_and_histogram_merge_is_count_exact_at_1_2_8_threads() {
        // The contract the parallel pipeline relies on: u64 counters and
        // histogram bucket counts are exact sums, independent of how many
        // threads recorded them.
        const ITEMS: u64 = 10_000;
        let edges = [10.0, 100.0, 1000.0];
        let run = |threads: usize| -> Snapshot {
            let reg = Registry::new();
            let per = ITEMS as usize / threads;
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let reg = &reg;
                    let edges = &edges;
                    scope.spawn(move || {
                        for i in (t * per)..((t + 1) * per) {
                            reg.add("items", 1);
                            reg.add("weighted", (i % 7) as u64);
                            reg.observe("dist", (i % 2000) as f64, edges);
                        }
                    });
                }
            });
            reg.snapshot()
        };
        let reference = run(1);
        assert_eq!(reference.counter("items"), Some(ITEMS));
        for threads in [2usize, 8] {
            let snap = run(threads);
            assert_eq!(
                snap.counter("items"),
                reference.counter("items"),
                "{threads} threads"
            );
            assert_eq!(snap.counter("weighted"), reference.counter("weighted"));
            let (a, b) = (
                snap.histogram("dist").unwrap(),
                reference.histogram("dist").unwrap(),
            );
            assert_eq!(a.counts, b.counts, "{threads} threads");
            assert_eq!(a.count, b.count);
            assert_eq!(
                snap.counts_fingerprint(),
                reference.counts_fingerprint(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn histogram_buckets_values_by_upper_bound() {
        let reg = Registry::new();
        let edges = [1.0, 2.0, 4.0];
        for v in [0.5, 1.0, 1.5, 2.0, 3.9, 4.0, 100.0] {
            reg.observe("h", v, &edges);
        }
        let h = reg.snapshot().histogram("h").unwrap().clone();
        assert_eq!(h.edges, edges);
        assert_eq!(h.counts, vec![2, 2, 2, 1]); // (≤1, ≤2, ≤4, overflow)
        assert_eq!(h.count, 7);
        assert!((h.sum - (0.5 + 1.0 + 1.5 + 2.0 + 3.9 + 4.0 + 100.0)).abs() < 1e-12);
    }

    #[test]
    fn snapshot_merge_folds_all_sections() {
        let a = Registry::new();
        a.add("c", 1);
        a.add_f64("f", 0.5);
        a.gauge("g", 1.0);
        a.observe("h", 1.0, &[2.0]);
        a.record_span("s", 100);
        let b = Registry::new();
        b.add("c", 2);
        b.add_f64("f", 0.25);
        b.gauge("g", 3.0);
        b.observe("h", 5.0, &[2.0]);
        b.record_span("s", 50);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("c"), Some(3));
        assert_eq!(m.fcounter("f"), Some(0.75));
        assert_eq!(m.gauges.get("g").copied(), Some(3.0));
        assert_eq!(m.histogram("h").unwrap().counts, vec![1, 1]);
        let s = m.span("s").unwrap();
        assert_eq!((s.count, s.total_ns, s.max_ns), (2, 150, 100));
    }

    #[test]
    fn scoped_registry_takes_records_and_is_restored_after_a_panic() {
        with_global_obs(|| {
            let outer = Arc::new(Registry::new());
            let inner = Arc::new(Registry::new());
            scoped(Some(outer.clone()), || {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    scoped(Some(inner.clone()), || {
                        drop(span("stage"));
                        add("x", 1);
                        panic!("recorder failure");
                    })
                }));
                assert!(caught.is_err());
                let restored = current().expect("outer scope restored after the unwind");
                assert!(Arc::ptr_eq(&restored, &outer));
                add("x", 10);
            });
            assert!(
                current().is_none(),
                "leaving the outer scope restores global"
            );
            add("x", 100);
            let inner = inner.snapshot();
            assert_eq!(inner.counter("x"), Some(1));
            assert_eq!(inner.span("stage").map(|s| s.count), Some(1));
            assert_eq!(outer.snapshot().counter("x"), Some(10));
            assert_eq!(snapshot().counter("x"), Some(100));
            assert!(snapshot().span("stage").is_none());
        });
    }

    #[test]
    fn registry_merge_adds_counts_and_keeps_the_longest_span() {
        let run = Registry::new();
        run.add("c", 2);
        run.observe("h", 1.0, &[2.0]);
        run.record_span("s", 100);
        let enclosing = Registry::new();
        enclosing.add("c", 5);
        enclosing.observe("h", 3.0, &[2.0]);
        enclosing.record_span("s", 40);
        enclosing.merge(&run.snapshot());
        let m = enclosing.snapshot();
        assert_eq!(m.counter("c"), Some(7));
        let h = m.histogram("h").unwrap();
        assert_eq!((h.counts.as_slice(), h.count), (&[1, 1][..], 2));
        let s = m.span("s").unwrap();
        assert_eq!((s.count, s.total_ns, s.max_ns), (2, 140, 100));
    }

    #[test]
    fn env_output_path_distinguishes_switches_from_paths() {
        // Pure-value helper, exercised through the parsing rules only
        // (the env var itself is owned by the harness, not this test).
        for v in ["", "0", "1", "on", "off", "true", "false"] {
            let is_switch = matches!(v, "" | "0" | "1" | "on" | "off" | "true" | "false");
            assert!(is_switch, "{v}");
        }
    }

    #[test]
    fn json_and_render_cover_every_section() {
        let reg = Registry::new();
        reg.add("pipeline.sessions", 42);
        reg.add_f64("pipeline.classified_mb", 1234.5);
        reg.gauge("par.workers", 8.0);
        reg.observe("uli_km", 2.5, &[1.0, 3.0]);
        reg.record_span("generate", 1_500_000);
        reg.record_span("generate/collect", 1_000_000);
        let snap = reg.snapshot();
        let json = snap.to_json();
        for needle in [
            "\"schema\": \"mobilenet-obs/v1\"",
            "\"pipeline.sessions\": 42",
            "\"pipeline.classified_mb\"",
            "\"par.workers\"",
            "\"uli_km\"",
            "\"generate/collect\"",
            "\"total_ms\"",
            "\"edges\"",
        ] {
            assert!(json.contains(needle), "JSON missing {needle}:\n{json}");
        }
        let text = snap.render();
        assert!(text.contains("generate"));
        assert!(
            text.contains("  collect"),
            "nested span not indented:\n{text}"
        );
        assert!(text.contains("pipeline.sessions"));
        // Fingerprint covers counts but not wall-clock fields.
        let fp = snap.counts_fingerprint();
        assert!(fp.contains("pipeline.sessions=42"));
        assert!(!fp.contains("total_ms"));
    }
}
