//! Deterministic parallel execution layer for the mobilenet workspace.
//!
//! Every hot path in the pipeline (session synthesis, cube aggregation,
//! pairwise correlation, clustering sweeps) is an *embarrassingly ordered*
//! problem: a fixed list of independent work items whose results must be
//! combined in submission order so output is bit-identical regardless of
//! how many threads ran. This crate provides exactly that and nothing
//! more, on `std` alone:
//!
//! - [`par_map_collect`] — run `f(0..n)` across a scoped worker pool,
//!   dynamically chunked, results reassembled **in index order**; callers
//!   that combine the results fold them left-to-right in that order, so
//!   even non-associative-in-practice operations (floating-point `+`) give
//!   one canonical answer;
//! - [`par_map_collect_min`] — the same with a serial-fallback work
//!   threshold for regions too small to amortize a spawn;
//! - [`seed_for`] — splitmix-style derivation of independent per-shard
//!   RNG stream seeds from a master seed, so shard *i* draws the same
//!   stream whether it runs first, last, serial, or parallel;
//! - the `MOBILENET_THREADS` environment override (plus
//!   [`set_thread_override`] for tests and CLI flags).
//!
//! Workers are `std::thread::scope` threads spawned per parallel region;
//! a region with one worker or one item never spawns at all and runs the
//! caller's closures inline. Determinism therefore never depends on the
//! pool: threads race only over *which* worker computes an item, never
//! over where its result lands. Each worker records observability into
//! the caller's [`mobilenet_obs::scoped`] registry, so a region's metrics
//! belong to whatever run started it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Name of the environment variable overriding the worker count.
pub(crate) const THREADS_ENV: &str = "MOBILENET_THREADS";

/// Process-wide runtime override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Cached resolution of `MOBILENET_THREADS` / available parallelism.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

fn default_threads() -> usize {
    *DEFAULT_THREADS.get_or_init(|| match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => available_parallelism(),
        },
        Err(_) => available_parallelism(),
    })
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Forces the worker count for subsequent parallel regions, taking
/// precedence over `MOBILENET_THREADS`; `None` restores the default.
///
/// Process-global: intended for CLI `--threads` flags and for tests that
/// exercise the same computation at several thread counts.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The worker count the next parallel region will use: the
/// [`set_thread_override`] value if set, else `MOBILENET_THREADS`, else
/// the machine's available parallelism.
pub fn current_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => default_threads(),
        n => n,
    }
}

/// A worker count and serial-fallback threshold for one parallel region.
#[derive(Debug, Clone, Copy)]
struct Pool {
    threads: usize,
    min_items_per_worker: usize,
}

impl Pool {
    /// A pool with an explicit worker count (minimum 1).
    fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
            min_items_per_worker: 1,
        }
    }

    /// A pool using the ambient configuration (see [`current_threads`]).
    fn global() -> Self {
        Pool::new(current_threads())
    }

    /// Sets the serial-fallback work threshold (see
    /// [`par_map_collect_min`]); the default of 1 spawns whenever `n > 1`.
    fn with_min_items_per_worker(mut self, min_items: usize) -> Self {
        self.min_items_per_worker = min_items.max(1);
        self
    }

    /// Workers a region over `n` items spawns; 0 or 1 runs it inline.
    fn workers(&self, n: usize) -> usize {
        self.threads.min(n).min(n / self.min_items_per_worker)
    }

    /// Maps `f` over `0..n` on this pool; results in index order (see
    /// [`par_map_collect`]).
    fn map_collect<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.workers(n);
        let observing = mobilenet_obs::enabled();
        if observing {
            mobilenet_obs::add("par.regions", 1);
            mobilenet_obs::add("par.items", n as u64);
            mobilenet_obs::gauge("par.workers", workers.max(1) as f64);
        }
        if workers <= 1 {
            if observing {
                mobilenet_obs::add("par.worker_items", n as u64);
            }
            return (0..n).map(f).collect();
        }
        // One slot per item: workers race over which item they pick up
        // (dynamic chunking amortizes the atomic), never over where a
        // result lands, so reassembly is exact submission order.
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let chunk = n.div_ceil(workers * 4).max(1);
        let region_start = std::time::Instant::now();
        let worker = || {
            let spawned = std::time::Instant::now();
            let mut processed = 0u64;
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for (i, slot) in slots
                    .iter()
                    .enumerate()
                    .take(n.min(start + chunk))
                    .skip(start)
                {
                    let result = f(i);
                    *slot.lock().expect("result slot poisoned") = Some(result);
                    processed += 1;
                }
            }
            if observing {
                // The per-worker item split is scheduling-dependent;
                // only the total (always exactly `n`) is counted.
                mobilenet_obs::add("par.worker_items", processed);
                let wait = spawned.duration_since(region_start);
                mobilenet_obs::record_span_ns("par/worker_wait", wait.as_nanos() as u64);
                mobilenet_obs::record_span_ns(
                    "par/worker_busy",
                    spawned.elapsed().as_nanos() as u64,
                );
            }
        };
        // Workers record into the caller's registry, not the global one.
        let registry = mobilenet_obs::current();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| mobilenet_obs::scoped(registry.clone(), worker));
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("slot filled by scope end")
            })
            .collect()
    }
}

/// Maps `f` over `0..n` on the ambient worker count (see
/// [`current_threads`]); results in index order.
///
/// When observability is enabled ([`mobilenet_obs::enabled`]) the region
/// records `par.regions` / `par.items` / `par.worker_items` counters
/// (totals, identical at any thread count), the `par.workers` gauge, and
/// per-worker `par/worker_wait` (spawn latency) and `par/worker_busy`
/// spans. Worker-level timing lives in the span section, which is
/// excluded from the determinism fingerprint because scheduling shapes
/// it. Workers record into the calling thread's
/// [`mobilenet_obs::current`] registry, like the caller itself.
pub fn par_map_collect<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    Pool::global().map_collect(n, f)
}

/// [`par_map_collect`] with a serial-fallback work threshold: a region
/// spawns at most `n / min_items` workers, so each has at least
/// `min_items` items to amortize its spawn cost against, and below
/// `2 × min_items` the region runs inline on the caller's thread. Output
/// is unaffected: worker count never changes results, only where they
/// are computed.
pub fn par_map_collect_min<R, F>(n: usize, min_items: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    Pool::global()
        .with_min_items_per_worker(min_items)
        .map_collect(n, f)
}

/// Derives the RNG stream seed for shard `stream` of a computation keyed
/// by `master`.
///
/// SplitMix64-style finalization over the (master, stream) pair: every
/// shard gets a well-separated stream, and the derivation depends only on
/// the pair — never on which worker runs the shard or in what order — so
/// sharded generation is bit-identical to serial generation.
pub fn seed_for(master: u64, stream: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xA24B_AED4_963E_E407));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_collect_preserves_submission_order() {
        for threads in [1, 2, 3, 8, 32] {
            let pool = Pool::new(threads);
            let out = pool.map_collect(1000, |i| i * i);
            assert_eq!(out.len(), 1000);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i, "threads = {threads}");
            }
        }
    }

    #[test]
    fn map_collect_matches_serial_iteration() {
        let items: Vec<f64> = (0..500).map(|i| i as f64 * 0.37).collect();
        let serial: Vec<f64> = items.iter().map(|v| v.sin()).collect();
        for threads in [1, 2, 8] {
            assert_eq!(
                Pool::new(threads).map_collect(items.len(), |i| items[i].sin()),
                serial
            );
        }
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<u32> = Pool::new(8).map_collect(0, |_| unreachable!("no items"));
        assert!(empty.is_empty());
        assert_eq!(Pool::new(8).map_collect(1, |i| i + 41), vec![41]);
        assert_eq!(par_map_collect(0, |_| 0u8), Vec::<u8>::new());
    }

    #[test]
    fn seed_for_separates_streams_and_ignores_scheduling() {
        let a: Vec<u64> = (0..100).map(|s| seed_for(7, s)).collect();
        let b: Vec<u64> = (0..100).rev().map(|s| seed_for(7, s)).collect();
        // Same (master, stream) pair -> same seed, regardless of order.
        assert!(a.iter().eq(b.iter().rev()));
        // Distinct streams and distinct masters give distinct seeds.
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
        assert_ne!(seed_for(7, 3), seed_for(8, 3));
        assert_ne!(seed_for(7, 3), seed_for(7, 4));
    }

    #[test]
    fn min_items_threshold_matches_parallel_results() {
        // Threshold-sized and sub-threshold inputs must produce exactly
        // the unthresholded pool's output at every thread count — the
        // fallback only moves work inline, never changes it.
        let work = |i: usize| ((i as f64 + 0.3).sin() * 1e6, i * 7);
        for n in [0usize, 1, 31, 32, 33, 64, 257] {
            let reference = Pool::new(1).map_collect(n, work);
            for threads in [1, 2, 8] {
                for min_items in [1usize, 32, 1000] {
                    let out = Pool::new(threads)
                        .with_min_items_per_worker(min_items)
                        .map_collect(n, work);
                    assert_eq!(out, reference, "n={n} threads={threads} min={min_items}");
                }
            }
            assert_eq!(par_map_collect_min(n, 32, work), reference, "n={n} free fn");
        }
    }

    #[test]
    fn min_items_gates_worker_spawning() {
        // n / min_items bounds the workers: below 2×min_items the region
        // must degrade to exactly one (inline) worker.
        let pool = Pool::new(8).with_min_items_per_worker(32);
        assert_eq!(pool.workers(20), 0); // inline path
        assert_eq!(pool.workers(64), 2); // two workers
                                         // Default keeps historical behavior: spawn whenever n > 1.
        assert_eq!(Pool::new(8).workers(2), 2);
    }

    #[test]
    fn pool_respects_runtime_override() {
        set_thread_override(Some(3));
        assert_eq!(current_threads(), 3);
        assert_eq!(Pool::global().threads, 3);
        set_thread_override(None);
        assert!(current_threads() >= 1);
    }

    #[test]
    fn workers_record_into_the_callers_scoped_registry() {
        // Other tests may run regions while collection is on, so global
        // leakage is checked on a name only this region records.
        mobilenet_obs::set_enabled(Some(true));
        let registry = std::sync::Arc::new(mobilenet_obs::Registry::new());
        let out = mobilenet_obs::scoped(Some(registry.clone()), || {
            Pool::new(4).map_collect(1000, |i| {
                mobilenet_obs::add("par_test.scoped_items", 1);
                i
            })
        });
        mobilenet_obs::set_enabled(None);
        assert_eq!(out.len(), 1000);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("par.items"), Some(1000));
        assert_eq!(snap.counter("par.worker_items"), snap.counter("par.items"));
        assert_eq!(snap.counter("par_test.scoped_items"), Some(1000));
        assert_eq!(snap.span("par/worker_busy").map(|s| s.count), Some(4));
        assert_eq!(
            mobilenet_obs::snapshot().counter("par_test.scoped_items"),
            None
        );
    }

    #[test]
    fn panics_in_workers_propagate() {
        let caught = std::panic::catch_unwind(|| {
            Pool::new(4).map_collect(100, |i| {
                if i == 57 {
                    panic!("worker failure");
                }
                i
            })
        });
        assert!(caught.is_err());
    }
}
