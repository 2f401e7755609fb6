//! Zero-allocation contract for the warmed batch aggregation loop
//! (DESIGN §3.13).
//!
//! The streaming engine cycles one [`RecordBatch`] per sink: fill the
//! columns, dictionary-encode the signatures, fold dense columns into the
//! dataset's flat tables, clear, repeat. The columnar rewrite promises
//! that, once every column and the codes scratch have warmed to the chunk
//! size, that cycle touches the heap zero times — the counting global
//! allocator enforces it directly rather than relying on code inspection.
//!
//! The binary holds exactly one `#[test]` so no sibling test thread can
//! allocate inside the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mobilenet::geo::{Country, CountryConfig};
use mobilenet::netsim::pipeline::CollectionStats;
use mobilenet::netsim::{aggregate_batch, DpiClassifier, FoldStrategy, Interface, RecordBatch};
use mobilenet::traffic::TrafficDataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// Confines counting to the measuring thread: the libtest harness's main
// thread can perform one-time lazy allocations (first blocking park,
// channel internals) at any moment, and under CPU contention those land
// inside the measurement window of the sibling test thread. A const-init
// `Cell` TLS flag is allocation-free to read, so checking it inside the
// allocator cannot recurse.
thread_local! {
    static MEASURING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) && MEASURING.with(|m| m.get()) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) && MEASURING.with(|m| m.get()) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on and returns how many heap
/// allocations (including reallocations) it performed.
fn allocations_in(f: impl FnOnce()) -> u64 {
    MEASURING.with(|m| m.set(true));
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    MEASURING.with(|m| m.set(false));
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn warmed_batch_aggregation_does_not_allocate() {
    let n_head = 20usize;
    let n_tail = 30usize;
    let classifier = DpiClassifier::new(n_head, n_tail, 0.88);
    let country = Country::generate(&CountryConfig::small(), 7);
    let n_communes = country.communes().len() as u32;
    let mut dataset = TrafficDataset::new(&country, n_head, n_tail, 0.3);
    let mut stats = CollectionStats::default();
    let mut rng = StdRng::seed_from_u64(42);

    // A chunk-sized record set mixing head, tail and opaque signatures —
    // every branch of the fold gets exercised inside the window.
    const CHUNK: usize = 4096;
    let rows: Vec<_> = (0..CHUNK)
        .map(|i| {
            let signature = match i % 3 {
                0 => classifier.stamp_head((i % n_head) as u16, &mut rng),
                1 => classifier.stamp_tail((i % n_tail) as u16, &mut rng),
                _ => classifier.stamp_head((i % n_head) as u16, &mut rng),
            };
            (
                if i % 2 == 0 {
                    Interface::Gn
                } else {
                    Interface::S5S8
                },
                (i % 168) as u16,
                0.25 + i as f64 * 0.001,
                0.05 + i as f64 * 0.0003,
                i as u32 % n_communes,
                signature.0,
                i % 17 == 0,
            )
        })
        .collect();

    let mut batch = RecordBatch::with_capacity(CHUNK);
    let fill = |batch: &mut RecordBatch| {
        batch.clear();
        for &(interface, hour, dl, ul, commune, sig, stale) in &rows {
            batch.push_parts(interface, hour, dl, ul, commune, sig, stale);
        }
    };

    // Warm every column and the codes scratch to the chunk size.
    fill(&mut batch);
    aggregate_batch(
        &mut batch,
        &classifier,
        FoldStrategy::Batched,
        true,
        &mut dataset,
        &mut stats,
    );

    let allocs = allocations_in(|| {
        for _ in 0..50 {
            fill(&mut batch);
            aggregate_batch(
                &mut batch,
                &classifier,
                FoldStrategy::Batched,
                true,
                &mut dataset,
                &mut stats,
            );
        }
    });
    assert_eq!(
        allocs, 0,
        "warmed batch fill+fold cycle allocated {allocs} times"
    );
    assert!(stats.sessions as usize == 51 * CHUNK);
    assert!(stats.classified_mb > 0.0 && stats.unclassified_mb > 0.0);
}
