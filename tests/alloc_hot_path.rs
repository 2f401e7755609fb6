//! Zero-allocation contract for the warmed SBD/FFT hot path (DESIGN §3.12).
//!
//! The k-shape inner loop calls `SbdEngine::sbd`/`ncc_c` and the planned
//! FFT kernels millions of times per sweep; the rewrite promises that,
//! once scratch buffers have warmed to the plan length, these calls touch
//! the heap zero times. A counting global allocator enforces that
//! directly rather than relying on code inspection.
//!
//! The binary holds exactly one `#[test]` so no sibling test thread can
//! allocate inside the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mobilenet::timeseries::fft::{Direction, FftPlan};
use mobilenet::timeseries::sbd::{SbdEngine, SbdScratch};
use mobilenet::timeseries::Complex;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
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
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

fn series(m: usize, phase: f64) -> Vec<f64> {
    (0..m)
        .map(|i| (i as f64 * 0.37 + phase).sin() + 0.2 * (i as f64 * 1.7).cos())
        .collect()
}

#[test]
fn warmed_sbd_and_fft_kernels_do_not_allocate() {
    let m = 48;
    let engine = SbdEngine::new(m);
    let x = series(m, 0.0);
    let y = series(m, 1.3);
    let fx = engine.spectrum(&x);
    let mut fy = engine.spectrum(&y);
    let mut scratch = SbdScratch::new();

    // Warm every buffer to the plan length.
    engine.sbd(&fx, &fy, &mut scratch);
    engine.ncc_c(&fx, &fy, &mut scratch);
    engine.spectrum_into(&y, &mut fy);

    let sbd_allocs = allocations_in(|| {
        for _ in 0..100 {
            let d = engine.sbd(&fx, &fy, &mut scratch);
            assert!(d.is_finite());
            let a = engine.ncc_c(&fx, &fy, &mut scratch);
            assert!(a.ncc.is_finite());
            engine.spectrum_into(&y, &mut fy);
        }
    });
    assert_eq!(
        sbd_allocs, 0,
        "warmed SbdEngine path allocated {sbd_allocs} times"
    );

    // A planned FFT transforms in place.
    let plan = FftPlan::new(256);
    let mut data: Vec<Complex> = (0..256)
        .map(|i| Complex::new((i as f64 * 0.11).sin(), 0.0))
        .collect();
    let fft_allocs = allocations_in(|| {
        for _ in 0..100 {
            plan.fft_in_place(&mut data, Direction::Forward);
            plan.fft_in_place(&mut data, Direction::Inverse);
        }
    });
    assert_eq!(
        fft_allocs, 0,
        "warmed planned-FFT path allocated {fft_allocs} times"
    );
}
