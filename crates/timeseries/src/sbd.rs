//! Shape-based distance (SBD) from *k-Shape* (Paparrizos & Gravano,
//! SIGMOD 2015).
//!
//! The paper clusters the weekly per-service time series with k-Shape
//! (Figure 5). k-Shape measures dissimilarity with
//!
//! ```text
//! SBD(x, y) = 1 − max_w NCC_c(x, y)(w)
//! ```
//!
//! where `NCC_c` is the cross-correlation sequence normalized by the product
//! of the series' Euclidean norms (*coefficient* normalization). SBD lies in
//! `[0, 2]`, is 0 for identical shapes at any shift, and is invariant to
//! amplitude scaling when inputs are z-normalized.
//!
//! # Degenerate series convention
//!
//! A series with **no shape** — one whose Euclidean norm is (near) zero
//! *or* that is constant (zero variance) — correlates with nothing:
//! `NCC_c` is defined as 0 at shift 0, so its SBD to anything (including
//! another flat series) is exactly **1.0**, the neutral midpoint of
//! `[0, 2]`. This makes the convention explicit at the SBD layer rather
//! than an accident of `z_normalize` mapping constants to all-zeros
//! (which this definition agrees with: a z-normalized constant is the
//! zero series, whose norm is zero).
//!
//! # One kernel
//!
//! [`SbdEngine`] is the only correlation path. Each series' zero-padded
//! spectrum and norm are computed **once** ([`SbdEngine::spectrum`]),
//! after which every distance costs one inverse transform — no forward
//! FFTs, no heap allocation (caller-owned [`SbdScratch`]). The hot paths
//! (k-Shape assignment, the Fig-5 sweep's distance tables) hold an engine
//! and its spectra. [`ncc_c`]/[`shape_based_distance`] are per-pair
//! conveniences over a thread-local engine per series length, so no call
//! after a thread's first at a length builds a plan.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::complex::Complex;
use crate::fft::{next_pow2, Direction, FftPlan};

/// Result of an NCC-c maximization: the best-aligned correlation value and
/// the shift that achieves it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alignment {
    /// Maximum coefficient-normalized cross-correlation, in `[-1, 1]`.
    pub ncc: f64,
    /// Shift (in samples) to apply to `y` for best alignment with `x`.
    /// Positive means `y` is delayed (shifted right).
    pub shift: isize,
}

const FLAT: Alignment = Alignment { ncc: 0.0, shift: 0 };

/// A series prepared for batched SBD: its forward spectrum at the engine's
/// padded length, Euclidean norm, and flat-series flag.
#[derive(Debug, Clone)]
pub struct Spectrum {
    /// Euclidean norm of the raw series.
    norm: f64,
    /// No shape: zero norm or constant series (see module docs).
    flat: bool,
    /// Forward FFT of the zero-padded series.
    bins: Vec<Complex>,
}

/// Caller-owned buffer for the engine's inverse transforms, grown on
/// first use and reused thereafter.
#[derive(Debug, Default, Clone)]
pub struct SbdScratch {
    buf: Vec<Complex>,
}

impl SbdScratch {
    /// An empty scratch; grows to the engine's FFT length on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Plan-cached SBD kernel for equal-length series of length `m`.
///
/// Holds the FFT plan for the padded correlation length
/// `next_pow2(2m − 1)`. Precompute one [`Spectrum`] per series, then
/// every pairwise [`SbdEngine::ncc_c`]/[`SbdEngine::sbd`] costs a single
/// inverse transform over a caller-owned [`SbdScratch`] — zero per-call
/// heap allocation.
#[derive(Debug, Clone)]
pub struct SbdEngine {
    m: usize,
    plan: FftPlan,
}

impl SbdEngine {
    /// An engine for series of length `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "NCC-c of empty series");
        SbdEngine {
            m,
            plan: FftPlan::new(next_pow2(2 * m - 1)),
        }
    }

    /// The series length this engine was built for.
    pub fn series_len(&self) -> usize {
        self.m
    }

    /// Computes a series' spectrum (one forward FFT plus norm and
    /// flatness checks). Allocates the spectrum's buffer — do this once
    /// per series, outside the hot loop.
    ///
    /// # Panics
    ///
    /// Panics if `series.len()` differs from the engine length.
    pub fn spectrum(&self, series: &[f64]) -> Spectrum {
        let mut s = Spectrum {
            norm: 0.0,
            flat: true,
            bins: Vec::new(),
        };
        self.spectrum_into(series, &mut s);
        s
    }

    /// Recomputes `out` from `series`, reusing its buffer — the zero-
    /// allocation path for spectra that change every round (k-Shape
    /// centroids).
    pub fn spectrum_into(&self, series: &[f64], out: &mut Spectrum) {
        assert_eq!(series.len(), self.m, "engine built for length {}", self.m);
        out.norm = series.iter().map(|v| v * v).sum::<f64>().sqrt();
        out.flat = out.norm <= f64::EPSILON || series.windows(2).all(|w| w[0] == w[1]);
        out.bins.clear();
        out.bins.resize(self.plan.len(), Complex::ZERO);
        for (b, &x) in out.bins.iter_mut().zip(series) {
            *b = Complex::from_real(x);
        }
        self.plan.fft_in_place(&mut out.bins, Direction::Forward);
    }

    /// The maximizing [`Alignment`] of two prepared series: the maximum of
    /// their cross-correlation sequence `IFFT(X · conj(Y))` over the
    /// product of their norms (see [`ncc_c`]).
    pub fn ncc_c(&self, x: &Spectrum, y: &Spectrum, scratch: &mut SbdScratch) -> Alignment {
        if x.flat || y.flat {
            return FLAT;
        }
        let denom = x.norm * y.norm;
        let n = self.plan.len();
        scratch.buf.clear();
        scratch.buf.extend_from_slice(&x.bins);
        for (a, b) in scratch.buf.iter_mut().zip(y.bins.iter()) {
            *a = *a * b.conj();
        }
        self.plan.fft_in_place(&mut scratch.buf, Direction::Inverse);

        // Scan the circular buffer in lag order (−(m−1) ..= m−1) —
        // negative lags live at the tail `n−(m−1)..n`, non-negative at the
        // head `0..m` — so the strict `>` keeps the first maximum in lag
        // order.
        let neg = self.m - 1;
        let mut best = Alignment {
            ncc: f64::NEG_INFINITY,
            shift: 0,
        };
        for (off, c) in scratch.buf[n - neg..n].iter().enumerate() {
            let ncc = c.re / denom;
            if ncc > best.ncc {
                best = Alignment {
                    ncc,
                    shift: off as isize - neg as isize,
                };
            }
        }
        for (lag, c) in scratch.buf[..self.m].iter().enumerate() {
            let ncc = c.re / denom;
            if ncc > best.ncc {
                best = Alignment {
                    ncc,
                    shift: lag as isize,
                };
            }
        }
        best
    }

    /// Shape-based distance of two prepared series: `1 − max NCC_c`.
    pub fn sbd(&self, x: &Spectrum, y: &Spectrum, scratch: &mut SbdScratch) -> f64 {
        1.0 - self.ncc_c(x, y, scratch).ncc
    }
}

thread_local! {
    /// Per-thread engines keyed by series length, for the per-pair free
    /// functions (workers each build their own — no locks).
    static ENGINES: RefCell<HashMap<usize, SbdEngine>> = RefCell::new(HashMap::new());
}

/// Computes the full coefficient-normalized cross-correlation sequence
/// `NCC_c(x, y)` and returns the maximizing [`Alignment`] — the first
/// maximum in lag order.
///
/// If either series is flat — zero norm *or* constant (see the module
/// docs) — the correlation is defined as 0 at shift 0. One-off pairs run
/// through this thread's cached [`SbdEngine`] for `x.len()`; loops over
/// many pairs should hold an engine and reuse spectra instead.
pub fn ncc_c(x: &[f64], y: &[f64]) -> Alignment {
    assert_eq!(x.len(), y.len(), "NCC-c requires equal-length series");
    ENGINES.with(|engines| {
        let mut engines = engines.borrow_mut();
        let engine = engines
            .entry(x.len())
            .or_insert_with(|| SbdEngine::new(x.len()));
        engine.ncc_c(
            &engine.spectrum(x),
            &engine.spectrum(y),
            &mut SbdScratch::new(),
        )
    })
}

/// Shape-based distance: `1 − max NCC_c(x, y)`, in `[0, 2]`.
pub fn shape_based_distance(x: &[f64], y: &[f64]) -> f64 {
    1.0 - ncc_c(x, y).ncc
}

/// Shifts `y` by `shift` samples (zero-filling), the alignment operation
/// used when k-Shape refines centroids.
pub fn shift_series(y: &[f64], shift: isize) -> Vec<f64> {
    let n = y.len();
    let mut out = vec![0.0; n];
    for (i, o) in out.iter_mut().enumerate() {
        let src = i as isize - shift;
        if src >= 0 && (src as usize) < n {
            *o = y[src as usize];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norm::z_normalize;

    #[test]
    fn identical_series_have_zero_distance() {
        let x: Vec<f64> = (0..24).map(|i| (i as f64 * 0.5).sin()).collect();
        assert!(shape_based_distance(&x, &x) < 1e-12);
    }

    #[test]
    fn sbd_is_shift_invariant() {
        let mut x = vec![0.0; 32];
        for (i, v) in x.iter_mut().enumerate().take(8) {
            *v = (i as f64 / 7.0 * std::f64::consts::PI).sin();
        }
        let y = shift_series(&x, 10);
        let a = ncc_c(&x, &y);
        assert!((a.ncc - 1.0).abs() < 1e-9, "ncc = {}", a.ncc);
        assert_eq!(a.shift, -10);
    }

    #[test]
    fn sbd_is_scale_invariant_after_znorm() {
        let x: Vec<f64> = (0..48).map(|i| (i as f64 * 0.3).cos() + 2.0).collect();
        let y: Vec<f64> = x.iter().map(|v| 5.0 * v + 3.0).collect();
        let d = shape_based_distance(&z_normalize(&x), &z_normalize(&y));
        assert!(d < 1e-9, "d = {d}");
    }

    #[test]
    fn anti_correlated_series_approach_distance_two() {
        // A monotone ramp and its negation stay negatively correlated at
        // every shift (periodic signals would recover correlation when
        // shifted by half a period, so we avoid them here).
        let x: Vec<f64> = (1..=64).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| -v).collect();
        let d = shape_based_distance(&x, &y);
        assert!(d > 1.0, "d = {d}");
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let x: Vec<f64> = (0..20).map(|i| ((i * 13) % 7) as f64).collect();
        let y: Vec<f64> = (0..20).map(|i| ((i * 5) % 11) as f64).collect();
        let dxy = shape_based_distance(&x, &y);
        let dyx = shape_based_distance(&y, &x);
        assert!((dxy - dyx).abs() < 1e-9);
        assert!((0.0..=2.0).contains(&dxy));
    }

    #[test]
    fn flat_series_yield_neutral_alignment() {
        let x = vec![0.0; 10];
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let a = ncc_c(&x, &y);
        assert_eq!(a.ncc, 0.0);
        assert_eq!(a.shift, 0);
        assert!((shape_based_distance(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_have_neutral_distance_by_convention() {
        // Zero variance but nonzero norm: no shape, SBD is exactly 1.0 —
        // to a varying series, to a different constant, and to itself.
        let c = vec![3.5; 16];
        let d = vec![-2.0; 16];
        let y: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).sin()).collect();
        for other in [&y, &d, &c] {
            assert_eq!(shape_based_distance(&c, other), 1.0);
            assert_eq!(shape_based_distance(other, &c), 1.0);
            let a = ncc_c(&c, other);
            assert_eq!((a.ncc, a.shift), (0.0, 0));
        }
        // Consistent with the z-normalize route: a z-normalized constant
        // is the zero series, which hits the zero-norm rule.
        assert_eq!(
            shape_based_distance(&z_normalize(&c), &z_normalize(&y)),
            1.0
        );
    }

    #[test]
    fn engine_flags_flat_series() {
        let engine = SbdEngine::new(8);
        assert!(engine.spectrum(&[0.0; 8]).flat);
        assert!(engine.spectrum(&[7.25; 8]).flat);
        let wave: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        let spec = engine.spectrum(&wave);
        assert!(!spec.flat);
        assert!(spec.norm > 0.0);
        let mut scratch = SbdScratch::new();
        assert_eq!(
            engine.sbd(&engine.spectrum(&[7.25; 8]), &spec, &mut scratch),
            1.0
        );
    }

    #[test]
    fn spectrum_into_reuses_buffers() {
        let engine = SbdEngine::new(16);
        let a: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..16).map(|i| (i as f64 * 0.9).cos()).collect();
        let mut spec = engine.spectrum(&a);
        engine.spectrum_into(&b, &mut spec);
        let fresh = engine.spectrum(&b);
        assert_eq!(spec.norm.to_bits(), fresh.norm.to_bits());
        let mut scratch = SbdScratch::new();
        let wave = engine.spectrum(&a);
        assert_eq!(
            engine.sbd(&spec, &wave, &mut scratch).to_bits(),
            engine.sbd(&fresh, &wave, &mut scratch).to_bits()
        );
    }

    #[test]
    fn shift_series_zero_fills() {
        let y = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(shift_series(&y, 2), vec![0.0, 0.0, 1.0, 2.0]);
        assert_eq!(shift_series(&y, -2), vec![3.0, 4.0, 0.0, 0.0]);
        assert_eq!(shift_series(&y, 0), y);
        assert_eq!(shift_series(&y, 10), vec![0.0; 4]);
    }
}
