//! Iterative radix-2 fast Fourier transform and correlation helpers.
//!
//! The k-Shape distance used by the paper's clustering experiment (Figure 5)
//! needs the full cross-correlation sequence of two series, which is
//! computed in `O(n log n)` via the convolution theorem. The FFT here is a
//! textbook iterative Cooley–Tukey implementation with bit-reversal
//! permutation; it requires power-of-two lengths, and the public helpers
//! take care of zero-padding.
//!
//! Two layers are provided:
//!
//! * the original one-shot helpers ([`fft_in_place`], [`cross_correlation`])
//!   that plan and allocate on every call — kept as the reference
//!   implementation and oracle;
//! * a plan-cached, scratch-reusing layer ([`FftPlan`],
//!   [`cross_correlation_with_plan`], [`forward_spectrum`],
//!   [`cross_correlation_spectra`]) that does **zero heap allocation per
//!   call** once caller-owned buffers are warm, and is **bit-identical** to
//!   the one-shot layer: the twiddle tables are filled by the same
//!   `w = w * wlen` recurrence the per-block butterfly loop uses, so every
//!   butterfly multiplies by exactly the same `f64` pair.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::complex::Complex;

/// Direction of the transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Time domain → frequency domain.
    Forward,
    /// Frequency domain → time domain (scaled by `1/n`).
    Inverse,
}

/// Returns the smallest power of two `>= n` (and `>= 1`).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// In-place radix-2 FFT.
///
/// One-shot reference implementation: recomputes the bit-reversal
/// permutation and twiddle recurrence on every call. The planned variant
/// ([`FftPlan::fft_in_place`]) produces bit-identical output without the
/// per-call setup.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex], dir: Direction) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            data.swap(i, j);
        }
    }

    // Butterflies.
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex::ONE;
            for k in 0..len / 2 {
                let u = data[start + k];
                let v = data[start + k + len / 2] * w;
                data[start + k] = u + v;
                data[start + k + len / 2] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }

    if dir == Direction::Inverse {
        let inv = 1.0 / n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv);
        }
    }
}

/// A precomputed transform plan for one power-of-two length: the
/// bit-reversal swap list plus forward and inverse twiddle tables.
///
/// The twiddle table for each butterfly stage is filled by the exact
/// `w = w * wlen` recurrence the unplanned loop runs inside every block,
/// so a planned transform is **bit-identical** to [`fft_in_place`] —
/// `tw[k]` holds the same accumulated product the k-th butterfly of any
/// block would have computed.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// `(i, j)` index pairs with `i < j` to swap, in ascending `i` order.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles, stages concatenated: stage for length `len`
    /// starts at offset `len/2 - 1` and holds `len/2` entries.
    fwd: Vec<Complex>,
    /// Inverse twiddles, same layout.
    inv: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
        let mut swaps = Vec::new();
        if n > 1 {
            let bits = n.trailing_zeros();
            for i in 0..n {
                let j = i.reverse_bits() >> (usize::BITS - bits);
                if i < j {
                    swaps.push((i as u32, j as u32));
                }
            }
        }
        let table = |sign: f64| {
            // One recurrence per stage, identical to the per-block loop.
            let mut out = Vec::with_capacity(n.saturating_sub(1));
            let mut len = 2;
            while len <= n {
                let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
                let wlen = Complex::cis(ang);
                let mut w = Complex::ONE;
                for _ in 0..len / 2 {
                    out.push(w);
                    w = w * wlen;
                }
                len <<= 1;
            }
            out
        };
        FftPlan { n, swaps, fwd: table(-1.0), inv: table(1.0) }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate length-0 plan (never useful in practice).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place FFT using the precomputed tables; zero heap allocation.
    ///
    /// Bit-identical to the one-shot [`fft_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn fft_in_place(&self, data: &mut [Complex], dir: Direction) {
        let n = self.n;
        assert_eq!(data.len(), n, "planned for length {n}, got {}", data.len());
        if n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        let table = match dir {
            Direction::Forward => &self.fwd,
            Direction::Inverse => &self.inv,
        };
        let mut len = 2;
        while len <= n {
            let tw = &table[len / 2 - 1..len - 1];
            // Split each block into its two halves so the butterfly runs
            // on checked-once slices; the arithmetic (and therefore the
            // bits) is exactly the indexed loop's.
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(len / 2);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let u = *a;
                    let v = *b * w;
                    *a = u + v;
                    *b = u - v;
                }
            }
            len <<= 1;
        }
        if dir == Direction::Inverse {
            let inv = 1.0 / n as f64;
            for z in data.iter_mut() {
                *z = z.scale(inv);
            }
        }
    }
}

thread_local! {
    /// Per-thread plan cache: sweeps transform at a handful of distinct
    /// lengths, so a tiny map amortizes planning across every call on the
    /// thread (workers each build their own — no locks on the hot path).
    static PLAN_CACHE: RefCell<HashMap<usize, Rc<FftPlan>>> = RefCell::new(HashMap::new());
}

/// Runs `f` with the (thread-locally cached) plan for length `n`.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn with_cached_plan<R>(n: usize, f: impl FnOnce(&FftPlan) -> R) -> R {
    let plan = PLAN_CACHE.with(|c| {
        c.borrow_mut().entry(n).or_insert_with(|| Rc::new(FftPlan::new(n))).clone()
    });
    f(&plan)
}

/// Forward FFT of a real signal, zero-padded to the next power of two of
/// `min_len.max(signal.len())`.
pub fn fft_real(signal: &[f64], min_len: usize) -> Vec<Complex> {
    let n = next_pow2(min_len.max(signal.len()));
    let mut buf = vec![Complex::ZERO; n];
    for (b, &x) in buf.iter_mut().zip(signal.iter()) {
        *b = Complex::from_real(x);
    }
    fft_in_place(&mut buf, Direction::Forward);
    buf
}

/// Forward spectrum of a real signal at the plan's length (zero-padded),
/// written into `out` — the reusable half of a batched cross-correlation.
///
/// `out` is resized to the plan length; once at capacity, no allocation.
///
/// # Panics
///
/// Panics if `signal.len()` exceeds the plan length.
pub fn forward_spectrum(plan: &FftPlan, signal: &[f64], out: &mut Vec<Complex>) {
    assert!(
        signal.len() <= plan.len(),
        "signal length {} exceeds plan length {}",
        signal.len(),
        plan.len()
    );
    out.clear();
    out.resize(plan.len(), Complex::ZERO);
    for (b, &x) in out.iter_mut().zip(signal.iter()) {
        *b = Complex::from_real(x);
    }
    plan.fft_in_place(out, Direction::Forward);
}

/// Full linear cross-correlation sequence of `x` and `y`.
///
/// Returns a vector `r` of length `x.len() + y.len() - 1` where
/// `r[k]` is the correlation at lag `k - (y.len() - 1)`, i.e.
///
/// ```text
/// r[k] = Σ_i x[i + lag] · y[i]       with lag = k - (y.len() - 1)
/// ```
///
/// Lag 0 (the aligned dot product) sits at index `y.len() - 1`.
/// Computed through the frequency domain: `r = IFFT(FFT(x) · conj(FFT(y)))`
/// using the thread-local plan cache.
pub fn cross_correlation(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert!(!x.is_empty() && !y.is_empty(), "cross_correlation of empty input");
    let n = next_pow2(x.len() + y.len() - 1);
    let mut out = Vec::new();
    with_cached_plan(n, |plan| {
        let mut scratch = CorrScratch::new();
        cross_correlation_with_plan(plan, x, y, &mut scratch, &mut out);
    });
    out
}

/// Caller-owned buffers for [`cross_correlation_with_plan`]: two complex
/// work arrays, grown on first use and reused thereafter.
#[derive(Debug, Default, Clone)]
pub struct CorrScratch {
    fx: Vec<Complex>,
    fy: Vec<Complex>,
}

impl CorrScratch {
    /// An empty scratch; buffers grow to the plan length on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`cross_correlation`] against a caller-owned plan and scratch: zero
/// heap allocation per call once `scratch` and `out` have warmed to the
/// plan length. Bit-identical to [`cross_correlation`].
///
/// # Panics
///
/// Panics if either input is empty or `x.len() + y.len() - 1` exceeds the
/// plan length.
pub fn cross_correlation_with_plan(
    plan: &FftPlan,
    x: &[f64],
    y: &[f64],
    scratch: &mut CorrScratch,
    out: &mut Vec<f64>,
) {
    assert!(!x.is_empty() && !y.is_empty(), "cross_correlation of empty input");
    let out_len = x.len() + y.len() - 1;
    assert!(
        out_len <= plan.len(),
        "output length {out_len} exceeds plan length {}",
        plan.len()
    );
    forward_spectrum(plan, x, &mut scratch.fx);
    forward_spectrum(plan, y, &mut scratch.fy);
    let fy = std::mem::take(&mut scratch.fy);
    cross_correlation_spectra(plan, &fy, y.len(), &mut scratch.fx, out_len, out);
    scratch.fy = fy;
}

/// The spectrum-domain tail of a cross-correlation: multiplies the
/// (forward) spectrum in `fx` by `conj(fy)` in place, inverse-transforms,
/// and unrolls the circular buffer into `out` (length `out_len`, lags
/// `-(y_len-1) ..= out_len - y_len`).
///
/// This is the batched-SBD building block: callers that hold precomputed
/// spectra pay one inverse transform per pair instead of three transforms.
/// `fx` is clobbered. Zero heap allocation once `out` is at capacity.
pub fn cross_correlation_spectra(
    plan: &FftPlan,
    fy: &[Complex],
    y_len: usize,
    fx: &mut [Complex],
    out_len: usize,
    out: &mut Vec<f64>,
) {
    let n = plan.len();
    assert_eq!(fx.len(), n, "fx spectrum length mismatch");
    assert_eq!(fy.len(), n, "fy spectrum length mismatch");
    for (a, b) in fx.iter_mut().zip(fy.iter()) {
        *a = *a * b.conj();
    }
    plan.fft_in_place(fx, Direction::Inverse);

    // The circular result places negative lags at the tail of the buffer:
    // lag l >= 0 at index l, lag l < 0 at index n + l. Reorder so the output
    // runs from lag -(y_len-1) to lag out_len - y_len.
    let neg = y_len - 1;
    out.clear();
    out.reserve(out_len);
    for k in 0..out_len {
        let lag = k as isize - neg as isize;
        let idx = if lag >= 0 { lag as usize } else { n - lag.unsigned_abs() };
        out.push(fx[idx].re);
    }
}

/// Direct `O(n·m)` cross-correlation with the same layout as
/// [`cross_correlation`]. Used as the test oracle.
pub fn cross_correlation_naive(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert!(!x.is_empty() && !y.is_empty(), "cross_correlation of empty input");
    let neg = y.len() as isize - 1;
    let out_len = x.len() + y.len() - 1;
    let mut out = vec![0.0; out_len];
    for (k, o) in out.iter_mut().enumerate() {
        let lag = k as isize - neg;
        let mut acc = 0.0;
        for (i, &yv) in y.iter().enumerate() {
            let xi = i as isize + lag;
            if xi >= 0 && (xi as usize) < x.len() {
                acc += x[xi as usize] * yv;
            }
        }
        *o = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::ONE;
        fft_in_place(&mut data, Direction::Forward);
        for z in &data {
            assert_close(z.re, 1.0, 1e-12);
            assert_close(z.im, 0.0, 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_concentrates_at_dc() {
        let mut data = vec![Complex::ONE; 16];
        fft_in_place(&mut data, Direction::Forward);
        assert_close(data[0].re, 16.0, 1e-12);
        for z in &data[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn inverse_undoes_forward() {
        let orig: Vec<Complex> =
            (0..32).map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos())).collect();
        let mut data = orig.clone();
        fft_in_place(&mut data, Direction::Forward);
        fft_in_place(&mut data, Direction::Inverse);
        for (a, b) in data.iter().zip(orig.iter()) {
            assert_close(a.re, b.re, 1e-9);
            assert_close(a.im, b.im, 1e-9);
        }
    }

    #[test]
    fn fft_matches_direct_dft() {
        let signal: Vec<f64> = (0..16).map(|i| ((i * i) % 7) as f64 - 3.0).collect();
        let spec = fft_real(&signal, 16);
        // Direct DFT.
        let n = 16usize;
        for (k, s) in spec.iter().enumerate().take(n) {
            let mut acc = Complex::ZERO;
            for (i, &x) in signal.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64;
                acc += Complex::cis(ang).scale(x);
            }
            assert_close(s.re, acc.re, 1e-9);
            assert_close(s.im, acc.im, 1e-9);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let signal: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin() + 0.2 * i as f64).collect();
        let spec = fft_real(&signal, 64);
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        assert_close(time_energy, freq_energy, 1e-6);
    }

    #[test]
    fn planned_fft_is_bit_identical_to_unplanned() {
        for bits in 0..10u32 {
            let n = 1usize << bits;
            let plan = FftPlan::new(n);
            let orig: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin() * 3.0, (i as f64 * 1.1).cos()))
                .collect();
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut a = orig.clone();
                let mut b = orig.clone();
                fft_in_place(&mut a, dir);
                plan.fft_in_place(&mut b, dir);
                for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                    assert_eq!(x.re.to_bits(), y.re.to_bits(), "n={n} {dir:?} re[{i}]");
                    assert_eq!(x.im.to_bits(), y.im.to_bits(), "n={n} {dir:?} im[{i}]");
                }
            }
        }
    }

    #[test]
    fn planned_cross_correlation_is_bit_identical_and_allocation_free_buffers_reuse() {
        let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.13).sin() * (1.0 + i as f64)).collect();
        let y: Vec<f64> = (0..200).map(|i| (i as f64 * 0.71).cos() - 0.3).collect();
        let reference = cross_correlation(&x, &y);
        let n = next_pow2(x.len() + y.len() - 1);
        let plan = FftPlan::new(n);
        let mut scratch = CorrScratch::new();
        let mut out = Vec::new();
        // Repeated calls reuse the same buffers; results stay identical.
        for _ in 0..3 {
            cross_correlation_with_plan(&plan, &x, &y, &mut scratch, &mut out);
            assert_eq!(out.len(), reference.len());
            for (a, b) in out.iter().zip(reference.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn spectra_path_matches_one_shot_path() {
        let x: Vec<f64> = (0..60).map(|i| ((i * 7) % 13) as f64 - 5.0).collect();
        let y: Vec<f64> = (0..60).map(|i| ((i * 5) % 11) as f64).collect();
        let reference = cross_correlation(&x, &y);
        let out_len = x.len() + y.len() - 1;
        let plan = FftPlan::new(next_pow2(out_len));
        let mut fx = Vec::new();
        let mut fy = Vec::new();
        forward_spectrum(&plan, &x, &mut fx);
        forward_spectrum(&plan, &y, &mut fy);
        let mut out = Vec::new();
        cross_correlation_spectra(&plan, &fy, y.len(), &mut fx, out_len, &mut out);
        for (a, b) in out.iter().zip(reference.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn cross_correlation_matches_naive() {
        let x: Vec<f64> = (0..13).map(|i| (i as f64 * 1.3).sin()).collect();
        let y: Vec<f64> = (0..9).map(|i| (i as f64 * 0.9).cos()).collect();
        let fast = cross_correlation(&x, &y);
        let slow = cross_correlation_naive(&x, &y);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn zero_lag_is_dot_product() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [0.5, -1.0, 2.0, 1.0];
        let r = cross_correlation(&x, &y);
        let dot: f64 = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        assert_close(r[y.len() - 1], dot, 1e-10);
    }

    #[test]
    fn shifted_impulse_peaks_at_its_lag() {
        // x is an impulse at 5, y at 2: best alignment at lag 3.
        let mut x = vec![0.0; 16];
        x[5] = 1.0;
        let mut y = vec![0.0; 16];
        y[2] = 1.0;
        let r = cross_correlation(&x, &y);
        let (argmax, _) = r
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        let lag = argmax as isize - (y.len() as isize - 1);
        assert_eq!(lag, 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_length_panics() {
        let mut data = vec![Complex::ZERO; 12];
        fft_in_place(&mut data, Direction::Forward);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_plan_panics() {
        FftPlan::new(24);
    }

    #[test]
    #[should_panic(expected = "planned for length")]
    fn plan_length_mismatch_panics() {
        let plan = FftPlan::new(8);
        let mut data = vec![Complex::ZERO; 16];
        plan.fft_in_place(&mut data, Direction::Forward);
    }

    #[test]
    fn next_pow2_handles_boundaries() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1023), 1024);
        assert_eq!(next_pow2(1024), 1024);
    }
}
