//! Iterative radix-2 fast Fourier transform.
//!
//! The k-Shape distance used by the paper's clustering experiment (Figure 5)
//! needs the full cross-correlation sequence of two series, which
//! [`SbdEngine`](crate::sbd::SbdEngine) computes in `O(n log n)` via the
//! convolution theorem on this transform. [`FftPlan`] is a textbook
//! iterative Cooley–Tukey FFT with bit-reversal permutation for one
//! power-of-two length. The swap list and per-stage twiddle tables are
//! computed once per plan, so a planned transform does no heap allocation.
//! Each twiddle table is filled by the `w = w * wlen` recurrence that the
//! unplanned kernel runs inside every block, so every butterfly multiplies
//! by exactly the same `f64` pair and the output is bit-identical to it.

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

/// A precomputed transform plan for one power-of-two length: the
/// bit-reversal swap list plus forward and inverse twiddle tables.
///
/// The twiddle table for each butterfly stage is filled by the exact
/// `w = w * wlen` recurrence an unplanned loop runs inside every block:
/// `tw[k]` holds the same accumulated product the k-th butterfly of any
/// block would have computed (see the module docs).
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
        assert!(
            n.is_power_of_two(),
            "FFT length must be a power of two, got {n}"
        );
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
        FftPlan {
            n,
            swaps,
            fwd: table(-1.0),
            inv: table(1.0),
        }
    }

    /// The transform length this plan was built for.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// In-place FFT using the precomputed tables; zero heap allocation.
    /// The inverse is scaled by `1/n`.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    /// Forward spectrum of a real signal at length `n` (zero-padded).
    fn spectrum(signal: &[f64], n: usize) -> Vec<Complex> {
        let mut buf = vec![Complex::ZERO; n];
        for (b, &x) in buf.iter_mut().zip(signal) {
            *b = Complex::from_real(x);
        }
        FftPlan::new(n).fft_in_place(&mut buf, Direction::Forward);
        buf
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        for z in &spectrum(&[1.0], 8) {
            assert_close(z.re, 1.0, 1e-12);
            assert_close(z.im, 0.0, 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_concentrates_at_dc() {
        let data = spectrum(&[1.0; 16], 16);
        assert_close(data[0].re, 16.0, 1e-12);
        for z in &data[1..] {
            assert!(z.re.hypot(z.im) < 1e-9);
        }
    }

    #[test]
    fn inverse_undoes_forward() {
        let orig: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let plan = FftPlan::new(32);
        let mut data = orig.clone();
        plan.fft_in_place(&mut data, Direction::Forward);
        plan.fft_in_place(&mut data, Direction::Inverse);
        for (a, b) in data.iter().zip(orig.iter()) {
            assert_close(a.re, b.re, 1e-9);
            assert_close(a.im, b.im, 1e-9);
        }
    }

    #[test]
    fn fft_matches_direct_dft() {
        let signal: Vec<f64> = (0..16).map(|i| ((i * i) % 7) as f64 - 3.0).collect();
        let spec = spectrum(&signal, 16);
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
        let signal: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.3).sin() + 0.2 * i as f64)
            .collect();
        let spec = spectrum(&signal, 64);
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.re * z.re + z.im * z.im).sum::<f64>() / 64.0;
        assert_close(time_energy, freq_energy, 1e-6);
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
