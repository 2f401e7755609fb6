//! Property-based tests over the numerical core, with randomized inputs
//! spanning the whole stack.

use proptest::prelude::*;

use mobilenet::cluster::{kmeans, kshape};
use mobilenet::timeseries::fft::{next_pow2, Direction, FftPlan};
use mobilenet::timeseries::norm::z_normalize;
use mobilenet::timeseries::sbd::{
    ncc_c, shape_based_distance, shift_series, SbdEngine, SbdScratch,
};
use mobilenet::timeseries::stats::{
    concentration_curve, linear_fit, pearson_r, quantile, r_squared, share_of_top, Ecdf,
};
use mobilenet::timeseries::zipf::fit_zipf;
use mobilenet::timeseries::Complex;

fn finite_series(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len)
}

/// One-shot radix-2 FFT: recomputes the bit-reversal permutation and the
/// twiddle recurrence on every call. The oracle `FftPlan` must match.
fn oneshot_fft(data: &mut [Complex], dir: Direction) {
    let n = data.len();
    assert!(n.is_power_of_two());
    if n <= 1 {
        return;
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            data.swap(i, j);
        }
    }
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut len = 2;
    while len <= n {
        let wlen = Complex::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
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
        for z in data.iter_mut() {
            *z = z.scale(1.0 / n as f64);
        }
    }
}

#[test]
fn planned_fft_is_bit_identical_to_oneshot_at_every_small_power_of_two() {
    // Deterministic companion to the property below: every length from 1 to
    // 512, complex input (non-zero imaginary parts), both directions.
    for bits in 0..10u32 {
        let n = 1usize << bits;
        let plan = FftPlan::new(n);
        let orig: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin() * 3.0, (i as f64 * 1.1).cos()))
            .collect();
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut oneshot = orig.clone();
            let mut planned = orig.clone();
            oneshot_fft(&mut oneshot, dir);
            plan.fft_in_place(&mut planned, dir);
            for (i, (x, y)) in oneshot.iter().zip(planned.iter()).enumerate() {
                assert_eq!(x.re.to_bits(), y.re.to_bits(), "n={n} {dir:?} re[{i}]");
                assert_eq!(x.im.to_bits(), y.im.to_bits(), "n={n} {dir:?} im[{i}]");
            }
        }
    }
}

/// Lag of index `k` in a full cross-correlation sequence of `x` against a
/// series of `y_len` samples: `k − (y_len − 1)`.
fn lag_of(k: usize, y_len: usize) -> isize {
    k as isize - (y_len as isize - 1)
}

/// Direct `O(n·m)` cross-correlation, `r[k] = Σ_i x[i + lag] · y[i]`.
fn naive_cross_correlation(x: &[f64], y: &[f64]) -> Vec<f64> {
    (0..x.len() + y.len() - 1)
        .map(|k| {
            let lag = lag_of(k, y.len());
            let pairs = y.iter().enumerate().filter_map(|(i, &yv)| {
                let xi = i as isize + lag;
                (0..x.len() as isize)
                    .contains(&xi)
                    .then(|| x[xi as usize] * yv)
            });
            pairs.fold(0.0, |acc, v| acc + v)
        })
        .collect()
}

/// The same sequence through the one-shot FFT: `IFFT(FFT(x) · conj(FFT(y)))`
/// unrolled from the circular buffer into lag order.
fn oneshot_cross_correlation(x: &[f64], y: &[f64]) -> Vec<f64> {
    let n = next_pow2(x.len() + y.len() - 1);
    let spectrum = |s: &[f64]| {
        let mut buf = vec![Complex::ZERO; n];
        for (b, &v) in buf.iter_mut().zip(s) {
            *b = Complex::from_real(v);
        }
        oneshot_fft(&mut buf, Direction::Forward);
        buf
    };
    let mut fx = spectrum(x);
    for (a, b) in fx.iter_mut().zip(spectrum(y)) {
        *a = *a * b.conj();
    }
    oneshot_fft(&mut fx, Direction::Inverse);
    (0..x.len() + y.len() - 1)
        .map(|k| {
            let lag = lag_of(k, y.len());
            fx[if lag >= 0 {
                lag as usize
            } else {
                n - lag.unsigned_abs()
            }]
            .re
        })
        .collect()
}

/// NCC-c over a materialized correlation sequence: `(0, 0)` when either
/// series is flat (zero norm or constant), else the first strict maximum
/// of `cc / (‖x‖·‖y‖)` in lag order, with its lag.
fn ncc_of(x: &[f64], y: &[f64], cc: &[f64]) -> (f64, isize) {
    let norm = |s: &[f64]| s.iter().map(|v| v * v).sum::<f64>().sqrt();
    let flat = |s: &[f64]| norm(s) <= f64::EPSILON || s.windows(2).all(|w| w[0] == w[1]);
    if flat(x) || flat(y) {
        return (0.0, 0);
    }
    let denom = norm(x) * norm(y);
    let mut best = (f64::NEG_INFINITY, 0);
    for (k, &v) in cc.iter().enumerate() {
        if v / denom > best.0 {
            best = (v / denom, lag_of(k, y.len()));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_cross_correlation_matches_naive(
        x in finite_series(1..48),
        y in finite_series(1..48),
    ) {
        // The engine's NCC against the NCC of a direct correlation: the
        // same maximum, and the engine's shift scores that maximum too.
        let m = x.len().min(y.len());
        let (x, y) = (&x[..m], &y[..m]);
        let engine = SbdEngine::new(m);
        let fast = engine.ncc_c(&engine.spectrum(x), &engine.spectrum(y), &mut SbdScratch::new());
        let naive = naive_cross_correlation(x, y);
        let (best, _) = ncc_of(x, y, &naive);
        prop_assert!((fast.ncc - best).abs() <= 1e-9, "{} vs {}", fast.ncc, best);
        let k = (fast.shift + m as isize - 1) as usize;
        let (at_shift, _) = ncc_of(x, y, &naive[k..=k]);
        prop_assert!((at_shift - best).abs() <= 1e-9, "{} vs {}", at_shift, best);
    }

    #[test]
    fn z_normalize_is_idempotent_in_distribution(s in finite_series(2..200)) {
        let z = z_normalize(&s);
        let zz = z_normalize(&z);
        for (a, b) in z.iter().zip(zz.iter()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn planned_fft_matches_oneshot_oracle_bitwise(
        x in finite_series(1..300),
    ) {
        // The cached-plan transform must be BIT-identical to the one-shot
        // reference, both directions — the twiddle tables are filled by
        // the same recurrence the unplanned kernel runs live.
        let n = next_pow2(x.len());
        let plan = FftPlan::new(n);
        let mut planned: Vec<Complex> =
            x.iter().map(|&v| Complex::new(v, 0.0)).collect();
        planned.resize(n, Complex::new(0.0, 0.0));
        let mut oneshot = planned.clone();
        for dir in [Direction::Forward, Direction::Inverse] {
            plan.fft_in_place(&mut planned, dir);
            oneshot_fft(&mut oneshot, dir);
            for (a, b) in planned.iter().zip(oneshot.iter()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn sbd_engine_matches_oneshot_kernels_bitwise(
        series in prop::collection::vec(finite_series(6..6 + 1), 2..6),
        m in 4usize..32,
    ) {
        // Re-cut the generated rows to a common length m, then check the
        // engine and the per-pair functions against the one-shot oracle
        // bit-for-bit.
        let rows: Vec<Vec<f64>> = series
            .iter()
            .map(|s| (0..m).map(|i| s[i % s.len()] * (1.0 + i as f64 * 0.01)).collect())
            .collect();
        let engine = SbdEngine::new(m);
        let specs: Vec<_> = rows.iter().map(|r| engine.spectrum(r)).collect();
        let mut scratch = SbdScratch::new();
        for (i, a) in rows.iter().enumerate() {
            for (j, b) in rows.iter().enumerate() {
                let (ncc, shift) = ncc_of(a, b, &oneshot_cross_correlation(a, b));
                for got in [engine.ncc_c(&specs[i], &specs[j], &mut scratch), ncc_c(a, b)] {
                    prop_assert_eq!(got.ncc.to_bits(), ncc.to_bits());
                    prop_assert_eq!(got.shift, shift);
                }
                let batched = engine.sbd(&specs[i], &specs[j], &mut scratch);
                prop_assert_eq!(batched.to_bits(), (1.0 - ncc).to_bits());
                prop_assert_eq!(shape_based_distance(a, b).to_bits(), (1.0 - ncc).to_bits());
            }
        }
    }

    #[test]
    fn sbd_is_symmetric_and_bounded(
        x in finite_series(4..64),
        y in finite_series(4..64),
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let d1 = shape_based_distance(x, y);
        let d2 = shape_based_distance(y, x);
        prop_assert!((d1 - d2).abs() < 1e-9, "{} vs {}", d1, d2);
        prop_assert!((-1e-9..=2.0 + 1e-9).contains(&d1));
    }

    #[test]
    fn sbd_self_distance_is_zero_after_znorm(x in finite_series(4..64)) {
        let z = z_normalize(&x);
        if z.iter().any(|v| *v != 0.0) {
            prop_assert!(shape_based_distance(&z, &z) < 1e-9);
        }
    }

    #[test]
    fn ncc_shift_recovers_integer_shifts(
        x in finite_series(8..40),
        shift in 0isize..8,
    ) {
        // Only meaningful when the series has energy in its prefix.
        let energy: f64 = x.iter().map(|v| v * v).sum();
        prop_assume!(energy > 1.0);
        let shifted = shift_series(&x, shift);
        let shifted_energy: f64 = shifted.iter().map(|v| v * v).sum();
        prop_assume!(shifted_energy > 0.5 * energy);
        let a = ncc_c(&x, &shifted);
        // The best alignment should move the shifted series back, within
        // the tolerance allowed by truncated mass.
        prop_assert!((a.shift + shift).abs() <= 2, "shift {} vs {}", a.shift, shift);
    }

    #[test]
    fn pearson_is_bounded_and_scale_invariant(
        x in finite_series(3..100),
        a in 0.1f64..10.0,
        b in -100.0f64..100.0,
    ) {
        let y: Vec<f64> = x.iter().map(|v| a * v + b).collect();
        let r = pearson_r(&x, &y);
        prop_assert!((-1.0..=1.0).contains(&r));
        let sd: f64 = {
            let m = x.iter().sum::<f64>() / x.len() as f64;
            (x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64).sqrt()
        };
        if sd > 1e-9 {
            prop_assert!((r - 1.0).abs() < 1e-6, "r = {}", r);
            prop_assert!((r_squared(&x, &y) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn linear_fit_residuals_are_orthogonal(x in finite_series(3..50), noise in finite_series(3..50)) {
        let n = x.len().min(noise.len());
        let xs = &x[..n];
        let ys: Vec<f64> = xs.iter().zip(noise.iter()).map(|(a, b)| a + b * 0.01).collect();
        let fit = linear_fit(xs, &ys);
        // Residuals sum to ~0 (least-squares normal equations).
        let resid_sum: f64 = xs
            .iter()
            .zip(ys.iter())
            .map(|(x, y)| y - (fit.slope * x + fit.intercept))
            .sum();
        let scale = ys.iter().fold(1.0f64, |a, &v| a.max(v.abs()));
        prop_assert!(resid_sum.abs() < 1e-6 * scale * n as f64);
    }

    #[test]
    fn ecdf_is_monotone_and_normalized(s in finite_series(1..200)) {
        let e = Ecdf::new(&s);
        let curve = e.curve();
        for w in curve.windows(2) {
            prop_assert!(w[1].0 >= w[0].0);
            prop_assert!(w[1].1 >= w[0].1);
        }
        if let Some(last) = curve.last() {
            prop_assert!((last.1 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn quantiles_are_monotone(s in finite_series(1..100), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&s, lo) <= quantile(&s, hi) + 1e-9);
    }

    #[test]
    fn concentration_curve_dominates_the_diagonal(
        s in prop::collection::vec(0.0f64..1e6, 2..200),
    ) {
        // Sorting descending means the top-x% always carries >= x% of mass.
        for (pop, mass) in concentration_curve(&s) {
            prop_assert!(mass >= pop - 1e-9, "top {} carries only {}", pop, mass);
        }
        // share_of_top reports the mass at the largest curve point whose
        // population share fits the requested fraction; by the dominance
        // above it carries at least its own population share.
        let n = s.iter().filter(|v| v.is_finite()).count();
        let included = n / 2;
        if included > 0 {
            let top_half = share_of_top(&s, 0.5);
            prop_assert!(top_half >= included as f64 / n as f64 - 1e-9);
        }
    }

    #[test]
    fn zipf_fit_recovers_exponent(s in 0.5f64..3.0, n in 20usize..200) {
        let w: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let fit = fit_zipf(&w).unwrap();
        prop_assert!((fit.exponent - s).abs() < 1e-6, "{} vs {}", fit.exponent, s);
    }

    #[test]
    fn clustering_outputs_are_well_formed(
        seed in 0u64..1000,
        k in 1usize..5,
    ) {
        let series: Vec<Vec<f64>> = (0..8)
            .map(|i| (0..24).map(|t| ((t + i * 3) as f64 * 0.7).sin() + i as f64 * 0.1).collect())
            .collect();
        for clustering in [kshape(&series, k, seed), kmeans(&series, k, seed)] {
            prop_assert_eq!(clustering.assignments.len(), series.len());
            prop_assert!(clustering.assignments.iter().all(|&a| a < k));
            prop_assert!(clustering.sizes().iter().all(|&s| s > 0));
            for c in &clustering.centroids {
                prop_assert_eq!(c.len(), 24);
                prop_assert!(c.iter().all(|v| v.is_finite()));
            }
        }
    }
}

// --- persistence property tests (appended) ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn holt_winters_is_finite_on_arbitrary_positive_series(
        s in prop::collection::vec(0.1f64..1e4, 48..96),
        horizon in 1usize..24,
    ) {
        use mobilenet::core::forecast::{holt_winters, HoltWintersConfig};
        let f = holt_winters(&s, &HoltWintersConfig::hourly(), horizon);
        prop_assert_eq!(f.len(), horizon);
        prop_assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn autocorrelation_lag0_is_one_and_bounded(
        s in prop::collection::vec(-1e3f64..1e3, 4..128),
    ) {
        use mobilenet::timeseries::stats::autocorrelation;
        let max_lag = s.len() / 2;
        let acf = autocorrelation(&s, max_lag);
        prop_assert_eq!(acf[0], 1.0);
        for v in &acf {
            prop_assert!((-1.0 - 1e-6..=1.0 + 1e-6).contains(v), "{}", v);
        }
    }
}
