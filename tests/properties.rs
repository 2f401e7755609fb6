//! Property-based tests over the numerical core, with randomized inputs
//! spanning the whole stack.

use proptest::prelude::*;

use mobilenet::cluster::{kmeans, kshape};
use mobilenet::timeseries::fft::{
    cross_correlation, cross_correlation_naive, cross_correlation_with_plan, fft_in_place,
    next_pow2, CorrScratch, Direction, FftPlan,
};
use mobilenet::timeseries::norm::{min_max_normalize, to_shares, z_normalize};
use mobilenet::timeseries::sbd::{
    ncc_c, shape_based_distance, shift_series, SbdEngine, SbdScratch,
};
use mobilenet::timeseries::Complex;
use mobilenet::timeseries::stats::{
    concentration_curve, linear_fit, pearson_r, quantile, r_squared, share_of_top, Ecdf,
};
use mobilenet::timeseries::zipf::{fit_zipf, zipf_weights};

fn finite_series(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_cross_correlation_matches_naive(
        x in finite_series(1..48),
        y in finite_series(1..48),
    ) {
        let fast = cross_correlation(&x, &y);
        let slow = cross_correlation_naive(&x, &y);
        prop_assert_eq!(fast.len(), slow.len());
        let scale = x.iter().chain(y.iter()).fold(1.0f64, |a, &v| a.max(v.abs()));
        for (a, b) in fast.iter().zip(slow.iter()) {
            prop_assert!((a - b).abs() <= 1e-6 * scale * scale * 48.0,
                "{} vs {}", a, b);
        }
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
    fn min_max_stays_in_unit_interval(s in finite_series(1..100)) {
        for v in min_max_normalize(&s) {
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&v));
        }
    }

    #[test]
    fn shares_are_a_distribution(s in prop::collection::vec(0.0f64..1e6, 1..100)) {
        let shares = to_shares(&s);
        let total: f64 = shares.iter().sum();
        if s.iter().sum::<f64>() > 0.0 {
            prop_assert!((total - 1.0).abs() < 1e-9);
        }
        prop_assert!(shares.iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn planned_fft_matches_oneshot_oracle_bitwise(
        x in finite_series(1..130),
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
            fft_in_place(&mut oneshot, dir);
            for (a, b) in planned.iter().zip(oneshot.iter()) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn scratch_cross_correlation_matches_allocating_form_bitwise(
        x in finite_series(1..80),
        y in finite_series(1..80),
    ) {
        let plan = FftPlan::new(next_pow2(x.len() + y.len() - 1));
        let mut scratch = CorrScratch::new();
        let mut out = Vec::new();
        // Twice through the same scratch: the warmed second pass must
        // also match (stale buffer contents must not leak through).
        for _ in 0..2 {
            cross_correlation_with_plan(&plan, &x, &y, &mut scratch, &mut out);
            let oracle = cross_correlation(&x, &y);
            prop_assert_eq!(out.len(), oracle.len());
            for (a, b) in out.iter().zip(oracle.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn sbd_engine_matches_oneshot_kernels_bitwise(
        series in prop::collection::vec(finite_series(6..6 + 1), 2..6),
        m in 4usize..32,
    ) {
        // Re-cut the generated rows to a common length m, then check the
        // batched engine against the per-call kernels bit-for-bit.
        let rows: Vec<Vec<f64>> = series
            .iter()
            .map(|s| (0..m).map(|i| s[i % s.len()] * (1.0 + i as f64 * 0.01)).collect())
            .collect();
        let engine = SbdEngine::new(m);
        let specs: Vec<_> = rows.iter().map(|r| engine.spectrum(r)).collect();
        let mut scratch = SbdScratch::new();
        for (i, a) in rows.iter().enumerate() {
            for (j, b) in rows.iter().enumerate() {
                let batched = engine.sbd(&specs[i], &specs[j], &mut scratch);
                let oneshot = shape_based_distance(a, b);
                prop_assert_eq!(batched.to_bits(), oneshot.to_bits());
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
        let w = zipf_weights(n, s);
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
    fn session_record_lines_round_trip(
        start_hour in 0u16..168,
        dl in 0.0f64..1e6,
        ul in 0.0f64..1e6,
        commune in 0u32..100_000,
        signature in prop::num::u64::ANY,
        stale in prop::bool::ANY,
        s5s8 in prop::bool::ANY,
    ) {
        use mobilenet::netsim::{Interface, SessionRecord};
        use mobilenet::netsim::trace::{record_from_line, record_to_line};
        let r = SessionRecord {
            interface: if s5s8 { Interface::S5S8 } else { Interface::Gn },
            start_hour,
            dl_mb: dl,
            ul_mb: ul,
            commune: mobilenet::geo::CommuneId(commune),
            signature: mobilenet::netsim::records::FlowSignature(signature),
            stale_uli: stale,
        };
        let back = record_from_line(&record_to_line(&r)).unwrap();
        prop_assert_eq!(back, r);
    }

    #[test]
    fn session_record_lines_round_trip_extreme_volumes(
        start_hour in 0u16..168,
        dl_mantissa in 0.0f64..10.0,
        dl_exp in -320i32..300,
        ul_mantissa in 0.0f64..10.0,
        ul_exp in -320i32..300,
        commune in 0u32..100_000,
        signature in prop::num::u64::ANY,
        stale in prop::bool::ANY,
        s5s8 in prop::bool::ANY,
    ) {
        use mobilenet::netsim::{Interface, SessionRecord};
        use mobilenet::netsim::trace::{record_from_line, record_to_line};
        // Volumes spanning the whole finite range, down into the
        // subnormals (10^-320) and up to 10^300 — the `{:e}` writer and
        // the parser must agree bit for bit on all of them.
        let r = SessionRecord {
            interface: if s5s8 { Interface::S5S8 } else { Interface::Gn },
            start_hour,
            dl_mb: dl_mantissa * 10f64.powi(dl_exp),
            ul_mb: ul_mantissa * 10f64.powi(ul_exp),
            commune: mobilenet::geo::CommuneId(commune),
            signature: mobilenet::netsim::records::FlowSignature(signature),
            stale_uli: stale,
        };
        let back = record_from_line(&record_to_line(&r)).unwrap();
        prop_assert_eq!(back, r);
    }

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
