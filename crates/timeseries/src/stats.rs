//! Descriptive statistics, correlation, regression and distribution helpers.
//!
//! These back most of the paper's quantitative claims: the coefficient of
//! determination `r²` between per-user traffic maps (Figure 10) and between
//! urbanization-level time series (Figure 11 bottom), the least-squares
//! slopes of Figure 11 top, the per-subscriber CDFs of Figure 8, and the
//! commune concentration curve of Figure 8 left.

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Pearson correlation coefficient `r` between two equal-length samples.
///
/// Returns 0 when either sample is (numerically) constant, matching the
/// convention used for flat traffic vectors.
pub fn pearson_r(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson_r requires equal lengths");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= f64::EPSILON || syy <= f64::EPSILON {
        return 0.0;
    }
    (sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0)
}

/// Coefficient of determination `r²` (the paper's "Pearson's r²").
pub fn r_squared(xs: &[f64], ys: &[f64]) -> f64 {
    let r = pearson_r(xs, ys);
    r * r
}

/// Result of a simple ordinary-least-squares fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination of the fit.
    pub r2: f64,
}

/// Ordinary least squares of `y` on `x`.
///
/// Degenerate inputs (fewer than two points, or constant `x`) yield a zero
/// slope with `intercept = mean(y)`.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> LinearFit {
    assert_eq!(xs.len(), ys.len(), "linear_fit requires equal lengths");
    if xs.len() < 2 {
        return LinearFit {
            slope: 0.0,
            intercept: mean(ys),
            r2: 0.0,
        };
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    if sxx <= f64::EPSILON {
        return LinearFit {
            slope: 0.0,
            intercept: my,
            r2: 0.0,
        };
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    LinearFit {
        slope,
        intercept,
        r2: r_squared(xs, ys),
    }
}

/// Least-squares slope of `y` on `x` **through the origin**:
/// `argmin_a Σ (y_i − a·x_i)²  =  Σ x·y / Σ x²`.
///
/// Figure 11 (top) regresses per-subscriber time series of one urbanization
/// class on another; a ratio of demands is a line through the origin.
pub fn slope_through_origin(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(
        xs.len(),
        ys.len(),
        "slope_through_origin requires equal lengths"
    );
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    if sxx <= f64::EPSILON {
        return 0.0;
    }
    let sxy: f64 = xs.iter().zip(ys.iter()).map(|(x, y)| x * y).sum();
    sxy / sxx
}

/// Empirical quantile with linear interpolation, `q ∈ [0, 1]`.
///
/// # Panics
///
/// Panics on empty input or `q` outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile order must be in [0,1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// An empirical cumulative distribution function over a sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF of a sample (non-finite values are dropped).
    pub fn new(sample: &[f64]) -> Self {
        let mut sorted: Vec<f64> = sample.iter().copied().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ecdf { sorted }
    }

    /// The sorted support paired with cumulative probabilities — the series
    /// to plot as a CDF curve.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Inverse CDF (quantile function) with step semantics.
    pub fn inverse(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "inverse of empty ECDF");
        assert!((0.0..=1.0).contains(&q));
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).saturating_sub(1);
        self.sorted[idx.min(self.sorted.len() - 1)]
    }
}

/// Cumulative-share (concentration) curve: entries are sorted descending and
/// the running share of the total is reported.
///
/// `curve[k] = (share of entities in the top (k+1), cumulative share of mass)`.
/// This is the "cumulative traffic on ranked communes" plot of Figure 8 left.
pub fn concentration_curve(values: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let total: f64 = sorted.iter().sum();
    if sorted.is_empty() || total <= 0.0 {
        return Vec::new();
    }
    let n = sorted.len() as f64;
    let mut acc = 0.0;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            acc += v;
            ((i + 1) as f64 / n, acc / total)
        })
        .collect()
}

/// Cumulative mass captured by the top `fraction` of ranked entities, read
/// off the [`concentration_curve`]. E.g. the paper reports the top 1% of
/// communes carrying >50% of Twitter traffic.
pub fn share_of_top(values: &[f64], fraction: f64) -> f64 {
    assert!((0.0..=1.0).contains(&fraction));
    let curve = concentration_curve(values);
    if curve.is_empty() {
        return 0.0;
    }
    let mut best = 0.0;
    for (pop_share, mass_share) in curve {
        if pop_share <= fraction + 1e-12 {
            best = mass_share;
        } else {
            break;
        }
    }
    best
}

/// Sample autocorrelation function up to `max_lag` (inclusive);
/// `acf[0] == 1` by construction. A constant series returns zeros beyond
/// lag 0.
///
/// Used by the forecasting extension to diagnose residual structure and by
/// tests to confirm the generated traffic carries the expected 24-hour
/// rhythm.
///
/// # Panics
///
/// Panics if `max_lag >= xs.len()` or the series is empty.
pub fn autocorrelation(xs: &[f64], max_lag: usize) -> Vec<f64> {
    assert!(!xs.is_empty(), "autocorrelation of empty series");
    assert!(
        max_lag < xs.len(),
        "max_lag must be below the series length"
    );
    let n = xs.len();
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    let mut acf = Vec::with_capacity(max_lag + 1);
    acf.push(1.0);
    for lag in 1..=max_lag {
        if denom <= f64::EPSILON {
            acf.push(0.0);
            continue;
        }
        let num: f64 = (0..n - lag).map(|i| (xs[i] - m) * (xs[i + lag] - m)).sum();
        acf.push(num / denom);
    }
    acf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_matches_hand_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(pearson_r(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson_r(&[1.0, 1.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn pearson_detects_perfect_linear_relations() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 2.0).collect();
        assert!((pearson_r(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -0.5 * x + 4.0).collect();
        assert!((pearson_r(&xs, &neg) + 1.0).abs() < 1e-12);
        assert!((r_squared(&xs, &neg) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_recovers_known_line() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x + 1.25).collect();
        let fit = linear_fit(&xs, &ys);
        assert!((fit.slope - 2.5).abs() < 1e-10);
        assert!((fit.intercept - 1.25).abs() < 1e-10);
        assert!((fit.r2 - 1.0).abs() < 1e-10);
    }

    #[test]
    fn linear_fit_on_constant_x_is_degenerate() {
        let fit = linear_fit(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]);
        assert_eq!(fit.slope, 0.0);
        assert!((fit.intercept - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slope_through_origin_recovers_pure_ratio() {
        let xs: Vec<f64> = (1..40).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.5 * x).collect();
        assert!((slope_through_origin(&xs, &ys) - 0.5).abs() < 1e-12);
        assert_eq!(slope_through_origin(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn ecdf_curve_and_inverse_step_through_the_sample() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        let curve = e.curve();
        assert_eq!(curve.len(), 4);
        assert_eq!(curve[0], (1.0, 0.25));
        assert_eq!(curve[3], (4.0, 1.0));
        assert_eq!(e.inverse(0.5), 2.0);
        assert_eq!(e.inverse(1.0), 4.0);
    }

    #[test]
    fn ecdf_drops_non_finite() {
        let e = Ecdf::new(&[1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(e.curve().len(), 2);
    }

    #[test]
    fn concentration_curve_on_uniform_mass_is_diagonal() {
        let curve = concentration_curve(&[1.0; 10]);
        for (p, m) in curve {
            assert!((p - m).abs() < 1e-12);
        }
    }

    #[test]
    fn concentration_detects_skew() {
        // One commune with 91% of traffic, nine with 1% each.
        let mut v = vec![1.0; 9];
        v.push(91.0);
        let top10 = share_of_top(&v, 0.1);
        assert!((top10 - 0.91).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_of_periodic_series_peaks_at_the_period() {
        let xs: Vec<f64> = (0..240)
            .map(|i| ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect();
        let acf = autocorrelation(&xs, 48);
        assert_eq!(acf[0], 1.0);
        assert!(acf[24] > 0.8, "lag-24 acf {}", acf[24]);
        assert!(acf[12] < -0.5, "half-period acf {}", acf[12]);
    }

    #[test]
    fn autocorrelation_of_constant_is_zero_beyond_lag0() {
        let acf = autocorrelation(&[5.0; 50], 10);
        assert_eq!(acf[0], 1.0);
        assert!(acf[1..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn autocorrelation_is_bounded() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 13) % 17) as f64).collect();
        for v in autocorrelation(&xs, 50) {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "max_lag")]
    fn autocorrelation_lag_bound_is_enforced() {
        autocorrelation(&[1.0, 2.0], 2);
    }
}
