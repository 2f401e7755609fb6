//! Rank–frequency (Zipf) law fitting.
//!
//! Figure 2 of the paper ranks ~500 mobile services by normalized traffic
//! volume and observes that the **top half** follows a Zipf law with
//! exponent ≈ −1.69 (downlink) / −1.55 (uplink), after which a cut-off
//! separates a long tail of very low-volume services. We fit the exponent by
//! least squares in log–log space, the standard estimator for rank plots.

use crate::stats::linear_fit;

/// A fitted Zipf law `volume(rank) ∝ rank^(−exponent)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfFit {
    /// The (positive) Zipf exponent `s` of `rank^(−s)`.
    pub exponent: f64,
    /// Log10 of the fitted volume at rank 1.
    pub log10_scale: f64,
    /// Coefficient of determination of the log–log regression.
    pub r2: f64,
}

/// Fits a Zipf law to `values` interpreted as volumes of ranks `1..=n`
/// **after sorting descending**. Non-positive values are excluded (they have
/// no logarithm); ranks are still assigned before exclusion so the fit
/// refers to the true rank axis.
///
/// Returns `None` when fewer than two positive values remain.
pub fn fit_zipf(values: &[f64]) -> Option<ZipfFit> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    fit_zipf_ranked(&sorted)
}

/// Like [`fit_zipf`] but assumes `values` are already in rank order
/// (descending). Useful when the caller wants to fit only the head of the
/// distribution, e.g. `fit_zipf_ranked(&sorted[..n/2])` as the paper does.
pub fn fit_zipf_ranked(sorted_desc: &[f64]) -> Option<ZipfFit> {
    let mut log_rank = Vec::new();
    let mut log_val = Vec::new();
    for (i, &v) in sorted_desc.iter().enumerate() {
        if v > 0.0 && v.is_finite() {
            log_rank.push(((i + 1) as f64).log10());
            log_val.push(v.log10());
        }
    }
    if log_rank.len() < 2 {
        return None;
    }
    let fit = linear_fit(&log_rank, &log_val);
    Some(ZipfFit {
        exponent: -fit.slope,
        log10_scale: fit.intercept,
        r2: fit.r2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_zipf_exponent() {
        let values: Vec<f64> = (1..=100).map(|r| 1e6 * (r as f64).powf(-1.69)).collect();
        let fit = fit_zipf(&values).unwrap();
        assert!((fit.exponent - 1.69).abs() < 1e-9, "exp = {}", fit.exponent);
        assert!((fit.r2 - 1.0).abs() < 1e-9);
        assert!((fit.log10_scale - 6.0).abs() < 1e-9);
    }

    #[test]
    fn unsorted_input_is_sorted_before_fitting() {
        let mut values: Vec<f64> = (1..=50).map(|r| (r as f64).powf(-2.0)).collect();
        values.reverse();
        let fit = fit_zipf(&values).unwrap();
        assert!((fit.exponent - 2.0).abs() < 1e-9);
    }

    #[test]
    fn non_positive_values_are_excluded() {
        let values = vec![100.0, 10.0, 0.0, -5.0, 1.0];
        let fit = fit_zipf(&values).unwrap();
        assert!(fit.exponent > 0.0);
    }

    #[test]
    fn too_few_points_yield_none() {
        assert!(fit_zipf(&[]).is_none());
        assert!(fit_zipf(&[1.0]).is_none());
        assert!(fit_zipf(&[1.0, 0.0]).is_none());
    }

    #[test]
    fn head_fit_ignores_tail_cutoff() {
        // Zipf head + crushed tail, as in the paper's Figure 2.
        let mut values: Vec<f64> = (1..=40).map(|r| (r as f64).powf(-1.5)).collect();
        values.extend((41..=80).map(|r| (r as f64).powf(-6.0)));
        let head = fit_zipf_ranked(&values[..40]).unwrap();
        assert!((head.exponent - 1.5).abs() < 1e-9);
        let full = fit_zipf_ranked(&values).unwrap();
        assert!(
            full.exponent > head.exponent,
            "tail steepens the overall fit"
        );
    }
}
