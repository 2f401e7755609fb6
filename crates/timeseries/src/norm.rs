//! Normalizations of time series.
//!
//! k-Shape operates on z-normalized series (zero mean, unit variance).

/// Z-normalizes a series: subtracts the mean and divides by the *population*
/// standard deviation.
///
/// A constant series (zero variance) maps to all zeros rather than NaNs, so
/// downstream distance computations stay finite.
pub fn z_normalize(series: &[f64]) -> Vec<f64> {
    if series.is_empty() {
        return Vec::new();
    }
    let n = series.len() as f64;
    let mean = series.iter().sum::<f64>() / n;
    let var = series.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let sd = var.sqrt();
    if sd <= f64::EPSILON {
        return vec![0.0; series.len()];
    }
    series.iter().map(|x| (x - mean) / sd).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_normalized_has_zero_mean_unit_variance() {
        let s: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.17).sin() * 3.0 + 5.0)
            .collect();
        let z = z_normalize(&s);
        let mean = z.iter().sum::<f64>() / z.len() as f64;
        let var = z.iter().map(|x| x * x).sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_normalizes_to_zeros() {
        let z = z_normalize(&[7.0; 10]);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn empty_inputs_yield_empty_outputs() {
        assert!(z_normalize(&[]).is_empty());
    }

    #[test]
    fn z_normalization_is_shift_and_scale_invariant() {
        let s: Vec<f64> = (0..50).map(|i| (i as f64).cos()).collect();
        let t: Vec<f64> = s.iter().map(|x| 4.0 * x + 11.0).collect();
        let zs = z_normalize(&s);
        let zt = z_normalize(&t);
        for (a, b) in zs.iter().zip(zt.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}
