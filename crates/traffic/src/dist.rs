//! Random samplers built on `rand`'s uniform source.
//!
//! The workspace deliberately avoids distribution crates: the handful of
//! samplers the workload generator needs (normal, log-normal, Poisson,
//! categorical) are implemented here from first principles and tested
//! against their analytical moments.

use rand::Rng;

/// Samples a standard normal via the Box–Muller transform.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples `N(mean, sd²)`.
pub(crate) fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * standard_normal(rng)
}

/// Samples a log-normal with **unit mean** and shape `sigma` (the σ of the
/// underlying normal). Useful as a multiplicative jitter that leaves
/// expectations unchanged: `E[X] = 1` for any σ.
pub(crate) fn unit_mean_log_normal<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    let mu = -sigma * sigma / 2.0;
    (mu + sigma * standard_normal(rng)).exp()
}

/// Samples a log-normal with the given **linear-scale mean** and shape
/// `sigma`.
pub(crate) fn log_normal_with_mean<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    assert!(mean > 0.0, "log-normal mean must be positive");
    mean * unit_mean_log_normal(rng, sigma)
}

/// Samples a Poisson variate with rate `lambda`.
///
/// Uses Knuth's product-of-uniforms method for small rates and a normal
/// approximation (continuity-corrected, clamped at zero) for large ones —
/// accurate to well under a percent for the rates the generator uses.
pub(crate) fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda >= 0.0, "Poisson rate must be non-negative");
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let limit = (-lambda).exp();
        let mut product: f64 = rng.gen();
        let mut count = 0u64;
        while product > limit {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    } else {
        let x = normal(rng, lambda, lambda.sqrt()) + 0.5;
        if x < 0.0 {
            0
        } else {
            x.floor() as u64
        }
    }
}

/// A categorical sampler over fixed weights, using precomputed cumulative
/// sums and binary search — `O(log n)` per draw.
#[derive(Debug, Clone)]
pub(crate) struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Builds the sampler from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative/non-finite value,
    /// or sums to zero.
    pub(crate) fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "categorical needs at least one weight");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(
                w >= 0.0 && w.is_finite(),
                "weights must be finite and non-negative"
            );
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "weights must not all be zero");
        Categorical { cumulative }
    }

    /// Draws a category index.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u: f64 = rng.gen_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDECAF)
    }

    #[test]
    fn standard_normal_has_unit_moments() {
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn unit_mean_log_normal_really_has_unit_mean() {
        let mut r = rng();
        for sigma in [0.1, 0.5, 1.0] {
            let n = 200_000;
            let mean: f64 = (0..n)
                .map(|_| unit_mean_log_normal(&mut r, sigma))
                .sum::<f64>()
                / n as f64;
            assert!((mean - 1.0).abs() < 0.03, "sigma {sigma}: mean {mean}");
        }
    }

    #[test]
    fn log_normal_with_mean_scales() {
        let mut r = rng();
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| log_normal_with_mean(&mut r, 250.0, 0.7))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 250.0).abs() / 250.0 < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_matches_rate_small_and_large() {
        let mut r = rng();
        for lambda in [0.5, 3.0, 12.0, 80.0, 400.0] {
            let n = 50_000;
            let samples: Vec<f64> = (0..n).map(|_| poisson(&mut r, lambda) as f64).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() / lambda < 0.05,
                "λ {lambda}: mean {mean}"
            );
            assert!(
                (var - lambda).abs() / lambda < 0.10,
                "λ {lambda}: var {var}"
            );
        }
    }

    #[test]
    fn poisson_zero_rate_is_zero() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn categorical_respects_weights() {
        let mut r = rng();
        let cat = Categorical::new(&[1.0, 0.0, 3.0]);
        let n = 100_000;
        let mut counts = [0u32; 3];
        for _ in 0..n {
            counts[cat.sample(&mut r)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight category must never be drawn");
        let p0 = counts[0] as f64 / n as f64;
        assert!((p0 - 0.25).abs() < 0.01, "p0 {p0}");
        assert_eq!(cat.cumulative.len(), 3);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn categorical_rejects_all_zero() {
        Categorical::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn categorical_rejects_empty() {
        Categorical::new(&[]);
    }

    #[test]
    fn samplers_are_deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
            assert_eq!(poisson(&mut a, 5.0), poisson(&mut b, 5.0));
        }
    }
}
