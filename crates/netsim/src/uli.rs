//! The ULI localization model.
//!
//! The User Location Information is "updated upon possibly infrequent
//! events" (§2), so a position read from a PDP Context / EPS Bearer is a
//! coarse, sometimes stale fix. Prior work (AccuLoc, MobiSys'11) puts the
//! median error around 3 km, which the paper uses to justify commune-level
//! aggregation. The model here produces exactly that error structure:
//!
//! * a fresh fix scatters around the true position with a Rayleigh-
//!   distributed distance whose **median** equals the configured target;
//! * with a small probability the fix is **stale** — the user moved across
//!   a routing area since the last update — and is displaced at
//!   routing-area scale instead, producing the long error tail.

use rand::rngs::StdRng;
use rand::Rng;

use mobilenet_geo::Point;

use crate::config::NetsimConfig;

/// Seedable localization-noise model.
#[derive(Debug, Clone)]
pub struct UliModel {
    /// Rayleigh scale of fresh fixes (σ of each Gaussian component).
    sigma_km: f64,
    stale_prob: f64,
    stale_sigma_km: f64,
}

impl UliModel {
    /// Builds the model from a pipeline configuration.
    pub fn new(config: &NetsimConfig) -> Self {
        // For displacement (X, Y) ~ N(0, σ²)², the distance is Rayleigh(σ)
        // with median σ·√(2 ln 2).
        let median_factor = (2.0 * std::f64::consts::LN_2).sqrt();
        UliModel {
            sigma_km: config.uli_median_error_km / median_factor,
            stale_prob: config.uli_stale_prob,
            stale_sigma_km: config.uli_stale_error_km / median_factor,
        }
    }

    /// Reports a (noisy) position fix for a true position, and whether it
    /// was stale. When `direction` is given the displacement is
    /// concentrated along that unit vector.
    ///
    /// ULI staleness displaces a fix along the *user's movement* since the
    /// last update. For train passengers that movement follows the track,
    /// so their fixes scatter along the rail line (still hitting corridor
    /// base stations) instead of isotropically; only a small perpendicular
    /// component (10% of the scale) remains.
    pub fn fix_along(
        &self,
        true_position: &Point,
        direction: Option<(f64, f64)>,
        rng: &mut StdRng,
    ) -> (Point, bool) {
        let stale = self.stale_prob > 0.0 && rng.gen::<f64>() < self.stale_prob;
        let sigma = if stale {
            self.stale_sigma_km
        } else {
            self.sigma_km
        };
        if sigma <= 0.0 {
            return (*true_position, stale);
        }
        let (gx, gy) = gaussian_pair(rng, sigma);
        let (dx, dy) = match direction {
            None => (gx, gy),
            Some((ux, uy)) => {
                // gx along the track, 10% of gy across it.
                (gx * ux - 0.1 * gy * uy, gx * uy + 0.1 * gy * ux)
            }
        };
        (
            Point::new(true_position.x + dx, true_position.y + dy),
            stale,
        )
    }
}

/// Two independent `N(0, σ²)` draws via Box–Muller.
fn gaussian_pair(rng: &mut StdRng, sigma: f64) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt() * sigma;
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn errors(config: &NetsimConfig, n: usize) -> Vec<f64> {
        let model = UliModel::new(config);
        let mut rng = StdRng::seed_from_u64(77);
        let origin = Point::new(100.0, 100.0);
        (0..n)
            .map(|_| {
                let (fix, _) = model.fix_along(&origin, None, &mut rng);
                fix.distance(&origin)
            })
            .collect()
    }

    #[test]
    fn median_error_matches_target() {
        let mut cfg = NetsimConfig::standard();
        cfg.uli_stale_prob = 0.0; // isolate fresh fixes
        let mut errs = errors(&cfg, 40_000);
        errs.sort_by(f64::total_cmp);
        let median = errs[errs.len() / 2];
        assert!(
            (median - 3.0).abs() < 0.1,
            "median error {median} km, want ≈ 3 km"
        );
    }

    #[test]
    fn stale_fixes_produce_a_long_tail() {
        let cfg = NetsimConfig::standard();
        let errs = errors(&cfg, 40_000);
        let far = errs.iter().filter(|e| **e > 9.0).count() as f64 / errs.len() as f64;
        // With 12% stale at ~12 km scale, a clear tail beyond 9 km exists.
        assert!(far > 0.05, "tail mass {far}");

        let mut fresh_only = cfg.clone();
        fresh_only.uli_stale_prob = 0.0;
        let errs2 = errors(&fresh_only, 40_000);
        let far2 = errs2.iter().filter(|e| **e > 9.0).count() as f64 / errs2.len() as f64;
        assert!(far2 < far / 2.0, "stale fixes must dominate the tail");
    }

    #[test]
    fn ideal_config_is_noise_free() {
        let errs = errors(&NetsimConfig::ideal(), 1000);
        assert!(errs.iter().all(|e| *e == 0.0));
    }

    #[test]
    fn fixes_are_deterministic_in_seed() {
        let model = UliModel::new(&NetsimConfig::standard());
        let p = Point::new(5.0, 5.0);
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            assert_eq!(
                model.fix_along(&p, None, &mut a),
                model.fix_along(&p, None, &mut b)
            );
        }
    }

    #[test]
    fn directed_fixes_stay_near_the_axis() {
        let model = UliModel::new(&NetsimConfig::standard());
        let mut rng = StdRng::seed_from_u64(5);
        let origin = Point::new(0.0, 0.0);
        let mut max_perp: f64 = 0.0;
        let mut max_along: f64 = 0.0;
        for _ in 0..5_000 {
            let (fix, _) = model.fix_along(&origin, Some((1.0, 0.0)), &mut rng);
            max_along = max_along.max(fix.x.abs());
            max_perp = max_perp.max(fix.y.abs());
        }
        assert!(
            max_perp < max_along / 3.0,
            "perpendicular spread {max_perp} vs along {max_along}"
        );
    }

    #[test]
    fn sigma_accessor_reflects_config() {
        let model = UliModel::new(&NetsimConfig::standard());
        let want = 3.0 / (2.0f64 * std::f64::consts::LN_2).sqrt();
        assert!((model.sigma_km - want).abs() < 1e-12);
    }
}
