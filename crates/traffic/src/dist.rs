//! Random samplers built on `rand`'s uniform source.
//!
//! The workspace deliberately avoids distribution crates: the handful of
//! samplers the workload generator needs (normal, log-normal, Poisson,
//! categorical, uniform in a disc) are implemented here from first
//! principles and tested against their analytical moments.
//!
//! Two normal samplers coexist. The per-session draws — a session's
//! volume and its ULI displacement — use the [`ziggurat_normal`], which
//! makes no transcendental call on its common path. The demand model's
//! one-off draws (tastes, hourly noise) keep Box–Muller
//! ([`standard_normal`]), so the expected dataset does not depend on the
//! per-session sampler.

use std::sync::OnceLock;

use rand::{Rng, RngCore};

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
/// `sigma`: `mean·exp(μ + σz)` with `μ = −σ²/2` and `z` from the
/// [`ziggurat_normal`].
pub(crate) fn log_normal_with_mean<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    assert!(mean > 0.0, "log-normal mean must be positive");
    let mu = -sigma * sigma / 2.0;
    mean * (mu + sigma * ziggurat_normal(rng)).exp()
}

/// Right edge of the ziggurat's base layer: where its tail starts.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of each of the ziggurat's 256 layers.
const ZIG_V: f64 = 0.004_928_673_233_99;

/// The unnormalized standard normal density `exp(−x²/2)`.
#[inline(always)]
fn zig_pdf(x: f64) -> f64 {
    (-x * x / 2.0).exp()
}

/// The ziggurat's layer edges `x` and the density at each, `f = pdf(x)`.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

/// The tables, built once per process. Layer `i` spans `|x| < x[i]`;
/// `x[0]` is the base layer's equal-area width and `x[256] = 0`.
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; 257];
        x[0] = ZIG_V / zig_pdf(ZIG_R);
        x[1] = ZIG_R;
        for i in 1..255 {
            let arg = zig_pdf(x[i]) + ZIG_V / x[i];
            x[i + 1] = if arg >= 1.0 {
                0.0
            } else {
                (-2.0 * arg.ln()).sqrt()
            };
        }
        Ziggurat {
            x,
            f: x.map(zig_pdf),
        }
    })
}

/// Samples a standard normal with Marsaglia and Tsang's 256-layer
/// ziggurat.
///
/// Each try takes one 64-bit word: its low 8 bits pick a layer `i` and
/// its high 53 bits a uniform `u` in `[−1, 1)`. `u·x[i]` is accepted at
/// once when it lies inside the layer above (≈98.5% of tries, no
/// transcendental call). The base layer otherwise falls to Marsaglia's
/// tail sampler beyond `R`; any other layer accepts by comparing a
/// uniform height in the wedge with the density.
pub fn ziggurat_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    let t = ziggurat();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
        let x = u * t.x[i];
        if x.abs() < t.x[i + 1] {
            return x;
        }
        if i == 0 {
            return zig_tail(rng, u);
        }
        if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.gen::<f64>() < zig_pdf(x) {
            return x;
        }
    }
}

/// Marsaglia's sampler of the normal tail beyond [`ZIG_R`], signed like
/// `u`.
#[cold]
fn zig_tail<R: RngCore + ?Sized>(rng: &mut R, u: f64) -> f64 {
    loop {
        let tx = rng.gen_range(f64::EPSILON..1.0).ln() / ZIG_R;
        let ty = rng.gen_range(f64::EPSILON..1.0).ln();
        if -2.0 * ty >= tx * tx {
            let x = ZIG_R - tx;
            return if u < 0.0 { -x } else { x };
        }
    }
}

/// Samples a point uniformly in the open unit disc by rejection from the
/// square `[−1, 1)²`: no transcendental call, and `4/π ≈ 1.27` tries on
/// average.
pub(crate) fn unit_disc<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    loop {
        let a = 2.0 * rng.gen::<f64>() - 1.0;
        let b = 2.0 * rng.gen::<f64>() - 1.0;
        if a * a + b * b < 1.0 {
            return (a, b);
        }
    }
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

    /// Standard error of a sample mean of `n` draws with variance `var`.
    fn se(var: f64, n: usize) -> f64 {
        (var / n as f64).sqrt()
    }

    #[test]
    fn ziggurat_normal_has_the_normal_moments() {
        // E[z] = 0, E[z²] = 1, E[z⁴] = 3; Var z² = 2 and Var z⁴ = 96.
        let mut r = rng();
        let n = 1_000_000;
        let zs: Vec<f64> = (0..n).map(|_| ziggurat_normal(&mut r)).collect();
        let moment = |p: i32| zs.iter().map(|z| z.powi(p)).sum::<f64>() / n as f64;
        let (m1, m2, m4) = (moment(1), moment(2), moment(4));
        assert!(m1.abs() < 4.0 * se(1.0, n), "mean {m1}");
        assert!((m2 - 1.0).abs() < 4.0 * se(2.0, n), "variance {m2}");
        assert!((m4 - 3.0).abs() < 4.0 * se(96.0, n), "E[z⁴] {m4}");
    }

    #[test]
    fn ziggurat_normal_has_the_normal_tail_mass() {
        // Two-sided tails 2(1 − Φ(x)), through each layer region: the
        // body, the wedges, the base layer's edge R and its tail beyond.
        let tails = [
            (1.0, 0.317_310_507_862_914_15),
            (2.0, 0.045_500_263_896_358_44),
            (3.0, 0.002_699_796_063_260_191),
            (ZIG_R, 0.000_258_032_487_653_901_3),
            (4.0, 0.000_063_342_483_666_239_93),
        ];
        let mut r = StdRng::seed_from_u64(0x7A16);
        let n = 2_000_000;
        let mut counts = [0u64; 5];
        for _ in 0..n {
            let z = ziggurat_normal(&mut r).abs();
            for (count, &(x, _)) in counts.iter_mut().zip(&tails) {
                *count += (z > x) as u64;
            }
        }
        for (&count, &(x, p)) in counts.iter().zip(&tails) {
            let got = count as f64 / n as f64;
            let z = (got - p) / se(p * (1.0 - p), n);
            assert!(
                z.abs() < 4.0,
                "P(|z| > {x}) = {got}, want {p} (z-score {z:.2})"
            );
        }
    }

    #[test]
    fn ziggurat_tables_close_at_the_origin() {
        let t = ziggurat();
        assert_eq!(t.x[1], ZIG_R);
        assert!(t.x[0] > ZIG_R);
        assert!(t.x.windows(2).all(|w| w[0] > w[1]), "edges must fall");
        assert!(t.x[255] > 0.0 && t.x[255] < 0.3, "x[255] {}", t.x[255]);
        assert_eq!((t.x[256], t.f[256]), (0.0, 1.0));
    }

    #[test]
    fn unit_disc_is_uniform_in_the_disc() {
        // For a uniform point in the unit disc r² ~ U(0, 1): E[r²] = ½ and
        // P(r < ρ) = ρ².
        let mut r = rng();
        let n = 400_000;
        let r2: Vec<f64> = (0..n)
            .map(|_| {
                let (a, b) = unit_disc(&mut r);
                a * a + b * b
            })
            .collect();
        assert!(r2.iter().all(|&v| v < 1.0));
        let mean = r2.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 4.0 * se(1.0 / 12.0, n), "E[r²] {mean}");
        for rho in [0.25f64, 0.5, 0.75, 0.9] {
            let p = rho * rho;
            let got = r2.iter().filter(|&&v| v < p).count() as f64 / n as f64;
            assert!(
                (got - p).abs() < 4.0 * se(p * (1.0 - p), n),
                "P(r < {rho}) = {got}, want {p}"
            );
        }
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
