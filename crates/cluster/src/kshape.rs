//! k-Shape clustering (Paparrizos & Gravano, SIGMOD 2015).
//!
//! k-Shape is a k-means-style loop specialized for time-series shape:
//!
//! * **assignment** uses the shape-based distance (SBD), i.e. one minus the
//!   maximum coefficient-normalized cross-correlation over all shifts;
//! * **refinement** computes each cluster's centroid by *shape
//!   extraction*: members are aligned to the current centroid at their
//!   optimal shift, and the new centroid is the dominant eigenvector of
//!   the centred scatter matrix `Qᵀ(Σ yᵢyᵢᵀ)Q` — the shape maximizing the
//!   summed squared cross-correlation with all members.
//!
//! Inputs are z-normalized internally, as the algorithm requires.
//!
//! # Kernel layout
//!
//! All distances go through one [`SbdEngine`] sized for the series length:
//! every series' spectrum is transformed **once** up front, every
//! centroid's spectrum **once per round**, and each SBD evaluation after
//! that is a single inverse FFT into reused scratch — zero per-call heap
//! allocation in the assignment/repair loops. Shape extraction aligns
//! members into one flat scratch buffer reused across iterations, and
//! runs power iteration against the *implicit* operator
//! `Q(Σ yᵢyᵢᵀ)Q · v` (two passes over the aligned members, `O(|members|·m)`
//! per matvec) when the cluster has fewer members than time points,
//! falling back to the dense `m × m` scatter matrix otherwise — see
//! `DESIGN.md` §3.12 for the numerical contract.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mobilenet_timeseries::norm::z_normalize;
use mobilenet_timeseries::sbd::{SbdEngine, SbdScratch, Spectrum};

use crate::linalg::{dominant_eigenpair, dominant_eigenpair_of, SquareMatrix};
use crate::Clustering;

/// Upper bound on refinement/assignment rounds.
const MAX_ITER: usize = 100;

/// Which scatter/eigen kernel shape extraction uses. Production always
/// goes through `Auto`; the forced variants exist so tests can pit the
/// two kernels against each other on identical inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
enum ExtractionMode {
    /// Implicit operator when `|members| < m`, dense otherwise.
    Auto,
    /// Always materialize the dense centred scatter matrix.
    Dense,
    /// Always apply the implicit operator.
    Implicit,
}

/// Runs k-Shape on `series` (equal lengths) with `k` clusters.
///
/// `seed` controls the initial random assignment; the rest of the
/// algorithm is deterministic.
///
/// # Panics
///
/// Panics if `series` is empty, lengths differ, `k == 0` or
/// `k > series.len()`.
pub fn kshape(series: &[Vec<f64>], k: usize, seed: u64) -> Clustering {
    kshape_mode(series, k, seed, ExtractionMode::Auto)
}

fn kshape_mode(series: &[Vec<f64>], k: usize, seed: u64, mode: ExtractionMode) -> Clustering {
    validate(series, k);
    let n = series.len();
    let m = series[0].len();
    let z: Vec<Vec<f64>> = series.iter().map(|s| z_normalize(s)).collect();

    // One plan and one spectrum per series for the whole run.
    let engine = SbdEngine::new(m);
    let z_specs: Vec<Spectrum> = z.iter().map(|s| engine.spectrum(s)).collect();
    let mut sbd_scratch = SbdScratch::new();
    let mut shape_scratch = ShapeScratch::default();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b73_6861_7065_3031); // "kshape01"
                                                                       // Fully random initial assignment, as in the original algorithm; the
                                                                       // empty-cluster repair below guarantees every cluster ends populated.
                                                                       // (Forcing a deterministic prefix split here would make restarts
                                                                       // near-identical and defeat the best-of-restarts search.)
    let mut assignments: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
    let mut centroids: Vec<Vec<f64>> = vec![vec![0.0; m]; k];
    let mut cent_specs: Vec<Spectrum> = centroids.iter().map(|c| engine.spectrum(c)).collect();
    let mut members: Vec<usize> = Vec::with_capacity(n);

    let mut iterations = 0;
    let mut converged = false;
    for iter in 0..MAX_ITER {
        iterations = iter + 1;

        // Refinement. The alignment reference is the previous round's
        // centroid, whose spectrum is still cached in `cent_specs`.
        for c in 0..k {
            members.clear();
            members.extend((0..n).filter(|&i| assignments[i] == c));
            if members.is_empty() {
                continue; // handled after assignment
            }
            centroids[c] = shape_extraction(
                &engine,
                &z,
                &z_specs,
                &members,
                &cent_specs[c],
                mode,
                &mut sbd_scratch,
                &mut shape_scratch,
            );
        }
        // One forward transform per centroid per round, reused across all
        // n assignment distances below (plus the repair pass).
        for (cent, spec) in centroids.iter().zip(cent_specs.iter_mut()) {
            engine.spectrum_into(cent, spec);
        }

        // Assignment. A fresh/empty centroid is all-zero, hence flat, so
        // the engine yields the neutral distance 1.0 and it can still
        // attract members on the first round.
        let mut changed = false;
        for (i, zi_spec) in z_specs.iter().enumerate() {
            let mut best = (f64::INFINITY, assignments[i]);
            for (c, spec) in cent_specs.iter().enumerate() {
                let d = engine.sbd(zi_spec, spec, &mut sbd_scratch);
                if d < best.0 {
                    best = (d, c);
                }
            }
            if best.1 != assignments[i] {
                assignments[i] = best.1;
                changed = true;
            }
        }

        // Empty-cluster repair: move the point farthest from its centroid
        // into each empty cluster (deterministic; `total_cmp` so a
        // NaN-poisoned distance cannot panic the selection).
        let mut sizes = vec![0usize; k];
        for &a in &assignments {
            sizes[a] += 1;
        }
        for c in 0..k {
            if sizes[c] > 0 {
                continue;
            }
            let (worst, _) = assignments
                .iter()
                .enumerate()
                .filter(|(_, &a)| sizes[a] > 1)
                .map(|(i, &a)| {
                    let d = engine.sbd(&z_specs[i], &cent_specs[a], &mut sbd_scratch);
                    (i, d)
                })
                .max_by(|x, y| x.1.total_cmp(&y.1))
                .expect("some cluster has more than one member");
            sizes[assignments[worst]] -= 1;
            assignments[worst] = c;
            sizes[c] = 1;
            changed = true;
        }

        if !changed {
            converged = true;
            break;
        }
    }

    Clustering {
        assignments,
        centroids,
        iterations,
        converged,
    }
}

/// Buffers reused across shape-extraction calls: the flat aligned-member
/// matrix and the two temporaries of the implicit operator.
#[derive(Debug, Default)]
struct ShapeScratch {
    aligned: Vec<f64>,
    t: Vec<f64>,
    u: Vec<f64>,
}

/// Shape extraction: the new centroid of a cluster, given the members'
/// cached spectra and the previous centroid's spectrum as alignment
/// reference.
///
/// A flat reference (the all-zero initial centroid) aligns at shift 0,
/// i.e. members are taken as-is.
#[allow(clippy::too_many_arguments)]
fn shape_extraction(
    engine: &SbdEngine,
    z: &[Vec<f64>],
    z_specs: &[Spectrum],
    members: &[usize],
    reference: &Spectrum,
    mode: ExtractionMode,
    sbd_scratch: &mut SbdScratch,
    scratch: &mut ShapeScratch,
) -> Vec<f64> {
    let m = engine.series_len();
    let nm = members.len();
    scratch.aligned.resize(nm * m, 0.0);
    for (row, &idx) in members.iter().enumerate() {
        let a = engine.ncc_c(reference, &z_specs[idx], sbd_scratch);
        shift_into(
            &z[idx],
            a.shift,
            &mut scratch.aligned[row * m..(row + 1) * m],
        );
    }
    let aligned = &scratch.aligned[..nm * m];

    let implicit = match mode {
        ExtractionMode::Auto => nm < m,
        ExtractionMode::Dense => false,
        ExtractionMode::Implicit => true,
    };
    let pair = if implicit {
        // Power iteration against the implicit operator
        // `w = Q (Σ yᵢ yᵢᵀ) Q v` with `Q = I − (1/m)·11ᵀ`: centring a
        // vector is subtracting its mean, and the scatter product is two
        // passes over the aligned members — `O(|members|·m)` per matvec
        // instead of `O(m²)`, with no `m × m` matrix materialized.
        let mf = m as f64;
        scratch.t.resize(m, 0.0);
        scratch.u.resize(m, 0.0);
        let (t, u) = (&mut scratch.t, &mut scratch.u);
        dominant_eigenpair_of(
            m,
            |v, w| {
                let mean = v.iter().sum::<f64>() / mf;
                for (ti, vi) in t.iter_mut().zip(v.iter()) {
                    *ti = vi - mean;
                }
                u.iter_mut().for_each(|x| *x = 0.0);
                for row in 0..nm {
                    let y = &aligned[row * m..(row + 1) * m];
                    let a: f64 = y.iter().zip(t.iter()).map(|(yi, ti)| yi * ti).sum();
                    if a != 0.0 {
                        for (uj, yj) in u.iter_mut().zip(y.iter()) {
                            *uj += yj * a;
                        }
                    }
                }
                let mean_u = u.iter().sum::<f64>() / mf;
                for (wi, ui) in w.iter_mut().zip(u.iter()) {
                    *wi = ui - mean_u;
                }
            },
            300,
            1e-10,
        )
    } else {
        // Scatter matrix S = Σ yᵀy, centred: M = Q S Q.
        let mut s_mat = SquareMatrix::zeros(m);
        for row in 0..nm {
            let y = &aligned[row * m..(row + 1) * m];
            for i in 0..m {
                if y[i] == 0.0 {
                    continue;
                }
                for j in 0..m {
                    s_mat.add(i, j, y[i] * y[j]);
                }
            }
        }
        let centred = center_both_sides(&s_mat);
        dominant_eigenpair(&centred, 300, 1e-10)
    };

    match pair {
        None => vec![0.0; m],
        Some(pair) => {
            let mut v = pair.vector;
            // Eigenvector sign is arbitrary: pick the orientation closer to
            // the first member.
            let first = &aligned[..m];
            let d_pos = sq_dist(first, &v);
            let neg: Vec<f64> = v.iter().map(|x| -x).collect();
            let d_neg = sq_dist(first, &neg);
            if d_neg < d_pos {
                v = neg;
            }
            z_normalize(&v)
        }
    }
}

/// [`mobilenet_timeseries::sbd::shift_series`] into a caller-owned slice.
fn shift_into(y: &[f64], shift: isize, out: &mut [f64]) {
    let n = y.len();
    for (i, o) in out.iter_mut().enumerate() {
        let src = i as isize - shift;
        *o = if src >= 0 && (src as usize) < n {
            y[src as usize]
        } else {
            0.0
        };
    }
}

/// `Q S Q` with `Q = I − (1/m)·1` — subtracts row and column means and adds
/// back the grand mean.
fn center_both_sides(s: &SquareMatrix) -> SquareMatrix {
    let m = s.n();
    let mf = m as f64;
    let mut row_mean = vec![0.0; m];
    let mut col_mean = vec![0.0; m];
    let mut grand = 0.0;
    for (i, rm) in row_mean.iter_mut().enumerate() {
        for (j, cm) in col_mean.iter_mut().enumerate() {
            let v = s.get(i, j);
            *rm += v;
            *cm += v;
            grand += v;
        }
    }
    for v in row_mean.iter_mut() {
        *v /= mf;
    }
    for v in col_mean.iter_mut() {
        *v /= mf;
    }
    grand /= mf * mf;
    let mut out = SquareMatrix::zeros(m);
    for (i, &rm) in row_mean.iter().enumerate() {
        for (j, &cm) in col_mean.iter().enumerate() {
            out.set(i, j, s.get(i, j) - rm - cm + grand);
        }
    }
    out
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn validate(series: &[Vec<f64>], k: usize) {
    assert!(!series.is_empty(), "cannot cluster zero series");
    let m = series[0].len();
    assert!(m > 0, "series must be non-empty");
    assert!(
        series.iter().all(|s| s.len() == m),
        "series lengths must match"
    );
    assert!(k >= 1 && k <= series.len(), "k must be in 1..=n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobilenet_timeseries::sbd::shift_series;

    /// Three distinct shapes with shifts and noise.
    fn labelled_shapes(per_class: usize, m: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut series = Vec::new();
        let mut labels = Vec::new();
        for class in 0..3usize {
            for i in 0..per_class {
                let shift = (i * 3) % 7;
                let s: Vec<f64> = (0..m)
                    .map(|t| {
                        let x = (t + shift) as f64;
                        let noise = ((t * 7 + i * 13 + class * 29) % 11) as f64 / 110.0;
                        let v = match class {
                            0 => (x * 0.3).sin(),
                            1 => (x * 0.3).sin().abs() * 2.0 - 1.0, // rectified
                            _ => {
                                // Square-ish wave.
                                if ((x * 0.15).sin()) > 0.0 {
                                    1.0
                                } else {
                                    -1.0
                                }
                            }
                        };
                        v + noise
                    })
                    .collect();
                series.push(s);
                labels.push(class);
            }
        }
        (series, labels)
    }

    /// Fraction of pairs on which two labelings agree (Rand index).
    fn rand_index(a: &[usize], b: &[usize]) -> f64 {
        let n = a.len();
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let same_a = a[i] == a[j];
                let same_b = b[i] == b[j];
                if same_a == same_b {
                    agree += 1;
                }
                total += 1;
            }
        }
        agree as f64 / total as f64
    }

    #[test]
    fn recovers_well_separated_shape_classes() {
        let (series, labels) = labelled_shapes(8, 64);
        let best = (0..5)
            .map(|seed| kshape(&series, 3, seed))
            .map(|c| rand_index(&c.assignments, &labels))
            .fold(0.0f64, f64::max);
        assert!(best > 0.85, "best Rand index {best}");
    }

    #[test]
    fn is_shift_invariant_in_assignment() {
        // Two classes that differ only by shape, members shifted copies.
        // Compact-support pulses shift exactly under zero-fill.
        let bump = |t: f64, c: f64, w: f64| (-(t - c) * (t - c) / (2.0 * w * w)).exp();
        let base_a: Vec<f64> = (0..48).map(|t| bump(t as f64, 10.0, 2.5)).collect();
        let base_b: Vec<f64> = (0..48)
            .map(|t| bump(t as f64, 8.0, 1.2) - bump(t as f64, 16.0, 1.2))
            .collect();
        let mut series = Vec::new();
        for shift in [0isize, 5, 11] {
            series.push(shift_series(&base_a, shift));
            series.push(shift_series(&base_b, shift));
        }
        let c = kshape(&series, 2, 3);
        // All A-shaped in one cluster, all B-shaped in the other.
        assert_eq!(c.assignments[0], c.assignments[2]);
        assert_eq!(c.assignments[0], c.assignments[4]);
        assert_eq!(c.assignments[1], c.assignments[3]);
        assert_eq!(c.assignments[1], c.assignments[5]);
        assert_ne!(c.assignments[0], c.assignments[1]);
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let (series, _) = labelled_shapes(2, 32);
        let c = kshape(&series, series.len(), 1);
        let mut sizes = c.sizes();
        sizes.sort_unstable();
        assert!(sizes.iter().all(|&s| s == 1), "sizes {sizes:?}");
    }

    #[test]
    fn k_equals_one_groups_everything() {
        let (series, _) = labelled_shapes(3, 32);
        let c = kshape(&series, 1, 1);
        assert!(c.assignments.iter().all(|&a| a == 0));
        assert_eq!(c.k(), 1);
        // Centroid is z-normalized (unit variance).
        let var: f64 =
            c.centroids[0].iter().map(|x| x * x).sum::<f64>() / c.centroids[0].len() as f64;
        assert!((var - 1.0).abs() < 1e-6);
    }

    #[test]
    fn no_cluster_is_left_empty() {
        let (series, _) = labelled_shapes(4, 40);
        for k in 2..=6 {
            let c = kshape(&series, k, 7);
            assert!(c.sizes().iter().all(|&s| s > 0), "k={k}: {:?}", c.sizes());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let (series, _) = labelled_shapes(5, 48);
        let a = kshape(&series, 3, 42);
        let b = kshape(&series, 3, 42);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn converges_within_the_cap() {
        let (series, _) = labelled_shapes(6, 48);
        let c = kshape(&series, 3, 0);
        assert!(
            c.converged,
            "did not converge in {} iterations",
            c.iterations
        );
        assert!(c.iterations < MAX_ITER);
    }

    #[test]
    fn dense_and_implicit_extraction_agree() {
        // Both kernels compute the dominant eigenvector of the same
        // operator; they differ only in floating-point summation order, so
        // the extracted shapes must agree to numerical tolerance and the
        // full runs must produce the same partition.
        let (series, _) = labelled_shapes(5, 24); // 15 members > m in k=1 runs? no: per cluster ≤ 15 < 24
        for seed in 0..3 {
            let dense = kshape_mode(&series, 3, seed, ExtractionMode::Dense);
            let imp = kshape_mode(&series, 3, seed, ExtractionMode::Implicit);
            assert_eq!(dense.assignments, imp.assignments, "seed {seed}");
            assert_eq!(dense.iterations, imp.iterations, "seed {seed}");
            for (cd, ci) in dense.centroids.iter().zip(imp.centroids.iter()) {
                for (a, b) in cd.iter().zip(ci.iter()) {
                    assert!((a - b).abs() < 1e-6, "centroid drift {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn nan_bearing_series_does_not_panic() {
        // A poisoned series must not panic the farthest-point selection in
        // empty-cluster repair (total_cmp convention from PR 3) nor the
        // assignment loop; the run still terminates with a full partition.
        let (mut series, _) = labelled_shapes(4, 40);
        series[3][7] = f64::NAN;
        for k in [2, 4, 6] {
            let c = kshape(&series, k, 11);
            assert_eq!(c.assignments.len(), series.len());
            assert!(c.assignments.iter().all(|&a| a < k));
        }
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn k_zero_is_rejected() {
        kshape(&[vec![1.0, 2.0]], 0, 0);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn ragged_input_is_rejected() {
        kshape(&[vec![1.0, 2.0], vec![1.0]], 1, 0);
    }
}
