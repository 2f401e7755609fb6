//! Lloyd's k-means on z-normalized series — the baseline comparator.
//!
//! The paper chooses k-Shape over Euclidean clustering; the ablation
//! benches quantify that choice by running both on the same series. This
//! is a plain Lloyd loop with k-means++-style greedy seeding (farthest
//! point), Euclidean distance, and the same empty-cluster repair as the
//! k-Shape implementation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mobilenet_timeseries::norm::z_normalize;

use crate::Clustering;

/// Upper bound on Lloyd rounds.
const MAX_ITER: usize = 200;

/// Runs k-means with `k` clusters on `series` (z-normalized internally).
///
/// # Panics
///
/// Panics if `series` is empty, lengths differ, `k == 0` or
/// `k > series.len()`.
pub fn kmeans(series: &[Vec<f64>], k: usize, seed: u64) -> Clustering {
    assert!(!series.is_empty(), "cannot cluster zero series");
    let m = series[0].len();
    assert!(m > 0, "series must be non-empty");
    assert!(
        series.iter().all(|s| s.len() == m),
        "series lengths must match"
    );
    assert!(k >= 1 && k <= series.len(), "k must be in 1..=n");

    let z: Vec<Vec<f64>> = series.iter().map(|s| z_normalize(s)).collect();
    let n = z.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b6d_6561_6e73_3031); // "kmeans01"

    // Greedy farthest-point seeding from a random start.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(z[rng.gen_range(0..n)].clone());
    while centroids.len() < k {
        let (far, _) = z
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let d = centroids
                    .iter()
                    .map(|c| sq_dist(s, c))
                    .fold(f64::INFINITY, f64::min);
                (i, d)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        centroids.push(z[far].clone());
    }

    let mut assignments = vec![0usize; n];
    let mut iterations = 0;
    let mut converged = false;
    for iter in 0..MAX_ITER {
        iterations = iter + 1;
        // Assignment.
        let mut changed = false;
        for (i, s) in z.iter().enumerate() {
            let best = centroids
                .iter()
                .enumerate()
                .map(|(c, centroid)| (c, sq_dist(s, centroid)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap()
                .0;
            if best != assignments[i] {
                assignments[i] = best;
                changed = true;
            }
        }

        // Refinement.
        let mut sums = vec![vec![0.0; m]; k];
        let mut counts = vec![0usize; k];
        for (s, &a) in z.iter().zip(assignments.iter()) {
            counts[a] += 1;
            for (acc, v) in sums[a].iter_mut().zip(s.iter()) {
                *acc += v;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Empty-cluster repair: seed with the farthest point.
                let (far, _) = z
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i, sq_dist(s, &centroids[assignments[i]])))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .unwrap();
                centroids[c] = z[far].clone();
                assignments[far] = c;
                changed = true;
            } else {
                for (j, v) in centroids[c].iter_mut().enumerate() {
                    *v = sums[c][j] / counts[c] as f64;
                }
            }
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

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        // Two very different shapes (aligned — k-means is not shift
        // invariant, so keep phases fixed).
        let mut series = Vec::new();
        let mut labels = Vec::new();
        for i in 0..6 {
            let eps = i as f64 * 0.01;
            series.push((0..32).map(|t| (t as f64 * 0.4).sin() + eps).collect());
            labels.push(0);
            series.push((0..32).map(|t| t as f64 * 0.1 + eps).collect());
            labels.push(1);
        }
        (series, labels)
    }

    #[test]
    fn separates_two_obvious_groups() {
        let (series, labels) = two_blobs();
        let c = kmeans(&series, 2, 1);
        // Perfect separation up to label permutation.
        for i in 0..series.len() {
            for j in 0..series.len() {
                assert_eq!(
                    labels[i] == labels[j],
                    c.assignments[i] == c.assignments[j],
                    "pair ({i},{j})"
                );
            }
        }
        assert!(c.converged);
    }

    #[test]
    fn no_empty_clusters() {
        let (series, _) = two_blobs();
        for k in 1..=6 {
            let c = kmeans(&series, k, 3);
            assert!(c.sizes().iter().all(|&s| s > 0), "k={k}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let (series, _) = two_blobs();
        assert_eq!(
            kmeans(&series, 3, 9).assignments,
            kmeans(&series, 3, 9).assignments
        );
    }

    #[test]
    fn centroid_is_mean_of_members() {
        let (series, _) = two_blobs();
        let c = kmeans(&series, 2, 5);
        let z: Vec<Vec<f64>> = series.iter().map(|s| z_normalize(s)).collect();
        for cluster in 0..2 {
            let members: Vec<usize> = (0..series.len())
                .filter(|&i| c.assignments[i] == cluster)
                .collect();
            let mut mean = vec![0.0; z[0].len()];
            for &i in &members {
                for (acc, v) in mean.iter_mut().zip(z[i].iter()) {
                    *acc += v;
                }
            }
            for v in mean.iter_mut() {
                *v /= members.len() as f64;
            }
            for (a, b) in mean.iter().zip(c.centroids[cluster].iter()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn oversized_k_is_rejected() {
        kmeans(&[vec![1.0, 2.0]], 2, 0);
    }
}
