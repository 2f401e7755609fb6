//! Cluster-quality indices.
//!
//! Figure 5 of the paper ranks k-shape outputs for every `k` with four
//! indices — **Davies-Bouldin** and **modified Davies-Bouldin (DB\*)**
//! (minimum is best) plus **Dunn** and **Silhouette** (maximum is best) —
//! a representative selection from Milligan & Cooper's classic survey.
//! All four are implemented parametrically in the distance function so the
//! same code ranks SBD-based (k-shape) and Euclidean (k-means)
//! clusterings.
//!
//! Every index reads **precomputed distance tables**, so batched callers
//! (the Fig-5 sweep) fill the tables once from cached spectra and score
//! many clusterings without recomputing a single distance. [`silhouette`]
//! also has a closure form, a thin wrapper that materializes its table and
//! delegates to [`silhouette_from`]. Because a distance need not be
//! symmetric at the bit level (SBD's FFT evaluates `d(x, y)` and `d(y, x)`
//! in different orders), the tables are **ordered**: entry `[i][j]` must
//! hold the distance as evaluated with `i` as the first argument.

use crate::Clustering;

/// Average distance of each cluster's members to its centroid, from the
/// per-series distance-to-own-centroid table.
fn scatter_from(own_dist: &[f64], clustering: &Clustering) -> Vec<f64> {
    let k = clustering.k();
    let mut sums = vec![0.0; k];
    let mut counts = vec![0usize; k];
    for (&d, &a) in own_dist.iter().zip(clustering.assignments.iter()) {
        sums[a] += d;
        counts[a] += 1;
    }
    sums.iter()
        .zip(counts.iter())
        .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect()
}

/// Ordered `n × n` series-series table; the (never-read) diagonal is 0.
fn pairwise_distances<D: Fn(&[f64], &[f64]) -> f64>(
    series: &[Vec<f64>],
    dist: &D,
) -> Vec<Vec<f64>> {
    let n = series.len();
    let mut t = vec![vec![0.0; n]; n];
    for (i, row) in t.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            if i != j {
                *v = dist(&series[i], &series[j]);
            }
        }
    }
    t
}

/// Davies-Bouldin index (lower is better):
/// `DB = (1/k) Σᵢ maxⱼ≠ᵢ (Sᵢ + Sⱼ) / d(cᵢ, cⱼ)`, from tables: `own_dist[i]`
/// is each series' distance to its own centroid, `centroid_dist[i][j]` the
/// ordered centroid pair distance.
///
/// Returns `f64::INFINITY` when two centroids coincide; `k < 2` is
/// rejected because the index is undefined there.
pub fn davies_bouldin_from(
    own_dist: &[f64],
    centroid_dist: &[Vec<f64>],
    clustering: &Clustering,
) -> f64 {
    let k = clustering.k();
    assert!(k >= 2, "Davies-Bouldin requires k >= 2");
    assert_eq!(own_dist.len(), clustering.assignments.len());
    assert_eq!(centroid_dist.len(), k);
    let s = scatter_from(own_dist, clustering);
    let mut total = 0.0;
    for i in 0..k {
        let mut worst = 0.0f64;
        for j in 0..k {
            if i == j {
                continue;
            }
            let sep = centroid_dist[i][j];
            let r = if sep > 0.0 {
                (s[i] + s[j]) / sep
            } else {
                f64::INFINITY
            };
            worst = worst.max(r);
        }
        total += worst;
    }
    total / k as f64
}

/// Modified Davies-Bouldin index DB\* (Kim & Ramakrishna; lower is
/// better): the worst *cohesion* pair over the best *separation*,
/// `DB* = (1/k) Σᵢ [maxⱼ≠ᵢ (Sᵢ + Sⱼ)] / [minⱼ≠ᵢ d(cᵢ, cⱼ)]`, from the same
/// tables as [`davies_bouldin_from`].
pub fn davies_bouldin_star_from(
    own_dist: &[f64],
    centroid_dist: &[Vec<f64>],
    clustering: &Clustering,
) -> f64 {
    let k = clustering.k();
    assert!(k >= 2, "DB* requires k >= 2");
    assert_eq!(own_dist.len(), clustering.assignments.len());
    assert_eq!(centroid_dist.len(), k);
    let s = scatter_from(own_dist, clustering);
    let mut total = 0.0;
    for i in 0..k {
        let mut max_cohesion = 0.0f64;
        let mut min_sep = f64::INFINITY;
        for j in 0..k {
            if i == j {
                continue;
            }
            max_cohesion = max_cohesion.max(s[i] + s[j]);
            min_sep = min_sep.min(centroid_dist[i][j]);
        }
        total += if min_sep > 0.0 {
            max_cohesion / min_sep
        } else {
            f64::INFINITY
        };
    }
    total / k as f64
}

/// Dunn index (higher is better): smallest between-cluster member
/// distance over the largest within-cluster diameter, from the ordered
/// series-series table (only the `i < j` triangle is read).
pub fn dunn_from(pair_dist: &[Vec<f64>], clustering: &Clustering) -> f64 {
    let k = clustering.k();
    assert!(k >= 2, "Dunn requires k >= 2");
    let n = clustering.assignments.len();
    assert_eq!(pair_dist.len(), n);
    let mut min_between = f64::INFINITY;
    let mut max_within = 0.0f64;
    for (i, row) in pair_dist.iter().enumerate() {
        for (j, &d) in row.iter().enumerate().skip(i + 1) {
            if clustering.assignments[i] == clustering.assignments[j] {
                max_within = max_within.max(d);
            } else {
                min_between = min_between.min(d);
            }
        }
    }
    if max_within <= 0.0 {
        // All clusters are singletons or contain identical points.
        return f64::INFINITY;
    }
    min_between / max_within
}

/// Mean Silhouette coefficient (higher is better, in `[-1, 1]`):
/// per-point `(b − a) / max(a, b)` with `a` the mean distance to own
/// cluster and `b` the smallest mean distance to another cluster.
/// Singleton clusters contribute 0, the standard convention.
pub fn silhouette<D: Fn(&[f64], &[f64]) -> f64>(
    series: &[Vec<f64>],
    clustering: &Clustering,
    dist: D,
) -> f64 {
    silhouette_from(&pairwise_distances(series, &dist), clustering)
}

/// [`silhouette`] from the ordered series-series table (row `i` supplies
/// all distances with `i` as the first argument, matching the original
/// evaluation orientation).
pub fn silhouette_from(pair_dist: &[Vec<f64>], clustering: &Clustering) -> f64 {
    let k = clustering.k();
    assert!(k >= 2, "Silhouette requires k >= 2");
    let n = clustering.assignments.len();
    assert_eq!(pair_dist.len(), n);
    let sizes = clustering.sizes();
    let mut total = 0.0;
    for (i, row) in pair_dist.iter().enumerate() {
        let own = clustering.assignments[i];
        if sizes[own] <= 1 {
            continue; // contributes 0
        }
        let mut sums = vec![0.0; k];
        for (j, &d) in row.iter().enumerate() {
            if i == j {
                continue;
            }
            sums[clustering.assignments[j]] += d;
        }
        let a = sums[own] / (sizes[own] - 1) as f64;
        let b = (0..k)
            .filter(|&c| c != own && sizes[c] > 0)
            .map(|c| sums[c] / sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            let denom = a.max(b);
            if denom > 0.0 {
                total += (b - a) / denom;
            }
        }
    }
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::kmeans;

    fn euclid(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    /// Two tight, well-separated 1-D blobs embedded as 2-vectors.
    fn blobs() -> (Vec<Vec<f64>>, Clustering) {
        let series = vec![
            vec![0.0, 0.1],
            vec![0.1, 0.0],
            vec![0.05, 0.05],
            vec![10.0, 10.1],
            vec![10.1, 10.0],
            vec![10.05, 10.05],
        ];
        let clustering = Clustering {
            assignments: vec![0, 0, 0, 1, 1, 1],
            centroids: vec![vec![0.05, 0.05], vec![10.05, 10.05]],
            iterations: 1,
            converged: true,
        };
        (series, clustering)
    }

    /// Davies-Bouldin tables under `euclid`: each series' distance to its
    /// own centroid, and the ordered centroid pair table.
    fn db_tables(series: &[Vec<f64>], c: &Clustering) -> (Vec<f64>, Vec<Vec<f64>>) {
        let own = series
            .iter()
            .zip(&c.assignments)
            .map(|(s, &a)| euclid(s, &c.centroids[a]));
        let pairs = c
            .centroids
            .iter()
            .map(|a| c.centroids.iter().map(|b| euclid(a, b)).collect());
        (own.collect(), pairs.collect())
    }

    fn davies_bouldin(series: &[Vec<f64>], c: &Clustering) -> f64 {
        let (own, pairs) = db_tables(series, c);
        davies_bouldin_from(&own, &pairs, c)
    }

    fn davies_bouldin_star(series: &[Vec<f64>], c: &Clustering) -> f64 {
        let (own, pairs) = db_tables(series, c);
        davies_bouldin_star_from(&own, &pairs, c)
    }

    fn dunn(series: &[Vec<f64>], c: &Clustering) -> f64 {
        dunn_from(&pairwise_distances(series, &euclid), c)
    }

    /// The same points split badly (mixing the blobs).
    fn bad_split() -> (Vec<Vec<f64>>, Clustering) {
        let (series, _) = blobs();
        let clustering = Clustering {
            assignments: vec![0, 1, 0, 1, 0, 1],
            centroids: vec![vec![3.38, 3.4], vec![6.73, 6.7]],
            iterations: 1,
            converged: true,
        };
        (series, clustering)
    }

    #[test]
    fn good_clustering_beats_bad_on_every_index() {
        let (series, good) = blobs();
        let (_, bad) = bad_split();
        // Lower is better.
        assert!(davies_bouldin(&series, &good) < davies_bouldin(&series, &bad));
        assert!(davies_bouldin_star(&series, &good) < davies_bouldin_star(&series, &bad));
        // Higher is better.
        assert!(dunn(&series, &good) > dunn(&series, &bad));
        assert!(silhouette(&series, &good, euclid) > silhouette(&series, &bad, euclid));
    }

    #[test]
    fn perfect_separation_has_near_one_silhouette() {
        let (series, good) = blobs();
        let s = silhouette(&series, &good, euclid);
        assert!(s > 0.95, "silhouette {s}");
    }

    #[test]
    fn dunn_rewards_wide_separation() {
        let (series, good) = blobs();
        let d = dunn(&series, &good);
        // Separation ≈ 14 vs diameter ≈ 0.14 → large ratio.
        assert!(d > 50.0, "dunn {d}");
    }

    #[test]
    fn db_star_upper_bounds_db() {
        // DB* replaces the per-pair denominator with the *minimum*
        // separation, so DB* >= DB on any clustering.
        let (series, _) = blobs();
        for k in 2..=3 {
            let c = kmeans(&series, k, 1);
            let db = davies_bouldin(&series, &c);
            let dbs = davies_bouldin_star(&series, &c);
            assert!(dbs >= db - 1e-12, "k={k}: DB*={dbs} < DB={db}");
        }
    }

    #[test]
    fn coincident_centroids_blow_up_db() {
        let (series, mut clustering) = blobs();
        clustering.centroids[1] = clustering.centroids[0].clone();
        assert_eq!(davies_bouldin(&series, &clustering), f64::INFINITY);
    }

    #[test]
    fn all_singletons_give_infinite_dunn() {
        let series = vec![vec![0.0], vec![1.0], vec![2.0]];
        let clustering = Clustering {
            assignments: vec![0, 1, 2],
            centroids: vec![vec![0.0], vec![1.0], vec![2.0]],
            iterations: 1,
            converged: true,
        };
        assert_eq!(dunn(&series, &clustering), f64::INFINITY);
        // Silhouette of all-singletons is 0 by convention.
        assert_eq!(silhouette(&series, &clustering, euclid), 0.0);
    }

    #[test]
    fn silhouette_closure_matches_table_form_bitwise() {
        use mobilenet_timeseries::sbd::shape_based_distance;
        // SBD is the asymmetric-at-the-bit distance the ordered-table
        // contract exists for: the closure form must fill row `i` with `i`
        // as the first argument.
        let series: Vec<Vec<f64>> = (0..7)
            .map(|s| {
                (0..24)
                    .map(|t| ((t + s * 3) as f64 * 0.37).sin() + s as f64 * 0.05)
                    .collect()
            })
            .collect();
        let clustering = Clustering {
            assignments: vec![0, 0, 1, 1, 2, 2, 0],
            centroids: vec![series[0].clone(), series[2].clone(), series[4].clone()],
            iterations: 1,
            converged: true,
        };
        let ordered: Vec<Vec<f64>> = series
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let row = series.iter().enumerate();
                row.map(|(j, b)| {
                    if i == j {
                        0.0
                    } else {
                        shape_based_distance(a, b)
                    }
                })
                .collect()
            })
            .collect();
        assert_eq!(
            silhouette(&series, &clustering, shape_based_distance).to_bits(),
            silhouette_from(&ordered, &clustering).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "requires k >= 2")]
    fn k_one_is_rejected() {
        let series = vec![vec![0.0], vec![1.0]];
        let clustering = Clustering {
            assignments: vec![0, 0],
            centroids: vec![vec![0.5]],
            iterations: 1,
            converged: true,
        };
        davies_bouldin(&series, &clustering);
    }
}
