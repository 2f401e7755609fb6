//! Agglomerative hierarchical clustering.
//!
//! Milligan & Cooper's survey — the paper's reference for the quality
//! indices of Figure 5 — studied stopping rules in the context of
//! hierarchical methods. This module provides agglomerative clustering
//! with single / complete / average linkage over an arbitrary distance, so
//! the "no convincing k" finding can be re-checked under a third
//! algorithm (see the `ablations` binary).

use crate::Clustering;

/// Linkage criterion: how the distance between two clusters is derived
/// from member distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum member distance (chains easily).
    Single,
    /// Maximum member distance (compact clusters).
    Complete,
    /// Unweighted average member distance (UPGMA).
    Average,
}

/// One merge step of the dendrogram: clusters `a` and `b` (ids in the
/// merge forest) joined at `height`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Merge {
    /// First cluster id (leaves are `0..n`, merges are `n..2n-1`).
    pub a: usize,
    /// Second cluster id.
    pub b: usize,
    /// Linkage distance at which the merge happened.
    pub height: f64,
}

/// A full agglomerative dendrogram over `n` leaves.
#[derive(Debug, Clone)]
pub struct Dendrogram {
    n: usize,
    /// The merge sequence, in non-decreasing height order.
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Cuts the dendrogram into exactly `k` clusters (undoing the last
    /// `k − 1` merges) and returns dense assignments.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= n`.
    pub(crate) fn cut(&self, k: usize) -> Vec<usize> {
        assert!(k >= 1 && k <= self.n, "k must be in 1..=n");
        // Union-find over the first n - k merges.
        let mut parent: Vec<usize> = (0..2 * self.n - 1).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (step, m) in self.merges.iter().take(self.n - k).enumerate() {
            let merged_id = self.n + step;
            let ra = find(&mut parent, m.a);
            let rb = find(&mut parent, m.b);
            parent[ra] = merged_id;
            parent[rb] = merged_id;
        }
        // Dense relabeling of leaf roots.
        let mut label_of_root = std::collections::HashMap::new();
        let mut assignments = Vec::with_capacity(self.n);
        for leaf in 0..self.n {
            let root = find(&mut parent, leaf);
            let next = label_of_root.len();
            let label = *label_of_root.entry(root).or_insert(next);
            assignments.push(label);
        }
        assignments
    }

    /// Cuts into `k` clusters and packages the result as a [`Clustering`]
    /// with medoid centroids (the member minimizing summed distance).
    pub fn cut_clustering<D: Fn(&[f64], &[f64]) -> f64>(
        &self,
        series: &[Vec<f64>],
        k: usize,
        dist: D,
    ) -> Clustering {
        assert_eq!(series.len(), self.n, "series count must match leaves");
        let assignments = self.cut(k);
        let mut centroids = Vec::with_capacity(k);
        for c in 0..k {
            let members: Vec<usize> = (0..self.n).filter(|&i| assignments[i] == c).collect();
            let medoid = members
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let da: f64 = members.iter().map(|&m| dist(&series[a], &series[m])).sum();
                    let db: f64 = members.iter().map(|&m| dist(&series[b], &series[m])).sum();
                    da.partial_cmp(&db).unwrap()
                })
                .expect("cut never produces empty clusters");
            centroids.push(series[medoid].clone());
        }
        Clustering {
            assignments,
            centroids,
            iterations: self.n - k,
            converged: true,
        }
    }
}

/// Builds the agglomerative dendrogram of `series` under `linkage` and
/// `dist`. `O(n³)` naïve implementation — ample for the paper's 20 series.
///
/// # Panics
///
/// Panics on empty input or mismatched series lengths.
pub fn agglomerate<D: Fn(&[f64], &[f64]) -> f64>(
    series: &[Vec<f64>],
    linkage: Linkage,
    dist: D,
) -> Dendrogram {
    let n = series.len();
    assert!(n >= 1, "cannot cluster zero series");
    assert!(
        series.iter().all(|s| s.len() == series[0].len()),
        "series lengths must match"
    );

    // Active clusters: (forest id, member leaf indices).
    let mut active: Vec<(usize, Vec<usize>)> = (0..n).map(|i| (i, vec![i])).collect();
    let mut merges = Vec::with_capacity(n.saturating_sub(1));
    let mut next_id = n;

    // Precompute the leaf distance matrix.
    let mut d = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let v = dist(&series[i], &series[j]);
            d[i][j] = v;
            d[j][i] = v;
        }
    }
    let d_ref = &d;
    let cluster_dist = |a: &[usize], b: &[usize]| -> f64 {
        let values = a.iter().flat_map(|&i| b.iter().map(move |&j| d_ref[i][j]));
        match linkage {
            Linkage::Single => values.fold(f64::INFINITY, f64::min),
            Linkage::Complete => values.fold(f64::NEG_INFINITY, f64::max),
            Linkage::Average => {
                let (sum, count) = values.fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
                sum / count as f64
            }
        }
    };

    while active.len() > 1 {
        // Find the closest pair.
        let mut best = (0usize, 1usize, f64::INFINITY);
        for i in 0..active.len() {
            for j in (i + 1)..active.len() {
                let v = cluster_dist(&active[i].1, &active[j].1);
                if v < best.2 {
                    best = (i, j, v);
                }
            }
        }
        let (i, j, height) = best;
        let (id_b, members_b) = active.remove(j);
        let (id_a, members_a) = active.remove(i);
        merges.push(Merge {
            a: id_a,
            b: id_b,
            height,
        });
        let mut merged = members_a;
        merged.extend(members_b);
        active.push((next_id, merged));
        next_id += 1;
    }

    Dendrogram { n, merges }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn euclid(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    fn blobs() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![10.0, 10.0],
            vec![10.1, 10.0],
            vec![10.0, 10.1],
        ]
    }

    #[test]
    fn two_blobs_separate_at_k2() {
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let dendro = agglomerate(&blobs(), linkage, euclid);
            let cut = dendro.cut(2);
            assert_eq!(cut[0], cut[1]);
            assert_eq!(cut[0], cut[2]);
            assert_eq!(cut[3], cut[4]);
            assert_eq!(cut[3], cut[5]);
            assert_ne!(cut[0], cut[3], "{linkage:?}");
        }
    }

    #[test]
    fn merge_heights_are_monotone_for_complete_linkage() {
        let dendro = agglomerate(&blobs(), Linkage::Complete, euclid);
        for w in dendro.merges.windows(2) {
            assert!(w[1].height >= w[0].height - 1e-12);
        }
    }

    #[test]
    fn cut_extremes() {
        let series = blobs();
        let dendro = agglomerate(&series, Linkage::Average, euclid);
        let all = dendro.cut(1);
        assert!(all.iter().all(|&a| a == 0));
        let singletons = dendro.cut(series.len());
        let mut sorted = singletons.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), series.len());
    }

    #[test]
    fn cut_clustering_produces_valid_medoids() {
        let series = blobs();
        let dendro = agglomerate(&series, Linkage::Average, euclid);
        let clustering = dendro.cut_clustering(&series, 2, euclid);
        assert_eq!(clustering.k(), 2);
        assert!(clustering.sizes().iter().all(|&s| s == 3));
        // Each centroid is one of its members.
        for c in 0..2 {
            assert!((0..series.len())
                .any(|m| clustering.assignments[m] == c && series[m] == clustering.centroids[c]));
        }
    }

    #[test]
    fn single_linkage_chains_where_complete_does_not() {
        // A chain of points: single linkage keeps it together at k=2
        // against an outlier pair; complete linkage splits the chain.
        let mut series: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64, 0.0]).collect();
        series.push(vec![100.0, 0.0]);
        series.push(vec![101.0, 0.0]);
        let single = agglomerate(&series, Linkage::Single, euclid).cut(2);
        assert!(single[..6].iter().all(|&a| a == single[0]), "{single:?}");
        assert_eq!(single[6], single[7]);
        assert_ne!(single[0], single[6]);
    }

    #[test]
    fn works_on_the_papers_series_shape() {
        // 20 series of 168 samples, like Figure 5's input.
        let series: Vec<Vec<f64>> = (0..20)
            .map(|s| (0..168).map(|t| ((t + s * 7) as f64 * 0.2).sin()).collect())
            .collect();
        let dendro = agglomerate(
            &series,
            Linkage::Average,
            mobilenet_timeseries::sbd::shape_based_distance,
        );
        assert_eq!(dendro.merges.len(), 19);
        for k in [2usize, 5, 10, 19] {
            let cut = dendro.cut(k);
            let mut labels = cut.clone();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), k, "cut at k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn cut_rejects_zero() {
        agglomerate(&blobs(), Linkage::Single, euclid).cut(0);
    }
}
