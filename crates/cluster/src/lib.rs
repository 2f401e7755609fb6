//! Time-series clustering for the `mobilenet` workspace.
//!
//! §4 of the paper attempts to group the 20 selected services by the shape
//! of their weekly time series, using **k-Shape** — "the current
//! state-of-the-art unsupervised technique for time series clustering" —
//! over all candidate `k`, ranked by the **Davies-Bouldin**, **modified
//! Davies-Bouldin (DB*)**, **Dunn** and **Silhouette** indices (Figure 5).
//! The outcome is famously inconclusive: quality degrades monotonically
//! with `k` and no grouping is stable, which the paper reads as evidence
//! that every service has unique temporal dynamics.
//!
//! This crate reimplements the machinery from scratch:
//!
//! * [`kshape`](mod@kshape) — the full k-Shape loop: SBD assignment and shape
//!   extraction (dominant eigenvector of the centred aligned-scatter
//!   matrix, via power iteration).
//! * [`kmeans`](mod@kmeans) — Lloyd's algorithm on z-normalized series, the baseline
//!   the ablation benches compare against.
//! * The four quality indices ([`silhouette_from`], [`dunn_from`],
//!   [`davies_bouldin_from`], [`davies_bouldin_star_from`]), over
//!   precomputed distance tables.
//! * A small dense-matrix kernel (power iteration) that shape extraction
//!   needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hierarchy;
mod indices;
pub mod kmeans;
pub mod kshape;
mod linalg;

pub use indices::{
    davies_bouldin_from, davies_bouldin_star_from, dunn_from, silhouette, silhouette_from,
};
#[doc(inline)]
pub use kmeans::kmeans;
#[doc(inline)]
pub use kshape::kshape;

/// A clustering of `n` series into `k` groups.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster id of each input series, in `0..k`.
    pub assignments: Vec<usize>,
    /// One centroid per cluster (same length as the input series).
    pub centroids: Vec<Vec<f64>>,
    /// Number of iterations until convergence (or the cap).
    pub iterations: usize,
    /// Whether the loop converged before hitting the iteration cap.
    pub converged: bool,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Sizes of all clusters.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_count_assignments() {
        let c = Clustering {
            assignments: vec![0, 1, 0, 2, 1],
            centroids: vec![vec![0.0], vec![0.0], vec![0.0]],
            iterations: 1,
            converged: true,
        };
        assert_eq!(c.k(), 3);
        assert_eq!(c.sizes(), vec![2, 2, 1]);
    }
}
