//! The k-shape clustering experiment (§4, Figure 5).
//!
//! The paper exhaustively clusters the 20 services' weekly series with
//! k-shape for every `k ∈ [2, 19]` and ranks the outcomes with four
//! quality indices. No `k` wins: all indices indicate steadily decreasing
//! quality as `k` grows, which the paper reads as each service having
//! unique temporal dynamics. This module reproduces the full sweep.

use mobilenet_cluster::{
    davies_bouldin_from, davies_bouldin_star_from, dunn_from, kmeans, kshape, silhouette_from,
    Clustering,
};
use mobilenet_timeseries::norm::z_normalize;
use mobilenet_timeseries::sbd::{SbdEngine, SbdScratch, Spectrum};
use mobilenet_traffic::Direction;

use crate::study::Study;

/// Which clustering algorithm a sweep uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// k-Shape with shape-based distance (the paper's choice).
    KShape,
    /// Euclidean k-means on z-normalized series (ablation baseline).
    KMeans,
}

/// Quality indices of one clustering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexScores {
    /// Davies-Bouldin (minimum is best).
    pub davies_bouldin: f64,
    /// Modified Davies-Bouldin DB* (minimum is best).
    pub davies_bouldin_star: f64,
    /// Dunn (maximum is best).
    pub dunn: f64,
    /// Silhouette (maximum is best).
    pub silhouette: f64,
}

/// One row of Figure 5: the quality indices at a given `k`.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Number of clusters.
    pub k: usize,
    /// Index values.
    pub scores: IndexScores,
    /// The clustering itself (for inspection of the grouping).
    pub clustering: Clustering,
}

/// The full sweep for one direction.
#[derive(Debug, Clone)]
pub struct ClusteringSweep {
    /// Traffic direction clustered.
    pub direction: Direction,
    /// Algorithm used.
    pub algorithm: Algorithm,
    /// One point per `k` in `2..=n-1`.
    pub points: Vec<SweepPoint>,
}

impl ClusteringSweep {
    /// `k` minimizing Davies-Bouldin.
    pub fn best_k_by_db(&self) -> usize {
        self.points
            .iter()
            .min_by(|a, b| {
                a.scores
                    .davies_bouldin
                    .partial_cmp(&b.scores.davies_bouldin)
                    .unwrap()
            })
            .map(|p| p.k)
            .unwrap_or(0)
    }

    /// `k` maximizing Silhouette.
    pub fn best_k_by_silhouette(&self) -> usize {
        self.points
            .iter()
            .max_by(|a, b| {
                a.scores
                    .silhouette
                    .partial_cmp(&b.scores.silhouette)
                    .unwrap()
            })
            .map(|p| p.k)
            .unwrap_or(0)
    }

    /// The paper's diagnosis: quality degrades as `k` grows — measured as
    /// the Spearman-like sign of the silhouette trend (fraction of
    /// adjacent `k` pairs where silhouette decreases).
    pub fn silhouette_decreasing_fraction(&self) -> f64 {
        let pairs = self.points.windows(2).count();
        if pairs == 0 {
            return 0.0;
        }
        let dec = self
            .points
            .windows(2)
            .filter(|w| w[1].scores.silhouette <= w[0].scores.silhouette)
            .count();
        dec as f64 / pairs as f64
    }
}

/// Runs the Figure 5 sweep on the national weekly series of all head
/// services.
///
/// `restarts` k-shape initializations are tried per `k`, keeping the run
/// with the best (lowest) within-cluster SBD inertia — mirroring the
/// paper's exhaustive search.
pub fn clustering_sweep(
    study: &Study,
    dir: Direction,
    algorithm: Algorithm,
    restarts: u64,
) -> ClusteringSweep {
    let series: Vec<Vec<f64>> = (0..study.catalog().head().len())
        .map(|s| study.dataset().national_series(dir, s).to_vec())
        .collect();
    sweep_series(&series, dir, algorithm, restarts)
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The sweep over explicit series (also used by ablations and tests).
///
/// Parallelism is at the `(k, restart)` granularity: every restart of
/// every `k` is an independent job (its seed is the restart index, not a
/// shared stream), so `mobilenet-par` can fan all of them out and the
/// ordered result vector is reduced per `k` deterministically — the
/// earliest restart wins inertia ties, exactly as the old serial loop
/// did. Index scores are computed from distance tables filled once per
/// sweep (series-series) and once per `k` (centroid tables) through one
/// plan-cached [`SbdEngine`], so no distance is evaluated twice.
pub(crate) fn sweep_series(
    series: &[Vec<f64>],
    dir: Direction,
    algorithm: Algorithm,
    restarts: u64,
) -> ClusteringSweep {
    assert!(
        series.len() >= 3,
        "need at least 3 series to sweep k in 2..n"
    );
    let z: Vec<Vec<f64>> = series.iter().map(|s| z_normalize(s)).collect();
    let n = z.len();
    let m = z[0].len();

    let _sweep_span = mobilenet_obs::span("kshape_sweep");
    let ks: Vec<usize> = (2..n).collect();
    mobilenet_obs::add("core.kshape_ks", ks.len() as u64);

    // One engine and one spectrum per series for the whole sweep; shared
    // read-only across restart workers.
    let engine = SbdEngine::new(m);
    let z_specs: Vec<Spectrum> = z.iter().map(|s| engine.spectrum(s)).collect();

    let r = restarts.max(1) as usize;
    let jobs: Vec<(usize, u64)> = ks
        .iter()
        .flat_map(|&k| (0..r as u64).map(move |restart| (k, restart)))
        .collect();
    let runs = mobilenet_par::par_map_collect(jobs.len(), |job| {
        let (k, restart) = jobs[job];
        // Worker threads have a fresh span stack, so this records at the
        // root; its count equals ks × restarts at any thread count, but
        // the durations are per-worker wall clock.
        let _restart_span = mobilenet_obs::span("kshape_restart");
        let clustering = match algorithm {
            Algorithm::KShape => kshape(&z, k, restart),
            Algorithm::KMeans => kmeans(&z, k, restart),
        };
        let inertia = match algorithm {
            Algorithm::KShape => {
                // Within-cluster SBD inertia via the shared spectra: k
                // forward transforms for the centroids, then one inverse
                // per series.
                let mut scratch = SbdScratch::new();
                let cent_specs: Vec<Spectrum> = clustering
                    .centroids
                    .iter()
                    .map(|c| engine.spectrum(c))
                    .collect();
                let mut sum = 0.0;
                for (spec, &a) in z_specs.iter().zip(clustering.assignments.iter()) {
                    sum += engine.sbd(spec, &cent_specs[a], &mut scratch);
                }
                sum
            }
            Algorithm::KMeans => z
                .iter()
                .zip(clustering.assignments.iter())
                .map(|(s, &a)| euclid(s, &clustering.centroids[a]))
                .sum(),
        };
        (inertia, clustering)
    });

    // Series-series distances are clustering-independent: fill the ordered
    // table once and score every k from it.
    let mut scratch = SbdScratch::new();
    let mut pair_dist = vec![vec![0.0; n]; n];
    for (i, row) in pair_dist.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            if i != j {
                *v = match algorithm {
                    Algorithm::KShape => engine.sbd(&z_specs[i], &z_specs[j], &mut scratch),
                    Algorithm::KMeans => euclid(&z[i], &z[j]),
                };
            }
        }
    }

    // Deterministic ordered reduction: jobs (and thus `runs`) are in
    // (k, restart) order, so folding each k's slice in sequence replays
    // the old serial keep-unless-strictly-better rule bit for bit.
    let mut runs = runs.into_iter();
    let mut points = Vec::with_capacity(ks.len());
    for &k in &ks {
        let mut best = runs.next().expect("one run per (k, restart)");
        for _ in 1..r {
            let cand = runs.next().expect("one run per (k, restart)");
            // NOT equivalent to `best.0 > cand.0`: a NaN inertia in
            // `best` must be displaced by any candidate, exactly as the
            // historical serial fold behaved.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(best.0 <= cand.0) {
                best = cand;
            }
        }
        let clustering = best.1;

        let k_clusters = clustering.k();
        let mut own_dist = vec![0.0; n];
        let mut centroid_dist = vec![vec![0.0; k_clusters]; k_clusters];
        match algorithm {
            Algorithm::KShape => {
                let cent_specs: Vec<Spectrum> = clustering
                    .centroids
                    .iter()
                    .map(|c| engine.spectrum(c))
                    .collect();
                for (i, d) in own_dist.iter_mut().enumerate() {
                    *d = engine.sbd(
                        &z_specs[i],
                        &cent_specs[clustering.assignments[i]],
                        &mut scratch,
                    );
                }
                for (i, row) in centroid_dist.iter_mut().enumerate() {
                    for (j, v) in row.iter_mut().enumerate() {
                        if i != j {
                            *v = engine.sbd(&cent_specs[i], &cent_specs[j], &mut scratch);
                        }
                    }
                }
            }
            Algorithm::KMeans => {
                for (i, d) in own_dist.iter_mut().enumerate() {
                    *d = euclid(&z[i], &clustering.centroids[clustering.assignments[i]]);
                }
                for (i, row) in centroid_dist.iter_mut().enumerate() {
                    for (j, v) in row.iter_mut().enumerate() {
                        if i != j {
                            *v = euclid(&clustering.centroids[i], &clustering.centroids[j]);
                        }
                    }
                }
            }
        }
        let scores = IndexScores {
            davies_bouldin: davies_bouldin_from(&own_dist, &centroid_dist, &clustering),
            davies_bouldin_star: davies_bouldin_star_from(&own_dist, &centroid_dist, &clustering),
            dunn: dunn_from(&pair_dist, &clustering),
            silhouette: silhouette_from(&pair_dist, &clustering),
        };
        points.push(SweepPoint {
            k,
            scores,
            clustering,
        });
    }
    ClusteringSweep {
        direction: dir,
        algorithm,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_k_2_to_n_minus_1() {
        let study = crate::testutil::measured_study();
        let sweep = clustering_sweep(study, Direction::Down, Algorithm::KShape, 2);
        let ks: Vec<usize> = sweep.points.iter().map(|p| p.k).collect();
        assert_eq!(ks, (2..20).collect::<Vec<_>>());
    }

    #[test]
    fn paper_finding_no_convincing_small_k() {
        // The study's service profiles are all distinct by construction;
        // the sweep should behave as in the paper: silhouette stays low
        // (weak structure) and mostly degrades with k.
        let study = crate::testutil::measured_study();
        let sweep = clustering_sweep(study, Direction::Down, Algorithm::KShape, 3);
        let max_sil = sweep
            .points
            .iter()
            .map(|p| p.scores.silhouette)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max_sil < 0.6,
            "silhouette {max_sil} suggests clean clusters — services should not group cleanly"
        );
    }

    #[test]
    fn synthetic_clusterable_data_is_recognized() {
        // Control: data that *does* cluster produces a clear silhouette
        // optimum at the true k, confirming the sweep can detect structure
        // when it exists.
        let mut series = Vec::new();
        for class in 0..3 {
            for i in 0..5 {
                let eps = i as f64 * 0.02;
                series.push(
                    (0..64)
                        .map(|t| {
                            let x = t as f64;
                            match class {
                                0 => (x * 0.2).sin() + eps,
                                1 => (x * 0.2).cos().powi(3) + eps,
                                _ => ((x - 30.0) / 8.0).tanh() + eps,
                            }
                        })
                        .collect::<Vec<f64>>(),
                );
            }
        }
        let sweep = sweep_series(&series, Direction::Down, Algorithm::KShape, 4);
        let best = sweep
            .points
            .iter()
            .max_by(|a, b| {
                a.scores
                    .silhouette
                    .partial_cmp(&b.scores.silhouette)
                    .unwrap()
            })
            .unwrap();
        assert_eq!(
            best.k,
            3,
            "true k not found (silhouettes: {:?})",
            sweep
                .points
                .iter()
                .map(|p| (p.k, p.scores.silhouette))
                .collect::<Vec<_>>()
        );
        assert!(best.scores.silhouette > 0.6);
    }

    #[test]
    fn kmeans_sweep_also_runs() {
        let study = crate::testutil::measured_study();
        let sweep = clustering_sweep(study, Direction::Up, Algorithm::KMeans, 2);
        assert_eq!(sweep.algorithm, Algorithm::KMeans);
        assert_eq!(sweep.points.len(), 18);
        for p in &sweep.points {
            assert!(p.scores.davies_bouldin.is_finite() || p.k > 15);
        }
    }

    #[test]
    fn accessors_report_consistent_ks() {
        let study = crate::testutil::measured_study();
        let sweep = clustering_sweep(study, Direction::Down, Algorithm::KShape, 2);
        let db_k = sweep.best_k_by_db();
        let sil_k = sweep.best_k_by_silhouette();
        assert!((2..20).contains(&db_k));
        assert!((2..20).contains(&sil_k));
        let frac = sweep.silhouette_decreasing_fraction();
        assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    #[should_panic(expected = "at least 3 series")]
    fn tiny_inputs_are_rejected() {
        sweep_series(
            &[vec![1.0, 2.0], vec![2.0, 1.0]],
            Direction::Down,
            Algorithm::KShape,
            1,
        );
    }
}
