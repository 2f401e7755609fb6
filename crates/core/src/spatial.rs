//! Spatial analysis of service usage (§5, Figures 8 and 10).
//!
//! Three results:
//!
//! * **concentration** — the top 1% / 10% of communes carry >50% / >90% of
//!   a service's traffic (Figure 8 left);
//! * **per-subscriber skew** — the CDF of weekly per-user volume across
//!   communes spans from ~KB to tens of MB (Figure 8 right);
//! * **cross-service correlation** — per-user maps of different services
//!   correlate strongly (mean r² ≈ 0.60 DL / 0.53 UL), with Netflix and
//!   iCloud as outliers (Figure 10).

use mobilenet_timeseries::stats::{concentration_curve, mean, share_of_top, Ecdf};
use mobilenet_traffic::{Direction, TrafficDataset};

use crate::study::Study;

/// Minimum r² pairs each parallel worker must receive before the
/// pairwise block fans out; smaller pair lists (the standard 20-service
/// catalog yields 190) run inline, where they are faster than any
/// spawn/steal schedule.
const R2_MIN_PAIRS_PER_WORKER: usize = 256;

/// Pairs one pass of the pairwise kernel serves: one service against up
/// to this many others. Their dot products are independent sums over the
/// same communes, so their additions overlap in the pipeline while each
/// keeps `pearson_r`'s summation order.
const R2_LANES: usize = 4;

/// Figure 8 for one service.
#[derive(Debug, Clone)]
pub struct ConcentrationReport {
    /// Service name.
    pub name: &'static str,
    /// Cumulative (commune share, traffic share) curve, downlink.
    pub dl_curve: Vec<(f64, f64)>,
    /// Cumulative curve, uplink.
    pub ul_curve: Vec<(f64, f64)>,
    /// Traffic share of the top 1% of communes (downlink).
    pub top1_share: f64,
    /// Traffic share of the top 10% of communes (downlink).
    pub top10_share: f64,
    /// ECDF of weekly per-subscriber downlink volume over communes, MB.
    pub per_user_cdf: Ecdf,
}

/// Computes Figure 8 for one head service.
pub fn concentration(study: &Study, service: usize) -> ConcentrationReport {
    let ds = study.dataset();
    let dl = ds.commune_vector(Direction::Down, service);
    let ul = ds.commune_vector(Direction::Up, service);
    let per_user: Vec<f64> = ds
        .per_user_commune_vector(Direction::Down, service)
        .into_iter()
        .filter(|v| v.is_finite())
        .collect();
    ConcentrationReport {
        name: study.catalog().head()[service].name,
        dl_curve: concentration_curve(dl),
        ul_curve: concentration_curve(ul),
        top1_share: share_of_top(dl, 0.01),
        top10_share: share_of_top(dl, 0.10),
        per_user_cdf: Ecdf::new(&per_user),
    }
}

/// Figure 10: the pairwise spatial-correlation structure.
#[derive(Debug, Clone)]
pub struct SpatialCorrelation {
    /// Direction analyzed.
    pub direction: Direction,
    /// Service names in matrix order.
    pub names: Vec<&'static str>,
    /// Pairwise r² between per-user commune vectors (symmetric, unit
    /// diagonal).
    pub matrix: Vec<Vec<f64>>,
    /// The upper-triangle r² values (the CDF of Figure 10 left).
    pub pair_values: Vec<f64>,
    /// Mean pairwise r².
    pub mean_r2: f64,
}

impl SpatialCorrelation {
    /// Mean r² of one service against all others — low values flag the
    /// outliers the paper names (Netflix, iCloud).
    pub fn service_mean_r2(&self, service: usize) -> f64 {
        let n = self.matrix.len();
        let sum: f64 = (0..n)
            .filter(|&j| j != service)
            .map(|j| self.matrix[service][j])
            .sum();
        sum / (n - 1) as f64
    }

    /// Services sorted by ascending mean correlation (outliers first).
    pub fn outlier_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.matrix.len()).collect();
        order.sort_by(|&a, &b| {
            self.service_mean_r2(a)
                .partial_cmp(&self.service_mean_r2(b))
                .unwrap()
        });
        order
    }
}

/// Computes Figure 10 for one direction.
///
/// Communes with no subscribers are excluded from every pair (they carry
/// no signal, only zeros that would inflate correlations).
pub fn spatial_correlation(study: &Study, dir: Direction) -> SpatialCorrelation {
    spatial_correlation_of(study.dataset(), study.service_names(), dir)
}

/// [`spatial_correlation`] over a bare dataset — the entry point for
/// consumers that hold a [`TrafficDataset`] without a [`Study`] around it
/// (live snapshots, replayed traces). `names` are the head-service names
/// in dataset order; answers are bit-identical to the study-based path on
/// the same dataset.
pub fn spatial_correlation_of(
    ds: &TrafficDataset,
    names: Vec<&'static str>,
    dir: Direction,
) -> SpatialCorrelation {
    let _span = mobilenet_obs::span("spatial_r2");
    let n = names.len();
    let users = ds.commune_users();
    let keep: Vec<usize> = (0..ds.n_communes()).filter(|&c| users[c] > 0.0).collect();
    // Per-subscriber volumes of the kept communes, divided in place
    // rather than through a full-length `per_user_commune_vector`, then
    // centred once per service instead of once per pair.
    let centred: Vec<Centred> = (0..n)
        .map(|s| {
            let volumes = ds.commune_vector(dir, s);
            Centred::new(keep.iter().map(|&c| volumes[c] / users[c]).collect())
        })
        .collect();

    // The O(S²·C) pairwise block, parallelized over runs of up to
    // `R2_LANES` upper-triangle pairs `(i, j..j + R2_LANES)`; results
    // come back in pair order, so matrix and CDF are identical at any
    // thread count. The 20-service catalog yields only 190 pairs — far
    // below the per-worker threshold — so the standard run stays inline
    // instead of paying spawn/steal overhead that made `--threads 8`
    // slower than serial.
    let runs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).step_by(R2_LANES).map(move |j| (i, j)))
        .collect();
    let min_runs = R2_MIN_PAIRS_PER_WORKER / R2_LANES;
    let pair_values: Vec<f64> = mobilenet_par::par_map_collect_min(runs.len(), min_runs, |run| {
        let (i, j) = runs[run];
        centred[i].r_squared_each(&centred[j..(j + R2_LANES).min(n)])
    })
    .into_iter()
    .flatten()
    .collect();
    mobilenet_obs::add("core.r2_pairs", pair_values.len() as u64);
    let pairs = (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j)));
    let mut matrix = vec![vec![1.0; n]; n];
    for ((i, j), &r2) in pairs.zip(pair_values.iter()) {
        matrix[i][j] = r2;
        matrix[j][i] = r2;
    }
    let mean_r2 = pair_values.iter().sum::<f64>() / pair_values.len().max(1) as f64;
    SpatialCorrelation {
        direction: dir,
        names,
        matrix,
        pair_values,
        mean_r2,
    }
}

/// One sample less its mean, with its sum of squared deviations: the
/// per-sample half of
/// [`r_squared`](mobilenet_timeseries::stats::r_squared), computed once
/// so that each pair costs one dot product.
struct Centred {
    deviations: Vec<f64>,
    sum_sq: f64,
}

impl Centred {
    /// Centres `xs` with `pearson_r`'s mean, subtraction and summation
    /// order.
    fn new(mut xs: Vec<f64>) -> Self {
        let m = mean(&xs);
        let mut sum_sq = 0.0;
        for x in &mut xs {
            *x -= m;
            sum_sq += *x * *x;
        }
        Centred {
            deviations: xs,
            sum_sq,
        }
    }

    /// [`r_squared`](mobilenet_timeseries::stats::r_squared) of this
    /// sample against each of `others` (one to [`R2_LANES`] samples), bit
    /// for bit: the same deviations, each `Σdx·dy` summed in the same
    /// order, and the same degenerate cases. Fewer than [`R2_LANES`]
    /// others fill the spare lanes with the last one, whose sums are
    /// dropped.
    ///
    /// # Panics
    ///
    /// If `others` is empty or holds a sample of a different length.
    fn r_squared_each(&self, others: &[Centred]) -> Vec<f64> {
        let xs = &self.deviations[..];
        let len = xs.len();
        let lane = |k: usize| &others[k.min(others.len() - 1)].deviations[..len];
        let [a, b, c, d] = [0, 1, 2, 3].map(lane);
        let mut sxy = [0.0; R2_LANES];
        for k in 0..len {
            let x = xs[k];
            sxy[0] += x * a[k];
            sxy[1] += x * b[k];
            sxy[2] += x * c[k];
            sxy[3] += x * d[k];
        }
        others
            .iter()
            .zip(sxy)
            .map(|(other, sxy)| {
                let (sxx, syy) = (self.sum_sq, other.sum_sq);
                if len < 2 || sxx <= f64::EPSILON || syy <= f64::EPSILON {
                    return 0.0;
                }
                let r = (sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0);
                r * r
            })
            .collect()
    }
}

/// Moran's I spatial autocorrelation of a per-commune field, with
/// row-normalized k-nearest-neighbour weights.
///
/// The maps of Figure 9 show demand clustering around cities and
/// corridors; Moran's I turns that visual statement into a statistic:
/// values near +1 mean neighbouring communes carry similar per-user
/// demand, ≈ 0 means spatial randomness. Used by the ablation harness to
/// quantify how localization error smooths (and thus *raises*) spatial
/// autocorrelation.
///
/// # Panics
///
/// Panics unless `values` has one entry per commune and `k >= 1`.
pub fn morans_i(country: &mobilenet_geo::Country, values: &[f64], k: usize) -> f64 {
    let n = country.communes().len();
    assert_eq!(values.len(), n, "one value per commune");
    assert!(k >= 1, "need at least one neighbour");
    let mean = values.iter().sum::<f64>() / n as f64;
    let dev: Vec<f64> = values.iter().map(|v| v - mean).collect();
    let denom: f64 = dev.iter().map(|d| d * d).sum();
    if denom <= 0.0 {
        return 0.0;
    }

    // k nearest neighbours via an expanding radius search around each
    // centroid (the commune lattice is near-uniform, so ~√k pitches
    // usually suffice).
    let pitch = country.config().mean_commune_area().sqrt();
    let mut num = 0.0;
    let mut weight_total = 0.0;
    for (i, commune) in country.communes().iter().enumerate() {
        let mut radius = pitch * ((k as f64).sqrt() + 1.0);
        let mut neighbours: Vec<usize>;
        loop {
            neighbours = country
                .communes_within(&commune.centroid, radius)
                .into_iter()
                .map(|id| id.index())
                .filter(|&j| j != i)
                .collect();
            if neighbours.len() >= k || radius > pitch * 50.0 {
                break;
            }
            radius *= 1.6;
        }
        neighbours.sort_by(|&a, &b| {
            let da = country.communes()[a]
                .centroid
                .distance_sq(&commune.centroid);
            let db = country.communes()[b]
                .centroid
                .distance_sq(&commune.centroid);
            da.partial_cmp(&db).unwrap()
        });
        neighbours.truncate(k);
        if neighbours.is_empty() {
            continue;
        }
        let w = 1.0 / neighbours.len() as f64; // row-normalized
        for &j in &neighbours {
            num += w * dev[i] * dev[j];
            weight_total += w;
        }
    }
    if weight_total <= 0.0 {
        return 0.0;
    }
    (n as f64 / weight_total) * (num / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobilenet_timeseries::stats::r_squared;

    /// Measured study: collection artefacts included.
    fn study() -> &'static Study {
        crate::testutil::measured_study()
    }

    /// Expected study: validates that the analysis recovers the designed
    /// spatial structure absent sampling noise.
    fn expected() -> &'static Study {
        crate::testutil::expected_study()
    }

    #[test]
    fn twitter_concentration_matches_figure_8_shape() {
        let s = study();
        let twitter = s
            .catalog()
            .head()
            .iter()
            .position(|x| x.name == "Twitter")
            .unwrap();
        let report = concentration(s, twitter);
        // Paper: top 1% > 50%, top 10% > 90%. The synthetic country is far
        // smaller than France, so require clear skew rather than exact
        // figures.
        assert!(report.top1_share > 0.10, "top1 {}", report.top1_share);
        assert!(report.top10_share > 0.45, "top10 {}", report.top10_share);
        assert!(report.top10_share > report.top1_share);
        // Per-user CDF spans orders of magnitude.
        let cdf = &report.per_user_cdf;
        assert!(cdf.curve().len() > 500);
        let p10 = cdf.inverse(0.10).max(1e-9);
        let p90 = cdf.inverse(0.90);
        assert!(p90 / p10 > 3.0, "per-user spread {p10}..{p90}");
    }

    #[test]
    fn concentration_curves_are_monotone() {
        let s = study();
        let report = concentration(s, 0);
        for w in report.dl_curve.windows(2) {
            assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1 - 1e-12);
        }
        assert!((report.dl_curve.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn services_correlate_strongly_in_space() {
        let s = expected();
        let corr = spatial_correlation(s, Direction::Down);
        // Paper: mean ≈ 0.60 downlink.
        assert!(
            corr.mean_r2 > 0.35 && corr.mean_r2 < 0.85,
            "mean r² {}",
            corr.mean_r2
        );
        assert_eq!(corr.pair_values.len(), 20 * 19 / 2);
    }

    #[test]
    fn netflix_and_icloud_are_outliers() {
        let s = expected();
        let corr = spatial_correlation(s, Direction::Down);
        let order = corr.outlier_order();
        let lowest3: Vec<&str> = order[..3].iter().map(|&i| corr.names[i]).collect();
        assert!(
            lowest3.contains(&"Netflix"),
            "Netflix not among lowest correlations: {lowest3:?}"
        );
        assert!(
            lowest3.contains(&"iCloud"),
            "iCloud not among lowest correlations: {lowest3:?}"
        );
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let s = study();
        let corr = spatial_correlation(s, Direction::Up);
        let n = corr.matrix.len();
        for i in 0..n {
            assert_eq!(corr.matrix[i][i], 1.0);
            for j in 0..n {
                assert!((corr.matrix[i][j] - corr.matrix[j][i]).abs() < 1e-12);
                assert!((0.0..=1.0).contains(&corr.matrix[i][j]));
            }
        }
    }

    #[test]
    fn morans_i_detects_spatial_structure() {
        let s = expected();
        let country = s.country();
        // Per-user demand is spatially structured (cities, corridors).
        let per_user = s.dataset().per_user_commune_vector(Direction::Down, 0);
        let structured = morans_i(country, &per_user, 6);
        assert!(structured > 0.05, "Moran's I {structured}");

        // A deterministic pseudo-random field is not.
        // A fully scrambled hash (a bare multiply is a low-discrepancy
        // sequence, which is *negatively* autocorrelated on the lattice).
        let random: Vec<f64> = (0..country.communes().len())
            .map(|i| {
                let mut h = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                h ^= h >> 31;
                (h >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let unstructured = morans_i(country, &random, 6);
        assert!(
            unstructured.abs() < 0.1,
            "random field Moran's I {unstructured}"
        );
        assert!(structured > unstructured + 0.05);

        // Constant fields are defined as zero.
        let constant = vec![3.0; country.communes().len()];
        assert_eq!(morans_i(country, &constant, 6), 0.0);
    }

    #[test]
    fn dataset_level_correlation_matches_the_study_path() {
        let s = study();
        let via_study = spatial_correlation(s, Direction::Down);
        let via_dataset = spatial_correlation_of(s.dataset(), s.service_names(), Direction::Down);
        assert_eq!(via_study.pair_values, via_dataset.pair_values);
        assert_eq!(via_study.names, via_dataset.names);
        assert_eq!(via_study.mean_r2, via_dataset.mean_r2);
    }

    #[test]
    fn every_pair_value_is_bitwise_the_pairwise_r_squared() {
        for (s, dir) in [(study(), Direction::Down), (expected(), Direction::Up)] {
            let ds = s.dataset();
            let corr = spatial_correlation_of(ds, s.service_names(), dir);
            let users = ds.commune_users();
            let vectors: Vec<Vec<f64>> = (0..ds.n_services())
                .map(|svc| {
                    let volumes = ds.commune_vector(dir, svc);
                    (0..ds.n_communes())
                        .filter(|&c| users[c] > 0.0)
                        .map(|c| volumes[c] / users[c])
                        .collect()
                })
                .collect();
            let n = vectors.len();
            let pairs = (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j)));
            let mut checked = 0;
            for ((i, j), &got) in pairs.zip(&corr.pair_values) {
                let want = r_squared(&vectors[i], &vectors[j]);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "pair ({i}, {j}): {got} vs {want}"
                );
                checked += 1;
            }
            assert_eq!(checked, n * (n - 1) / 2);
        }
        // Degenerate samples keep `r_squared`'s conventions.
        let flat = Centred::new(vec![3.0; 5]);
        let ramp = Centred::new((0..5).map(f64::from).collect());
        let want = r_squared(&[3.0; 5], &[0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(flat.r_squared_each(&[ramp]), [want]);
        assert_eq!(
            Centred::new(vec![1.0]).r_squared_each(&[Centred::new(vec![2.0])]),
            [0.0]
        );
    }

    #[test]
    fn uplink_correlations_are_similar_or_lower() {
        let s = expected();
        let dl = spatial_correlation(s, Direction::Down);
        let ul = spatial_correlation(s, Direction::Up);
        // Paper: 0.60 vs 0.53 — uplink slightly lower; allow equality-ish.
        assert!(ul.mean_r2 < dl.mean_r2 + 0.1);
    }
}
