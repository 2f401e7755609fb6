//! Figure serialization: CSV and plain-text renderings of every analysis.
//!
//! The benchmark harness (`mobilenet-bench`'s `figures` binary) calls
//! these builders and writes their output under `out/`, one file per
//! table/figure of the paper. Builders return `String`s so tests can
//! inspect them without touching the filesystem.

use std::fmt::Write as _;

use mobilenet_traffic::{Direction, TopicalTime};

use crate::ranking::{ServiceRanking, ZipfRanking};
use crate::spatial::{ConcentrationReport, SpatialCorrelation};
use crate::temporal::ClusteringSweep;
use crate::topical::ServiceTopicalProfile;
use crate::urbanization::UrbanizationProfile;

/// Escapes a CSV field (quotes fields containing separators).
fn field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Figure 2 CSV: `rank,dl_share,ul_share` plus a fit summary header.
pub fn zipf_csv(z: &ZipfRanking) -> String {
    let mut out = String::new();
    if let (Some(dl), Some(ul)) = (&z.dl_fit, &z.ul_fit) {
        let _ = writeln!(
            out,
            "# zipf_fit dl_exponent={:.4} dl_r2={:.4} ul_exponent={:.4} ul_r2={:.4} span_orders={:.2}",
            dl.exponent, dl.r2, ul.exponent, ul.r2, z.dl_span_orders
        );
    }
    let _ = writeln!(out, "rank,dl_share,ul_share");
    for (i, (dl, ul)) in z
        .dl_normalized
        .iter()
        .zip(z.ul_normalized.iter())
        .enumerate()
    {
        let _ = writeln!(out, "{},{:.6e},{:.6e}", i + 1, dl, ul);
    }
    out
}

/// Figure 3 CSV: `rank,service,category,share_of_total`.
pub fn ranking_csv(r: &ServiceRanking) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# direction={} head_share={:.4} unclassified_share={:.4}",
        r.direction.label(),
        r.head_share,
        r.unclassified_share
    );
    for (label, share) in &r.category_shares {
        let _ = writeln!(out, "# category {} {:.4}", field(label), share);
    }
    let _ = writeln!(out, "rank,service,category,share_of_total");
    for (i, s) in r.services.iter().enumerate() {
        let _ = writeln!(
            out,
            "{},{},{},{:.6}",
            i + 1,
            field(s.name),
            field(s.category.label()),
            s.share_of_total
        );
    }
    out
}

/// Figure 4 CSV for one service: hourly series with detector diagnostics.
pub fn peaks_csv(
    name: &str,
    series: &[f64],
    detection: &crate::peaks::PeakDetection,
    threshold: f64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# service={}", field(name));
    let _ = writeln!(out, "hour,traffic,smoothed,upper_band,signal");
    for (h, &v) in series.iter().enumerate() {
        let _ = writeln!(
            out,
            "{},{:.6},{:.6},{:.6},{}",
            h,
            v,
            detection.smoothed_mean[h],
            detection.smoothed_mean[h] + threshold * detection.smoothed_std[h],
            detection.signals[h]
        );
    }
    out
}

/// Figure 5 CSV: `k,db,db_star,dunn,silhouette` per direction.
pub fn sweep_csv(sweep: &ClusteringSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# direction={} algorithm={:?}",
        sweep.direction.label(),
        sweep.algorithm
    );
    let _ = writeln!(out, "k,davies_bouldin,davies_bouldin_star,dunn,silhouette");
    for p in &sweep.points {
        let _ = writeln!(
            out,
            "{},{:.6},{:.6},{:.6},{:.6}",
            p.k,
            p.scores.davies_bouldin,
            p.scores.davies_bouldin_star,
            p.scores.dunn,
            p.scores.silhouette
        );
    }
    out
}

/// Figure 6 CSV: the peak matrix (service × topical time, 0/1).
pub fn topical_matrix_csv(profiles: &[ServiceTopicalProfile]) -> String {
    let mut out = String::from("service");
    for t in TopicalTime::ALL {
        let _ = write!(out, ",{}", field(t.label()));
    }
    out.push('\n');
    for p in profiles {
        let _ = write!(out, "{}", field(p.name));
        for t in TopicalTime::ALL {
            let _ = write!(out, ",{}", if p.has_peak[t.index()] { 1 } else { 0 });
        }
        out.push('\n');
    }
    out
}

/// Figure 7 CSV: peak intensities (%) per service per topical time
/// (empty when no peak was detected).
pub fn intensity_csv(profiles: &[ServiceTopicalProfile]) -> String {
    let mut out = String::from("service");
    for t in TopicalTime::ALL {
        let _ = write!(out, ",{}", field(t.label()));
    }
    out.push('\n');
    for p in profiles {
        let _ = write!(out, "{}", field(p.name));
        for t in TopicalTime::ALL {
            match p.intensity[t.index()] {
                Some(v) => {
                    let _ = write!(out, ",{:.1}", v * 100.0);
                }
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// Figure 8 CSV: concentration curve plus per-user CDF.
pub fn concentration_csv(report: &ConcentrationReport) -> String {
    concentration_csv_sampled(report, usize::MAX, 0)
}

/// [`concentration_csv`] with each scatter section deterministically
/// downsampled to at most `max_points` rows — the national-scale export
/// path, where the three commune-length sections would otherwise emit
/// >100,000 rows per figure.
///
/// Sampling is seeded reservoir selection (Algorithm R over a splitmix64
/// stream) that always retains each curve's first and last point, with
/// selected indices re-sorted into curve order. The sample depends only
/// on `(section length, max_points, seed)` — never on thread count or
/// chunk size — so a sampled export is bit-identical across any run of
/// the same study.
pub fn concentration_csv_sampled(
    report: &ConcentrationReport,
    max_points: usize,
    seed: u64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# service={} top1_share={:.4} top10_share={:.4}",
        field(report.name),
        report.top1_share,
        report.top10_share
    );
    let cdf = report.per_user_cdf.curve();
    let sampled = [&report.dl_curve[..], &report.ul_curve[..], &cdf[..]]
        .iter()
        .any(|s| s.len() > max_points);
    if sampled {
        let _ = writeln!(
            out,
            "# sampled max_points_per_section={max_points} seed={seed}"
        );
    }
    let _ = writeln!(out, "section,x,y");
    let mut section = |name: &str, points: &[(f64, f64)], tag: u64, precision: usize| {
        for i in reservoir_indices(points.len(), max_points, seed ^ tag) {
            let (x, y) = points[i];
            let _ = writeln!(out, "{name},{x:.precision$},{y:.6}");
        }
    };
    section("dl_concentration", &report.dl_curve, 0x646c, 6);
    section("ul_concentration", &report.ul_curve, 0x756c, 6);
    section("per_user_cdf_mb", &cdf, 0x636466, 9);
    out
}

/// Deterministically selects at most `k` of `n` indices, sorted
/// ascending, always retaining 0 and `n - 1`. Classic reservoir
/// (Algorithm R) over a splitmix64 stream seeded by `seed`: the output is
/// a pure function of `(n, k, seed)`.
fn reservoir_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    if k <= 2 {
        return match (k, n) {
            (0, _) => Vec::new(),
            (1, _) => vec![0],
            (_, 1) => vec![0],
            _ => vec![0, n - 1],
        };
    }
    let mut state = seed ^ 0x5245_5345_5256_4f49; // "RESERVOI"
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    // Reservoir over the interior 1..n-1; endpoints ride along for free.
    let interior_k = k - 2;
    let mut chosen: Vec<usize> = (1..=interior_k).collect();
    for i in interior_k..(n - 2) {
        let j = (next() % (i as u64 + 1)) as usize;
        if j < interior_k {
            chosen[j] = i + 1;
        }
    }
    chosen.push(0);
    chosen.push(n - 1);
    chosen.sort_unstable();
    chosen
}

/// Figure 10 CSV: the pairwise r² matrix plus the CDF of pair values.
pub fn correlation_csv(corr: &SpatialCorrelation) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# direction={} mean_r2={:.4}",
        corr.direction.label(),
        corr.mean_r2
    );
    let _ = write!(out, "service");
    for name in &corr.names {
        let _ = write!(out, ",{}", field(name));
    }
    out.push('\n');
    for (i, row) in corr.matrix.iter().enumerate() {
        let _ = write!(out, "{}", field(corr.names[i]));
        for v in row {
            let _ = write!(out, ",{:.4}", v);
        }
        out.push('\n');
    }
    out
}

/// Figure 11 CSV: volume ratios and temporal r² per service per class.
pub fn urbanization_csv(profiles: &[UrbanizationProfile]) -> String {
    let mut out = String::from(
        "service,ratio_urban,ratio_semi_urban,ratio_rural,ratio_tgv,\
         r2_urban,r2_semi_urban,r2_rural,r2_tgv\n",
    );
    for p in profiles {
        let _ = writeln!(
            out,
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            field(p.name),
            p.volume_ratio[0],
            p.volume_ratio[1],
            p.volume_ratio[2],
            p.volume_ratio[3],
            p.temporal_r2[0],
            p.temporal_r2[1],
            p.temporal_r2[2],
            p.temporal_r2[3]
        );
    }
    out
}

/// Extension: forecast report CSV (`service,naive_mape,naive_smape,hw_mape,hw_smape`).
pub fn forecast_csv(report: &[crate::forecast::ServiceForecast]) -> String {
    let mut out =
        String::from("service,naive_mape,naive_smape,holt_winters_mape,holt_winters_smape\n");
    for f in report {
        let _ = writeln!(
            out,
            "{},{:.4},{:.4},{:.4},{:.4}",
            field(f.name),
            f.naive.mape,
            f.naive.smape,
            f.holt_winters.mape,
            f.holt_winters.smape
        );
    }
    out
}

/// A one-page plain-text overview of a study (the §3 headline numbers).
pub fn overview_text(study: &crate::study::Study) -> String {
    let mut out = String::new();
    let ds = study.dataset();
    let _ = writeln!(out, "communes: {}", ds.n_communes());
    let _ = writeln!(
        out,
        "services: {} head + {} tail",
        ds.n_services(),
        ds.n_tail()
    );
    let _ = writeln!(
        out,
        "population: {} (subscribers per commune avg {:.0})",
        study.country().total_population(),
        ds.commune_users().iter().sum::<f64>() / ds.n_communes() as f64
    );
    for dir in Direction::BOTH {
        let _ = writeln!(
            out,
            "{}: total {:.1} MB, classified {:.1} MB, unclassified {:.1} MB",
            dir.label(),
            ds.total(dir),
            ds.total_classified(dir),
            ds.unclassified(dir)
        );
    }
    let _ = writeln!(
        out,
        "uplink fraction of load: {:.4}",
        crate::ranking::uplink_fraction(study)
    );
    if let Some(stats) = study.collection_stats() {
        let _ = writeln!(out, "sessions: {}", stats.sessions);
        let _ = writeln!(
            out,
            "classification rate: {:.4}",
            stats.classification_rate()
        );
        let _ = writeln!(
            out,
            "median localization error: {:.2} km",
            stats.median_error_km()
        );
        let _ = writeln!(
            out,
            "commune misassignment: {:.4}",
            stats.misassignment_rate()
        );
        if stats.faults.any() {
            let f = &stats.faults;
            let _ = writeln!(
                out,
                "degraded capture: {} lost ({} outage, {} random), {} duplicated, \
                 {} truncated, {} skewed",
                f.lost_total(),
                f.lost_outage,
                f.lost_records,
                f.duplicated_records,
                f.truncated_records,
                f.skewed_records
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peaks::{detect_peaks, PeakConfig};
    use crate::ranking::{service_ranking, zipf_ranking};
    use crate::spatial::{concentration, spatial_correlation};
    use crate::study::Study;
    use crate::temporal::{clustering_sweep, Algorithm};
    use crate::topical::topical_profiles;
    use crate::urbanization::urbanization_profiles;

    fn study() -> &'static Study {
        crate::testutil::measured_study()
    }

    #[test]
    fn zipf_csv_has_header_and_rows() {
        let s = study();
        let csv = zipf_csv(&zipf_ranking(s));
        assert!(csv.starts_with("# zipf_fit"));
        assert!(csv.contains("rank,dl_share,ul_share"));
        assert_eq!(csv.lines().count(), 2 + 20 + s.catalog().tail_len());
    }

    #[test]
    fn ranking_csv_contains_all_services() {
        let s = study();
        let csv = ranking_csv(&service_ranking(s, Direction::Down));
        for spec in s.catalog().head() {
            assert!(csv.contains(spec.name), "{} missing", spec.name);
        }
    }

    #[test]
    fn peaks_csv_is_hourly() {
        let s = study();
        let series = s.dataset().national_series(Direction::Down, 0).to_vec();
        let det = detect_peaks(&series, &PeakConfig::paper());
        let csv = peaks_csv("YouTube", &series, &det, 3.0);
        assert_eq!(csv.lines().count(), 2 + 168);
    }

    #[test]
    fn sweep_csv_lists_all_k() {
        let s = study();
        let sweep = clustering_sweep(s, Direction::Down, Algorithm::KShape, 1);
        let csv = sweep_csv(&sweep);
        assert_eq!(csv.lines().count(), 2 + 18);
        assert!(csv.contains("davies_bouldin_star"));
    }

    #[test]
    fn topical_csvs_are_matrix_shaped() {
        let s = study();
        let profiles = topical_profiles(s, Direction::Down, &PeakConfig::paper());
        let m = topical_matrix_csv(&profiles);
        assert_eq!(m.lines().count(), 21);
        let i = intensity_csv(&profiles);
        assert_eq!(i.lines().count(), 21);
        // Every data row has 7 commas (8 columns).
        for line in m.lines().skip(1) {
            assert_eq!(line.matches(',').count(), 7, "{line}");
        }
    }

    #[test]
    fn concentration_csv_sections_exist() {
        let s = study();
        let csv = concentration_csv(&concentration(s, 7));
        assert!(csv.contains("dl_concentration"));
        assert!(csv.contains("ul_concentration"));
        assert!(csv.contains("per_user_cdf_mb"));
    }

    #[test]
    fn sampled_concentration_csv_caps_sections_and_is_reproducible() {
        let s = study();
        let report = concentration(s, 7);
        let n = report.dl_curve.len();
        assert!(n > 64, "study too small to exercise sampling");
        let a = concentration_csv_sampled(&report, 64, 42);
        let b = concentration_csv_sampled(&report, 64, 42);
        assert_eq!(a, b, "sampling must be deterministic in the seed");
        let dl_rows = a
            .lines()
            .filter(|l| l.starts_with("dl_concentration"))
            .count();
        assert_eq!(dl_rows, 64);
        assert!(a.contains("# sampled max_points_per_section=64"));
        // Endpoints survive: the sampled dl section starts and ends on the
        // full export's first and last dl rows.
        let full = concentration_csv(&report);
        let dl_full: Vec<&str> = full
            .lines()
            .filter(|l| l.starts_with("dl_concentration"))
            .collect();
        let dl_sampled: Vec<&str> = a
            .lines()
            .filter(|l| l.starts_with("dl_concentration"))
            .collect();
        assert_eq!(dl_sampled.first(), dl_full.first());
        assert_eq!(dl_sampled.last(), dl_full.last());
        // A different seed selects a different interior.
        let c = concentration_csv_sampled(&report, 64, 43);
        assert_ne!(a, c);
        // An uncapped call is exactly the historical export.
        assert_eq!(concentration_csv_sampled(&report, usize::MAX, 42), full);
    }

    #[test]
    fn reservoir_indices_edge_cases_hold() {
        assert_eq!(reservoir_indices(5, 10, 1), vec![0, 1, 2, 3, 4]);
        assert_eq!(reservoir_indices(5, 5, 1), vec![0, 1, 2, 3, 4]);
        assert_eq!(reservoir_indices(0, 3, 1), Vec::<usize>::new());
        assert_eq!(reservoir_indices(10, 0, 1), Vec::<usize>::new());
        assert_eq!(reservoir_indices(10, 1, 1), vec![0]);
        assert_eq!(reservoir_indices(10, 2, 1), vec![0, 9]);
        for seed in 0..16 {
            let idx = reservoir_indices(1000, 10, seed);
            assert_eq!(idx.len(), 10);
            assert_eq!(idx[0], 0);
            assert_eq!(idx[9], 999);
            assert!(
                idx.windows(2).all(|w| w[0] < w[1]),
                "sorted, unique: {idx:?}"
            );
        }
    }

    #[test]
    fn correlation_csv_is_square() {
        let s = study();
        let csv = correlation_csv(&spatial_correlation(s, Direction::Down));
        assert_eq!(csv.lines().count(), 2 + 20);
    }

    #[test]
    fn urbanization_csv_has_eight_numeric_columns() {
        let s = study();
        let csv = urbanization_csv(&urbanization_profiles(s, Direction::Down));
        for line in csv.lines().skip(1) {
            assert_eq!(line.matches(',').count(), 8, "{line}");
        }
    }

    #[test]
    fn overview_mentions_key_statistics() {
        let s = study();
        let text = overview_text(s);
        assert!(text.contains("communes: 1000"));
        assert!(text.contains("classification rate"));
        assert!(text.contains("uplink fraction"));
        assert!(
            !text.contains("degraded capture"),
            "fault-free study must not report degradation"
        );
    }

    #[test]
    fn overview_reports_degraded_capture() {
        use crate::study::StudyConfig;
        use mobilenet_netsim::FaultPlan;
        let s = Study::generate_inner(&StudyConfig::small().with_faults(FaultPlan::degraded(7)), 7);
        let text = overview_text(&s);
        assert!(text.contains("degraded capture:"), "{text}");
        assert!(text.contains("duplicated"));
    }

    #[test]
    fn csv_escaping_quotes_fields() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
