//! Ground-truth recovery: the generator encodes the paper's findings as
//! explicit parameters (peak palettes, urbanization multipliers, Zipf
//! exponents, spatial outliers); these tests verify the *analysis stack*
//! recovers them from the data — the strongest validation available for a
//! measurement-study reproduction without the proprietary dataset.

use std::sync::OnceLock;

use mobilenet::core::peaks::PeakConfig;
use mobilenet::core::ranking::zipf_ranking;
use mobilenet::core::spatial::spatial_correlation;
use mobilenet::core::study::Study;
use mobilenet::core::topical::topical_profiles;
use mobilenet::core::urbanization::urbanization_profiles;
use mobilenet::geo::UsageClass;
use mobilenet::traffic::{Direction, TopicalTime};
use mobilenet::{Pipeline, Scale};

/// Expected-value study: isolates the analysis from sampling noise.
fn expected() -> &'static Study {
    static S: OnceLock<Study> = OnceLock::new();
    S.get_or_init(|| {
        Pipeline::builder()
            .scale(Scale::Small)
            .expected()
            .seed(99)
            .run()
            .unwrap()
            .into_study()
    })
}

/// Measured study: the same checks must qualitatively survive the full
/// collection pipeline.
fn measured() -> &'static Study {
    static S: OnceLock<Study> = OnceLock::new();
    S.get_or_init(|| {
        Pipeline::builder()
            .scale(Scale::Small)
            .seed(99)
            .run()
            .unwrap()
            .into_study()
    })
}

#[test]
fn strong_ground_truth_peaks_are_detected() {
    // Every catalog peak with intensity >= 0.5 should be found by the
    // detector on the expected (noise-free) national series.
    let s = expected();
    let profiles = topical_profiles(s, Direction::Down, &PeakConfig::paper());
    let mut missed = Vec::new();
    for (spec, profile) in s.catalog().head().iter().zip(profiles.iter()) {
        for peak in &spec.peaks {
            if peak.intensity >= 0.5 && !profile.has_peak[peak.time.index()] {
                missed.push(format!("{} @ {}", spec.name, peak.time.label()));
            }
        }
    }
    let total_strong: usize = s
        .catalog()
        .head()
        .iter()
        .flat_map(|spec| spec.peaks.iter())
        .filter(|p| p.intensity >= 0.5)
        .count();
    assert!(
        missed.len() * 5 <= total_strong,
        "missed {}/{} strong ground-truth peaks: {missed:?}",
        missed.len(),
        total_strong
    );
}

#[test]
fn detected_peaks_rarely_fall_off_topical_times() {
    // §4: peaks only appear at seven specific moments. The daily ramp out
    // of the night trough contributes one structural off-topical front per
    // day for services without a morning peak; beyond that, detections off
    // the grid are detector noise, so topical fronts must dominate.
    let s = expected();
    let profiles = topical_profiles(s, Direction::Down, &PeakConfig::paper());
    for p in &profiles {
        let topical: usize = p.front_counts.iter().sum();
        assert!(
            p.off_topical_fronts <= 9 && p.off_topical_fronts < topical + 7,
            "{}: {} off-topical fronts vs {} topical",
            p.name,
            p.off_topical_fronts,
            topical
        );
    }
}

#[test]
fn zipf_exponent_is_recovered_from_the_ranking() {
    // The tail is constructed with s = 1.69 (downlink); the fit on the
    // measured ranking must land nearby.
    let s = measured();
    let fit = zipf_ranking(s).dl_fit.expect("fit");
    assert!(
        (fit.exponent - 1.69).abs() < 0.5,
        "recovered exponent {}",
        fit.exponent
    );
    assert!(fit.r2 > 0.8, "fit quality r² = {}", fit.r2);
}

#[test]
fn designed_outliers_surface_in_the_correlation_analysis() {
    let s = expected();
    let corr = spatial_correlation(s, Direction::Down);
    let order = corr.outlier_order();
    let lowest: Vec<&str> = order[..3].iter().map(|&i| corr.names[i]).collect();
    assert!(lowest.contains(&"Netflix"), "{lowest:?}");
    assert!(lowest.contains(&"iCloud"), "{lowest:?}");
    // And the typical services correlate strongly with each other.
    let youtube = corr.names.iter().position(|n| *n == "YouTube").unwrap();
    let twitter = corr.names.iter().position(|n| *n == "Twitter").unwrap();
    assert!(
        corr.matrix[youtube][twitter] > corr.mean_r2,
        "YouTube–Twitter r² {} below mean {}",
        corr.matrix[youtube][twitter],
        corr.mean_r2
    );
}

#[test]
fn urbanization_multipliers_are_recovered() {
    let s = expected();
    let urb = urbanization_profiles(s, Direction::Down);
    // Per-service rural ratios should rank in the same order as the
    // ground-truth rural multipliers.
    let mut pairs: Vec<(f64, f64)> = s
        .catalog()
        .head()
        .iter()
        .zip(urb.iter())
        .map(|(spec, p)| {
            (
                spec.spatial.class_mult[UsageClass::Rural.index()],
                p.volume_ratio[UsageClass::Rural.index()],
            )
        })
        .collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let truth: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let recovered: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let r = mobilenet::timeseries::stats::pearson_r(&truth, &recovered);
    assert!(r > 0.9, "rural multiplier recovery r = {r}");
}

#[test]
fn tgv_effect_survives_the_measurement_pipeline() {
    // The rail-aligned ULI model keeps corridor traffic on the corridor;
    // the measured TGV ratio must stay clearly above rural.
    let s = measured();
    let urb = urbanization_profiles(s, Direction::Down);
    let means = mobilenet::core::urbanization::mean_volume_ratios(&urb);
    assert!(
        means[UsageClass::Tgv.index()] > 1.6 * means[UsageClass::Rural.index()],
        "TGV {} vs rural {}",
        means[UsageClass::Tgv.index()],
        means[UsageClass::Rural.index()]
    );
}

#[test]
fn student_services_show_their_morning_break() {
    let s = expected();
    let profiles = topical_profiles(s, Direction::Down, &PeakConfig::paper());
    let with_break: Vec<&str> = profiles
        .iter()
        .filter(|p| p.has_peak[TopicalTime::MorningBreak.index()])
        .map(|p| p.name)
        .collect();
    for name in ["SnapChat", "Instagram", "Facebook", "Twitter"] {
        assert!(
            with_break.contains(&name),
            "{name} should peak at the morning break; found {with_break:?}"
        );
    }
}
