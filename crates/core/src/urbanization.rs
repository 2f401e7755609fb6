//! Urbanization-level analysis (§5, Figure 11).
//!
//! Two questions: does the urbanization level change **how much** the
//! average subscriber consumes, and **when**?
//!
//! * Figure 11 top: for each service, the least-squares slope of the
//!   semi-urban / rural / TGV per-subscriber hourly series regressed on
//!   the urban one — semi-urban ≈ 1, rural ≈ 0.5, TGV ≥ 2.
//! * Figure 11 bottom: the mean r² between a service's per-subscriber
//!   series in one class and the other classes — high everywhere except
//!   TGV, whose train-schedule dynamics stand apart.

use mobilenet_geo::UsageClass;
use mobilenet_timeseries::stats::{r_squared, slope_through_origin};
use mobilenet_traffic::Direction;

use crate::study::Study;

/// Figure 11 rows for one service.
#[derive(Debug, Clone)]
pub struct UrbanizationProfile {
    /// Catalog index.
    pub service: usize,
    /// Display name.
    pub name: &'static str,
    /// Per-subscriber volume ratio vs urban, indexed by
    /// [`UsageClass::index`] (the urban slot is 1.0 by definition).
    pub volume_ratio: [f64; 4],
    /// Mean r² of this service's per-subscriber series in each class
    /// against the other classes.
    pub temporal_r2: [f64; 4],
}

/// Computes Figure 11 for every head service.
pub fn urbanization_profiles(study: &Study, dir: Direction) -> Vec<UrbanizationProfile> {
    let ds = study.dataset();
    study
        .catalog()
        .head()
        .iter()
        .enumerate()
        .map(|(s, spec)| {
            let series: Vec<Vec<f64>> = UsageClass::ALL
                .iter()
                .map(|&class| ds.per_user_class_series(dir, s, class))
                .collect();
            let urban = &series[UsageClass::Urban.index()];

            let mut volume_ratio = [0.0; 4];
            for class in UsageClass::ALL {
                let i = class.index();
                volume_ratio[i] = if class == UsageClass::Urban {
                    1.0
                } else {
                    slope_through_origin(urban, &series[i])
                };
            }

            let mut temporal_r2 = [0.0; 4];
            for class in UsageClass::ALL {
                let i = class.index();
                let others: Vec<f64> = UsageClass::ALL
                    .iter()
                    .filter(|&&other| other != class)
                    .map(|&other| r_squared(&series[i], &series[other.index()]))
                    .collect();
                temporal_r2[i] = others.iter().sum::<f64>() / others.len() as f64;
            }

            UrbanizationProfile {
                service: s,
                name: spec.name,
                volume_ratio,
                temporal_r2,
            }
        })
        .collect()
}

/// Mean volume ratios over services (the headline numbers of §5).
pub fn mean_volume_ratios(profiles: &[UrbanizationProfile]) -> [f64; 4] {
    let mut sums = [0.0; 4];
    for p in profiles {
        for (s, v) in sums.iter_mut().zip(p.volume_ratio.iter()) {
            *s += v;
        }
    }
    for s in sums.iter_mut() {
        *s /= profiles.len().max(1) as f64;
    }
    sums
}

/// Mean temporal r² per class over services.
pub fn mean_temporal_r2(profiles: &[UrbanizationProfile]) -> [f64; 4] {
    let mut sums = [0.0; 4];
    for p in profiles {
        for (s, v) in sums.iter_mut().zip(p.temporal_r2.iter()) {
            *s += v;
        }
    }
    for s in sums.iter_mut() {
        *s /= profiles.len().max(1) as f64;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profiles on the noise-free expected dataset: these tests validate
    /// that the analysis recovers the designed urbanization structure.
    fn profiles() -> Vec<UrbanizationProfile> {
        urbanization_profiles(crate::testutil::expected_study(), Direction::Down)
    }

    #[test]
    fn semi_urban_matches_urban_consumption() {
        let means = mean_volume_ratios(&profiles());
        let semi = means[UsageClass::SemiUrban.index()];
        // Paper: "semi-urban and urban areas present similar levels".
        assert!((semi - 1.0).abs() < 0.25, "semi-urban ratio {semi}");
    }

    #[test]
    fn rural_consumes_about_half() {
        let means = mean_volume_ratios(&profiles());
        let rural = means[UsageClass::Rural.index()];
        // Paper: "around a half".
        assert!(rural > 0.25 && rural < 0.75, "rural ratio {rural}");
    }

    #[test]
    fn tgv_consumes_twice_or_more() {
        let means = mean_volume_ratios(&profiles());
        let tgv = means[UsageClass::Tgv.index()];
        // Paper: "twice or more the volume of urban users".
        assert!(tgv > 1.5, "tgv ratio {tgv}");
    }

    #[test]
    fn netflix_rural_ratio_collapses() {
        let ps = profiles();
        let netflix = ps.iter().find(|p| p.name == "Netflix").unwrap();
        assert!(
            netflix.volume_ratio[UsageClass::Rural.index()] < 0.2,
            "Netflix rural ratio {}",
            netflix.volume_ratio[UsageClass::Rural.index()]
        );
        // iCloud is the uniform outlier.
        let icloud = ps.iter().find(|p| p.name == "iCloud").unwrap();
        assert!(
            icloud.volume_ratio[UsageClass::Rural.index()] > 0.6,
            "iCloud rural ratio {}",
            icloud.volume_ratio[UsageClass::Rural.index()]
        );
    }

    #[test]
    fn urbanization_does_not_change_timing_except_tgv() {
        let means = mean_temporal_r2(&profiles());
        let urban = means[UsageClass::Urban.index()];
        let semi = means[UsageClass::SemiUrban.index()];
        let rural = means[UsageClass::Rural.index()];
        let tgv = means[UsageClass::Tgv.index()];
        // Paper: high correlations among urban/semi-urban/rural…
        assert!(semi > 0.5, "semi-urban temporal r² {semi}");
        assert!(urban > 0.5, "urban temporal r² {urban}");
        assert!(rural > 0.45, "rural temporal r² {rural}");
        // …while TGV stands clearly apart.
        assert!(tgv < rural - 0.1, "tgv {tgv} vs rural {rural}");
    }

    #[test]
    fn urban_slot_is_identity() {
        for p in profiles() {
            assert_eq!(p.volume_ratio[UsageClass::Urban.index()], 1.0);
        }
    }

    #[test]
    fn ratios_are_consistent_across_most_services() {
        // Paper: "all these results are fairly consistent across services".
        let ps = profiles();
        let rural_ratios: Vec<f64> = ps
            .iter()
            .filter(|p| p.name != "Netflix" && p.name != "iCloud")
            .map(|p| p.volume_ratio[UsageClass::Rural.index()])
            .collect();
        let mean: f64 = rural_ratios.iter().sum::<f64>() / rural_ratios.len() as f64;
        for (p, r) in ps
            .iter()
            .filter(|p| p.name != "Netflix" && p.name != "iCloud")
            .zip(rural_ratios.iter())
        {
            assert!(
                (r - mean).abs() < 0.35,
                "{}: rural ratio {r} far from mean {mean}",
                p.name
            );
        }
    }
}
