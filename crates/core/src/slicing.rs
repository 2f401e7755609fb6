//! Network-slice dimensioning — the orchestration application the paper's
//! introduction motivates.
//!
//! "An effective orchestration of network slices builds on the spatial
//! [and temporal] complementarity of the demands for the different
//! services" (§1, citing the 5G-NORMA slicing architecture). This module
//! quantifies that complementarity: if every service category were a
//! statically-dimensioned slice, total provisioned capacity would be the
//! *sum of per-slice peaks*; a shared pool only needs the *peak of the
//! sum*. The ratio between the two — the **pooling gain** — is a direct
//! consequence of the temporal heterogeneity established in §4: services
//! peaking at different topical times share capacity efficiently.

use std::collections::BTreeMap;

use mobilenet_traffic::{Direction, HOURS_PER_WEEK};

use crate::study::Study;

/// Dimensioning of one slice.
#[derive(Debug, Clone)]
pub struct SliceReport {
    /// Slice label (service or category name).
    pub name: String,
    /// Peak hourly demand over the week, MB/h.
    pub peak: f64,
    /// Mean hourly demand, MB/h.
    pub mean: f64,
    /// Hour-of-week of the peak.
    pub peak_hour: usize,
}

impl SliceReport {
    /// Peak-to-mean ratio — the over-provisioning a static slice needs.
    pub fn peak_to_mean(&self) -> f64 {
        if self.mean <= 0.0 {
            return 0.0;
        }
        self.peak / self.mean
    }
}

/// The full dimensioning analysis.
#[derive(Debug, Clone)]
pub struct SlicingReport {
    /// Per-slice dimensioning, sorted by decreasing peak.
    pub slices: Vec<SliceReport>,
    /// Σ of per-slice peaks: the static-slicing capacity requirement.
    pub sum_of_peaks: f64,
    /// Peak of the summed demand: the shared-pool requirement.
    pub shared_peak: f64,
}

impl SlicingReport {
    /// `sum_of_peaks / shared_peak − 1`: how much extra capacity static
    /// per-slice dimensioning needs over a shared pool. Zero means every
    /// slice peaks simultaneously; larger values mean more temporal
    /// complementarity to exploit.
    pub fn pooling_gain(&self) -> f64 {
        if self.shared_peak <= 0.0 {
            return 0.0;
        }
        self.sum_of_peaks / self.shared_peak - 1.0
    }
}

fn analyze(groups: Vec<(String, Vec<f64>)>) -> SlicingReport {
    let mut total = vec![0.0; HOURS_PER_WEEK];
    let mut slices: Vec<SliceReport> = groups
        .into_iter()
        .map(|(name, series)| {
            assert_eq!(
                series.len(),
                HOURS_PER_WEEK,
                "{name}: need one week of hours"
            );
            for (acc, v) in total.iter_mut().zip(series.iter()) {
                *acc += v;
            }
            let (peak_hour, peak) = series
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(h, &v)| (h, v))
                .unwrap_or((0, 0.0));
            let mean = series.iter().sum::<f64>() / series.len() as f64;
            SliceReport {
                name,
                peak,
                mean,
                peak_hour,
            }
        })
        .collect();
    slices.sort_by(|a, b| b.peak.partial_cmp(&a.peak).unwrap());
    let sum_of_peaks = slices.iter().map(|s| s.peak).sum();
    let shared_peak = total.iter().cloned().fold(0.0f64, f64::max);
    SlicingReport {
        slices,
        sum_of_peaks,
        shared_peak,
    }
}

/// One slice per service **category** (the granularity 5G slicing
/// proposals typically assume).
pub fn per_category_slicing(study: &Study, dir: Direction) -> SlicingReport {
    let mut by_category: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, spec) in study.catalog().head().iter().enumerate() {
        let entry = by_category
            .entry(spec.category.label())
            .or_insert_with(|| vec![0.0; HOURS_PER_WEEK]);
        for (acc, v) in entry
            .iter_mut()
            .zip(study.dataset().national_series(dir, s).iter())
        {
            *acc += v;
        }
    }
    analyze(
        by_category
            .into_iter()
            .map(|(name, series)| (name.to_string(), series))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> &'static Study {
        crate::testutil::expected_study()
    }

    #[test]
    fn slices_are_sorted_and_consistent() {
        let report = per_category_slicing(study(), Direction::Down);
        assert!(report.slices.len() > 1);
        for w in report.slices.windows(2) {
            assert!(w[0].peak >= w[1].peak);
        }
        for s in &report.slices {
            assert!(s.peak >= s.mean, "{}: peak below mean", s.name);
            assert!(s.peak_to_mean() >= 1.0);
            assert!(s.peak_hour < HOURS_PER_WEEK);
        }
    }

    #[test]
    fn shared_peak_never_exceeds_sum_of_peaks() {
        for dir in Direction::BOTH {
            let r = per_category_slicing(study(), dir);
            assert!(r.shared_peak <= r.sum_of_peaks + 1e-9);
            assert!(r.pooling_gain() >= 0.0);
        }
    }
}
