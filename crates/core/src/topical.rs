//! Topical-time profiling of services (§4, Figures 6–7).
//!
//! Applying the smoothed z-score detector to every service, the paper
//! finds that peaks only occur at **seven specific moments** of the week.
//! This module maps each detected peak's rising front to its topical time
//! (Figure 6's rings) and measures, per topical time, the peak intensity —
//! "the ratio between the maximum and minimum traffic volumes recorded
//! during the peak intervals" (Figure 7).

use mobilenet_traffic::{Direction, TopicalTime, HOURS_PER_WEEK};

use crate::peaks::{detect_peaks, PeakConfig, PeakInterval};
use crate::study::Study;

/// Serial-fallback threshold for the peaks stage: spawn a worker only for
/// every 32 services, so catalog-sized inputs (≈20) run inline instead of
/// paying thread spawn cost that dwarfs the per-service work.
const PEAKS_MIN_ITEMS_PER_WORKER: usize = 32;

/// Tolerance (hours) when snapping a rising front to a topical hour.
/// Peaks ramp up over adjacent hours, so a front can lead the topical
/// moment slightly.
const SNAP_SLACK: usize = 2;

/// Snap tolerance per topical time. The morning commute gets a tighter
/// window: every service's series leaves the night trough around 6 am, so
/// only fronts truly at 7–9 am qualify as commute peaks (calibrated on the
/// generator's ground truth).
fn slack_for(t: TopicalTime) -> usize {
    match t {
        TopicalTime::MorningCommute => 1,
        _ => SNAP_SLACK,
    }
}

/// Minimum number of distinct peak fronts a topical time must collect in
/// the week before it counts as one of the service's peak times. Topical
/// times recur (five weekdays, two weekend days), so a genuine peak leaves
/// multiple fronts; a single front is indistinguishable from sampling
/// noise.
const MIN_RECURRENCE: usize = 2;

/// One service's topical profile.
#[derive(Debug, Clone)]
pub struct ServiceTopicalProfile {
    /// Catalog index of the service.
    pub service: usize,
    /// Service display name.
    pub name: &'static str,
    /// Whether a *recurrent* peak (≥ 2 fronts in the week) was detected at
    /// each topical time, by [`TopicalTime::index`].
    pub has_peak: [bool; 7],
    /// Number of peak fronts snapped to each topical time.
    pub front_counts: [usize; 7],
    /// Peak intensity at each topical time (`max/min − 1` over the
    /// associated peak intervals), `None` where no peak was detected.
    pub intensity: [Option<f64>; 7],
    /// Rising fronts that did not snap to any topical time (the paper
    /// finds none; we count them as a fidelity check).
    pub off_topical_fronts: usize,
}

impl ServiceTopicalProfile {
    /// Topical times at which this service peaks, in ring order.
    pub fn peak_times(&self) -> Vec<TopicalTime> {
        TopicalTime::ALL
            .into_iter()
            .filter(|t| self.has_peak[t.index()])
            .collect()
    }
}

/// Computes the topical profile of one service's national series.
pub(crate) fn profile_service(
    series: &[f64],
    service: usize,
    name: &'static str,
    config: &PeakConfig,
) -> ServiceTopicalProfile {
    assert_eq!(
        series.len(),
        HOURS_PER_WEEK,
        "need one week of hourly samples"
    );
    let detection = detect_peaks(series, config);

    let mut front_counts = [0usize; 7];
    let mut best: [Option<f64>; 7] = [None; 7];
    let mut off_topical = 0usize;

    for peak in &detection.peaks {
        let t = classify_front(series, peak);
        match t {
            None => off_topical += 1,
            Some(t) => {
                let idx = t.index();
                front_counts[idx] += 1;
                let intensity = interval_intensity(series, peak);
                best[idx] = Some(match best[idx] {
                    None => intensity,
                    Some(prev) => prev.max(intensity),
                });
            }
        }
    }

    let mut has_peak = [false; 7];
    let mut intensity: [Option<f64>; 7] = [None; 7];
    for i in 0..7 {
        if front_counts[i] >= MIN_RECURRENCE {
            has_peak[i] = true;
            intensity[i] = best[i];
        }
    }

    ServiceTopicalProfile {
        service,
        name,
        has_peak,
        front_counts,
        intensity,
        off_topical_fronts: off_topical,
    }
}

/// Snaps a peak's **rising front** to a topical time — the paper's
/// semantics (the red vertical lines of Figure 4 mark fronts).
///
/// The front hour is taken as the *steepest rise* inside the flagged
/// interval (the detector can pre-trigger an hour early when the trailing
/// window is still distorted by the preceding night; the steepest rise is
/// where the surge actually is). When two topical times are equidistant
/// the one ahead wins: fronts precede apexes, so a front at 9 am belongs
/// to the 10 am morning break, not to the 8 am commute already past.
fn classify_front(series: &[f64], peak: &PeakInterval) -> Option<TopicalTime> {
    let lo = peak.start.max(1);
    let hi = peak.end.min(HOURS_PER_WEEK);
    let front = (lo..hi)
        .max_by(|&a, &b| {
            let da = series[a] - series[a - 1];
            let db = series[b] - series[b - 1];
            da.partial_cmp(&db).unwrap()
        })
        .unwrap_or(peak.start)
        .min(HOURS_PER_WEEK - 1);
    let (day, hod) = mobilenet_traffic::week::split_hour(front);
    let mut ahead: Option<(usize, TopicalTime)> = None;
    let mut behind: Option<(usize, TopicalTime)> = None;
    for t in TopicalTime::ALL {
        if t.is_weekend() != day.is_weekend() {
            continue;
        }
        let topical = t.hour_of_day();
        if topical >= hod {
            let d = topical - hod;
            if d <= slack_for(t) && ahead.is_none_or(|(bd, _)| d < bd) {
                ahead = Some((d, t));
            }
        } else {
            let d = hod - topical;
            if d <= slack_for(t) && behind.is_none_or(|(bd, _)| d < bd) {
                behind = Some((d, t));
            }
        }
    }
    ahead.or(behind).map(|(_, t)| t)
}

/// `max/min − 1` over a peak interval, padded by one hour on each side so
/// the pre-peak baseline participates (the paper's peak-to-minimum ratio
/// during the peak window).
fn interval_intensity(series: &[f64], peak: &PeakInterval) -> f64 {
    let lo = peak.start.saturating_sub(1);
    let hi = (peak.end + 1).min(series.len());
    let window = &series[lo..hi];
    let max = window.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = window.iter().cloned().fold(f64::INFINITY, f64::min);
    if min <= 0.0 {
        return 0.0;
    }
    max / min - 1.0
}

/// Figure 6 + 7 for a whole study: one topical profile per head service,
/// for the given direction.
pub fn topical_profiles(
    study: &Study,
    dir: Direction,
    config: &PeakConfig,
) -> Vec<ServiceTopicalProfile> {
    topical_profiles_of(study.dataset(), study.service_names(), dir, config)
}

/// [`topical_profiles`] over a bare dataset — for consumers holding a
/// [`TrafficDataset`](mobilenet_traffic::TrafficDataset) without a
/// [`Study`] (live snapshots, replayed traces). `names` are the
/// head-service names in dataset order; answers are bit-identical to the
/// study-based path on the same dataset.
pub fn topical_profiles_of(
    ds: &mobilenet_traffic::TrafficDataset,
    names: Vec<&'static str>,
    dir: Direction,
    config: &PeakConfig,
) -> Vec<ServiceTopicalProfile> {
    // Profiling is a pure function of each service's own series, so the
    // ~catalog-sized loop parallelizes service-by-service — but each item
    // is only a few window scans over one week of hours, so a worker must
    // have a meaningful batch to be worth spawning (the catalog's ~20
    // services were measured running 4× *slower* split across threads
    // than inline; `BENCH_baseline.json` peaks speedup 0.24×).
    let _span = mobilenet_obs::span("topical_peaks");
    mobilenet_obs::add("core.topical_services", names.len() as u64);
    mobilenet_par::par_map_collect_min(names.len(), PEAKS_MIN_ITEMS_PER_WORKER, |s| {
        let series = ds.national_series(dir, s);
        profile_service(series, s, names[s], config)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobilenet_traffic::HOURS_PER_DAY;

    /// A week-long series with bumps at chosen hour-of-week slots. The
    /// alternating texture dominates the diurnal slope so the lag-2
    /// detector stays quiet away from the bumps (see `peaks::tests`).
    fn week_with_bumps(bumps: &[(usize, f64)]) -> Vec<f64> {
        let mut series: Vec<f64> = (0..HOURS_PER_WEEK)
            .map(|h| {
                let hod = h % HOURS_PER_DAY;
                let texture = if h % 2 == 0 { 0.1 } else { -0.1 };
                1.0 + 0.2 * ((hod as f64 - 4.0) / 24.0 * std::f64::consts::TAU).sin() + texture
            })
            .collect();
        for &(at, amp) in bumps {
            for (d, w) in [(0usize, 1.0), (1, 0.55)] {
                if at + d < HOURS_PER_WEEK {
                    series[at + d] += amp * w;
                }
            }
        }
        series
    }

    #[test]
    fn bumps_at_topical_hours_are_recovered() {
        // Midday and evening on Monday and Tuesday (recurrence filter
        // requires two fronts per topical time).
        let series = week_with_bumps(&[(61, 2.0), (85, 2.0), (69, 1.5), (93, 1.5)]);
        let p = profile_service(&series, 0, "test", &PeakConfig::paper());
        assert!(p.has_peak[TopicalTime::Midday.index()], "{:?}", p.has_peak);
        assert!(p.has_peak[TopicalTime::Evening.index()], "{:?}", p.has_peak);
        assert!(!p.has_peak[TopicalTime::WeekendMidday.index()]);
    }

    #[test]
    fn weekend_bumps_map_to_weekend_slots() {
        // Midday on both weekend days, evening on both weekend days.
        let series = week_with_bumps(&[(13, 2.0), (37, 2.0), (21, 2.0), (45, 2.0)]);
        let p = profile_service(&series, 0, "test", &PeakConfig::paper());
        assert!(p.has_peak[TopicalTime::WeekendMidday.index()]);
        assert!(p.has_peak[TopicalTime::WeekendEvening.index()]);
        // Note: no assertion on weekday slots — the influence-damped
        // baseline after a peak can flag the next morning's ramp (a known
        // smoothed z-score artefact), which is fine for this test's scope.
    }

    #[test]
    fn intensity_reflects_bump_height() {
        let small = week_with_bumps(&[(61, 1.0), (85, 1.0)]);
        let large = week_with_bumps(&[(61, 3.0), (85, 3.0)]);
        let ps = profile_service(&small, 0, "s", &PeakConfig::paper());
        let pl = profile_service(&large, 0, "l", &PeakConfig::paper());
        let idx = TopicalTime::Midday.index();
        let is = ps.intensity[idx].expect("small bump detected");
        let il = pl.intensity[idx].expect("large bump detected");
        assert!(il > is * 1.5, "intensities {is} vs {il}");
    }

    #[test]
    fn off_topical_bumps_are_counted() {
        // 3 am on Wednesday and Thursday is near no topical time.
        let series = week_with_bumps(&[(99, 3.0), (123, 3.0)]);
        let p = profile_service(&series, 0, "test", &PeakConfig::paper());
        assert!(p.off_topical_fronts > 0);
    }

    #[test]
    fn peak_times_lists_ring_order() {
        let series = week_with_bumps(&[(69, 2.0), (93, 2.0), (61, 2.0), (85, 2.0)]);
        let p = profile_service(&series, 0, "test", &PeakConfig::paper());
        let times = p.peak_times();
        assert!(times.contains(&TopicalTime::Midday), "{times:?}");
        assert!(times.contains(&TopicalTime::Evening), "{times:?}");
        // Ring order: midday before evening.
        let midday_pos = times
            .iter()
            .position(|t| *t == TopicalTime::Midday)
            .unwrap();
        let evening_pos = times
            .iter()
            .position(|t| *t == TopicalTime::Evening)
            .unwrap();
        assert!(midday_pos < evening_pos);
    }

    #[test]
    fn study_profiles_cover_all_services() {
        let study = crate::testutil::measured_study();
        let profiles = topical_profiles(study, Direction::Down, &PeakConfig::paper());
        assert_eq!(profiles.len(), 20);
        // The paper's headline: every service shows distinctive peaks;
        // nearly all peak at weekday midday.
        let with_midday = profiles
            .iter()
            .filter(|p| p.has_peak[TopicalTime::Midday.index()])
            .count();
        assert!(
            with_midday >= 14,
            "only {with_midday}/20 midday peaks detected"
        );
        // Every service has at least one peak somewhere.
        for p in &profiles {
            assert!(
                p.has_peak.iter().any(|&b| b),
                "{} has no detected peaks at all",
                p.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "one week")]
    fn wrong_length_is_rejected() {
        profile_service(&[1.0; 100], 0, "x", &PeakConfig::paper());
    }
}
