//! Weekly temporal profiles of mobile services.
//!
//! §4 of the paper shows each service's nationwide time series combines a
//! classic baseline (diurnal cycle, weekday/weekend dichotomy) with a
//! *service-specific arrangement of activity peaks* at the seven topical
//! times — so distinctive that k-shape finds no consistent grouping. The
//! profile builder reproduces exactly that decomposition: a common
//! baseline, per-service Gaussian peak bumps from the catalog's palette,
//! and a mild service-specific shape perturbation.
//!
//! TGV corridors get their own profile (Figure 11 bottom: "subscribers on
//! TGVs have quite different temporal patterns"), driven by train schedules
//! rather than resident rhythms.

use crate::catalog::ServiceSpec;
use crate::week::{split_hour, HOURS_PER_DAY, HOURS_PER_WEEK};

/// Baseline weekday hourly weights (hour-of-day 0–23).
///
/// The shape is engineered around the paper's smoothed z-score detector
/// (lag 2, threshold 3), for which a sample flags exactly when the slope
/// *accelerates*: `Δnow > Δprev` on a rise, or a rise faster than twice
/// the preceding dip step. The baseline therefore (i) enters its morning
/// ramp from an exactly-flat trough pair (zero window variance → no
/// flag), (ii) keeps every rise concave, and (iii) separates the topical
/// regions with shallow dips (late morning, mid-afternoon, pre-evening)
/// whose exit rises stay under the 2× rule. The result: the *baseline* is
/// peak-free, and activity peaks come exclusively from the per-service
/// topical-time bumps — the paper's own decomposition of traffic into
/// "classic patterns" plus service-specific peaks.
const WEEKDAY_BASE: [f64; HOURS_PER_DAY] = [
    0.254, 0.212, 0.171, 0.131, 0.092, 0.178, 0.235, 0.30, 0.355, 0.395, 0.42, 0.396, 0.415, 0.429,
    0.408, 0.391, 0.377, 0.388, 0.394, 0.379, 0.385, 0.388, 0.341, 0.297,
];

/// Morning-ramp override for commute-peaked services: their day starts
/// abruptly at 6 am (the surge IS the commute), placing the detector's
/// rising front within snap distance of the 8 am commute. Other services
/// ramp smoothly from ~5 am and produce no morning front at all.
const COMMUTE_RAMP: [(usize, f64); 3] = [(5, 0.105), (6, 0.1175), (7, 0.27)];

/// Morning-ramp override for morning-break-peaked services (the paper's
/// "student" services): near-silence until classes start, then an abrupt
/// surge at 9–10 am whose front snaps to the morning break.
const BREAK_RAMP: [(usize, f64); 5] = [(5, 0.10), (6, 0.085), (7, 0.071), (8, 0.058), (9, 0.23)];

/// Baseline weekend hourly weights (hour-of-day 0–23); same construction,
/// with a later morning and flatter day.
const WEEKEND_BASE: [f64; HOURS_PER_DAY] = [
    0.262, 0.224, 0.187, 0.151, 0.116, 0.18, 0.242, 0.30, 0.35, 0.388, 0.412, 0.39, 0.407, 0.419,
    0.40, 0.384, 0.371, 0.381, 0.387, 0.373, 0.379, 0.382, 0.34, 0.30,
];

/// Width (hours) of a peak bump.
const PEAK_SIGMA: f64 = 0.7;

/// Bump influence is truncated beyond this distance (hours) so peaks stay
/// local hills and the baseline's engineered flats/dips survive.
const PEAK_REACH: f64 = 2.0;

/// A normalized weekly demand profile: 168 hourly weights summing to one.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WeekProfile {
    hourly: Vec<f64>,
}

impl WeekProfile {
    /// Builds the nationwide profile of a head service from its peak
    /// palette and a deterministic per-service shape perturbation.
    pub(crate) fn for_service(spec: &ServiceSpec) -> Self {
        // Deterministic per-service perturbations derived from the id:
        // a baseline exponent (day-shape contrast) and a weekend factor.
        let h = fxhash(spec.id.0 as u64);
        let gamma = 0.85 + 0.30 * unit(h); // in [0.85, 1.15]
        let weekend_scale = 0.75 + 0.50 * unit(fxhash(h)); // in [0.75, 1.25]

        let commute_service = spec
            .peak_at(crate::week::TopicalTime::MorningCommute)
            .is_some();
        let break_service = spec
            .peak_at(crate::week::TopicalTime::MorningBreak)
            .is_some();
        let mut hourly = Vec::with_capacity(HOURS_PER_WEEK);
        for how in 0..HOURS_PER_WEEK {
            let (day, hod) = split_hour(how);
            let base = if day.is_weekend() {
                WEEKEND_BASE[hod].powf(gamma) * weekend_scale
            } else {
                let mut b = WEEKDAY_BASE[hod];
                if commute_service {
                    for (h, v) in COMMUTE_RAMP {
                        if hod == h {
                            b = v;
                        }
                    }
                } else if break_service {
                    for (h, v) in BREAK_RAMP {
                        if hod == h {
                            b = v;
                        }
                    }
                }
                b.powf(gamma)
            };
            let mut v = base;
            for peak in &spec.peaks {
                if peak.time.is_weekend() != day.is_weekend() {
                    continue;
                }
                let d = hod as f64 - peak.time.hour_of_day() as f64;
                if d.abs() > PEAK_REACH {
                    continue;
                }
                v *= 1.0 + peak.intensity * (-d * d / (2.0 * PEAK_SIGMA * PEAK_SIGMA)).exp();
            }
            hourly.push(v);
        }
        Self::normalized(hourly)
    }

    /// The TGV-corridor profile: demand follows train schedules — strong
    /// morning and late-afternoon travel waves on working days, Saturday
    /// morning departures, a pronounced Sunday-evening return wave, and
    /// near silence at night when no trains run.
    ///
    /// The per-day curves share the baseline's flat trough pairs and dip
    /// hours so the *national mixture* (≈ 90% service profile + ≈ 10%
    /// corridor demand) stays quiet under the peak detector; only the
    /// per-service topical bumps flag.
    pub(crate) fn tgv() -> Self {
        /// Working-day train wave (commute-heavy, midday-light).
        const WD: [f64; HOURS_PER_DAY] = [
            0.10, 0.085, 0.072, 0.062, 0.05, 0.115, 0.19, 0.27, 0.34, 0.38, 0.35, 0.30, 0.31,
            0.315, 0.295, 0.27, 0.25, 0.30, 0.35, 0.32, 0.33, 0.335, 0.22, 0.15,
        ];
        /// Saturday: morning departures dominate.
        const SAT: [f64; HOURS_PER_DAY] = [
            0.11, 0.095, 0.08, 0.068, 0.055, 0.12, 0.20, 0.29, 0.36, 0.40, 0.37, 0.32, 0.33, 0.335,
            0.315, 0.29, 0.27, 0.29, 0.31, 0.29, 0.30, 0.305, 0.21, 0.15,
        ];
        /// Sunday: the evening return wave dominates.
        const SUN: [f64; HOURS_PER_DAY] = [
            0.11, 0.095, 0.08, 0.068, 0.055, 0.10, 0.15, 0.21, 0.26, 0.29, 0.27, 0.24, 0.25, 0.255,
            0.245, 0.235, 0.23, 0.32, 0.42, 0.40, 0.43, 0.445, 0.30, 0.18,
        ];
        let mut hourly = Vec::with_capacity(HOURS_PER_WEEK);
        for how in 0..HOURS_PER_WEEK {
            let (day, hod) = split_hour(how);
            let curve = match day.0 {
                0 => &SAT,
                1 => &SUN,
                _ => &WD,
            };
            hourly.push(curve[hod]);
        }
        Self::normalized(hourly)
    }

    /// Builds a profile directly from raw non-negative hourly weights.
    ///
    /// # Panics
    ///
    /// Panics unless exactly [`HOURS_PER_WEEK`] non-negative weights with a
    /// positive sum are supplied.
    pub(crate) fn from_weights(weights: Vec<f64>) -> Self {
        assert_eq!(
            weights.len(),
            HOURS_PER_WEEK,
            "need one weight per hour of the week"
        );
        assert!(
            weights.iter().all(|w| *w >= 0.0 && w.is_finite()),
            "weights must be finite and non-negative"
        );
        Self::normalized(weights)
    }

    fn normalized(mut hourly: Vec<f64>) -> Self {
        let total: f64 = hourly.iter().sum();
        assert!(total > 0.0, "profile weights must not all be zero");
        for v in &mut hourly {
            *v /= total;
        }
        WeekProfile { hourly }
    }

    /// The hourly weights (length [`HOURS_PER_WEEK`], summing to one).
    pub(crate) fn hourly(&self) -> &[f64] {
        &self.hourly
    }

    /// The weight of a single hour-of-week.
    #[inline]
    pub(crate) fn value(&self, hour_of_week: usize) -> f64 {
        self.hourly[hour_of_week]
    }

    /// Blends two profiles: `alpha` of `self` plus `1 − alpha` of `other`.
    pub(crate) fn blend(&self, other: &WeekProfile, alpha: f64) -> WeekProfile {
        assert!((0.0..=1.0).contains(&alpha));
        let hourly = self
            .hourly
            .iter()
            .zip(other.hourly.iter())
            .map(|(a, b)| alpha * a + (1.0 - alpha) * b)
            .collect();
        Self::normalized(hourly)
    }
}

/// A small deterministic integer hash (SplitMix64 finalizer).
fn fxhash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ServiceCatalog;

    fn catalog() -> ServiceCatalog {
        ServiceCatalog::standard(0)
    }

    #[test]
    fn profiles_are_normalized() {
        let c = catalog();
        for s in c.head() {
            let p = WeekProfile::for_service(s);
            let sum: f64 = p.hourly().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}", s.name);
            assert_eq!(p.hourly().len(), HOURS_PER_WEEK);
            assert!(p.hourly().iter().all(|v| *v >= 0.0));
        }
        let t = WeekProfile::tgv();
        assert!((t.hourly().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn night_hours_are_quiet() {
        let c = catalog();
        let p = WeekProfile::for_service(&c.head()[0]);
        // 4 am Monday vs 1 pm Monday.
        let night = p.value(2 * HOURS_PER_DAY + 4);
        let midday = p.value(2 * HOURS_PER_DAY + 13);
        assert!(midday > 3.0 * night, "midday {midday} vs night {night}");
    }

    #[test]
    fn peaks_raise_their_topical_hour() {
        let c = catalog();
        // iTunes has a strong (1.45) weekday-midday peak.
        let itunes = c.by_name("iTunes").unwrap();
        let p = WeekProfile::for_service(itunes);
        let midday = p.value(2 * HOURS_PER_DAY + 13);
        let other = p.value(2 * HOURS_PER_DAY + 16); // mid-afternoon lull
        assert!(midday > 1.6 * other, "midday {midday} vs afternoon {other}");
    }

    #[test]
    fn weekend_peaks_do_not_leak_into_weekdays() {
        let c = catalog();
        // MMS has a weekend-midday peak but only a moderate weekday one.
        let mms = c.by_name("MMS").unwrap();
        let p = WeekProfile::for_service(mms);
        let sat_midday = p.value(13);
        let sat_next = p.value(16);
        assert!(sat_midday > sat_next, "weekend midday bump missing");
    }

    #[test]
    fn service_profiles_are_distinct() {
        let c = catalog();
        let profiles: Vec<WeekProfile> = c.head().iter().map(WeekProfile::for_service).collect();
        for i in 0..profiles.len() {
            for j in (i + 1)..profiles.len() {
                let max_diff = profiles[i]
                    .hourly()
                    .iter()
                    .zip(profiles[j].hourly().iter())
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                assert!(
                    max_diff > 1e-4,
                    "{} and {} have identical profiles",
                    c.head()[i].name,
                    c.head()[j].name
                );
            }
        }
    }

    #[test]
    fn tgv_profile_differs_from_every_service_profile() {
        let c = catalog();
        let tgv = WeekProfile::tgv();
        for s in c.head() {
            let p = WeekProfile::for_service(s);
            let corr = mobilenet_timeseries::stats::pearson_r(tgv.hourly(), p.hourly());
            assert!(
                corr < 0.9,
                "TGV profile too close to {}: r = {corr}",
                s.name
            );
        }
    }

    #[test]
    fn tgv_has_sunday_return_wave() {
        let t = WeekProfile::tgv();
        // Sunday evening (return wave) outweighs the same hour on Tuesday
        // and on Saturday.
        let sun_evening = t.value(HOURS_PER_DAY + 20);
        let tue_evening = t.value(3 * HOURS_PER_DAY + 20);
        let sat_evening = t.value(20);
        assert!(
            sun_evening > tue_evening,
            "{sun_evening} vs tue {tue_evening}"
        );
        assert!(
            sun_evening > sat_evening,
            "{sun_evening} vs sat {sat_evening}"
        );
        // And Saturday morning departures outweigh Sunday morning.
        assert!(t.value(8) > t.value(HOURS_PER_DAY + 8));
    }

    #[test]
    fn blend_interpolates() {
        let c = catalog();
        let a = WeekProfile::for_service(&c.head()[0]);
        let b = WeekProfile::tgv();
        let m = a.blend(&b, 0.5);
        let sum: f64 = m.hourly().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for (x, y) in a.blend(&b, 1.0).hourly().iter().zip(a.hourly().iter()) {
            assert!((x - y).abs() < 1e-12);
        }
        for (x, y) in a.blend(&b, 0.0).hourly().iter().zip(b.hourly().iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn from_weights_validates() {
        let ok = WeekProfile::from_weights(vec![1.0; HOURS_PER_WEEK]);
        assert!((ok.value(0) - 1.0 / HOURS_PER_WEEK as f64).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one weight per hour")]
    fn from_weights_rejects_wrong_length() {
        WeekProfile::from_weights(vec![1.0; 10]);
    }
}
