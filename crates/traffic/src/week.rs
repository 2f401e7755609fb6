//! The measurement-week calendar and the seven topical times.
//!
//! The paper's dataset covers one week starting **Saturday** September 24,
//! 2016, and all temporal figures use that axis (Sat, Sun, Mon … Fri).
//! Applying the smoothed z-score detector to every service, the authors
//! find that activity peaks only occur at **seven specific moments** of the
//! week (§4):
//!
//! * weekends — midday (≈ 1 pm) and evening (≈ 9 pm);
//! * working days — morning commute (≈ 8 am), morning break (≈ 10 am),
//!   midday (≈ 1 pm), afternoon commute (≈ 6 pm) and evening (≈ 9 pm).

/// Hours in a day.
pub const HOURS_PER_DAY: usize = 24;
/// Hours in the measurement week.
pub const HOURS_PER_WEEK: usize = 7 * HOURS_PER_DAY;

/// Day index within the measurement week (0 = Saturday … 6 = Friday).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Day(pub usize);

impl Day {
    /// Whether this day is part of the weekend (Saturday or Sunday).
    #[inline]
    pub fn is_weekend(self) -> bool {
        self.0 < 2
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        ["Sat", "Sun", "Mon", "Tue", "Wed", "Thu", "Fri"][self.0 % 7]
    }
}

/// Splits an hour-of-week into `(day, hour_of_day)`.
#[inline]
pub fn split_hour(hour_of_week: usize) -> (Day, usize) {
    debug_assert!(hour_of_week < HOURS_PER_WEEK);
    (
        Day(hour_of_week / HOURS_PER_DAY),
        hour_of_week % HOURS_PER_DAY,
    )
}

/// Whether an hour-of-week falls on a weekend.
#[inline]
pub fn is_weekend_hour(hour_of_week: usize) -> bool {
    split_hour(hour_of_week).0.is_weekend()
}

/// The seven topical times of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TopicalTime {
    /// Weekend days around 1 pm.
    WeekendMidday,
    /// Weekend days around 9 pm.
    WeekendEvening,
    /// Working days around 8 am.
    MorningCommute,
    /// Working days around 10 am (the between-classes pause the paper
    /// associates with student-heavy services).
    MorningBreak,
    /// Working days around 1 pm.
    Midday,
    /// Working days around 6 pm.
    AfternoonCommute,
    /// Working days around 9 pm.
    Evening,
}

impl TopicalTime {
    /// All topical times in the ring order of Figure 6.
    pub const ALL: [TopicalTime; 7] = [
        TopicalTime::WeekendMidday,
        TopicalTime::WeekendEvening,
        TopicalTime::MorningCommute,
        TopicalTime::MorningBreak,
        TopicalTime::Midday,
        TopicalTime::AfternoonCommute,
        TopicalTime::Evening,
    ];

    /// Human-readable label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            TopicalTime::WeekendMidday => "weekend midday",
            TopicalTime::WeekendEvening => "weekend evening",
            TopicalTime::MorningCommute => "morning commuting",
            TopicalTime::MorningBreak => "morning break",
            TopicalTime::Midday => "midday",
            TopicalTime::AfternoonCommute => "afternoon commuting",
            TopicalTime::Evening => "evening",
        }
    }

    /// Index into fixed-size per-topical-time arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            TopicalTime::WeekendMidday => 0,
            TopicalTime::WeekendEvening => 1,
            TopicalTime::MorningCommute => 2,
            TopicalTime::MorningBreak => 3,
            TopicalTime::Midday => 4,
            TopicalTime::AfternoonCommute => 5,
            TopicalTime::Evening => 6,
        }
    }

    /// The hour-of-day this topical time is centred on.
    pub fn hour_of_day(self) -> usize {
        match self {
            TopicalTime::WeekendMidday | TopicalTime::Midday => 13,
            TopicalTime::WeekendEvening | TopicalTime::Evening => 21,
            TopicalTime::MorningCommute => 8,
            TopicalTime::MorningBreak => 10,
            TopicalTime::AfternoonCommute => 18,
        }
    }

    /// Whether this topical time belongs to weekend days.
    pub fn is_weekend(self) -> bool {
        matches!(
            self,
            TopicalTime::WeekendMidday | TopicalTime::WeekendEvening
        )
    }

    /// All hour-of-week slots at which this topical time occurs.
    pub fn hours(self) -> Vec<usize> {
        let hod = self.hour_of_day();
        let days: &[usize] = if self.is_weekend() {
            &[0, 1]
        } else {
            &[2, 3, 4, 5, 6]
        };
        days.iter().map(|d| d * HOURS_PER_DAY + hod).collect()
    }

    /// Maps an hour-of-week to the topical time it belongs to, within a
    /// tolerance of `slack` hours around the topical hour. Returns `None`
    /// for off-peak hours.
    pub fn classify(hour_of_week: usize, slack: usize) -> Option<TopicalTime> {
        let (day, hod) = split_hour(hour_of_week);
        let mut best: Option<(usize, TopicalTime)> = None;
        for t in TopicalTime::ALL {
            if t.is_weekend() != day.is_weekend() {
                continue;
            }
            let d = hod.abs_diff(t.hour_of_day());
            if d <= slack {
                match best {
                    Some((bd, _)) if bd <= d => {}
                    _ => best = Some((d, t)),
                }
            }
        }
        best.map(|(_, t)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn week_starts_saturday() {
        assert_eq!(Day(0).name(), "Sat");
        assert_eq!(Day(6).name(), "Fri");
        assert!(Day(0).is_weekend());
        assert!(Day(1).is_weekend());
        assert!(!Day(2).is_weekend());
    }

    #[test]
    fn split_hour_round_trips() {
        for h in 0..HOURS_PER_WEEK {
            let (d, hod) = split_hour(h);
            assert_eq!(d.0 * HOURS_PER_DAY + hod, h);
        }
    }

    #[test]
    fn topical_hours_land_on_expected_slots() {
        assert_eq!(TopicalTime::WeekendMidday.hours(), vec![13, 37]);
        assert_eq!(
            TopicalTime::MorningCommute.hours(),
            vec![56, 80, 104, 128, 152]
        );
        assert_eq!(TopicalTime::Evening.hours(), vec![69, 93, 117, 141, 165]);
    }

    #[test]
    fn every_topical_hour_is_within_the_week() {
        for t in TopicalTime::ALL {
            for h in t.hours() {
                assert!(h < HOURS_PER_WEEK);
                assert_eq!(is_weekend_hour(h), t.is_weekend());
            }
        }
    }

    #[test]
    fn classify_maps_topical_hours_to_themselves() {
        for t in TopicalTime::ALL {
            for h in t.hours() {
                assert_eq!(TopicalTime::classify(h, 1), Some(t), "hour {h}");
            }
        }
    }

    #[test]
    fn classify_rejects_off_peak_hours() {
        // 3 am Monday is nowhere near a topical time.
        assert_eq!(TopicalTime::classify(2 * HOURS_PER_DAY + 3, 1), None);
        // 1 pm Saturday is weekend midday, never weekday midday.
        assert_eq!(
            TopicalTime::classify(13, 1),
            Some(TopicalTime::WeekendMidday)
        );
    }

    #[test]
    fn classify_with_slack_snaps_to_nearest() {
        // 9 am Monday sits between the 8 am commute and the 10 am break;
        // equidistant ties go to the earlier (commute) entry by order.
        let t = TopicalTime::classify(2 * HOURS_PER_DAY + 9, 1).unwrap();
        assert!(t == TopicalTime::MorningCommute || t == TopicalTime::MorningBreak);
        // 7 pm Monday snaps to the 6 pm commute with slack 1.
        assert_eq!(
            TopicalTime::classify(2 * HOURS_PER_DAY + 19, 1),
            Some(TopicalTime::AfternoonCommute)
        );
    }

    #[test]
    fn indices_are_a_permutation() {
        let mut seen = [false; 7];
        for t in TopicalTime::ALL {
            assert!(!seen[t.index()]);
            seen[t.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
