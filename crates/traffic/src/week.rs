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
pub(crate) fn is_weekend_hour(hour_of_week: usize) -> bool {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn week_starts_saturday() {
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
    fn indices_are_a_permutation() {
        let mut seen = [false; 7];
        for t in TopicalTime::ALL {
            assert!(!seen[t.index()]);
            seen[t.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
