//! Exceptional-event modeling.
//!
//! §2 of the paper notes the measurement week "was carefully selected so
//! as to avoid major nationwide events like holidays or strikes". This
//! extension makes that choice testable: an [`EventSpec`] injects a
//! localized demand surge (a stadium concert, a derby match, a strike
//! rally) into the demand field, and the analyses can then quantify how
//! an event week distorts the paper's results — off-schedule activity
//! peaks, inflated local per-user demand, depressed spatial correlations.

use mobilenet_geo::Point;

use crate::catalog::Category;
use crate::week::HOURS_PER_WEEK;

/// One localized demand surge.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSpec {
    /// Display name (diagnostics only).
    pub name: String,
    /// Where the event happens.
    pub epicenter: Point,
    /// Radius of the affected area, km (the surge decays linearly to zero
    /// at this distance).
    pub radius_km: f64,
    /// First affected hour-of-week.
    pub start_hour: usize,
    /// Number of affected hours.
    pub duration_h: usize,
    /// Relative surge at the epicenter: 2.0 triples demand there during
    /// the event window.
    pub amplitude: f64,
    /// Service categories affected; empty means every service (a crowd
    /// uses everything).
    pub categories: Vec<Category>,
}

impl EventSpec {
    /// A football-match-shaped event: Saturday evening, three hours,
    /// social/video-heavy.
    pub fn stadium_match(epicenter: Point) -> Self {
        EventSpec {
            name: "stadium match".into(),
            epicenter,
            radius_km: 12.0,
            start_hour: 19, // Saturday 19:00–22:00
            duration_h: 3,
            amplitude: 2.5,
            categories: vec![
                Category::SocialNetwork,
                Category::Messaging,
                Category::VideoStreaming,
            ],
        }
    }

    /// Validates internal consistency.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.radius_km <= 0.0 {
            return Err("event radius must be positive".into());
        }
        if self.duration_h == 0 {
            return Err("event duration must be positive".into());
        }
        if self.start_hour + self.duration_h > HOURS_PER_WEEK {
            return Err("event must fit inside the measurement week".into());
        }
        if self.amplitude <= 0.0 || !self.amplitude.is_finite() {
            return Err("event amplitude must be positive".into());
        }
        Ok(())
    }

    /// Whether `category` is affected by this event.
    pub(crate) fn affects(&self, category: Category) -> bool {
        self.categories.is_empty() || self.categories.contains(&category)
    }

    /// Surge factor at distance `d_km` from the epicenter during the event
    /// window: `1 + amplitude · (1 − d/r)`, clamped at 1 outside.
    pub(crate) fn surge_at(&self, d_km: f64) -> f64 {
        if d_km >= self.radius_km {
            return 1.0;
        }
        1.0 + self.amplitude * (1.0 - d_km / self.radius_km)
    }

    /// The affected hour range.
    pub(crate) fn hours(&self) -> std::ops::Range<usize> {
        self.start_hour..self.start_hour + self.duration_h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> EventSpec {
        EventSpec::stadium_match(Point::new(50.0, 50.0))
    }

    #[test]
    fn preset_validates() {
        event().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut e = event();
        e.radius_km = 0.0;
        assert!(e.validate().is_err());

        let mut e = event();
        e.duration_h = 0;
        assert!(e.validate().is_err());

        let mut e = event();
        e.start_hour = HOURS_PER_WEEK - 1;
        e.duration_h = 2;
        assert!(e.validate().is_err());

        let mut e = event();
        e.amplitude = -1.0;
        assert!(e.validate().is_err());
    }

    #[test]
    fn surge_decays_linearly_to_the_radius() {
        let e = event();
        assert!((e.surge_at(0.0) - 3.5).abs() < 1e-12);
        assert!((e.surge_at(6.0) - 2.25).abs() < 1e-12);
        assert_eq!(e.surge_at(12.0), 1.0);
        assert_eq!(e.surge_at(100.0), 1.0);
    }

    #[test]
    fn category_filter_works() {
        let e = event();
        assert!(e.affects(Category::SocialNetwork));
        assert!(!e.affects(Category::Mail));
        let mut all = event();
        all.categories.clear();
        assert!(all.affects(Category::Mail));
    }

    #[test]
    fn hours_cover_the_window() {
        let e = event();
        assert_eq!(e.hours(), 19..22);
    }
}
