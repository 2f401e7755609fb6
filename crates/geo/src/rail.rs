//! High-speed (TGV) rail corridors.
//!
//! §5 of the paper singles out rural communes crossed by a high-speed line
//! as a distinct usage class: their per-subscriber demand is **twice or
//! more** the urban level (train passengers dwarf the few residents in the
//! per-user normalization) and their temporal dynamics follow train
//! schedules instead of resident rhythms. The maps of Figure 9 show the
//! Paris–Lyon–Marseille artery glowing. Here a line is a polyline between
//! city centres, and corridor membership is a distance test.

use crate::point::Point;

/// A high-speed rail line as a polyline of waypoints (city centres).
#[derive(Debug, Clone)]
pub struct TgvLine {
    /// Ordered waypoints of the line.
    pub waypoints: Vec<Point>,
}

impl TgvLine {
    /// Creates a line; needs at least two waypoints.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two waypoints are supplied.
    pub(crate) fn new(waypoints: Vec<Point>) -> Self {
        assert!(
            waypoints.len() >= 2,
            "a rail line needs at least two waypoints"
        );
        TgvLine { waypoints }
    }

    /// Minimum distance from `p` to any segment of the line, km.
    pub(crate) fn distance_to(&self, p: &Point) -> f64 {
        self.waypoints
            .windows(2)
            .map(|w| p.distance_to_segment(&w[0], &w[1]))
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether `p` lies within `corridor_km` of the line.
    pub(crate) fn covers(&self, p: &Point, corridor_km: f64) -> bool {
        self.distance_to(p) <= corridor_km
    }

    /// Unit tangent of the segment closest to `p` — the local direction of
    /// travel. Used to displace train passengers' ULI fixes *along* the
    /// track rather than isotropically.
    pub(crate) fn direction_at(&self, p: &Point) -> (f64, f64) {
        let mut best = (f64::INFINITY, (1.0, 0.0));
        for w in self.waypoints.windows(2) {
            let d = p.distance_to_segment(&w[0], &w[1]);
            if d < best.0 {
                let dx = w[1].x - w[0].x;
                let dy = w[1].y - w[0].y;
                let len = (dx * dx + dy * dy).sqrt().max(1e-12);
                best = (d, (dx / len, dy / len));
            }
        }
        best.1
    }
}

/// The unit tangent of the closest line in `lines` to `p`, or `None` when
/// no line exists.
pub fn nearest_line_direction(lines: &[TgvLine], p: &Point) -> Option<(f64, f64)> {
    lines
        .iter()
        .map(|l| (l.distance_to(p), l))
        .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
        .map(|(_, l)| l.direction_at(p))
}

/// Builds a rail network connecting `cities` (ordered by decreasing
/// importance): a trunk through all of them in nearest-neighbour order plus
/// direct spurs from the first city (the capital) to each other city —
/// a stylized version of France's hub-and-spoke TGV map centred on Paris.
pub(crate) fn hub_and_spoke(cities: &[Point]) -> Vec<TgvLine> {
    if cities.len() < 2 {
        return Vec::new();
    }
    let hub = cities[0];
    cities[1..]
        .iter()
        .map(|&c| TgvLine::new(vec![hub, c]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_to_polyline_takes_closest_segment() {
        let line = TgvLine::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ]);
        // Close to the second segment.
        let p = Point::new(12.0, 5.0);
        assert!((line.distance_to(&p) - 2.0).abs() < 1e-12);
        assert!(line.covers(&p, 2.5));
        assert!(!line.covers(&p, 1.5));
    }

    #[test]
    #[should_panic(expected = "two waypoints")]
    fn single_waypoint_is_rejected() {
        TgvLine::new(vec![Point::new(0.0, 0.0)]);
    }

    #[test]
    fn direction_at_follows_the_closest_segment() {
        let line = TgvLine::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ]);
        let (dx, dy) = line.direction_at(&Point::new(5.0, 1.0));
        assert!((dx - 1.0).abs() < 1e-12 && dy.abs() < 1e-12);
        let (dx, dy) = line.direction_at(&Point::new(11.0, 8.0));
        assert!(dx.abs() < 1e-12 && (dy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_line_direction_picks_the_closest_line() {
        let horizontal = TgvLine::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        let vertical = TgvLine::new(vec![Point::new(50.0, 0.0), Point::new(50.0, 10.0)]);
        let lines = vec![horizontal, vertical];
        let (dx, _) = nearest_line_direction(&lines, &Point::new(2.0, 1.0)).unwrap();
        assert!((dx - 1.0).abs() < 1e-12);
        let (_, dy) = nearest_line_direction(&lines, &Point::new(49.0, 5.0)).unwrap();
        assert!((dy - 1.0).abs() < 1e-12);
        assert!(nearest_line_direction(&[], &Point::new(0.0, 0.0)).is_none());
    }

    #[test]
    fn hub_and_spoke_links_capital_to_all() {
        let cities = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(0.0, 100.0),
            Point::new(-50.0, -50.0),
        ];
        let lines = hub_and_spoke(&cities);
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert_eq!(line.waypoints[0], cities[0]);
        }
        assert!(hub_and_spoke(&cities[..1]).is_empty());
        assert!(hub_and_spoke(&[]).is_empty());
    }
}
