//! Planar geometry primitives.
//!
//! The country lives on a flat kilometre grid — at national scale the
//! analyses only need relative distances, so no geodesy is involved.

/// A point on the country plane, in kilometres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East–west coordinate (km).
    pub x: f64,
    /// North–south coordinate (km).
    pub y: f64,
}

impl Point {
    /// Creates a point.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point, in km.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root in hot loops).
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Distance from this point to the segment `[a, b]`, in km.
    ///
    /// Used to test whether a commune lies inside a TGV corridor.
    pub(crate) fn distance_to_segment(&self, a: &Point, b: &Point) -> f64 {
        let abx = b.x - a.x;
        let aby = b.y - a.y;
        let len_sq = abx * abx + aby * aby;
        if len_sq <= f64::EPSILON {
            return self.distance(a);
        }
        let t = (((self.x - a.x) * abx + (self.y - a.y) * aby) / len_sq).clamp(0.0, 1.0);
        let proj = Point::new(a.x + t * abx, a.y + t * aby);
        self.distance(&proj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(&b) - 25.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-2.0, 7.5);
        let b = Point::new(10.0, -3.25);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn segment_distance_projects_onto_interior() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let p = Point::new(5.0, 3.0);
        assert!((p.distance_to_segment(&a, &b) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn segment_distance_clamps_to_endpoints() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let before = Point::new(-3.0, 4.0);
        assert!((before.distance_to_segment(&a, &b) - 5.0).abs() < 1e-12);
        let after = Point::new(13.0, -4.0);
        assert!((after.distance_to_segment(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_segment_is_a_point() {
        let a = Point::new(1.0, 1.0);
        let p = Point::new(4.0, 5.0);
        assert!((p.distance_to_segment(&a, &a) - 5.0).abs() < 1e-12);
    }
}
