//! Rasterized country maps (§5, Figure 9).
//!
//! Figure 9 shows per-subscriber activity maps for Twitter and Netflix and
//! the 3G/4G coverage footprint. Without a GIS stack, the reproduction
//! rasterizes commune values onto a regular grid and renders them as ASCII
//! heat maps (for the terminal) and PGM images (for files) — enough to see
//! cities and TGV corridors light up.

use mobilenet_geo::{Country, Point};
use mobilenet_traffic::Direction;

use crate::study::Study;

/// A rasterized scalar field over the country.
#[derive(Debug, Clone)]
pub struct MapGrid {
    /// Grid width in cells.
    pub width: usize,
    /// Grid height in cells.
    pub height: usize,
    /// Row-major cell values (row 0 = north/top).
    pub cells: Vec<f64>,
}

impl MapGrid {
    /// Rasterizes per-commune `values` over the country: each cell takes
    /// the value of the commune nearest to its centre.
    pub(crate) fn rasterize(country: &Country, values: &[f64], width: usize) -> Self {
        assert_eq!(
            values.len(),
            country.communes().len(),
            "one value per commune"
        );
        assert!(width >= 2, "width must be at least 2");
        let w_km = country.config().width_km;
        let h_km = country.config().height_km;
        let height = ((width as f64) * h_km / w_km).round().max(2.0) as usize;
        let mut cells = Vec::with_capacity(width * height);
        for row in 0..height {
            for col in 0..width {
                let x = (col as f64 + 0.5) / width as f64 * w_km;
                // Row 0 at the top (north).
                let y = (1.0 - (row as f64 + 0.5) / height as f64) * h_km;
                let commune = country.commune_at(&Point::new(x, y));
                cells.push(values[commune.index()]);
            }
        }
        MapGrid {
            width,
            height,
            cells,
        }
    }

    /// Cell accessor.
    pub(crate) fn get(&self, row: usize, col: usize) -> f64 {
        self.cells[row * self.width + col]
    }

    /// Renders an ASCII heat map using a log-ish intensity ramp.
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let max = self.cells.iter().cloned().fold(0.0f64, f64::max);
        let mut out = String::with_capacity((self.width + 1) * self.height);
        for row in 0..self.height {
            for col in 0..self.width {
                let v = self.get(row, col);
                let idx = if max <= 0.0 || v <= 0.0 {
                    0
                } else {
                    // Log scale over 4 decades.
                    let rel = (v / max).log10().max(-4.0) / 4.0 + 1.0;
                    ((rel * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)
                };
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }

    /// Serializes as a plain-text PGM (P2) image, 8-bit, log-scaled.
    pub fn to_pgm(&self) -> String {
        let max = self.cells.iter().cloned().fold(0.0f64, f64::max);
        let mut out = format!("P2\n{} {}\n255\n", self.width, self.height);
        for row in 0..self.height {
            let line: Vec<String> = (0..self.width)
                .map(|col| {
                    let v = self.get(row, col);
                    let g = if max <= 0.0 || v <= 0.0 {
                        0.0
                    } else {
                        ((v / max).log10().max(-4.0) / 4.0 + 1.0) * 255.0
                    };
                    format!("{}", g.round() as u8)
                })
                .collect();
            out.push_str(&line.join(" "));
            out.push('\n');
        }
        out
    }
}

/// Figure 9 left/middle: the per-subscriber weekly volume map of a
/// service.
pub fn per_user_map(study: &Study, dir: Direction, service: usize, width: usize) -> MapGrid {
    let values = study.dataset().per_user_commune_vector(dir, service);
    MapGrid::rasterize(study.country(), &values, width)
}

/// Figure 9 right: the coverage footprint; cell values 0 (none), 1 (3G
/// only), 2 (3G+4G).
pub fn coverage_map(country: &Country, width: usize) -> MapGrid {
    let values: Vec<f64> = country
        .communes()
        .iter()
        .map(|c| match (c.coverage.has_3g, c.coverage.has_4g) {
            (_, true) => 2.0,
            (true, false) => 1.0,
            (false, false) => 0.0,
        })
        .collect();
    MapGrid::rasterize(country, &values, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobilenet_geo::UsageClass;

    fn study() -> &'static Study {
        crate::testutil::measured_study()
    }

    #[test]
    fn rasterization_has_expected_shape() {
        let s = study();
        let grid = per_user_map(s, Direction::Down, 0, 40);
        assert_eq!(grid.width, 40);
        assert!(grid.height >= 2);
        assert_eq!(grid.cells.len(), grid.width * grid.height);
    }

    #[test]
    fn cities_are_brighter_than_countryside() {
        // Localization error smooths the per-user field, so compare the
        // capital's *neighbourhood* (not its single cell) to the country.
        let s = study();
        let values = s.dataset().per_user_commune_vector(Direction::Down, 0);
        let capital = &s.country().cities()[0];
        let near = s.country().communes_within(&capital.center, 12.0);
        let near_mean: f64 =
            near.iter().map(|id| values[id.index()]).sum::<f64>() / near.len() as f64;
        let all_mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        assert!(
            near_mean > all_mean,
            "capital neighbourhood {near_mean} vs country mean {all_mean}"
        );
    }

    #[test]
    fn ascii_rendering_is_rectangular() {
        let s = study();
        let grid = per_user_map(s, Direction::Down, 3, 30);
        let text = grid.to_ascii();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), grid.height);
        assert!(lines.iter().all(|l| l.len() == grid.width));
        // Some structure: not all characters identical.
        let first = lines[0].chars().next().unwrap();
        assert!(text.chars().any(|c| c != first && c != '\n'));
    }

    #[test]
    fn pgm_has_valid_header_and_size() {
        let s = study();
        let grid = per_user_map(s, Direction::Up, 1, 24);
        let pgm = grid.to_pgm();
        let mut lines = pgm.lines();
        assert_eq!(lines.next(), Some("P2"));
        assert_eq!(
            lines.next(),
            Some(format!("{} {}", grid.width, grid.height).as_str())
        );
        assert_eq!(lines.next(), Some("255"));
        let pixels: usize = lines.map(|l| l.split_whitespace().count()).sum();
        assert_eq!(pixels, grid.width * grid.height);
    }

    #[test]
    fn coverage_map_shows_4g_in_cities() {
        let s = study();
        let grid = coverage_map(s.country(), 50);
        // All values in {0, 1, 2}.
        assert!(grid
            .cells
            .iter()
            .all(|v| *v == 0.0 || *v == 1.0 || *v == 2.0));
        // 4G present somewhere, and 3G-only areas exist too.
        assert!(grid.cells.contains(&2.0));
        assert!(grid.cells.contains(&1.0));
    }

    #[test]
    fn netflix_map_is_darker_in_rural_cells_than_twitter() {
        let s = study();
        let netflix = s
            .catalog()
            .head()
            .iter()
            .position(|x| x.name == "Netflix")
            .unwrap();
        let twitter = s
            .catalog()
            .head()
            .iter()
            .position(|x| x.name == "Twitter")
            .unwrap();
        let nf = s
            .dataset()
            .per_user_commune_vector(Direction::Down, netflix);
        let tw = s
            .dataset()
            .per_user_commune_vector(Direction::Down, twitter);
        // Fraction of rural communes with near-zero demand.
        let rural = s.country().communes_in_class(UsageClass::Rural);
        let dark = |v: &[f64]| {
            rural.iter().filter(|id| v[id.index()] < 1e-6).count() as f64 / rural.len() as f64
        };
        assert!(
            dark(&nf) > dark(&tw),
            "Netflix dark fraction {} should exceed Twitter {}",
            dark(&nf),
            dark(&tw)
        );
    }

    #[test]
    #[should_panic(expected = "one value per commune")]
    fn wrong_value_count_is_rejected() {
        let s = study();
        MapGrid::rasterize(s.country(), &[1.0, 2.0], 10);
    }
}
