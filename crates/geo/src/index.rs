//! A uniform-grid spatial index over station or commune sites.
//!
//! The collection pipeline (`mobilenet-netsim`) must map noisy ULI fixes to
//! the base station that served them; with ~10⁵ stations a linear scan per
//! fix would dominate generation time, so lookups go through a grid.
//!
//! The grid is stored in compressed-sparse-row (CSR) form: one offset array
//! over the cells, and the sites themselves copied in row-major cell order
//! with their coordinates, original index and a caller-chosen `u32` tag
//! inline. A row of adjacent cells is therefore one contiguous slice, and a
//! lookup touches no per-cell allocation; [`SpatialIndex::nearest_tag`]
//! answers "what does the nearest site belong to" without a second lookup
//! in the caller's own tables.
//!
//! [`SpatialIndex::nearest`] is exact: it returns the argmin of
//! `(site.distance_sq(p), index)` over every site, for any `p`, including
//! fixes outside the sites' bounding box. It checks the 3×3 block of cells
//! around the fix as three contiguous row ranges — the fix's own row
//! first, then each neighbouring row unless that row's edge is already
//! strictly farther than the best hit — and returns when the best squared
//! distance is strictly inside the block's clearance (the distance from
//! the fix to the nearest cell outside the block, less a rounding slack).
//! Otherwise it widens ring by ring over the ring-boundary cells until the
//! same test passes or the whole grid is scanned.

use crate::point::Point;

/// Grid cells per indexed site. Two cells per site keep the 3×3 block
/// around a fix small (≈4.5 sites on a uniform layout) while it still holds
/// the nearest site for almost every fix.
const CELLS_PER_SITE: f64 = 2.0;

/// Relative rounding slack of cell edges. Sites are bucketed by truncating
/// `(x − min_x) / cell_km`, which can put a site a rounding error outside
/// its cell; the clearance test subtracts this margin (scaled by the
/// grid's coordinate magnitude) so such a site is never skipped.
const EDGE_SLACK: f64 = 1e-9;

/// One indexed site, stored inline in cell order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    site: Point,
    index: u32,
    tag: u32,
}

/// The running `(distance², index)` argmin of a lookup, with its tag.
#[derive(Clone, Copy)]
struct Best {
    d: f64,
    index: u32,
    tag: u32,
}

impl Best {
    #[inline(always)]
    fn offer(&mut self, entries: &[Entry], p: &Point) {
        for e in entries {
            let d = e.site.distance_sq(p);
            if d < self.d || (d == self.d && e.index < self.index) {
                self.d = d;
                self.index = e.index;
                self.tag = e.tag;
            }
        }
    }
}

/// Cell coordinate of a grid-relative position `v` (in cells) on an axis
/// of `n` cells: `⌊v⌋` clamped to `0..n`. The saturating cast truncates
/// toward zero and sends NaN and negatives to 0, so for every `f64` this
/// equals `(v.floor().max(0.0) as usize).min(n − 1)` without the `floor`.
#[inline(always)]
fn cell_coord(v: f64, n: usize) -> usize {
    (v as usize).min(n - 1)
}

/// A uniform grid index mapping points to the nearest of a fixed set of
/// sites (base stations, commune centroids).
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    /// Sites in row-major cell order; ascending original index within a
    /// cell.
    entries: Vec<Entry>,
    /// `cell_start[c]..cell_start[c + 1]` are cell `c`'s entries
    /// (`nx × ny + 1` offsets).
    cell_start: Vec<u32>,
    cell_km: f64,
    nx: usize,
    ny: usize,
    min_x: f64,
    min_y: f64,
    /// Absolute rounding margin of the clearance test, km.
    slack_km: f64,
    /// Tag of site 0, the answer when no distance is finite.
    tag0: u32,
}

impl SpatialIndex {
    /// Builds an index over `sites` with about two grid cells per site;
    /// each site's tag is its index.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty or holds more than `u32::MAX` sites.
    pub fn build(sites: &[Point]) -> Self {
        Self::build_with(sites, |i| i as u32)
    }

    /// Builds an index over `sites` that carries `tags[i]` next to site
    /// `i`, for [`SpatialIndex::nearest_tag`].
    ///
    /// # Panics
    ///
    /// Panics if `tags` and `sites` differ in length, or as
    /// [`SpatialIndex::build`] does.
    pub fn build_tagged(sites: &[Point], tags: &[u32]) -> Self {
        assert_eq!(sites.len(), tags.len(), "one tag per site");
        Self::build_with(sites, |i| tags[i])
    }

    fn build_with(sites: &[Point], tag: impl Fn(usize) -> u32) -> Self {
        assert!(!sites.is_empty(), "cannot index zero sites");
        assert!(sites.len() <= u32::MAX as usize, "too many sites to index");
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in sites {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let span_x = (max_x - min_x).max(1e-9);
        let span_y = (max_y - min_y).max(1e-9);
        let target_cells = CELLS_PER_SITE * sites.len() as f64;
        // The area term sets the density; the span term keeps a
        // degenerate (line-like) site set from exploding the cell count.
        let cell_km = ((span_x * span_y) / target_cells)
            .sqrt()
            .max(span_x.max(span_y) / target_cells)
            .max(1e-6);
        let nx = (span_x / cell_km).ceil() as usize + 1;
        let ny = (span_y / cell_km).ceil() as usize + 1;
        let cell_of_site = |p: &Point| {
            cell_coord((p.y - min_y) / cell_km, ny) * nx + cell_coord((p.x - min_x) / cell_km, nx)
        };

        // Counting sort into CSR; a stable fill keeps each cell's sites in
        // ascending index order.
        let mut cell_start = vec![0u32; nx * ny + 1];
        for p in sites {
            cell_start[cell_of_site(p) + 1] += 1;
        }
        for c in 0..nx * ny {
            cell_start[c + 1] += cell_start[c];
        }
        let mut cursor = cell_start.clone();
        let mut entries = vec![
            Entry {
                site: Point::default(),
                index: 0,
                tag: 0,
            };
            sites.len()
        ];
        for (i, p) in sites.iter().enumerate() {
            let slot = &mut cursor[cell_of_site(p)];
            entries[*slot as usize] = Entry {
                site: *p,
                index: i as u32,
                tag: tag(i),
            };
            *slot += 1;
        }

        let magnitude = [min_x, min_y, max_x, max_y]
            .iter()
            .fold(cell_km, |m, v| m.max(v.abs()));
        SpatialIndex {
            entries,
            cell_start,
            cell_km,
            nx,
            ny,
            min_x,
            min_y,
            slack_km: EDGE_SLACK * magnitude,
            tag0: tag(0),
        }
    }

    #[inline(always)]
    fn cell_of(&self, p: &Point) -> (usize, usize) {
        (
            cell_coord((p.x - self.min_x) / self.cell_km, self.nx),
            cell_coord((p.y - self.min_y) / self.cell_km, self.ny),
        )
    }

    /// The entries of cells `x_lo..=x_hi` of row `y`: one contiguous slice.
    #[inline(always)]
    fn row(&self, y: usize, x_lo: usize, x_hi: usize) -> &[Entry] {
        let base = y * self.nx;
        let start = self.cell_start[base + x_lo] as usize;
        let end = self.cell_start[base + x_hi + 1] as usize;
        &self.entries[start..end]
    }

    /// Squared clearance of `p` inside the cell block
    /// `[x_lo, x_hi] × [y_lo, y_hi]`: every site outside the block is at
    /// least this far (squared), less the rounding slack. Sides on the
    /// grid's border have no cells beyond them and do not count; a block
    /// covering the whole grid has infinite clearance.
    #[inline(always)]
    fn clearance_sq(&self, p: &Point, x_lo: usize, x_hi: usize, y_lo: usize, y_hi: usize) -> f64 {
        let mut gap = f64::INFINITY;
        if x_lo > 0 {
            gap = gap.min(p.x - (self.min_x + x_lo as f64 * self.cell_km));
        }
        if x_hi + 1 < self.nx {
            gap = gap.min(self.min_x + (x_hi + 1) as f64 * self.cell_km - p.x);
        }
        if y_lo > 0 {
            gap = gap.min(p.y - (self.min_y + y_lo as f64 * self.cell_km));
        }
        if y_hi + 1 < self.ny {
            gap = gap.min(self.min_y + (y_hi + 1) as f64 * self.cell_km - p.y);
        }
        self.gap_sq(gap)
    }

    /// A distance gap to a cell edge, less the rounding slack, squared.
    #[inline(always)]
    fn gap_sq(&self, gap: f64) -> f64 {
        let g = (gap * (1.0 - EDGE_SLACK) - self.slack_km).max(0.0);
        g * g
    }

    /// Index of the site nearest to `p` (ties broken by lowest index).
    pub fn nearest(&self, p: &Point) -> usize {
        self.locate(p).index as usize
    }

    /// Tag of the site nearest to `p` (the site [`SpatialIndex::nearest`]
    /// returns).
    pub fn nearest_tag(&self, p: &Point) -> u32 {
        self.locate(p).tag
    }

    /// The `(distance², index)` argmin over every site.
    #[inline(always)]
    fn locate(&self, p: &Point) -> Best {
        let (cx, cy) = self.cell_of(p);
        let x_lo = cx.saturating_sub(1);
        let x_hi = (cx + 1).min(self.nx - 1);
        let y_lo = cy.saturating_sub(1);
        let y_hi = (cy + 1).min(self.ny - 1);
        // Starting from (∞, 0) keeps the argmin exact when every distance
        // is infinite: site 0 is then the lowest-index minimum.
        let mut best = Best {
            d: f64::INFINITY,
            index: 0,
            tag: self.tag0,
        };
        // The fix's own row first; a neighbouring row is scanned only when
        // its edge is not already strictly farther than the best hit.
        best.offer(self.row(cy, x_lo, x_hi), p);
        let y0 = self.min_y + cy as f64 * self.cell_km;
        if cy > 0 && best.d >= self.gap_sq(p.y - y0) {
            best.offer(self.row(cy - 1, x_lo, x_hi), p);
        }
        if cy + 1 < self.ny && best.d >= self.gap_sq(y0 + self.cell_km - p.y) {
            best.offer(self.row(cy + 1, x_lo, x_hi), p);
        }
        if best.d < self.clearance_sq(p, x_lo, x_hi, y_lo, y_hi) {
            return best;
        }
        self.nearest_by_rings(p, cx, cy, best)
    }

    /// The exact fallback of [`SpatialIndex::locate`]: widens the scanned
    /// block one ring at a time, visiting only the new ring-boundary cells,
    /// until the best hit is inside the block's clearance or the block
    /// covers the grid.
    #[cold]
    fn nearest_by_rings(&self, p: &Point, cx: usize, cy: usize, mut best: Best) -> Best {
        for ring in 2.. {
            let x_lo = cx.saturating_sub(ring);
            let x_hi = (cx + ring).min(self.nx - 1);
            let y_lo = cy.saturating_sub(ring);
            let y_hi = (cy + ring).min(self.ny - 1);
            if cy >= ring {
                best.offer(self.row(cy - ring, x_lo, x_hi), p);
            }
            if cy + ring < self.ny {
                best.offer(self.row(cy + ring, x_lo, x_hi), p);
            }
            let inner_lo = cy.saturating_sub(ring - 1);
            let inner_hi = (cy + ring - 1).min(self.ny - 1);
            for y in inner_lo..=inner_hi {
                if cx >= ring {
                    best.offer(self.row(y, cx - ring, cx - ring), p);
                }
                if cx + ring < self.nx {
                    best.offer(self.row(y, cx + ring, cx + ring), p);
                }
            }
            let whole_grid = x_lo == 0 && y_lo == 0 && x_hi + 1 == self.nx && y_hi + 1 == self.ny;
            if whole_grid || best.d < self.clearance_sq(p, x_lo, x_hi, y_lo, y_hi) {
                break;
            }
        }
        best
    }

    /// Indices of all sites within `radius_km` of `p`, ascending.
    pub(crate) fn within(&self, p: &Point, radius_km: f64) -> Vec<usize> {
        let r2 = radius_km * radius_km;
        let (cx, cy) = self.cell_of(p);
        let ring = ((radius_km / self.cell_km).ceil() as usize).saturating_add(1);
        let x_lo = cx.saturating_sub(ring);
        let x_hi = cx.saturating_add(ring).min(self.nx - 1);
        let y_lo = cy.saturating_sub(ring);
        let y_hi = cy.saturating_add(ring).min(self.ny - 1);
        let mut out = Vec::new();
        for y in y_lo..=y_hi {
            for e in self.row(y, x_lo, x_hi) {
                if e.site.distance_sq(p) <= r2 {
                    out.push(e.index as usize);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn lattice(n: usize, step: f64) -> Vec<Point> {
        let side = (n as f64).sqrt().ceil() as usize;
        (0..n)
            .map(|i| Point::new((i % side) as f64 * step, (i / side) as f64 * step))
            .collect()
    }

    /// The linear-scan oracle: the argmin of `(site.distance_sq(p), index)`.
    fn linear_nearest(sites: &[Point], p: &Point) -> usize {
        (0..sites.len())
            .min_by(|&a, &b| {
                sites[a]
                    .distance_sq(p)
                    .total_cmp(&sites[b].distance_sq(p))
                    .then(a.cmp(&b))
            })
            .unwrap()
    }

    /// Asserts `nearest` is the oracle's index (not merely an equally
    /// distant site) for every probe.
    fn assert_exact(sites: &[Point], probes: &[Point]) -> Result<(), String> {
        let idx = SpatialIndex::build(sites);
        for p in probes {
            let (got, want) = (idx.nearest(p), linear_nearest(sites, p));
            if got != want {
                return Err(format!("probe {p:?}: got site {got}, want site {want}"));
            }
        }
        Ok(())
    }

    /// Two `N(0, σ²)` draws.
    fn gaussian(rng: &mut StdRng, sigma: f64) -> (f64, f64) {
        let r = (-2.0 * rng.gen_range(f64::EPSILON..1.0).ln()).sqrt() * sigma;
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        (r * theta.cos(), r * theta.sin())
    }

    /// City-like sites: dense Gaussian clusters of mixed spread over a
    /// sparse uniform background.
    fn clustered(rng: &mut StdRng, n: usize, clusters: usize) -> Vec<Point> {
        let centers: Vec<(f64, f64, f64)> = (0..clusters)
            .map(|_| {
                let spread = rng.gen_range(0.1..15.0);
                (rng.gen_range(0.0..400.0), rng.gen_range(0.0..250.0), spread)
            })
            .collect();
        (0..n)
            .map(|i| {
                if i % 8 == 0 {
                    Point::new(rng.gen_range(0.0..400.0), rng.gen_range(0.0..250.0))
                } else {
                    let (cx, cy, spread) = centers[rng.gen_range(0..clusters)];
                    let (dx, dy) = gaussian(rng, spread);
                    Point::new(cx + dx, cy + dy)
                }
            })
            .collect()
    }

    /// Probes that stress the block test: near sites, on sites, anywhere
    /// in (and well outside) the bounding box, and exactly on cell edges
    /// and corners.
    fn probes(rng: &mut StdRng, idx: &SpatialIndex, sites: &[Point]) -> Vec<Point> {
        let (x0, y0, cell) = (idx.min_x, idx.min_y, idx.cell_km);
        let (w, h) = (idx.nx as f64 * cell, idx.ny as f64 * cell);
        let mut out = Vec::new();
        for _ in 0..40 {
            let s = sites[rng.gen_range(0..sites.len())];
            let (dx, dy) = gaussian(rng, 2.0 * cell);
            out.push(Point::new(s.x + dx, s.y + dy));
            out.push(s);
        }
        for _ in 0..40 {
            out.push(Point::new(
                rng.gen_range(x0 - w..x0 + 2.0 * w),
                rng.gen_range(y0 - h..y0 + 2.0 * h),
            ));
        }
        for _ in 0..40 {
            let ex = x0 + rng.gen_range(0..idx.nx + 1) as f64 * cell;
            let ey = y0 + rng.gen_range(0..idx.ny + 1) as f64 * cell;
            out.push(Point::new(ex, ey));
            out.push(Point::new(ex, rng.gen_range(y0..y0 + h)));
            out.push(Point::new(rng.gen_range(x0..x0 + w), ey));
        }
        out.push(Point::new(x0 - 1e6, y0 - 1e6));
        out.push(Point::new(x0 + 1e6, y0 + 0.5 * h));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn nearest_is_the_linear_argmin_on_clustered_sites(
            seed in prop::num::u64::ANY,
            n in 1usize..400,
            clusters in 1usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let sites = clustered(&mut rng, n, clusters);
            let probes = probes(&mut rng, &SpatialIndex::build(&sites), &sites);
            prop_assert_eq!(assert_exact(&sites, &probes), Ok(()));
        }

        #[test]
        fn nearest_breaks_exact_ties_by_lowest_index(
            seed in prop::num::u64::ANY,
            n in 1usize..120,
            side in 1usize..9,
        ) {
            // Integer sites on a small lattice: many duplicates, and probes
            // on the half- and quarter-grid sit exactly equidistant from
            // several distinct sites (every distance is exact in f64).
            let mut rng = StdRng::seed_from_u64(seed);
            let sites: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0..side) as f64, rng.gen_range(0..side) as f64))
                .collect();
            let mut probes = Vec::new();
            for qx in 0..4 * side + 4 {
                for qy in 0..4 * side + 4 {
                    probes.push(Point::new(qx as f64 * 0.25 - 0.5, qy as f64 * 0.25 - 0.5));
                }
            }
            prop_assert_eq!(assert_exact(&sites, &probes), Ok(()));
        }

        #[test]
        fn nearest_is_exact_on_one_row_and_one_column_grids(
            seed in prop::num::u64::ANY,
            n in 1usize..200,
            level in -50.0f64..50.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
            let row: Vec<Point> = xs.iter().map(|&x| Point::new(x, level)).collect();
            let column: Vec<Point> = xs.iter().map(|&y| Point::new(level, y)).collect();
            for sites in [row, column] {
                let idx = SpatialIndex::build(&sites);
                prop_assert!(idx.nx * idx.ny <= 4 * (CELLS_PER_SITE as usize * n + 2));
                let probes = probes(&mut rng, &idx, &sites);
                prop_assert_eq!(assert_exact(&sites, &probes), Ok(()));
            }
        }

        #[test]
        fn within_is_the_linear_ball_on_clustered_sites(
            seed in prop::num::u64::ANY,
            n in 1usize..400,
            radius in 0.0f64..40.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let sites = clustered(&mut rng, n, 3);
            let idx = SpatialIndex::build(&sites);
            for p in probes(&mut rng, &idx, &sites).iter().step_by(7) {
                let want: Vec<usize> = (0..n)
                    .filter(|&i| sites[i].distance_sq(p) <= radius * radius)
                    .collect();
                prop_assert_eq!(idx.within(p, radius), want);
            }
        }
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let sites = lattice(400, 3.7);
        let probes = [
            Point::new(0.0, 0.0),
            Point::new(10.1, 22.9),
            Point::new(-5.0, -5.0),
            Point::new(100.0, 100.0),
            Point::new(37.0, 0.5),
            Point::new(f64::INFINITY, 3.0),
        ];
        assert_eq!(assert_exact(&sites, &probes), Ok(()));
    }

    #[test]
    fn cell_coord_is_the_clamped_floor_for_every_f64() {
        let floor_form = |v: f64, n: usize| (v.floor().max(0.0) as usize).min(n - 1);
        let edges = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            2.5,
            6.999_999_999_999_999,
            7.0,
            7.5,
            -0.5,
            -1.0,
            -1.5,
            -1e300,
            1e18,
            9_223_372_036_854_775_808.0,
            18_446_744_073_709_551_616.0,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(31);
        let random = (0..100_000).map(|_| f64::from_bits(rng.gen::<u64>()));
        for v in edges.into_iter().chain(random) {
            for n in [1, 2, 7, 8, 1 << 20] {
                assert_eq!(cell_coord(v, n), floor_form(v, n), "v {v:e}, n {n}");
            }
        }
    }

    #[test]
    fn nearest_tag_is_the_tag_of_the_nearest_site() {
        let mut rng = StdRng::seed_from_u64(17);
        let sites = clustered(&mut rng, 300, 4);
        let tags: Vec<u32> = (0..sites.len()).map(|_| rng.gen()).collect();
        let idx = SpatialIndex::build_tagged(&sites, &tags);
        let mut points = probes(&mut rng, &idx, &sites);
        points.push(Point::new(f64::NAN, 0.0));
        for p in points {
            assert_eq!(idx.nearest_tag(&p), tags[idx.nearest(&p)], "probe {p:?}");
        }
    }

    #[test]
    fn within_returns_exactly_the_ball() {
        let sites = lattice(100, 2.0);
        let idx = SpatialIndex::build(&sites);
        let p = Point::new(9.0, 9.0);
        let r = 4.5;
        let got = idx.within(&p, r);
        let want: Vec<usize> = sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.distance(&p) <= r)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn single_site_is_always_nearest() {
        let sites = [Point::new(5.0, 5.0)];
        let idx = SpatialIndex::build(&sites);
        assert_eq!(idx.nearest(&Point::new(-100.0, 40.0)), 0);
        let mut rng = StdRng::seed_from_u64(3);
        for p in probes(&mut rng, &idx, &sites) {
            assert_eq!(idx.nearest(&p), 0, "probe {p:?}");
        }
    }

    #[test]
    fn within_zero_radius_hits_exact_site_only() {
        let sites = lattice(16, 1.0);
        let idx = SpatialIndex::build(&sites);
        let hits = idx.within(&sites[5], 0.0);
        assert_eq!(hits, vec![5]);
    }

    #[test]
    #[should_panic(expected = "zero sites")]
    fn empty_index_is_rejected() {
        SpatialIndex::build(&[]);
    }
}
