//! The country generation algorithm.
//!
//! Generation proceeds in six deterministic stages, each seeded from the
//! caller's seed:
//!
//! 1. **Tessellation** — commune centroids on a jittered lattice covering
//!    the plane (France's communes average ≈ 16 km², i.e. a ≈ 4 km pitch).
//! 2. **Cities** — `n_cities` centres placed with a minimum-separation
//!    rule; populations follow a Zipf law in rank (Zipf's law for cities).
//! 3. **Population field** — each city spreads its population over nearby
//!    communes with exponential distance decay; a uniform (log-normally
//!    jittered) rural floor covers the rest.
//! 4. **Urbanization** — INSEE-like classification by population density.
//! 5. **Rail** — hub-and-spoke TGV lines between the largest cities; rural
//!    communes within the corridor width are flagged.
//! 6. **Coverage** — Bernoulli 3G/4G coverage with class-dependent rates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::commune::{Commune, CommuneId, Coverage, Urbanization};
use crate::config::CountryConfig;
use crate::country::{City, Country};
use crate::index::SpatialIndex;
use crate::point::Point;
use crate::rail::{hub_and_spoke, TgvLine};

/// Generates a [`Country`]; see the module docs for the algorithm.
pub(crate) fn generate(config: &CountryConfig, seed: u64) -> Country {
    config.validate().expect("invalid CountryConfig");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d6f_6269_6c65_6e65); // "mobilene"

    let centroids = tessellate(config, &mut rng);
    let index = SpatialIndex::build(&centroids);
    let cities = place_cities(config, &centroids, &mut rng);
    let populations = spread_population(config, &centroids, &cities, &index, &mut rng);
    let area = config.mean_commune_area();

    // Stage 4: urbanization by density.
    let urbanization: Vec<Urbanization> = populations
        .iter()
        .map(|&p| {
            let density = p as f64 / area;
            if density >= config.urban_density_threshold {
                Urbanization::Urban
            } else if density >= config.semi_urban_density_threshold {
                Urbanization::SemiUrban
            } else {
                Urbanization::Rural
            }
        })
        .collect();

    // Stage 5: rail corridors.
    let hubs: Vec<Point> = cities
        .iter()
        .take(config.tgv_city_count)
        .map(|c| c.center)
        .collect();
    let tgv_lines: Vec<TgvLine> = hub_and_spoke(&hubs);
    let on_corridor: Vec<bool> = centroids
        .iter()
        .map(|p| {
            tgv_lines
                .iter()
                .any(|l| l.covers(p, config.tgv_corridor_km))
        })
        .collect();

    // Stage 6: coverage.
    let communes: Vec<Commune> = (0..centroids.len())
        .map(|i| {
            let class_idx = match (urbanization[i], on_corridor[i]) {
                (Urbanization::Rural, true) => 3,
                (Urbanization::Urban, _) => 0,
                (Urbanization::SemiUrban, _) => 1,
                (Urbanization::Rural, false) => 2,
            };
            let has_3g = rng.gen::<f64>() < config.coverage_3g[class_idx];
            let has_4g = rng.gen::<f64>() < config.coverage_4g[class_idx];
            Commune {
                id: CommuneId(i as u32),
                centroid: centroids[i],
                area_km2: area,
                population: populations[i],
                urbanization: urbanization[i],
                on_tgv_corridor: on_corridor[i],
                coverage: Coverage { has_3g, has_4g },
            }
        })
        .collect();

    Country {
        config: config.clone(),
        communes,
        cities,
        tgv_lines,
        index,
    }
}

/// Stage 1: jittered-lattice tessellation.
fn tessellate(config: &CountryConfig, rng: &mut StdRng) -> Vec<Point> {
    let n = config.n_communes;
    let aspect = config.width_km / config.height_km;
    let nx = ((n as f64 * aspect).sqrt().round() as usize).max(1);
    let ny = n.div_ceil(nx);
    let step_x = config.width_km / nx as f64;
    let step_y = config.height_km / ny as f64;
    let mut points = Vec::with_capacity(n);
    'outer: for gy in 0..ny {
        for gx in 0..nx {
            if points.len() == n {
                break 'outer;
            }
            let jx = rng.gen_range(-0.35..0.35) * step_x;
            let jy = rng.gen_range(-0.35..0.35) * step_y;
            points.push(Point::new(
                (gx as f64 + 0.5) * step_x + jx,
                (gy as f64 + 0.5) * step_y + jy,
            ));
        }
    }
    points
}

/// Stage 2: city placement with minimum separation, Zipf populations.
fn place_cities(config: &CountryConfig, centroids: &[Point], rng: &mut StdRng) -> Vec<City> {
    let min_sep = (config.width_km.min(config.height_km)) / (config.n_cities as f64).sqrt() / 1.5;
    let mut centers: Vec<Point> = Vec::with_capacity(config.n_cities);
    let margin_x = config.width_km * 0.06;
    let margin_y = config.height_km * 0.06;
    for _ in 0..config.n_cities {
        let mut placed = None;
        for _attempt in 0..200 {
            let cand = Point::new(
                rng.gen_range(margin_x..config.width_km - margin_x),
                rng.gen_range(margin_y..config.height_km - margin_y),
            );
            if centers.iter().all(|c| c.distance(&cand) >= min_sep) {
                placed = Some(cand);
                break;
            }
        }
        // After many failures accept any position: separation is a
        // preference, not an invariant.
        centers.push(placed.unwrap_or_else(|| {
            Point::new(
                rng.gen_range(margin_x..config.width_km - margin_x),
                rng.gen_range(margin_y..config.height_km - margin_y),
            )
        }));
    }
    // Snap each city to the nearest commune centroid so a city is always a
    // real place.
    let idx = SpatialIndex::build(centroids);
    for c in &mut centers {
        *c = centroids[idx.nearest(c)];
    }

    let city_pop = (config.total_population as f64 * config.city_population_share).round();
    let mut weights: Vec<f64> = (1..=config.n_cities)
        .map(|r| (r as f64).powf(-config.city_zipf_exponent))
        .collect();
    let wsum: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= wsum;
    }
    centers
        .into_iter()
        .enumerate()
        .map(|(rank, center)| City {
            center,
            population: (city_pop * weights[rank]).round() as u64,
            rank,
        })
        .collect()
}

/// Stage 3: distance-decay population spreading plus the rural floor.
fn spread_population(
    config: &CountryConfig,
    centroids: &[Point],
    cities: &[City],
    index: &SpatialIndex,
    rng: &mut StdRng,
) -> Vec<u64> {
    let n = centroids.len();
    let mut field = vec![0f64; n];

    // Rural floor with log-normal jitter (σ = 0.6 keeps the jitter mild).
    let rural_total = config.total_population as f64 * (1.0 - config.city_population_share);
    let per_commune = rural_total / n as f64;
    let sigma = 0.6f64;
    let mu = -sigma * sigma / 2.0; // unit-mean log-normal
    let mut floor_sum = 0.0;
    for f in field.iter_mut() {
        // Box–Muller standard normal.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let jitter = (mu + sigma * z).exp();
        *f = per_commune * jitter;
        floor_sum += *f;
    }
    // Renormalize the floor so jitter does not change the rural total.
    if floor_sum > 0.0 {
        let k = rural_total / floor_sum;
        for f in field.iter_mut() {
            *f *= k;
        }
    }

    // City halos: exponential decay with a radius shrinking as the cube
    // root of relative city size (bigger cities spread farther).
    let largest = cities.first().map(|c| c.population.max(1)).unwrap_or(1);
    for city in cities {
        let rel = city.population as f64 / largest as f64;
        let halo = (config.city_halo_km * rel.cbrt()).max(config.mean_commune_area().sqrt());
        let reach = halo * 5.0;
        let members = index.within(&city.center, reach);
        let mut weights = Vec::with_capacity(members.len());
        let mut wsum = 0.0;
        for &m in &members {
            let d = centroids[m].distance(&city.center);
            let w = (-d / halo).exp();
            weights.push(w);
            wsum += w;
        }
        if wsum <= 0.0 {
            continue;
        }
        for (&m, &w) in members.iter().zip(weights.iter()) {
            field[m] += city.population as f64 * w / wsum;
        }
    }

    field
        .into_iter()
        .map(|f| f.round().max(0.0) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tessellation_fills_the_plane() {
        let cfg = CountryConfig::small();
        let mut rng = StdRng::seed_from_u64(1);
        let pts = tessellate(&cfg, &mut rng);
        assert_eq!(pts.len(), cfg.n_communes);
        for p in &pts {
            assert!(p.x > -10.0 && p.x < cfg.width_km + 10.0);
            assert!(p.y > -10.0 && p.y < cfg.height_km + 10.0);
        }
        // Lattice points must not collide.
        let mut min_d = f64::INFINITY;
        for i in 0..50 {
            for j in (i + 1)..50 {
                min_d = min_d.min(pts[i].distance(&pts[j]));
            }
        }
        assert!(min_d > 0.1, "centroids too close: {min_d}");
    }

    #[test]
    fn city_populations_follow_zipf_ranks() {
        let cfg = CountryConfig::small();
        let mut rng = StdRng::seed_from_u64(2);
        let pts = tessellate(&cfg, &mut rng);
        let cities = place_cities(&cfg, &pts, &mut rng);
        assert_eq!(cities.len(), cfg.n_cities);
        for w in cities.windows(2) {
            assert!(w[0].population >= w[1].population);
        }
        // Rank-1 city is within 2^zipf of twice rank-2 (Zipf shape).
        let ratio = cities[0].population as f64 / cities[1].population as f64;
        assert!(ratio > 1.5 && ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn population_field_conserves_total() {
        let cfg = CountryConfig::small();
        let mut rng = StdRng::seed_from_u64(3);
        let pts = tessellate(&cfg, &mut rng);
        let index = SpatialIndex::build(&pts);
        let cities = place_cities(&cfg, &pts, &mut rng);
        let pops = spread_population(&cfg, &pts, &cities, &index, &mut rng);
        let total: u64 = pops.iter().sum();
        let err = (total as f64 - cfg.total_population as f64).abs() / cfg.total_population as f64;
        assert!(err < 0.01, "total {total}");
    }

    #[test]
    fn population_decays_away_from_the_capital() {
        let cfg = CountryConfig::small();
        let country = generate(&cfg, 5);
        let capital = &country.cities()[0];
        let near = country.commune_at(&capital.center);
        let near_pop = country.commune(near).population;
        // The commune hosting the capital should hold far more people than
        // the median commune.
        let mut pops: Vec<u64> = country.communes().iter().map(|c| c.population).collect();
        pops.sort_unstable();
        let median = pops[pops.len() / 2];
        assert!(near_pop > 10 * median, "near {near_pop}, median {median}");
    }
}
