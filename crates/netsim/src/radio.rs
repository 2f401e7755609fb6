//! The radio access layer: base stations and routing/tracking areas.
//!
//! The paper aggregates traffic by "associating each base station to the
//! commune where it is deployed" (§2). This module deploys stations —
//! population-proportional, at least one per commune — and groups them
//! into routing/tracking areas (RA/TA), the granularity at which a stale
//! ULI localizes a user.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mobilenet_geo::{CommuneId, Country, Point, SpatialIndex};

use crate::config::NetsimConfig;

/// A deployed base station.
#[derive(Debug, Clone)]
pub struct BaseStation {
    /// Dense station identifier.
    pub id: u32,
    /// Position on the country plane.
    pub position: Point,
    /// The commune hosting the station (the aggregation key).
    pub commune: CommuneId,
    /// The routing/tracking area containing the station.
    pub routing_area: u32,
}

/// The deployed radio network with spatial lookup.
#[derive(Debug)]
pub struct RadioNetwork {
    stations: Vec<BaseStation>,
    index: SpatialIndex,
}

impl RadioNetwork {
    /// Deploys stations over `country` according to `config`.
    pub fn deploy(country: &Country, config: &NetsimConfig, seed: u64) -> Self {
        config.validate().expect("invalid NetsimConfig");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7261_6469_6f6e_6574); // "radionet"
        let width = country.config().width_km;
        let ra_cols = (width / config.routing_area_km).ceil().max(1.0) as u32;

        let mut stations = Vec::new();
        for commune in country.communes() {
            let n = ((commune.population as f64 / 10_000.0 * config.stations_per_10k_pop)
                .round() as usize)
                .max(1);
            let radius = (commune.area_km2 / std::f64::consts::PI).sqrt();
            for _ in 0..n {
                let r = radius * rng.gen::<f64>().sqrt();
                let theta = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
                let position = Point::new(
                    commune.centroid.x + r * theta.cos(),
                    commune.centroid.y + r * theta.sin(),
                );
                let ra = routing_area_of(&position, config.routing_area_km, ra_cols);
                stations.push(BaseStation {
                    id: stations.len() as u32,
                    position,
                    commune: commune.id,
                    routing_area: ra,
                });
            }
        }
        let points: Vec<Point> = stations.iter().map(|s| s.position).collect();
        let index = SpatialIndex::build(&points);
        RadioNetwork { stations, index }
    }

    /// All deployed stations.
    pub fn stations(&self) -> &[BaseStation] {
        &self.stations
    }

    /// The station nearest to a (possibly noisy) position fix.
    pub fn serving_station(&self, fix: &Point) -> &BaseStation {
        &self.stations[self.index.nearest(fix)]
    }

    /// The commune a position fix aggregates into: nearest station's
    /// hosting commune (the paper's ULI → station → commune chain).
    pub fn commune_of_fix(&self, fix: &Point) -> CommuneId {
        self.serving_station(fix).commune
    }
}

/// Grid-cell routing-area id of a position.
fn routing_area_of(p: &Point, cell_km: f64, cols: u32) -> u32 {
    let cx = (p.x / cell_km).floor().max(0.0) as u32;
    let cy = (p.y / cell_km).floor().max(0.0) as u32;
    cy * cols + cx.min(cols - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobilenet_geo::CountryConfig;

    fn network() -> (Country, RadioNetwork) {
        let country = Country::generate(&CountryConfig::small(), 4);
        let net = RadioNetwork::deploy(&country, &NetsimConfig::standard(), 9);
        (country, net)
    }

    #[test]
    fn every_commune_hosts_a_station() {
        let (country, net) = network();
        let mut covered = vec![false; country.communes().len()];
        for s in net.stations() {
            covered[s.commune.index()] = true;
        }
        assert!(covered.iter().all(|&c| c), "some commune has no station");
        assert!(net.stations().len() >= country.communes().len());
    }

    #[test]
    fn station_density_tracks_population() {
        let (country, net) = network();
        let mut per_commune = vec![0usize; country.communes().len()];
        for s in net.stations() {
            per_commune[s.commune.index()] += 1;
        }
        let densest = country
            .communes()
            .iter()
            .max_by_key(|c| c.population)
            .unwrap();
        let sparsest = country
            .communes()
            .iter()
            .min_by_key(|c| c.population)
            .unwrap();
        assert!(per_commune[densest.id.index()] > per_commune[sparsest.id.index()]);
    }

    #[test]
    fn stations_sit_inside_their_commune_disc() {
        let (country, net) = network();
        for s in net.stations().iter().take(500) {
            let c = country.commune(s.commune);
            let max_r = (c.area_km2 / std::f64::consts::PI).sqrt() + 1e-9;
            assert!(s.position.distance(&c.centroid) <= max_r);
        }
    }

    #[test]
    fn exact_fix_maps_to_host_commune_mostly() {
        // A fix exactly at a commune centroid should usually map back to
        // that commune (stations of neighbouring communes can be closer
        // only near borders).
        let (country, net) = network();
        let mut hits = 0;
        let total = 200;
        for c in country.communes().iter().take(total) {
            if net.commune_of_fix(&c.centroid) == c.id {
                hits += 1;
            }
        }
        assert!(hits as f64 / total as f64 > 0.6, "only {hits}/{total} self-hits");
    }

    #[test]
    fn routing_areas_partition_the_stations() {
        let (_, net) = network();
        // Mean position of each routing area's member stations.
        let mut sums = std::collections::BTreeMap::<u32, (f64, f64, usize)>::new();
        for s in net.stations() {
            let e = sums.entry(s.routing_area).or_default();
            e.0 += s.position.x;
            e.1 += s.position.y;
            e.2 += 1;
        }
        let n = sums.len();
        // 160 km plane with 40 km cells → at most ~16 populated areas.
        assert!((4..=32).contains(&n), "{n} routing areas");
        for s in net.stations().iter().take(100) {
            let (x, y, count) = sums[&s.routing_area];
            let centroid = Point::new(x / count as f64, y / count as f64);
            assert!(s.position.distance(&centroid) < 80.0);
        }
    }

    #[test]
    fn deployment_is_deterministic() {
        let country = Country::generate(&CountryConfig::small(), 4);
        let a = RadioNetwork::deploy(&country, &NetsimConfig::standard(), 9);
        let b = RadioNetwork::deploy(&country, &NetsimConfig::standard(), 9);
        assert_eq!(a.stations().len(), b.stations().len());
        assert_eq!(a.stations()[5].position, b.stations()[5].position);
    }
}
