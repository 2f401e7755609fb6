//! The radio access layer: base stations.
//!
//! The paper aggregates traffic by "associating each base station to the
//! commune where it is deployed" (§2). This module deploys stations —
//! population-proportional, at least one per commune.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mobilenet_geo::{CommuneId, Country, Point, SpatialIndex};

use crate::config::NetsimConfig;

/// A deployed base station, as the tests inspect it.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct BaseStation {
    /// Position on the country plane.
    pub position: Point,
    /// The commune hosting the station (the aggregation key).
    pub commune: CommuneId,
}

/// The deployed radio network with spatial lookup.
#[derive(Debug)]
pub struct RadioNetwork {
    /// The stations' positions, each tagged with its host commune; a
    /// station's index is its id.
    index: SpatialIndex,
    /// The deployed stations, kept for the tests' linear-scan oracles.
    #[cfg(test)]
    pub(crate) stations: Vec<BaseStation>,
}

impl RadioNetwork {
    /// Deploys stations over `country` according to `config`.
    pub fn deploy(country: &Country, config: &NetsimConfig, seed: u64) -> Self {
        config.validate().expect("invalid NetsimConfig");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7261_6469_6f6e_6574); // "radionet"

        let mut positions = Vec::new();
        let mut communes = Vec::new();
        for commune in country.communes() {
            let n = ((commune.population as f64 / 10_000.0 * config.stations_per_10k_pop).round()
                as usize)
                .max(1);
            let radius = (commune.area_km2 / std::f64::consts::PI).sqrt();
            for _ in 0..n {
                let r = radius * rng.gen::<f64>().sqrt();
                let theta = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
                let position = Point::new(
                    commune.centroid.x + r * theta.cos(),
                    commune.centroid.y + r * theta.sin(),
                );
                positions.push(position);
                communes.push(commune.id.0);
            }
        }
        RadioNetwork {
            index: SpatialIndex::build_tagged(&positions, &communes),
            #[cfg(test)]
            stations: positions
                .iter()
                .zip(&communes)
                .map(|(&position, &commune)| BaseStation {
                    position,
                    commune: CommuneId(commune),
                })
                .collect(),
        }
    }

    /// The station nearest to a (possibly noisy) position fix.
    #[cfg(test)]
    pub(crate) fn serving_station(&self, fix: &Point) -> &BaseStation {
        &self.stations[self.index.nearest(fix)]
    }

    /// The commune a position fix aggregates into: nearest station's
    /// hosting commune (the paper's ULI → station → commune chain), read
    /// from the index entry itself.
    pub fn commune_of_fix(&self, fix: &Point) -> CommuneId {
        CommuneId(self.index.nearest_tag(fix))
    }
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
        for s in &net.stations {
            covered[s.commune.index()] = true;
        }
        assert!(covered.iter().all(|&c| c), "some commune has no station");
        assert!(net.stations.len() >= country.communes().len());
    }

    #[test]
    fn station_density_tracks_population() {
        let (country, net) = network();
        let mut per_commune = vec![0usize; country.communes().len()];
        for s in &net.stations {
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
        for s in net.stations.iter().take(500) {
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
        assert!(
            hits as f64 / total as f64 > 0.6,
            "only {hits}/{total} self-hits"
        );
    }

    #[test]
    fn deployment_is_deterministic() {
        let country = Country::generate(&CountryConfig::small(), 4);
        let a = RadioNetwork::deploy(&country, &NetsimConfig::standard(), 9);
        let b = RadioNetwork::deploy(&country, &NetsimConfig::standard(), 9);
        assert_eq!(a.stations.len(), b.stations.len());
        assert_eq!(a.stations[5].position, b.stations[5].position);
    }
}
