//! The generated country: communes, cities, rail network, coverage.

use crate::builder;
use crate::commune::{Commune, CommuneId, UsageClass};
use crate::config::CountryConfig;
use crate::index::SpatialIndex;
use crate::point::Point;
use crate::rail::TgvLine;

/// A city seed of the population field.
#[derive(Debug, Clone)]
pub struct City {
    /// Centre on the country plane.
    pub center: Point,
    /// Population assigned to the city's halo.
    pub population: u64,
    /// Rank by population (0 = largest, the "capital").
    pub rank: usize,
}

/// A fully generated synthetic country.
///
/// Construction is deterministic in `(config, seed)`; all collections are
/// immutable after generation.
#[derive(Debug, Clone)]
pub struct Country {
    pub(crate) config: CountryConfig,
    pub(crate) communes: Vec<Commune>,
    pub(crate) cities: Vec<City>,
    pub(crate) tgv_lines: Vec<TgvLine>,
    pub(crate) index: SpatialIndex,
}

impl Country {
    /// Generates a country from a configuration and seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent: a non-positive size
    /// or commune count, more cities than communes, or a share or
    /// probability outside `[0, 1]`.
    pub fn generate(config: &CountryConfig, seed: u64) -> Self {
        builder::generate(config, seed)
    }

    /// The configuration the country was generated from.
    pub fn config(&self) -> &CountryConfig {
        &self.config
    }

    /// All communes, indexable by [`CommuneId::index`].
    pub fn communes(&self) -> &[Commune] {
        &self.communes
    }

    /// A commune by id.
    pub fn commune(&self, id: CommuneId) -> &Commune {
        &self.communes[id.index()]
    }

    /// City seeds, ordered by decreasing population.
    pub fn cities(&self) -> &[City] {
        &self.cities
    }

    /// High-speed rail lines.
    pub fn tgv_lines(&self) -> &[TgvLine] {
        &self.tgv_lines
    }

    /// Total resident population over all communes.
    pub fn total_population(&self) -> u64 {
        self.communes.iter().map(|c| c.population).sum()
    }

    /// The commune whose centroid is nearest to `p`.
    pub fn commune_at(&self, p: &Point) -> CommuneId {
        CommuneId(self.index.nearest(p) as u32)
    }

    /// Communes whose centroids lie within `radius_km` of `p`.
    pub fn communes_within(&self, p: &Point, radius_km: f64) -> Vec<CommuneId> {
        self.index
            .within(p, radius_km)
            .into_iter()
            .map(|i| CommuneId(i as u32))
            .collect()
    }

    /// Ids of communes in the given usage class.
    pub fn communes_in_class(&self, class: UsageClass) -> Vec<CommuneId> {
        self.communes
            .iter()
            .filter(|c| c.usage_class() == class)
            .map(|c| c.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commune::Urbanization;

    fn small_country() -> Country {
        Country::generate(&CountryConfig::small(), 7)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Country::generate(&CountryConfig::small(), 99);
        let b = Country::generate(&CountryConfig::small(), 99);
        assert_eq!(a.communes.len(), b.communes.len());
        for (ca, cb) in a.communes.iter().zip(b.communes.iter()) {
            assert_eq!(ca.population, cb.population);
            assert_eq!(ca.urbanization, cb.urbanization);
            assert_eq!(ca.on_tgv_corridor, cb.on_tgv_corridor);
            assert_eq!(ca.coverage, cb.coverage);
            assert_eq!(ca.centroid, cb.centroid);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Country::generate(&CountryConfig::small(), 1);
        let b = Country::generate(&CountryConfig::small(), 2);
        let same = a
            .communes
            .iter()
            .zip(b.communes.iter())
            .filter(|(x, y)| x.population == y.population)
            .count();
        assert!(
            same < a.communes.len(),
            "seeds must change the population field"
        );
    }

    #[test]
    fn population_is_conserved() {
        let cfg = CountryConfig::small();
        let country = Country::generate(&cfg, 3);
        let total = country.total_population();
        let want = cfg.total_population;
        let err = (total as f64 - want as f64).abs() / want as f64;
        assert!(err < 0.01, "population drifted: {total} vs {want}");
    }

    #[test]
    fn all_classes_are_present() {
        let country = small_country();
        let counts = UsageClass::ALL.map(|class| country.communes_in_class(class).len());
        for (class, &n) in UsageClass::ALL.iter().zip(&counts) {
            assert!(n > 0, "usage class {class:?} is empty");
        }
        // Rural communes dominate the count, as in France.
        assert!(
            counts[2] > counts[0],
            "rural should outnumber urban: {counts:?}"
        );
    }

    #[test]
    fn urban_density_exceeds_rural_density() {
        let country = small_country();
        let mean_density = |urb: Urbanization| {
            let ds: Vec<f64> = country
                .communes()
                .iter()
                .filter(|c| c.urbanization == urb)
                .map(|c| c.population as f64 / c.area_km2)
                .collect();
            ds.iter().sum::<f64>() / ds.len() as f64
        };
        assert!(mean_density(Urbanization::Urban) > 4.0 * mean_density(Urbanization::Rural));
    }

    #[test]
    fn tgv_class_lies_on_a_corridor() {
        let country = small_country();
        for id in country.communes_in_class(UsageClass::Tgv) {
            let c = country.commune(id);
            let d = country
                .tgv_lines()
                .iter()
                .map(|l| l.distance_to(&c.centroid))
                .fold(f64::INFINITY, f64::min);
            assert!(d <= country.config().tgv_corridor_km + 1e-9);
            assert_eq!(c.urbanization, Urbanization::Rural);
        }
    }

    #[test]
    fn coverage_has_urban_bias() {
        let country = Country::generate(&CountryConfig::medium(), 11);
        let rate_4g = |class: UsageClass| {
            let ids = country.communes_in_class(class);
            let covered = ids
                .iter()
                .filter(|id| country.commune(**id).coverage.has_4g)
                .count();
            covered as f64 / ids.len() as f64
        };
        assert!(rate_4g(UsageClass::Urban) > rate_4g(UsageClass::Rural) + 0.2);
    }

    #[test]
    fn commune_at_returns_nearest_centroid() {
        let country = small_country();
        for id in [0usize, 17, 311, 999] {
            let c = &country.communes()[id.min(country.communes().len() - 1)];
            assert_eq!(country.commune_at(&c.centroid), c.id);
        }
    }

    #[test]
    fn class_populations_sum_to_total() {
        let country = small_country();
        let sum: u64 = UsageClass::ALL
            .iter()
            .flat_map(|&class| country.communes_in_class(class))
            .map(|id| country.commune(id).population)
            .sum();
        assert_eq!(sum, country.total_population());
    }

    #[test]
    fn city_ranks_are_ordered_by_population() {
        let country = small_country();
        let cities = country.cities();
        for w in cities.windows(2) {
            assert!(w[0].population >= w[1].population);
        }
        for (i, c) in cities.iter().enumerate() {
            assert_eq!(c.rank, i);
        }
    }
}
