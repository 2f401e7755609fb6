//! Configuration of the synthetic country generator.

/// Parameters of the generated country.
///
/// The defaults are scaled-down France: the real study covers 550,000 km²,
/// 36,000+ communes and ~30 M subscribers of a single operator. A full-scale
/// country is available through [`CountryConfig::france_scale`]; analyses
/// and tests mostly run on [`CountryConfig::small`], which keeps the same
/// *shape* (urban fractions, Zipf city sizes, corridor coverage) at ~1/36 of
/// the commune count.
#[derive(Debug, Clone, PartialEq)]
pub struct CountryConfig {
    /// Width of the country plane, km.
    pub width_km: f64,
    /// Height of the country plane, km.
    pub height_km: f64,
    /// Number of communes to tessellate the plane with.
    pub n_communes: usize,
    /// Number of cities seeding the population field.
    pub n_cities: usize,
    /// Zipf exponent of city populations (rank 1 = largest).
    pub city_zipf_exponent: f64,
    /// Total resident population.
    pub total_population: u64,
    /// Share of the population that belongs to city cores (the rest is a
    /// uniform rural floor).
    pub city_population_share: f64,
    /// Exponential decay radius of a city's population halo, km, for the
    /// largest city; smaller cities scale by the cube root of relative size.
    pub city_halo_km: f64,
    /// Density above which a commune is classified urban (inhab/km²).
    pub urban_density_threshold: f64,
    /// Density above which a commune is classified semi-urban (inhab/km²).
    pub semi_urban_density_threshold: f64,
    /// Number of largest cities interconnected by high-speed rail.
    pub tgv_city_count: usize,
    /// Half-width of a TGV corridor, km: rural communes closer than this to
    /// a line are tagged as the TGV class.
    pub tgv_corridor_km: f64,
    /// Probability that a commune has 3G coverage, by usage-class index
    /// `[urban, semi-urban, rural, tgv]`.
    pub coverage_3g: [f64; 4],
    /// Probability that a commune has 4G coverage, by usage-class index.
    pub coverage_4g: [f64; 4],
}

impl CountryConfig {
    /// A ~1,000-commune country; fast enough for unit tests and examples.
    pub fn small() -> Self {
        CountryConfig {
            width_km: 160.0,
            height_km: 160.0,
            n_communes: 1_000,
            n_cities: 12,
            city_zipf_exponent: 1.07, // Zipf's law for city sizes
            total_population: 900_000,
            city_population_share: 0.72,
            city_halo_km: 5.0,
            urban_density_threshold: 500.0,
            semi_urban_density_threshold: 120.0,
            tgv_city_count: 4,
            tgv_corridor_km: 3.0,
            coverage_3g: [1.0, 0.999, 0.99, 0.995],
            coverage_4g: [0.99, 0.90, 0.52, 0.75],
        }
    }

    /// A mid-size country (~6,000 communes) used by the figure pipeline:
    /// large enough for stable spatial statistics, small enough to generate
    /// in seconds.
    pub fn medium() -> Self {
        CountryConfig {
            width_km: 420.0,
            height_km: 420.0,
            n_communes: 6_000,
            n_cities: 30,
            city_zipf_exponent: 1.07,
            total_population: 5_500_000,
            city_population_share: 0.70,
            city_halo_km: 8.0,
            urban_density_threshold: 500.0,
            semi_urban_density_threshold: 120.0,
            tgv_city_count: 6,
            tgv_corridor_km: 4.0,
            coverage_3g: [1.0, 0.999, 0.99, 0.995],
            coverage_4g: [0.99, 0.90, 0.52, 0.75],
        }
    }

    /// Full France scale: 36,000 communes over ~550,000 km², 30 M people.
    pub fn france_scale() -> Self {
        CountryConfig {
            width_km: 760.0,
            height_km: 720.0,
            n_communes: 36_000,
            n_cities: 60,
            city_zipf_exponent: 1.07,
            total_population: 30_000_000,
            city_population_share: 0.68,
            city_halo_km: 10.0,
            urban_density_threshold: 500.0,
            semi_urban_density_threshold: 120.0,
            tgv_city_count: 8,
            tgv_corridor_km: 5.0,
            coverage_3g: [1.0, 0.999, 0.99, 0.995],
            coverage_4g: [0.99, 0.90, 0.52, 0.75],
        }
    }

    /// The national measurement tier's geography: the paper's Table 1
    /// coverage (>36,000 communes, 30 M subscribers' home country) — the
    /// same map as [`CountryConfig::france_scale`], named separately so
    /// the paper-scale session tier can evolve its geography without
    /// disturbing the figure-scale preset.
    pub fn national() -> Self {
        CountryConfig::france_scale()
    }

    /// Average commune surface implied by the configuration, km².
    pub fn mean_commune_area(&self) -> f64 {
        self.width_km * self.height_km / self.n_communes as f64
    }

    /// Validates internal consistency; returns a description of the first
    /// violated constraint.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.width_km <= 0.0 || self.height_km <= 0.0 {
            return Err("country dimensions must be positive".into());
        }
        if self.n_communes == 0 {
            return Err("n_communes must be positive".into());
        }
        if self.n_cities == 0 || self.n_cities > self.n_communes {
            return Err("n_cities must be in 1..=n_communes".into());
        }
        if !(0.0..=1.0).contains(&self.city_population_share) {
            return Err("city_population_share must be in [0,1]".into());
        }
        if self.semi_urban_density_threshold >= self.urban_density_threshold {
            return Err("semi-urban threshold must be below urban threshold".into());
        }
        if self.tgv_city_count > self.n_cities {
            return Err("tgv_city_count cannot exceed n_cities".into());
        }
        for p in self.coverage_3g.iter().chain(self.coverage_4g.iter()) {
            if !(0.0..=1.0).contains(p) {
                return Err("coverage probabilities must be in [0,1]".into());
            }
        }
        Ok(())
    }
}

impl Default for CountryConfig {
    fn default() -> Self {
        CountryConfig::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        CountryConfig::small().validate().unwrap();
        CountryConfig::medium().validate().unwrap();
        CountryConfig::france_scale().validate().unwrap();
    }

    #[test]
    fn france_scale_matches_paper_magnitudes() {
        let cfg = CountryConfig::france_scale();
        // ~16 km² average commune, per §2 of the paper.
        let area = cfg.mean_commune_area();
        assert!(area > 10.0 && area < 20.0, "mean commune area {area}");
        assert_eq!(cfg.total_population, 30_000_000);
        assert_eq!(cfg.n_communes, 36_000);
    }

    #[test]
    fn validation_rejects_inconsistencies() {
        let mut cfg = CountryConfig::small();
        cfg.n_cities = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = CountryConfig::small();
        cfg.semi_urban_density_threshold = cfg.urban_density_threshold;
        assert!(cfg.validate().is_err());

        let mut cfg = CountryConfig::small();
        cfg.tgv_city_count = cfg.n_cities + 1;
        assert!(cfg.validate().is_err());

        let mut cfg = CountryConfig::small();
        cfg.coverage_4g[2] = 1.5;
        assert!(cfg.validate().is_err());

        let mut cfg = CountryConfig::small();
        cfg.width_km = -1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = CountryConfig::small();
        cfg.n_communes = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = CountryConfig::small();
        cfg.city_population_share = 1.2;
        assert!(cfg.validate().is_err());
    }
}
