//! Gravity-model commuting — an optional realism extension.
//!
//! The paper's maps (Figure 9) light up along transport arteries partly
//! because subscribers consume traffic *where they are*, not where they
//! live. This module adds classic gravity-model commuting: each commune's
//! workers distribute over nearby work communes with attraction
//! proportional to destination "employment mass" (population, boosted in
//! cities) and inversely to squared distance. When
//! [`TrafficConfig::commuter_share`](crate::config::TrafficConfig) is
//! positive, the session sampler relocates that share of working-hours
//! sessions to the user's work commune.
//!
//! The extension is off by default (`commuter_share = 0`): the paper's
//! figures are calibrated on the residential model, and the ablation
//! harness quantifies what commuting changes (daytime urban
//! concentration, spatial autocorrelation).

use mobilenet_geo::{Country, UsageClass};
use rand::rngs::StdRng;
use rand::Rng;

/// Maximum work destinations retained per home commune.
const TOP_K: usize = 24;
/// Minimum effective distance, km (prevents the self-flow from diverging).
const MIN_DISTANCE_KM: f64 = 2.0;

/// Per-commune commuting distributions.
#[derive(Debug, Clone)]
pub(crate) struct MobilityModel {
    /// For each home commune: `(work commune, cumulative probability)`,
    /// cumulative ascending to 1.0.
    flows: Vec<Vec<(u32, f64)>>,
}

impl MobilityModel {
    /// Builds gravity flows over `country`: candidates within `radius_km`,
    /// attraction `employment(j) / max(d, 2 km)^exponent`. Deterministic —
    /// no randomness enters the flow construction.
    ///
    /// # Panics
    ///
    /// Panics unless `radius_km > 0` and `exponent > 0`.
    pub(crate) fn gravity(country: &Country, radius_km: f64, exponent: f64) -> Self {
        assert!(radius_km > 0.0, "radius must be positive");
        assert!(exponent > 0.0, "exponent must be positive");
        let employment: Vec<f64> = country
            .communes()
            .iter()
            .map(|c| {
                let boost = match c.usage_class() {
                    UsageClass::Urban => 1.6,
                    UsageClass::SemiUrban => 1.2,
                    UsageClass::Rural | UsageClass::Tgv => 0.7,
                };
                c.population as f64 * boost
            })
            .collect();

        let flows = country
            .communes()
            .iter()
            .map(|home| {
                let mut candidates: Vec<(u32, f64)> = country
                    .communes_within(&home.centroid, radius_km)
                    .into_iter()
                    .map(|id| {
                        let j = id.index();
                        let d = country.communes()[j]
                            .centroid
                            .distance(&home.centroid)
                            .max(MIN_DISTANCE_KM);
                        (id.0, employment[j] / d.powf(exponent))
                    })
                    .filter(|(_, w)| *w > 0.0)
                    .collect();
                if candidates.is_empty() {
                    // Degenerate geography: everyone works at home.
                    candidates.push((home.id.0, 1.0));
                }
                candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
                candidates.truncate(TOP_K);
                let total: f64 = candidates.iter().map(|(_, w)| w).sum();
                let mut acc = 0.0;
                candidates
                    .into_iter()
                    .map(|(id, w)| {
                        acc += w / total;
                        (id, acc)
                    })
                    .collect()
            })
            .collect();
        MobilityModel { flows }
    }

    /// Samples a work commune for a resident of `home`.
    pub(crate) fn sample_work(&self, home: usize, rng: &mut StdRng) -> u32 {
        let flows = &self.flows[home];
        let u: f64 = rng.gen();
        match flows.binary_search_by(|(_, c)| c.partial_cmp(&u).unwrap()) {
            Ok(i) => flows[(i + 1).min(flows.len() - 1)].0,
            Err(i) => flows[i.min(flows.len() - 1)].0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobilenet_geo::CountryConfig;
    use rand::SeedableRng;

    fn model() -> (Country, MobilityModel) {
        let country = Country::generate(&CountryConfig::small(), 5);
        let mobility = MobilityModel::gravity(&country, 35.0, 2.0);
        (country, mobility)
    }

    /// Expected fraction of `home`'s workers who stay in their own commune.
    fn self_containment(m: &MobilityModel, home: usize) -> f64 {
        let mut prev = 0.0;
        for &(id, cum) in &m.flows[home] {
            if id as usize == home {
                return cum - prev;
            }
            prev = cum;
        }
        0.0
    }

    #[test]
    fn flows_are_cumulative_distributions() {
        let (country, m) = model();
        assert_eq!(m.flows.len(), country.communes().len());
        for home in 0..m.flows.len() {
            let flows = &m.flows[home];
            assert!(!flows.is_empty());
            assert!(flows.len() <= TOP_K);
            let mut prev = 0.0;
            for &(_, cum) in flows {
                assert!(cum >= prev - 1e-12);
                prev = cum;
            }
            assert!((prev - 1.0).abs() < 1e-9, "home {home}: total {prev}");
        }
    }

    #[test]
    fn commuters_flow_toward_cities() {
        let (country, m) = model();
        // A rural commune near the capital sends a meaningful share of its
        // workers to urban/semi-urban communes.
        let capital = &country.cities()[0];
        let near_rural = country
            .communes()
            .iter()
            .find(|c| {
                c.usage_class() == UsageClass::Rural && c.centroid.distance(&capital.center) < 25.0
            })
            .expect("rural commune near the capital");
        let mut rng = StdRng::seed_from_u64(3);
        let mut to_city = 0;
        let n = 2000;
        for _ in 0..n {
            let work = m.sample_work(near_rural.id.index(), &mut rng) as usize;
            if matches!(
                country.communes()[work].usage_class(),
                UsageClass::Urban | UsageClass::SemiUrban
            ) {
                to_city += 1;
            }
        }
        assert!(
            to_city as f64 / n as f64 > 0.2,
            "only {to_city}/{n} commute to cities"
        );
    }

    #[test]
    fn distance_decay_keeps_most_work_local() {
        let (_, m) = model();
        // Averaged over communes, the self-flow dominates any single
        // remote destination.
        let mean_self: f64 = (0..m.flows.len())
            .map(|h| self_containment(&m, h))
            .sum::<f64>()
            / m.flows.len() as f64;
        assert!(mean_self > 0.15, "mean self-containment {mean_self}");
    }

    #[test]
    fn sampling_matches_the_distribution() {
        let (_, m) = model();
        let home = 100;
        let flows = &m.flows[home];
        let first = flows[0].0;
        let p_first = flows[0].1;
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| m.sample_work(home, &mut rng) == first)
            .count();
        let p_hat = hits as f64 / n as f64;
        assert!(
            (p_hat - p_first).abs() < 0.02,
            "estimated {p_hat} vs designed {p_first}"
        );
    }

    #[test]
    fn gravity_is_deterministic() {
        let country = Country::generate(&CountryConfig::small(), 5);
        let a = MobilityModel::gravity(&country, 35.0, 2.0);
        let b = MobilityModel::gravity(&country, 35.0, 2.0);
        for h in (0..a.flows.len()).step_by(97) {
            assert_eq!(a.flows[h], b.flows[h]);
        }
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn zero_radius_is_rejected() {
        let country = Country::generate(&CountryConfig::small(), 5);
        MobilityModel::gravity(&country, 0.0, 2.0);
    }
}
