//! Per-service spatial affinities.
//!
//! §5 of the paper establishes that per-subscriber demand scales with the
//! urbanization level — semi-urban ≈ urban, rural ≈ half of urban, TGV
//! corridors ≥ twice urban (Figure 11 top) — while most services share the
//! same geography (Figure 10). The two named outliers get their own
//! profiles: **Netflix** is "almost completely absent in rural areas" and
//! tracks 4G coverage; **iCloud** "pushes uplink data from all iPhones" and
//! is nearly uniform over the country.

use mobilenet_geo::{Commune, UsageClass};

/// Spatial affinity of a service: how much a subscriber of each usage class
/// consumes relative to an urban subscriber, plus technology gating.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialProfile {
    /// Per-subscriber multipliers indexed by [`UsageClass::index`]
    /// (`[urban, semi-urban, rural, tgv]`); urban is 1.0 by convention.
    pub class_mult: [f64; 4],
    /// Fraction of the service's demand that requires 4G coverage: in a
    /// commune without 4G only `1 − fourg_share` of the demand survives
    /// (Figure 9 right: Netflix usage follows the 4G footprint).
    pub fourg_share: f64,
}

impl SpatialProfile {
    /// The typical profile of Figure 11: semi-urban ≈ urban, rural ≈ half,
    /// TGV ≥ 2×, mild 4G dependence.
    pub(crate) fn typical() -> Self {
        SpatialProfile {
            class_mult: [1.0, 0.95, 0.5, 3.2],
            fourg_share: 0.30,
        }
    }

    /// Netflix-like: high-end service, nearly absent in rural France,
    /// strongly 4G-dependent.
    pub(crate) fn high_end_urban() -> Self {
        SpatialProfile {
            class_mult: [1.0, 0.75, 0.06, 3.4],
            fourg_share: 0.85,
        }
    }

    /// iCloud-like: background sync from every handset, nearly uniform.
    pub(crate) fn uniform() -> Self {
        SpatialProfile {
            class_mult: [1.0, 1.0, 0.92, 1.15],
            fourg_share: 0.15,
        }
    }

    /// A custom profile.
    pub(crate) fn new(class_mult: [f64; 4], fourg_share: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fourg_share),
            "fourg_share must be in [0,1]"
        );
        assert!(
            class_mult.iter().all(|m| *m >= 0.0 && m.is_finite()),
            "class multipliers must be finite and non-negative"
        );
        SpatialProfile {
            class_mult,
            fourg_share,
        }
    }

    /// Multiplier for a usage class.
    #[inline]
    pub(crate) fn multiplier(&self, class: UsageClass) -> f64 {
        self.class_mult[class.index()]
    }

    /// Effective per-subscriber demand factor in `commune`, combining the
    /// usage-class multiplier with coverage gating: no service without
    /// radio coverage, and the 4G-dependent fraction of the demand needs a
    /// 4G layer.
    pub(crate) fn commune_factor(&self, commune: &Commune) -> f64 {
        if !commune.coverage.any() {
            return 0.0;
        }
        let base = self.multiplier(commune.usage_class());
        let tech = if commune.coverage.has_4g {
            1.0
        } else {
            1.0 - self.fourg_share
        };
        base * tech
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobilenet_geo::{Commune, CommuneId, Coverage, Point, Urbanization};

    fn commune(urb: Urbanization, tgv: bool, coverage: Coverage) -> Commune {
        Commune {
            id: CommuneId(0),
            centroid: Point::new(0.0, 0.0),
            area_km2: 16.0,
            population: 500,
            urbanization: urb,
            on_tgv_corridor: tgv,
            coverage,
        }
    }

    #[test]
    fn typical_profile_matches_figure_11_shape() {
        let p = SpatialProfile::typical();
        assert_eq!(p.multiplier(UsageClass::Urban), 1.0);
        assert!((p.multiplier(UsageClass::SemiUrban) - 1.0).abs() < 0.2);
        assert!((p.multiplier(UsageClass::Rural) - 0.5).abs() < 0.1);
        assert!(p.multiplier(UsageClass::Tgv) >= 2.0);
    }

    #[test]
    fn netflix_profile_starves_rural() {
        let p = SpatialProfile::high_end_urban();
        assert!(p.multiplier(UsageClass::Rural) < 0.1);
        assert!(p.fourg_share > 0.5);
    }

    #[test]
    fn uniform_profile_is_flat() {
        let p = SpatialProfile::uniform();
        for class in UsageClass::ALL {
            assert!((p.multiplier(class) - 1.0).abs() < 0.2, "{class:?}");
        }
    }

    #[test]
    fn commune_factor_gates_on_coverage() {
        let p = SpatialProfile::new([1.0, 1.0, 1.0, 1.0], 0.8);
        let full = commune(Urbanization::Urban, false, Coverage::FULL);
        let g3 = commune(Urbanization::Urban, false, Coverage::G3_ONLY);
        let dead = commune(Urbanization::Urban, false, Coverage::NONE);
        assert!((p.commune_factor(&full) - 1.0).abs() < 1e-12);
        assert!((p.commune_factor(&g3) - 0.2).abs() < 1e-12);
        assert_eq!(p.commune_factor(&dead), 0.0);
    }

    #[test]
    fn commune_factor_uses_usage_class() {
        let p = SpatialProfile::typical();
        let rural = commune(Urbanization::Rural, false, Coverage::FULL);
        let tgv = commune(Urbanization::Rural, true, Coverage::FULL);
        assert!(p.commune_factor(&tgv) > 4.0 * p.commune_factor(&rural));
    }

    #[test]
    #[should_panic(expected = "fourg_share")]
    fn invalid_fourg_share_is_rejected() {
        SpatialProfile::new([1.0; 4], 1.5);
    }

    #[test]
    #[should_panic(expected = "multipliers")]
    fn negative_multiplier_is_rejected() {
        SpatialProfile::new([1.0, -0.5, 1.0, 1.0], 0.2);
    }
}
