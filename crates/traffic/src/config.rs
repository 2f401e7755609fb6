//! Configuration of the workload generator.

use crate::events::EventSpec;

/// Parameters of demand generation, independent of the country geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Operator market share: the fraction of residents that are
    /// subscribers (Orange held ≈ 45% of France's 65 M inhabitants: a 30 M
    /// subscriber base, §2).
    pub subscriber_share: f64,
    /// Number of tail services beyond the 20-head selection (the paper
    /// observes "over 500 mobile services", §3).
    pub n_tail_services: usize,
    /// σ of the log-normal *commune activity* factor shared by all
    /// services in a commune. This common component is what makes
    /// per-user maps of different services correlate (Figure 10).
    pub commune_taste_sigma: f64,
    /// σ of the log-normal *service-specific* taste factor per
    /// (commune, service) pair. The larger it is relative to
    /// [`TrafficConfig::commune_taste_sigma`], the lower the pairwise
    /// spatial correlation.
    pub service_taste_sigma: f64,
    /// Fraction of a TGV commune's demand that follows the train-schedule
    /// profile instead of the service's own profile (the remainder comes
    /// from the few residents).
    pub tgv_profile_weight: f64,
    /// σ of the log-normal volume jitter of individual sessions.
    pub session_volume_sigma: f64,
    /// σ of the multiplicative log-normal fluctuation applied to each
    /// (service, hour) of the weekly demand profile. Real aggregate demand
    /// is not a smooth curve — hour-to-hour fluctuations of a few percent
    /// are what keeps the smoothed z-score detector's trailing window
    /// honest (noise-free curves put it in pathological regimes no real
    /// dataset exhibits).
    pub hourly_noise_sigma: f64,
    /// Session thinning factor: sessions are generated at `1/volume_scale`
    /// of the natural rate, each carrying `volume_scale` times the volume.
    /// Aggregates are unbiased; only per-session granularity is coarsened.
    pub volume_scale: f64,
    /// Fraction of traffic volume the DPI stage can classify (the paper's
    /// proprietary classifier reaches 88%, §2).
    pub classified_fraction: f64,
    /// Extension: fraction of working-hours (9 am–6 pm, weekdays) sessions
    /// that happen at the subscriber's *work* commune, drawn from a gravity
    /// commuting model. 0 (the default) reproduces the paper's residential
    /// calibration; the ablation harness sweeps it.
    pub commuter_share: f64,
    /// Extension: gravity-model commute radius, km.
    pub commute_radius_km: f64,
    /// Extension: exceptional events injected into the week (empty by
    /// default — the paper deliberately picked an event-free week).
    pub events: Vec<EventSpec>,
}

impl TrafficConfig {
    /// Defaults matching the paper's reported magnitudes.
    pub fn standard() -> Self {
        TrafficConfig {
            subscriber_share: 0.45,
            n_tail_services: 480,
            commune_taste_sigma: 0.45,
            service_taste_sigma: 0.25,
            tgv_profile_weight: 0.85,
            session_volume_sigma: 0.8,
            hourly_noise_sigma: 0.005,
            volume_scale: 40.0,
            classified_fraction: 0.88,
            commuter_share: 0.0,
            commute_radius_km: 35.0,
            events: Vec::new(),
        }
    }

    /// A lighter configuration for unit tests: fewer tail services and
    /// stronger thinning.
    pub fn fast() -> Self {
        TrafficConfig {
            n_tail_services: 80,
            volume_scale: 200.0,
            ..Self::standard()
        }
    }

    /// The national measurement tier: [`TrafficConfig::standard`] with
    /// session thinning relaxed to `volume_scale = 10`, so a France-scale
    /// geography (30 M residents, 45% subscriber share) emits sessions at
    /// the paper's order of magnitude — ~10⁸ over the week — instead of
    /// the figure-generation tier's ~10⁶–10⁷.
    pub fn national() -> Self {
        TrafficConfig {
            volume_scale: 10.0,
            ..Self::standard()
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.subscriber_share) {
            return Err("subscriber_share must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.tgv_profile_weight) {
            return Err("tgv_profile_weight must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.classified_fraction) {
            return Err("classified_fraction must be in [0,1]".into());
        }
        if self.volume_scale < 1.0 {
            return Err("volume_scale must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.commuter_share) {
            return Err("commuter_share must be in [0,1]".into());
        }
        if self.commute_radius_km <= 0.0 {
            return Err("commute_radius_km must be positive".into());
        }
        for event in &self.events {
            event
                .validate()
                .map_err(|e| format!("event {:?}: {e}", event.name))?;
        }
        for (name, sigma) in [
            ("commune_taste_sigma", self.commune_taste_sigma),
            ("service_taste_sigma", self.service_taste_sigma),
            ("session_volume_sigma", self.session_volume_sigma),
            ("hourly_noise_sigma", self.hourly_noise_sigma),
        ] {
            if !(0.0..=3.0).contains(&sigma) {
                return Err(format!("{name} must be in [0,3]"));
            }
        }
        Ok(())
    }
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        TrafficConfig::standard().validate().unwrap();
        TrafficConfig::fast().validate().unwrap();
        TrafficConfig::national().validate().unwrap();
    }

    #[test]
    fn national_relaxes_thinning_only() {
        let national = TrafficConfig::national();
        let standard = TrafficConfig::standard();
        assert!(national.volume_scale < standard.volume_scale / 3.0);
        assert_eq!(national.n_tail_services, standard.n_tail_services);
        assert_eq!(national.subscriber_share, standard.subscriber_share);
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let mut c = TrafficConfig::standard();
        c.subscriber_share = 1.2;
        assert!(c.validate().is_err());

        let mut c = TrafficConfig::standard();
        c.volume_scale = 0.5;
        assert!(c.validate().is_err());

        let mut c = TrafficConfig::standard();
        c.commune_taste_sigma = 5.0;
        assert!(c.validate().is_err());

        let mut c = TrafficConfig::standard();
        c.classified_fraction = -0.1;
        assert!(c.validate().is_err());

        let mut c = TrafficConfig::standard();
        c.tgv_profile_weight = 2.0;
        assert!(c.validate().is_err());

        let mut c = TrafficConfig::standard();
        c.commuter_share = -0.1;
        assert!(c.validate().is_err());

        let mut c = TrafficConfig::standard();
        c.commute_radius_km = 0.0;
        assert!(c.validate().is_err());
    }
}
