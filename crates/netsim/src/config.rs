//! Configuration of the measurement pipeline.

/// Parameters of the simulated collection apparatus.
#[derive(Debug, Clone, PartialEq)]
pub struct NetsimConfig {
    /// Target median localization error of ULI fixes, km (the paper cites
    /// ≈ 3 km from prior work on AccuLoc).
    pub uli_median_error_km: f64,
    /// Probability that a session's ULI is stale (not updated since a
    /// routing-area change), which displaces the fix at RA scale.
    pub uli_stale_prob: f64,
    /// Displacement scale of a stale ULI fix, km.
    pub uli_stale_error_km: f64,
    /// Base stations per 10,000 residents (at least one per commune).
    pub stations_per_10k_pop: f64,
}

impl NetsimConfig {
    /// Defaults matching the paper's reported magnitudes.
    pub fn standard() -> Self {
        NetsimConfig {
            uli_median_error_km: 3.0,
            uli_stale_prob: 0.12,
            uli_stale_error_km: 12.0,
            stations_per_10k_pop: 3.0,
        }
    }

    /// A perfect-localization variant, the tests' fixture.
    #[cfg(test)]
    pub(crate) fn ideal() -> Self {
        NetsimConfig {
            uli_median_error_km: 0.0,
            uli_stale_prob: 0.0,
            uli_stale_error_km: 0.0,
            ..Self::standard()
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.uli_median_error_km < 0.0 || !self.uli_median_error_km.is_finite() {
            return Err("uli_median_error_km must be finite and non-negative".into());
        }
        if !(0.0..=1.0).contains(&self.uli_stale_prob) {
            return Err("uli_stale_prob must be in [0,1]".into());
        }
        if self.uli_stale_error_km < 0.0 {
            return Err("uli_stale_error_km must be non-negative".into());
        }
        if self.stations_per_10k_pop <= 0.0 {
            return Err("stations_per_10k_pop must be positive".into());
        }
        Ok(())
    }
}

impl Default for NetsimConfig {
    fn default() -> Self {
        NetsimConfig::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        NetsimConfig::standard().validate().unwrap();
        NetsimConfig::ideal().validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = NetsimConfig::standard();
        c.uli_median_error_km = -1.0;
        assert!(c.validate().is_err());

        let mut c = NetsimConfig::standard();
        c.uli_stale_prob = 1.5;
        assert!(c.validate().is_err());

        let mut c = NetsimConfig::standard();
        c.stations_per_10k_pop = 0.0;
        assert!(c.validate().is_err());

        let mut c = NetsimConfig::standard();
        c.uli_stale_error_km = -0.1;
        assert!(c.validate().is_err());
    }
}
