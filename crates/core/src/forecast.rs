//! Demand forecasting — the orchestration use-case the paper motivates.
//!
//! The introduction argues that knowing *when* each service is consumed
//! lets future networks "dynamically tailor resources to the actual
//! fluctuations of the subscribers' activity", and the related work it
//! builds on (reference 15, SIGMETRICS'11) reports that service traffic is highly
//! predictable. This module quantifies that predictability on the
//! synthetic dataset with two classical forecasters, trained on the first
//! part of the week and scored on the rest:
//!
//! * **seasonal-naïve** — tomorrow looks like the same hour yesterday
//!   (period 24) or last week (period 168);
//! * **Holt–Winters** — additive triple exponential smoothing (level,
//!   trend, seasonal), implemented from scratch.

use mobilenet_traffic::{Direction, HOURS_PER_DAY};

use crate::study::Study;

/// Forecast accuracy metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastScore {
    /// Mean absolute percentage error (on hours with positive actuals).
    pub mape: f64,
    /// Symmetric MAPE, robust to near-zero actuals.
    pub smape: f64,
}

/// Scores a forecast against actuals.
pub(crate) fn score(actual: &[f64], forecast: &[f64]) -> ForecastScore {
    assert_eq!(actual.len(), forecast.len(), "length mismatch");
    assert!(!actual.is_empty(), "cannot score an empty horizon");
    let mut mape_sum = 0.0;
    let mut mape_n = 0usize;
    let mut smape_sum = 0.0;
    for (&a, &f) in actual.iter().zip(forecast.iter()) {
        if a > 0.0 {
            mape_sum += ((a - f) / a).abs();
            mape_n += 1;
        }
        let denom = (a.abs() + f.abs()) / 2.0;
        if denom > 0.0 {
            smape_sum += (a - f).abs() / denom;
        }
    }
    ForecastScore {
        mape: if mape_n > 0 {
            mape_sum / mape_n as f64
        } else {
            0.0
        },
        smape: smape_sum / actual.len() as f64,
    }
}

/// Seasonal-naïve forecast: repeats the last observed period.
///
/// # Panics
///
/// Panics unless `history.len() >= period` and `horizon >= 1`.
pub(crate) fn seasonal_naive(history: &[f64], period: usize, horizon: usize) -> Vec<f64> {
    assert!(
        period >= 1 && history.len() >= period,
        "need one full period of history"
    );
    assert!(horizon >= 1, "horizon must be positive");
    let last = &history[history.len() - period..];
    (0..horizon).map(|h| last[h % period]).collect()
}

/// Additive Holt–Winters smoothing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoltWintersConfig {
    /// Level smoothing, in `(0, 1)`.
    pub alpha: f64,
    /// Trend smoothing, in `[0, 1)`.
    pub beta: f64,
    /// Seasonal smoothing, in `[0, 1)`.
    pub gamma: f64,
    /// Seasonal period (24 for daily structure, 168 for weekly).
    pub period: usize,
}

impl HoltWintersConfig {
    /// Defaults tuned for hourly mobile-traffic series with daily
    /// seasonality.
    pub fn hourly() -> Self {
        HoltWintersConfig {
            alpha: 0.35,
            beta: 0.02,
            gamma: 0.25,
            period: HOURS_PER_DAY,
        }
    }

    /// Validates parameter ranges.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.alpha) || self.alpha == 0.0 {
            return Err("alpha must be in (0,1)".into());
        }
        if !(0.0..1.0).contains(&self.beta) {
            return Err("beta must be in [0,1)".into());
        }
        if !(0.0..1.0).contains(&self.gamma) {
            return Err("gamma must be in [0,1)".into());
        }
        if self.period < 2 {
            return Err("period must be at least 2".into());
        }
        Ok(())
    }
}

/// Fits additive Holt–Winters on `history` and forecasts `horizon` steps.
///
/// Initialization follows the standard recipe: level = mean of the first
/// period, trend = average per-step change between the first two periods,
/// seasonal = first-period deviations from the initial level.
///
/// # Panics
///
/// Panics if the configuration is invalid or `history` is shorter than
/// two periods.
pub fn holt_winters(history: &[f64], config: &HoltWintersConfig, horizon: usize) -> Vec<f64> {
    config.validate().expect("invalid HoltWintersConfig");
    let m = config.period;
    assert!(
        history.len() >= 2 * m,
        "need two periods of history ({} < {})",
        history.len(),
        2 * m
    );
    assert!(horizon >= 1, "horizon must be positive");

    // Initialization.
    let first: f64 = history[..m].iter().sum::<f64>() / m as f64;
    let second: f64 = history[m..2 * m].iter().sum::<f64>() / m as f64;
    let mut level = first;
    let mut trend = (second - first) / m as f64;
    let mut seasonal: Vec<f64> = history[..m].iter().map(|x| x - first).collect();

    // Smoothing pass.
    for (i, &x) in history.iter().enumerate() {
        let s = seasonal[i % m];
        let new_level = config.alpha * (x - s) + (1.0 - config.alpha) * (level + trend);
        let new_trend = config.beta * (new_level - level) + (1.0 - config.beta) * trend;
        seasonal[i % m] = config.gamma * (x - new_level) + (1.0 - config.gamma) * s;
        level = new_level;
        trend = new_trend;
    }

    // Forecast.
    let n = history.len();
    (1..=horizon)
        .map(|h| level + trend * h as f64 + seasonal[(n + h - 1) % m])
        .collect()
}

/// One service's predictability report.
#[derive(Debug, Clone)]
pub struct ServiceForecast {
    /// Catalog index.
    pub service: usize,
    /// Display name.
    pub name: &'static str,
    /// Seasonal-naïve (period 24) score over the held-out horizon.
    pub naive: ForecastScore,
    /// Holt–Winters score over the same horizon.
    pub holt_winters: ForecastScore,
}

/// Trains on the first `train_hours` of the week and scores both
/// forecasters on the remainder, for every head service.
///
/// # Panics
///
/// Panics unless `train_hours` leaves a non-empty horizon and covers two
/// days.
pub fn forecast_report(study: &Study, dir: Direction, train_hours: usize) -> Vec<ServiceForecast> {
    let total = mobilenet_traffic::HOURS_PER_WEEK;
    assert!(
        train_hours >= 2 * HOURS_PER_DAY && train_hours < total,
        "bad split"
    );
    let horizon = total - train_hours;
    let cfg = HoltWintersConfig::hourly();
    study
        .catalog()
        .head()
        .iter()
        .enumerate()
        .map(|(s, spec)| {
            let series = study.dataset().national_series(dir, s);
            let (train, test) = series.split_at(train_hours);
            let naive = score(test, &seasonal_naive(train, HOURS_PER_DAY, horizon));
            let hw = score(test, &holt_winters(train, &cfg, horizon));
            ServiceForecast {
                service: s,
                name: spec.name,
                naive,
                holt_winters: hw,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn daily(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 100.0 + 40.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect()
    }

    #[test]
    fn seasonal_naive_is_perfect_on_pure_seasonality() {
        let s = daily(96);
        let f = seasonal_naive(&s[..72], 24, 24);
        let sc = score(&s[72..], &f);
        assert!(sc.mape < 1e-12, "mape {}", sc.mape);
    }

    #[test]
    fn holt_winters_tracks_seasonality_with_trend() {
        let s: Vec<f64> = daily(240)
            .iter()
            .enumerate()
            .map(|(i, v)| v + i as f64 * 0.5)
            .collect();
        let f = holt_winters(&s[..192], &HoltWintersConfig::hourly(), 48);
        let sc = score(&s[192..], &f);
        assert!(sc.mape < 0.05, "mape {}", sc.mape);
        // Naïve ignores the trend, so Holt–Winters must win.
        let nf = seasonal_naive(&s[..192], 24, 48);
        let nsc = score(&s[192..], &nf);
        assert!(sc.mape < nsc.mape, "hw {} vs naive {}", sc.mape, nsc.mape);
    }

    #[test]
    fn score_handles_zeros() {
        let sc = score(&[0.0, 2.0], &[1.0, 2.0]);
        assert_eq!(sc.mape, 0.0); // zero actual excluded
        assert!(sc.smape > 0.0);
        let perfect = score(&[5.0, 5.0], &[5.0, 5.0]);
        assert_eq!(perfect.mape, 0.0);
        assert_eq!(perfect.smape, 0.0);
    }

    #[test]
    fn study_series_are_predictable() {
        // The paper-adjacent claim ([15]): mobile service traffic is highly
        // predictable. Train on 5 days, score the last 2.
        let study = crate::testutil::expected_study();
        let report = forecast_report(study, Direction::Down, 120);
        for f in &report {
            assert!(
                f.naive.smape < 0.9 && f.holt_winters.smape < 0.9,
                "{}: naive {:.2} hw {:.2}",
                f.name,
                f.naive.smape,
                f.holt_winters.smape
            );
        }
        // Median sMAPE across services is small.
        let mut smapes: Vec<f64> = report.iter().map(|f| f.naive.smape).collect();
        smapes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = smapes[smapes.len() / 2];
        assert!(median < 0.45, "median naive sMAPE {median}");
    }

    #[test]
    #[should_panic(expected = "two periods")]
    fn holt_winters_needs_history() {
        holt_winters(&[1.0; 30], &HoltWintersConfig::hourly(), 4);
    }

    #[test]
    fn config_validation_rejects_bad_parameters() {
        let ok = HoltWintersConfig::hourly();
        assert!(ok.validate().is_ok());
        assert!(HoltWintersConfig { alpha: 0.0, ..ok }.validate().is_err());
        assert!(HoltWintersConfig { beta: 1.0, ..ok }.validate().is_err());
        assert!(HoltWintersConfig { gamma: -0.1, ..ok }.validate().is_err());
        assert!(HoltWintersConfig { period: 1, ..ok }.validate().is_err());
    }
}
