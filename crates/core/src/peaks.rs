//! The smoothed z-score activity-peak detector (§4, Figure 4).
//!
//! The paper detects activity peaks by comparing each sample of the
//! original signal against a *smoothed* trailing window: a sample more
//! than `threshold` standard deviations above the trailing mean starts a
//! peak, and flagged samples enter the trailing window with reduced
//! `influence` so a peak does not inflate its own baseline. Parameters are
//! the paper's: **threshold = 3 z-scores, lag = 2 hours,
//! influence = 0.4** — "upon an extensive tuning process".

/// Parameters of the smoothed z-score algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakConfig {
    /// Trailing-window length, in samples (hours). The paper uses 2.
    pub lag: usize,
    /// Signal threshold in trailing-window standard deviations.
    pub threshold: f64,
    /// Weight of a flagged sample when it enters the trailing window.
    pub influence: f64,
}

impl PeakConfig {
    /// The paper's tuned parameters.
    pub fn paper() -> Self {
        PeakConfig {
            lag: 2,
            threshold: 3.0,
            influence: 0.4,
        }
    }

    /// Validates internal consistency.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.lag == 0 {
            return Err("lag must be at least 1".into());
        }
        if self.threshold <= 0.0 || !self.threshold.is_finite() {
            return Err("threshold must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.influence) {
            return Err("influence must be in [0,1]".into());
        }
        Ok(())
    }
}

impl Default for PeakConfig {
    fn default() -> Self {
        PeakConfig::paper()
    }
}

/// A contiguous run of flagged samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeakInterval {
    /// First flagged sample — the paper's "rising front" of the peak.
    pub start: usize,
    /// One past the last flagged sample.
    pub end: usize,
}

/// Full detector output, including the intermediate series Figure 4
/// plots.
#[derive(Debug, Clone)]
pub struct PeakDetection {
    /// Per-sample signal: `+1` above threshold, `-1` below, `0` inside.
    pub signals: Vec<i8>,
    /// The trailing (smoothed) mean at each sample.
    pub smoothed_mean: Vec<f64>,
    /// The trailing standard deviation at each sample.
    pub smoothed_std: Vec<f64>,
    /// Positive peaks as contiguous intervals.
    pub peaks: Vec<PeakInterval>,
}

/// Runs the smoothed z-score detector over `series`.
///
/// # Panics
///
/// Panics if the configuration is invalid or the series is shorter than
/// `lag + 1`.
pub fn detect_peaks(series: &[f64], config: &PeakConfig) -> PeakDetection {
    config.validate().expect("invalid PeakConfig");
    let n = series.len();
    assert!(n > config.lag, "series must be longer than the lag");

    let mut filtered = series[..config.lag].to_vec();
    let mut signals = vec![0i8; n];
    let mut smoothed_mean = vec![0.0; n];
    let mut smoothed_std = vec![0.0; n];

    // Seed the diagnostics for the warm-up samples.
    let (m0, s0) = mean_std(&filtered);
    for i in 0..config.lag {
        smoothed_mean[i] = m0;
        smoothed_std[i] = s0;
    }

    for i in config.lag..n {
        let window = &filtered[i - config.lag..i];
        let (mean, std) = mean_std(window);
        smoothed_mean[i] = mean;
        smoothed_std[i] = std;
        let deviation = series[i] - mean;
        if deviation.abs() > config.threshold * std && std > 0.0 {
            signals[i] = if deviation > 0.0 { 1 } else { -1 };
            let prev = filtered[i - 1];
            filtered.push(config.influence * series[i] + (1.0 - config.influence) * prev);
        } else {
            signals[i] = 0;
            filtered.push(series[i]);
        }
    }

    let peaks = intervals_of(&signals);
    PeakDetection {
        signals,
        smoothed_mean,
        smoothed_std,
        peaks,
    }
}

/// Contiguous `+1` runs.
fn intervals_of(signals: &[i8]) -> Vec<PeakInterval> {
    let mut peaks = Vec::new();
    let mut start = None;
    for (i, &s) in signals.iter().enumerate() {
        match (s, start) {
            (1, None) => start = Some(i),
            (1, Some(_)) => {}
            (_, Some(st)) => {
                peaks.push(PeakInterval { start: st, end: i });
                start = None;
            }
            _ => {}
        }
    }
    if let Some(st) = start {
        peaks.push(PeakInterval {
            start: st,
            end: signals.len(),
        });
    }
    peaks
}

fn mean_std(window: &[f64]) -> (f64, f64) {
    let n = window.len() as f64;
    let mean = window.iter().sum::<f64>() / n;
    let var = window.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flat baseline with alternating texture and one sharp bump. The
    /// alternating texture keeps the trailing window's std positive while
    /// never itself exceeding the threshold: each new sample deviates from
    /// the 2-sample window mean by exactly one window-std (ratio 1 < 3).
    fn bumpy(n: usize, bump_at: usize, bump: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let texture = if i % 2 == 0 { 0.025 } else { -0.025 };
                let b = if i >= bump_at && i < bump_at + 3 {
                    bump
                } else {
                    0.0
                };
                1.0 + texture + b
            })
            .collect()
    }

    /// Rising-front sample indices of all positive peaks.
    fn rising_fronts(det: &PeakDetection) -> Vec<usize> {
        det.peaks.iter().map(|p| p.start).collect()
    }

    #[test]
    fn detects_a_sharp_bump() {
        let series = bumpy(48, 24, 3.0);
        let det = detect_peaks(&series, &PeakConfig::paper());
        assert!(
            rising_fronts(&det).contains(&24),
            "bump front not detected: {:?}",
            rising_fronts(&det)
        );
        let main = det.peaks.iter().find(|p| p.start == 24).unwrap();
        assert!(main.end - main.start >= 2);
    }

    #[test]
    fn flat_series_has_no_peaks() {
        let series = bumpy(48, 100, 0.0); // bump outside range
        let det = detect_peaks(&series, &PeakConfig::paper());
        assert!(det.peaks.is_empty(), "{:?}", det.peaks);
    }

    #[test]
    fn negative_dips_signal_minus_one_but_are_not_peaks() {
        let mut series = bumpy(48, 100, 0.0);
        series[30] = -2.0;
        let det = detect_peaks(&series, &PeakConfig::paper());
        assert_eq!(det.signals[30], -1);
        assert!(det.peaks.is_empty());
    }

    #[test]
    fn influence_limits_peak_self_masking() {
        // Two bumps in quick succession: with influence < 1 the first bump
        // does not fully absorb into the baseline, so the second still
        // registers relative to a sane baseline.
        let mut series = bumpy(60, 20, 3.0);
        for v in &mut series[30..33] {
            *v += 3.0;
        }
        let det = detect_peaks(&series, &PeakConfig::paper());
        let fronts = rising_fronts(&det);
        assert!(fronts.contains(&20), "fronts {fronts:?}");
        assert!(fronts.contains(&30), "fronts {fronts:?}");
    }

    #[test]
    fn trailing_peak_is_closed_at_series_end() {
        let mut series = bumpy(30, 100, 0.0);
        series[28] += 2.0;
        series[29] += 2.0;
        let det = detect_peaks(&series, &PeakConfig::paper());
        assert_eq!(det.peaks.last().unwrap().end, 30);
    }

    #[test]
    fn diagnostics_have_input_length() {
        let series = bumpy(40, 15, 0.8);
        let det = detect_peaks(&series, &PeakConfig::paper());
        assert_eq!(det.signals.len(), 40);
        assert_eq!(det.smoothed_mean.len(), 40);
        assert_eq!(det.smoothed_std.len(), 40);
    }

    #[test]
    fn higher_threshold_detects_fewer_peaks() {
        let mut series = bumpy(100, 20, 0.4);
        for v in &mut series[60..63] {
            *v += 2.0;
        }
        let lax = detect_peaks(
            &series,
            &PeakConfig {
                threshold: 2.0,
                ..PeakConfig::paper()
            },
        );
        let strict = detect_peaks(
            &series,
            &PeakConfig {
                threshold: 1e9,
                ..PeakConfig::paper()
            },
        );
        assert!(lax.peaks.len() > strict.peaks.len());
        assert!(strict.peaks.is_empty());
        assert!(rising_fronts(&lax).contains(&60));
    }

    #[test]
    #[should_panic(expected = "longer than the lag")]
    fn short_series_is_rejected() {
        detect_peaks(&[1.0, 2.0], &PeakConfig::paper());
    }

    #[test]
    fn config_validation() {
        assert!(PeakConfig {
            lag: 0,
            ..PeakConfig::paper()
        }
        .validate()
        .is_err());
        assert!(PeakConfig {
            threshold: -1.0,
            ..PeakConfig::paper()
        }
        .validate()
        .is_err());
        assert!(PeakConfig {
            influence: 1.5,
            ..PeakConfig::paper()
        }
        .validate()
        .is_err());
        assert!(PeakConfig::paper().validate().is_ok());
    }
}
