//! The benchmark's own statistics: quantiles, the tail-percentile rule,
//! open-loop latency, the failure fraction and the layer-sum check.

use std::time::{Duration, Instant};

/// The `q` quantile of `values` (`0 ≤ q ≤ 1`), interpolating linearly
/// between the two nearest ranks. `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `values`. `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The estimate a run reports for repeated timings of identical work: the
/// 10th percentile. A shared host has slow phases seconds long in which the
/// same work takes up to ~1.7× longer; they only ever lengthen a timing,
/// so a low percentile tracks the cost of the work itself, and across runs
/// it spreads far less than the median does.
pub fn fast_time(seconds: &[f64]) -> Option<f64> {
    quantile(seconds, 0.1)
}

/// Runs `f`, appends its wall time in seconds to `samples` and returns its
/// result.
pub fn timed<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64());
    out
}

/// Timings in run order, to three decimals, for the diagnostic lines.
pub fn show_seconds(seconds: &[f64]) -> String {
    let shown: Vec<String> = seconds.iter().map(|s| format!("{s:.3}")).collect();
    format!("[{}]", shown.join(" "))
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it, with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, in percent: `100 × (n − 10) / n`.
    pub percentile: f64,
    /// Samples in the whole distribution.
    pub samples: usize,
}

/// The tail of `values`: the largest sample that has at least
/// [`TAIL_BEYOND`] samples strictly above it in rank. `None` when there
/// are too few samples to support any tail (fewer than `TAIL_BEYOND + 1`).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        value: sorted[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

/// The send schedule of an open-loop generator: request `i` is due at
/// `start + i × interval`, whether or not earlier replies have come back.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
}

impl OpenLoop {
    /// A schedule starting at `start` with one request per `interval`.
    pub fn new(start: Instant, interval: Duration) -> Self {
        OpenLoop { start, interval }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u32) -> Instant {
        self.start + self.interval * i
    }
}

/// Latency of an open-loop request in ms, counted from when it was *due*,
/// not from when it was sent: a stall that delays later sends shows up in
/// their latency instead of vanishing from the sample.
pub fn open_loop_latency_ms(due: Instant, done: Instant) -> f64 {
    done.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// How late the generator itself ran, in ms: the send time minus the
/// moment it could first have sent (the due time, or the end of the
/// previous request on the same connection if that came later). Waiting
/// for a slow reply is the system's latency, not generator lateness.
pub fn generator_late_ms(due: Instant, free: Instant, sent: Instant) -> f64 {
    sent.saturating_duration_since(due.max(free)).as_secs_f64() * 1e3
}

/// Failed operations over attempted ones; `0` when nothing was attempted.
pub fn fail_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Share of a traced wall time that the layer rows must explain.
pub const LAYER_SUM_TOLERANCE: f64 = 0.05;

/// A per-layer time table and the traced wall time it must add up to.
#[derive(Debug, Clone, Default)]
pub struct LayerTable {
    /// `(layer, seconds)` rows in pipeline order.
    pub rows: Vec<(String, f64)>,
    /// The traced wall time the rows partition.
    pub wall_s: f64,
}

impl LayerTable {
    /// Sum of every row.
    pub fn sum_s(&self) -> f64 {
        self.rows.iter().map(|(_, s)| s).sum()
    }

    /// `sum / wall`: 1.0 when the rows explain the wall time exactly.
    pub fn sum_frac(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.sum_s() / self.wall_s
        } else {
            0.0
        }
    }

    /// Whether the rows sum to within [`LAYER_SUM_TOLERANCE`] of the wall.
    pub fn sums_to_wall(&self) -> bool {
        self.wall_s > 0.0 && (self.sum_frac() - 1.0).abs() <= LAYER_SUM_TOLERANCE
    }

    /// The table as aligned text lines, each row with its share of wall.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("{title} (traced wall {:.3} s)\n", self.wall_s);
        for (name, s) in &self.rows {
            let share = if self.wall_s > 0.0 {
                100.0 * s / self.wall_s
            } else {
                0.0
            };
            out.push_str(&format!("  {name:<24} {s:>9.4} s {share:>6.1}%\n"));
        }
        out.push_str(&format!(
            "  {:<24} {:>9.4} s {:>6.1}%\n",
            "sum",
            self.sum_s(),
            100.0 * self.sum_frac()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.25), Some(1.25));
        assert_eq!(fast_time(&[7.0]), Some(7.0));
        // A slow phase covering most of the run does not move the estimate.
        let mut slow_phase = vec![1.7; 14];
        slow_phase.extend([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(fast_time(&slow_phase), Some(1.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples 1..=100: the value with exactly ten above it is 90,
        // the 90th percentile.
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&values).expect("100 samples support a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        let beyond = values.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);

        // 1000 samples: the tail moves out to the 99th percentile.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values).expect("1000 samples support a tail");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples leave ten beyond the minimum");
        assert_eq!(t.value, 0.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let start = Instant::now();
        let schedule = OpenLoop::new(start, Duration::from_millis(50));
        let due = schedule.due(2);
        assert_eq!(due, start + Duration::from_millis(100));
        // Sent 30 ms late (an earlier reply stalled the connection), then
        // answered in 5 ms: the request waited 35 ms from its due time.
        let sent = due + Duration::from_millis(30);
        let done = sent + Duration::from_millis(5);
        assert!((open_loop_latency_ms(due, done) - 35.0).abs() < 1e-9);
        // The stall was the system's; the generator sent as soon as the
        // connection was free, so it ran on time.
        assert_eq!(generator_late_ms(due, sent, sent), 0.0);
        // An oversleeping generator is late by its oversleep.
        let overslept = due + Duration::from_millis(4);
        assert!((generator_late_ms(due, start, overslept) - 4.0).abs() < 1e-9);
        // A reply before the due time never reads as negative latency.
        assert_eq!(open_loop_latency_ms(due, start), 0.0);
    }

    #[test]
    fn fail_frac_counts_failures_over_attempts() {
        assert_eq!(fail_frac(0, 0), 0.0);
        assert_eq!(fail_frac(200, 0), 0.0);
        assert_eq!(fail_frac(200, 3), 0.015);
        assert_eq!(fail_frac(4, 4), 1.0);
    }

    #[test]
    fn layer_sum_check_allows_five_percent() {
        let table = |rows: &[f64], wall_s: f64| LayerTable {
            rows: rows
                .iter()
                .enumerate()
                .map(|(i, &s)| (format!("l{i}"), s))
                .collect(),
            wall_s,
        };
        assert!(table(&[0.5, 0.3, 0.2], 1.0).sums_to_wall());
        assert!(table(&[0.5, 0.3, 0.151], 1.0).sums_to_wall());
        assert!(!table(&[0.5, 0.3, 0.149], 1.0).sums_to_wall());
        assert!(!table(&[0.6, 0.3, 0.2], 1.0).sums_to_wall());
        assert!(!table(&[0.0], 0.0).sums_to_wall());
        assert!((table(&[0.25, 0.25], 1.0).sum_frac() - 0.5).abs() < 1e-12);
    }
}
