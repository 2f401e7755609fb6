//! Fault injection for the capture path: graceful degradation.
//!
//! The real apparatus of §2 is not benign: probes drop records during
//! outages, counters get truncated when sessions outlive an export
//! interval, records are duplicated across redundant taps, clocks skew,
//! and trace files arrive with mangled lines. A [`FaultPlan`] models those
//! imperfections as a deterministic, seedable transformation applied
//! **between the [`Probe`](crate::Probe) and aggregation**,
//! so [`collect_with_options`](crate::pipeline::collect_with_options),
//! [`observe_with_options`](crate::trace::observe_with_options)
//! and a replay of the captured trace all see the exact same degraded
//! record stream.
//!
//! # Determinism contract
//!
//! * Fault decisions draw from their own per-shard RNG streams
//!   ([`FaultInjector::shard_rng`]), derived from `(master seed, plan
//!   seed, shard)` — the probe- and session-RNG streams are never
//!   touched, so [`FaultPlan::none`] reproduces the fault-free pipeline
//!   **bit-identically**, and any plan is bit-identical at any thread
//!   count.
//! * Within one record the fault stages apply in a fixed order: outage →
//!   loss → truncation → clock skew → duplication. Outage windows draw no
//!   randomness at all.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mobilenet_traffic::HOURS_PER_WEEK;

use crate::records::{Interface, SessionRecord};

/// One probe outage: records captured on `interface` whose `start_hour`
/// falls inside `hours` (a half-open hour-of-week range) are lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutageWindow {
    /// The interface whose probe is down.
    pub interface: Interface,
    /// Half-open hour-of-week range `[start, end)`, within `0..168`.
    pub hours: Range<u16>,
}

impl OutageWindow {
    /// Whether `record` is captured by the downed probe.
    pub fn covers(&self, record: &SessionRecord) -> bool {
        record.interface == self.interface && self.hours.contains(&record.start_hour)
    }
}

/// A deterministic, seedable plan of capture-path faults.
///
/// All probabilities are per record and independent; `FaultPlan::none()`
/// is the identity plan the fault-free pipeline is defined by.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault RNG streams, mixed with the pipeline's master
    /// seed — two plans differing only in seed degrade different records.
    pub seed: u64,
    /// Per-interface probe outage windows (deterministic record loss).
    pub outages: Vec<OutageWindow>,
    /// Uniform probability of losing a record (probe overload, export
    /// gaps).
    pub loss_prob: f64,
    /// Probability of emitting a record twice (redundant taps).
    pub dup_prob: f64,
    /// Probability of truncating a record's volume counters.
    pub truncate_prob: f64,
    /// Fraction of the true volume a truncated counter retains, in
    /// `[0, 1]`.
    pub truncate_keep: f64,
    /// Probability of skewing a record's `start_hour`.
    pub skew_prob: f64,
    /// Maximum clock skew, hours; a skewed record moves forward by
    /// `1..=skew_max_hours` hours (wrapping around the week).
    pub skew_max_hours: u16,
}

impl FaultPlan {
    /// The identity plan: no outages, every probability zero.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            outages: Vec::new(),
            loss_prob: 0.0,
            dup_prob: 0.0,
            truncate_prob: 0.0,
            truncate_keep: 1.0,
            skew_prob: 0.0,
            skew_max_hours: 0,
        }
    }

    /// A representative degraded-collection preset: a Tuesday-morning Gn
    /// outage, 2% record loss, 1% duplication, 1% truncation to a quarter
    /// of the volume, and 1% clock skew up to 2 h.
    pub fn degraded(seed: u64) -> Self {
        FaultPlan {
            seed,
            outages: vec![OutageWindow {
                interface: Interface::Gn,
                hours: 33..37,
            }],
            loss_prob: 0.02,
            dup_prob: 0.01,
            truncate_prob: 0.01,
            truncate_keep: 0.25,
            skew_prob: 0.01,
            skew_max_hours: 2,
        }
    }

    /// Whether this plan is the identity (no fault can ever fire).
    pub fn is_none(&self) -> bool {
        self.outages.is_empty()
            && self.loss_prob == 0.0
            && self.dup_prob == 0.0
            && (self.truncate_prob == 0.0 || self.truncate_keep == 1.0)
            && (self.skew_prob == 0.0 || self.skew_max_hours == 0)
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("loss_prob", self.loss_prob),
            ("dup_prob", self.dup_prob),
            ("truncate_prob", self.truncate_prob),
            ("truncate_keep", self.truncate_keep),
            ("skew_prob", self.skew_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault plan: {name} must be in [0,1], got {p}"));
            }
        }
        let hours = HOURS_PER_WEEK as u16;
        for w in &self.outages {
            if w.hours.start >= w.hours.end || w.hours.end > hours {
                return Err(format!(
                    "fault plan: outage window {}..{} must be non-empty and within 0..{hours}",
                    w.hours.start, w.hours.end
                ));
            }
        }
        if self.skew_max_hours as usize >= HOURS_PER_WEEK {
            return Err(format!(
                "fault plan: skew_max_hours must be < {HOURS_PER_WEEK}"
            ));
        }
        Ok(())
    }

    /// Parses a CLI-style plan specification: comma-separated `key=value`
    /// pairs over [`FaultPlan::none`].
    ///
    /// Keys: `seed=N`, `loss=P`, `dup=P`, `trunc=P`, `keep=F`, `skew=P`,
    /// `skewh=H`, and repeatable `outage=IF:START-END` with
    /// `IF` ∈ {`gn`, `s5s8`} and a half-open hour-of-week range. The
    /// literal `degraded` selects [`FaultPlan::degraded`] as the base.
    ///
    /// ```
    /// use mobilenet_netsim::FaultPlan;
    /// let plan = FaultPlan::parse("loss=0.05,dup=0.01,outage=gn:33-37").unwrap();
    /// assert_eq!(plan.loss_prob, 0.05);
    /// assert_eq!(plan.outages.len(), 1);
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if part == "degraded" {
                let seed = plan.seed;
                plan = FaultPlan::degraded(seed);
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec {part:?}: expected key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .map_err(|e| format!("fault spec {key}={v}: {e}"))
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|e| format!("fault spec seed={value}: {e}"))?
                }
                "loss" => plan.loss_prob = prob(value)?,
                "dup" => plan.dup_prob = prob(value)?,
                "trunc" => {
                    plan.truncate_prob = prob(value)?;
                    if plan.truncate_keep >= 1.0 {
                        plan.truncate_keep = 0.25;
                    }
                }
                "keep" => plan.truncate_keep = prob(value)?,
                "skew" => {
                    plan.skew_prob = prob(value)?;
                    if plan.skew_max_hours == 0 {
                        plan.skew_max_hours = 2;
                    }
                }
                "skewh" => {
                    plan.skew_max_hours = value
                        .parse()
                        .map_err(|e| format!("fault spec skewh={value}: {e}"))?
                }
                "outage" => plan.outages.push(parse_outage(value)?),
                other => return Err(format!("fault spec: unknown key {other:?}")),
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

fn parse_outage(value: &str) -> Result<OutageWindow, String> {
    let (iface, range) = value
        .split_once(':')
        .ok_or_else(|| format!("outage {value:?}: expected IF:START-END"))?;
    let interface = match iface {
        "gn" => Interface::Gn,
        "s5s8" => Interface::S5S8,
        other => return Err(format!("outage interface {other:?}: use gn|s5s8")),
    };
    let (start, end) = range
        .split_once('-')
        .ok_or_else(|| format!("outage range {range:?}: expected START-END"))?;
    let start: u16 = start
        .parse()
        .map_err(|e| format!("outage start {start:?}: {e}"))?;
    let end: u16 = end
        .parse()
        .map_err(|e| format!("outage end {end:?}: {e}"))?;
    Ok(OutageWindow {
        interface,
        hours: start..end,
    })
}

/// Counters of the degradation one fault plan inflicted on a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Records lost to probe outage windows.
    pub lost_outage: u64,
    /// Records lost to uniform random loss.
    pub lost_records: u64,
    /// Extra copies emitted by duplication (one per duplicated record).
    pub duplicated_records: u64,
    /// Records whose volume counters were truncated.
    pub truncated_records: u64,
    /// Records whose `start_hour` was skewed.
    pub skewed_records: u64,
}

impl FaultStats {
    /// Folds another stream's counters into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.lost_outage += other.lost_outage;
        self.lost_records += other.lost_records;
        self.duplicated_records += other.duplicated_records;
        self.truncated_records += other.truncated_records;
        self.skewed_records += other.skewed_records;
    }

    /// Total records dropped (outage + random loss).
    pub fn lost_total(&self) -> u64 {
        self.lost_outage + self.lost_records
    }

    /// Whether any fault fired.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }
}

/// Applies a [`FaultPlan`] to a record stream, shard by shard.
#[derive(Debug, Clone)]
pub struct FaultInjector<'a> {
    plan: &'a FaultPlan,
}

impl<'a> FaultInjector<'a> {
    /// Wires an injector to a plan.
    pub fn new(plan: &'a FaultPlan) -> Self {
        FaultInjector { plan }
    }

    /// The plan being applied.
    pub fn plan(&self) -> &FaultPlan {
        self.plan
    }

    /// The fault RNG of one shard: a stream derived from the pipeline's
    /// master seed, the plan seed, and the shard index — independent of
    /// the probe and session streams, and of which worker runs the shard.
    pub fn shard_rng(&self, master_seed: u64, shard: usize) -> StdRng {
        StdRng::seed_from_u64(mobilenet_par::seed_for(
            master_seed ^ self.plan.seed.rotate_left(17) ^ 0x6661_756c_7472_6e67, // "faultrng"
            shard as u64,
        ))
    }

    /// Degrades one observed record: calls `emit` zero times (lost), once
    /// (kept, possibly truncated/skewed) or twice (duplicated).
    ///
    /// Stage order is fixed — outage, loss, truncation, clock skew,
    /// duplication — and each probabilistic stage draws from `rng` only
    /// when its probability is nonzero, so a plan's decisions depend on
    /// nothing but `(plan, rng state, record order)`.
    pub fn apply(
        &self,
        record: &SessionRecord,
        rng: &mut StdRng,
        stats: &mut FaultStats,
        mut emit: impl FnMut(&SessionRecord),
    ) {
        let plan = self.plan;
        if plan.outages.iter().any(|w| w.covers(record)) {
            stats.lost_outage += 1;
            return;
        }
        if plan.loss_prob > 0.0 && rng.gen::<f64>() < plan.loss_prob {
            stats.lost_records += 1;
            return;
        }
        let mut degraded = record.clone();
        if plan.truncate_prob > 0.0 && rng.gen::<f64>() < plan.truncate_prob {
            degraded.dl_mb *= plan.truncate_keep;
            degraded.ul_mb *= plan.truncate_keep;
            stats.truncated_records += 1;
        }
        if plan.skew_prob > 0.0 && plan.skew_max_hours > 0 && rng.gen::<f64>() < plan.skew_prob {
            let delta = rng.gen_range(1..plan.skew_max_hours + 1);
            degraded.start_hour = (degraded.start_hour + delta) % HOURS_PER_WEEK as u16;
            stats.skewed_records += 1;
        }
        emit(&degraded);
        if plan.dup_prob > 0.0 && rng.gen::<f64>() < plan.dup_prob {
            stats.duplicated_records += 1;
            emit(&degraded);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobilenet_geo::CommuneId;

    use crate::records::FlowSignature;

    fn record(interface: Interface, hour: u16) -> SessionRecord {
        SessionRecord {
            interface,
            start_hour: hour,
            dl_mb: 8.0,
            ul_mb: 2.0,
            commune: CommuneId(3),
            signature: FlowSignature(0xABCD),
            stale_uli: false,
        }
    }

    fn run_plan(plan: &FaultPlan, records: &[SessionRecord]) -> (Vec<SessionRecord>, FaultStats) {
        let injector = FaultInjector::new(plan);
        let mut rng = injector.shard_rng(7, 0);
        let mut stats = FaultStats::default();
        let mut out = Vec::new();
        for r in records {
            injector.apply(r, &mut rng, &mut stats, |d| out.push(d.clone()));
        }
        (out, stats)
    }

    #[test]
    fn identity_plan_is_pass_through() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        plan.validate().unwrap();
        let records: Vec<_> = (0..50).map(|h| record(Interface::Gn, h)).collect();
        let (out, stats) = run_plan(&plan, &records);
        assert_eq!(out, records);
        assert!(!stats.any());
    }

    #[test]
    fn outage_drops_exactly_the_window_on_one_interface() {
        let mut plan = FaultPlan::none();
        plan.outages.push(OutageWindow {
            interface: Interface::Gn,
            hours: 10..20,
        });
        plan.validate().unwrap();
        let mut records = Vec::new();
        for h in 0..168 {
            records.push(record(Interface::Gn, h));
            records.push(record(Interface::S5S8, h));
        }
        let (out, stats) = run_plan(&plan, &records);
        assert_eq!(stats.lost_outage, 10);
        assert_eq!(out.len(), records.len() - 10);
        assert!(out
            .iter()
            .all(|r| r.interface != Interface::Gn || !(10..20).contains(&r.start_hour)));
    }

    #[test]
    fn probabilistic_faults_fire_at_roughly_their_rates() {
        let mut plan = FaultPlan::none();
        plan.loss_prob = 0.1;
        plan.dup_prob = 0.05;
        plan.truncate_prob = 0.08;
        plan.truncate_keep = 0.5;
        plan.skew_prob = 0.06;
        plan.skew_max_hours = 3;
        plan.validate().unwrap();
        let records: Vec<_> = (0..20_000)
            .map(|i| record(Interface::S5S8, i % 168))
            .collect();
        let (out, stats) = run_plan(&plan, &records);
        let n = records.len() as f64;
        assert!(
            (stats.lost_records as f64 / n - 0.1).abs() < 0.02,
            "{stats:?}"
        );
        let survivors = n - stats.lost_records as f64;
        assert!((stats.duplicated_records as f64 / survivors - 0.05).abs() < 0.02);
        assert!((stats.truncated_records as f64 / survivors - 0.08).abs() < 0.02);
        assert!((stats.skewed_records as f64 / survivors - 0.06).abs() < 0.02);
        assert_eq!(
            out.len() as u64,
            records.len() as u64 - stats.lost_records + stats.duplicated_records
        );
        // Truncated copies carry exactly the configured fraction.
        assert!(out.iter().any(|r| r.dl_mb == 4.0 && r.ul_mb == 1.0));
    }

    #[test]
    fn decisions_are_deterministic_in_seed_and_shard() {
        let plan = FaultPlan::degraded(3);
        let records: Vec<_> = (0..500).map(|i| record(Interface::Gn, i % 168)).collect();
        let (a, sa) = run_plan(&plan, &records);
        let (b, sb) = run_plan(&plan, &records);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        // A different plan seed degrades a different subset.
        let other = FaultPlan::degraded(4);
        let (c, _) = run_plan(&other, &records);
        assert_ne!(a, c);
    }

    #[test]
    fn validate_rejects_out_of_range_values() {
        let mut p = FaultPlan::none();
        p.loss_prob = 1.5;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.truncate_keep = -0.1;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.outages.push(OutageWindow {
            interface: Interface::Gn,
            hours: 30..30,
        });
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.outages.push(OutageWindow {
            interface: Interface::Gn,
            hours: 160..169,
        });
        assert!(p.validate().is_err());
        let mut p = FaultPlan::none();
        p.skew_max_hours = 168;
        assert!(p.validate().is_err());
        FaultPlan::degraded(0).validate().unwrap();
    }

    #[test]
    fn parse_builds_plans_and_rejects_garbage() {
        let plan = FaultPlan::parse("seed=9,loss=0.05,dup=0.01,trunc=0.02,keep=0.5,skew=0.03,skewh=4,outage=gn:33-37,outage=s5s8:100-110").unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.loss_prob, 0.05);
        assert_eq!(plan.truncate_keep, 0.5);
        assert_eq!(plan.skew_max_hours, 4);
        assert_eq!(plan.outages.len(), 2);
        assert_eq!(
            FaultPlan::parse("degraded").unwrap(),
            FaultPlan::degraded(0)
        );
        assert_eq!(
            FaultPlan::parse("seed=5,degraded").unwrap(),
            FaultPlan::degraded(5)
        );
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        // `trunc`/`skew` alone get usable defaults for keep/skewh.
        let t = FaultPlan::parse("trunc=0.1,skew=0.1").unwrap();
        assert!(t.truncate_keep < 1.0 && t.skew_max_hours > 0);
        assert!(FaultPlan::parse("loss").is_err());
        assert!(FaultPlan::parse("loss=2.0").is_err());
        for unknown in ["warp=0.1", "corrupt=0.1"] {
            let err = FaultPlan::parse(unknown).unwrap_err();
            assert!(err.contains("unknown key"), "{unknown}: {err}");
        }
        assert!(FaultPlan::parse("outage=gn:40").is_err());
        assert!(FaultPlan::parse("outage=wifi:1-2").is_err());
        assert!(FaultPlan::parse("outage=gn:9-9").is_err());
    }
}
