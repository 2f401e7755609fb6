//! The unified entry point: `Pipeline::builder()…run()`.
//!
//! Every binary, example and benchmark assembles its study the same way —
//! pick a scale, maybe tweak the configuration, set a seed, pin threads,
//! toggle observability, run. This module packages that sequence as one
//! builder so the wiring lives in exactly one place:
//!
//! ```no_run
//! use mobilenet_core::{Pipeline, Scale};
//!
//! let run = Pipeline::builder()
//!     .scale(Scale::Small)
//!     .seed(42)
//!     .threads(4)
//!     .obs(true)
//!     .run()
//!     .expect("valid configuration");
//! let sessions = run.study().collection_stats().unwrap().sessions;
//! println!("{sessions} sessions collected");
//! ```
//!
//! [`PipelineBuilder::run`] validates the configuration up front and
//! returns a typed [`Error`] instead of panicking; the resulting [`Run`]
//! exposes the study plus the observability snapshot of the build. The
//! build records into a registry of its own, so that snapshot holds this
//! run's metrics alone even while other runs share the process; the run
//! then folds it into the enclosing registry (normally the process-wide
//! one that [`mobilenet_obs::snapshot`] reads), where process-wide reports
//! still see it.

use std::str::FromStr;
use std::sync::Arc;

use mobilenet_netsim::FaultPlan;

use crate::error::Error;
use crate::study::{Study, StudyConfig};

/// The default master seed — the measurement week's start date
/// (2016-09-24, the paper's campaign).
#[allow(clippy::inconsistent_digit_grouping)]
pub const DEFAULT_SEED: u64 = 2016_09_24;

/// A named study scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ~1,000 communes — the unit-test scale.
    Small,
    /// ~6,000 communes — the figure-generation scale.
    Medium,
    /// Full France scale: 36,000 communes, 30 M subscribers.
    France,
    /// The paper-scale measurement tier: France geography with ~10⁸
    /// sessions over the week, streamed in bounded memory.
    National,
}

impl Scale {
    /// The measured [`StudyConfig`] of this scale.
    pub fn config(self) -> StudyConfig {
        match self {
            Scale::Small => StudyConfig::small(),
            Scale::Medium => StudyConfig::medium(),
            Scale::France => StudyConfig::france_scale(),
            Scale::National => StudyConfig::national(),
        }
    }

    /// The scale's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::France => "france",
            Scale::National => "national",
        }
    }
}

impl FromStr for Scale {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Error> {
        match s {
            "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            "france" | "france-scale" => Ok(Scale::France),
            "national" => Ok(Scale::National),
            other => Err(Error::UnknownScale(other.to_string())),
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The assembly pipeline; use [`Pipeline::builder`] to configure and run
/// it.
#[derive(Debug)]
pub struct Pipeline;

impl Pipeline {
    /// A builder starting from the small measured scale and
    /// [`DEFAULT_SEED`].
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }
}

/// Configures one end-to-end study assembly; [`Pipeline::builder`]
/// starts one.
#[derive(Debug, Clone)]
pub struct PipelineBuilder {
    config: StudyConfig,
    seed: u64,
    threads: Option<usize>,
    obs: Option<bool>,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        PipelineBuilder {
            config: StudyConfig::small(),
            seed: DEFAULT_SEED,
            threads: None,
            obs: None,
        }
    }
}

impl PipelineBuilder {
    /// Selects a named scale (resetting any prior configuration to that
    /// scale's measured defaults).
    pub fn scale(mut self, scale: Scale) -> Self {
        self.config = scale.config();
        self
    }

    /// Edits the configuration in place — the hook for per-study tweaks
    /// (event calendars, ablated pipeline parameters, …).
    pub fn configure(mut self, edit: impl FnOnce(&mut StudyConfig)) -> Self {
        edit(&mut self.config);
        self
    }

    /// Switches to the noise-free expected-value path (no measurement
    /// pipeline, no collection stats).
    pub fn expected(mut self) -> Self {
        self.config.measured = false;
        self
    }

    /// Installs a capture-path fault plan (probe outages, record loss,
    /// duplication, counter truncation, clock skew). The default
    /// [`FaultPlan::none`] reproduces the historical fault-free pipeline
    /// bit for bit.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// Bounds the streaming ingestion chunk size, in records (default:
    /// [`mobilenet_netsim::DEFAULT_CHUNK_SIZE`]). Peak resident records
    /// during collection stay at or below `chunk_size × workers`; the
    /// aggregated output is bit-identical at every chunk size.
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.config.chunk_size = chunk_size;
        self
    }

    /// Sets the master seed (default: [`DEFAULT_SEED`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins the worker count of every parallel stage. Process-global,
    /// like the `MOBILENET_THREADS` environment variable it overrides:
    /// the setting persists beyond this run.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Turns observability collection on or off for the process
    /// (equivalent to [`mobilenet_obs::set_enabled`], overriding the
    /// `MOBILENET_OBS` environment variable). Without this call the
    /// environment decides.
    pub fn obs(mut self, enabled: bool) -> Self {
        self.obs = Some(enabled);
        self
    }

    /// Validates the configuration and assembles the study.
    ///
    /// Output is deterministic in `(config, seed)` and bit-identical at
    /// any thread count, with or without observability. The build
    /// records into a fresh registry that becomes [`Run::obs_snapshot`]
    /// (empty when collection is off) and is then merged into the
    /// enclosing one.
    pub fn run(self) -> Result<Run, Error> {
        self.config.netsim.validate().map_err(Error::Config)?;
        self.config
            .collect_options()
            .validate()
            .map_err(Error::Config)?;
        if let Some(enabled) = self.obs {
            mobilenet_obs::set_enabled(Some(enabled));
        }
        if let Some(threads) = self.threads {
            mobilenet_par::set_thread_override(Some(threads));
        }
        let registry = Arc::new(mobilenet_obs::Registry::new());
        let study = mobilenet_obs::scoped(Some(registry.clone()), || {
            Study::generate_inner(&self.config, self.seed)
        });
        let obs = registry.snapshot();
        mobilenet_obs::merge(&obs);
        Ok(Run { study, obs })
    }
}

/// A completed pipeline run.
pub struct Run {
    study: Study,
    obs: mobilenet_obs::Snapshot,
}

impl Run {
    /// The assembled study.
    pub fn study(&self) -> &Study {
        &self.study
    }

    /// Consumes the run, yielding the study.
    pub fn into_study(self) -> Study {
        self.study
    }

    /// What the observability layer recorded while building this run,
    /// and nothing recorded by other runs or later analyses (empty when
    /// collection was disabled).
    pub fn obs_snapshot(&self) -> mobilenet_obs::Snapshot {
        self.obs.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobilenet_traffic::Direction;

    #[test]
    fn scale_names_round_trip() {
        for scale in [Scale::Small, Scale::Medium, Scale::France, Scale::National] {
            assert_eq!(scale.name().parse::<Scale>().unwrap(), scale);
        }
        assert_eq!("france-scale".parse::<Scale>().unwrap(), Scale::France);
        assert!(matches!(
            "big".parse::<Scale>(),
            Err(Error::UnknownScale(_))
        ));
    }

    #[test]
    fn builder_matches_direct_generation() {
        let run = Pipeline::builder()
            .seed(5)
            .run()
            .expect("small config is valid");
        let direct = Study::generate_inner(&StudyConfig::small(), 5);
        assert_eq!(
            run.study().dataset().national_weekly(Direction::Down, 0),
            direct.dataset().national_weekly(Direction::Down, 0)
        );
        assert!(run.study().collection_stats().is_some());
    }

    #[test]
    fn expected_path_and_configure_apply() {
        let run = Pipeline::builder()
            .seed(5)
            .expected()
            .configure(|c| c.traffic.n_tail_services = 7)
            .run()
            .unwrap();
        assert!(run.study().collection_stats().is_none());
        assert_eq!(run.study().dataset().tail_weekly(Direction::Down).len(), 7);
    }

    #[test]
    fn invalid_config_is_rejected_not_panicked() {
        let result = Pipeline::builder()
            .configure(|c| c.netsim.stations_per_10k_pop = -1.0)
            .run();
        assert!(matches!(result, Err(Error::Config(_))));
    }

    #[test]
    fn chunked_run_is_bit_identical_and_reports_ingest_stats() {
        let whole = Pipeline::builder().seed(9).run().unwrap();
        let chunked = Pipeline::builder().seed(9).chunk_size(17).run().unwrap();
        assert_eq!(
            whole.study().dataset().to_csv(),
            chunked.study().dataset().to_csv()
        );
        let ingest = chunked
            .study()
            .ingest_stats()
            .expect("measured run has ingest stats");
        assert_eq!(ingest.chunk_size, 17);
        assert!(ingest.chunks >= 1);
        assert!(ingest.peak_resident_records <= ingest.resident_budget());
        assert!(whole.study().ingest_stats().is_some());
        let expected = Pipeline::builder().seed(9).expected().run().unwrap();
        assert!(expected.study().ingest_stats().is_none());
    }

    #[test]
    fn concurrent_runs_each_report_only_their_own_ingest_counters() {
        // Each run also sits inside an enclosing registry, which must
        // receive exactly that run's counters when it ends.
        let runs: Vec<(Run, mobilenet_obs::Snapshot)> = std::thread::scope(|scope| {
            let handles: Vec<_> = [64usize, 1000]
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        let enclosing = Arc::new(mobilenet_obs::Registry::new());
                        let run = mobilenet_obs::scoped(Some(enclosing.clone()), || {
                            Pipeline::builder()
                                .seed(3)
                                .chunk_size(chunk)
                                .obs(true)
                                .run()
                                .unwrap()
                        });
                        (run, enclosing.snapshot())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        mobilenet_obs::set_enabled(None);
        for (run, enclosing) in &runs {
            let ingest = run.study().ingest_stats().unwrap();
            let snap = run.obs_snapshot();
            assert_eq!(snap.counter("netsim.ingest.chunks"), Some(ingest.chunks));
            assert_eq!(snap.counter("netsim.ingest.records"), Some(ingest.records));
            assert_eq!(snap.counter("netsim.ingest.batches"), Some(ingest.chunks));
            assert_eq!(snap.span("generate").map(|s| s.count), Some(1));
            assert_eq!(enclosing.counters, snap.counters);
        }
        let chunks = |i: usize| runs[i].0.study().ingest_stats().unwrap().chunks;
        assert_ne!(chunks(0), chunks(1));
    }

    #[test]
    fn zero_chunk_size_is_rejected_not_panicked() {
        let result = Pipeline::builder().chunk_size(0).run();
        assert!(matches!(result, Err(Error::Config(_))));
    }

    #[test]
    fn invalid_fault_plan_is_rejected_not_panicked() {
        let result = Pipeline::builder()
            .faults(FaultPlan {
                loss_prob: 1.5,
                ..FaultPlan::none()
            })
            .run();
        assert!(matches!(result, Err(Error::Config(_))));
    }

    #[test]
    fn zero_fault_plan_matches_the_default_pipeline() {
        let plain = Pipeline::builder().seed(11).run().unwrap();
        let zeroed = Pipeline::builder()
            .seed(11)
            .faults(FaultPlan::none())
            .run()
            .unwrap();
        assert_eq!(
            plain.study().dataset().to_csv(),
            zeroed.study().dataset().to_csv()
        );
    }

    #[test]
    fn faulted_pipeline_degrades_and_reports_counters() {
        let run = Pipeline::builder()
            .seed(11)
            .faults(FaultPlan::degraded(3))
            .run()
            .unwrap();
        let stats = run
            .study()
            .collection_stats()
            .expect("measured run has stats");
        assert!(
            stats.faults.any(),
            "degraded plan must register fault events"
        );
        assert!(stats.faults.lost_total() > 0);
        assert!(
            run.study().dataset().total(Direction::Down) > 0.0,
            "degraded ≠ empty"
        );
    }
}
