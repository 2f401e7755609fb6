//! Dataset assembly: from nothing to an analyzable study.
//!
//! A [`Study`] bundles everything the analyses need: the generated
//! country, the service catalog, and the commune-aggregated
//! [`TrafficDataset`] — either collected through the full measurement
//! pipeline (sessions → probes → DPI → aggregation, §2 of the paper) or
//! evaluated as noise-free expectations for calibration work.

use std::sync::Arc;

use mobilenet_geo::{Country, CountryConfig};
use mobilenet_netsim::{
    collect_with_options, CollectOptions, CollectionStats, FaultPlan, IngestStats, NetsimConfig,
    DEFAULT_CHUNK_SIZE,
};
use mobilenet_traffic::{DemandModel, ServiceCatalog, TrafficConfig, TrafficDataset};

/// Complete configuration of a study.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Geography parameters.
    pub country: CountryConfig,
    /// Workload parameters.
    pub traffic: TrafficConfig,
    /// Measurement-pipeline parameters.
    pub netsim: NetsimConfig,
    /// Capture-path fault plan (default: [`FaultPlan::none`], the benign
    /// apparatus every scale historically assumed).
    pub faults: FaultPlan,
    /// Records-per-chunk budget of the streaming ingestion engine; peak
    /// resident records are bounded by `chunk_size × workers`.
    pub chunk_size: usize,
    /// Use the full session-level measurement pipeline (`true`) or the
    /// noise-free expected-value path (`false`).
    pub measured: bool,
}

impl StudyConfig {
    /// A ~1,000-commune measured study — the unit-test scale.
    pub fn small() -> Self {
        StudyConfig {
            country: CountryConfig::small(),
            traffic: TrafficConfig::fast(),
            netsim: NetsimConfig::standard(),
            faults: FaultPlan::none(),
            chunk_size: DEFAULT_CHUNK_SIZE,
            measured: true,
        }
    }

    /// A ~6,000-commune measured study — the figure-generation scale.
    pub fn medium() -> Self {
        StudyConfig {
            country: CountryConfig::medium(),
            traffic: TrafficConfig::standard(),
            netsim: NetsimConfig::standard(),
            faults: FaultPlan::none(),
            chunk_size: DEFAULT_CHUNK_SIZE,
            measured: true,
        }
    }

    /// Full France scale (36,000 communes, 30 M subscribers).
    pub fn france_scale() -> Self {
        StudyConfig {
            country: CountryConfig::france_scale(),
            traffic: TrafficConfig::standard(),
            netsim: NetsimConfig::standard(),
            faults: FaultPlan::none(),
            chunk_size: DEFAULT_CHUNK_SIZE,
            measured: true,
        }
    }

    /// The national measurement tier: France-scale geography with session
    /// thinning relaxed so the week carries ~10⁸ sessions — the paper's
    /// order of magnitude (30 M subscribers, >36,000 communes, Table 1).
    ///
    /// Designed to stream: peak resident records stay bounded by
    /// `chunk_size × workers` through the [`RecordSource`] engine, and the
    /// aggregation state is the same ~12 MB of marginal tables per shard
    /// partial as any other scale — only the record *stream* is two orders
    /// of magnitude longer.
    ///
    /// [`RecordSource`]: mobilenet_netsim::RecordSource
    pub fn national() -> Self {
        StudyConfig {
            country: CountryConfig::national(),
            traffic: TrafficConfig::national(),
            netsim: NetsimConfig::standard(),
            faults: FaultPlan::none(),
            chunk_size: DEFAULT_CHUNK_SIZE,
            measured: true,
        }
    }

    /// The same scale with a capture-path fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The same scale with a records-per-chunk budget for the streaming
    /// ingestion engine.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// The collection options this configuration describes.
    pub fn collect_options(&self) -> CollectOptions {
        CollectOptions::with_faults(self.faults.clone()).chunk_size(self.chunk_size)
    }

    /// Builds the demand model this configuration describes — country,
    /// catalog and workload — without collecting anything. Deterministic
    /// in `(config, seed)` and identical to the model a full
    /// [`Pipeline`](crate::Pipeline) run constructs, so records streamed
    /// from it (e.g. by the live aggregation service) are bit-identical
    /// to what batch collection aggregates.
    pub fn demand_model(&self, seed: u64) -> DemandModel {
        let country = Arc::new(Country::generate(&self.country, seed));
        let catalog = Arc::new(ServiceCatalog::standard(self.traffic.n_tail_services));
        DemandModel::new(country, catalog, self.traffic.clone(), seed)
    }
}

/// An assembled study: geography + catalog + one week of aggregated
/// traffic.
pub struct Study {
    model: DemandModel,
    dataset: TrafficDataset,
    collection_stats: Option<CollectionStats>,
    ingest: Option<IngestStats>,
}

impl Study {
    /// The generation body behind the [`Pipeline`](crate::Pipeline)
    /// builder. Deterministic in
    /// `(config, seed)`; records the `generate/{country,demand_model,…}`
    /// span tree when observability is enabled.
    pub(crate) fn generate_inner(config: &StudyConfig, seed: u64) -> Self {
        let _generate_span = mobilenet_obs::span("generate");
        let country_span = mobilenet_obs::span("country");
        let country = Arc::new(Country::generate(&config.country, seed));
        drop(country_span);
        let model_span = mobilenet_obs::span("demand_model");
        let catalog = Arc::new(ServiceCatalog::standard(config.traffic.n_tail_services));
        let model = DemandModel::new(country, catalog, config.traffic.clone(), seed);
        drop(model_span);
        let (dataset, collection_stats, ingest) = if config.measured {
            let out = collect_with_options(&model, &config.netsim, &config.collect_options(), seed)
                .expect("configuration validated by the pipeline builder");
            (out.dataset, Some(out.stats), Some(out.ingest))
        } else {
            let _expected_span = mobilenet_obs::span("expected_dataset");
            (model.expected_dataset(), None, None)
        };
        Study {
            model,
            dataset,
            collection_stats,
            ingest,
        }
    }

    /// Assembles a study from an existing demand model and a collection
    /// run over it — the hook ablation harnesses use to re-collect the
    /// same demand under varying pipeline parameters.
    pub fn from_parts(model: DemandModel, output: mobilenet_netsim::CollectionOutput) -> Self {
        Study {
            model,
            dataset: output.dataset,
            collection_stats: Some(output.stats),
            ingest: Some(output.ingest),
        }
    }

    /// The generated country.
    pub fn country(&self) -> &Country {
        self.model.country()
    }

    /// The service catalog (the generator's ground truth).
    pub fn catalog(&self) -> &ServiceCatalog {
        self.model.catalog()
    }

    /// The demand model the dataset was generated from.
    pub fn model(&self) -> &DemandModel {
        &self.model
    }

    /// The aggregated measurement tables.
    pub fn dataset(&self) -> &TrafficDataset {
        &self.dataset
    }

    /// Collection diagnostics (absent on the expected-value path).
    pub fn collection_stats(&self) -> Option<&CollectionStats> {
        self.collection_stats.as_ref()
    }

    /// Streaming-engine accounting of the collection (absent on the
    /// expected-value path).
    pub fn ingest_stats(&self) -> Option<&IngestStats> {
        self.ingest.as_ref()
    }

    /// Names of the head services, in catalog order.
    pub fn service_names(&self) -> Vec<&'static str> {
        self.catalog().head().iter().map(|s| s.name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobilenet_traffic::Direction;

    #[test]
    fn measured_study_reports_collection_stats() {
        let study = Study::generate_inner(&StudyConfig::small(), 1);
        let stats = study.collection_stats().expect("measured study has stats");
        let ingest = study
            .ingest_stats()
            .expect("measured study has ingest stats");
        assert_eq!(ingest.chunk_size, DEFAULT_CHUNK_SIZE);
        assert!(ingest.records > 0);
        assert!(ingest.peak_resident_records <= ingest.resident_budget());
        assert!(stats.sessions > 1_000);
        assert!((stats.classification_rate() - 0.88).abs() < 0.03);
        assert!(study.dataset().total(Direction::Down) > 0.0);
    }

    #[test]
    fn expected_study_has_no_stats() {
        let study = Study::generate_inner(
            &StudyConfig {
                measured: false,
                ..StudyConfig::small()
            },
            1,
        );
        assert!(study.collection_stats().is_none());
        assert!(study.ingest_stats().is_none());
        assert!(study.dataset().total(Direction::Down) > 0.0);
        assert_eq!(study.dataset().unclassified(Direction::Down), 0.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Study::generate_inner(&StudyConfig::small(), 5);
        let b = Study::generate_inner(&StudyConfig::small(), 5);
        assert_eq!(
            a.dataset().national_weekly(Direction::Down, 0),
            b.dataset().national_weekly(Direction::Down, 0)
        );
        assert_eq!(a.service_names(), b.service_names());
        assert_eq!(a.service_names().len(), 20);
    }

    #[test]
    fn measured_and_expected_totals_agree_up_to_classification() {
        let measured = Study::generate_inner(&StudyConfig::small(), 9);
        let expected = Study::generate_inner(
            &StudyConfig {
                measured: false,
                ..StudyConfig::small()
            },
            9,
        );
        let rate = 0.88;
        let m = measured.dataset().national_weekly(Direction::Down, 0);
        let e = expected.dataset().national_weekly(Direction::Down, 0) * rate;
        assert!((m - e).abs() / e < 0.12, "measured {m} vs expected {e}");
    }
}
