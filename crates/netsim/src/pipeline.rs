//! End-to-end collection: demand model → sessions → probes → dataset.
//!
//! [`collect_with_options`] runs the full measurement chain the paper
//! describes in §2 and produces the commune-aggregated [`TrafficDataset`]
//! every analysis consumes, together with [`CollectionStats`] quantifying
//! the artefacts the apparatus introduces (classification loss,
//! localization error, commune misassignment) and [`IngestStats`]
//! describing the streaming engine's chunk/memory accounting.
//!
//! Collection is sharded per service: each shard samples its sessions and
//! probe noise from seed-derived RNG streams ([`mobilenet_par::seed_for`])
//! and streams through the bounded-memory
//! [`ShardedFold`](crate::ingest::ShardedFold) into a partial
//! dataset, and the partials are merged in shard order.
//! Output is therefore bit-identical at any thread count (including a
//! serial run) and at any chunk size.
//!
//! Within a shard the probe runs in blocks: [`SyntheticSource`] stages a
//! fixed block of generated sessions, draws every ULI fix and signature
//! in the probe RNG's order, locates the whole block through the station
//! index, and only then takes diagnostics, faults and the sink in session
//! order. The same private loop feeds [`observe_with_options`], so
//! capture and collection cannot drift apart.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

use mobilenet_traffic::{DemandModel, SessionGenerator, TrafficDataset};

use crate::classifier::{DpiClassifier, UNCLASSIFIED_CODE};
use crate::config::NetsimConfig;
use crate::faults::{FaultInjector, FaultStats};
use crate::ingest::{
    fold_source, ChunkSink, CollectOptions, FoldStrategy, IngestError, IngestStats, RecordSource,
};
use crate::probe::{Probe, ProbeBlock};
use crate::radio::RadioNetwork;
use crate::records::{Interface, RecordBatch, SessionRecord};
use crate::uli::UliModel;

/// Cap on localization-error samples retained per [`CollectionStats`].
/// Each shard's reservoir stays below this; a 20-shard merge therefore
/// holds < 20 × 4096 samples regardless of session count.
pub const ERROR_SAMPLE_CAP: usize = 4096;

/// Diagnostics of one collection run.
#[derive(Debug, Clone, Default)]
pub struct CollectionStats {
    /// Total sessions observed.
    pub sessions: u64,
    /// Records captured on the Gn (3G) interface.
    pub gn_records: u64,
    /// Records captured on the S5/S8 (4G) interface.
    pub s5s8_records: u64,
    /// Volume the DPI stage classified, MB (both directions).
    pub classified_mb: f64,
    /// Volume the DPI stage could not classify, MB.
    pub unclassified_mb: f64,
    /// Sessions whose recorded commune differs from the true one.
    pub misassigned_sessions: u64,
    /// Sessions with a stale ULI fix.
    pub stale_fixes: u64,
    /// Sampled localization errors, km (every 16th session of each shard,
    /// further thinned by [`CollectionStats::push_error_sample`] so the
    /// reservoir stays bounded at any session count).
    pub sampled_errors_km: Vec<f64>,
    /// Error samples offered to the reservoir so far (pre-thinning).
    pub error_samples_seen: u64,
    /// Current thinning stride of the error reservoir: every
    /// `error_sample_thin`-th offered sample is retained (0 is treated as
    /// 1, i.e. keep everything until the cap is first reached).
    pub error_sample_thin: u64,
    /// Degradation inflicted by the fault plan (all-zero when collecting
    /// with [`FaultPlan::none`](crate::faults::FaultPlan::none)).
    pub faults: FaultStats,
}

impl CollectionStats {
    /// Folds another run's (or shard's) diagnostics into this one.
    ///
    /// The parallel pipeline merges per-shard partials **in shard order**,
    /// so the floating-point accumulation order — and with it every
    /// derived statistic — is independent of the thread count.
    pub fn merge(&mut self, other: &CollectionStats) {
        self.sessions += other.sessions;
        self.gn_records += other.gn_records;
        self.s5s8_records += other.s5s8_records;
        self.classified_mb += other.classified_mb;
        self.unclassified_mb += other.unclassified_mb;
        self.misassigned_sessions += other.misassigned_sessions;
        self.stale_fixes += other.stale_fixes;
        self.sampled_errors_km
            .extend_from_slice(&other.sampled_errors_km);
        self.error_samples_seen += other.error_samples_seen;
        self.error_sample_thin = self.error_sample_thin.max(other.error_sample_thin);
        self.faults.merge(&other.faults);
    }

    /// Offers one localization-error sample to the bounded reservoir.
    ///
    /// Doubling-thinning: samples are kept every `error_sample_thin`-th
    /// offer; when the retained set reaches [`ERROR_SAMPLE_CAP`] the
    /// even-indexed half is kept and the stride doubles, so the vector
    /// never exceeds the cap no matter how many sessions stream through
    /// (at paper scale the old unbounded push grew by ~6 M samples per
    /// 10⁸ sessions). Deterministic: retention depends only on how many
    /// samples this struct has seen, and shards each own their stats, so
    /// the merged reservoir is identical at any thread count and chunk
    /// size.
    pub fn push_error_sample(&mut self, km: f64) {
        if self.error_sample_thin == 0 {
            self.error_sample_thin = 1;
        }
        if self
            .error_samples_seen
            .is_multiple_of(self.error_sample_thin)
        {
            self.sampled_errors_km.push(km);
            if self.sampled_errors_km.len() >= ERROR_SAMPLE_CAP {
                let mut i = 0usize;
                self.sampled_errors_km.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
                self.error_sample_thin *= 2;
            }
        }
        self.error_samples_seen += 1;
    }

    /// Fraction of the volume the classifier attributed to a service.
    pub fn classification_rate(&self) -> f64 {
        let total = self.classified_mb + self.unclassified_mb;
        if total <= 0.0 {
            return 0.0;
        }
        self.classified_mb / total
    }

    /// Fraction of sessions aggregated into the wrong commune.
    pub fn misassignment_rate(&self) -> f64 {
        if self.sessions == 0 {
            return 0.0;
        }
        self.misassigned_sessions as f64 / self.sessions as f64
    }

    /// Median of the sampled localization errors, km.
    ///
    /// NaN-safe: a corrupt sample cannot panic the sort ([`f64::total_cmp`]
    /// orders NaN after every finite value).
    pub fn median_error_km(&self) -> f64 {
        if self.sampled_errors_km.is_empty() {
            return 0.0;
        }
        let mut s = self.sampled_errors_km.clone();
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    }
}

/// The result of a collection run.
pub struct CollectionOutput {
    /// The commune-aggregated dataset (the analyses' input).
    pub dataset: TrafficDataset,
    /// Collection diagnostics.
    pub stats: CollectionStats,
    /// Streaming-engine accounting (chunks, records, peak residency).
    pub ingest: IngestStats,
}

/// The probe-noise RNG of one shard: like session sampling, probe noise is
/// a per-shard stream derived from the master seed, so a shard's records
/// are identical wherever and whenever the shard runs.
fn probe_shard_rng(seed: u64, shard: usize) -> StdRng {
    StdRng::seed_from_u64(mobilenet_par::seed_for(
        seed ^ 0x7072_6f62_6572_6e67, // "proberng"
        shard as u64,
    ))
}

/// Folds one flushed [`RecordBatch`] into a shard's partial dataset and
/// diagnostics — the streaming engine's per-chunk accumulation step,
/// shared by collection ([`collect_with_options`], the live service) and
/// replay ([`crate::ingest::ingest`], `replay_mode = true`, which
/// additionally counts every record as a session and its stale-ULI flag
/// as a stale fix).
///
/// The batch's signatures are dictionary-encoded once and the loop
/// accumulates dense columns straight into the dataset's tables,
/// borrowing a head service's block once per run of its records
/// ([`TrafficDataset::service_rows_mut`]), so the per-record step is six
/// additions with no atomic operation and no allocation. Records are
/// walked in batch order with the same floating-point additions per
/// record as a row-at-a-time fold through [`DpiClassifier::classify`]
/// and the dataset's adders, which `tests/streaming_ingest.rs` pins bit
/// for bit.
pub fn aggregate_batch(
    batch: &mut RecordBatch,
    classifier: &DpiClassifier,
    strategy: FoldStrategy,
    replay_mode: bool,
    dataset: &mut TrafficDataset,
    stats: &mut CollectionStats,
) {
    let FoldStrategy::Batched = strategy;
    batch.resolve_codes(classifier);
    let n_head = classifier.n_head();
    let n_services = n_head + classifier.n_tail();
    let interfaces = batch.interfaces();
    let hours = batch.start_hours();
    let dl = batch.dl_mb();
    let ul = batch.ul_mb();
    let communes = batch.communes();
    let stale = batch.stale_uli();
    let codes = batch.codes();
    let count = |i: usize, stats: &mut CollectionStats| {
        match interfaces[i] {
            Interface::Gn => stats.gn_records += 1,
            Interface::S5S8 => stats.s5s8_records += 1,
        }
        if replay_mode {
            stats.sessions += 1;
            stats.stale_fixes += stale[i] as u64;
        }
    };
    let mut i = 0;
    while i < batch.len() {
        let code = codes[i];
        if code < n_head {
            // A shard's records are mostly one head service: its block is
            // borrowed once for the whole run of them.
            let mut rows = dataset.service_rows_mut(code as usize);
            while i < batch.len() && codes[i] == code {
                count(i, stats);
                stats.classified_mb += dl[i] + ul[i];
                rows.add_both(communes[i] as usize, hours[i] as usize, dl[i], ul[i]);
                i += 1;
            }
            continue;
        }
        count(i, stats);
        if code < n_services {
            stats.classified_mb += dl[i] + ul[i];
            dataset.add_tail_both((code - n_head) as usize, dl[i], ul[i]);
        } else {
            debug_assert_eq!(code, UNCLASSIFIED_CODE);
            stats.unclassified_mb += dl[i] + ul[i];
            dataset.add_unclassified_both(dl[i], ul[i]);
        }
        i += 1;
    }
}

/// The owned capture apparatus of a run: radio network, DPI tables,
/// ULI movement directions and the measurement configuration — what
/// [`collect_with_options`] deploys internally, split out so long-running
/// consumers (the live aggregation service) can build it once and stream
/// the synthetic demand through it shard by shard.
///
/// Deterministic in `(model, config, seed)`: the apparatus — and every
/// record a [`SyntheticSource`] derived from it emits — is bit-identical
/// to what a batch collection with the same inputs observes.
pub struct Capture {
    radio: RadioNetwork,
    classifier: DpiClassifier,
    directions: Vec<Option<(f64, f64)>>,
    config: NetsimConfig,
}

impl Capture {
    /// Deploys the apparatus for `model` under `config`; fails on an
    /// invalid configuration instead of panicking.
    pub fn build(model: &DemandModel, config: &NetsimConfig, seed: u64) -> Result<Capture, String> {
        config.validate()?;
        let country = model.country();
        let radio = RadioNetwork::deploy(country, config, seed ^ 0x7261_6469_6f00_0001);
        let classifier = DpiClassifier::new(
            model.catalog().head().len(),
            model.catalog().tail_len(),
            model.config().classified_fraction,
        );
        // Train passengers' fixes displace along the rail; everyone else
        // scatters isotropically.
        let directions = country
            .communes()
            .iter()
            .map(|c| {
                if c.usage_class() == mobilenet_geo::UsageClass::Tgv {
                    mobilenet_geo::rail::nearest_line_direction(country.tgv_lines(), &c.centroid)
                } else {
                    None
                }
            })
            .collect();
        Ok(Capture {
            radio,
            classifier,
            directions,
            config: config.clone(),
        })
    }

    /// The DPI stage of this apparatus — the classifier every aggregation
    /// fold over its records must use.
    pub fn classifier(&self) -> &DpiClassifier {
        &self.classifier
    }

    /// The synthetic week observed through this apparatus as a
    /// [`RecordSource`]: one shard per head service, each streaming
    /// `sessions → probe → (faults) → records` — exactly the stream
    /// [`collect_with_options`] aggregates for the same
    /// `(model, config, options, seed)`.
    pub fn source<'a>(
        &'a self,
        model: &'a DemandModel,
        options: &'a CollectOptions,
        seed: u64,
    ) -> SyntheticSource<'a> {
        let probe = Probe::new(&self.radio, UliModel::new(&self.config), &self.classifier)
            .with_movement_directions(self.directions.clone());
        SyntheticSource {
            generator: SessionGenerator::new(model, seed),
            probe,
            injector: FaultInjector::new(&options.faults),
            country: model.country(),
            seed,
            faulted: !options.faults.is_none(),
            bytes: AtomicU64::new(0),
        }
    }
}

/// The synthetic demand model as a [`RecordSource`]: one shard per head
/// service, each streaming `sessions → probe → (faults) → records` from
/// seed-derived RNG streams — exactly the record stream the historical
/// materialized `collect` aggregated, now pushed through bounded chunks.
/// Built via [`Capture::source`].
pub struct SyntheticSource<'a> {
    generator: SessionGenerator<'a>,
    probe: Probe<'a>,
    injector: FaultInjector<'a>,
    country: &'a mobilenet_geo::Country,
    seed: u64,
    faulted: bool,
    /// Logical bytes delivered to sinks so far (`records ×
    /// size_of::<SessionRecord>()`); a synthetic source reads no storage,
    /// but live health reporting still wants a throughput denominator.
    bytes: AtomicU64,
}

/// Sessions a [`SyntheticSource`] stages per probe block: small enough
/// that a block's sessions, fixes and signatures stay in cache, large
/// enough that the locate pass runs long stretches of index lookups.
/// Independent of the engine's chunk size, and never above
/// [`DEFAULT_CHUNK_SIZE`](crate::ingest::DEFAULT_CHUNK_SIZE).
const PROBE_BLOCK: usize = 1024;

impl SyntheticSource<'_> {
    /// Streams shard `shard` through the probe and the fault plan, in
    /// blocks of [`PROBE_BLOCK`] staged sessions, handing every delivered
    /// record to `emit` in session order. Session-level diagnostics and
    /// fault accounting fold into `stats`; returns the records delivered.
    ///
    /// Each block runs three passes: ULI fix and signature per session
    /// (the probe RNG's draw order), locate every fix, then diagnostics,
    /// faults and `emit` per session in order. The probe RNG, the fault
    /// RNG and `emit` see exactly the sequence a session-at-a-time loop
    /// produces, so blocking changes no output bit.
    pub(crate) fn probe_shard(
        &self,
        shard: usize,
        stats: &mut CollectionStats,
        mut emit: impl FnMut(&SessionRecord),
    ) -> u64 {
        let mut probe_rng = probe_shard_rng(self.seed, shard);
        let mut fault_rng = self.injector.shard_rng(self.seed, shard);
        let mut delivered = 0u64;
        let mut block = ProbeBlock::with_capacity(PROBE_BLOCK);
        let mut run = |block: &mut ProbeBlock| {
            self.probe.observe_block(block, &mut probe_rng);
            for (session, record) in block.records() {
                stats.sessions += 1;
                stats.stale_fixes += record.stale_uli as u64;
                stats.misassigned_sessions += (record.commune != session.commune) as u64;
                if stats.sessions.is_multiple_of(16) {
                    // Localization error, sampled: distance from the true
                    // position to the centroid of the commune the record
                    // was binned into.
                    let recorded = self.country.commune(record.commune);
                    stats.push_error_sample(session.position.distance(&recorded.centroid));
                }
                if self.faulted {
                    self.injector
                        .apply(&record, &mut fault_rng, &mut stats.faults, |degraded| {
                            delivered += 1;
                            emit(degraded);
                        });
                } else {
                    delivered += 1;
                    emit(&record);
                }
            }
            block.sessions.clear();
        };
        self.generator.generate_shard(shard, |session| {
            block.sessions.push(*session);
            if block.sessions.len() == PROBE_BLOCK {
                run(&mut block);
            }
        });
        run(&mut block);
        delivered
    }
}

impl RecordSource for SyntheticSource<'_> {
    fn shards(&self) -> usize {
        self.generator.shards()
    }

    fn stream_shard(
        &self,
        shard: usize,
        stats: &mut CollectionStats,
        sink: &mut ChunkSink<'_>,
    ) -> Result<(), IngestError> {
        let delivered = self.probe_shard(shard, stats, |record| sink.push(record));
        self.bytes.fetch_add(
            delivered * std::mem::size_of::<SessionRecord>() as u64,
            Ordering::Relaxed,
        );
        Ok(())
    }

    fn bytes_read(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// What one capture run saw and emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureSummary {
    /// Sessions observed by the probes (pre-fault).
    pub sessions: u64,
    /// Records actually delivered to the sink (post-fault).
    pub emitted: u64,
    /// Degradation the fault plan inflicted.
    pub faults: FaultStats,
}

/// Runs the capture side only: sessions → probes → (faults) → `sink`, one
/// record per session, without aggregation.
///
/// Deterministic in `(model, config, options, seed)` and produces exactly
/// the records [`collect_with_options`] would aggregate: the capture runs
/// the same per-shard blocked probe loop of [`SyntheticSource`], serially
/// in shard order. Memory stays bounded by one probe block of sessions
/// and their observations — records reach `sink` as they are produced —
/// so `options.chunk_size` does not change its behaviour; it is still
/// validated so one `CollectOptions` value can drive both paths.
pub fn observe_with_options(
    model: &DemandModel,
    config: &NetsimConfig,
    options: &CollectOptions,
    seed: u64,
    mut sink: impl FnMut(&SessionRecord),
) -> Result<CaptureSummary, String> {
    config.validate()?;
    options.validate()?;
    let capture = Capture::build(model, config, seed)?;
    let source = capture.source(model, options, seed);
    let mut summary = CaptureSummary::default();
    for shard in 0..source.shards() {
        let mut stats = CollectionStats::default();
        summary.emitted += source.probe_shard(shard, &mut stats, &mut sink);
        summary.sessions += stats.sessions;
        summary.faults.merge(&stats.faults);
    }
    Ok(summary)
}

/// Runs the full measurement pipeline over one week of synthetic demand —
/// the unified entry point behind the historical `collect` /
/// `collect_with_faults` pair.
///
/// `seed` drives session sampling, localization noise and classification
/// loss; runs are fully deterministic in `(model, config, options, seed)`
/// — and, because per-service shards draw from derived RNG streams and
/// merge in shard order, independent of `MOBILENET_THREADS` **and** of
/// `options.chunk_size` (chunking bounds residency, never fold order).
///
/// Fault decisions draw from their own per-shard RNG streams, so
/// [`CollectOptions::default`] (no faults) is **bit-identical** to the
/// historical fault-free path, and any plan is bit-identical at any
/// thread count. Session-level diagnostics (`sessions`, `stale_fixes`,
/// `misassigned_sessions`, `sampled_errors_km`) describe the pre-fault
/// probe stream; the record counters (`gn_records`, `s5s8_records`,
/// volume counters) describe what survived degradation and was
/// aggregated. Peak resident records never exceed
/// `options.chunk_size × workers` ([`IngestStats::resident_budget`]).
pub fn collect_with_options(
    model: &DemandModel,
    config: &NetsimConfig,
    options: &CollectOptions,
    seed: u64,
) -> Result<CollectionOutput, IngestError> {
    options.validate().map_err(IngestError::Config)?;
    let _collect_span = mobilenet_obs::span("collect");
    let capture_span = mobilenet_obs::span("capture");
    let capture = Capture::build(model, config, seed).map_err(IngestError::Config)?;
    let source = capture.source(model, options, seed);
    drop(capture_span);

    let out = fold_source(&source, model, options.chunk_size, |batch, ds, st| {
        aggregate_batch(
            batch,
            capture.classifier(),
            FoldStrategy::Batched,
            false,
            ds,
            st,
        )
    })?;
    record_collection_metrics(&out.stats, source.faulted);
    Ok(out)
}

/// Bucket edges (km) of the `netsim.uli_error_km` displacement histogram:
/// sub-cell fixes up to long-range TGV mislocalizations.
const ULI_ERROR_EDGES_KM: [f64; 8] = [0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 15.0, 30.0];

/// Publishes a run's [`CollectionStats`] to the observability registry.
///
/// Called once per collection, after the shard-ordered merge, from a
/// single thread — so the `f64` byte counters and the histogram sum
/// accumulate in a fixed order and every recorded value is bit-identical
/// at any thread count. The `netsim.faults.*` group is only emitted for
/// collections run under an active fault plan, so fault-free obs reports
/// keep their historical shape.
fn record_collection_metrics(stats: &CollectionStats, faulted: bool) {
    if !mobilenet_obs::enabled() {
        return;
    }
    mobilenet_obs::add("netsim.sessions", stats.sessions);
    mobilenet_obs::add("netsim.gn_records", stats.gn_records);
    mobilenet_obs::add("netsim.s5s8_records", stats.s5s8_records);
    mobilenet_obs::add("netsim.stale_fixes", stats.stale_fixes);
    mobilenet_obs::add("netsim.misassigned_sessions", stats.misassigned_sessions);
    mobilenet_obs::add_f64("netsim.classified_mb", stats.classified_mb);
    mobilenet_obs::add_f64("netsim.unclassified_mb", stats.unclassified_mb);
    if faulted {
        mobilenet_obs::add("netsim.faults.lost_outage", stats.faults.lost_outage);
        mobilenet_obs::add("netsim.faults.lost_records", stats.faults.lost_records);
        mobilenet_obs::add(
            "netsim.faults.duplicated_records",
            stats.faults.duplicated_records,
        );
        mobilenet_obs::add(
            "netsim.faults.truncated_records",
            stats.faults.truncated_records,
        );
        mobilenet_obs::add("netsim.faults.skewed_records", stats.faults.skewed_records);
    }
    for &err in &stats.sampled_errors_km {
        mobilenet_obs::observe("netsim.uli_error_km", err, &ULI_ERROR_EDGES_KM);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobilenet_geo::{Country, CountryConfig};
    use mobilenet_traffic::{Direction, ServiceCatalog, TrafficConfig, HOURS_PER_WEEK};
    use std::sync::Arc;

    fn model() -> DemandModel {
        let country = Arc::new(Country::generate(&CountryConfig::small(), 3));
        let catalog = Arc::new(ServiceCatalog::standard(30));
        DemandModel::new(country, catalog, TrafficConfig::fast(), 11)
    }

    /// Fault-free collection through the unified entry point.
    fn run(m: &DemandModel, cfg: &NetsimConfig, seed: u64) -> CollectionOutput {
        collect_with_options(m, cfg, &CollectOptions::default(), seed).expect("valid config")
    }

    /// Fault-free capture through the unified entry point.
    fn capture(m: &DemandModel, cfg: &NetsimConfig, seed: u64) -> Vec<SessionRecord> {
        let mut records = Vec::new();
        observe_with_options(m, cfg, &CollectOptions::default(), seed, |r| {
            records.push(r.clone())
        })
        .expect("valid config");
        records
    }

    #[test]
    fn classification_rate_matches_configuration() {
        let m = model();
        let out = run(&m, &NetsimConfig::standard(), 5);
        let rate = out.stats.classification_rate();
        assert!((rate - 0.88).abs() < 0.02, "classification rate {rate}");
        assert!(out.stats.sessions > 1000);
        assert!(out.dataset.unclassified(Direction::Down) > 0.0);
    }

    #[test]
    fn median_localization_error_is_near_target() {
        let m = model();
        let out = run(&m, &NetsimConfig::standard(), 5);
        let median = out.stats.median_error_km();
        // Binning to communes adds the commune radius (~2.9 km for the
        // small config) on top of the 3 km ULI error.
        assert!(median > 1.0 && median < 9.0, "median error {median} km");
    }

    #[test]
    fn ideal_pipeline_recovers_expected_totals() {
        let m = model();
        let mut cfg = NetsimConfig::ideal();
        cfg.stations_per_10k_pop = 5.0;
        let out = run(&m, &cfg, 6);
        let expected = m.expected_dataset();
        // National weekly totals converge (classification is still lossy:
        // fast config keeps 88%).
        let rate = m.config().classified_fraction;
        for s in 0..3 {
            let want = expected.national_weekly(Direction::Down, s) * rate;
            let got = out.dataset.national_weekly(Direction::Down, s);
            let err = (got - want).abs() / want;
            assert!(err < 0.15, "service {s}: got {got}, want {want}");
        }
    }

    #[test]
    fn both_interfaces_are_exercised() {
        let m = model();
        let out = run(&m, &NetsimConfig::standard(), 7);
        assert!(out.stats.gn_records > 0, "no 3G records");
        assert!(out.stats.s5s8_records > 0, "no 4G records");
        assert!(
            out.stats.stale_fixes > 0,
            "no stale ULI fixes at 12% probability"
        );
    }

    #[test]
    fn localization_noise_causes_misassignment_but_ideal_does_not() {
        let m = model();
        let noisy = run(&m, &NetsimConfig::standard(), 8);
        assert!(
            noisy.stats.misassignment_rate() > 0.1,
            "3 km noise on ~5 km communes must misassign: {}",
            noisy.stats.misassignment_rate()
        );
        // Perfect ULI still misassigns some sessions: base-station Voronoi
        // cells do not coincide with commune boundaries (true of the real
        // network as well), so only the *additional* noise-driven
        // misassignment should disappear.
        let ideal = run(&m, &NetsimConfig::ideal(), 8);
        assert!(
            ideal.stats.misassignment_rate() < noisy.stats.misassignment_rate() * 0.75,
            "ideal {} vs noisy {}",
            ideal.stats.misassignment_rate(),
            noisy.stats.misassignment_rate()
        );
    }

    #[test]
    fn collection_is_deterministic() {
        let m = model();
        let a = run(&m, &NetsimConfig::standard(), 9);
        let b = run(&m, &NetsimConfig::standard(), 9);
        assert_eq!(a.stats.sessions, b.stats.sessions);
        assert_eq!(a.stats.misassigned_sessions, b.stats.misassigned_sessions);
        assert_eq!(
            a.dataset.national_weekly(Direction::Down, 0),
            b.dataset.national_weekly(Direction::Down, 0)
        );
    }

    #[test]
    fn median_error_survives_nan_samples() {
        // A corrupt sample (e.g. a poisoned trace) must not panic the
        // sort; total_cmp orders NaN after every finite value.
        let stats = CollectionStats {
            sampled_errors_km: vec![3.0, f64::NAN, 1.0, 2.0, f64::NAN],
            ..CollectionStats::default()
        };
        let median = stats.median_error_km();
        assert_eq!(
            median, 3.0,
            "NaNs sort last; the middle of 5 samples is the finite max"
        );
        let empty = CollectionStats::default();
        assert_eq!(empty.median_error_km(), 0.0);
    }

    #[test]
    fn explicit_no_fault_options_match_the_default_entry_point() {
        // An explicit no-fault `CollectOptions` lands on the same bits as
        // the default options path.
        let m = model();
        let cfg = NetsimConfig::standard();
        let plain = run(&m, &cfg, 12);
        let opts = CollectOptions::with_faults(crate::FaultPlan::none());
        let faultless = collect_with_options(&m, &cfg, &opts, 12).unwrap();
        assert_eq!(plain.dataset.to_csv(), faultless.dataset.to_csv());
        assert_eq!(plain.stats.sessions, faultless.stats.sessions);
        assert_eq!(plain.stats.classified_mb, faultless.stats.classified_mb);
        assert!(!faultless.stats.faults.any());
    }

    #[test]
    fn faulted_collection_degrades_without_panicking() {
        let m = model();
        let cfg = NetsimConfig::standard();
        let clean = run(&m, &cfg, 13);
        let mut plan = crate::FaultPlan::degraded(13);
        plan.loss_prob = 0.10;
        let out = collect_with_options(&m, &cfg, &CollectOptions::with_faults(plan), 13).unwrap();
        let f = &out.stats.faults;
        assert!(
            f.lost_outage > 0,
            "Gn outage window must drop records: {f:?}"
        );
        assert!(f.lost_records > 0 && f.duplicated_records > 0);
        assert!(f.truncated_records > 0 && f.skewed_records > 0);
        // Sessions are a pre-fault diagnostic; aggregated records shrink.
        assert_eq!(out.stats.sessions, clean.stats.sessions);
        let kept = out.stats.gn_records + out.stats.s5s8_records;
        assert_eq!(
            kept,
            out.stats.sessions - f.lost_total() + f.duplicated_records
        );
        assert!(
            out.dataset.total(mobilenet_traffic::Direction::Down)
                < clean.dataset.total(mobilenet_traffic::Direction::Down),
            "10% loss must outweigh 1% duplication"
        );
    }

    #[test]
    fn faulted_collection_is_deterministic() {
        let m = model();
        let cfg = NetsimConfig::standard();
        let plan = crate::FaultPlan::degraded(5);
        let opts = CollectOptions::with_faults(plan);
        let a = collect_with_options(&m, &cfg, &opts, 14).unwrap();
        let b = collect_with_options(&m, &cfg, &opts, 14).unwrap();
        assert_eq!(a.dataset.to_csv(), b.dataset.to_csv());
        assert_eq!(a.stats.faults, b.stats.faults);
    }

    #[test]
    fn invalid_config_or_plan_is_an_error_not_a_panic() {
        let m = model();
        let mut cfg = NetsimConfig::standard();
        cfg.stations_per_10k_pop = -1.0;
        assert!(collect_with_options(&m, &cfg, &CollectOptions::default(), 1).is_err());
        let mut plan = crate::FaultPlan::none();
        plan.loss_prob = 7.0;
        let opts = CollectOptions::with_faults(plan);
        assert!(collect_with_options(&m, &NetsimConfig::standard(), &opts, 1).is_err());
        let opts = CollectOptions::default().chunk_size(0);
        assert!(collect_with_options(&m, &NetsimConfig::standard(), &opts, 1).is_err());
    }

    #[test]
    fn chunked_collection_is_bit_identical_and_bounded() {
        let m = model();
        let cfg = NetsimConfig::standard();
        let reference = run(&m, &cfg, 15);
        for chunk_size in [1usize, 7, 1 << 20] {
            let opts = CollectOptions::default().chunk_size(chunk_size);
            let out = collect_with_options(&m, &cfg, &opts, 15).unwrap();
            assert_eq!(
                reference.dataset.to_csv(),
                out.dataset.to_csv(),
                "chunk_size {chunk_size} diverged"
            );
            assert_eq!(out.ingest.chunk_size, chunk_size);
            assert!(
                out.ingest.peak_resident_records <= out.ingest.resident_budget(),
                "peak {} over budget {}",
                out.ingest.peak_resident_records,
                out.ingest.resident_budget()
            );
            assert_eq!(
                out.ingest.records,
                out.stats.gn_records + out.stats.s5s8_records
            );
            let record_bytes = std::mem::size_of::<SessionRecord>() as u64;
            assert_eq!(
                out.ingest.bytes_read,
                out.ingest.records * record_bytes,
                "synthetic sources account delivered records as bytes"
            );
            assert!(out.ingest.chunks >= 1);
        }
    }

    #[test]
    fn serving_station_is_the_linear_argmin_over_a_real_probe_stream() {
        // Fixes from the probe's own noise model over a real session
        // stream — stale fixes included, some of them outside the
        // stations' bounding box — must land on exactly the station a
        // linear scan picks: least squared distance, lowest index on ties —
        // and aggregate into that station's host commune.
        let m = model();
        let cfg = NetsimConfig::standard();
        let radio = RadioNetwork::deploy(m.country(), &cfg, 21);
        let uli = UliModel::new(&cfg);
        let mut rng = StdRng::seed_from_u64(22);
        let mut fixes = Vec::new();
        SessionGenerator::new(&m, 23).generate_shard(0, |s| {
            fixes.push(uli.fix_along(&s.position, None, &mut rng).0);
        });
        assert!(fixes.len() > 1000, "only {} fixes", fixes.len());
        for fix in fixes.iter().step_by(3) {
            let (_, want) = radio
                .stations
                .iter()
                .enumerate()
                .min_by(|(i, a), (j, b)| {
                    a.position
                        .distance_sq(fix)
                        .total_cmp(&b.position.distance_sq(fix))
                        .then(i.cmp(j))
                })
                .unwrap();
            assert!(
                std::ptr::eq(radio.serving_station(fix), want),
                "fix {fix:?}"
            );
            assert_eq!(radio.commune_of_fix(fix), want.commune, "fix {fix:?}");
        }
    }

    #[test]
    fn a_fold_over_signed_zeros_and_nans_leaves_no_negative_zero_cell() {
        // The precondition for sharing a partial's block in a merge: a
        // cell built by the fold never holds `-0.0`, so `+0.0 + x` has
        // the bits of `x`.
        let m = model();
        let classifier = DpiClassifier::new(m.catalog().head().len(), m.catalog().tail_len(), 0.88);
        let communes = m.country().communes().len();
        let mut rng = StdRng::seed_from_u64(4);
        let volumes = [-0.0, 0.0, f64::NAN];
        let mut batch = RecordBatch::with_capacity(900);
        for i in 0..900usize {
            let signature = if i % 4 == 3 {
                classifier.stamp_tail((i % 7) as u16, &mut rng)
            } else {
                classifier.stamp_head((i % 3) as u16, &mut rng)
            };
            let (dl, ul) = (volumes[i % 3], volumes[(i / 3) % 3]);
            let hour = (i % HOURS_PER_WEEK) as u16;
            let commune = (i % communes) as u32;
            batch.push_parts(Interface::Gn, hour, dl, ul, commune, signature.0, false);
        }
        let mut ds = TrafficDataset::new(m.country(), 3, m.catalog().tail_len(), 0.5);
        let mut stats = CollectionStats::default();
        aggregate_batch(
            &mut batch,
            &classifier,
            FoldStrategy::Batched,
            false,
            &mut ds,
            &mut stats,
        );
        assert!(stats.classified_mb.is_nan(), "NaN volumes were folded");

        let negative_zero =
            |cells: &[f64]| cells.iter().any(|v| v.to_bits() == (-0.0f64).to_bits());
        for s in 0..3 {
            let written = ds
                .national_series(Direction::Up, s)
                .iter()
                .any(|v| v.is_nan());
            assert!(written, "the fold wrote service {s}'s rows");
        }
        for dir in Direction::BOTH {
            for s in 0..3 {
                assert!(!negative_zero(ds.national_series(dir, s)), "national {s}");
                assert!(!negative_zero(ds.commune_vector(dir, s)), "commune {s}");
                for class in mobilenet_geo::UsageClass::ALL {
                    assert!(!negative_zero(ds.class_series(dir, s, class)), "class {s}");
                }
            }
            assert!(!negative_zero(ds.tail_weekly(dir)));
            assert!(!negative_zero(&[ds.unclassified(dir)]));
        }
    }

    #[test]
    fn tail_ranking_is_filled() {
        let m = model();
        let out = run(&m, &NetsimConfig::standard(), 10);
        let tail = out.dataset.tail_weekly(Direction::Down);
        assert_eq!(tail.len(), 30);
        assert!(tail.iter().all(|v| *v > 0.0));
        let ranking = out.dataset.full_ranking(Direction::Down);
        assert_eq!(ranking.len(), 50);
    }

    #[test]
    fn observe_sessions_is_deterministic() {
        let m = model();
        let cfg = NetsimConfig::standard();
        let a = capture(&m, &cfg, 5);
        let b = capture(&m, &cfg, 5);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.first(), b.first());
        assert_eq!(a.last(), b.last());
    }

    #[test]
    fn observe_sessions_rejects_invalid_config_without_panicking() {
        let m = model();
        let mut cfg = NetsimConfig::standard();
        cfg.uli_stale_prob = 2.0;
        let err =
            observe_with_options(&m, &cfg, &CollectOptions::default(), 5, |_| {}).unwrap_err();
        assert!(err.contains("uli_stale_prob"), "{err}");
        let mut plan = crate::FaultPlan::none();
        plan.dup_prob = -0.5;
        let opts = CollectOptions::with_faults(plan);
        let err =
            observe_with_options(&m, &NetsimConfig::standard(), &opts, 5, |_| {}).unwrap_err();
        assert!(err.contains("dup_prob"), "{err}");
        let opts = CollectOptions::default().chunk_size(0);
        let err =
            observe_with_options(&m, &NetsimConfig::standard(), &opts, 5, |_| {}).unwrap_err();
        assert!(err.contains("chunk_size"), "{err}");
    }

    #[test]
    fn faulted_capture_matches_faulted_collection() {
        // A faulted capture emits exactly the records a faulted
        // collection aggregates.
        let m = model();
        let cfg = NetsimConfig::standard();
        let opts = CollectOptions::with_faults(crate::FaultPlan::degraded(21));
        let direct = collect_with_options(&m, &cfg, &opts, 7).unwrap();

        let mut records = Vec::new();
        let summary =
            observe_with_options(&m, &cfg, &opts, 7, |r| records.push(r.clone())).unwrap();
        assert_eq!(summary.emitted as usize, records.len());
        assert_eq!(summary.sessions, direct.stats.sessions);
        assert_eq!(summary.faults, direct.stats.faults);
        assert_eq!(
            summary.emitted,
            direct.stats.gn_records + direct.stats.s5s8_records
        );

        let replayed = crate::ingest(
            &crate::SliceSource::new(&records),
            &m,
            &CollectOptions::default(),
        )
        .expect("default options are valid")
        .dataset;
        for dir in Direction::BOTH {
            for s in (0..20).step_by(7) {
                let a = direct.dataset.national_series(dir, s);
                let b = replayed.national_series(dir, s);
                for (x, y) in a.iter().zip(b.iter()) {
                    assert!(
                        (x - y).abs() < 1e-9,
                        "{} service {s}: {x} vs {y}",
                        dir.label()
                    );
                }
            }
        }
    }

    #[test]
    fn slice_replay_matches_at_any_chunk_size() {
        let m = model();
        let records = capture(&m, &NetsimConfig::standard(), 13);
        let replay = |opts: &CollectOptions| {
            crate::ingest(&crate::SliceSource::new(&records), &m, opts).expect("valid options")
        };
        let reference = replay(&CollectOptions::default());
        for chunk_size in [1usize, 97, records.len() + 10] {
            let out = replay(&CollectOptions::default().chunk_size(chunk_size));
            assert_eq!(
                reference.dataset.to_csv(),
                out.dataset.to_csv(),
                "chunk_size {chunk_size} diverged"
            );
            assert_eq!(out.stats.sessions, records.len() as u64);
            assert_eq!(out.ingest.records, records.len() as u64);
            assert_eq!(
                out.ingest.bytes_read,
                std::mem::size_of_val(records.as_slice()) as u64
            );
            assert!(out.ingest.peak_resident_records <= out.ingest.resident_budget());
            assert_eq!(
                out.ingest.chunks,
                (records.len() as u64).div_ceil(chunk_size as u64)
            );
        }
    }

    #[test]
    fn faulted_capture_summary_accounts_for_the_degradation() {
        let m = model();
        let cfg = NetsimConfig::standard();
        let clean = capture(&m, &cfg, 17);
        let plan = crate::FaultPlan::degraded(3);
        let mut faulted = Vec::new();
        let summary = observe_with_options(&m, &cfg, &CollectOptions::with_faults(plan), 17, |r| {
            faulted.push(r.clone())
        })
        .unwrap();
        assert_eq!(summary.sessions, clean.len() as u64);
        assert_eq!(summary.emitted, faulted.len() as u64);
        assert_eq!(
            summary.emitted,
            summary.sessions - summary.faults.lost_total() + summary.faults.duplicated_records
        );
        assert!(summary.faults.any());
    }
}
