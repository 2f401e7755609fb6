//! Thin-slice smoke of the national (paper-scale) tier.
//!
//! The full national run streams ~10⁸ sessions; CI cannot afford that on
//! every push, so the smoke streams a **thin slice** — the three
//! smallest per-service shards of the real national source — through the
//! real streaming engine and asserts the contracts that matter at scale:
//!
//! * peak resident records never exceed `chunk_size × workers`, no
//!   matter how many sessions a shard produces;
//! * every streamed shard covers the whole week (the live watermark can
//!   reach hour 168 — completeness is observable, not assumed);
//! * the error reservoir stays bounded while its `seen` counter keeps
//!   exact count;
//! * the verdict computed over the resulting study never goes NaN or
//!   infinite, even on a slice where most head services are empty.
//!
//! The heavy test is `#[ignore]` by default; CI runs it explicitly under
//! an address-space ceiling (`ulimit -v`) so an accidental
//! full-materialization regression fails loudly. The export-determinism
//! test below it is fast and always on.

use std::sync::atomic::{AtomicU16, Ordering};

use mobilenet::core::report;
use mobilenet::core::spatial::concentration;
use mobilenet::core::study::{Study, StudyConfig};
use mobilenet::core::verdict::evaluate;
use mobilenet::netsim::{
    aggregate_batch, ChunkSink, CollectionStats, FoldStrategy, IngestError, RecordSource,
    ShardedFold, SyntheticSource, ERROR_SAMPLE_CAP,
};
use mobilenet::par::set_thread_override;
use mobilenet::{Pipeline, Scale, DEFAULT_SEED};

/// The slice of the national source the smoke streams: the three
/// lowest-volume head-service shards (head services are catalog-ranked,
/// so the tail of the shard range is the cheapest representative slice).
const SMOKE_SHARDS: [usize; 3] = [17, 18, 19];

/// The national source restricted to [`SMOKE_SHARDS`], renumbered
/// `0..3` so the engine streams only them.
struct ThinSlice<'a>(SyntheticSource<'a>);

impl RecordSource for ThinSlice<'_> {
    fn shards(&self) -> usize {
        SMOKE_SHARDS.len()
    }

    fn stream_shard(
        &self,
        shard: usize,
        stats: &mut CollectionStats,
        sink: &mut ChunkSink<'_>,
    ) -> Result<(), IngestError> {
        self.0.stream_shard(SMOKE_SHARDS[shard], stats, sink)
    }

    fn bytes_read(&self) -> u64 {
        self.0.bytes_read()
    }
}

#[test]
#[ignore = "national thin-slice smoke (seconds-to-minutes); CI runs it explicitly under an RSS ceiling"]
fn national_smoke() {
    let config = StudyConfig::national();
    let model = config.demand_model(DEFAULT_SEED);
    let options = config.collect_options();
    let capture = mobilenet::netsim::Capture::build(&model, &config.netsim, DEFAULT_SEED)
        .expect("national netsim config is valid");
    let source = capture.source(&model, &options, DEFAULT_SEED);
    assert!(source.shards() > *SMOKE_SHARDS.iter().max().unwrap());
    let slice = ThinSlice(source);

    // Stream the smoke shards through the bounded engine, folding every
    // flushed batch straight into a per-shard marginal partial — exactly
    // the collection fold, never a materialized record set.
    let classifier = capture.classifier();
    let engine = ShardedFold::new(&model, slice.shards(), config.chunk_size);
    let frontiers: Vec<AtomicU16> = SMOKE_SHARDS.iter().map(|_| AtomicU16::new(0)).collect();
    engine
        .run(
            &slice,
            |batch, ds, st| {
                aggregate_batch(batch, classifier, FoldStrategy::Batched, false, ds, st)
            },
            |shard, batch| {
                for &h in batch.start_hours() {
                    frontiers[shard].fetch_max(h + 1, Ordering::Relaxed);
                }
            },
            |_, _| {},
        )
        .expect("national shards stream");
    let (out, shard_stats) = engine
        .merge(|partials| partials.iter().map(|p| p.stats.clone()).collect::<Vec<_>>())
        .expect("same-shape partials merge");
    for (i, &shard) in SMOKE_SHARDS.iter().enumerate() {
        // Watermark completeness: the shard's record stream reaches the
        // end of the measurement week.
        let frontier = frontiers[i].load(Ordering::Relaxed);
        assert_eq!(frontier, 168, "shard {shard} never reached hour 168");
        assert!(
            shard_stats[i].sessions > 0,
            "shard {shard} produced no sessions"
        );
        assert!(
            shard_stats[i].sampled_errors_km.len() < ERROR_SAMPLE_CAP,
            "shard {shard} reservoir broke its cap"
        );
    }
    let ingest = out.ingest;
    assert!(
        ingest.records > 100_000,
        "thin slice unexpectedly small ({} records) — is the national tier still paper-scale?",
        ingest.records
    );
    // The bounded-memory contract, the point of the tier: residency never
    // scales with the record count.
    assert!(
        ingest.peak_resident_records <= ingest.resident_budget(),
        "peak resident {} exceeds budget {}",
        ingest.peak_resident_records,
        ingest.resident_budget()
    );
    assert!(out.stats.median_error_km().is_finite());
    assert!(out.stats.misassignment_rate().is_finite());

    // The analysis stack over the slice: every verdict number must stay
    // finite even though 17 of 20 head services are all-zero here.
    let study = Study::from_parts(model.clone(), out);
    for claim in evaluate(&study) {
        assert!(
            claim.measured.is_finite(),
            "claim {} measured a non-finite value on the thin slice",
            claim.id
        );
    }
}

#[test]
fn sampled_exports_are_identical_at_any_thread_count() {
    // The figure-8 export reservoir-samples its sections at national
    // scale; the sample must be a pure function of (data, cap, seed) —
    // never of scheduling. All thread counts run inside one #[test] so
    // the process-global override is never raced by a sibling test.
    set_thread_override(Some(1));
    let reference = {
        let run = Pipeline::builder()
            .scale(Scale::Small)
            .seed(DEFAULT_SEED)
            .run()
            .unwrap();
        let study = run.into_study();
        let conc = concentration(&study, 0);
        assert!(
            conc.dl_curve.len() > 64,
            "study too small to engage sampling"
        );
        report::concentration_csv_sampled(&conc, 64, DEFAULT_SEED)
    };
    assert!(reference.contains("# sampled max_points_per_section=64"));
    for threads in [2usize, 8] {
        set_thread_override(Some(threads));
        let run = Pipeline::builder()
            .scale(Scale::Small)
            .seed(DEFAULT_SEED)
            .run()
            .unwrap();
        let study = run.into_study();
        let csv = report::concentration_csv_sampled(&concentration(&study, 0), 64, DEFAULT_SEED);
        assert_eq!(
            csv, reference,
            "sampled export differs at {threads} threads"
        );
    }
    set_thread_override(None);
}
