//! Streaming bounded-memory ingestion across the whole stack.
//!
//! The contracts this file pins:
//!
//! * chunked collection is **bit-identical** to the materialized path at
//!   every thread count and every chunk size — chunking bounds memory,
//!   never the fold order;
//! * the fault-injected path keeps the same guarantee: a degraded plan
//!   streamed in tiny chunks produces the same bytes as the whole-shard
//!   run;
//! * peak resident records never exceed `chunk_size × workers`;
//! * a merge taken mid-ingest, under every shard lock, is bit-identical
//!   to a dense cell-by-cell sum of the locked partials — the row-sparse
//!   merge skips only rows that hold `+0.0`, with and without faults;
//! * the engine's merge, which shares single-writer rows with the
//!   partials, taken at every batch boundary and again after a reset, is
//!   byte-equal to an add-path merge of the same partials;
//! * the ingest counters reported through the observability layer agree
//!   with the stats the pipeline returns;
//! * the sharded-fold engine reports the first failing shard's error and
//!   still keeps every other shard's partial.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use mobilenet::core::study::{Study, StudyConfig};
use mobilenet::geo::UsageClass;
use mobilenet::netsim::classifier::ServiceLabel;
use mobilenet::netsim::records::FlowSignature;
use mobilenet::netsim::{
    aggregate_batch, Capture, ChunkSink, CollectionOutput, CollectionStats, DpiClassifier,
    FoldStrategy, IngestError, Interface, RecordSource, SessionRecord, ShardedFold,
    ERROR_SAMPLE_CAP,
};
use mobilenet::par::set_thread_override;
use mobilenet::traffic::{Direction, TrafficDataset};
use mobilenet::{FaultPlan, Pipeline, Scale, DEFAULT_SEED};

/// One pipeline run: dataset CSV, collection stats and ingest stats.
fn run(faults: FaultPlan, chunk_size: Option<usize>, seed: u64) -> Study {
    let mut builder = Pipeline::builder()
        .scale(Scale::Small)
        .seed(seed)
        .faults(faults);
    if let Some(n) = chunk_size {
        builder = builder.chunk_size(n);
    }
    builder.run().expect("valid configuration").into_study()
}

/// The row-at-a-time reference fold: each record classified alone and
/// folded through the public adders, with the same floating-point
/// additions per record, in the same order, as the batched fold.
fn fold_rows(
    batch: &mut mobilenet::netsim::RecordBatch,
    classifier: &DpiClassifier,
    ds: &mut TrafficDataset,
    st: &mut CollectionStats,
) {
    for i in 0..batch.len() {
        let record = batch.row(i);
        match record.interface {
            Interface::Gn => st.gn_records += 1,
            Interface::S5S8 => st.s5s8_records += 1,
        }
        let hour = record.start_hour as usize;
        match classifier.classify(record.signature) {
            ServiceLabel::Head(s) => {
                st.classified_mb += record.dl_mb + record.ul_mb;
                ds.add(
                    Direction::Down,
                    s as usize,
                    record.commune,
                    hour,
                    record.dl_mb,
                );
                ds.add(
                    Direction::Up,
                    s as usize,
                    record.commune,
                    hour,
                    record.ul_mb,
                );
            }
            ServiceLabel::Tail(t) => {
                st.classified_mb += record.dl_mb + record.ul_mb;
                ds.add_tail(Direction::Down, t as usize, record.dl_mb);
                ds.add_tail(Direction::Up, t as usize, record.ul_mb);
            }
            ServiceLabel::Unclassified => {
                st.unclassified_mb += record.dl_mb + record.ul_mb;
                ds.add_unclassified(Direction::Down, record.dl_mb);
                ds.add_unclassified(Direction::Up, record.ul_mb);
            }
        }
    }
}

/// The row-at-a-time oracle: the same small-scale collection as [`run`],
/// driven through the engine with the reference row fold in place of the
/// batched one.
fn row_oracle(faults: FaultPlan, chunk_size: Option<usize>, seed: u64) -> CollectionOutput {
    let mut config = StudyConfig::small().with_faults(faults);
    if let Some(n) = chunk_size {
        config = config.with_chunk_size(n);
    }
    let model = config.demand_model(seed);
    let options = config.collect_options();
    let capture = Capture::build(&model, &config.netsim, seed).expect("valid netsim config");
    let source = capture.source(&model, &options, seed);
    let engine = ShardedFold::new(&model, source.shards(), options.chunk_size);
    engine
        .run(
            &source,
            |batch, ds, st| fold_rows(batch, capture.classifier(), ds, st),
            |_, _| {},
            |_, _| {},
        )
        .expect("synthetic shards stream");
    engine.merge(|_| ()).expect("partials share one shape").0
}

/// A plain Gn record at `hour` (commune 0, signature 0).
fn record(hour: u16) -> SessionRecord {
    SessionRecord {
        interface: Interface::Gn,
        start_hour: hour,
        dl_mb: 1.0,
        ul_mb: 0.25,
        commune: mobilenet::geo::CommuneId(0),
        signature: FlowSignature(0),
        stale_uli: false,
    }
}

#[test]
fn streaming_is_bit_identical_across_threads_and_chunk_sizes() {
    // All thread counts run inside one #[test] so the process-global
    // override is never raced by a sibling test.
    set_thread_override(Some(1));
    let reference = run(FaultPlan::none(), None, DEFAULT_SEED);
    let reference_csv = reference.dataset().to_csv();
    let reference_stats = reference.collection_stats().expect("measured").clone();
    let total_records = reference.ingest_stats().expect("measured").records;
    assert!(total_records > 0);

    for threads in [1usize, 2, 8] {
        set_thread_override(Some(threads));
        // Chunk size 1 (worst case), a small prime, the default, and one
        // larger than the whole input (the materialized path).
        for chunk in [1usize, 251, 8192, total_records as usize + 1] {
            let out = run(FaultPlan::none(), Some(chunk), DEFAULT_SEED);
            assert!(
                out.dataset().to_csv() == reference_csv,
                "chunked dataset differs at {threads} threads, chunk {chunk}"
            );
            let stats = out.collection_stats().expect("measured");
            assert_eq!(
                stats.sessions, reference_stats.sessions,
                "session count differs at {threads} threads, chunk {chunk}"
            );
            assert_eq!(stats.gn_records, reference_stats.gn_records);
            assert_eq!(stats.s5s8_records, reference_stats.s5s8_records);
            let ingest = out.ingest_stats().expect("measured");
            assert_eq!(ingest.chunk_size, chunk);
            assert_eq!(ingest.records, total_records);
            assert!(
                ingest.peak_resident_records <= ingest.resident_budget(),
                "peak {} exceeds budget {} at {threads} threads, chunk {chunk}",
                ingest.peak_resident_records,
                ingest.resident_budget()
            );
        }
    }
    set_thread_override(None);
}

#[test]
fn degraded_streaming_matches_degraded_materialized() {
    set_thread_override(Some(1));
    let reference = run(FaultPlan::degraded(3), None, DEFAULT_SEED);
    let reference_csv = reference.dataset().to_csv();
    let reference_faults = reference.collection_stats().expect("measured").faults;
    assert!(
        reference_faults.any(),
        "degraded plan must register fault events"
    );

    for threads in [1usize, 2, 8] {
        set_thread_override(Some(threads));
        for chunk in [1usize, 97] {
            let out = run(FaultPlan::degraded(3), Some(chunk), DEFAULT_SEED);
            assert!(
                out.dataset().to_csv() == reference_csv,
                "degraded chunked dataset differs at {threads} threads, chunk {chunk}"
            );
            let faults = &out.collection_stats().expect("measured").faults;
            assert_eq!(
                faults, &reference_faults,
                "fault accounting differs at {threads} threads, chunk {chunk}"
            );
            let ingest = out.ingest_stats().expect("measured");
            assert!(ingest.peak_resident_records <= ingest.resident_budget());
        }
    }
    set_thread_override(None);
}

#[test]
fn batched_fold_matches_row_at_a_time_reference_under_faults() {
    // The columnar dense-accumulation fold of the pipeline must
    // reproduce the row-at-a-time reference fold bit for bit — same
    // dataset bytes, same stats down to the f64 bits — with a fault plan
    // active, at every chunk size and thread count. One serial
    // row-at-a-time run is the reference; everything else must equal it
    // exactly.
    set_thread_override(Some(1));
    let reference = row_oracle(FaultPlan::degraded(3), None, DEFAULT_SEED);
    let reference_csv = reference.dataset.to_csv();
    let reference_stats = reference.stats;
    let total_records = reference.ingest.records;

    for threads in [1usize, 2, 8] {
        set_thread_override(Some(threads));
        // Chunk size 1 (worst case), a small prime, the default-ish, and
        // one larger than the whole input (the materialized path).
        for chunk in [1usize, 251, 8192, total_records as usize + 1] {
            for fold in ["batched", "row-at-a-time"] {
                let (csv, stats) = if fold == "batched" {
                    let out = run(FaultPlan::degraded(3), Some(chunk), DEFAULT_SEED);
                    (
                        out.dataset().to_csv(),
                        out.collection_stats().expect("measured").clone(),
                    )
                } else {
                    let out = row_oracle(FaultPlan::degraded(3), Some(chunk), DEFAULT_SEED);
                    (out.dataset.to_csv(), out.stats)
                };
                assert!(
                    csv == reference_csv,
                    "{fold} dataset differs at {threads} threads, chunk {chunk}"
                );
                assert_eq!(stats.sessions, reference_stats.sessions);
                assert_eq!(stats.gn_records, reference_stats.gn_records);
                assert_eq!(stats.s5s8_records, reference_stats.s5s8_records);
                assert_eq!(
                    stats.misassigned_sessions,
                    reference_stats.misassigned_sessions
                );
                assert_eq!(stats.stale_fixes, reference_stats.stale_fixes);
                assert_eq!(
                    stats.classified_mb.to_bits(),
                    reference_stats.classified_mb.to_bits(),
                    "{fold} classified_mb bits differ at {threads} threads, chunk {chunk}"
                );
                assert_eq!(
                    stats.unclassified_mb.to_bits(),
                    reference_stats.unclassified_mb.to_bits(),
                    "{fold} unclassified_mb bits differ at {threads} threads, chunk {chunk}"
                );
                assert_eq!(stats.faults, reference_stats.faults);
            }
        }
    }
    set_thread_override(None);
}

/// Every table cell of `ds` in one fixed order: per direction, each head
/// service's national, commune and class rows, then the tail table and
/// the unclassified volume.
fn cells(ds: &TrafficDataset) -> Vec<f64> {
    let mut out = Vec::new();
    for dir in Direction::BOTH {
        for s in 0..ds.n_services() {
            out.extend_from_slice(ds.national_series(dir, s));
            out.extend_from_slice(ds.commune_vector(dir, s));
            for class in UsageClass::ALL {
                out.extend_from_slice(ds.class_series(dir, s, class));
            }
        }
        out.extend_from_slice(ds.tail_weekly(dir));
        out.push(ds.unclassified(dir));
    }
    out
}

#[test]
fn mid_ingest_merges_match_a_dense_sum_of_the_locked_partials() {
    // Complete snapshots are pinned against batch elsewhere; this pins
    // the partly written partials a live snapshot merges mid-ingest.
    // Every few batches a worker merges while the other shards keep
    // folding; the closure run under the shard locks adds every cell of
    // every partial in shard order — the dense merge the row-sparse one
    // must reproduce bit for bit.
    const EVERY: usize = 32;
    let plans = [
        ("fault-free", FaultPlan::none()),
        ("degraded", FaultPlan::degraded(3)),
    ];
    for (plan, faults) in plans {
        let config = StudyConfig::small().with_faults(faults).with_chunk_size(97);
        let model = config.demand_model(DEFAULT_SEED);
        let options = config.collect_options();
        let capture = Capture::build(&model, &config.netsim, DEFAULT_SEED).expect("valid config");
        let source = capture.source(&model, &options, DEFAULT_SEED);
        // A merge of no partials is the model's tail fill over empty
        // tables: what every merge adds after the dense sum.
        let (empty, ()) = ShardedFold::new(&model, 0, 1)
            .merge(|_| ())
            .expect("no partials");
        let tail = cells(&empty.dataset);
        for threads in [1usize, 2] {
            set_thread_override(Some(threads));
            let engine = ShardedFold::new(&model, source.shards(), options.chunk_size);
            let (batches, merges, mismatches) = (
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
            );
            let merge_and_check = || {
                let (out, dense) = engine
                    .merge(|partials| {
                        let mut sum = vec![0.0; tail.len()];
                        for partial in partials {
                            for (a, b) in sum.iter_mut().zip(cells(&partial.dataset)) {
                                *a += b;
                            }
                        }
                        sum
                    })
                    .expect("partials share one shape");
                // The merge fills the tail table from the model after the
                // locks; `tail` holds exactly that fill over empty tables.
                let same = cells(&out.dataset)
                    .iter()
                    .zip(dense.iter().zip(&tail))
                    .all(|(got, (sum, fill))| got.to_bits() == (sum + fill).to_bits());
                merges.fetch_add(1, Ordering::Relaxed);
                if !same {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                }
            };
            engine
                .run(
                    &source,
                    |batch, ds, st| {
                        let classifier = capture.classifier();
                        aggregate_batch(batch, classifier, FoldStrategy::Batched, false, ds, st)
                    },
                    |_, _| {
                        if batches.fetch_add(1, Ordering::Relaxed) % EVERY == 0 {
                            merge_and_check();
                        }
                    },
                    |_, _| {},
                )
                .expect("synthetic shards stream");
            merge_and_check();
            let label = format!("{plan} at {threads} threads");
            assert!(
                merges.load(Ordering::Relaxed) > 10,
                "too few mid-ingest merges, {label}"
            );
            assert_eq!(
                mismatches.load(Ordering::Relaxed),
                0,
                "merge diverged, {label}"
            );
        }
    }
    set_thread_override(None);
}

/// Per-shard record streams held in memory, replayed shard by shard.
struct ShardRecords(Vec<Vec<SessionRecord>>);

impl RecordSource for ShardRecords {
    fn shards(&self) -> usize {
        self.0.len()
    }

    fn stream_shard(
        &self,
        shard: usize,
        _stats: &mut CollectionStats,
        sink: &mut ChunkSink<'_>,
    ) -> Result<(), IngestError> {
        for record in &self.0[shard] {
            sink.push(record);
        }
        Ok(())
    }
}

#[test]
fn engine_merges_match_add_merges_byte_for_byte() {
    // The merge a live snapshot makes, which shares single-writer rows
    // with the partials: taken at every batch boundary of a 1-thread run
    // and once more after a reset, each time compared with a merge of the
    // same partials, made under the same locks by `TrafficDataset::merge`
    // alone, which adds every written row. Each shard replays a prefix of
    // its captured stream, one and a half chunks long, so a shard's
    // second batch writes rows an earlier merge still shares, while the
    // comparisons stay few.
    let plans = [
        ("fault-free", FaultPlan::none()),
        ("degraded", FaultPlan::degraded(3)),
    ];
    set_thread_override(Some(1));
    for (plan, faults) in plans {
        let config = StudyConfig::small().with_faults(faults);
        let model = config.demand_model(DEFAULT_SEED);
        let options = config.collect_options();
        let capture = Capture::build(&model, &config.netsim, DEFAULT_SEED).expect("valid config");
        let source = capture.source(&model, &options, DEFAULT_SEED);
        let captured: Vec<Mutex<Vec<SessionRecord>>> = (0..source.shards())
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        ShardedFold::new(&model, source.shards(), options.chunk_size)
            .run(
                &source,
                |_, _, _| {},
                |shard, batch| {
                    let mut records = captured[shard].lock().unwrap();
                    records.extend((0..batch.len()).map(|i| batch.row(i)));
                },
                |_, _| {},
            )
            .expect("synthetic shards stream");
        let captured: Vec<Vec<SessionRecord>> = captured
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect();

        for chunk in [1usize, 97, 8192] {
            let prefix = chunk + chunk.div_ceil(2);
            let replay = ShardRecords(
                captured
                    .iter()
                    .map(|r| r[..r.len().min(prefix)].to_vec())
                    .collect(),
            );
            let engine = ShardedFold::new(&model, replay.shards(), chunk);
            let catalog = model.catalog();
            let empty = TrafficDataset::new(
                model.country(),
                catalog.head().len(),
                catalog.tail_len(),
                model.config().subscriber_share,
            );
            // The last merge is held until the next check, as the live
            // snapshot cache holds it, so the folds in between write rows
            // it still shares.
            let held = Mutex::new(None);
            let checks = AtomicUsize::new(0);
            let check = |when: &str| {
                let (out, (mut added, added_stats)) = engine
                    .merge(|partials| {
                        let mut added = empty.clone();
                        let mut stats = CollectionStats::default();
                        for partial in partials {
                            added
                                .merge(&partial.dataset)
                                .expect("partials share one shape");
                            stats.merge(&partial.stats);
                        }
                        (added, stats)
                    })
                    .expect("partials share one shape");
                model.fill_tail(&mut added);
                assert!(
                    out.dataset.to_csv() == added.to_csv(),
                    "{plan}, chunk {chunk}: the engine merge differs from an add merge {when}"
                );
                let stats = &out.stats;
                assert_eq!(
                    format!("{stats:?}"),
                    format!("{added_stats:?}"),
                    "{plan} {when}"
                );
                *held.lock().unwrap() = Some(out.dataset);
                checks.fetch_add(1, Ordering::Relaxed);
            };
            engine
                .run(
                    &replay,
                    |batch, ds, st| {
                        let classifier = capture.classifier();
                        aggregate_batch(batch, classifier, FoldStrategy::Batched, false, ds, st)
                    },
                    |shard, _| check(&format!("after a batch of shard {shard}")),
                    |_, _| {},
                )
                .expect("replayed shards stream");
            check("after the run");
            engine.reset(|| ());
            check("after a reset");
            let batches = replay
                .0
                .iter()
                .map(|r| r.len().div_ceil(chunk))
                .sum::<usize>();
            assert_eq!(
                checks.load(Ordering::Relaxed),
                batches + 2,
                "{plan}, chunk {chunk}"
            );
        }
    }
    set_thread_override(None);
}

/// A source standing in for a paper-scale shard: it *reports* more than
/// `u32::MAX` sessions and records through its diagnostics while only
/// materializing a handful of records — the counter-width regression
/// harness for national-scale runs (10⁸ real records and beyond).
struct VirtualScaleSource;

/// Virtual per-shard session count, comfortably past the 32-bit wrap.
const VIRTUAL_SESSIONS: u64 = u32::MAX as u64 + 17;

impl RecordSource for VirtualScaleSource {
    fn shards(&self) -> usize {
        3
    }

    fn stream_shard(
        &self,
        shard: usize,
        stats: &mut CollectionStats,
        sink: &mut ChunkSink<'_>,
    ) -> Result<(), IngestError> {
        stats.sessions += VIRTUAL_SESSIONS;
        stats.gn_records += VIRTUAL_SESSIONS - 5;
        stats.s5s8_records += 5;
        stats.misassigned_sessions += u32::MAX as u64 + 3;
        stats.stale_fixes += u32::MAX as u64 + 1;
        // Offer far more error samples than the reservoir cap; retention
        // must stay bounded while the seen count keeps exact u64 track.
        for i in 0..(4 * ERROR_SAMPLE_CAP as u64) {
            stats.push_error_sample((shard as u64 * 7 + i) as f64);
        }
        for h in 0..4u16 {
            sink.push(&record(h));
        }
        Ok(())
    }
}

#[test]
fn virtual_records_past_u32_max_do_not_wrap_any_counter() {
    let source = VirtualScaleSource;
    let model = StudyConfig::small().demand_model(DEFAULT_SEED);
    let engine = ShardedFold::new(&model, source.shards(), 2);
    let records: Vec<AtomicU64> = (0..source.shards()).map(|_| AtomicU64::new(0)).collect();
    engine
        .run(
            &source,
            |_, _, _| {},
            |shard, batch| {
                records[shard].fetch_add(batch.len() as u64, Ordering::Relaxed);
            },
            |_, _| {},
        )
        .expect("virtual shards stream");
    let (out, shard_stats) = engine
        .merge(|partials| partials.iter().map(|p| p.stats.clone()).collect::<Vec<_>>())
        .expect("partials share one shape");
    for (shard, stats) in shard_stats.iter().enumerate() {
        assert_eq!(records[shard].load(Ordering::Relaxed), 4);
        assert_eq!(stats.sessions, VIRTUAL_SESSIONS, "per-shard count wrapped");
        assert!(
            stats.sampled_errors_km.len() < ERROR_SAMPLE_CAP,
            "reservoir exceeded its cap: {}",
            stats.sampled_errors_km.len()
        );
        assert_eq!(stats.error_samples_seen, 4 * ERROR_SAMPLE_CAP as u64);
        assert!(stats.error_sample_thin >= 2, "thinning never engaged");
    }
    // Merging three >u32::MAX partials crosses the wrap boundary again;
    // every diagnostic must stay exact.
    let merged = out.stats;
    assert_eq!(merged.sessions, 3 * VIRTUAL_SESSIONS);
    assert_eq!(
        merged.gn_records + merged.s5s8_records,
        3 * VIRTUAL_SESSIONS
    );
    assert!(merged.sessions > u32::MAX as u64);
    assert!(merged.misassigned_sessions > u32::MAX as u64);
    assert!(merged.stale_fixes > u32::MAX as u64);
    assert!(merged.misassignment_rate() > 0.99 && merged.misassignment_rate() <= 1.0);
    assert!(merged.median_error_km().is_finite());
    let ingest = out.ingest;
    assert_eq!(
        ingest.records, 12,
        "the engine folded only the real records"
    );
    assert!(ingest.peak_resident_records <= ingest.resident_budget());
}

/// A four-shard source whose shards 1 and 3 fail, each with its own
/// error, after pushing their records; shards 0 and 2 close cleanly.
/// Shard `s` pushes `s + 1` records and reports `2^s` sessions, so every
/// shard's share of a merge is recognisable.
#[derive(Default)]
struct FailingSource {
    streamed: AtomicUsize,
}

impl RecordSource for FailingSource {
    fn shards(&self) -> usize {
        4
    }

    fn stream_shard(
        &self,
        shard: usize,
        stats: &mut CollectionStats,
        sink: &mut ChunkSink<'_>,
    ) -> Result<(), IngestError> {
        self.streamed.fetch_add(1, Ordering::SeqCst);
        stats.sessions += 1 << shard;
        for h in 0..=shard as u16 {
            sink.push(&record(h));
        }
        match shard {
            1 | 3 => Err(IngestError::Config(format!("shard {shard} failed"))),
            _ => Ok(()),
        }
    }
}

#[test]
fn sharded_fold_reports_the_first_failing_shard_and_keeps_clean_partials() {
    let model = StudyConfig::small().demand_model(DEFAULT_SEED);
    let count_records = |batch: &mut mobilenet::netsim::RecordBatch,
                         _: &mut mobilenet::traffic::TrafficDataset,
                         stats: &mut CollectionStats| {
        stats.gn_records += batch.len() as u64;
    };

    // A zero chunk budget is rejected before any shard streams.
    let source = FailingSource::default();
    let engine = ShardedFold::new(&model, source.shards(), 0);
    let err = engine
        .run(&source, count_records, |_, _| {}, |_, _| {})
        .unwrap_err();
    assert!(
        matches!(&err, IngestError::Config(m) if m.contains("chunk_size")),
        "{err}"
    );
    assert_eq!(source.streamed.load(Ordering::SeqCst), 0);

    for threads in [1usize, 2, 8] {
        set_thread_override(Some(threads));
        let source = FailingSource::default();
        let engine = ShardedFold::new(&model, source.shards(), 2);
        let closed = Mutex::new(Vec::new());
        let err = engine
            .run(
                &source,
                count_records,
                |_, _| {},
                |shard, streamed| {
                    closed.lock().unwrap().push((shard, streamed.is_ok()));
                },
            )
            .unwrap_err();
        assert!(
            matches!(&err, IngestError::Config(m) if m == "shard 1 failed"),
            "{threads} threads returned {err}"
        );
        // Every shard ran to its end despite the failures.
        assert_eq!(source.streamed.load(Ordering::SeqCst), 4);
        let mut closed = closed.into_inner().unwrap();
        closed.sort();
        assert_eq!(closed, [(0, true), (1, false), (2, true), (3, false)]);

        let (out, partials) = engine
            .merge(|partials| {
                partials
                    .iter()
                    .map(|p| (p.stats.sessions, p.stats.gn_records))
                    .collect::<Vec<_>>()
            })
            .expect("partials share one shape");
        assert_eq!(
            partials[0],
            (1, 1),
            "shard 0's partial at {threads} threads"
        );
        assert_eq!(
            partials[2],
            (4, 3),
            "shard 2's partial at {threads} threads"
        );
        assert_eq!(out.stats.sessions, 0b1111);
        assert_eq!(out.stats.gn_records, 1 + 2 + 3 + 4);
        assert_eq!(out.ingest.records, 1 + 2 + 3 + 4);
    }
    set_thread_override(None);
}

#[test]
fn ingest_obs_counters_agree_with_reported_stats() {
    mobilenet::obs::reset();
    let out = Pipeline::builder()
        .scale(Scale::Small)
        .seed(7)
        .chunk_size(64)
        .obs(true)
        .run()
        .unwrap();
    let ingest = *out
        .study()
        .ingest_stats()
        .expect("measured run has ingest stats");
    let snapshot = out.obs_snapshot();
    assert_eq!(
        snapshot.counter("netsim.ingest.chunks"),
        Some(ingest.chunks)
    );
    assert_eq!(
        snapshot.counter("netsim.ingest.records"),
        Some(ingest.records)
    );
    assert_eq!(
        snapshot.counter("netsim.ingest.bytes_read"),
        Some(ingest.bytes_read)
    );
    // Every chunk flush emits exactly one batch on the columnar path.
    assert_eq!(
        snapshot.counter("netsim.ingest.batches"),
        Some(ingest.chunks)
    );
    assert_eq!(ingest.chunk_size, 64);
    assert!(ingest.workers >= 1);
    assert!(ingest.peak_resident_records <= ingest.resident_budget());
    mobilenet::obs::set_enabled(Some(false));
    mobilenet::obs::reset();
}
