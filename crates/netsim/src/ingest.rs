//! Streaming bounded-memory ingestion: the [`RecordSource`] abstraction
//! and the chunked sharded aggregation engine.
//!
//! The paper's substrate is a week of nationwide packet-core capture;
//! follow-up datasets (NetMob23, multi-week national studies) are an
//! order of magnitude larger than anything a materialize-then-aggregate
//! path can hold. This module makes ingestion memory-bounded by a *chunk
//! budget* instead of the input size:
//!
//! * a [`RecordSource`] yields each shard's [`SessionRecord`]s **in
//!   order** through a bounded [`ChunkSink`] — synthetic demand shards
//!   ([`collect_with_options`](crate::pipeline::collect_with_options))
//!   or in-memory slices ([`SliceSource`]);
//! * one engine, [`ShardedFold`], drives `mobilenet-par` workers over
//!   the shards, folds each chunk into that shard's partial
//!   [`TrafficDataset`] + [`CollectionStats`], and merges partials in
//!   deterministic shard order — for batch collection, record replay and
//!   the live aggregation service alike.
//!
//! # Determinism contract
//!
//! Chunking only bounds *how many records are resident*, never the order
//! they are folded: within a shard, records are aggregated in exactly the
//! generation (or slice) order, and shard partials merge in shard order.
//! The streamed result is therefore **bit-identical** to the historical
//! materialized path at any thread count and any chunk size — including
//! `chunk_size = 1` and `chunk_size ≥ input`.
//!
//! # Memory bound
//!
//! Each worker owns at most one chunk buffer of `chunk_size` records at a
//! time, so peak resident records never exceed `chunk_size × workers`.
//! The engine accounts for residency at chunk granularity (the
//! `netsim.ingest.peak_resident_records` gauge samples the high-water
//! mark at flush points); the bound itself holds by construction.

use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use mobilenet_traffic::{DatasetError, DemandModel, TrafficDataset};

use crate::faults::FaultPlan;
use crate::pipeline::{CollectionOutput, CollectionStats};
use crate::records::{RecordBatch, SessionRecord};

/// Default records-per-chunk budget of the streaming engine: small enough
/// that dozens of workers stay in cache-friendly territory, large enough
/// to amortize per-chunk accounting to noise.
pub const DEFAULT_CHUNK_SIZE: usize = 8192;

/// How [`aggregate_batch`](crate::pipeline::aggregate_batch) folds a
/// flushed [`RecordBatch`] into a shard partial.
///
/// There is one strategy. The enum stays because the benchmark package
/// (`perfbench/`) passes it to `aggregate_batch`. The row-at-a-time
/// reference fold the batched one is pinned against lives in the tests
/// (`tests/streaming_ingest.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldStrategy {
    /// Columnar fold: dictionary-encode the batch's signatures once
    /// through the DPI table, then accumulate dense columns in a tight
    /// loop.
    Batched,
}

/// Bucket edges of the `netsim.ingest.batch_records` histogram: batch
/// (= flushed chunk) sizes from single-record worst cases up past the
/// default chunk budget.
const BATCH_RECORDS_EDGES: [f64; 8] = [1.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 8192.0, 32768.0];

/// Options of one collection/ingestion run — the single knob set behind
/// [`collect_with_options`](crate::pipeline::collect_with_options),
/// [`observe_with_options`](crate::pipeline::observe_with_options) and
/// [`ingest`].
///
/// `#[non_exhaustive]`: construct via [`CollectOptions::default`] (or
/// [`CollectOptions::with_faults`]) and the builder-style setters so new
/// knobs stay non-breaking.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CollectOptions {
    /// Capture-path fault plan ([`FaultPlan::none`] reproduces the
    /// historical benign apparatus bit for bit).
    pub faults: FaultPlan,
    /// Records-per-chunk budget of the streaming engine; peak resident
    /// records are bounded by `chunk_size × workers`.
    pub chunk_size: usize,
}

impl Default for CollectOptions {
    fn default() -> Self {
        CollectOptions {
            faults: FaultPlan::none(),
            chunk_size: DEFAULT_CHUNK_SIZE,
        }
    }
}

impl CollectOptions {
    /// Default options with the given fault plan.
    pub fn with_faults(faults: FaultPlan) -> Self {
        CollectOptions {
            faults,
            ..CollectOptions::default()
        }
    }

    /// Sets the records-per-chunk budget.
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// Checks the options for internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.chunk_size == 0 {
            return Err("chunk_size must be at least 1 record".into());
        }
        self.faults.validate()
    }
}

/// Why a streaming ingestion run failed.
#[derive(Debug)]
pub enum IngestError {
    /// The source or options configuration is invalid.
    Config(String),
    /// Shard partials (or merge inputs) disagreed on dataset shape.
    Shape(DatasetError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Config(msg) => write!(f, "invalid ingest configuration: {msg}"),
            IngestError::Shape(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Shape(e) => Some(e),
            IngestError::Config(_) => None,
        }
    }
}

impl From<DatasetError> for IngestError {
    fn from(e: DatasetError) -> Self {
        IngestError::Shape(e)
    }
}

/// What the streaming engine did: chunk, record and byte accounting of
/// one ingestion run.
///
/// `#[non_exhaustive]`: engines construct it internally; downstream code
/// reads fields (or starts from [`IngestStats::default`]) so new
/// accounting fields stay non-breaking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct IngestStats {
    /// Chunks flushed through the engine (deterministic: per-shard chunk
    /// boundaries depend only on the record stream and `chunk_size`).
    pub chunks: u64,
    /// Records aggregated (post-fault, i.e. what the folds saw).
    pub records: u64,
    /// High-water mark of records resident in chunk buffers, sampled at
    /// flush points. Always ≤ `chunk_size × workers`, by construction;
    /// scheduling-dependent (more workers → more concurrent residency).
    pub peak_resident_records: u64,
    /// Logical bytes the source delivered,
    /// `records × size_of::<SessionRecord>()` — every source reports a
    /// non-zero throughput denominator once it has streamed records.
    pub bytes_read: u64,
    /// The records-per-chunk budget the run used.
    pub chunk_size: usize,
    /// Workers the engine drove (`min(threads, shards)`).
    pub workers: usize,
    /// Ingestion cycles folded through the engine — 1 for a batch run,
    /// the number of weeks folded into the 168-hour ring for a
    /// multi-week live run (one [`ShardedFold::run`] each).
    pub cycles: u64,
}

impl IngestStats {
    /// The resident-record bound of this run: `chunk_size × workers`.
    pub fn resident_budget(&self) -> u64 {
        (self.chunk_size as u64).saturating_mul(self.workers as u64)
    }
}

/// Shared chunk/record/residency accounting of a [`ShardedFold`].
#[derive(Debug, Default)]
struct IngestLedger {
    chunks: AtomicU64,
    records: AtomicU64,
    resident: AtomicU64,
    peak_resident: AtomicU64,
    cycles: AtomicU64,
}

/// The bounded buffer a [`RecordSource`] pushes one shard's records into.
///
/// Buffers records **columnar** — one [`RecordBatch`] per sink, filled a
/// record at a time and handed to the engine's fold whole. Holds at most
/// `chunk_size` records; a full batch is flushed before the next push, so
/// a source never materializes more than one chunk per worker no matter
/// how large the shard is, and a flushed batch's columns keep their
/// capacity, so a warmed sink never touches the heap again.
pub struct ChunkSink<'a> {
    batch: RecordBatch,
    chunk_size: usize,
    ledger: &'a IngestLedger,
    consume: &'a mut dyn FnMut(&mut RecordBatch),
}

impl<'a> ChunkSink<'a> {
    fn new(
        chunk_size: usize,
        ledger: &'a IngestLedger,
        consume: &'a mut dyn FnMut(&mut RecordBatch),
    ) -> Self {
        // Cap the pre-allocation: `chunk_size ≥ input` is a legitimate
        // way to ask for one chunk per shard without reserving the moon.
        let cap = chunk_size.min(DEFAULT_CHUNK_SIZE);
        ChunkSink {
            batch: RecordBatch::with_capacity(cap),
            chunk_size,
            ledger,
            consume,
        }
    }

    /// Appends one record to the batch columns; flushes the chunk to the
    /// aggregation fold when the budget is reached.
    #[inline]
    pub fn push(&mut self, record: &SessionRecord) {
        self.batch.push(record);
        if self.batch.len() >= self.chunk_size {
            self.flush();
        }
    }

    /// Flushes the partial batch (no-op when empty). Called by the engine
    /// after the source finishes a shard.
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let n = self.batch.len() as u64;
        // Residency is accounted at flush granularity: the chunk is
        // counted resident while the fold walks it. The true peak
        // (including buffers still filling) is bounded by
        // `chunk_size × workers` by construction.
        let now = self.ledger.resident.fetch_add(n, Ordering::SeqCst) + n;
        self.ledger.peak_resident.fetch_max(now, Ordering::SeqCst);
        self.ledger.chunks.fetch_add(1, Ordering::Relaxed);
        self.ledger.records.fetch_add(n, Ordering::Relaxed);
        // Per-batch observability: one count per flush plus the size
        // histogram. Flush boundaries depend only on the record stream
        // and `chunk_size`, and the histogram sum adds exact small
        // integers, so both are thread-invariant and stay inside the
        // deterministic count fingerprint.
        if mobilenet_obs::enabled() {
            mobilenet_obs::add("netsim.ingest.batches", 1);
            mobilenet_obs::observe(
                "netsim.ingest.batch_records",
                n as f64,
                &BATCH_RECORDS_EDGES,
            );
        }
        (self.consume)(&mut self.batch);
        self.batch.clear();
        self.ledger.resident.fetch_sub(n, Ordering::SeqCst);
    }
}

/// A source of session records, split into independently streamable
/// shards whose partial aggregates merge in shard order.
///
/// Implementations must satisfy the determinism contract: shard `s`'s
/// record stream depends only on the source's own state — never on which
/// worker runs it, in what order, or how the stream is chunked.
pub trait RecordSource: Sync {
    /// Number of shards. Shard indices `0..shards()` are streamed
    /// (possibly concurrently, at most once each) and merged in index
    /// order.
    fn shards(&self) -> usize;

    /// Streams shard `shard`'s records, in order, into `sink`, folding
    /// source-side diagnostics (sessions observed, fault accounting, …)
    /// into `stats`.
    fn stream_shard(
        &self,
        shard: usize,
        stats: &mut CollectionStats,
        sink: &mut ChunkSink<'_>,
    ) -> Result<(), IngestError>;

    /// Logical bytes this source has delivered so far
    /// (`records × size_of::<SessionRecord>()`, for
    /// `netsim.ingest.bytes_read`). The default is 0 only for sources
    /// with nothing streamed yet.
    fn bytes_read(&self) -> u64 {
        0
    }
}

/// One shard's partial aggregate inside a [`ShardedFold`].
#[derive(Debug)]
pub struct ShardPartial {
    /// The tables this shard's batches folded into.
    pub dataset: TrafficDataset,
    /// Fold-side diagnostics, plus the source-side ones once the shard
    /// has closed.
    pub stats: CollectionStats,
}

impl ShardPartial {
    fn empty(dataset: TrafficDataset) -> Self {
        ShardPartial {
            dataset,
            stats: CollectionStats::default(),
        }
    }
}

/// The sharded fold: the one engine behind batch collection
/// ([`collect_with_options`](crate::pipeline::collect_with_options)),
/// record replay ([`ingest`]) and the live aggregation service.
///
/// It owns one mutex-guarded [`ShardPartial`] per shard and the chunk
/// ledger (chunks, records, peak residency, cycles). [`run`](Self::run)
/// streams every shard of a [`RecordSource`] on the ambient
/// `mobilenet-par` pool, exactly one worker per shard, folding each
/// flushed batch into that shard's partial under its lock.
/// [`merge`](Self::merge) merges the partials in shard order into a
/// fresh dataset and fills its tail table from the demand model;
/// [`reset`](Self::reset) empties the partials for the next cycle. Both
/// hold every shard lock while they work, so a reader sees either all of
/// a fold or none of it.
///
/// `M` is the demand model, owned or borrowed.
pub struct ShardedFold<M: Borrow<DemandModel>> {
    model: M,
    /// An all-`+0.0` dataset shaped like the model; partials are its
    /// clones, and merges are shaped by it, sharing its per-commune
    /// constants.
    empty: TrafficDataset,
    partials: Vec<Mutex<ShardPartial>>,
    chunk_size: usize,
    ledger: IngestLedger,
    workers: AtomicUsize,
    bytes_read: AtomicU64,
}

impl<M: Borrow<DemandModel>> ShardedFold<M> {
    /// An engine of `shards` empty partials shaped like `model`, chunking
    /// records `chunk_size` at a time.
    pub fn new(model: M, shards: usize, chunk_size: usize) -> Self {
        let catalog = model.borrow().catalog();
        let empty = TrafficDataset::new(
            model.borrow().country(),
            catalog.head().len(),
            catalog.tail_len(),
            model.borrow().config().subscriber_share,
        );
        let partials = (0..shards)
            .map(|_| Mutex::new(ShardPartial::empty(empty.clone())))
            .collect();
        ShardedFold {
            model,
            empty,
            partials,
            chunk_size,
            ledger: IngestLedger::default(),
            workers: AtomicUsize::new(0),
            bytes_read: AtomicU64::new(0),
        }
    }

    /// The demand model the partials are shaped by.
    pub fn model(&self) -> &DemandModel {
        self.model.borrow()
    }

    /// Number of shard partials.
    pub fn shards(&self) -> usize {
        self.partials.len()
    }

    /// Chunk, record and byte accounting of every run so far.
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            chunks: self.ledger.chunks.load(Ordering::Relaxed),
            records: self.ledger.records.load(Ordering::Relaxed),
            peak_resident_records: self.ledger.peak_resident.load(Ordering::SeqCst),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            chunk_size: self.chunk_size,
            workers: self.workers.load(Ordering::Relaxed),
            cycles: self.ledger.cycles.load(Ordering::Relaxed),
        }
    }

    /// Streams every shard of `source` (one cycle). Each flushed batch is
    /// folded by `fold` into the shard's partial under the shard's lock;
    /// `on_batch` then sees it with the lock released. When a shard's
    /// stream ends, its source-side diagnostics merge into the partial
    /// and `on_close` sees the stream's result.
    ///
    /// Every shard runs to its end even when another fails; the error of
    /// the first failing shard, in shard order, is returned. A zero
    /// `chunk_size` or a shard count that differs from the engine's is
    /// rejected before any shard streams.
    pub fn run<S, F, B, C>(
        &self,
        source: &S,
        fold: F,
        on_batch: B,
        on_close: C,
    ) -> Result<(), IngestError>
    where
        S: RecordSource + ?Sized,
        F: Fn(&mut RecordBatch, &mut TrafficDataset, &mut CollectionStats) + Sync,
        B: Fn(usize, &RecordBatch) + Sync,
        C: Fn(usize, &Result<(), IngestError>) + Sync,
        M: Sync,
    {
        if self.chunk_size == 0 {
            return Err(IngestError::Config(
                "chunk_size must be at least 1 record".into(),
            ));
        }
        let shards = self.partials.len();
        if source.shards() != shards {
            return Err(IngestError::Config(format!(
                "source has {} shards, the fold has {shards}",
                source.shards()
            )));
        }
        let workers = mobilenet_par::current_threads().min(shards.max(1)).max(1);
        // `fetch_max`: the resident budget must stay valid when cycles of
        // one engine see different pool widths.
        self.workers.fetch_max(workers, Ordering::Relaxed);
        self.ledger.cycles.fetch_add(1, Ordering::Relaxed);
        let bytes_base = self.bytes_read.load(Ordering::Relaxed);
        let note_bytes = || {
            self.bytes_read
                .fetch_max(bytes_base + source.bytes_read(), Ordering::Relaxed)
        };

        let results = mobilenet_par::par_map_collect(shards, |shard| {
            let partial = &self.partials[shard];
            let mut source_stats = CollectionStats::default();
            let streamed = {
                let mut consume = |batch: &mut RecordBatch| {
                    {
                        let mut guard = partial.lock().expect("shard partial poisoned");
                        let p = &mut *guard;
                        fold(batch, &mut p.dataset, &mut p.stats);
                    }
                    on_batch(shard, batch);
                };
                let mut sink = ChunkSink::new(self.chunk_size, &self.ledger, &mut consume);
                let streamed = source.stream_shard(shard, &mut source_stats, &mut sink);
                sink.flush();
                streamed
            };
            // Source-side (session-level) and fold-side (record-level)
            // diagnostics accumulate in disjoint fields, so merging them
            // at shard close reproduces single-struct accounting exactly.
            partial
                .lock()
                .expect("shard partial poisoned")
                .stats
                .merge(&source_stats);
            note_bytes();
            on_close(shard, &streamed);
            streamed
        });
        note_bytes();
        results.into_iter().collect()
    }

    /// Locks every partial, in shard order.
    fn lock_all(&self) -> Vec<MutexGuard<'_, ShardPartial>> {
        self.partials
            .iter()
            .map(|p| p.lock().expect("shard partial poisoned"))
            .collect()
    }

    /// Merges the partials in shard order into a fresh dataset, fills its
    /// tail table from the demand model, and returns it with the merged
    /// diagnostics and the accounting so far.
    ///
    /// Every shard lock is held for the whole merge, and `under_locks`
    /// runs before they are released: anything it reads is consistent
    /// with the merged data, since no batch can fold in between.
    ///
    /// Under the locks the merge moves no row data unless a row has
    /// several writers ([`TrafficDataset::merged`]). A row with one
    /// writer — a synthetic shard partial writes one head service — is
    /// shared with the partial by reference count, and the folding
    /// worker copies it, under its own shard lock, only if it writes that
    /// row again while the merged dataset (or a clone of it) still holds
    /// it. A row with several writers, the tail table and the
    /// unclassified cells are summed from `+0.0` in shard order. The
    /// diagnostics are merged in shard order too, into an error-sample
    /// reservoir allocated once at its final length. The tail fill runs
    /// after the locks.
    ///
    /// A shape mismatch between the engine and a partial is reported
    /// before anything is shared.
    pub fn merge<R>(
        &self,
        under_locks: impl FnOnce(&[MutexGuard<'_, ShardPartial>]) -> R,
    ) -> Result<(CollectionOutput, R), IngestError> {
        let (mut dataset, stats, ingest, caller) = {
            let mut guards = self.lock_all();
            let dataset = self
                .empty
                .merged(guards.iter_mut().map(|p| &mut p.dataset))?;
            let mut stats = CollectionStats::default();
            let samples = guards.iter().map(|p| p.stats.sampled_errors_km.len());
            stats.sampled_errors_km.reserve_exact(samples.sum());
            for partial in &guards {
                stats.merge(&partial.stats);
            }
            (dataset, stats, self.stats(), under_locks(&guards))
        };
        // Tail services: their national weekly totals come straight from
        // the demand model (they carry no spatial structure the analyses
        // use).
        self.model().fill_tail(&mut dataset);
        Ok((
            CollectionOutput {
                dataset,
                stats,
                ingest,
            },
            caller,
        ))
    }

    /// Empties every partial for the next cycle, running `under_locks`
    /// before the shard locks are released. The accounting stays
    /// cumulative.
    pub fn reset<R>(&self, under_locks: impl FnOnce() -> R) -> R {
        let mut guards = self.lock_all();
        for partial in guards.iter_mut() {
            **partial = ShardPartial::empty(self.empty.clone());
        }
        under_locks()
    }
}

/// One batch run of the engine: a fresh [`ShardedFold`] over `source`,
/// run once and merged, with the `shards` / `merge` obs spans (nesting
/// under the caller's active span) and the `netsim.ingest.*` metrics.
pub(crate) fn fold_source<S, F>(
    source: &S,
    model: &DemandModel,
    chunk_size: usize,
    fold: F,
) -> Result<CollectionOutput, IngestError>
where
    S: RecordSource,
    F: Fn(&mut RecordBatch, &mut TrafficDataset, &mut CollectionStats) + Sync,
{
    let engine = ShardedFold::new(model, source.shards(), chunk_size);
    let shards_span = mobilenet_obs::span("shards");
    engine.run(source, fold, |_, _| {}, |_, _| {})?;
    drop(shards_span);
    let merge_span = mobilenet_obs::span("merge");
    let (out, ()) = engine.merge(|_| ())?;
    drop(merge_span);
    record_ingest_metrics(&out.ingest);
    if mobilenet_obs::enabled() {
        // Footprint of the merged tables with every head-service block
        // written. A shard partial allocates only the blocks it writes
        // (one per synthetic shard), and the merged dataset shares each
        // single-writer block with its partial instead of holding a
        // second copy. A gauge: it describes the configuration, not the
        // record stream.
        mobilenet_obs::gauge(
            "netsim.ingest.accumulator_bytes",
            out.dataset.dense_bytes() as f64,
        );
    }
    Ok(out)
}

/// Publishes one run's [`IngestStats`] to the observability registry.
///
/// `chunks`, `records` and `bytes_read` are deterministic (identical at
/// any thread count) and land on counters; `peak_resident_records` and
/// `workers` describe scheduling and land on gauges, which the
/// determinism fingerprint excludes.
fn record_ingest_metrics(ingest: &IngestStats) {
    if !mobilenet_obs::enabled() {
        return;
    }
    mobilenet_obs::add("netsim.ingest.chunks", ingest.chunks);
    mobilenet_obs::add("netsim.ingest.records", ingest.records);
    mobilenet_obs::add("netsim.ingest.bytes_read", ingest.bytes_read);
    mobilenet_obs::gauge(
        "netsim.ingest.peak_resident_records",
        ingest.peak_resident_records as f64,
    );
    mobilenet_obs::gauge("netsim.ingest.chunk_size", ingest.chunk_size as f64);
    mobilenet_obs::gauge("netsim.ingest.workers", ingest.workers as f64);
}

/// Replays any [`RecordSource`] through the DPI stage into a dataset
/// shaped like `model`'s country, with the tail table filled from the
/// demand model exactly as collection does. Every record counts as one
/// session (`replay_mode` of [`aggregate_batch`](crate::pipeline::aggregate_batch)).
pub fn ingest<S: RecordSource>(
    source: &S,
    model: &DemandModel,
    options: &CollectOptions,
) -> Result<CollectionOutput, IngestError> {
    options.validate().map_err(IngestError::Config)?;
    let catalog = model.catalog();
    let classifier = crate::classifier::DpiClassifier::new(
        catalog.head().len(),
        catalog.tail_len(),
        model.config().classified_fraction,
    );
    fold_source(source, model, options.chunk_size, |batch, ds, st| {
        crate::pipeline::aggregate_batch(batch, &classifier, FoldStrategy::Batched, true, ds, st)
    })
}

/// An in-memory slice of records as a single-shard [`RecordSource`].
#[derive(Debug, Clone, Copy)]
pub struct SliceSource<'a> {
    records: &'a [SessionRecord],
}

impl<'a> SliceSource<'a> {
    /// Wraps a slice of already-materialized records.
    pub fn new(records: &'a [SessionRecord]) -> Self {
        SliceSource { records }
    }
}

impl RecordSource for SliceSource<'_> {
    fn shards(&self) -> usize {
        1
    }

    fn stream_shard(
        &self,
        _shard: usize,
        _stats: &mut CollectionStats,
        sink: &mut ChunkSink<'_>,
    ) -> Result<(), IngestError> {
        for record in self.records {
            sink.push(record);
        }
        Ok(())
    }

    /// Logical bytes of the backing slice. Reported statically (rather
    /// than accumulated per stream) so that replaying the same source
    /// twice — e.g. a bench warm-up pass before the timed pass — does not
    /// double-count.
    fn bytes_read(&self) -> u64 {
        std::mem::size_of_val(self.records) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{FlowSignature, Interface};
    use mobilenet_geo::CommuneId;

    fn record(hour: u16) -> SessionRecord {
        SessionRecord {
            interface: Interface::Gn,
            start_hour: hour,
            dl_mb: 1.5,
            ul_mb: 0.5,
            commune: CommuneId(0),
            signature: FlowSignature(0),
            stale_uli: false,
        }
    }

    #[test]
    fn chunk_sink_flushes_at_the_budget_and_preserves_order() {
        let ledger = IngestLedger::default();
        let mut seen: Vec<(usize, u16)> = Vec::new();
        let mut chunks = 0usize;
        {
            let mut consume = |batch: &mut RecordBatch| {
                chunks += 1;
                seen.extend(batch.start_hours().iter().map(|&h| (chunks, h)));
            };
            let mut sink = ChunkSink::new(3, &ledger, &mut consume);
            for h in 0..8 {
                sink.push(&record(h));
            }
            sink.flush();
            sink.flush(); // idempotent on empty
        }
        assert_eq!(chunks, 3, "8 records at budget 3 → chunks of 3, 3, 2");
        let hours: Vec<u16> = seen.iter().map(|(_, h)| *h).collect();
        assert_eq!(hours, (0..8).collect::<Vec<u16>>());
        assert_eq!(ledger.chunks.load(Ordering::Relaxed), 3);
        assert_eq!(ledger.records.load(Ordering::Relaxed), 8);
        assert_eq!(ledger.peak_resident.load(Ordering::Relaxed), 3);
        assert_eq!(ledger.resident.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn options_validate_rejects_zero_chunks_and_bad_plans() {
        assert!(CollectOptions::default().validate().is_ok());
        assert!(CollectOptions::default().chunk_size(0).validate().is_err());
        let mut bad = CollectOptions::default();
        bad.faults.loss_prob = 2.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn ingest_error_display_and_sources_chain() {
        use std::error::Error as _;
        let e = IngestError::Config("chunk_size must be at least 1 record".into());
        assert!(e.to_string().contains("chunk_size"));
        assert!(e.source().is_none());
        let e = IngestError::from(DatasetError {
            line: 0,
            message: "cannot merge".into(),
        });
        assert!(e.to_string().contains("cannot merge"));
        assert!(e.source().is_some());
    }
}
