//! Incremental aggregation over an unbounded record stream.
//!
//! [`LiveState`] is the always-on counterpart of
//! [`collect_with_options`](mobilenet_netsim::collect_with_options): it
//! owns the demand model and measurement apparatus, runs the synthetic
//! week through the same [`ShardedFold`] engine batch collection runs,
//! and answers snapshot queries at any point during ingestion.
//!
//! # Bit-identity contract
//!
//! A snapshot taken after ingestion completes is **bit-identical** to the
//! batch path on the same `(config, seed)` — at any thread count and with
//! any fault plan — because it is the batch path: the same
//! [`Capture`]/[`SyntheticSource`](mobilenet_netsim::SyntheticSource)
//! streams run through the same engine with the same [`aggregate_batch`]
//! fold, and a snapshot is the engine's shard-ordered
//! [`merge`](ShardedFold::merge) into a fresh dataset. The live layer
//! only adds
//! what batch collection has no use for: watermarks, a version counter
//! with its notifier, the week ring and the snapshot cache, all driven
//! from the engine's per-batch and per-shard hooks.
//!
//! # The 168-hour week ring
//!
//! Multi-week runs ([`LiveState::run_weeks`]) fold every week into the
//! same 168-hour ring: week `w` streams from the derived seed
//! [`week_seed`]`(seed, w)` and lands on hours `0..168` modulo the ring,
//! while the **expired** week's contribution — its partial datasets, its
//! collection diagnostics, its watermarks — is retired at the roll-over,
//! so a four-week national replay holds exactly the accumulator and
//! chunk-buffer memory of a one-week run. Consequence (pinned by
//! `tests/week_ring.rs`): after week `w` closes, the snapshot is
//! bit-identical to a **batch** collection over the equivalent folded
//! records, i.e. `collect_with_options(model, config, options,
//! week_seed(seed, w))`. Only the streaming-engine accounting
//! ([`IngestStats`]) stays cumulative across weeks; its
//! [`cycles`](IngestStats::cycles) field counts the weeks folded.
//!
//! # Watermark semantics
//!
//! The synthetic source is *not* time-ordered — sessions sample their
//! start hour — so the watermark is an **observed frontier**, not a
//! completeness guarantee: per shard it is the highest start hour folded
//! so far, jumping to 168 when the shard's stream closes; the global
//! watermark is the minimum over shards. Within a week it is monotone and
//! reaches 168 exactly when every shard has closed; a week roll-over
//! retires it back to 0 for the incoming week (the pair
//! `(week, watermark_hour)` is what subscribers watch —
//! [`LiveSnapshot::week`]). [`LiveSnapshot::complete`] holds once the
//! *final* scheduled week has fully closed; from that point on the
//! snapshot no longer changes and equals the batch output for the final
//! week's seed.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use mobilenet_core::StudyConfig;
use mobilenet_netsim::{
    aggregate_batch, Capture, CollectOptions, CollectionStats, FoldStrategy, IngestError,
    IngestStats, NetsimConfig, ShardedFold,
};
use mobilenet_traffic::{DemandModel, ServiceCatalog, TrafficDataset, HOURS_PER_WEEK};

/// Derives the capture/session seed of week `week` of a multi-week run.
///
/// Week 0 uses the base seed unchanged — a single-week live run is
/// bit-identical to batch collection on `(config, seed)` — and later
/// weeks mix the week index through a splitmix64 finalizer so their
/// record streams are decorrelated but fully deterministic in
/// `(seed, week)`.
pub fn week_seed(base: u64, week: usize) -> u64 {
    if week == 0 {
        return base;
    }
    let mut z = base ^ (week as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A wait/notify rendezvous between the ingest path and subscribed
/// connections.
///
/// The ingest path calls [`notify`](VersionNotifier::notify) after every
/// version bump — a bare `Condvar::notify_all`, so it can never block on
/// a slow consumer. Waiters (each subscribed connection's streaming loop
/// in [`crate::server`]) poll with
/// [`wait_timeout`](VersionNotifier::wait_timeout); because every wait is
/// timeout-bounded, a notification racing past an about-to-wait consumer
/// costs at most one tick, never a lost wake-up.
#[derive(Debug, Default)]
pub(crate) struct VersionNotifier {
    lock: Mutex<()>,
    cv: Condvar,
}

impl VersionNotifier {
    /// Wakes every waiter (non-blocking; safe from the ingest hot path).
    pub(crate) fn notify(&self) {
        self.cv.notify_all();
    }

    /// Blocks for at most `timeout` or until a notification arrives.
    pub(crate) fn wait_timeout(&self, timeout: Duration) {
        let guard = self.lock.lock().expect("notifier lock poisoned");
        let _ = self.cv.wait_timeout(guard, timeout);
    }
}

/// Serializes the week-by-week drivers of one live state.
#[derive(Debug, Default)]
struct WeekCursor {
    /// Weeks whose ingestion has started (= the next week index to run).
    weeks_started: usize,
}

/// The shared state of one live ingestion run: the sharded-fold engine
/// plus watermarks and versioning, queryable while
/// [`run_ingestion`](LiveState::run_ingestion) (or the multi-week
/// [`run_weeks`](LiveState::run_weeks)) streams.
pub struct LiveState {
    engine: ShardedFold<DemandModel>,
    netsim: NetsimConfig,
    options: CollectOptions,
    seed: u64,
    /// Per-shard observed frontier: `max start_hour + 1` folded so far,
    /// `HOURS_PER_WEEK` once the shard closes.
    watermarks: Vec<AtomicU64>,
    closed_shards: AtomicUsize,
    /// Ring week currently being folded (`0`-based).
    week: AtomicUsize,
    /// Scheduled weeks of this run (default 1; set by
    /// [`set_weeks`](LiveState::set_weeks) before ingestion starts).
    weeks_total: AtomicUsize,
    /// Serializes week drivers; held across a whole week's ingestion.
    cursor: Mutex<WeekCursor>,
    /// Bumped on every fold and shard close; snapshot cache key.
    version: AtomicU64,
    /// Woken on every version bump; what subscribed connections wait on.
    notifier: VersionNotifier,
    /// Held for a whole snapshot build, so builds are serialized.
    build: Mutex<()>,
    /// The last snapshot built, keyed by the state version it was built
    /// at.
    cache: Mutex<Option<(u64, Arc<LiveSnapshot>)>>,
}

/// A consistent view of the live aggregate at one moment — on a complete
/// run, bit-identical to the batch
/// [`CollectionOutput`](mobilenet_netsim::CollectionOutput) for the final
/// week's derived seed.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct LiveSnapshot {
    /// The merged dataset (tail table filled from the demand model) —
    /// the current ring content, i.e. the week being folded.
    pub dataset: TrafficDataset,
    /// Collection diagnostics of the current ring week (expired weeks'
    /// contributions are retired at roll-over).
    pub stats: CollectionStats,
    /// Streaming-engine accounting — cumulative across all weeks folded
    /// so far (`ingest.cycles` counts them).
    pub ingest: IngestStats,
    /// Global observed frontier within the current week, hours
    /// (`0..=168`); see the module docs for the exact semantics.
    pub watermark_hour: usize,
    /// Ring week this snapshot describes (`0`-based).
    pub week: usize,
    /// Scheduled weeks of the run.
    pub weeks: usize,
    /// Whether the final scheduled week has fully closed — from this
    /// point on the snapshot no longer changes and equals the batch
    /// output on `week_seed(seed, weeks - 1)`.
    pub complete: bool,
    /// The state version the snapshot was built at (monotone).
    pub version: u64,
}

impl LiveState {
    /// Builds the live state for a demand model: one empty partial per
    /// shard (one shard per head service), nothing streamed yet.
    pub fn new(
        model: DemandModel,
        netsim: NetsimConfig,
        options: CollectOptions,
        seed: u64,
    ) -> Result<Arc<LiveState>, String> {
        netsim.validate()?;
        options.validate()?;
        let shards = model.catalog().head().len();
        let watermarks = (0..shards).map(|_| AtomicU64::new(0)).collect();
        Ok(Arc::new(LiveState {
            engine: ShardedFold::new(model, shards, options.chunk_size),
            netsim,
            options,
            seed,
            watermarks,
            closed_shards: AtomicUsize::new(0),
            week: AtomicUsize::new(0),
            weeks_total: AtomicUsize::new(1),
            cursor: Mutex::new(WeekCursor::default()),
            version: AtomicU64::new(0),
            notifier: VersionNotifier::default(),
            build: Mutex::new(()),
            cache: Mutex::new(None),
        }))
    }

    /// [`LiveState::new`] from a [`StudyConfig`] — the same model and
    /// options a batch [`Pipeline`](mobilenet_core::Pipeline) run of that
    /// config would use, so snapshots pin against it.
    pub fn from_config(config: &StudyConfig, seed: u64) -> Result<Arc<LiveState>, String> {
        LiveState::new(
            config.demand_model(seed),
            config.netsim.clone(),
            config.collect_options(),
            seed,
        )
    }

    /// The service catalog of the demand model.
    pub fn catalog(&self) -> &ServiceCatalog {
        self.engine.model().catalog()
    }

    /// Head-service names in dataset order.
    pub(crate) fn service_names(&self) -> Vec<&'static str> {
        self.catalog().head().iter().map(|s| s.name).collect()
    }

    /// The base seed of this run (week 0's capture/session seed).
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The derived capture/session seed of ring week `week` — what a
    /// batch reference run for that week must use ([`week_seed`]).
    pub fn week_seed(&self, week: usize) -> u64 {
        week_seed(self.seed, week)
    }

    /// The notifier woken on every version bump; subscribed connections
    /// wait on it instead of polling snapshots.
    pub(crate) fn notifier(&self) -> &VersionNotifier {
        &self.notifier
    }

    /// Schedules `weeks` ring weeks for this run. Must be called before
    /// any ingestion starts; [`run_weeks`](LiveState::run_weeks) calls it
    /// for you.
    pub fn set_weeks(&self, weeks: usize) -> Result<(), String> {
        if weeks == 0 {
            return Err("weeks must be at least 1".into());
        }
        let cursor = self.cursor.lock().expect("week cursor poisoned");
        if cursor.weeks_started > 0 {
            return Err("live ingestion already started".into());
        }
        self.weeks_total.store(weeks, Ordering::SeqCst);
        Ok(())
    }

    /// Streams one week through the incremental engine, fanning the
    /// shards out over the ambient `mobilenet-par` pool. Blocks until
    /// every shard closes (run it on a dedicated thread to keep serving);
    /// snapshots remain answerable throughout.
    ///
    /// Returns the final accounting; a second call is rejected (the
    /// stream was already consumed). Equivalent to
    /// [`run_weeks`](LiveState::run_weeks)`(1)`.
    pub fn run_ingestion(&self) -> Result<IngestStats, IngestError> {
        self.run_weeks(1)
    }

    /// Streams `weeks` consecutive weeks through the 168-hour ring:
    /// week `w` uses the derived seed [`week_seed`]`(seed, w)`, and each
    /// roll-over retires the expired week's partials, watermarks and
    /// collection diagnostics so memory stays that of a one-week run.
    ///
    /// Blocks until the final week closes. Rejected if ingestion already
    /// started (the streams were already consumed).
    pub fn run_weeks(&self, weeks: usize) -> Result<IngestStats, IngestError> {
        self.set_weeks(weeks).map_err(IngestError::Config)?;
        let mut last = self.ingest_stats();
        for _ in 0..weeks {
            last = self.run_next_week()?;
        }
        Ok(last)
    }

    /// Streams the next scheduled week (rolling the ring over first when
    /// a previous week is in it) — the stepwise driver behind
    /// [`run_weeks`](LiveState::run_weeks), public so tests and admin
    /// tooling can pin per-week snapshots between weeks.
    ///
    /// Errors once all scheduled weeks (see
    /// [`set_weeks`](LiveState::set_weeks)) have been ingested.
    pub fn run_next_week(&self) -> Result<IngestStats, IngestError> {
        // Held across the whole week: serializes concurrent drivers and
        // makes "already ran" a stable answer rather than a race.
        let mut cursor = self.cursor.lock().expect("week cursor poisoned");
        let week = cursor.weeks_started;
        if week >= self.weeks_total.load(Ordering::SeqCst) {
            return Err(IngestError::Config("live ingestion already ran".into()));
        }
        if week > 0 {
            self.roll_week(week);
        }
        cursor.weeks_started += 1;
        self.ingest_week(week)
    }

    /// Retires the expired week from the ring: every shard partial and
    /// its diagnostics reset to empty, watermarks retire to 0, and the
    /// ring week advances — the snapshot's memory footprint is unchanged
    /// (same dense tables, fresh values).
    fn roll_week(&self, week: usize) {
        // The engine holds every shard lock for the whole reset: a
        // concurrent `snapshot()` (a merge under the same locks) either
        // sees the old week whole or the new week whole, never a torn
        // ring.
        self.engine.reset(|| {
            for w in &self.watermarks {
                w.store(0, Ordering::Release);
            }
            self.closed_shards.store(0, Ordering::SeqCst);
            self.week.store(week, Ordering::SeqCst);
        });
        mobilenet_obs::add("serve.week_rolls", 1);
        mobilenet_obs::gauge("serve.week", week as f64);
        self.bump_version();
    }

    /// Streams ring week `week` (seed already rolled over).
    fn ingest_week(&self, week: usize) -> Result<IngestStats, IngestError> {
        let _span = mobilenet_obs::span("live_ingest");
        let seed = self.week_seed(week);
        let model = self.engine.model();
        let capture = Capture::build(model, &self.netsim, seed).map_err(IngestError::Config)?;
        let source = capture.source(model, &self.options, seed);
        self.engine.run(
            &source,
            |batch, ds, st| {
                aggregate_batch(
                    batch,
                    capture.classifier(),
                    FoldStrategy::Batched,
                    false,
                    ds,
                    st,
                )
            },
            |shard, batch| {
                if let Some(h) = batch.start_hours().iter().copied().max() {
                    self.watermarks[shard].fetch_max(h as u64 + 1, Ordering::Relaxed);
                }
                self.bump_version();
            },
            |shard, streamed| {
                if streamed.is_ok() {
                    self.watermarks[shard].store(HOURS_PER_WEEK as u64, Ordering::Release);
                    self.closed_shards.fetch_add(1, Ordering::SeqCst);
                }
                self.bump_version();
            },
        )?;
        self.bump_version();
        Ok(self.ingest_stats())
    }

    /// Bumps the state version and wakes subscribed connections.
    fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::Release);
        self.notifier.notify();
    }

    /// Global observed frontier within the current week, hours
    /// (`0..=168`).
    pub(crate) fn watermark_hour(&self) -> usize {
        self.watermarks
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .min()
            .unwrap_or(0) as usize
    }

    /// Ring week currently being folded (`0`-based).
    pub(crate) fn week(&self) -> usize {
        self.week.load(Ordering::SeqCst)
    }

    /// Scheduled weeks of this run.
    pub(crate) fn weeks(&self) -> usize {
        self.weeks_total.load(Ordering::SeqCst)
    }

    /// Whether the final scheduled week's streams have all closed.
    pub fn complete(&self) -> bool {
        self.week.load(Ordering::SeqCst) + 1 == self.weeks_total.load(Ordering::SeqCst)
            && self.closed_shards.load(Ordering::SeqCst) == self.engine.shards()
    }

    /// Streaming-engine accounting so far (cumulative across weeks).
    pub(crate) fn ingest_stats(&self) -> IngestStats {
        self.engine.stats()
    }

    /// The current state version (bumped on every fold).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// A consistent snapshot of the live aggregate: partials merged in
    /// shard order, tail filled from the model — the batch engine's
    /// reduction, run on demand.
    ///
    /// Snapshots are cached per state version, so repeated queries while
    /// ingestion is idle (or finished) cost one build total, and builds
    /// are serialized: queries that arrive at a new version while one
    /// builds wait for it and share its result.
    ///
    /// A build is [`ShardedFold::merge`] into a fresh dataset, which
    /// blocks ingest while it holds every shard lock. It moves no row
    /// data: each synthetic shard writes one head service, and a row with
    /// one writer is shared by reference count with the partial that
    /// wrote it. A folding worker copies a row that a snapshot still
    /// holds before writing it, under its own shard lock, so a snapshot a
    /// reader holds is never written.
    pub fn snapshot(&self) -> Arc<LiveSnapshot> {
        if let Some(snap) = self.cached() {
            return snap;
        }
        let _build = self.build.lock().expect("snapshot build poisoned");
        // The build this one waited for may have made the snapshot.
        if let Some(snap) = self.cached() {
            return snap;
        }
        let _span = mobilenet_obs::span("live_snapshot");
        // The cached snapshot is stale. Dropping it first lets the build
        // reuse its memory (unless a reader still holds it).
        drop(self.cache.lock().expect("snapshot cache poisoned").take());
        // The engine merges under every shard lock and reads the flags
        // there too: the result is a consistent cut — no fold can land in
        // any shard mid-merge, and a `complete` read under the locks
        // guarantees the merged data is final (every fold of a closed
        // shard happens-before the close it reports).
        let (out, (version, watermark_hour, week, weeks, complete)) = self
            .engine
            .merge(|_| {
                (
                    self.version(),
                    self.watermark_hour(),
                    self.week(),
                    self.weeks(),
                    self.complete(),
                )
            })
            .expect("shard partials share one shape");
        let snap = Arc::new(LiveSnapshot {
            dataset: out.dataset,
            stats: out.stats,
            ingest: out.ingest,
            watermark_hour,
            week,
            weeks,
            complete,
            version,
        });
        mobilenet_obs::add("serve.snapshots", 1);
        mobilenet_obs::gauge("serve.watermark_hour", snap.watermark_hour as f64);
        *self.cache.lock().expect("snapshot cache poisoned") = Some((version, snap.clone()));
        snap
    }

    /// The cached snapshot, if it was built at the current version.
    fn cached(&self) -> Option<Arc<LiveSnapshot>> {
        let version = self.version();
        match self.cache.lock().expect("snapshot cache poisoned").as_ref() {
            Some((cached_version, snap)) if *cached_version == version => Some(snap.clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn week_seed_is_identity_at_week_zero_and_distinct_after() {
        assert_eq!(week_seed(42, 0), 42);
        let seeds: Vec<u64> = (0..8).map(|w| week_seed(42, w)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b, "derived week seeds collide: {seeds:?}");
            }
        }
        // Deterministic.
        assert_eq!(week_seed(42, 3), week_seed(42, 3));
        assert_ne!(week_seed(42, 3), week_seed(43, 3));
    }

    #[test]
    fn set_weeks_rejects_zero_and_post_start_changes() {
        let config = mobilenet_core::StudyConfig::small();
        let state = LiveState::from_config(&config, 5).expect("valid config");
        assert!(state.set_weeks(0).is_err());
        assert!(state.set_weeks(2).is_ok());
        assert_eq!(state.weeks(), 2);
    }
}
