//! `batch_week`: one fault-free week through `collect_with_options`, from
//! session synthesis to the final dataset, at 1 thread and at `nproc`
//! threads. Nothing is served or analysed, so the ingest layers do all of
//! the work.
//!
//! The traced run rebuilds the same week from the public pieces of the
//! chain — `SessionGenerator::generate_shard`, `UliModel::fix_along` with
//! `DpiClassifier::stamp_head`, `RadioNetwork::commune_of_fix`,
//! `RecordBatch`, `DpiClassifier::classify_batch`, `aggregate_batch`,
//! `TrafficDataset::merge` and `DemandModel::fill_tail` — with one timer per
//! layer per block of sessions, and fails unless its dataset is byte-equal
//! to `collect_with_options` on the same seed.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use mobilenet_core::StudyConfig;
use mobilenet_geo::{CommuneId, Point, UsageClass};
use mobilenet_netsim::records::FlowSignature;
use mobilenet_netsim::{
    aggregate_batch, collect_with_options, Capture, CollectionOutput, CollectionStats,
    DpiClassifier, FoldStrategy, Interface, RadioNetwork, RecordBatch, UliModel,
};
use mobilenet_traffic::{
    DemandModel, Direction, Session, SessionGenerator, Technology, TrafficDataset,
};

use crate::stats::{fast_time, median, show_seconds, timed, LayerTable};
use crate::{metric, Args, Outcome};

/// Session thinning of the benchmark week: the france tier's geography
/// (36,000 communes, 20 service shards) at an eighth of its 2.8×10⁷
/// sessions, so that one run fits several collections at each thread count.
pub const VOLUME_SCALE: f64 = 320.0;

/// The tier every result of this workload (and of `live_query_mix`) names.
pub const TIER: &str = "france geography, volume_scale 320 (~3.5e6 sessions)";

/// `Capture::build` calls the traced run times for `netsim.capture_s`.
const CAPTURE_REPS: usize = 15;

/// Salt of the radio-deployment seed `Capture::build` uses.
const RADIO_SALT: u64 = 0x7261_6469_6f00_0001;
/// Salt of the per-shard probe RNG streams of the synthetic source.
const PROBE_SALT: u64 = 0x7072_6f62_6572_6e67;

/// The benchmark week: the france tier with [`VOLUME_SCALE`] thinning.
pub fn week_config() -> StudyConfig {
    let mut config = StudyConfig::france_scale();
    config.traffic.volume_scale = VOLUME_SCALE;
    config
}

/// Builds the demand model and the capture apparatus, the set-up every
/// collection of the week starts from.
fn set_up(config: &StudyConfig, seed: u64) -> DemandModel {
    let model = config.demand_model(seed);
    Capture::build(&model, &config.netsim, seed).expect("the france tier config is valid");
    model
}

/// A cheap exact digest of a dataset's tables (every series, commune
/// vector, tail and unclassified total, by bit pattern).
pub fn dataset_digest(ds: &TrafficDataset) -> u64 {
    let mut h = DefaultHasher::new();
    for dir in [Direction::Down, Direction::Up] {
        for s in 0..ds.n_services() {
            ds.national_series(dir, s)
                .iter()
                .for_each(|v| h.write_u64(v.to_bits()));
            ds.commune_vector(dir, s)
                .iter()
                .for_each(|v| h.write_u64(v.to_bits()));
        }
        ds.tail_weekly(dir)
            .iter()
            .for_each(|v| h.write_u64(v.to_bits()));
        h.write_u64(ds.unclassified(dir).to_bits());
    }
    h.finish()
}

/// Output checks of one collection: fault-free, so every session becomes
/// exactly one record, and peak resident records stay within
/// `chunk × workers`.
fn collection_errors(out: &CollectionOutput) -> Vec<String> {
    let mut errors = Vec::new();
    if out.ingest.records != out.stats.sessions {
        errors.push(format!(
            "records {} != sessions {} on a fault-free week",
            out.ingest.records, out.stats.sessions
        ));
    }
    if out.ingest.peak_resident_records > out.ingest.resident_budget() {
        errors.push(format!(
            "peak resident records {} over the budget {}",
            out.ingest.peak_resident_records,
            out.ingest.resident_budget()
        ));
    }
    errors
}

/// Runs the workload.
pub fn run(args: &Args, threads: usize) -> Outcome {
    mobilenet_obs::set_enabled(Some(false));
    let config = week_config();
    let options = config.collect_options();
    let mut setup_s = Vec::new();
    let model = timed(&mut setup_s, || set_up(&config, args.seed));

    let mut outcome = Outcome::default();
    let mut times: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut records = 0;
    let mut reference: Option<u64> = None;
    let start = Instant::now();
    // Alternate the two thread counts so slow phases of a noisy machine
    // fall on both, and set up again after each pair so that the set-up
    // samples span the run as the collections do; always finish a whole
    // pair.
    while times[1].is_empty() || start.elapsed() < args.seconds {
        for (slot, t) in [1, threads].into_iter().enumerate() {
            mobilenet_par::set_thread_override(Some(t));
            let t0 = Instant::now();
            let out = collect_with_options(&model, &config.netsim, &options, args.seed)
                .expect("the france tier config is valid");
            times[slot].push(t0.elapsed().as_secs_f64());
            records = out.ingest.records;
            let mut errors = collection_errors(&out);
            let digest = dataset_digest(&out.dataset);
            if *reference.get_or_insert(digest) != digest {
                errors.push(format!(
                    "dataset at {t} threads differs from the first collection"
                ));
            }
            outcome.record(errors.is_empty());
            outcome.errors.extend(errors);
        }
        mobilenet_par::set_thread_override(None);
        drop(timed(&mut setup_s, || set_up(&config, args.seed)));
    }
    let [serial, parallel] =
        [&times[0], &times[1]].map(|t| fast_time(t).expect("at least one collection each"));
    println!(
        "batch_week: {records} records per collection; {} collections per thread count; \
         fast time {serial:.3} s at 1 thread, {parallel:.3} s at {threads}; \
         collections at 1 thread {}, at {threads} threads {}",
        times[0].len(),
        show_seconds(&times[0]),
        show_seconds(&times[1])
    );
    outcome.push(metric(
        "setup_s",
        fast_time(&setup_s).expect("set-up samples"),
        "s",
    ));
    outcome.push(metric("records_per_s", records as f64 / parallel, "1/s"));
    outcome.push(metric("records_per_s_1t", records as f64 / serial, "1/s"));
    outcome.push(metric("op_ms", parallel * 1e3, "ms"));
    outcome.push(metric("peak_rss_mb", crate::probe::peak_rss_mb(), "MB"));
    outcome
}

/// The read-only capture apparatus, rebuilt from its public parts.
struct Apparatus<'a> {
    model: &'a DemandModel,
    radio: RadioNetwork,
    classifier: DpiClassifier,
    uli: UliModel,
    /// Per-commune ULI displacement direction (rail tangent on TGV
    /// communes).
    directions: Vec<Option<(f64, f64)>>,
    generator: SessionGenerator<'a>,
    seed: u64,
    chunk: usize,
}

/// Layer time and work counts of one shard (or a whole week).
#[derive(Debug, Default, Clone, Copy)]
struct Clock {
    synth: Duration,
    noise: Duration,
    locate: Duration,
    batch: Duration,
    classify: Duration,
    fold: Duration,
    /// `aggregate_batch` resolves the codes again; that second pass is the
    /// benchmark's own extra work and is kept out of `fold`.
    reclassify: Duration,
    sessions: u64,
    records: u64,
    batches: u64,
}

impl Clock {
    fn add(&mut self, o: &Clock) {
        self.synth += o.synth;
        self.noise += o.noise;
        self.locate += o.locate;
        self.batch += o.batch;
        self.classify += o.classify;
        self.fold += o.fold;
        self.reclassify += o.reclassify;
        self.sessions += o.sessions;
        self.records += o.records;
        self.batches += o.batches;
    }
}

/// Per-block scratch of a traced shard: the sessions of one block and
/// each layer's output for them.
struct Block {
    sessions: Vec<Session>,
    fixes: Vec<(Point, bool)>,
    signatures: Vec<FlowSignature>,
    communes: Vec<CommuneId>,
    batch: RecordBatch,
    codes: Vec<u32>,
}

impl Block {
    fn new(chunk: usize) -> Self {
        Block {
            sessions: Vec::with_capacity(chunk),
            fixes: Vec::with_capacity(chunk),
            signatures: Vec::with_capacity(chunk),
            communes: Vec::with_capacity(chunk),
            batch: RecordBatch::with_capacity(chunk),
            codes: Vec::with_capacity(chunk),
        }
    }

    /// Runs one block through the probe, classification and fold layers,
    /// timing each.
    fn process(
        &mut self,
        app: &Apparatus<'_>,
        rng: &mut StdRng,
        dataset: &mut TrafficDataset,
        stats: &mut CollectionStats,
        clock: &mut Clock,
    ) {
        let country = app.model.country();
        let t0 = Instant::now();
        // ULI fix then signature stamp per session: the probe's RNG draw
        // order.
        for s in &self.sessions {
            let direction = app.directions.get(s.commune.index()).copied().flatten();
            self.fixes
                .push(app.uli.fix_along(&s.position, direction, rng));
            self.signatures
                .push(app.classifier.stamp_head(s.service, rng));
        }
        let t1 = Instant::now();
        for (fix, _) in &self.fixes {
            self.communes.push(app.radio.commune_of_fix(fix));
        }
        let t2 = Instant::now();
        for (i, s) in self.sessions.iter().enumerate() {
            let (_, stale) = self.fixes[i];
            let commune = self.communes[i];
            // Session-level diagnostics, kept as the synthetic source keeps
            // them.
            stats.sessions += 1;
            stats.stale_fixes += stale as u64;
            stats.misassigned_sessions += (commune != s.commune) as u64;
            if stats.sessions.is_multiple_of(16) {
                stats.push_error_sample(s.position.distance(&country.commune(commune).centroid));
            }
            let interface = match s.tech {
                Technology::G3 => Interface::Gn,
                Technology::G4 => Interface::S5S8,
            };
            self.batch.push_parts(
                interface,
                s.start_hour,
                s.dl_mb,
                s.ul_mb,
                commune.0,
                self.signatures[i].0,
                stale,
            );
        }
        let t3 = Instant::now();
        app.classifier
            .classify_batch(self.batch.signatures(), &mut self.codes);
        let t4 = Instant::now();
        aggregate_batch(
            &mut self.batch,
            &app.classifier,
            FoldStrategy::Batched,
            false,
            dataset,
            stats,
        );
        let t5 = Instant::now();
        let classify = t4 - t3;
        clock.noise += t1 - t0;
        clock.locate += t2 - t1;
        clock.batch += t3 - t2;
        clock.classify += classify;
        clock.fold += (t5 - t4).saturating_sub(classify);
        clock.reclassify += (t5 - t4).min(classify);
        clock.records += self.batch.len() as u64;
        clock.batches += 1;
        self.sessions.clear();
        self.fixes.clear();
        self.signatures.clear();
        self.communes.clear();
        self.batch.clear();
    }
}

/// One traced shard's partial, layer clock and wall time.
struct ShardTrace {
    dataset: TrafficDataset,
    clock: Clock,
    wall: Duration,
}

fn new_dataset(model: &DemandModel) -> TrafficDataset {
    let catalog = model.catalog();
    TrafficDataset::new(
        model.country(),
        catalog.head().len(),
        catalog.tail_len(),
        model.config().subscriber_share,
    )
}

fn trace_shard(app: &Apparatus<'_>, shard: usize) -> ShardTrace {
    let start = Instant::now();
    let mut clock = Clock::default();
    let mut dataset = new_dataset(app.model);
    let mut stats = CollectionStats::default();
    clock.fold += start.elapsed();
    let mut rng =
        StdRng::seed_from_u64(mobilenet_par::seed_for(app.seed ^ PROBE_SALT, shard as u64));
    let mut block = Block::new(app.chunk);
    let mut inside = Duration::ZERO;
    let gen_start = Instant::now();
    let sessions = app.generator.generate_shard(shard, |s| {
        block.sessions.push(s.clone());
        if block.sessions.len() == app.chunk {
            let t = Instant::now();
            block.process(app, &mut rng, &mut dataset, &mut stats, &mut clock);
            inside += t.elapsed();
        }
    });
    clock.synth += gen_start.elapsed().saturating_sub(inside);
    clock.sessions = sessions;
    if !block.sessions.is_empty() {
        block.process(app, &mut rng, &mut dataset, &mut stats, &mut clock);
    }
    ShardTrace {
        dataset,
        clock,
        wall: start.elapsed(),
    }
}

/// What one traced collection of the week measured.
struct TracedWeek {
    dataset: TrafficDataset,
    table: LayerTable,
    clock: Clock,
    shard_walls: Vec<f64>,
    region_s: f64,
    workers: usize,
}

/// Collects the week from the public pieces at `threads` threads with the
/// benchmark's layer timers.
fn traced_collect(
    model: &DemandModel,
    config: &StudyConfig,
    seed: u64,
    threads: usize,
) -> TracedWeek {
    let start = Instant::now();
    let country = model.country();
    let radio = RadioNetwork::deploy(country, &config.netsim, seed ^ RADIO_SALT);
    let classifier = DpiClassifier::new(
        model.catalog().head().len(),
        model.catalog().tail_len(),
        model.config().classified_fraction,
    );
    let directions = country
        .communes()
        .iter()
        .map(|c| {
            (c.usage_class() == UsageClass::Tgv)
                .then(|| {
                    mobilenet_geo::rail::nearest_line_direction(country.tgv_lines(), &c.centroid)
                })
                .flatten()
        })
        .collect();
    let capture = start.elapsed();
    let t = Instant::now();
    let app = Apparatus {
        model,
        radio,
        classifier,
        uli: UliModel::new(&config.netsim),
        directions,
        generator: SessionGenerator::new(model, seed),
        seed,
        chunk: config.chunk_size,
    };
    let generator_new = t.elapsed();

    mobilenet_par::set_thread_override(Some(threads));
    let region = Instant::now();
    let shards =
        mobilenet_par::par_map_collect(app.generator.shards(), |shard| trace_shard(&app, shard));
    let region_s = region.elapsed().as_secs_f64();
    mobilenet_par::set_thread_override(None);

    let t = Instant::now();
    let mut dataset = new_dataset(model);
    for shard in &shards {
        dataset
            .merge(&shard.dataset)
            .expect("shard partials share one shape");
    }
    let merge = t.elapsed();
    let t = Instant::now();
    model.fill_tail(&mut dataset);
    let fill_tail = t.elapsed();
    let wall_s = start.elapsed().as_secs_f64();

    let mut clock = Clock {
        synth: generator_new,
        ..Clock::default()
    };
    for shard in &shards {
        clock.add(&shard.clock);
    }
    let s = |d: Duration| d.as_secs_f64();
    let table = LayerTable {
        rows: vec![
            ("netsim.capture_s".into(), s(capture)),
            ("traffic.synth_s".into(), s(clock.synth)),
            ("netsim.noise_s".into(), s(clock.noise)),
            ("netsim.locate_s".into(), s(clock.locate)),
            ("netsim.batch_s".into(), s(clock.batch)),
            ("netsim.classify_s".into(), s(clock.classify)),
            ("netsim.fold_s".into(), s(clock.fold)),
            ("netsim.merge_s".into(), s(merge)),
            ("netsim.fill_tail_s".into(), s(fill_tail)),
            ("trace.reclassify_s".into(), s(clock.reclassify)),
        ],
        wall_s,
    };
    TracedWeek {
        dataset,
        table,
        clock,
        shard_walls: shards.iter().map(|sh| sh.wall.as_secs_f64()).collect(),
        region_s,
        workers: threads.min(shards.len()).max(1),
    }
}

/// The traced run: a reference `collect_with_options` and the traced
/// rebuild at 1 thread (layer table, faithfulness, overhead), then the
/// traced rebuild at `nproc` threads (shard balance). Returns the
/// per-layer metrics and the tracing overhead.
pub fn traced(args: &Args, threads: usize) -> (Outcome, f64) {
    let config = week_config();
    let options = config.collect_options();
    mobilenet_obs::set_enabled(Some(false));
    let model = set_up(&config, args.seed);
    let mut capture_s = Vec::new();
    for _ in 0..CAPTURE_REPS {
        let t = Instant::now();
        drop(Capture::build(&model, &config.netsim, args.seed).expect("valid config"));
        capture_s.push(t.elapsed().as_secs_f64());
    }

    // Untraced reference collections alternate with traced rebuilds at
    // 1 thread; the faster of each gives the overhead and the layer table.
    const PAIRS: usize = 2;
    let mut outcome = Outcome::default();
    let mut reference = None;
    let mut reference_s = Vec::new();
    let mut serial: Option<TracedWeek> = None;
    for _ in 0..PAIRS {
        mobilenet_par::set_thread_override(Some(1));
        let t = Instant::now();
        reference = Some(
            collect_with_options(&model, &config.netsim, &options, args.seed)
                .expect("the france tier config is valid"),
        );
        reference_s.push(t.elapsed().as_secs_f64());
        mobilenet_par::set_thread_override(None);
        mobilenet_obs::set_enabled(Some(true));
        let week = traced_collect(&model, &config, args.seed, 1);
        mobilenet_obs::set_enabled(Some(false));
        if serial
            .as_ref()
            .is_none_or(|s| week.table.wall_s < s.table.wall_s)
        {
            serial = Some(week);
        }
    }
    let reference = reference.expect("at least one reference collection");
    let serial = serial.expect("at least one traced collection");
    let reference_csv = reference.dataset.to_csv();
    mobilenet_obs::set_enabled(Some(true));
    let parallel = traced_collect(&model, &config, args.seed, threads);
    mobilenet_obs::set_enabled(Some(false));

    for (week, t) in [(&serial, 1), (&parallel, threads)] {
        let mut errors = Vec::new();
        if week.dataset.to_csv() != reference_csv {
            errors.push(format!(
                "traced dataset at {t} threads is not byte-equal to collect_with_options"
            ));
        }
        if week.clock.records != reference.ingest.records
            || week.clock.batches != reference.ingest.chunks
            || week.clock.sessions != reference.stats.sessions
        {
            errors.push(format!(
                "traced counts at {t} threads (sessions {}, records {}, batches {}) differ from \
                 collect_with_options (sessions {}, records {}, chunks {})",
                week.clock.sessions,
                week.clock.records,
                week.clock.batches,
                reference.stats.sessions,
                reference.ingest.records,
                reference.ingest.chunks
            ));
        }
        outcome.record(errors.is_empty());
        outcome.errors.extend(errors);
    }
    print!("{}", serial.table.render("batch_week layers at 1 thread"));
    if !serial.table.sums_to_wall() {
        outcome.errors.push(format!(
            "batch_week layer table sums to {:.1}% of its traced wall time",
            100.0 * serial.table.sum_frac()
        ));
    }

    let c = &serial.clock;
    let walls = &parallel.shard_walls;
    let shard_max = walls.iter().copied().fold(0.0, f64::max);
    let shard_mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
    for (name, value) in &serial.table.rows {
        if name != "netsim.capture_s" && name != "trace.reclassify_s" {
            outcome.push(metric(name.clone(), *value, "s"));
        }
    }
    outcome.push(metric(
        "netsim.capture_s",
        median(&capture_s).unwrap_or(0.0),
        "s",
    ));
    outcome.push(metric(
        "netsim.locate_ns",
        c.locate.as_secs_f64() * 1e9 / c.records.max(1) as f64,
        "ns",
    ));
    outcome.push(metric("par.shard_max_s", shard_max, "s"));
    outcome.push(metric(
        "par.shard_skew",
        shard_max / shard_mean.max(f64::MIN_POSITIVE),
        "ratio",
    ));
    outcome.push(metric(
        "par.busy_frac",
        walls.iter().sum::<f64>() / (parallel.region_s * parallel.workers as f64),
        "frac",
    ));
    outcome.push(metric("traffic.sessions", c.sessions as f64, "count"));
    outcome.push(metric("netsim.records", c.records as f64, "count"));
    outcome.push(metric("netsim.batches", c.batches as f64, "count"));
    let overhead = serial.table.wall_s / fast_time(&reference_s).expect("reference timings") - 1.0;
    (outcome, overhead)
}
