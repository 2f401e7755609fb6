//! `analysis_suite`: the paper's analyses over a medium-tier dataset, the
//! scale the shipped figures use. Set-up collects the dataset; each timed
//! pass runs the Fig 5 k-shape sweep, the Fig 10 pairwise r², the
//! Figs 6–7 topical peaks and the service ranking at `nproc` threads, so
//! ingest does none of the timed work. r², peaks and ranking are the
//! functions the server's `R2`, `PEAKS` and `RANK` verbs call.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::time::{Duration, Instant};

use mobilenet_core::peaks::PeakConfig;
use mobilenet_core::temporal::{clustering_sweep, Algorithm};
use mobilenet_core::{
    service_ranking_of, spatial_correlation_of, topical_profiles_of, Study, StudyConfig,
};
use mobilenet_netsim::collect_with_options;
use mobilenet_traffic::Direction;

use crate::stats::{fast_time, median, show_seconds, LayerTable};
use crate::{metric, Args, Outcome};

/// The tier every result of this workload names.
pub const TIER: &str = "medium (6,000 communes)";

/// Analysis passes between two set-ups in the timed window.
const PASSES_PER_SETUP: usize = 2;

/// Thread-count slots (`[nproc, 1 thread]`) of the set-ups in the timed
/// window, repeated.
const SETUP_SLOTS: [usize; 2] = [1, 0];

/// Set-ups at 1 thread a run makes at least, however short `--seconds`.
const MIN_SETUPS: usize = 2;

/// k-shape restarts per `k` of the Fig 5 sweep.
const RESTARTS: u64 = 5;

/// Collects the medium-tier study the analyses read at `threads` threads;
/// also returns the collection's own time.
fn set_up(seed: u64, threads: usize) -> (Study, f64) {
    let config = StudyConfig::medium();
    let model = config.demand_model(seed);
    mobilenet_par::set_thread_override(Some(threads));
    let t = Instant::now();
    let out = collect_with_options(&model, &config.netsim, &config.collect_options(), seed)
        .expect("the medium tier config is valid");
    let collect_s = t.elapsed().as_secs_f64();
    mobilenet_par::set_thread_override(None);
    (Study::from_parts(model, out), collect_s)
}

/// One analysis pass: the result digest and each analysis's time, in
/// [`LAYERS`] order, then the time spent digesting.
fn pass(study: &Study, threads: usize) -> (u64, [Duration; 5]) {
    let ds = study.dataset();
    let dir = Direction::Down;
    mobilenet_par::set_thread_override(Some(threads));
    let t0 = Instant::now();
    let sweep = clustering_sweep(study, dir, Algorithm::KShape, RESTARTS);
    let t1 = Instant::now();
    let r2 = spatial_correlation_of(ds, study.service_names(), dir);
    let t2 = Instant::now();
    let peaks = topical_profiles_of(ds, study.service_names(), dir, &PeakConfig::paper());
    let t3 = Instant::now();
    let ranking = service_ranking_of(ds, study.catalog().head(), dir);
    let t4 = Instant::now();
    mobilenet_par::set_thread_override(None);
    // `{:?}` prints every f64 with the digits that round-trip it, so the
    // digest is exact.
    let mut h = DefaultHasher::new();
    h.write(format!("{sweep:?}{r2:?}{peaks:?}{ranking:?}").as_bytes());
    (
        h.finish(),
        [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t4.elapsed()],
    )
}

/// Layer names of a pass, in call order; the last is the benchmark's own
/// output digest.
const LAYERS: [&str; 5] = [
    "core.kshape_sweep_s",
    "core.pairwise_r2_s",
    "core.peaks_s",
    "core.ranking_s",
    "trace.digest_s",
];

/// Time of the four analyses of a pass.
fn total_s(times: &[Duration; 5]) -> f64 {
    times[..4].iter().map(Duration::as_secs_f64).sum()
}

/// `[nproc, 1 thread]` set-up and collection times of a run.
#[derive(Default)]
struct SetUps {
    setup_s: [Vec<f64>; 2],
    collect_s: [Vec<f64>; 2],
}

impl SetUps {
    /// One timed set-up at `[threads, 1][slot]` threads.
    fn run(&mut self, seed: u64, threads: usize, slot: usize) -> Study {
        let t = Instant::now();
        let (study, collect) = set_up(seed, [threads, 1][slot]);
        self.setup_s[slot].push(t.elapsed().as_secs_f64());
        self.collect_s[slot].push(collect);
        study
    }
}

/// Runs the workload: after the first set-up, further set-ups alternate
/// with analysis passes through the whole timed window, alternately at
/// 1 thread and at `nproc`, so that a slow phase of the host falls on the
/// collections and the passes alike.
pub fn run(args: &Args, threads: usize) -> Outcome {
    mobilenet_obs::set_enabled(Some(false));
    let mut set_ups = SetUps::default();
    let study = set_ups.run(args.seed, threads, 0);
    let records = study.ingest_stats().map_or(0, |i| i.records) as f64;
    let reference = crate::batch::dataset_digest(study.dataset());

    let mut outcome = Outcome::default();
    let (serial, _) = pass(&study, 1);
    outcome.record(true);
    let (mut bad_passes, mut bad_set_ups) = (0, 0);
    let mut passes = Vec::new();
    let start = Instant::now();
    let mut slots = SETUP_SLOTS.into_iter().cycle();
    while set_ups.collect_s[1].len() < MIN_SETUPS || start.elapsed() < args.seconds {
        for _ in 0..PASSES_PER_SETUP {
            let (digest, times) = pass(&study, threads);
            passes.push(total_s(&times));
            outcome.record(digest == serial);
            bad_passes += (digest != serial) as usize;
        }
        let other = set_ups.run(args.seed, threads, slots.next().expect("cycles forever"));
        let same = crate::batch::dataset_digest(other.dataset()) == reference;
        outcome.record(same);
        bad_set_ups += !same as usize;
    }
    if bad_passes > 0 {
        outcome.errors.push(format!(
            "{bad_passes} passes at {threads} threads differ from the 1-thread digest"
        ));
    }
    if bad_set_ups > 0 {
        outcome.errors.push(format!(
            "{bad_set_ups} set-up collections differ from the first one"
        ));
    }
    let SetUps { setup_s, collect_s } = set_ups;
    let fast = |v: &[f64]| fast_time(v).expect("at least one sample");
    println!(
        "analysis_suite: {} passes at {threads} threads, fast time {:.4} s, median {:.4} s; \
         collections at {threads} threads {}, at 1 thread {}",
        passes.len(),
        fast(&passes),
        median(&passes).unwrap_or(0.0),
        show_seconds(&collect_s[0]),
        show_seconds(&collect_s[1])
    );
    outcome.push(metric("setup_s", fast(&setup_s[0]), "s"));
    outcome.push(metric(
        "records_per_s",
        records / fast(&collect_s[0]),
        "1/s",
    ));
    outcome.push(metric(
        "records_per_s_1t",
        records / fast(&collect_s[1]),
        "1/s",
    ));
    outcome.push(metric("op_ms", fast(&passes) * 1e3, "ms"));
    outcome.push(metric("peak_rss_mb", crate::probe::peak_rss_mb(), "MB"));
    outcome
}

/// Number of k-shape restart spans the registry holds, wherever they nest.
fn kshape_restarts() -> u64 {
    mobilenet_obs::snapshot()
        .spans
        .iter()
        .filter(|(path, _)| path.ends_with("kshape_restart"))
        .map(|(_, s)| s.count)
        .sum()
}

/// The traced run: untraced and traced passes alternate; the traced ones
/// give the per-layer medians, the two medians the tracing overhead.
pub fn traced(args: &Args, threads: usize) -> (Outcome, f64) {
    const PAIRS: usize = 5;
    mobilenet_obs::set_enabled(Some(false));
    let (study, _) = set_up(args.seed, threads);
    let mut outcome = Outcome::default();
    let (serial, _) = pass(&study, 1);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut layers: [Vec<f64>; 5] = Default::default();
    let mut restarts = 0;
    for _ in 0..PAIRS {
        let t = Instant::now();
        let (digest, _) = pass(&study, threads);
        plain.push(t.elapsed().as_secs_f64());
        outcome.record(digest == serial);

        mobilenet_obs::set_enabled(Some(true));
        mobilenet_obs::reset();
        let t = Instant::now();
        let (digest, times) = pass(&study, threads);
        let wall = t.elapsed().as_secs_f64();
        restarts = kshape_restarts();
        mobilenet_obs::set_enabled(Some(false));
        outcome.record(digest == serial);
        traced.push(wall);
        for (samples, time) in layers.iter_mut().zip(times) {
            samples.push(time.as_secs_f64());
        }
    }
    let table = LayerTable {
        rows: LAYERS
            .iter()
            .zip(&layers)
            .map(|(name, s)| (name.to_string(), median(s).unwrap_or(0.0)))
            .collect(),
        wall_s: median(&traced).unwrap_or(0.0),
    };
    print!(
        "{}",
        table.render("analysis_suite layers per pass (medians)")
    );
    if !table.sums_to_wall() {
        outcome.errors.push(format!(
            "analysis_suite layer table sums to {:.1}% of its traced wall time",
            100.0 * table.sum_frac()
        ));
    }
    if outcome.failed > 0 {
        outcome
            .errors
            .push("an analysis pass differs from the 1-thread digest".into());
    }
    for (name, value) in table
        .rows
        .iter()
        .filter(|(name, _)| name.starts_with("core."))
    {
        outcome.push(metric(name.clone(), *value, "s"));
    }
    outcome.push(metric("cluster.kshape_restarts", restarts as f64, "count"));
    (
        outcome,
        table.wall_s / median(&plain).unwrap_or(f64::NAN) - 1.0,
    )
}
