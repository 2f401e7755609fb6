//! Emits `BENCH_baseline.json`: wall-clock timings of the pipeline's hot
//! stages, serial (1 thread) versus parallel (all configured workers).
//!
//! ```text
//! bench_baseline [--scale small|medium|france|national] [--seed N] [--out FILE]
//!                [--threads N] [--compare FILE]
//! ```
//!
//! At `--scale national` (~10⁸ sessions) the binary runs the
//! streaming-ingest benchmark only: the analysis-stage passes and the
//! record-replay capture both require (or build) state proportional to
//! the record count, and the point of the
//! national tier is that the full record set is never resident. The
//! emitted JSON then has an empty `stages` array and a single
//! `streaming` ingest row (records/s + peak resident records), and
//! `--compare` gates throughput only.
//!
//! `--compare FILE` reads a previously committed baseline and exits
//! non-zero if any stage's serial time regressed by more than 25%
//! relative *and* 50 ms absolute (the absolute floor keeps
//! microsecond-scale stages from flaking the gate). CI runs this against
//! the committed per-PR baseline.
//!
//! Every stage is the same computation the `figures` binary runs; the
//! parallel pass must produce bit-identical results (asserted here via
//! the dataset CSV) *and* an identical observability fingerprint, so the
//! timings compare only scheduling. Timings are read from the
//! `mobilenet-obs` span registry — the same probes every binary reports —
//! and the parallel pass's full snapshot is embedded under the `"obs"`
//! key for per-stage drill-down.

use std::fs;
use std::path::PathBuf;

use mobilenet_core::peaks::PeakConfig;
use mobilenet_core::spatial::spatial_correlation;
use mobilenet_core::study::Study;
use mobilenet_core::temporal::{clustering_sweep, Algorithm};
use mobilenet_core::topical::topical_profiles;
use mobilenet_core::Scale;
use mobilenet_geo::Country;
use mobilenet_netsim::{
    collect_with_options, observe_with_options, CollectOptions, IngestStats, SliceSource,
};
use mobilenet_traffic::{DemandModel, Direction, ServiceCatalog};
use std::sync::Arc;

/// Stage span names, in pipeline order. Each pass opens exactly these
/// five root spans, so the snapshot is the timing source of truth.
const STAGES: [&str; 5] = ["generation", "aggregation", "pairwise_r2", "kshape_sweep", "peaks"];

struct Args {
    scale: Scale,
    seed: u64,
    out: PathBuf,
    threads: usize,
    compare: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: Scale::Medium,
        seed: mobilenet_bench::SEED,
        out: PathBuf::from("BENCH_baseline.json"),
        threads: mobilenet_par::current_threads(),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let name = it.next().expect("--scale needs a value");
                args.scale = name.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed must be an integer")
            }
            "--out" => args.out = PathBuf::from(it.next().expect("--out needs a value")),
            "--compare" => {
                args.compare =
                    Some(PathBuf::from(it.next().expect("--compare needs a value")))
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .expect("--threads needs a value")
                    .parse()
                    .expect("--threads must be a positive integer");
                assert!(args.threads >= 1, "--threads must be at least 1");
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Seconds spent in each stage span, in [`STAGES`] order.
fn stage_seconds(snap: &mobilenet_obs::Snapshot) -> [f64; 5] {
    let mut out = [0.0; 5];
    for (i, name) in STAGES.iter().enumerate() {
        out[i] = snap
            .span(name)
            .map(|s| s.total_ns as f64 / 1e9)
            .unwrap_or_else(|| panic!("stage span {name:?} missing from snapshot"));
    }
    out
}

fn main() {
    let args = parse_args();
    let config = args.scale.config();
    let national = args.scale == Scale::National;

    println!(
        "bench_baseline: {} scale, seed {}, serial vs {} threads",
        args.scale, args.seed, args.threads
    );
    let country = Arc::new(Country::generate(&config.country, args.seed));
    let catalog = Arc::new(ServiceCatalog::standard(config.traffic.n_tail_services));
    let model = DemandModel::new(
        country.clone(),
        catalog.clone(),
        config.traffic.clone(),
        args.seed,
    );

    let mut serial_s = [0.0f64; 5];
    let mut parallel_s = [0.0f64; 5];
    let mut digests: Vec<String> = Vec::new();
    let mut fingerprints: Vec<String> = Vec::new();
    let mut parallel_obs_json = String::new();

    // National runs skip the analysis-stage passes entirely: each would
    // hold a fully materialized study, and the tier's contract is that
    // nothing proportional to the record count is ever resident.
    let stage_passes: Vec<(&str, usize)> =
        if national { Vec::new() } else { vec![("serial", 1), ("parallel", args.threads)] };
    for (pass, threads) in stage_passes {
        mobilenet_par::set_thread_override(Some(threads));
        mobilenet_obs::set_enabled(Some(true));
        mobilenet_obs::reset();
        println!("-- {pass} pass ({threads} thread{})", if threads == 1 { "" } else { "s" });

        // Stage 1: demand evaluation (noise-free expected cube, parallel
        // over services).
        let expected = {
            let _s = mobilenet_obs::span("generation");
            model.expected_dataset()
        };

        // Stage 2: full measurement pipeline (sessions -> probes -> DPI ->
        // aggregation, parallel over per-service shards).
        let output = {
            let _s = mobilenet_obs::span("aggregation");
            collect_with_options(&model, &config.netsim, &CollectOptions::default(), args.seed)
                .expect("scale configs are valid")
        };
        let study = Study::from_parts(model.clone(), output);

        // Stage 3: Figure 10 pairwise r^2 matrix (parallel over service
        // pairs).
        let corr = {
            let _s = mobilenet_obs::span("pairwise_r2");
            spatial_correlation(&study, Direction::Down)
        };

        // Stage 4: Figure 5 k-shape sweep (parallel over k).
        let sweep = {
            let _s = mobilenet_obs::span("kshape_sweep");
            clustering_sweep(&study, Direction::Down, Algorithm::KShape, 5)
        };

        // Stage 5: Figures 6-7 peak profiling (parallel over services).
        let profiles = {
            let _s = mobilenet_obs::span("peaks");
            topical_profiles(&study, Direction::Down, &PeakConfig::paper())
        };

        // Stage timings come from the span registry — the exact probes
        // every other binary reports, one timing source of truth.
        let snap = mobilenet_obs::snapshot();
        let secs = stage_seconds(&snap);
        for (name, s) in STAGES.iter().zip(secs.iter()) {
            println!("   {name:<12} {s:>8.2}s");
        }
        if pass == "serial" {
            serial_s = secs;
        } else {
            parallel_s = secs;
            parallel_obs_json = snap.to_json();
        }
        fingerprints.push(snap.counts_fingerprint());

        // Cheap digest of every stage's output; serial and parallel passes
        // must agree exactly.
        let digest = format!(
            "{:x}-{}-{}-{}-{}",
            expected.national_series(Direction::Down, 0)[0].to_bits()
                ^ study.dataset().national_series(Direction::Down, 0)[0].to_bits(),
            corr.mean_r2.to_bits(),
            sweep.best_k_by_silhouette(),
            profiles.iter().filter(|p| p.has_peak.iter().any(|&b| b)).count(),
            study.dataset().to_csv().len(),
        );
        digests.push(digest);
    }
    // Streaming collection with the default bounded chunk, at the
    // parallel thread count; peak resident records shows the memory bound
    // doing its job.
    mobilenet_par::set_thread_override(Some(args.threads));
    if national {
        println!("-- national: streaming ingest only (stage passes and replay capture skipped)");
        mobilenet_obs::set_enabled(Some(true));
        mobilenet_obs::reset();
    }
    println!("-- streaming ingestion ({} threads)", args.threads);
    let mut ingest_entries: Vec<String> = Vec::new();
    let mut ingest_rps: Vec<(String, f64)> = Vec::new();
    let mut record_ingest = |mode: &str, secs: f64, ingest: &IngestStats| {
        let throughput = if secs > 0.0 { ingest.records as f64 / secs } else { 0.0 };
        println!(
            "   {mode:<14} {secs:>8.2}s  {throughput:>12.0} rec/s  peak resident {:>10}",
            ingest.peak_resident_records
        );
        ingest_entries.push(format!(
            "    {{ \"mode\": \"{mode}\", \"seconds\": {secs:.4}, \"records\": {}, \
             \"records_per_s\": {throughput:.0}, \"peak_resident_records\": {}, \"workers\": {} }}",
            ingest.records, ingest.peak_resident_records, ingest.workers,
        ));
        ingest_rps.push((mode.to_string(), throughput));
    };
    let t0 = std::time::Instant::now();
    let out = collect_with_options(&model, &config.netsim, &CollectOptions::default(), args.seed)
        .expect("scale configs are valid");
    record_ingest("streaming", t0.elapsed().as_secs_f64(), &out.ingest);

    // Pure record-aggregation replay: capture the record stream once,
    // then time only the columnar fold (no session synthesis, no probe
    // RNG). Synthesis costs hundreds of nanoseconds per record and would
    // otherwise drown the aggregation signal.
    // The replay benchmark captures every record in memory by design
    // (it isolates the fold from synthesis), so it only runs at scales
    // where the whole record set fits comfortably.
    if !national {
        let mut captured: Vec<mobilenet_netsim::SessionRecord> = Vec::new();
        observe_with_options(&model, &config.netsim, &CollectOptions::default(), args.seed, |r| {
            captured.push(r.clone())
        })
        .expect("scale configs are valid");
        let options = CollectOptions::default();
        let source = SliceSource::new(&captured);
        // One warm-up pass so allocator and caches settle, then the timed
        // pass.
        mobilenet_netsim::ingest(&source, &model, &options).expect("replay options are valid");
        let t0 = std::time::Instant::now();
        let out =
            mobilenet_netsim::ingest(&source, &model, &options).expect("replay options are valid");
        record_ingest("replay_batched", t0.elapsed().as_secs_f64(), &out.ingest);
    }
    let ingest_json = format!("{}\n", ingest_entries.join(",\n"));
    if national {
        // No analysis passes ran, so the ingest run's snapshot is the
        // observability payload.
        parallel_obs_json = mobilenet_obs::snapshot().to_json();
    }
    mobilenet_par::set_thread_override(None);
    mobilenet_obs::set_enabled(None);
    if !national {
        assert_eq!(
            digests[0], digests[1],
            "parallel pass diverged from serial pass — determinism bug"
        );
        assert_eq!(
            fingerprints[0], fingerprints[1],
            "obs counters diverged between serial and parallel passes — \
             a probe is recording scheduling-dependent counts"
        );
        println!("-- output digests and obs fingerprints match: {}", digests[0]);
    }

    let mut stages_json = String::new();
    if !national {
        for (i, name) in STAGES.iter().enumerate() {
            let speedup = if parallel_s[i] > 0.0 { serial_s[i] / parallel_s[i] } else { 0.0 };
            stages_json.push_str(&format!(
                "    {{ \"stage\": \"{name}\", \"serial_s\": {:.4}, \"parallel_s\": {:.4}, \"speedup\": {:.2} }}{}\n",
                serial_s[i],
                parallel_s[i],
                speedup,
                if i + 1 < STAGES.len() { "," } else { "" }
            ));
        }
    }
    let total_serial: f64 = serial_s.iter().sum();
    let total_parallel: f64 = parallel_s.iter().sum();
    // The parallel pass's full observability snapshot, re-indented to sit
    // as a nested object.
    let obs_nested = parallel_obs_json.trim_end().replace('\n', "\n  ");
    let json = format!(
        "{{\n  \"schema\": \"mobilenet-bench-baseline/v1\",\n  \"scale\": \"{}\",\n  \"seed\": {},\n  \"threads_serial\": 1,\n  \"threads_parallel\": {},\n  \"machine_parallelism\": {},\n  \"stages\": [\n{}  ],\n  \"ingest\": [\n{}  ],\n  \"total_serial_s\": {:.4},\n  \"total_parallel_s\": {:.4},\n  \"total_speedup\": {:.2},\n  \"obs\": {}\n}}\n",
        args.scale,
        args.seed,
        args.threads,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        stages_json,
        ingest_json,
        total_serial,
        total_parallel,
        if total_parallel > 0.0 { total_serial / total_parallel } else { 0.0 },
        obs_nested,
    );
    fs::write(&args.out, &json)
        .unwrap_or_else(|e| panic!("writing {}: {e}", args.out.display()));
    println!("baseline written to {}", args.out.display());

    if let Some(path) = &args.compare {
        let text = fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        // National baselines carry no stage timings — only the ingest
        // throughput side of the gate applies.
        if !national {
            let baseline = mobilenet_bench::parse_stage_baselines(&text)
                .unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
            let current: Vec<(String, f64)> = STAGES
                .iter()
                .zip(serial_s.iter())
                .map(|(name, s)| (name.to_string(), *s))
                .collect();
            println!("-- comparing serial timings against {}", path.display());
            for base in &baseline {
                let Some((_, cur)) = current.iter().find(|(n, _)| *n == base.stage) else {
                    println!("   {:<12} (not measured this run)", base.stage);
                    continue;
                };
                let ratio = if base.serial_s > 0.0 { cur / base.serial_s } else { 0.0 };
                println!(
                    "   {:<12} {:>8.4}s -> {:>8.4}s  ({:.2}x baseline)",
                    base.stage, base.serial_s, cur, ratio
                );
            }
            let regressions = mobilenet_bench::compare_stages(&baseline, &current);
            if regressions.is_empty() {
                println!("-- no stage regressed beyond the gate (>25% and >50ms)");
            } else {
                for r in &regressions {
                    eprintln!(
                        "REGRESSION: {} went {:.4}s -> {:.4}s ({:+.0}%)",
                        r.stage,
                        r.baseline_s,
                        r.current_s,
                        100.0 * (r.current_s - r.baseline_s) / r.baseline_s
                    );
                }
                std::process::exit(1);
            }
        }

        // Throughput side of the gate: ingestion modes must not lose more
        // than 25% of their baseline records/s.
        let ingest_baseline = mobilenet_bench::parse_ingest_baselines(&text)
            .unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
        println!("-- comparing ingestion throughput against {}", path.display());
        for base in &ingest_baseline {
            let Some((_, cur)) = ingest_rps.iter().find(|(n, _)| *n == base.mode) else {
                println!("   {:<14} (not measured this run)", base.mode);
                continue;
            };
            let ratio = if base.records_per_s > 0.0 { cur / base.records_per_s } else { 0.0 };
            println!(
                "   {:<14} {:>12.0} -> {:>12.0} rec/s  ({:.2}x baseline)",
                base.mode, base.records_per_s, cur, ratio
            );
        }
        let ingest_regressions =
            mobilenet_bench::compare_ingest(&ingest_baseline, &ingest_rps);
        if ingest_regressions.is_empty() {
            println!("-- no ingestion mode lost more than 25% throughput");
        } else {
            for r in &ingest_regressions {
                eprintln!(
                    "REGRESSION: ingest {} went {:.0} -> {:.0} rec/s ({:+.0}%)",
                    r.mode,
                    r.baseline_rps,
                    r.current_rps,
                    100.0 * (r.current_rps - r.baseline_rps) / r.baseline_rps
                );
            }
            std::process::exit(1);
        }
    }
}
