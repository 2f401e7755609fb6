//! Regenerates every table and figure of the paper.
//!
//! ```text
//! figures [--scale small|medium|france|national] [--seed N] [--out DIR] [--expected]
//!         [--threads N] [--obs FILE]
//! ```
//!
//! Writes one CSV (or PGM/text) file per figure under `DIR` (default
//! `out/`) and prints a summary comparing the key numbers against the
//! paper's. The experiment index in `DESIGN.md` maps each output file to
//! the corresponding figure.
//!
//! Observability is always collected (stage timings are read from the
//! span registry rather than ad-hoc stopwatches); `--obs FILE` (or a path
//! in `MOBILENET_OBS`) additionally writes the full snapshot as JSON.

use std::fs;
use std::path::{Path, PathBuf};

use mobilenet_core::peaks::{detect_peaks, PeakConfig};
use mobilenet_core::ranking::{service_ranking, uplink_fraction, zipf_ranking};
use mobilenet_core::report;
use mobilenet_core::spatial::{concentration, spatial_correlation};
use mobilenet_core::temporal::{clustering_sweep, Algorithm};
use mobilenet_core::topical::topical_profiles;
use mobilenet_core::urbanization::{mean_temporal_r2, mean_volume_ratios, urbanization_profiles};
use mobilenet_core::{maps, maps::coverage_map, Pipeline, Scale};
use mobilenet_traffic::Direction;

struct Args {
    scale: Scale,
    seed: u64,
    out: PathBuf,
    expected: bool,
    threads: Option<usize>,
    obs: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: Scale::Medium,
        seed: mobilenet_bench::SEED,
        out: PathBuf::from("out"),
        expected: false,
        threads: None,
        obs: None,
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
            "--expected" => args.expected = true,
            "--threads" => {
                let n: usize = it
                    .next()
                    .expect("--threads needs a value")
                    .parse()
                    .expect("--threads must be a positive integer");
                assert!(n >= 1, "--threads must be at least 1");
                args.threads = Some(n);
            }
            "--obs" => args.obs = Some(PathBuf::from(it.next().expect("--obs needs a value"))),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn write(path: &Path, contents: &str) {
    fs::write(path, contents).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("  wrote {}", path.display());
}

fn main() {
    let args = parse_args();
    fs::create_dir_all(&args.out).expect("creating output directory");

    let mut builder = Pipeline::builder()
        .scale(args.scale)
        .seed(args.seed)
        .obs(true);
    if args.expected {
        builder = builder.expected();
    }
    if let Some(n) = args.threads {
        builder = builder.threads(n);
    }
    let threads = args.threads.unwrap_or_else(mobilenet_par::current_threads);
    println!(
        "generating {} study (seed {}, {} worker thread{})...",
        args.scale,
        args.seed,
        threads,
        if threads == 1 { "" } else { "s" }
    );
    let run = builder.run().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    // The generation stopwatch is the obs span the pipeline itself
    // recorded — one timing source of truth across every binary.
    let gen_s = run
        .obs_snapshot()
        .span("generate")
        .map(|s| s.total_ns as f64 / 1e9)
        .unwrap_or(0.0);
    println!("  done in {gen_s:.1}s");
    let study = run.into_study();

    // Overview (§3 headline numbers).
    write(
        &args.out.join("overview.txt"),
        &report::overview_text(&study),
    );

    // Figure 2 — Zipf ranking.
    let fig2 = zipf_ranking(&study);
    write(
        &args.out.join("fig2_zipf_ranking.csv"),
        &report::zipf_csv(&fig2),
    );
    if let (Some(dl), Some(ul)) = (&fig2.dl_fit, &fig2.ul_fit) {
        println!(
            "fig2: zipf exponents dl {:.2} (paper 1.69), ul {:.2} (paper 1.55), span {:.1} orders (paper ~10)",
            dl.exponent, ul.exponent, fig2.dl_span_orders
        );
    }

    // Figure 3 — service ranking by share.
    for dir in Direction::BOTH {
        let r = service_ranking(&study, dir);
        let name = format!("fig3_ranking_{}.csv", short(dir));
        write(&args.out.join(name), &report::ranking_csv(&r));
        if dir == Direction::Down {
            let video = r
                .category_shares
                .get("video streaming")
                .copied()
                .unwrap_or(0.0);
            println!(
                "fig3: video {:.0}% of downlink (paper >46%), top-20 {:.0}% of total (paper >60%), unclassified {:.0}% (paper 12%)",
                video * 100.0,
                r.head_share * 100.0,
                r.unclassified_share * 100.0
            );
        }
    }
    println!(
        "fig3: uplink fraction of load {:.3} (paper <1/20 = 0.05)",
        uplink_fraction(&study)
    );

    // Figure 4 — sample series + smoothed z-score illustration.
    let peak_cfg = PeakConfig::paper();
    for name in ["Facebook", "SnapChat", "Netflix", "Apple Store"] {
        let idx = study
            .catalog()
            .head()
            .iter()
            .position(|s| s.name == name)
            .expect("sample service exists");
        let series = study
            .dataset()
            .national_series(Direction::Down, idx)
            .to_vec();
        let det = detect_peaks(&series, &peak_cfg);
        let file = format!(
            "fig4_timeseries_{}.csv",
            name.to_lowercase().replace(' ', "_")
        );
        write(
            &args.out.join(file),
            &report::peaks_csv(name, &series, &det, peak_cfg.threshold),
        );
    }

    // Figure 5 — clustering quality sweep.
    for dir in Direction::BOTH {
        let sweep = clustering_sweep(&study, dir, Algorithm::KShape, 5);
        let name = format!("fig5_kshape_indices_{}.csv", short(dir));
        write(&args.out.join(name), &report::sweep_csv(&sweep));
        println!(
            "fig5 {}: best k by DB {}, by silhouette {}, silhouette degrades on {:.0}% of steps (paper: no clear winner)",
            short(dir),
            sweep.best_k_by_db(),
            sweep.best_k_by_silhouette(),
            sweep.silhouette_decreasing_fraction() * 100.0
        );
    }

    // Figures 6 & 7 — topical peaks and intensities.
    let profiles = topical_profiles(&study, Direction::Down, &peak_cfg);
    write(
        &args.out.join("fig6_topical_peaks.csv"),
        &report::topical_matrix_csv(&profiles),
    );
    write(
        &args.out.join("fig7_peak_intensity.csv"),
        &report::intensity_csv(&profiles),
    );
    let midday = profiles
        .iter()
        .filter(|p| p.has_peak[mobilenet_traffic::TopicalTime::Midday.index()])
        .count();
    println!("fig6: {midday}/20 services peak at weekday midday (paper: almost all)");

    // Figure 8 — Twitter concentration.
    let twitter = study
        .catalog()
        .head()
        .iter()
        .position(|s| s.name == "Twitter")
        .expect("Twitter in catalog");
    let conc = concentration(&study, twitter);
    // At national scale the raw curves hold one point per commune-rank
    // (~36k per section); the export reservoir-samples each section down
    // to a plot-sized, seed-deterministic subset. Smaller scales fall
    // under the cap and export every point, as before.
    write(
        &args.out.join("fig8_twitter_concentration.csv"),
        &report::concentration_csv_sampled(&conc, 4096, args.seed),
    );
    println!(
        "fig8: top 1% of communes carry {:.0}% (paper >50%), top 10% carry {:.0}% (paper >90%) of Twitter traffic",
        conc.top1_share * 100.0,
        conc.top10_share * 100.0
    );

    // Figure 9 — maps.
    let netflix = study
        .catalog()
        .head()
        .iter()
        .position(|s| s.name == "Netflix")
        .expect("Netflix in catalog");
    let width = 120;
    let twitter_map = maps::per_user_map(&study, Direction::Down, twitter, width);
    write(
        &args.out.join("fig9_map_twitter.pgm"),
        &twitter_map.to_pgm(),
    );
    write(
        &args.out.join("fig9_map_twitter.txt"),
        &twitter_map.to_ascii(),
    );
    let netflix_map = maps::per_user_map(&study, Direction::Down, netflix, width);
    write(
        &args.out.join("fig9_map_netflix.pgm"),
        &netflix_map.to_pgm(),
    );
    write(
        &args.out.join("fig9_map_netflix.txt"),
        &netflix_map.to_ascii(),
    );
    let cover = coverage_map(study.country(), width);
    write(&args.out.join("fig9_map_coverage.pgm"), &cover.to_pgm());

    // Figure 10 — spatial correlation.
    for dir in Direction::BOTH {
        let corr = spatial_correlation(&study, dir);
        let name = format!("fig10_spatial_r2_{}.csv", short(dir));
        write(&args.out.join(name), &report::correlation_csv(&corr));
        println!(
            "fig10 {}: mean pairwise r² {:.2} (paper {:.2}); lowest-correlation services: {}",
            short(dir),
            corr.mean_r2,
            if dir == Direction::Down { 0.60 } else { 0.53 },
            corr.outlier_order()[..3]
                .iter()
                .map(|&i| corr.names[i])
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    // Figure 11 — urbanization.
    let urb = urbanization_profiles(&study, Direction::Down);
    write(
        &args.out.join("fig11_urbanization.csv"),
        &report::urbanization_csv(&urb),
    );
    let ratios = mean_volume_ratios(&urb);
    let r2s = mean_temporal_r2(&urb);
    println!(
        "fig11 top: mean volume ratios semi-urban {:.2} (paper ≈1), rural {:.2} (paper ≈0.5), tgv {:.2} (paper ≥2)",
        ratios[1], ratios[2], ratios[3]
    );
    println!(
        "fig11 bottom: mean temporal r² urban {:.2} / semi {:.2} / rural {:.2} vs tgv {:.2} (paper: tgv stands apart)",
        r2s[0], r2s[1], r2s[2], r2s[3]
    );

    // Extensions beyond the paper's evaluation.
    let forecast = mobilenet_core::forecast::forecast_report(&study, Direction::Down, 120);
    write(
        &args.out.join("ext_forecast.csv"),
        &report::forecast_csv(&forecast),
    );
    let median_smape = {
        let mut v: Vec<f64> = forecast.iter().map(|f| f.holt_winters.smape).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    println!(
        "ext: Holt-Winters 2-day-ahead median sMAPE {:.2} (service traffic is highly predictable, cf. [15])",
        median_smape
    );
    let twitter_moran = mobilenet_core::spatial::morans_i(
        study.country(),
        &study
            .dataset()
            .per_user_commune_vector(Direction::Down, twitter),
        6,
    );
    println!(
        "ext: Moran's I of the per-user Twitter map {:.2} (spatially clustered demand, Figure 9)",
        twitter_moran
    );

    // The programmatic paper-vs-measured verdict table.
    let claims = mobilenet_core::verdict::evaluate(&study);
    let table = mobilenet_core::verdict::verdict_table(&claims);
    write(&args.out.join("verdict.txt"), &table);
    println!("\n{table}");

    // Full observability report (generation + every analysis span above).
    if let Some(path) = args.obs.clone().or_else(mobilenet_obs::env_output_path) {
        mobilenet_obs::write_json(&path)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("  wrote {}", path.display());
    }

    println!("all figures written to {}", args.out.display());
}

fn short(dir: Direction) -> &'static str {
    match dir {
        Direction::Down => "dl",
        Direction::Up => "ul",
    }
}
