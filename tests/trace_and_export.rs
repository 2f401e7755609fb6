//! Persistence integration: dataset export/import, and probe capture
//! replayed from memory, across the whole stack.

use std::sync::{Arc, OnceLock};

use mobilenet::core::ranking::service_ranking;
use mobilenet::core::spatial::spatial_correlation;
use mobilenet::core::study::Study;
use mobilenet::geo::{Country, CountryConfig};
use mobilenet::netsim::{
    collect_with_options, ingest, observe_with_options, CollectOptions, NetsimConfig, SliceSource,
};
use mobilenet::traffic::{DemandModel, Direction, ServiceCatalog, TrafficConfig, TrafficDataset};
use mobilenet::{Pipeline, Scale};

fn small(seed: u64) -> Study {
    Pipeline::builder()
        .scale(Scale::Small)
        .seed(seed)
        .run()
        .unwrap()
        .into_study()
}

fn study() -> &'static Study {
    static S: OnceLock<Study> = OnceLock::new();
    S.get_or_init(|| small(555))
}

#[test]
fn exported_dataset_supports_identical_analysis() {
    let s = study();
    let csv = s.dataset().to_csv();
    let restored = TrafficDataset::from_csv(&csv).expect("parse exported dataset");

    // Rankings computed from the restored tables are identical.
    let before = service_ranking(s, Direction::Down);
    for (i, share) in before.services.iter().enumerate() {
        let svc = share.service;
        let a = s.dataset().national_weekly(Direction::Down, svc);
        let b = restored.national_weekly(Direction::Down, svc);
        assert_eq!(a, b, "rank {i}");
    }
    // Per-user vectors too (users + classes round-trip).
    for svc in [0usize, 7, 19] {
        assert_eq!(
            s.dataset().per_user_commune_vector(Direction::Up, svc),
            restored.per_user_commune_vector(Direction::Up, svc)
        );
    }
}

#[test]
fn probe_trace_capture_and_replay_match_the_pipeline() {
    let country = Arc::new(Country::generate(&CountryConfig::small(), 4));
    let catalog = Arc::new(ServiceCatalog::standard(30));
    let model = DemandModel::new(country, catalog, TrafficConfig::fast(), 21);
    let netsim = NetsimConfig::standard();

    let direct = collect_with_options(&model, &netsim, &CollectOptions::default(), 9)
        .expect("standard config is valid");

    let mut records = Vec::new();
    let capture = observe_with_options(&model, &netsim, &CollectOptions::default(), 9, |r| {
        records.push(r.clone())
    })
    .expect("standard config is valid");
    assert_eq!(capture.emitted as usize, records.len());
    assert_eq!(capture.sessions, direct.stats.sessions);

    let replayed = ingest(
        &SliceSource::new(&records),
        &model,
        &CollectOptions::default(),
    )
    .expect("default options are valid")
    .dataset;

    for dir in Direction::BOTH {
        assert!(
            (direct.dataset.total_classified(dir) - replayed.total_classified(dir)).abs() < 1e-6
        );
        assert!((direct.dataset.unclassified(dir) - replayed.unclassified(dir)).abs() < 1e-6);
    }
}

#[test]
fn export_is_stable_across_identical_runs() {
    let a = small(77).dataset().to_csv();
    let b = small(77).dataset().to_csv();
    assert_eq!(a, b, "export must be byte-identical for identical seeds");
}

#[test]
fn analyses_on_restored_data_keep_their_findings() {
    // The whole point of export: someone without the generator can load
    // the CSV and reproduce the spatial-correlation finding. Simulate that
    // by comparing the correlation run on original vs restored tables.
    let s = study();
    let restored = TrafficDataset::from_csv(&s.dataset().to_csv()).unwrap();
    let corr_before = spatial_correlation(s, Direction::Down).mean_r2;
    // Hand-rolled mean pairwise r² on the restored tables.
    let n = restored.n_services();
    let keep: Vec<usize> = (0..restored.n_communes())
        .filter(|&c| restored.commune_users()[c] > 0.0)
        .collect();
    let vectors: Vec<Vec<f64>> = (0..n)
        .map(|svc| {
            let v = restored.per_user_commune_vector(Direction::Down, svc);
            keep.iter().map(|&c| v[c]).collect()
        })
        .collect();
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            sum += mobilenet::timeseries::stats::r_squared(&vectors[i], &vectors[j]);
            count += 1;
        }
    }
    let corr_after = sum / count as f64;
    assert!((corr_before - corr_after).abs() < 1e-12);
}
