//! Capture and export integration: probe records captured in memory and
//! replayed through the streaming engine, and the dataset export, across
//! the whole stack.

use std::sync::Arc;

use mobilenet::core::study::Study;
use mobilenet::geo::{Country, CountryConfig};
use mobilenet::netsim::{
    collect_with_options, ingest, observe_with_options, CollectOptions, NetsimConfig, SliceSource,
};
use mobilenet::traffic::{DemandModel, Direction, ServiceCatalog, TrafficConfig};
use mobilenet::{Pipeline, Scale};

fn small(seed: u64) -> Study {
    Pipeline::builder()
        .scale(Scale::Small)
        .seed(seed)
        .run()
        .unwrap()
        .into_study()
}

#[test]
fn captured_records_replay_to_the_collected_totals() {
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
