//! Determinism: the entire stack — geography, demand, sessions, probes,
//! classification, analysis — must be reproducible from `(config, seed)`.

use mobilenet::core::peaks::PeakConfig;
use mobilenet::core::ranking::zipf_ranking;
use mobilenet::core::report;
use mobilenet::core::study::Study;
use mobilenet::core::temporal::{clustering_sweep, Algorithm};
use mobilenet::core::topical::topical_profiles;
use mobilenet::traffic::Direction;
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
fn identical_seeds_give_identical_figures() {
    let a = small(77);
    let b = small(77);

    // Figure 2 byte-for-byte.
    assert_eq!(
        report::zipf_csv(&zipf_ranking(&a)),
        report::zipf_csv(&zipf_ranking(&b))
    );
    // Figure 6 byte-for-byte.
    let pa = topical_profiles(&a, Direction::Down, &PeakConfig::paper());
    let pb = topical_profiles(&b, Direction::Down, &PeakConfig::paper());
    assert_eq!(
        report::topical_matrix_csv(&pa),
        report::topical_matrix_csv(&pb)
    );
    // Figure 5 byte-for-byte (k-shape restarts are seeded).
    let sa = clustering_sweep(&a, Direction::Down, Algorithm::KShape, 2);
    let sb = clustering_sweep(&b, Direction::Down, Algorithm::KShape, 2);
    assert_eq!(report::sweep_csv(&sa), report::sweep_csv(&sb));
    // Collection diagnostics too.
    let (sa, sb) = (a.collection_stats().unwrap(), b.collection_stats().unwrap());
    assert_eq!(sa.sessions, sb.sessions);
    assert_eq!(sa.misassigned_sessions, sb.misassigned_sessions);
    assert_eq!(sa.stale_fixes, sb.stale_fixes);
}

#[test]
fn different_seeds_give_different_data_but_the_same_findings() {
    let a = small(1);
    let b = small(2);

    // The raw series differ…
    assert_ne!(
        a.dataset().national_series(Direction::Down, 0),
        b.dataset().national_series(Direction::Down, 0)
    );

    // …but the structural findings are seed-independent.
    let za = zipf_ranking(&a).dl_fit.unwrap();
    let zb = zipf_ranking(&b).dl_fit.unwrap();
    assert!((za.exponent - zb.exponent).abs() < 0.3);

    let ra = mobilenet::core::ranking::service_ranking(&a, Direction::Down);
    let rb = mobilenet::core::ranking::service_ranking(&b, Direction::Down);
    assert_eq!(
        ra.services[0].name, rb.services[0].name,
        "top service is stable"
    );
}
