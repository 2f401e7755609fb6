//! The observability contract, checked across the whole stack:
//!
//! 1. Instrumentation is invisible — an instrumented run produces a
//!    bit-identical dataset to an uninstrumented one.
//! 2. Counts are exact — counters, `f64` counters and histograms are
//!    identical at 1, 2 and 8 worker threads.
//! 3. The probes are actually wired — the expected span paths and
//!    counters show up with sensible values.

use mobilenet::core::spatial::spatial_correlation;
use mobilenet::obs;
use mobilenet::par::set_thread_override;
use mobilenet::traffic::Direction;
use mobilenet::{Pipeline, Scale};

/// One full pipeline run plus one analysis, returning the exported
/// dataset CSV and the observability snapshot.
fn run(threads: usize, observing: bool) -> (String, obs::Snapshot) {
    set_thread_override(Some(threads));
    obs::set_enabled(Some(observing));
    obs::reset();
    let study = Pipeline::builder()
        .scale(Scale::Small)
        .seed(314)
        .run()
        .unwrap()
        .into_study();
    // One parallel analysis so the `core.*` probes are exercised too.
    let corr = spatial_correlation(&study, Direction::Down);
    assert!(corr.mean_r2.is_finite());
    (study.dataset().to_csv(), obs::snapshot())
}

#[test]
fn instrumentation_is_invisible_and_count_exact() {
    // Everything runs inside one #[test]: the thread override and the obs
    // enable switch are both process-global.
    let (clean_csv, clean_snap) = run(2, false);
    assert!(clean_snap.is_empty(), "disabled obs must record nothing");

    let (csv, reference) = run(2, true);
    assert_eq!(
        csv, clean_csv,
        "instrumented run diverged from uninstrumented run"
    );

    // Count-exactness across worker counts.
    for threads in [1usize, 8] {
        let (csv, snap) = run(threads, true);
        assert_eq!(csv, clean_csv, "dataset differs at {threads} threads");
        assert_eq!(
            snap.counts_fingerprint(),
            reference.counts_fingerprint(),
            "obs counters differ at {threads} threads"
        );
    }

    // The probes the workspace promises are all present.
    for span in [
        "generate",
        "generate/country",
        "generate/demand_model",
        "generate/collect",
        "generate/collect/capture",
        "generate/collect/shards",
        "generate/collect/merge",
        "spatial_r2",
    ] {
        assert!(reference.span(span).is_some(), "span {span:?} missing");
    }
    let sessions = reference
        .counter("traffic.sessions")
        .expect("traffic.sessions");
    assert!(sessions > 1_000);
    // Every generated session passes through the measurement pipeline.
    assert_eq!(reference.counter("netsim.sessions"), Some(sessions));
    assert!(reference.fcounter("netsim.classified_mb").unwrap_or(0.0) > 0.0);
    // 20 head services → 190 unordered pairs in the r² matrix.
    assert_eq!(reference.counter("core.r2_pairs"), Some(190));
    // Total parallel items are scheduling-independent.
    assert_eq!(
        reference.counter("par.items"),
        reference.counter("par.worker_items")
    );
    let uli = reference
        .histogram("netsim.uli_error_km")
        .expect("ULI histogram");
    assert!(uli.count > 0);

    set_thread_override(None);
    obs::set_enabled(None);
}
