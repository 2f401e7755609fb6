//! Fault-injected capture across the whole stack.
//!
//! The two contracts this file pins:
//!
//! * the **identity plan** ([`FaultPlan::none`]) is bit-identical to the
//!   historical fault-free pipeline at any thread count — fault support
//!   must cost nothing when no fault is configured;
//! * a **degraded plan** completes without panicking at any thread count,
//!   produces the same bytes at 1/2/8 workers, and reports every fault
//!   event through the collection stats and the observability layer.

use mobilenet::par::set_thread_override;
use mobilenet::traffic::Direction;
use mobilenet::{FaultPlan, Pipeline, Scale, DEFAULT_SEED};

fn dataset_csv(faults: FaultPlan) -> String {
    Pipeline::builder()
        .scale(Scale::Small)
        .seed(DEFAULT_SEED)
        .faults(faults)
        .run()
        .expect("valid configuration")
        .into_study()
        .dataset()
        .to_csv()
}

#[test]
fn zero_fault_plan_is_bit_identical_at_1_2_and_8_threads() {
    // All thread counts run inside one #[test] so the process-global
    // override is never raced by a sibling test.
    set_thread_override(Some(1));
    let plain = dataset_csv(FaultPlan::none());
    assert!(!plain.is_empty());

    for threads in [1usize, 2, 8] {
        set_thread_override(Some(threads));
        let zeroed = dataset_csv(FaultPlan::none());
        assert!(
            zeroed == plain,
            "identity fault plan changed the dataset at {threads} threads"
        );
    }
    set_thread_override(None);
}

#[test]
fn degraded_plan_is_deterministic_across_thread_counts() {
    set_thread_override(Some(1));
    let reference = dataset_csv(FaultPlan::degraded(3));
    assert!(!reference.is_empty());
    // Degradation must actually change the output, not just the counters.
    assert!(
        reference != dataset_csv(FaultPlan::none()),
        "degraded plan produced the fault-free dataset"
    );

    for threads in [2usize, 8] {
        set_thread_override(Some(threads));
        let run = dataset_csv(FaultPlan::degraded(3));
        assert!(
            run == reference,
            "degraded dataset differs at {threads} threads"
        );
    }
    set_thread_override(None);
}

#[test]
fn faulted_run_reports_counters_through_stats_and_obs() {
    mobilenet::obs::reset();
    let run = Pipeline::builder()
        .scale(Scale::Small)
        .seed(7)
        .obs(true)
        .faults(FaultPlan::degraded(7))
        .run()
        .unwrap();

    let stats = run
        .study()
        .collection_stats()
        .expect("measured run has stats");
    assert!(
        stats.faults.any(),
        "degraded plan must register fault events"
    );
    assert!(
        stats.faults.lost_outage > 0,
        "Gn outage window must drop records"
    );
    assert!(stats.faults.lost_records > 0);
    assert!(stats.faults.duplicated_records > 0);
    assert!(
        run.study().dataset().total(Direction::Down) > 0.0,
        "degraded ≠ empty"
    );

    let snapshot = run.obs_snapshot();
    for name in [
        "netsim.faults.lost_outage",
        "netsim.faults.lost_records",
        "netsim.faults.duplicated_records",
        "netsim.faults.truncated_records",
        "netsim.faults.skewed_records",
    ] {
        assert!(
            snapshot.counter(name).is_some(),
            "missing obs counter {name}"
        );
    }
    assert_eq!(
        snapshot.counter("netsim.faults.lost_outage"),
        Some(stats.faults.lost_outage)
    );
    mobilenet::obs::set_enabled(Some(false));
    mobilenet::obs::reset();
}
