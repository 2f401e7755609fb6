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

use mobilenet::netsim::{read_trace_from, replay_from, trace_to_csv, CollectOptions};
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

    let stats = run.collection_stats().expect("measured run has stats");
    assert!(stats.faults.any(), "degraded plan must register fault events");
    assert!(stats.faults.lost_outage > 0, "Gn outage window must drop records");
    assert!(stats.faults.lost_records > 0);
    assert!(stats.faults.duplicated_records > 0);
    assert!(run.dataset().total(Direction::Down) > 0.0, "degraded ≠ empty");

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

#[test]
fn corrupted_trace_replays_through_the_lossy_path_end_to_end() {
    let run = Pipeline::builder().scale(Scale::Small).seed(5).run().unwrap();
    let model = run.study().model();

    let mut records = Vec::new();
    let netsim = mobilenet::netsim::NetsimConfig::standard();
    let options = CollectOptions::default();
    mobilenet::netsim::observe_with_options(model, &netsim, &options, 5, |r| {
        records.push(r.clone())
    })
    .unwrap();

    // Every 20th data line rots one of four ways: a torn write, a `NaN`
    // volume, an impossible hour-of-week, a garbled interface tag.
    let mut corrupted = String::new();
    for (i, line) in trace_to_csv(&records).lines().enumerate() {
        let mut fields: Vec<&str> = line.split(',').collect();
        if i > 0 && i % 20 == 0 {
            match i / 20 % 4 {
                0 => fields = vec![&line[..line.len() / 2]],
                1 => fields[2] = "NaN",
                2 => fields[1] = "999",
                _ => fields[0] = "g?",
            }
        }
        corrupted.push_str(&fields.join(","));
        corrupted.push('\n');
    }

    // The strict loader aborts on the first bad line …
    assert!(read_trace_from(corrupted.as_bytes()).is_err());
    // … while the lossy replay skips-and-counts it and still yields a
    // usable dataset.
    let lossy = replay_from(corrupted.as_bytes(), model, &options).expect("header intact");
    assert!(!lossy.skipped.is_empty(), "5% corruption must hit some lines");
    assert_eq!(lossy.stats.skipped_lines, lossy.skipped.len() as u64);
    assert!(lossy.dataset.total(Direction::Down) > 0.0);
    for e in &lossy.skipped {
        assert!(e.line >= 2, "line numbers are 1-based and skip the header");
    }
}
