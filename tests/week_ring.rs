//! Week-ring expiry contracts (DESIGN §3.16).
//!
//! What this file pins:
//!
//! * **Per-week bit-identity:** a multi-week live run folds week `w`
//!   from the derived seed `week_seed(seed, w)`, and the snapshot after
//!   each week closes is bit-identical to a *batch* collection over the
//!   equivalent folded records — `collect_with_options` on the same
//!   model at that week's seed (week 0 = the base seed, so a one-week
//!   run keeps the original contract);
//! * **Bounded memory:** a ≥2-week run holds peak resident records at
//!   or below `chunk_size × workers` (the one-week budget — the ring
//!   retires each expired week instead of accumulating it), the
//!   snapshot's dataset is exactly one week's shape regardless of week
//!   count, and the cumulative accounting counts the folded weeks in
//!   `IngestStats::cycles`;
//! * **Roll-over semantics:** the `(week, watermark_hour)` pair resets
//!   at each roll, `complete` holds only once the *final* scheduled
//!   week closes, and expired weeks' collection diagnostics are retired
//!   from the snapshot.

use mobilenet::netsim::collect_with_options;
use mobilenet::par::set_thread_override;
use mobilenet::serve::{week_seed, LiveState};
use mobilenet::{FaultPlan, Scale, DEFAULT_SEED};

mod common;

/// The batch reference CSV for the small study's model at `seed`,
/// collected at capture seed `capture_seed` (they differ for week ≥ 1).
fn batch_reference(
    faults: &FaultPlan,
    model_seed: u64,
    capture_seed: u64,
) -> (String, mobilenet::netsim::CollectionStats) {
    let config = Scale::Small.config().with_faults(faults.clone());
    let model = config.demand_model(model_seed);
    let out = collect_with_options(
        &model,
        &config.netsim,
        &config.collect_options(),
        capture_seed,
    )
    .expect("batch collection succeeds");
    (out.dataset.to_csv(), out.stats)
}

#[test]
fn weekly_snapshots_are_bit_identical_to_batch_runs_over_folded_records() {
    const WEEKS: usize = 3;
    for faults in [FaultPlan::none(), FaultPlan::degraded(3)] {
        for threads in [1usize, 2, 8] {
            set_thread_override(Some(threads));
            let config = Scale::Small.config().with_faults(faults.clone());
            let state = LiveState::from_config(&config, DEFAULT_SEED).expect("valid config");
            state
                .set_weeks(WEEKS)
                .expect("weeks scheduled before start");
            for week in 0..WEEKS {
                state.run_next_week().expect("week ingestion succeeds");
                let snap = state.snapshot();
                assert_eq!(snap.week, week);
                assert_eq!(snap.weeks, WEEKS);
                assert_eq!(
                    snap.watermark_hour,
                    mobilenet::traffic::HOURS_PER_WEEK,
                    "week {week} fully observed"
                );
                assert_eq!(
                    snap.complete,
                    week + 1 == WEEKS,
                    "complete only at the final week"
                );
                let capture_seed = week_seed(DEFAULT_SEED, week);
                assert_eq!(state.week_seed(week), capture_seed);
                let (reference_csv, reference_stats) =
                    batch_reference(&faults, DEFAULT_SEED, capture_seed);
                assert!(
                    snap.dataset.to_csv() == reference_csv,
                    "week {week} snapshot differs from its batch reference \
                     at {threads} threads (faults active: {})",
                    !faults.is_none()
                );
                // Diagnostics describe only the ring week: expired weeks
                // were retired at roll-over.
                assert_eq!(snap.stats.sessions, reference_stats.sessions, "week {week}");
                assert_eq!(
                    snap.stats.gn_records, reference_stats.gn_records,
                    "week {week}"
                );
                assert_eq!(
                    snap.stats.faults.lost_total(),
                    reference_stats.faults.lost_total(),
                    "week {week}"
                );
                let label = format!("week {week} at {threads} threads");
                common::assert_same_stats(&snap.stats, &reference_stats, &label);
            }
            // The scheduled weeks are consumed: a further week is an error.
            assert!(state.run_next_week().is_err());
        }
    }
    set_thread_override(None);
}

#[test]
fn multi_week_runs_hold_one_week_of_memory() {
    const WEEKS: usize = 4;
    set_thread_override(Some(2));

    // One-week baseline on the same config: its snapshot fixes the
    // week-count-independent dataset shape.
    let config = Scale::Small.config();
    let single = LiveState::from_config(&config, DEFAULT_SEED).expect("valid config");
    single
        .run_ingestion()
        .expect("single-week ingestion succeeds");
    let single_snap = single.snapshot();
    let single_csv_bytes = single_snap.dataset.to_csv().len();
    let single_rows = single_snap.dataset.to_csv().lines().count();

    let state = LiveState::from_config(&config, DEFAULT_SEED).expect("valid config");
    let ingest = state
        .run_weeks(WEEKS)
        .expect("multi-week ingestion succeeds");

    // Cumulative accounting: every week folded, counted, and bounded by
    // the one-week residency budget — the ring never holds two weeks.
    assert_eq!(
        ingest.cycles, WEEKS as u64,
        "each week folded through the ring"
    );
    assert!(
        ingest.records > single_snap.ingest.records,
        "later weeks kept streaming"
    );
    assert!(
        ingest.peak_resident_records <= ingest.resident_budget(),
        "peak resident {} exceeds the one-week budget {} over {WEEKS} weeks",
        ingest.peak_resident_records,
        ingest.resident_budget()
    );
    assert_eq!(
        ingest.resident_budget(),
        single_snap.ingest.resident_budget()
    );

    // Snapshot memory is independent of week count: the dense dataset
    // has exactly the single-week shape (same commune × hour grid, same
    // row count), not WEEKS× it.
    let snap = state.snapshot();
    assert!(snap.complete);
    assert_eq!(snap.week, WEEKS - 1);
    assert_eq!(snap.dataset.to_csv().lines().count(), single_rows);
    // Byte size may differ (different values print differently) but only
    // within the same order — never by a ×WEEKS blowup.
    let final_bytes = snap.dataset.to_csv().len();
    assert!(
        final_bytes < single_csv_bytes * 2,
        "final snapshot {final_bytes} B vs one-week {single_csv_bytes} B"
    );

    // And the final week equals its batch reference (the ring holds one
    // week, not a blend).
    let (reference_csv, reference_stats) = {
        let model = config.demand_model(DEFAULT_SEED);
        let out = collect_with_options(
            &model,
            &config.netsim,
            &config.collect_options(),
            week_seed(DEFAULT_SEED, WEEKS - 1),
        )
        .expect("batch collection succeeds");
        (out.dataset.to_csv(), out.stats)
    };
    assert!(
        snap.dataset.to_csv() == reference_csv,
        "final ring week equals its batch run"
    );
    common::assert_same_stats(&snap.stats, &reference_stats, "final ring week");
    set_thread_override(None);
}
