//! Parallel-vs-serial determinism: the whole pipeline must produce
//! bit-identical outputs at any worker count.
//!
//! This is the contract the `mobilenet-par` layer promises: work is
//! sharded with per-shard RNG streams (`seed_for`) and results are merged
//! in submission order, so thread count is invisible in every artifact.

use mobilenet::core::peaks::PeakConfig;
use mobilenet::core::report;
use mobilenet::core::spatial::spatial_correlation;
use mobilenet::core::temporal::{clustering_sweep, Algorithm};
use mobilenet::core::topical::topical_profiles;
use mobilenet::par::set_thread_override;
use mobilenet::traffic::Direction;
use mobilenet::{Pipeline, Scale, DEFAULT_SEED};

const SEED: u64 = DEFAULT_SEED;

/// Everything downstream analyses consume, rendered to exact text.
struct Snapshot {
    dataset_csv: String,
    fig5_csv: String,
    fig10_csv: String,
    fig6_csv: String,
}

fn snapshot() -> Snapshot {
    let study = Pipeline::builder()
        .scale(Scale::Small)
        .seed(SEED)
        .run()
        .unwrap()
        .into_study();
    let sweep = clustering_sweep(&study, Direction::Down, Algorithm::KShape, 3);
    let corr = spatial_correlation(&study, Direction::Down);
    let profiles = topical_profiles(&study, Direction::Down, &PeakConfig::paper());
    Snapshot {
        dataset_csv: study.dataset().to_csv(),
        fig5_csv: report::sweep_csv(&sweep),
        fig10_csv: report::correlation_csv(&corr),
        fig6_csv: report::topical_matrix_csv(&profiles),
    }
}

#[test]
fn pipeline_is_bit_identical_at_1_2_and_8_threads() {
    // All thread counts run inside one #[test] so the process-global
    // override is never raced by a sibling test.
    set_thread_override(Some(1));
    let reference = snapshot();
    assert!(!reference.dataset_csv.is_empty());
    assert!(!reference.fig5_csv.is_empty());
    assert!(!reference.fig10_csv.is_empty());
    assert!(!reference.fig6_csv.is_empty());

    for threads in [2usize, 8] {
        set_thread_override(Some(threads));
        let run = snapshot();
        assert!(
            run.dataset_csv == reference.dataset_csv,
            "TrafficDataset CSV differs at {threads} threads"
        );
        assert!(
            run.fig5_csv == reference.fig5_csv,
            "Figure 5 sweep differs at {threads} threads"
        );
        assert!(
            run.fig10_csv == reference.fig10_csv,
            "Figure 10 correlation differs at {threads} threads"
        );
        assert!(
            run.fig6_csv == reference.fig6_csv,
            "Figure 6 topical matrix differs at {threads} threads"
        );
    }
    set_thread_override(None);
}
