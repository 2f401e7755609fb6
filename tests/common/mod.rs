//! Checks shared by the live-state test files.

use mobilenet::netsim::CollectionStats;

/// Asserts that `got` equals `want` in every field: counters exactly,
/// f64 sums by their bits, and the error-sample reservoir element by
/// element. The destructuring names every field, so a field added to
/// `CollectionStats` must be added here too.
pub(crate) fn assert_same_stats(got: &CollectionStats, want: &CollectionStats, label: &str) {
    let CollectionStats {
        sessions,
        gn_records,
        s5s8_records,
        classified_mb,
        unclassified_mb,
        misassigned_sessions,
        stale_fixes,
        sampled_errors_km,
        error_samples_seen,
        error_sample_thin,
        faults,
    } = want;
    assert_eq!(got.sessions, *sessions, "sessions, {label}");
    assert_eq!(got.gn_records, *gn_records, "gn_records, {label}");
    assert_eq!(got.s5s8_records, *s5s8_records, "s5s8_records, {label}");
    assert_eq!(
        got.classified_mb.to_bits(),
        classified_mb.to_bits(),
        "classified_mb, {label}"
    );
    assert_eq!(
        got.unclassified_mb.to_bits(),
        unclassified_mb.to_bits(),
        "unclassified_mb, {label}"
    );
    assert_eq!(
        got.misassigned_sessions, *misassigned_sessions,
        "misassigned_sessions, {label}"
    );
    assert_eq!(got.stale_fixes, *stale_fixes, "stale_fixes, {label}");
    assert_eq!(
        got.sampled_errors_km.len(),
        sampled_errors_km.len(),
        "error sample count, {label}"
    );
    for (i, (a, b)) in got
        .sampled_errors_km
        .iter()
        .zip(sampled_errors_km)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "error sample {i}, {label}");
    }
    assert_eq!(
        got.error_samples_seen, *error_samples_seen,
        "error_samples_seen, {label}"
    );
    assert_eq!(
        got.error_sample_thin, *error_sample_thin,
        "error_sample_thin, {label}"
    );
    assert_eq!(got.faults, *faults, "faults, {label}");
}
