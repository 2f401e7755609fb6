//! Shared test fixtures: studies are expensive to generate, so tests reuse
//! process-wide instances.

use std::sync::OnceLock;

use crate::study::{Study, StudyConfig};

/// A small measured study (sampling noise, collection artefacts).
pub(crate) fn measured_study() -> &'static Study {
    static S: OnceLock<Study> = OnceLock::new();
    S.get_or_init(|| Study::generate_inner(&StudyConfig::small(), 7))
}

/// A small expected-value study (no sampling noise, no collection
/// artefacts) — used by the statistical-recovery tests.
pub(crate) fn expected_study() -> &'static Study {
    static S: OnceLock<Study> = OnceLock::new();
    S.get_or_init(|| {
        Study::generate_inner(
            &StudyConfig {
                measured: false,
                ..StudyConfig::small()
            },
            7,
        )
    })
}
