//! The headline regression gate: at figure scale, every quantitative claim
//! of the paper must fall inside its acceptance band. A failure anywhere in
//! the stack — geography, demand model, measurement pipeline, analysis —
//! shows up here as a named claim.
//!
//! This is the slowest test in the suite (it generates the 6,000-commune
//! study the shipped figures use); run with `--release`.

use mobilenet::core::verdict::{evaluate, verdict_table};
use mobilenet::{Pipeline, Scale, DEFAULT_SEED};

#[test]
fn all_paper_claims_hold_at_figure_scale() {
    let study = Pipeline::builder()
        .scale(Scale::Medium)
        .seed(DEFAULT_SEED)
        .run()
        .unwrap()
        .into_study();
    let claims = evaluate(&study);
    let failures: Vec<String> = claims
        .iter()
        .filter(|c| !c.pass())
        .map(|c| {
            format!(
                "{}: measured {:.3} outside [{}, {}]",
                c.id, c.measured, c.band.0, c.band.1
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "paper claims out of band:\n{}\n\nfull table:\n{}",
        failures.join("\n"),
        verdict_table(&claims)
    );
    assert!(claims.len() >= 19, "claim set shrank to {}", claims.len());
}
