//! The spatiotemporal analyses of *Not All Apps Are Created Equal*
//! (CoNEXT 2017).
//!
//! This crate is the paper's primary contribution: the analysis pipeline
//! that turns a week of commune-aggregated per-service traffic into the
//! paper's findings. Each module maps to a section of the paper:
//!
//! * [`study`] — dataset assembly: geography generation → demand model →
//!   measurement pipeline → the [`Study`] every analysis consumes (§2).
//! * [`ranking`] — service rankings, Zipf fits and category shares
//!   (§3, Figures 2–3).
//! * [`peaks`] — the smoothed z-score activity-peak detector (§4,
//!   Figure 4).
//! * [`topical`] — mapping detected peaks to the seven topical times and
//!   measuring peak intensities (§4, Figures 6–7).
//! * [`temporal`] — the k-shape clustering experiment over all `k` and
//!   four quality indices (§4, Figure 5).
//! * [`spatial`] — traffic concentration across communes, per-subscriber
//!   CDFs and pairwise spatial correlation (§5, Figures 8 and 10).
//! * [`maps`] — rasterized per-subscriber activity and coverage maps
//!   (§5, Figure 9).
//! * [`urbanization`] — per-user volume ratios and temporal correlation
//!   across urbanization levels (§5, Figure 11).
//! * [`report`] — CSV/text serialization of every figure for the
//!   benchmark harness.
//! * [`verdict`] — every quantitative paper claim with an acceptance
//!   band, evaluated programmatically (the reproduction's regression
//!   gate).
//!
//! Extensions beyond the paper's evaluation:
//!
//! * [`forecast`] — seasonal-naïve and Holt–Winters demand forecasts
//!   (the predictability the paper's orchestration motivation assumes).
//! * [`slicing`] — network-slice dimensioning and pooling-gain analysis
//!   (the application of §1).
//!
//! Infrastructure shared by every consumer:
//!
//! * the [`Pipeline`] builder, the single entry point that assembles a
//!   study (scale → config → seed → threads → observability);
//! * the unified [`Error`] every fallible assembly path returns.
//!
//! # Quickstart
//!
//! ```no_run
//! use mobilenet_core::{Pipeline, Scale};
//!
//! let run = Pipeline::builder().scale(Scale::Small).seed(42).run().unwrap();
//! let fig2 = mobilenet_core::ranking::zipf_ranking(run.study());
//! println!("downlink Zipf exponent: {:.2}", fig2.dl_fit.unwrap().exponent);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod forecast;
pub mod maps;
pub mod peaks;
mod pipeline;
pub mod ranking;
pub mod report;
pub mod slicing;
pub mod spatial;
pub mod study;
pub mod temporal;
#[cfg(test)]
mod testutil;
pub mod topical;
pub mod urbanization;
pub mod verdict;

pub use error::Error;
pub use mobilenet_netsim::{
    CollectOptions, FaultPlan, FaultStats, IngestStats, OutageWindow, DEFAULT_CHUNK_SIZE,
};
pub use pipeline::{Pipeline, PipelineBuilder, Run, Scale, DEFAULT_SEED};
pub use ranking::{service_ranking_of, top_k_services};
pub use spatial::spatial_correlation_of;
pub use study::{Study, StudyConfig};
pub use topical::topical_profiles_of;
