//! Generative mobile-service workload models.
//!
//! The CoNEXT 2017 study works from one week of real per-service traffic.
//! The reproduction replaces that proprietary input with a *generative
//! model of the demand structure the paper reports*, so that the analysis
//! stack (peak detection, clustering, spatial correlation, urbanization
//! regression) can be exercised end-to-end and validated against known
//! ground truth:
//!
//! * [`ServiceCatalog`] — the 20 head services of Figure 3 with their categories,
//!   downlink/uplink volume shares, peak palettes over the seven *topical
//!   times*, and spatial affinities; plus a ~480-service Zipf tail
//!   reproducing the rank distribution of Figure 2.
//! * [`week`] — the measurement week calendar (starting Saturday, as the
//!   paper's week of 2016-09-24 does) and the seven topical times of
//!   Figure 6.
//! * Per-service weekly temporal profiles: a diurnal/weekly baseline
//!   modulated by Gaussian activity-peak bumps.
//! * [`SpatialProfile`] — per-service urbanization multipliers, 4G dependence and
//!   adoption floors (Netflix's rural absence, iCloud's uniformity).
//! * [`DemandModel`] — the expected-value demand field combining all of the
//!   above over a generated [`mobilenet_geo::Country`].
//! * [`SessionGenerator`] — seeded sampling of discrete user sessions from the
//!   demand field, the input to the `mobilenet-netsim` collection pipeline.
//! * [`TrafficDataset`] — the commune/class/national aggregate tables every
//!   analysis consumes (the shape of the paper's dataset after §2's
//!   aggregation step).
//! * The samplers (normal, log-normal, Poisson, categorical) implemented
//!   on top of `rand`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod config;
mod dataset;
mod demand;
mod dist;
mod events;
mod mobility;
mod profile;
mod sessions;
mod spatial;
pub mod week;

pub use catalog::{Category, PeakSpec, ServiceCatalog, ServiceId, ServiceSpec};
pub use config::TrafficConfig;
pub use dataset::{DatasetError, Direction, ServiceRowsMut, TrafficDataset};
pub use demand::DemandModel;
pub use events::EventSpec;
pub use sessions::{Session, SessionGenerator, Technology};
pub use spatial::SpatialProfile;
pub use week::{TopicalTime, HOURS_PER_DAY, HOURS_PER_WEEK};
