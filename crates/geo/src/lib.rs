//! Synthetic nationwide geography for the `mobilenet` workspace.
//!
//! The CoNEXT 2017 study analyzes traffic aggregated over the ~36,000 French
//! *communes*, whose demand structure is shaped by three geographic forces
//! the paper calls out explicitly:
//!
//! 1. a highly skewed population distribution (a few metropolises, many
//!    small rural communes) classified by the French statistics institute
//!    into **urban / semi-urban / rural** levels;
//! 2. **high-speed rail (TGV) corridors** crossing otherwise-rural
//!    communes, whose travellers consume disproportionate traffic;
//! 3. a **3G/4G coverage gradient** — 3G is near-pervasive while 4G is
//!    biased toward cities — which gates high-bandwidth services such as
//!    Netflix.
//!
//! The real commune polygons and census are proprietary-adjacent inputs the
//! reproduction does not have, so this crate *generates* a country with the
//! same statistical structure: Zipf-sized cities scattered on a plane,
//! communes tessellating the territory on a jittered lattice, population
//! assigned by distance-decay around cities, INSEE-like urbanization
//! thresholds, TGV polylines connecting the largest cities, and a coverage
//! model with urban bias. Every step is seeded and fully deterministic.
//!
//! # Example
//!
//! ```
//! use mobilenet_geo::{CountryConfig, Country};
//!
//! let country = Country::generate(&CountryConfig::small(), 42);
//! assert!(country.communes().len() >= 900);
//! let city_pop: u64 = country
//!     .communes()
//!     .iter()
//!     .filter(|c| !matches!(c.urbanization, mobilenet_geo::Urbanization::Rural))
//!     .map(|c| c.population)
//!     .sum();
//! // Cities concentrate population even though most communes are rural.
//! assert!(city_pop > country.total_population() / 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod commune;
mod config;
mod country;
mod index;
mod point;
pub mod rail;

pub use commune::{Commune, CommuneId, Coverage, Urbanization, UsageClass};
pub use config::CountryConfig;
pub use country::{City, Country};
pub use index::SpatialIndex;
pub use point::Point;
