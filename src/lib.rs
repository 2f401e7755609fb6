//! `mobilenet` — a Rust reproduction of *Not All Apps Are Created Equal:
//! Analysis of Spatiotemporal Heterogeneity in Nationwide Mobile Service
//! Usage* (Marquez et al., CoNEXT 2017).
//!
//! The paper measures one week of per-service mobile traffic over a whole
//! country and shows that services have **unique temporal dynamics**,
//! **shared geography**, and **urbanization-scaled volume with
//! urbanization-independent timing**. This workspace rebuilds both the
//! measurement substrate (synthetic country, packet-core collection
//! pipeline) and the analysis stack, end to end, in pure Rust:
//!
//! * [`geo`] — synthetic nationwide geography (communes, cities, TGV
//!   corridors, 3G/4G coverage);
//! * [`traffic`] — the generative per-service workload model and session
//!   sampler;
//! * [`netsim`] — GTP probes, ULI localization, DPI classification,
//!   commune aggregation;
//! * [`timeseries`] — FFT, shape-based distance, statistics;
//! * [`cluster`] — k-shape, k-means, cluster-quality indices;
//! * [`core`] — the paper's analyses and figure pipeline;
//! * [`par`] — the deterministic parallel execution layer (ordered
//!   scoped-thread map/reduce, `MOBILENET_THREADS`);
//! * [`obs`] — the observability layer (span timers, counters, gauges,
//!   histograms; `MOBILENET_OBS`);
//! * [`serve`] — incremental aggregation over the record stream and the
//!   live TCP query service (`mobilenet serve` / `mobilenet query`).
//!
//! # Quickstart
//!
//! The [`Pipeline`] builder is the single entry point: pick a scale,
//! maybe tweak the configuration, seed it, run.
//!
//! ```no_run
//! use mobilenet::core::ranking::zipf_ranking;
//! use mobilenet::{Pipeline, Scale};
//!
//! // Generate a country, simulate a week of traffic through the
//! // measurement pipeline, and analyze it.
//! let run = Pipeline::builder().scale(Scale::Small).seed(42).run()?;
//! let fig2 = zipf_ranking(run.study());
//! println!("Zipf exponent: {:.2}", fig2.dl_fit.unwrap().exponent);
//! # Ok::<(), mobilenet::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mobilenet_cluster as cluster;
pub use mobilenet_core as core;
pub use mobilenet_geo as geo;
pub use mobilenet_netsim as netsim;
pub use mobilenet_obs as obs;
pub use mobilenet_par as par;
pub use mobilenet_serve as serve;
pub use mobilenet_timeseries as timeseries;
pub use mobilenet_traffic as traffic;

pub use mobilenet_core::{Error, FaultPlan, Pipeline, PipelineBuilder, Run, Scale, DEFAULT_SEED};
pub use mobilenet_serve::{
    spawn_registry_server, spawn_server, Client, DeltaEvent, ServerHandle, StudyRegistry, Topic,
};
