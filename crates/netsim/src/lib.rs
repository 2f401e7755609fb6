//! Simulated 3G/4G packet-core measurement pipeline.
//!
//! §2 of the paper describes the measurement apparatus: passive probes at
//! the **Gn** (3G, GGSN) and **S5/S8** (4G, P-GW) interfaces inspect the
//! GTP user plane and extract per-session transport/application
//! information; the operator's proprietary DPI stage classifies **88%** of
//! the traffic; geo-referencing reads the **ULI** (User Location
//! Information) carried in PDP Contexts / EPS Bearers on the GTP control
//! plane, whose coarse updates yield a **median localization error around
//! 3 km** — the reason all analysis happens at commune granularity.
//!
//! This crate rebuilds that apparatus over synthetic sessions:
//!
//! * [`radio`] — base stations deployed per commune and grouped into
//!   routing/tracking areas; the station ↔ commune mapping the paper uses
//!   for aggregation.
//! * [`uli`] — the localization model: reported positions scatter around
//!   true positions with a configurable median error, plus occasional
//!   stale-ULI outliers at routing-area scale.
//! * [`classifier`] — a fingerprint-table DPI stage: sessions carry a wire
//!   signature derived from their true service; the classifier inverts it,
//!   missing a configurable fraction of the volume.
//! * [`probe`] — the Gn / S5-S8 probes turning a
//!   [`Session`](mobilenet_traffic::Session) into a [`SessionRecord`]
//!   as the operator would see it.
//! * [`pipeline`] — end-to-end collection: demand model → sessions →
//!   probes → aggregation into a
//!   [`TrafficDataset`](mobilenet_traffic::TrafficDataset), with
//!   collection statistics (classification rate, localization error,
//!   commune misassignment).
//! * [`faults`] — the deterministic fault-injection layer: probe outage
//!   windows, record loss/duplication, counter truncation and clock skew,
//!   applied between probe and aggregation so the pipeline degrades
//!   gracefully instead of assuming benign capture.
//! * [`ingest`](mod@ingest) — the streaming bounded-memory ingestion engine: the
//!   [`RecordSource`] abstraction (synthetic shards, trace readers,
//!   in-memory slices) and [`ShardedFold`], the one chunked sharded
//!   aggregator behind batch collection, trace replay and the live
//!   service, whose peak resident records never exceed
//!   `chunk_size × workers`, bit-identical at any thread count and chunk
//!   size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod config;
pub mod faults;
pub mod ingest;
pub mod pipeline;
pub mod probe;
pub mod radio;
pub mod records;
pub mod trace;
pub mod uli;

pub use classifier::{DpiClassifier, UNCLASSIFIED_CODE};
pub use config::NetsimConfig;
pub use faults::{FaultInjector, FaultPlan, FaultStats, OutageWindow};
pub use ingest::{
    ingest, ChunkSink, CollectOptions, FoldStrategy, IngestError, IngestStats, RecordSource,
    ShardPartial, ShardedFold, SliceSource, TraceSource, DEFAULT_CHUNK_SIZE,
};
pub use pipeline::{
    aggregate_batch, collect_with_options, Capture, CollectionOutput, CollectionStats,
    SyntheticSource, ERROR_SAMPLE_CAP,
};
pub use probe::Probe;
pub use radio::RadioNetwork;
pub use records::{Interface, RecordBatch, SessionRecord};
pub use trace::{
    observe_with_options, read_trace_from, replay_from, trace_to_csv, write_trace_to,
    CaptureSummary, LossyReplay, TraceError,
};
pub use uli::UliModel;
