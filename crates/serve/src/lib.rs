//! Always-on analytics over the mobilenet streaming engine.
//!
//! The batch pipeline answers questions after a full week has been
//! collected; this crate answers them **while** the week streams.
//! [`LiveState`] consumes an unbounded
//! [`RecordSource`](mobilenet_netsim::RecordSource) through the same
//! chunked, bounded-memory machinery as
//! [`collect_with_options`](mobilenet_netsim::collect_with_options),
//! maintaining per-shard partial aggregates, an observed-frontier
//! watermark and a monotone state version. [`LiveState::snapshot`]
//! materialises a consistent [`LiveSnapshot`] at any moment; once
//! ingestion completes the snapshot is bit-identical to the batch
//! output on the same `(config, seed)` at any thread count and under
//! any fault plan. Multi-week runs ([`LiveState::run_weeks`]) fold every
//! week into the same 168-hour ring in the memory of a one-week run,
//! retiring each expired week at roll-over.
//!
//! [`spawn_registry_server`] serves a whole [`StudyRegistry`] — several
//! named live studies side by side — over the sessioned
//! `mobilenet-serve/v2` TCP line protocol (grammar in [`query`]):
//! `HELLO`/`LIST`/`USE` select a study per connection, snapshot verbs
//! answer against it, and `SUBSCRIBE` streams framed [`DeltaEvent`]s
//! (watermark advances, version bumps, rank churn, hour-lag
//! autocorrelation). Each subscribed connection derives its own deltas
//! from the cached snapshot, so there is no per-subscriber queue and no
//! event is dropped: a slow reader gets the changes it missed merged
//! into its next round.
//! [`spawn_server`] keeps the single-study v1 entry point; [`Client`]
//! is the typed counterpart for talking to either:
//!
//! ```no_run
//! use mobilenet_core::StudyConfig;
//! use mobilenet_serve::{spawn_server, Client, LiveState, Topic};
//!
//! let state = LiveState::from_config(&StudyConfig::small(), 7).unwrap();
//! let mut server = spawn_server(state.clone(), "127.0.0.1:0").unwrap();
//! let ingest = std::thread::spawn(move || state.run_ingestion());
//!
//! let mut client = Client::connect(&server.addr().to_string()).unwrap();
//! let hello = client.hello().unwrap();
//! assert_eq!(hello.version, mobilenet_serve::PROTOCOL_VERSION);
//! for event in client.subscribe(vec![Topic::Watermark]).unwrap() {
//!     println!("{:?}", event.unwrap());
//! }
//!
//! ingest.join().unwrap().unwrap();
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod live;
pub mod query;
pub mod registry;
pub mod server;
pub mod session;
pub mod subscribe;

pub use client::{Client, ClientError, Hello, Subscription};
pub use live::{week_seed, LiveSnapshot, LiveState, VersionNotifier};
pub use query::{answer, hour_lag_autocorr, Command, SnapshotQuery, PROTOCOL_VERSION};
pub use registry::{StudyEntry, StudyInfo, StudyRegistry};
pub use server::{spawn_registry_server, spawn_server, ServerHandle, MAX_LINE_BYTES};
pub use session::Session;
pub use subscribe::{DeltaEvent, RankEntry, Topic, AUTOCORR_LAG_HOURS};
