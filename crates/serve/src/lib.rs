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
//! `mobilenet-serve/v2` TCP line protocol (grammar below):
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
//!
//! # Protocol grammar (`mobilenet-serve/v2`)
//!
//! One request per line, case-insensitive verb, space-separated operands;
//! `<dir>` is `dl` or `ul`:
//!
//! ```text
//! request   = session | query | "QUIT" | "SHUTDOWN"
//! session   = "HELLO"                   ; protocol version + capabilities
//!           | "LIST"                    ; registered studies
//!           | "USE" study               ; select a study for this connection
//!           | "START" study scale [seed [weeks]]
//!                                       ; register + start a study (admin)
//!           | "SUBSCRIBE" topics        ; stream framed delta events
//! query     = "RANK" dir k              ; top-k service ranking, 1 <= k <= |head|
//!           | "R2" dir                  ; pairwise spatial correlation
//!           | "PEAKS" dir               ; topical peak profiles
//!           | "SERIES" dir service      ; national hourly series up to the watermark
//!           | "AUTOCORR" dir [lag]      ; hour-lag autocorrelation (default lag 24)
//!           | "WATERMARK"               ; frontier / completeness / version / week
//!           | "STATS"                   ; ingestion accounting
//!           | "DATASET"                 ; full dataset CSV (batch-export format)
//!           | "HEALTH"                  ; serve.* + netsim.ingest.* obs metrics
//! topics    = "all" | topic *("," topic)
//! topic     = "watermark" | "version" | "rank" | "autocorr"
//! dir       = "dl" | "ul"
//! ```
//!
//! Responses are framed as `OK <n>` followed by exactly `n` body lines,
//! or a single `ERR <message>` line; parse errors use the unified shape
//! `ERR bad <verb>: <token> (expected ...)` so clients can surface the
//! offending token. `QUIT` closes the connection (without a response);
//! `SHUTDOWN` additionally stops the server — including any connection
//! that is mid-`SUBSCRIBE`.
//!
//! `SUBSCRIBE` answers `OK 0` and then switches the connection to event
//! framing: one `EVENT <seq> <payload>` line per delta (payload codec in
//! [`DeltaEvent`]), terminated by an `end` event after
//! which the connection returns to command mode. `<seq>` counts the
//! subscription's events from 0 without gaps: no event is dropped, and
//! a reader that falls behind gets the changes it missed merged into
//! later events.
//!
//! Queries need a selected study: connections start on the only
//! registered study when there is exactly one (the v1-compatible case)
//! and otherwise must `USE` one first.
//!
//! Floating-point values render with `{:e}` — the trace/CSV notation the
//! rest of the workspace round-trips — so two bit-identical snapshots
//! produce byte-identical responses. `DATASET` bodies are exactly
//! [`TrafficDataset::to_csv`](mobilenet_traffic::TrafficDataset), which
//! is what lets the CI smoke test `cmp` a live dump against a batch
//! export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod live;
mod query;
mod registry;
mod server;
mod session;
mod subscribe;

pub use client::{Client, ClientError, Hello, Subscription};
pub use live::{week_seed, LiveSnapshot, LiveState};
pub use query::{answer, Command, SnapshotQuery, PROTOCOL_VERSION};
pub use registry::{StudyEntry, StudyInfo, StudyRegistry};
pub use server::{spawn_registry_server, spawn_server, ServerHandle, MAX_LINE_BYTES};
pub use subscribe::{DeltaEvent, RankEntry, Topic};
