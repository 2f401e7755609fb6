//! Delta subscriptions: framed change events pushed to clients instead
//! of polled snapshots.
//!
//! A `SUBSCRIBE` turns a protocol connection into an event stream. One
//! **publisher thread per study** (spawned by the
//! [`StudyRegistry`](crate::registry::StudyRegistry) at registration)
//! waits on the state's [`VersionNotifier`](crate::live::VersionNotifier), and on every change builds
//! the round's [`DeltaEvent`]s from the version-cached snapshot:
//!
//! * watermark advances (`(week, hour)` lexicographic, plus completion);
//! * version bumps (coalesced — one event per publish round);
//! * per-direction **rank churn**: the full head ranking, emitted when
//!   the *order* changes (and always once at completion, so replaying a
//!   subscription ends bit-identical to a polled `RANK`);
//! * the Jo-style **hour-lag autocorrelation** (PAPERS.md: Jo et al.'s
//!   handset-usage spatiotemporal correlations): the mean lag-24
//!   diurnal autocorrelation of the head services' national series over
//!   the observed window, re-derived per watermark advance.
//!
//! # Backpressure
//!
//! Every subscriber owns a **bounded queue**
//! ([`SUBSCRIBER_QUEUE_EVENTS`]). The publisher never blocks on a
//! client: a full queue drops the event and counts it on the
//! subscriber's lag counter and the `serve.subscriber_lagged` obs
//! counter; per-subscriber sequence numbers make the gap visible to the
//! client. The ingest path itself only ever *notifies* — it never
//! touches a queue, a socket, or a snapshot.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use mobilenet_core::top_k_services;
use mobilenet_traffic::Direction;

use crate::live::LiveState;
use crate::query::{dir_token, hour_lag_autocorr, parse_dir};

/// Most events a subscriber's queue buffers before the publisher starts
/// dropping (and counting) instead of blocking.
pub const SUBSCRIBER_QUEUE_EVENTS: usize = 256;

/// Hour lag of the subscription autocorrelation statistic: one day, the
/// diurnal period the paper's temporal analyses revolve around.
pub const AUTOCORR_LAG_HOURS: usize = 24;

/// Publisher idle tick: how long a publisher waits for a version
/// notification before re-checking the stop flag (and how stale a
/// missed wake-up can go at worst).
const PUBLISH_TICK: Duration = Duration::from_millis(100);

/// One subscribable event family.
///
/// `#[non_exhaustive]`: new families are non-breaking; parse via
/// [`Topic::parse_list`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Topic {
    /// Watermark advances (week, hour, completion).
    Watermark,
    /// State version bumps (coalesced per publish round).
    Version,
    /// Per-direction rank churn.
    Rank,
    /// Hour-lag autocorrelation updates.
    Autocorr,
}

impl Topic {
    /// Every topic, in wire order.
    pub const ALL: [Topic; 4] = [Topic::Watermark, Topic::Version, Topic::Rank, Topic::Autocorr];

    /// The wire token of this topic.
    pub fn token(self) -> &'static str {
        match self {
            Topic::Watermark => "watermark",
            Topic::Version => "version",
            Topic::Rank => "rank",
            Topic::Autocorr => "autocorr",
        }
    }

    /// Parses a comma-separated topic list; `all` selects every topic.
    pub fn parse_list(tokens: &str) -> Result<Vec<Topic>, String> {
        let mut topics = Vec::new();
        for token in tokens.split(',') {
            let topic = match token.to_ascii_lowercase().as_str() {
                "all" => {
                    return Ok(Topic::ALL.to_vec());
                }
                "watermark" => Topic::Watermark,
                "version" => Topic::Version,
                "rank" => Topic::Rank,
                "autocorr" => Topic::Autocorr,
                other => {
                    return Err(format!(
                        "bad SUBSCRIBE: {other} (expected all or a comma list of \
                         watermark,version,rank,autocorr)"
                    ))
                }
            };
            if !topics.contains(&topic) {
                topics.push(topic);
            }
        }
        if topics.is_empty() {
            return Err("bad SUBSCRIBE: empty topic list".into());
        }
        Ok(topics)
    }
}

/// One entry of a rank event: a head service's name, share of total
/// volume and category label — exactly the fields a `RANK` body line
/// carries.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RankEntry {
    /// Service name.
    pub name: String,
    /// Share of the direction's total volume.
    pub share: f64,
    /// Category display label.
    pub category: String,
}

impl RankEntry {
    /// Renders this entry exactly as the corresponding `RANK` body line —
    /// what makes "replay the subscription" and "poll the snapshot"
    /// comparable byte for byte.
    pub fn protocol_line(&self) -> String {
        format!("{} {:e} {}", self.name, self.share, self.category)
    }
}

/// One framed delta event of a subscription stream.
///
/// `#[non_exhaustive]`: new event kinds are non-breaking; parse via
/// [`DeltaEvent::parse_wire`] and render via [`DeltaEvent::to_wire`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DeltaEvent {
    /// The observed frontier advanced (lexicographically on
    /// `(week, hour)`) or the run completed.
    Watermark {
        /// Ring week (`0`-based).
        week: usize,
        /// Observed frontier within the week, hours.
        hour: usize,
        /// Whether the final scheduled week has fully closed.
        complete: bool,
    },
    /// The state version moved (coalesced: one per publish round).
    Version {
        /// Current state version.
        version: u64,
    },
    /// A direction's head ranking changed order (always also emitted
    /// once at completion, carrying the final shares).
    Rank {
        /// Direction ranked.
        dir: Direction,
        /// Positions whose service differs from the previously published
        /// ranking (= the churn; `entries.len()` on a baseline).
        churn: usize,
        /// The full head ranking, best first.
        entries: Vec<RankEntry>,
    },
    /// The hour-lag autocorrelation statistic was re-derived after a
    /// watermark advance.
    Autocorr {
        /// Direction measured.
        dir: Direction,
        /// Hour lag ([`AUTOCORR_LAG_HOURS`]).
        lag: usize,
        /// Observed window the statistic was computed over, hours.
        window: usize,
        /// Mean lag autocorrelation over the head services (NaN-free:
        /// services without a defined value are excluded).
        mean: f64,
    },
    /// The stream is over: the study completed and every delta has been
    /// delivered. Always delivered regardless of the topic filter.
    End {
        /// Final state version.
        version: u64,
    },
}

impl DeltaEvent {
    /// The topic this event belongs to (`None` for [`DeltaEvent::End`],
    /// which bypasses filtering).
    pub fn topic(&self) -> Option<Topic> {
        match self {
            DeltaEvent::Watermark { .. } => Some(Topic::Watermark),
            DeltaEvent::Version { .. } => Some(Topic::Version),
            DeltaEvent::Rank { .. } => Some(Topic::Rank),
            DeltaEvent::Autocorr { .. } => Some(Topic::Autocorr),
            DeltaEvent::End { .. } => None,
        }
    }

    /// Renders the wire payload (everything after `EVENT <seq> `).
    ///
    /// Floats use `{:e}` — Rust's round-trip-exact float notation — so a
    /// parsed event reconstructs the published value bit for bit.
    pub fn to_wire(&self) -> String {
        match self {
            DeltaEvent::Watermark { week, hour, complete } => {
                format!("watermark week {week} hour {hour} complete {complete}")
            }
            DeltaEvent::Version { version } => format!("version {version}"),
            DeltaEvent::Rank { dir, churn, entries } => {
                let body = if entries.is_empty() {
                    "-".to_string()
                } else {
                    entries
                        .iter()
                        .map(|e| format!("{}={:e}={}", e.name, e.share, e.category))
                        .collect::<Vec<String>>()
                        .join("|")
                };
                format!("rank {} churn {churn} {body}", dir_token(*dir))
            }
            DeltaEvent::Autocorr { dir, lag, window, mean } => {
                format!("autocorr {} lag {lag} window {window} mean {mean:e}", dir_token(*dir))
            }
            DeltaEvent::End { version } => format!("end {version}"),
        }
    }

    /// Parses a wire payload rendered by [`DeltaEvent::to_wire`].
    pub fn parse_wire(payload: &str) -> Result<DeltaEvent, String> {
        let mut tokens = payload.split_whitespace();
        let kind = tokens.next().ok_or_else(|| "empty event payload".to_string())?;
        let mut expect = |name: &str| {
            tokens.next().ok_or_else(|| format!("bad event: truncated {kind} (missing {name})"))
        };
        let event = match kind {
            "watermark" => {
                expect("week keyword")?;
                let week = parse_num(expect("week")?, "week")?;
                expect("hour keyword")?;
                let hour = parse_num(expect("hour")?, "hour")?;
                expect("complete keyword")?;
                let complete = expect("complete")?
                    .parse::<bool>()
                    .map_err(|_| "bad event: watermark complete flag".to_string())?;
                DeltaEvent::Watermark { week, hour, complete }
            }
            "version" => {
                let version = parse_num(expect("version")?, "version")?;
                DeltaEvent::Version { version }
            }
            // Rank payloads are parsed off the raw tail, not the token
            // stream: service names and category labels contain spaces.
            "rank" => return parse_rank(payload),
            "autocorr" => {
                let dir = parse_dir(expect("dir")?)?;
                expect("lag keyword")?;
                let lag = parse_num(expect("lag")?, "lag")?;
                expect("window keyword")?;
                let window = parse_num(expect("window")?, "window")?;
                expect("mean keyword")?;
                let mean = expect("mean")?
                    .parse::<f64>()
                    .map_err(|_| "bad event: autocorr mean".to_string())?;
                DeltaEvent::Autocorr { dir, lag, window, mean }
            }
            "end" => DeltaEvent::End { version: parse_num(expect("version")?, "version")? },
            other => return Err(format!("bad event: unknown kind {other:?}")),
        };
        Ok(event)
    }
}

/// The wire tokens a rank event must not contain inside a service name
/// or category: [`DeltaEvent::to_wire`] separates entries with `|`,
/// fields with `=` and events never span lines. The standard catalog
/// satisfies this (names and labels use letters, digits, spaces and
/// `/`), pinned by a unit test below.
fn parse_num<T: std::str::FromStr>(token: &str, what: &str) -> Result<T, String> {
    token.parse::<T>().map_err(|_| format!("bad event: {what} {token:?}"))
}

/// Parses a `rank` payload off the raw string: the entry body is taken
/// verbatim after the churn token (service names and category labels
/// contain spaces, so whitespace tokenization would shred it).
fn parse_rank(payload: &str) -> Result<DeltaEvent, String> {
    let truncated = || "bad event: truncated rank".to_string();
    let rest = payload.strip_prefix("rank ").ok_or_else(truncated)?;
    let (dir_tok, rest) = rest.split_once(' ').ok_or_else(truncated)?;
    let dir = parse_dir(dir_tok)?;
    let rest = rest.strip_prefix("churn ").ok_or_else(truncated)?;
    let (churn_tok, body) = rest.split_once(' ').ok_or_else(truncated)?;
    let churn = parse_num(churn_tok, "churn")?;
    let mut entries = Vec::new();
    if body != "-" {
        for part in body.split('|') {
            let mut fields = part.splitn(3, '=');
            let name = fields.next().unwrap_or_default();
            let share =
                fields.next().ok_or_else(|| format!("bad event: rank entry {part:?}"))?;
            let category =
                fields.next().ok_or_else(|| format!("bad event: rank entry {part:?}"))?;
            entries.push(RankEntry {
                name: name.to_string(),
                share: share
                    .parse::<f64>()
                    .map_err(|_| format!("bad event: rank share {share:?}"))?,
                category: category.to_string(),
            });
        }
    }
    Ok(DeltaEvent::Rank { dir, churn, entries })
}

/// What a subscriber queue holds besides events.
#[derive(Debug, Default)]
struct SubscriberQueue {
    queue: VecDeque<(u64, DeltaEvent)>,
    /// Next sequence number to assign (per subscriber; drops leave gaps).
    next_seq: u64,
}

/// One client's subscription: a bounded event queue the publisher pushes
/// into and the connection's writer thread drains.
#[derive(Debug)]
pub struct Subscriber {
    topics: Vec<Topic>,
    inner: Mutex<SubscriberQueue>,
    cv: Condvar,
    /// Set once the publisher has sent this subscriber its baseline.
    primed: AtomicBool,
    lagged: AtomicU64,
}

impl Subscriber {
    fn new(topics: Vec<Topic>) -> Subscriber {
        Subscriber {
            topics,
            inner: Mutex::new(SubscriberQueue::default()),
            cv: Condvar::new(),
            primed: AtomicBool::new(false),
            lagged: AtomicU64::new(0),
        }
    }

    /// The topics this subscription selected.
    pub fn topics(&self) -> &[Topic] {
        &self.topics
    }

    /// Events dropped because the queue was full when the publisher
    /// tried to push (also counted on `serve.subscriber_lagged`).
    pub fn lagged(&self) -> u64 {
        self.lagged.load(Ordering::Relaxed)
    }

    /// Offers one event: filtered by topic, then enqueued — or, if the
    /// queue is at [`SUBSCRIBER_QUEUE_EVENTS`], dropped and counted.
    /// Never blocks beyond the queue mutex.
    fn offer(&self, event: &DeltaEvent) {
        if let Some(topic) = event.topic() {
            if !self.topics.contains(&topic) {
                return;
            }
        }
        let mut inner = self.inner.lock().expect("subscriber queue poisoned");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.queue.len() >= SUBSCRIBER_QUEUE_EVENTS {
            drop(inner);
            self.lagged.fetch_add(1, Ordering::Relaxed);
            mobilenet_obs::add("serve.subscriber_lagged", 1);
            return;
        }
        inner.queue.push_back((seq, event.clone()));
        drop(inner);
        self.cv.notify_all();
    }

    /// Pops the next queued event, waiting at most `timeout` — `None` on
    /// timeout so the caller can re-check its stop flag.
    pub fn pop_wait(&self, timeout: Duration) -> Option<(u64, DeltaEvent)> {
        let mut inner = self.inner.lock().expect("subscriber queue poisoned");
        if inner.queue.is_empty() {
            let (guard, _) =
                self.cv.wait_timeout(inner, timeout).expect("subscriber queue poisoned");
            inner = guard;
        }
        inner.queue.pop_front()
    }

    /// Wakes a blocked [`pop_wait`](Subscriber::pop_wait) without
    /// queueing anything (stop-flag propagation).
    pub fn wake(&self) {
        self.cv.notify_all();
    }

    fn primed(&self) -> bool {
        self.primed.load(Ordering::Acquire)
    }

    fn set_primed(&self) {
        self.primed.store(true, Ordering::Release);
    }
}

/// The fan-out point of one study's delta stream: the set of live
/// subscribers the publisher loop pushes into.
#[derive(Debug, Default)]
pub struct DeltaHub {
    subscribers: Mutex<Vec<Arc<Subscriber>>>,
}

impl DeltaHub {
    /// A hub with no subscribers.
    pub fn new() -> DeltaHub {
        DeltaHub::default()
    }

    /// Registers a new subscription and returns its queue handle.
    pub fn subscribe(&self, topics: Vec<Topic>) -> Arc<Subscriber> {
        let sub = Arc::new(Subscriber::new(topics));
        let mut subs = self.subscribers.lock().expect("subscriber list poisoned");
        subs.push(sub.clone());
        mobilenet_obs::add("serve.subscriptions", 1);
        mobilenet_obs::gauge("serve.subscribers", subs.len() as f64);
        sub
    }

    /// Removes a subscription (by handle identity).
    pub fn unsubscribe(&self, sub: &Arc<Subscriber>) {
        let mut subs = self.subscribers.lock().expect("subscriber list poisoned");
        subs.retain(|s| !Arc::ptr_eq(s, sub));
        mobilenet_obs::gauge("serve.subscribers", subs.len() as f64);
    }

    /// Whether any subscription is live.
    pub fn has_subscribers(&self) -> bool {
        !self.subscribers.lock().expect("subscriber list poisoned").is_empty()
    }

    fn snapshot_subs(&self) -> Vec<Arc<Subscriber>> {
        self.subscribers.lock().expect("subscriber list poisoned").clone()
    }

    fn has_unprimed(&self) -> bool {
        self.subscribers
            .lock()
            .expect("subscriber list poisoned")
            .iter()
            .any(|s| !s.primed())
    }

    /// Wakes every subscriber's queue wait (stop-flag propagation).
    pub fn wake_all(&self) {
        for sub in self.snapshot_subs() {
            sub.wake();
        }
    }
}

/// What the publisher remembers between rounds to derive deltas.
#[derive(Default)]
struct PublishMemory {
    version: Option<u64>,
    mark: Option<(usize, usize, bool)>,
    /// Last published ranking order per direction (service names).
    rank_names: [Option<Vec<String>>; 2],
    autocorr_bits: [Option<u64>; 2],
    ended: bool,
}

fn dir_slot(dir: Direction) -> usize {
    match dir {
        Direction::Down => 0,
        Direction::Up => 1,
    }
}

/// Builds the full head ranking of one direction as rank entries.
fn rank_entries(state: &LiveState, snap: &crate::live::LiveSnapshot, dir: Direction) -> Vec<RankEntry> {
    let head = state.catalog().head();
    top_k_services(&snap.dataset, head, dir, head.len())
        .iter()
        .map(|s| RankEntry {
            name: s.name.to_string(),
            share: s.share_of_total,
            category: s.category.label().to_string(),
        })
        .collect()
}

/// Mean hour-lag autocorrelation over the head services' national
/// series within the observed window; `None` until the window can
/// support the lag.
fn mean_autocorr(state: &LiveState, snap: &crate::live::LiveSnapshot, dir: Direction) -> Option<f64> {
    let head_len = state.catalog().head().len();
    let window = snap.watermark_hour;
    let mut sum = 0.0;
    let mut n = 0usize;
    for service in 0..head_len {
        let series = snap.dataset.national_series_window(dir, service, 0, window);
        if let Some(r) = hour_lag_autocorr(series, AUTOCORR_LAG_HOURS) {
            sum += r;
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

/// One study's publisher loop: waits for version notifications, builds
/// the round's delta events from the version-cached snapshot, and offers
/// them to every subscriber (baseline first for fresh subscriptions).
/// Runs until `stop`; spawned by the registry at registration.
pub(crate) fn publish_loop(state: &LiveState, hub: &DeltaHub, stop: &AtomicBool) {
    let mut memory = PublishMemory::default();
    loop {
        if stop.load(Ordering::SeqCst) {
            hub.wake_all();
            return;
        }
        if !hub.has_subscribers() {
            state.notifier().wait_timeout(PUBLISH_TICK);
            continue;
        }
        let version = state.version();
        let fresh = hub.has_unprimed();
        if !fresh && memory.version == Some(version) {
            state.notifier().wait_timeout(PUBLISH_TICK);
            continue;
        }
        publish_round(state, hub, &mut memory, version);
    }
}

/// One publish round: derive the deltas at `version` and fan them out.
fn publish_round(state: &LiveState, hub: &DeltaHub, memory: &mut PublishMemory, version: u64) {
    let snap = state.snapshot();
    let mark = (snap.week, snap.watermark_hour, snap.complete);
    // Lexicographic advance only: a roll-over transiently exposes the
    // reset watermark before the week counter, which must not be
    // published as a regression.
    let mark_advanced = memory.mark.is_none_or(|(w, h, c)| {
        (snap.week, snap.watermark_hour) > (w, h) || (snap.complete && !c)
    });
    let completing = snap.complete && !memory.ended;

    let mut round: Vec<DeltaEvent> = Vec::new();
    if mark_advanced {
        round.push(DeltaEvent::Watermark { week: mark.0, hour: mark.1, complete: mark.2 });
    }
    if memory.version != Some(version) {
        round.push(DeltaEvent::Version { version });
    }
    let mut baseline: Vec<DeltaEvent> =
        vec![DeltaEvent::Watermark { week: mark.0, hour: mark.1, complete: mark.2 }, DeltaEvent::Version { version }];
    for dir in [Direction::Down, Direction::Up] {
        let slot = dir_slot(dir);
        let entries = rank_entries(state, &snap, dir);
        let names: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();
        let churn = match &memory.rank_names[slot] {
            None => entries.len(),
            Some(prev) => names
                .iter()
                .enumerate()
                .filter(|(i, name)| prev.get(*i) != Some(name))
                .count()
                .max(prev.len().saturating_sub(names.len())),
        };
        if churn > 0 || completing {
            round.push(DeltaEvent::Rank { dir, churn, entries: entries.clone() });
        }
        baseline.push(DeltaEvent::Rank { dir, churn: entries.len(), entries });
        memory.rank_names[slot] = Some(names);

        if mark_advanced || completing {
            if let Some(mean) = mean_autocorr(state, &snap, dir) {
                let event = DeltaEvent::Autocorr {
                    dir,
                    lag: AUTOCORR_LAG_HOURS,
                    window: snap.watermark_hour,
                    mean,
                };
                if memory.autocorr_bits[slot] != Some(mean.to_bits()) {
                    round.push(event.clone());
                }
                baseline.push(event);
                memory.autocorr_bits[slot] = Some(mean.to_bits());
            }
        }
    }
    if completing {
        round.push(DeltaEvent::End { version });
    }
    if snap.complete {
        baseline.push(DeltaEvent::End { version });
        memory.ended = true;
    }

    let mut offered = 0u64;
    for sub in hub.snapshot_subs() {
        let events = if sub.primed() { &round } else { &baseline };
        for event in events {
            sub.offer(event);
            offered += 1;
        }
        sub.set_primed();
    }
    mobilenet_obs::add("serve.events", offered);
    memory.version = Some(version);
    memory.mark = Some(mark);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topics_parse_lists_and_reject_unknown() {
        assert_eq!(Topic::parse_list("all").unwrap(), Topic::ALL.to_vec());
        assert_eq!(
            Topic::parse_list("rank,watermark").unwrap(),
            vec![Topic::Rank, Topic::Watermark]
        );
        assert_eq!(Topic::parse_list("rank,rank").unwrap(), vec![Topic::Rank]);
        let err = Topic::parse_list("rank,nope").unwrap_err();
        assert!(err.contains("bad SUBSCRIBE: nope"), "unexpected message {err:?}");
    }

    #[test]
    fn events_round_trip_the_wire_codec_bit_for_bit() {
        let events = vec![
            DeltaEvent::Watermark { week: 2, hour: 167, complete: false },
            DeltaEvent::Version { version: 991 },
            DeltaEvent::Rank {
                dir: Direction::Down,
                churn: 3,
                entries: vec![
                    RankEntry {
                        name: "Facebook Video".into(),
                        share: 0.123456789012345e-1,
                        category: "video streaming".into(),
                    },
                    RankEntry {
                        name: "news/web portal".into(),
                        share: f64::MIN_POSITIVE,
                        category: "news/web".into(),
                    },
                ],
            },
            DeltaEvent::Autocorr {
                dir: Direction::Up,
                lag: 24,
                window: 168,
                mean: -0.25 - f64::EPSILON,
            },
            DeltaEvent::End { version: 1000 },
        ];
        for event in events {
            let wire = event.to_wire();
            let parsed = DeltaEvent::parse_wire(&wire).expect("codec round-trips");
            assert_eq!(parsed, event, "wire {wire:?}");
        }
        let empty = DeltaEvent::Rank { dir: Direction::Up, churn: 0, entries: vec![] };
        assert_eq!(DeltaEvent::parse_wire(&empty.to_wire()).unwrap(), empty);
        assert!(DeltaEvent::parse_wire("rank dl churn x y").is_err());
        assert!(DeltaEvent::parse_wire("nope 1").is_err());
    }

    #[test]
    fn catalog_tokens_never_collide_with_the_rank_wire_separators() {
        let catalog = mobilenet_traffic::ServiceCatalog::standard(16);
        for spec in catalog.head() {
            assert!(!spec.name.contains(['|', '=']), "service name {:?}", spec.name);
            let label = spec.category.label();
            assert!(!label.contains(['|', '=']), "category label {label:?}");
        }
    }

    #[test]
    fn slow_subscribers_drop_and_count_instead_of_blocking() {
        let hub = DeltaHub::new();
        let sub = hub.subscribe(vec![Topic::Version]);
        for v in 0..(SUBSCRIBER_QUEUE_EVENTS as u64 + 10) {
            sub.offer(&DeltaEvent::Version { version: v });
        }
        assert_eq!(sub.lagged(), 10, "events past the bound are dropped and counted");
        // Sequence numbers keep advancing across drops, so the consumer
        // sees the gap.
        let mut seen = Vec::new();
        while let Some((seq, _)) = sub.pop_wait(Duration::from_millis(1)) {
            seen.push(seq);
        }
        assert_eq!(seen.len(), SUBSCRIBER_QUEUE_EVENTS);
        assert_eq!(seen.first().copied(), Some(0));
        assert_eq!(seen.last().copied(), Some(SUBSCRIBER_QUEUE_EVENTS as u64 - 1));
        // Topic filtering never consumes sequence numbers.
        sub.offer(&DeltaEvent::Watermark { week: 0, hour: 1, complete: false });
        assert!(sub.pop_wait(Duration::from_millis(1)).is_none());
        hub.unsubscribe(&sub);
        assert!(!hub.has_subscribers());
    }
}
