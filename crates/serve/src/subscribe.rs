//! Delta subscriptions: framed change events pushed to clients instead
//! of polled snapshots.
//!
//! A `SUBSCRIBE` turns a protocol connection into an event stream. The
//! connection keeps its own `DeltaCursor`, the record of what it has
//! already told its client. Whenever the study's version moves past the
//! cursor's, the connection takes the version-cached snapshot and the
//! cursor turns it into one round of [`DeltaEvent`]s:
//!
//! * watermark advances (`(week, hour)` lexicographic, plus completion);
//! * version bumps (coalesced — one event per round);
//! * per-direction **rank churn**: the full head ranking, emitted when
//!   the *order* changes (and always once at completion, so replaying a
//!   subscription ends bit-identical to a polled `RANK`);
//! * the Jo-style **hour-lag autocorrelation** (PAPERS.md: Jo et al.'s
//!   handset-usage spatiotemporal correlations): the mean lag-24
//!   diurnal autocorrelation of the head services' national series over
//!   the observed window, re-derived per watermark advance.
//!
//! A fresh cursor has sent nothing, so its first round is the baseline:
//! the watermark, the version, both full rankings and the
//! autocorrelations, plus `end` on a completed study.
//!
//! # No queue, no drops
//!
//! Nothing is buffered per subscriber. A connection computes its next
//! round only once it has written the previous one, so a slow reader
//! falls behind by whole rounds: the cursor compares the next snapshot
//! with what it last sent, which merges every change the reader missed
//! into that round, and no event is ever dropped. The ingest path only
//! *notifies* ([`VersionNotifier`](crate::live::VersionNotifier)); it
//! never touches a socket or builds a snapshot for a subscriber.

use mobilenet_core::top_k_services;
use mobilenet_traffic::Direction;

use crate::live::{LiveSnapshot, LiveState};
use crate::query::{dir_token, head_autocorrs, parse_dir};

/// Hour lag of the subscription autocorrelation statistic: one day, the
/// diurnal period the paper's temporal analyses revolve around.
pub(crate) const AUTOCORR_LAG_HOURS: usize = 24;

/// One subscribable event family.
///
/// `#[non_exhaustive]`: new families are non-breaking; parse via
/// [`Topic::parse_list`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Topic {
    /// Watermark advances (week, hour, completion).
    Watermark,
    /// State version bumps (coalesced: at most one per round a
    /// subscription sends).
    Version,
    /// Per-direction rank churn.
    Rank,
    /// Hour-lag autocorrelation updates.
    Autocorr,
}

impl Topic {
    /// Every topic, in wire order.
    pub const ALL: [Topic; 4] = [
        Topic::Watermark,
        Topic::Version,
        Topic::Rank,
        Topic::Autocorr,
    ];

    /// The wire token of this topic.
    pub(crate) fn token(self) -> &'static str {
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
    /// The state version moved (coalesced: at most one per round).
    Version {
        /// Current state version.
        version: u64,
    },
    /// A direction's head ranking changed order (always also emitted
    /// once at completion, carrying the final shares).
    Rank {
        /// Direction ranked.
        dir: Direction,
        /// Positions whose service differs from the previously sent
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
        /// Hour lag (24, the diurnal period).
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
    pub(crate) fn topic(&self) -> Option<Topic> {
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
    /// parsed event reconstructs the sent value bit for bit.
    pub fn to_wire(&self) -> String {
        match self {
            DeltaEvent::Watermark {
                week,
                hour,
                complete,
            } => {
                format!("watermark week {week} hour {hour} complete {complete}")
            }
            DeltaEvent::Version { version } => format!("version {version}"),
            DeltaEvent::Rank {
                dir,
                churn,
                entries,
            } => {
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
            DeltaEvent::Autocorr {
                dir,
                lag,
                window,
                mean,
            } => {
                format!(
                    "autocorr {} lag {lag} window {window} mean {mean:e}",
                    dir_token(*dir)
                )
            }
            DeltaEvent::End { version } => format!("end {version}"),
        }
    }

    /// Parses a wire payload rendered by [`DeltaEvent::to_wire`].
    pub fn parse_wire(payload: &str) -> Result<DeltaEvent, String> {
        let mut tokens = payload.split_whitespace();
        let kind = tokens
            .next()
            .ok_or_else(|| "empty event payload".to_string())?;
        let mut expect = |name: &str| {
            tokens
                .next()
                .ok_or_else(|| format!("bad event: truncated {kind} (missing {name})"))
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
                DeltaEvent::Watermark {
                    week,
                    hour,
                    complete,
                }
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
                DeltaEvent::Autocorr {
                    dir,
                    lag,
                    window,
                    mean,
                }
            }
            "end" => DeltaEvent::End {
                version: parse_num(expect("version")?, "version")?,
            },
            other => return Err(format!("bad event: unknown kind {other:?}")),
        };
        Ok(event)
    }
}

/// Parses one numeric event field, naming the field in the error.
fn parse_num<T: std::str::FromStr>(token: &str, what: &str) -> Result<T, String> {
    token
        .parse::<T>()
        .map_err(|_| format!("bad event: {what} {token:?}"))
}

/// Parses a `rank` payload off the raw string: the entry body is taken
/// verbatim after the churn token (service names and category labels
/// contain spaces, so whitespace tokenization would shred it).
///
/// Names and labels must not contain the separators
/// [`DeltaEvent::to_wire`] uses: `|` between entries, `=` between
/// fields, and no newline. The standard catalog satisfies this (names
/// and labels use letters, digits, spaces and `/`), pinned by a unit
/// test below.
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
            let share = fields
                .next()
                .ok_or_else(|| format!("bad event: rank entry {part:?}"))?;
            let category = fields
                .next()
                .ok_or_else(|| format!("bad event: rank entry {part:?}"))?;
            entries.push(RankEntry {
                name: name.to_string(),
                share: share
                    .parse::<f64>()
                    .map_err(|_| format!("bad event: rank share {share:?}"))?,
                category: category.to_string(),
            });
        }
    }
    Ok(DeltaEvent::Rank {
        dir,
        churn,
        entries,
    })
}

/// What one subscription has sent its client so far, from which the
/// next round's deltas are derived. A fresh cursor has sent nothing.
#[derive(Debug, Default)]
pub(crate) struct DeltaCursor {
    version: Option<u64>,
    mark: Option<(usize, usize, bool)>,
    /// Last sent ranking order per direction (service names).
    rank_names: [Option<Vec<String>>; 2],
    autocorr_bits: [Option<u64>; 2],
    ended: bool,
}

impl DeltaCursor {
    /// The state version of the last round (`None` before the first).
    pub(crate) fn version(&self) -> Option<u64> {
        self.version
    }

    /// Whether a round has carried `end`: the stream is over.
    pub(crate) fn ended(&self) -> bool {
        self.ended
    }

    /// The events that bring the client from what this cursor last sent
    /// up to `snap`, in wire order: watermark, version, then rank and
    /// autocorr for `dl` and for `ul`, then `end`.
    pub(crate) fn round(&mut self, state: &LiveState, snap: &LiveSnapshot) -> Vec<DeltaEvent> {
        let (week, hour, complete) = (snap.week, snap.watermark_hour, snap.complete);
        // Lexicographic advance only: the watermark a client sees never
        // goes backwards within a week.
        let mark_advanced = self
            .mark
            .is_none_or(|(w, h, c)| (week, hour) > (w, h) || (complete && !c));
        let completing = complete && !self.ended;

        let mut round = Vec::new();
        if mark_advanced {
            round.push(DeltaEvent::Watermark {
                week,
                hour,
                complete,
            });
            self.mark = Some((week, hour, complete));
        }
        if self.version != Some(snap.version) {
            round.push(DeltaEvent::Version {
                version: snap.version,
            });
            self.version = Some(snap.version);
        }
        let head = state.catalog().head();
        for (slot, dir) in [Direction::Down, Direction::Up].into_iter().enumerate() {
            let entries: Vec<RankEntry> = top_k_services(&snap.dataset, head, dir, head.len())
                .iter()
                .map(|s| RankEntry {
                    name: s.name.to_string(),
                    share: s.share_of_total,
                    category: s.category.label().to_string(),
                })
                .collect();
            let names: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();
            let churn = match &self.rank_names[slot] {
                None => Some(entries.len()),
                Some(prev) => {
                    let moved = names
                        .iter()
                        .enumerate()
                        .filter(|(i, name)| prev.get(*i) != Some(name))
                        .count()
                        .max(prev.len().saturating_sub(names.len()));
                    (moved > 0 || completing).then_some(moved)
                }
            };
            if let Some(churn) = churn {
                round.push(DeltaEvent::Rank {
                    dir,
                    churn,
                    entries,
                });
            }
            self.rank_names[slot] = Some(names);

            if mark_advanced || completing {
                if let (_, Some(mean)) = head_autocorrs(snap, head.len(), dir, AUTOCORR_LAG_HOURS) {
                    if self.autocorr_bits[slot] != Some(mean.to_bits()) {
                        round.push(DeltaEvent::Autocorr {
                            dir,
                            lag: AUTOCORR_LAG_HOURS,
                            window: hour,
                            mean,
                        });
                        self.autocorr_bits[slot] = Some(mean.to_bits());
                    }
                }
            }
        }
        if completing {
            round.push(DeltaEvent::End {
                version: snap.version,
            });
            self.ended = true;
        }
        round
    }
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
        assert!(
            err.contains("bad SUBSCRIBE: nope"),
            "unexpected message {err:?}"
        );
    }

    #[test]
    fn events_round_trip_the_wire_codec_bit_for_bit() {
        let events = vec![
            DeltaEvent::Watermark {
                week: 2,
                hour: 167,
                complete: false,
            },
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
        let empty = DeltaEvent::Rank {
            dir: Direction::Up,
            churn: 0,
            entries: vec![],
        };
        assert_eq!(DeltaEvent::parse_wire(&empty.to_wire()).unwrap(), empty);
        assert!(DeltaEvent::parse_wire("rank dl churn x y").is_err());
        assert!(DeltaEvent::parse_wire("nope 1").is_err());
    }

    #[test]
    fn catalog_tokens_never_collide_with_the_rank_wire_separators() {
        let catalog = mobilenet_traffic::ServiceCatalog::standard(16);
        for spec in catalog.head() {
            assert!(
                !spec.name.contains(['|', '=']),
                "service name {:?}",
                spec.name
            );
            let label = spec.category.label();
            assert!(!label.contains(['|', '=']), "category label {label:?}");
        }
    }

    /// The kind (and direction) of each event in a round.
    fn kinds(round: &[DeltaEvent]) -> Vec<String> {
        round
            .iter()
            .map(|event| match event {
                DeltaEvent::Watermark { .. } => "watermark".to_string(),
                DeltaEvent::Version { .. } => "version".to_string(),
                DeltaEvent::Rank { dir, .. } => format!("rank {}", dir_token(*dir)),
                DeltaEvent::Autocorr { dir, .. } => format!("autocorr {}", dir_token(*dir)),
                DeltaEvent::End { .. } => "end".to_string(),
            })
            .collect()
    }

    #[test]
    fn a_fresh_cursor_opens_with_the_baseline_and_repeats_nothing() {
        let state =
            LiveState::from_config(&mobilenet_core::StudyConfig::small(), 3).expect("valid config");
        // Before ingestion the window is too short for the lag and the
        // study is not complete: no autocorrelation, no end.
        let mut early = DeltaCursor::default();
        let snap = state.snapshot();
        assert_eq!(
            kinds(&early.round(&state, &snap)),
            ["watermark", "version", "rank dl", "rank ul"]
        );
        assert!(
            early.round(&state, &snap).is_empty(),
            "same version, nothing new"
        );
        assert_eq!(early.version(), Some(snap.version));
        assert!(!early.ended());

        state.run_ingestion().expect("ingestion succeeds");
        let snap = state.snapshot();
        assert!(snap.complete);
        let baseline = [
            "watermark",
            "version",
            "rank dl",
            "autocorr dl",
            "rank ul",
            "autocorr ul",
            "end",
        ];
        let mut fresh = DeltaCursor::default();
        let opening = fresh.round(&state, &snap);
        assert_eq!(kinds(&opening), baseline);
        assert!(fresh.ended());
        assert!(
            fresh.round(&state, &snap).is_empty(),
            "same version, nothing new"
        );

        // A cursor that fell behind catches up in one merged round that
        // ends on the same final events a fresh cursor opens with.
        let catch_up = early.round(&state, &snap);
        assert_eq!(kinds(&catch_up), baseline);
        for (caught, opened) in catch_up.iter().zip(&opening) {
            // Only the churn count differs: it is measured against what
            // each cursor sent before.
            if let (DeltaEvent::Rank { entries: a, .. }, DeltaEvent::Rank { entries: b, .. }) =
                (caught, opened)
            {
                assert_eq!(a, b);
            } else {
                assert_eq!(caught, opened);
            }
        }
    }
}
