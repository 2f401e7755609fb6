//! Snapshot queries and the request parser of the line protocol (its
//! grammar is in the crate docs).

use mobilenet_core::peaks::PeakConfig;
use mobilenet_core::{spatial_correlation_of, top_k_services, topical_profiles_of};
use mobilenet_traffic::Direction;

use crate::live::{LiveSnapshot, LiveState};
use crate::subscribe::{Topic, AUTOCORR_LAG_HOURS};

/// The protocol version `HELLO` reports. Bump when the grammar changes
/// incompatibly.
pub const PROTOCOL_VERSION: &str = "mobilenet-serve/v2";

/// A read-only question about the current live aggregate.
///
/// `#[non_exhaustive]`: new query kinds are non-breaking; construct via
/// the enum variants or [`SnapshotQuery::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotQuery {
    /// Top-`k` head services by share of total volume.
    Ranking {
        /// Direction ranked.
        dir: Direction,
        /// How many services to return.
        k: usize,
    },
    /// Pairwise spatial correlation (mean + per-service means).
    PairwiseR2 {
        /// Direction correlated.
        dir: Direction,
    },
    /// Topical peak profile of every head service.
    Peaks {
        /// Direction profiled.
        dir: Direction,
    },
    /// One service's national hourly series up to the watermark.
    Series {
        /// Direction read.
        dir: Direction,
        /// Head-service index.
        service: usize,
    },
    /// Hour-lag autocorrelation of the head services' national series
    /// over the observed window (the subscription statistic, on demand).
    Autocorr {
        /// Direction measured.
        dir: Direction,
        /// Hour lag (`AUTOCORR` defaults this to 24, the diurnal period).
        lag: usize,
    },
    /// Observed frontier, completeness, state version and week position.
    Watermark,
    /// Streaming-engine accounting.
    Stats,
    /// The full dataset in batch-export CSV format.
    Dataset,
    /// Health endpoint: the `serve.*` / `netsim.ingest.*` slice of the
    /// observability registry.
    Health,
}

/// One parsed protocol line: a session verb, a query, or a
/// connection-control verb.
///
/// `#[non_exhaustive]`: new verbs are non-breaking; construct via
/// [`Command::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Command {
    /// Protocol version + capability handshake.
    Hello,
    /// Enumerate registered studies.
    List,
    /// Select a study for this connection.
    Use(String),
    /// Register and start a new study.
    Start {
        /// Registry name for the new study.
        name: String,
        /// Scale tier token (`small`/`medium`/`france`/`national`).
        scale: String,
        /// Demand-model seed (registry default when absent).
        seed: Option<u64>,
        /// Weeks to fold through the ring (default 1).
        weeks: Option<usize>,
    },
    /// Stream delta events for the selected topics.
    Subscribe(Vec<Topic>),
    /// Answer a snapshot query.
    Query(SnapshotQuery),
    /// Close this connection.
    Quit,
    /// Close this connection and stop the server.
    Shutdown,
}

/// Parses a wire direction token (`dl`/`ul`).
pub(crate) fn parse_dir(token: &str) -> Result<Direction, String> {
    match token.to_ascii_lowercase().as_str() {
        "dl" => Ok(Direction::Down),
        "ul" => Ok(Direction::Up),
        other => Err(format!("{other} (expected dl or ul)")),
    }
}

/// The wire token of a direction (inverse of [`parse_dir`]).
pub(crate) fn dir_token(dir: Direction) -> &'static str {
    match dir {
        Direction::Down => "dl",
        Direction::Up => "ul",
    }
}

/// Each of the first `n_head` services' [`hour_lag_autocorr`] over the
/// snapshot's observed national window, in service order, and the mean of
/// the defined ones, summed in service order (`None` until the window can
/// support the lag). The `AUTOCORR` answer and the subscription's autocorr
/// event both read it, so they agree bit for bit.
pub(crate) fn head_autocorrs(
    snap: &LiveSnapshot,
    n_head: usize,
    dir: Direction,
    lag: usize,
) -> (Vec<Option<f64>>, Option<f64>) {
    let per_service: Vec<Option<f64>> = (0..n_head)
        .map(|service| {
            let series = snap
                .dataset
                .national_series_window(dir, service, 0, snap.watermark_hour);
            hour_lag_autocorr(series, lag)
        })
        .collect();
    let mut sum = 0.0;
    let mut defined = 0usize;
    for r in per_service.iter().flatten() {
        sum += r;
        defined += 1;
    }
    (per_service, (defined > 0).then(|| sum / defined as f64))
}

/// Pearson autocorrelation of `series` at `lag` hours: the correlation
/// between the series and itself shifted by `lag`. `None` when the
/// series is shorter than `lag + 2` points or either window is
/// constant (no defined correlation) — never NaN.
///
/// This is the Jo-style handset-usage temporal statistic (PAPERS.md):
/// at lag 24 it measures how faithfully a service repeats its diurnal
/// rhythm day over day.
pub(crate) fn hour_lag_autocorr(series: &[f64], lag: usize) -> Option<f64> {
    // `series.len() < lag + 2`, without the overflow at `lag` near
    // `usize::MAX`.
    if lag == 0 || lag >= series.len().saturating_sub(1) {
        return None;
    }
    let n = series.len() - lag;
    let lead = &series[..n];
    let shifted = &series[lag..];
    let mean_lead = lead.iter().sum::<f64>() / n as f64;
    let mean_shift = shifted.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut var_lead = 0.0;
    let mut var_shift = 0.0;
    for i in 0..n {
        let da = lead[i] - mean_lead;
        let db = shifted[i] - mean_shift;
        cov += da * db;
        var_lead += da * da;
        var_shift += db * db;
    }
    if var_lead == 0.0 || var_shift == 0.0 {
        return None;
    }
    Some(cov / (var_lead * var_shift).sqrt())
}

impl SnapshotQuery {
    /// Parses one protocol line into a query (see the module docs for
    /// the grammar). Session and connection-control verbs are rejected
    /// here; use [`Command::parse`] when speaking the full protocol.
    pub fn parse(line: &str) -> Result<SnapshotQuery, String> {
        match Command::parse(line)? {
            Command::Query(q) => Ok(q),
            other => Err(format!("{other:?} is not a snapshot query")),
        }
    }
}

impl Command {
    /// Parses one protocol line. Errors carry the offending token in the
    /// unified `bad <verb>: <token> (expected ...)` shape.
    pub fn parse(line: &str) -> Result<Command, String> {
        let mut tokens = line.split_whitespace();
        let verb = tokens
            .next()
            .ok_or_else(|| "bad request: empty line (expected a verb)".to_string())?
            .to_ascii_uppercase();
        let mut operand = |name: &str| {
            tokens
                .next()
                .ok_or_else(|| format!("bad {verb}: missing {name}"))
        };
        let cmd = match verb.as_str() {
            "HELLO" => Command::Hello,
            "LIST" => Command::List,
            "USE" => Command::Use(operand("<study>")?.to_string()),
            "START" => {
                let name = operand("<study>")?.to_string();
                let scale = operand("<scale>")?.to_string();
                let seed = match tokens.next() {
                    None => None,
                    Some(t) => Some(
                        t.parse::<u64>()
                            .map_err(|_| format!("bad START: {t} (expected an integer seed)"))?,
                    ),
                };
                let weeks =
                    match tokens.next() {
                        None => None,
                        Some(t) => Some(t.parse::<usize>().map_err(|_| {
                            format!("bad START: {t} (expected an integer week count)")
                        })?),
                    };
                Command::Start {
                    name,
                    scale,
                    seed,
                    weeks,
                }
            }
            "SUBSCRIBE" => Command::Subscribe(Topic::parse_list(operand("<topics>")?)?),
            "RANK" => {
                let dir = operand("<dir> <k>")
                    .and_then(|t| parse_dir(t).map_err(|e| format!("bad RANK: {e}")))?;
                let k = operand("<dir> <k>").and_then(|t| {
                    t.parse::<usize>()
                        .map_err(|_| format!("bad RANK: {t} (expected an integer k)"))
                })?;
                Command::Query(SnapshotQuery::Ranking { dir, k })
            }
            "R2" => Command::Query(SnapshotQuery::PairwiseR2 {
                dir: operand("<dir>")
                    .and_then(|t| parse_dir(t).map_err(|e| format!("bad R2: {e}")))?,
            }),
            "PEAKS" => Command::Query(SnapshotQuery::Peaks {
                dir: operand("<dir>")
                    .and_then(|t| parse_dir(t).map_err(|e| format!("bad PEAKS: {e}")))?,
            }),
            "SERIES" => {
                let dir = operand("<dir> <service>")
                    .and_then(|t| parse_dir(t).map_err(|e| format!("bad SERIES: {e}")))?;
                let service = operand("<dir> <service>").and_then(|t| {
                    t.parse::<usize>()
                        .map_err(|_| format!("bad SERIES: {t} (expected a service index)"))
                })?;
                Command::Query(SnapshotQuery::Series { dir, service })
            }
            "AUTOCORR" => {
                let dir = operand("<dir> [lag]")
                    .and_then(|t| parse_dir(t).map_err(|e| format!("bad AUTOCORR: {e}")))?;
                let lag = match tokens.next() {
                    None => AUTOCORR_LAG_HOURS,
                    Some(t) => t
                        .parse::<usize>()
                        .map_err(|_| format!("bad AUTOCORR: {t} (expected an integer hour lag)"))?,
                };
                Command::Query(SnapshotQuery::Autocorr { dir, lag })
            }
            "WATERMARK" => Command::Query(SnapshotQuery::Watermark),
            "STATS" => Command::Query(SnapshotQuery::Stats),
            "DATASET" => Command::Query(SnapshotQuery::Dataset),
            "HEALTH" => Command::Query(SnapshotQuery::Health),
            "QUIT" => Command::Quit,
            "SHUTDOWN" => Command::Shutdown,
            other => {
                return Err(format!(
                    "bad verb: {other} (expected HELLO, LIST, USE, START, SUBSCRIBE, RANK, R2, \
                     PEAKS, SERIES, AUTOCORR, WATERMARK, STATS, DATASET, HEALTH, QUIT or SHUTDOWN)"
                ))
            }
        };
        if let Some(extra) = tokens.next() {
            return Err(format!("bad {verb}: {extra} (unexpected trailing operand)"));
        }
        Ok(cmd)
    }
}

/// Answers `query` against the state's current snapshot, as protocol body
/// lines.
///
/// Analytical queries delegate to the exact batch analysis functions
/// ([`top_k_services`], [`spatial_correlation_of`],
/// [`topical_profiles_of`]) over the snapshot dataset, so on a complete
/// week the answers are bit-identical to a batch run's.
pub fn answer(state: &LiveState, query: &SnapshotQuery) -> Result<Vec<String>, String> {
    let snap = state.snapshot();
    answer_snapshot(state, &snap, query)
}

fn answer_snapshot(
    state: &LiveState,
    snap: &LiveSnapshot,
    query: &SnapshotQuery,
) -> Result<Vec<String>, String> {
    let head = state.catalog().head();
    match query {
        SnapshotQuery::Ranking { dir, k } => {
            // `top_k_services` itself clamps, but the protocol surfaces
            // the bound explicitly: a client asking for 0 or more than
            // the head holds gets an ERR, never a silently-resized body.
            if *k == 0 {
                return Err("k must be at least 1".into());
            }
            if *k > head.len() {
                return Err(format!("k {k} out of range (head has {})", head.len()));
            }
            let top = top_k_services(&snap.dataset, head, *dir, *k);
            Ok(top
                .iter()
                .map(|s| format!("{} {:e} {}", s.name, s.share_of_total, s.category.label()))
                .collect())
        }
        SnapshotQuery::PairwiseR2 { dir } => {
            let corr = spatial_correlation_of(&snap.dataset, state.service_names(), *dir);
            let mut lines = vec![format!("mean {:e}", corr.mean_r2)];
            for (s, name) in corr.names.iter().enumerate() {
                lines.push(format!("{name} {:e}", corr.service_mean_r2(s)));
            }
            Ok(lines)
        }
        SnapshotQuery::Peaks { dir } => {
            let profiles = topical_profiles_of(
                &snap.dataset,
                state.service_names(),
                *dir,
                &PeakConfig::paper(),
            );
            Ok(profiles
                .iter()
                .map(|p| {
                    let times: Vec<String> =
                        p.peak_times().iter().map(|t| format!("{t:?}")).collect();
                    let times = if times.is_empty() {
                        "-".to_string()
                    } else {
                        times.join(",")
                    };
                    format!("{} {times}", p.name)
                })
                .collect())
        }
        SnapshotQuery::Series { dir, service } => {
            if *service >= head.len() {
                return Err(format!(
                    "service index {service} out of range (head has {})",
                    head.len()
                ));
            }
            let window =
                snap.dataset
                    .national_series_window(*dir, *service, 0, snap.watermark_hour);
            let values: Vec<String> = window.iter().map(|v| format!("{v:e}")).collect();
            Ok(vec![format!(
                "{} {}",
                head[*service].name,
                values.join(" ")
            )])
        }
        SnapshotQuery::Autocorr { dir, lag } => {
            if *lag == 0 {
                return Err("lag must be at least 1".into());
            }
            let (per_service, mean) = head_autocorrs(snap, head.len(), *dir, *lag);
            let mean = mean.map_or_else(|| "-".to_string(), |m| format!("{m:e}"));
            let mut lines = vec![format!(
                "lag {lag} window {} mean {mean}",
                snap.watermark_hour
            )];
            lines.extend(head.iter().zip(per_service).map(|(spec, r)| match r {
                Some(r) => format!("{} {r:e}", spec.name),
                None => format!("{} -", spec.name),
            }));
            Ok(lines)
        }
        SnapshotQuery::Watermark => Ok(vec![format!(
            "hour {} complete {} version {} week {} weeks {}",
            snap.watermark_hour, snap.complete, snap.version, snap.week, snap.weeks
        )]),
        SnapshotQuery::Stats => {
            let i = &snap.ingest;
            Ok(vec![
                format!("chunks {}", i.chunks),
                format!("records {}", i.records),
                format!("peak_resident_records {}", i.peak_resident_records),
                format!("resident_budget {}", i.resident_budget()),
                format!("bytes_read {}", i.bytes_read),
                format!("chunk_size {}", i.chunk_size),
                format!("workers {}", i.workers),
                format!("cycles {}", i.cycles),
                format!("sessions {}", snap.stats.sessions),
                format!("lost_records {}", snap.stats.faults.lost_total()),
            ])
        }
        SnapshotQuery::Dataset => Ok(snap.dataset.to_csv().lines().map(str::to_string).collect()),
        SnapshotQuery::Health => {
            let health = mobilenet_obs::snapshot().filtered(&["serve.", "netsim.ingest."]);
            let mut lines = Vec::new();
            for (name, v) in &health.counters {
                lines.push(format!("counter {name} {v}"));
            }
            for (name, v) in &health.fcounters {
                lines.push(format!("fcounter {name} {v:e}"));
            }
            for (name, v) in &health.gauges {
                lines.push(format!("gauge {name} {v:e}"));
            }
            Ok(lines)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_verbs_parse_and_errors_carry_the_offending_token() {
        assert_eq!(Command::parse("hello").unwrap(), Command::Hello);
        assert_eq!(Command::parse("LIST").unwrap(), Command::List);
        assert_eq!(
            Command::parse("USE alpha").unwrap(),
            Command::Use("alpha".into())
        );
        assert_eq!(
            Command::parse("START beta small 7 2").unwrap(),
            Command::Start {
                name: "beta".into(),
                scale: "small".into(),
                seed: Some(7),
                weeks: Some(2)
            }
        );
        assert_eq!(
            Command::parse("SUBSCRIBE rank,watermark").unwrap(),
            Command::Subscribe(vec![Topic::Rank, Topic::Watermark])
        );
        assert_eq!(
            Command::parse("AUTOCORR dl").unwrap(),
            Command::Query(SnapshotQuery::Autocorr {
                dir: Direction::Down,
                lag: AUTOCORR_LAG_HOURS
            })
        );

        let err = Command::parse("RANK dl twenty").unwrap_err();
        assert!(
            err.starts_with("bad RANK: twenty"),
            "unexpected message {err:?}"
        );
        let err = Command::parse("RANK sideways 3").unwrap_err();
        assert!(
            err.starts_with("bad RANK: sideways"),
            "unexpected message {err:?}"
        );
        let err = Command::parse("USE").unwrap_err();
        assert!(
            err.starts_with("bad USE: missing"),
            "unexpected message {err:?}"
        );
        let err = Command::parse("WATERMARK extra").unwrap_err();
        assert!(
            err.starts_with("bad WATERMARK: extra"),
            "unexpected message {err:?}"
        );
        let err = Command::parse("FROBNICATE").unwrap_err();
        assert!(
            err.starts_with("bad verb: FROBNICATE"),
            "unexpected message {err:?}"
        );
    }

    fn alternating_48() -> Vec<f64> {
        (0..48)
            .map(|h| if h % 2 == 0 { 1.0 } else { -1.0 })
            .collect()
    }

    #[test]
    fn hour_lag_autocorr_matches_hand_cases() {
        // A perfect 24h-periodic series correlates exactly at lag 24.
        let periodic: Vec<f64> = (0..168).map(|h| ((h % 24) as f64).sin()).collect();
        let r = hour_lag_autocorr(&periodic, 24).unwrap();
        assert!((r - 1.0).abs() < 1e-12, "periodic series lag-24 r = {r}");
        // A constant series has no defined correlation.
        assert_eq!(hour_lag_autocorr(&[1.0; 168], 24), None);
        // Too-short windows are None, not NaN.
        assert_eq!(hour_lag_autocorr(&periodic[..25], 24), None);
        assert_eq!(hour_lag_autocorr(&periodic, 0), None);
        // Lags near `usize::MAX` are too long, not an overflow.
        assert_eq!(hour_lag_autocorr(&alternating_48(), usize::MAX), None);
        assert_eq!(hour_lag_autocorr(&alternating_48(), usize::MAX - 1), None);
        // The longest defined lag leaves two points.
        assert!(hour_lag_autocorr(&periodic[..26], 24).is_some());
        // An alternating series anti-correlates at lag 1.
        let r = hour_lag_autocorr(&alternating_48(), 1).unwrap();
        assert!((r + 1.0).abs() < 1e-12, "alternating series lag-1 r = {r}");
    }
}
