//! Probe-trace persistence and replay.
//!
//! The real apparatus separates *capture* (probes writing session records)
//! from *analysis* (batch aggregation of those records). This module
//! provides the same separation for the simulator: session records can be
//! streamed to a CSV trace, re-read later, and replayed through the DPI
//! stage into a [`TrafficDataset`] — so a captured trace can be
//! re-aggregated under different classifier tables without re-simulating
//! the radio layer.
//!
//! Capture and replay both understand degraded collection: a
//! [`FaultPlan`](crate::faults::FaultPlan) in [`CollectOptions`]
//! degrades the captured stream exactly as
//! [`collect_with_options`](crate::pipeline::collect_with_options) would
//! (see [`observe_with_options`]), and [`replay_from`] skips and counts
//! malformed or non-finite lines (with 1-based line numbers) instead of
//! aborting the whole replay.
//!
//! Traces stream both ways: [`trace_to_csv`] serializes records one line
//! at a time, and one line reader serves both read paths.
//! [`read_trace_from`] is strict and returns the records;
//! [`replay_from`] streams them into the bounded-memory
//! [`ShardedFold`](crate::ShardedFold) without ever materializing the
//! record vector. Records already in memory replay through
//! [`ingest`](crate::ingest()) over a [`SliceSource`](crate::SliceSource).

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use mobilenet_geo::CommuneId;
use mobilenet_traffic::{DemandModel, TrafficDataset, HOURS_PER_WEEK};

use crate::config::NetsimConfig;
use crate::faults::FaultStats;
use crate::ingest::{CollectOptions, IngestError, RecordSource, TraceSource};
use crate::pipeline::{Capture, CollectionStats};
use crate::records::{FlowSignature, Interface, SessionRecord};

/// CSV header of a trace file.
pub(crate) const TRACE_HEADER: &str = "#mobilenet-trace v1";

/// What one capture run saw and emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureSummary {
    /// Sessions observed by the probes (pre-fault).
    pub sessions: u64,
    /// Records actually delivered to the sink (post-fault).
    pub emitted: u64,
    /// Degradation the fault plan inflicted.
    pub faults: FaultStats,
}

/// Runs the capture side only: sessions → probes → (faults) → `sink`, one
/// record per session, without aggregation.
///
/// Deterministic in `(model, config, options, seed)` and produces exactly
/// the records
/// [`collect_with_options`](crate::pipeline::collect_with_options) would
/// aggregate: the capture runs the same per-shard blocked probe loop of
/// [`SyntheticSource`](crate::pipeline::SyntheticSource), serially in
/// shard order (the trace is an ordered artefact, so the stream itself is
/// not parallelized). Memory stays bounded by one probe block of sessions
/// and their observations — records reach `sink` as they are produced —
/// so `options.chunk_size` does not change its behaviour; it is still
/// validated so one `CollectOptions` value can drive both paths.
pub fn observe_with_options(
    model: &DemandModel,
    config: &NetsimConfig,
    options: &CollectOptions,
    seed: u64,
    mut sink: impl FnMut(&SessionRecord),
) -> Result<CaptureSummary, String> {
    config.validate()?;
    options.validate()?;
    let capture = Capture::build(model, config, seed)?;
    let source = capture.source(model, options, seed);
    let mut summary = CaptureSummary::default();
    for shard in 0..source.shards() {
        let mut stats = CollectionStats::default();
        summary.emitted += source.probe_shard(shard, &mut stats, &mut sink);
        summary.sessions += stats.sessions;
        summary.faults.merge(&stats.faults);
    }
    Ok(summary)
}

/// Serializes one record as a CSV line (no trailing newline).
pub fn record_to_line(r: &SessionRecord) -> String {
    format!(
        "{},{},{:e},{:e},{},{:#x},{}",
        match r.interface {
            Interface::Gn => "gn",
            Interface::S5S8 => "s5s8",
        },
        r.start_hour,
        r.dl_mb,
        r.ul_mb,
        r.commune.0,
        r.signature.0,
        if r.stale_uli { 1 } else { 0 }
    )
}

/// Parses a line written by [`record_to_line`].
///
/// Rejects anything that could poison downstream aggregates: non-finite
/// or negative volumes, and a `start_hour` outside the measurement week
/// (`0..168`).
pub fn record_from_line(line: &str) -> Result<SessionRecord, String> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 7 {
        return Err(format!("expected 7 fields, got {}", fields.len()));
    }
    let interface = match fields[0] {
        "gn" => Interface::Gn,
        "s5s8" => Interface::S5S8,
        other => return Err(format!("unknown interface {other:?}")),
    };
    let start_hour: u16 = fields[1].parse().map_err(|e| format!("bad hour: {e}"))?;
    if start_hour >= HOURS_PER_WEEK as u16 {
        return Err(format!(
            "start hour {start_hour} outside the week (0..{HOURS_PER_WEEK})"
        ));
    }
    let volume = |name: &str, v: &str| -> Result<f64, String> {
        let parsed: f64 = v.parse().map_err(|e| format!("bad {name}: {e}"))?;
        if !parsed.is_finite() {
            return Err(format!("non-finite {name} volume {parsed}"));
        }
        if parsed < 0.0 {
            return Err(format!("negative {name} volume {parsed}"));
        }
        Ok(parsed)
    };
    let dl_mb = volume("dl", fields[2])?;
    let ul_mb = volume("ul", fields[3])?;
    let commune: u32 = fields[4].parse().map_err(|e| format!("bad commune: {e}"))?;
    let sig = fields[5]
        .strip_prefix("0x")
        .ok_or("signature must be hex")?;
    let signature = u64::from_str_radix(sig, 16).map_err(|e| format!("bad signature: {e}"))?;
    let stale_uli = match fields[6] {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad stale flag {other:?}")),
    };
    Ok(SessionRecord {
        interface,
        start_hour,
        dl_mb,
        ul_mb,
        commune: CommuneId(commune),
        signature: FlowSignature(signature),
        stale_uli,
    })
}

/// Streams a whole trace (header + one line per record) to any writer —
/// records are serialized one at a time, so a capture can be piped
/// straight to disk without materializing the trace text.
pub(crate) fn write_trace_to<'a, W: Write>(
    mut writer: W,
    records: impl IntoIterator<Item = &'a SessionRecord>,
) -> std::io::Result<()> {
    writeln!(writer, "{TRACE_HEADER}")?;
    for r in records {
        writeln!(writer, "{}", record_to_line(r))?;
    }
    Ok(())
}

/// Serializes a whole trace (header + one line per record) as a
/// `String`.
pub fn trace_to_csv<'a>(records: impl IntoIterator<Item = &'a SessionRecord>) -> String {
    let mut out = Vec::new();
    write_trace_to(&mut out, records).expect("writing a trace to memory cannot fail");
    String::from_utf8(out).expect("trace lines are ASCII")
}

/// A parse failure in [`read_trace_from`], locating the offending row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number of the offending row.
    pub line: usize,
    /// What went wrong on that line.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

/// Walks a trace from any reader, line by line, dispatching each parsed
/// record (or line-numbered parse failure) to `on_row` and adding every
/// line's bytes, header included, to `bytes`. A missing header and I/O
/// errors are reported as a [`TraceError`] at the line where reading
/// failed. The one trace line reader: [`read_trace_from`] and
/// [`TraceSource`] both go through it.
pub(crate) fn walk_trace<R: BufRead>(
    mut reader: R,
    bytes: &AtomicU64,
    mut on_row: impl FnMut(Result<SessionRecord, TraceError>) -> Result<(), TraceError>,
) -> Result<(), TraceError> {
    let mut line = String::new();
    let mut line_no = 0usize;
    let read_line = |reader: &mut R, line: &mut String, line_no: usize| {
        line.clear();
        let n = reader.read_line(line).map_err(|e| TraceError {
            line: line_no + 1,
            message: format!("i/o error: {e}"),
        })?;
        bytes.fetch_add(n as u64, Ordering::Relaxed);
        // Same semantics as `str::lines`: strip one `\n`, then at most
        // one `\r` before it.
        if line.ends_with('\n') {
            line.pop();
            if line.ends_with('\r') {
                line.pop();
            }
        }
        Ok::<bool, TraceError>(n > 0)
    };
    if !read_line(&mut reader, &mut line, line_no)? || line != TRACE_HEADER {
        return Err(TraceError {
            line: 1,
            message: "missing/unsupported trace header".into(),
        });
    }
    line_no = 1;
    while read_line(&mut reader, &mut line, line_no)? {
        line_no += 1;
        on_row(record_from_line(&line).map_err(|message| TraceError {
            line: line_no,
            message,
        }))?;
    }
    Ok(())
}

/// Reads a trace incrementally from any reader, strictly: the first bad
/// line aborts the parse, and the error carries the 1-based line number
/// of the offending row. For bounded-memory *aggregation* of a trace, see
/// [`replay_from`] (which never materializes the record vector at all).
pub fn read_trace_from<R: BufRead>(reader: R) -> Result<Vec<SessionRecord>, TraceError> {
    let mut records = Vec::new();
    walk_trace(reader, &AtomicU64::new(0), |row| {
        records.push(row?);
        Ok(())
    })?;
    Ok(records)
}

/// The result of a lossy trace replay.
pub struct LossyReplay {
    /// The aggregated dataset built from every parseable record.
    pub dataset: TrafficDataset,
    /// Replay diagnostics; `skipped_lines` counts the rows dropped as
    /// malformed, and the line-numbered details are in
    /// [`LossyReplay::skipped`].
    pub stats: CollectionStats,
    /// One error per skipped trace row.
    pub skipped: Vec<TraceError>,
    /// Streaming-engine accounting of the replay.
    pub ingest: crate::ingest::IngestStats,
}

/// Replays a trace incrementally from any reader through the streaming
/// engine into a dataset shaped like
/// `model`'s country: at most `options.chunk_size` records are resident
/// at a time, and the result is bit-identical at any chunk size.
///
/// Malformed rows are skipped and counted. Only a bad header or an I/O
/// failure is fatal, reported as [`IngestError::Trace`] at the line where
/// reading failed. Skipped-line counts are exported to the observability
/// registry as `netsim.faults.skipped_lines`.
pub fn replay_from<R: BufRead + Send>(
    reader: R,
    model: &DemandModel,
    options: &CollectOptions,
) -> Result<LossyReplay, IngestError> {
    let source = TraceSource::new(reader);
    let out = crate::ingest::ingest(&source, model, options)?;
    Ok(LossyReplay {
        dataset: out.dataset,
        stats: out.stats,
        skipped: source.take_skipped(),
        ingest: out.ingest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::ingest::{ingest, SliceSource};
    use crate::pipeline::{collect_with_options, CollectionOutput};
    use mobilenet_geo::{Country, CountryConfig};
    use mobilenet_traffic::{Direction, ServiceCatalog, TrafficConfig};
    use std::sync::Arc;

    fn model() -> DemandModel {
        let country = Arc::new(Country::generate(&CountryConfig::small(), 3));
        let catalog = Arc::new(ServiceCatalog::standard(20));
        DemandModel::new(country, catalog, TrafficConfig::fast(), 11)
    }

    /// Fault-free collection through the unified entry point.
    fn run(m: &DemandModel, cfg: &NetsimConfig, seed: u64) -> CollectionOutput {
        collect_with_options(m, cfg, &CollectOptions::default(), seed).expect("valid config")
    }

    /// Replays in-memory records through the engine.
    fn replay_records(records: &[SessionRecord], m: &DemandModel) -> TrafficDataset {
        ingest(&SliceSource::new(records), m, &CollectOptions::default())
            .expect("default options are valid")
            .dataset
    }

    /// Lossy replay of an in-memory trace through the engine.
    fn replay_text(csv: &str, m: &DemandModel) -> Result<LossyReplay, IngestError> {
        replay_from(csv.as_bytes(), m, &CollectOptions::default())
    }

    /// Fault-free capture through the unified entry point.
    fn capture(m: &DemandModel, cfg: &NetsimConfig, seed: u64) -> Vec<SessionRecord> {
        let mut records = Vec::new();
        observe_with_options(m, cfg, &CollectOptions::default(), seed, |r| {
            records.push(r.clone())
        })
        .expect("valid config");
        records
    }

    #[test]
    fn record_line_round_trips() {
        let r = SessionRecord {
            interface: Interface::S5S8,
            start_hour: 167,
            dl_mb: 12.345678901234,
            ul_mb: 0.00042,
            commune: CommuneId(999),
            signature: FlowSignature(0xDEAD_BEEF_CAFE_F00D),
            stale_uli: true,
        };
        let line = record_to_line(&r);
        let back = record_from_line(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(record_from_line("").is_err());
        assert!(record_from_line("gn,1,2").is_err());
        assert!(record_from_line("bogus,1,1.0,1.0,5,0xff,0").is_err());
        assert!(record_from_line("gn,1,1.0,1.0,5,ff,0").is_err()); // missing 0x
        assert!(record_from_line("gn,1,1.0,1.0,5,0xff,2").is_err());
        assert!(read_trace_from("no header\n".as_bytes()).is_err());
    }

    #[test]
    fn poisonous_values_are_rejected() {
        // Non-finite volumes would sail through aggregation and blow up
        // sorts/statistics far from the source; reject at the boundary.
        assert!(record_from_line("gn,1,NaN,1.0,5,0xff,0").is_err());
        assert!(record_from_line("gn,1,1.0,NaN,5,0xff,0").is_err());
        assert!(record_from_line("gn,1,inf,1.0,5,0xff,0").is_err());
        assert!(record_from_line("gn,1,1.0,-inf,5,0xff,0").is_err());
        assert!(record_from_line("gn,1,-2.0,1.0,5,0xff,0").is_err());
        // Hours beyond the measurement week would index out of range.
        assert!(record_from_line("gn,168,1.0,1.0,5,0xff,0").is_err());
        assert!(record_from_line("gn,999,1.0,1.0,5,0xff,0").is_err());
        // Boundary values stay valid.
        assert!(record_from_line("gn,167,0e0,0e0,5,0xff,0").is_ok());
    }

    #[test]
    fn captured_trace_replays_to_the_same_dataset() {
        let m = model();
        let cfg = NetsimConfig::standard();
        // Path A: the normal pipeline.
        let direct = run(&m, &cfg, 7).dataset;

        // Path B: capture → CSV → parse → replay.
        let records = capture(&m, &cfg, 7);
        let csv = trace_to_csv(&records);
        let parsed = read_trace_from(csv.as_bytes()).unwrap();
        assert_eq!(parsed.len(), records.len());
        let replayed = replay_records(&parsed, &m);

        for dir in Direction::BOTH {
            for s in (0..20).step_by(5) {
                let a = direct.national_series(dir, s);
                let b = replayed.national_series(dir, s);
                for (x, y) in a.iter().zip(b.iter()) {
                    assert!(
                        (x - y).abs() < 1e-9,
                        "{} service {s}: {x} vs {y}",
                        dir.label()
                    );
                }
            }
            // Unclassified volume is one shared accumulator: collection
            // sums it per shard and merges, the single-shard replay keeps
            // one running total, so they agree only up to float
            // re-association — compare relatively.
            let (u_direct, u_replay) = (direct.unclassified(dir), replayed.unclassified(dir));
            assert!(
                (u_direct - u_replay).abs() <= 1e-12 * u_direct.abs().max(1.0),
                "{} unclassified: {u_direct} vs {u_replay}",
                dir.label()
            );
            assert_eq!(direct.tail_weekly(dir), replayed.tail_weekly(dir));
        }
    }

    #[test]
    fn observe_sessions_is_deterministic() {
        let m = model();
        let cfg = NetsimConfig::standard();
        let a = capture(&m, &cfg, 5);
        let b = capture(&m, &cfg, 5);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.first(), b.first());
        assert_eq!(a.last(), b.last());
    }

    #[test]
    fn observe_sessions_rejects_invalid_config_without_panicking() {
        let m = model();
        let mut cfg = NetsimConfig::standard();
        cfg.uli_stale_prob = 2.0;
        let err =
            observe_with_options(&m, &cfg, &CollectOptions::default(), 5, |_| {}).unwrap_err();
        assert!(err.contains("uli_stale_prob"), "{err}");
        let mut plan = FaultPlan::none();
        plan.dup_prob = -0.5;
        let opts = CollectOptions::with_faults(plan);
        let err =
            observe_with_options(&m, &NetsimConfig::standard(), &opts, 5, |_| {}).unwrap_err();
        assert!(err.contains("dup_prob"), "{err}");
        let opts = CollectOptions::default().chunk_size(0);
        let err =
            observe_with_options(&m, &NetsimConfig::standard(), &opts, 5, |_| {}).unwrap_err();
        assert!(err.contains("chunk_size"), "{err}");
    }

    #[test]
    fn faulted_capture_matches_faulted_collection() {
        // The contract the trace path promises: a faulted capture emits
        // exactly the records a faulted collection aggregates.
        let m = model();
        let cfg = NetsimConfig::standard();
        let opts = CollectOptions::with_faults(FaultPlan::degraded(21));
        let direct = collect_with_options(&m, &cfg, &opts, 7).unwrap();

        let mut records = Vec::new();
        let summary =
            observe_with_options(&m, &cfg, &opts, 7, |r| records.push(r.clone())).unwrap();
        assert_eq!(summary.emitted as usize, records.len());
        assert_eq!(summary.sessions, direct.stats.sessions);
        assert_eq!(summary.faults, direct.stats.faults);
        assert_eq!(
            summary.emitted,
            direct.stats.gn_records + direct.stats.s5s8_records
        );

        let replayed = replay_records(&records, &m);
        for dir in Direction::BOTH {
            for s in (0..20).step_by(7) {
                let a = direct.dataset.national_series(dir, s);
                let b = replayed.national_series(dir, s);
                for (x, y) in a.iter().zip(b.iter()) {
                    assert!(
                        (x - y).abs() < 1e-9,
                        "{} service {s}: {x} vs {y}",
                        dir.label()
                    );
                }
            }
        }
    }

    /// Mangles every 20th data line the four ways a storage or transport
    /// layer rots a trace: a torn write, a `NaN` volume, an impossible
    /// hour-of-week and a garbled interface tag.
    fn corrupt_every_20th_line(clean: &str) -> String {
        let mut out = String::new();
        for (i, line) in clean.lines().enumerate() {
            let mut fields: Vec<&str> = line.split(',').collect();
            if i > 0 && i % 20 == 0 {
                match i / 20 % 4 {
                    0 => fields = vec![&line[..line.len() / 2]],
                    1 => fields[2] = "NaN",
                    2 => fields[1] = "999",
                    _ => fields[0] = "g?",
                }
            }
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }

    #[test]
    fn corrupted_trace_round_trips_through_the_lossy_path() {
        let m = model();
        let cfg = NetsimConfig::standard();
        let records = capture(&m, &cfg, 9);

        let csv = corrupt_every_20th_line(&trace_to_csv(&records));

        // The strict parser aborts...
        assert!(read_trace_from(csv.as_bytes()).is_err());
        // ...the replay skips-and-counts with line numbers.
        let replayed = replay_text(&csv, &m).unwrap();
        let skipped = &replayed.skipped;
        assert!(!skipped.is_empty());
        let frac = skipped.len() as f64 / records.len() as f64;
        assert!((frac - 0.05).abs() < 0.02, "corrupted fraction {frac}");
        assert_eq!(
            replayed.stats.sessions as usize + skipped.len(),
            records.len()
        );
        let lines: Vec<&str> = csv.lines().collect();
        for err in skipped {
            assert!(err.line >= 2, "header is line 1");
            let line_in_file = lines[err.line - 1];
            assert!(
                record_from_line(line_in_file).is_err(),
                "line {}: {line_in_file}",
                err.line
            );
        }
        assert_eq!(replayed.stats.skipped_lines, skipped.len() as u64);
        assert!(replayed.dataset.total(Direction::Down) > 0.0);

        // A header-less file is still fatal: it is not a trace at all.
        assert!(replay_text("volume data\n1,2,3\n", &m).is_err());
        // A pristine trace replays lossily with zero skips.
        let clean = replay_text(&trace_to_csv(&records), &m).unwrap();
        assert_eq!(clean.stats.skipped_lines, 0);
        assert_eq!(
            clean.dataset.total(Direction::Down),
            replay_records(&records, &m).total(Direction::Down)
        );
    }

    #[test]
    fn writer_and_reader_apis_round_trip_the_csv_forms() {
        let m = model();
        let records = capture(&m, &NetsimConfig::standard(), 11);

        // write_trace_to into memory is exactly trace_to_csv.
        let mut buf = Vec::new();
        write_trace_to(&mut buf, &records).unwrap();
        let csv = trace_to_csv(&records);
        assert_eq!(String::from_utf8(buf).unwrap(), csv);

        // read_trace_from recovers the records, including under \r\n
        // line endings, and replay_from aggregates a \r\n trace to the
        // same bytes as its \n twin.
        let parsed = read_trace_from(csv.as_bytes()).unwrap();
        assert_eq!(parsed, records);
        let crlf = csv.replace('\n', "\r\n");
        assert_eq!(read_trace_from(crlf.as_bytes()).unwrap(), parsed);
        let crlf_replay = replay_text(&crlf, &m).unwrap();
        assert_eq!(crlf_replay.stats.skipped_lines, 0);
        assert!(crlf_replay.skipped.is_empty());
        assert_eq!(
            crlf_replay.dataset.to_csv(),
            replay_text(&csv, &m).unwrap().dataset.to_csv()
        );

        // Strict reading reports the offending 1-based line number.
        let mut broken = csv.clone();
        broken.push_str("gn,999,1.0,1.0,5,0xff,0\n");
        let err = read_trace_from(broken.as_bytes()).unwrap_err();
        assert_eq!(err.line, records.len() + 2);
        assert!(replay_text(&broken, &m).unwrap().skipped.len() == 1);
    }

    /// Serves its bytes, then fails every read, like a disk that dies
    /// partway through a file.
    struct FailsAfter<'a>(&'a [u8]);

    impl std::io::Read for FailsAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match std::io::Read::read(&mut self.0, buf)? {
                0 => Err(std::io::Error::other("disk gone")),
                n => Ok(n),
            }
        }
    }

    #[test]
    fn mid_file_read_failure_is_a_line_numbered_trace_error() {
        // The header and two good rows; reading line 4 fails.
        let good = format!("{TRACE_HEADER}\ngn,1,1e0,1e0,5,0xff,0\ngn,2,1e0,1e0,5,0xff,0\n");
        let reader = || std::io::BufReader::new(FailsAfter(good.as_bytes()));

        let err = read_trace_from(reader()).unwrap_err();
        assert_eq!(err.line, 4, "{err}");
        assert!(err.message.contains("i/o error"), "{err}");

        let replayed = replay_from(reader(), &model(), &CollectOptions::default());
        let Err(IngestError::Trace(err)) = replayed else {
            panic!("a failed read must fail the replay as a line-numbered trace error");
        };
        assert_eq!(err.line, 4, "{err}");
        assert!(err.message.contains("i/o error"), "{err}");
    }

    #[test]
    fn streaming_replay_matches_materialized_at_any_chunk_size() {
        let m = model();
        let records = capture(&m, &NetsimConfig::standard(), 13);
        let csv = trace_to_csv(&records);
        let reference = replay_text(&csv, &m).unwrap();
        for chunk_size in [1usize, 97, records.len() + 10] {
            let opts = CollectOptions::default().chunk_size(chunk_size);
            let out = replay_from(csv.as_bytes(), &m, &opts).unwrap();
            assert_eq!(
                reference.dataset.to_csv(),
                out.dataset.to_csv(),
                "chunk_size {chunk_size} diverged"
            );
            assert_eq!(out.stats.sessions, reference.stats.sessions);
            assert_eq!(out.ingest.records, records.len() as u64);
            assert_eq!(out.ingest.bytes_read, csv.len() as u64);
            assert!(out.ingest.peak_resident_records <= out.ingest.resident_budget());
            assert_eq!(
                out.ingest.chunks,
                (records.len() as u64).div_ceil(chunk_size as u64)
            );
        }
    }

    #[test]
    fn faulted_capture_summary_accounts_for_the_degradation() {
        let m = model();
        let cfg = NetsimConfig::standard();
        let via_options = capture(&m, &cfg, 17);
        let plan = FaultPlan::degraded(3);
        let mut faulted = Vec::new();
        let summary = observe_with_options(&m, &cfg, &CollectOptions::with_faults(plan), 17, |r| {
            faulted.push(r.clone())
        })
        .unwrap();
        assert_eq!(summary.sessions, via_options.len() as u64);
        assert_eq!(summary.emitted, faulted.len() as u64);
        assert_eq!(
            summary.emitted,
            summary.sessions - summary.faults.lost_total() + summary.faults.duplicated_records
        );
        assert!(summary.faults.any());
    }
}
