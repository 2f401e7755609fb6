//! `live_query_mix`: the `batch_week` week ingested by `LiveState` behind
//! `spawn_server` on loopback at `nproc` ingest threads, queried over one
//! connection in two phases.
//!
//! * Phase 1, during ingest: the verb mix in an open loop at 10 queries/s
//!   until `WATERMARK` reports the week complete. Every fold bumps the
//!   state version, so nearly every query re-merges the 20 shard partials
//!   under all shard locks. Latency counts from each query's due time.
//! * Phase 2, on the finished study: the same mix in a closed loop for a
//!   fixed count. The snapshot is cached, so this isolates answering and
//!   the protocol.
//!
//! The traced run sends the same mix in process through `answer()` and
//! splits each query into its snapshot build and the answer proper.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mobilenet_core::StudyConfig;
use mobilenet_netsim::{collect_with_options, Capture};
use mobilenet_serve::{answer, spawn_server, LiveState, ServerHandle, SnapshotQuery};
use mobilenet_traffic::DemandModel;

use crate::batch::week_config;
use crate::stats::{
    fail_frac, fast_time, generator_late_ms, median, open_loop_latency_ms, show_seconds, tail,
    timed, LayerTable, OpenLoop, Tail,
};
use crate::{metric, Args, Outcome};

/// The verb mix, sent round-robin in both phases.
const MIX: [&str; 7] = [
    "RANK dl 5",
    "R2 dl",
    "PEAKS dl",
    "SERIES dl 0",
    "AUTOCORR dl",
    "WATERMARK",
    "STATS",
];

/// Open-loop send interval of phase 1: 10 queries/s. Each query holds
/// every shard lock for its snapshot merge (~20 ms on the development
/// box), so the rate sets the share of ingest time lost to merges, ~20%
/// here: enough that a merge change moves the ingest rate, little enough
/// that a host slow phase, which lengthens folds and merges alike, is not
/// much amplified in it (see `README.md`, *The phase-1 rate*).
const INTERVAL: Duration = Duration::from_millis(100);

/// Phase-2 queries per ingest cycle (ten rounds of the mix).
const IDLE_QUERIES: usize = 10 * MIX.len();

/// The ingest cycles of one round, as slots of `[nproc, 1 thread]`: two
/// of three at `nproc`, whose ingest rate under load moves most with the
/// host's slow phases and so needs the most samples.
const CYCLE_SLOTS: [usize; 3] = [0, 0, 1];

/// How long a reply may take before the query counts as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// `WATERMARK` replies allowed after ingest ends before a never-complete
/// study counts as a failed check.
const GRACE_WATERMARKS: usize = 3;

/// One framed reply, or why there was none.
#[derive(Debug, PartialEq)]
enum Reply {
    Ok(Vec<String>),
    Err(String),
    /// I/O error, timeout or an unframed head line.
    Broken(String),
}

/// A minimal line-protocol client with a reply timeout, so a stuck server
/// shows up as failed queries instead of a hung benchmark.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: &str) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Wire {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with(['\n', '\r']) {
            line.pop();
        }
        Ok(line)
    }

    fn request(&mut self, query: &str) -> Reply {
        let mut exchange = || -> io::Result<Reply> {
            writeln!(self.writer, "{query}")?;
            self.writer.flush()?;
            let head = self.line()?;
            if let Some(msg) = head.strip_prefix("ERR ") {
                return Ok(Reply::Err(msg.to_string()));
            }
            let Some(n) = head
                .strip_prefix("OK ")
                .and_then(|n| n.parse::<usize>().ok())
            else {
                return Ok(Reply::Broken(format!("unframed reply head {head:?}")));
            };
            let mut body = Vec::with_capacity(n);
            for _ in 0..n {
                body.push(self.line()?);
            }
            Ok(Reply::Ok(body))
        };
        exchange().unwrap_or_else(|e| Reply::Broken(e.to_string()))
    }
}

/// Whether a during-ingest reply to `query` has the shape its verb
/// promises (`head` = head-service count).
fn well_formed(query: &str, body: &[String], head: usize) -> bool {
    match query.split_whitespace().next().unwrap_or("") {
        "RANK" => body.len() == 5,
        "R2" | "AUTOCORR" => body.len() == head + 1,
        "PEAKS" => body.len() == head,
        "SERIES" => body.len() == 1,
        "WATERMARK" => body.len() == 1 && body[0].starts_with("hour "),
        "STATS" => body.iter().any(|l| l.starts_with("records ")),
        _ => false,
    }
}

/// Whether a `WATERMARK` body reports the week complete.
fn reports_complete(body: &[String]) -> bool {
    body.first().is_some_and(|l| {
        l.split_whitespace()
            .collect::<Vec<_>>()
            .windows(2)
            .any(|w| w == ["complete", "true"])
    })
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        thread::sleep(due - now);
    }
}

/// A live state and its server, ready to ingest.
struct Rig {
    state: Arc<LiveState>,
    server: ServerHandle,
}

impl Rig {
    fn new(model: DemandModel, config: &StudyConfig, seed: u64) -> Rig {
        let state = LiveState::new(model, config.netsim.clone(), config.collect_options(), seed)
            .expect("the france tier config is valid");
        let server = spawn_server(state.clone(), "127.0.0.1:0").expect("binding a loopback port");
        Rig { state, server }
    }

    fn addr(&self) -> String {
        self.server.addr().to_string()
    }
}

/// Starts `state`'s ingestion on its own thread at `threads` threads;
/// the thread returns the result and the ingest wall time.
fn spawn_ingest(
    state: &Arc<LiveState>,
    threads: usize,
) -> thread::JoinHandle<(Result<u64, String>, Duration)> {
    let state = state.clone();
    mobilenet_par::set_thread_override(Some(threads));
    thread::spawn(move || {
        let t = Instant::now();
        let result = state
            .run_ingestion()
            .map(|s| s.records)
            .map_err(|e| e.to_string());
        (result, t.elapsed())
    })
}

/// What one ingest cycle over the wire measured.
#[derive(Default)]
struct Cycle {
    records: u64,
    ingest_s: f64,
    busy_ms: Vec<f64>,
    idle_ms: Vec<f64>,
    late_ms_max: f64,
}

/// One ingest cycle over the wire: phase 1 during ingest, phase 2 after.
fn wire_cycle(rig: &Rig, threads: usize, outcome: &mut Outcome) -> Cycle {
    let head = rig.state.catalog().head().len();
    let mut cycle = Cycle::default();
    let mut wire = match Wire::connect(&rig.addr()) {
        Ok(w) => w,
        Err(e) => {
            outcome
                .errors
                .push(format!("connecting to the server: {e}"));
            return cycle;
        }
    };
    let ingest = spawn_ingest(&rig.state, threads);
    let schedule = OpenLoop::new(Instant::now(), INTERVAL);
    let mut free = Instant::now();
    let mut watermarks_after_ingest = 0;
    for i in 0u32.. {
        let query = MIX[i as usize % MIX.len()];
        let due = schedule.due(i);
        sleep_until(due);
        let sent = Instant::now();
        cycle.late_ms_max = cycle.late_ms_max.max(generator_late_ms(due, free, sent));
        let finished_before = ingest.is_finished();
        let reply = wire.request(query);
        let done = Instant::now();
        free = done;
        cycle.busy_ms.push(open_loop_latency_ms(due, done));
        let ok = matches!(&reply, Reply::Ok(body) if well_formed(query, body, head));
        outcome.record(ok);
        if let Reply::Broken(_) = reply {
            // The connection may be out of step; start a fresh one.
            match Wire::connect(&rig.addr()) {
                Ok(w) => wire = w,
                Err(e) => {
                    outcome.errors.push(format!("reconnecting: {e}"));
                    break;
                }
            }
        }
        if query == "WATERMARK" {
            if matches!(&reply, Reply::Ok(body) if reports_complete(body)) {
                break;
            }
            if finished_before {
                watermarks_after_ingest += 1;
                if watermarks_after_ingest > GRACE_WATERMARKS {
                    outcome
                        .errors
                        .push("WATERMARK never reported the finished week complete".into());
                    break;
                }
            }
        }
    }
    let (result, wall) = ingest.join().expect("the ingest thread does not panic");
    match result {
        Ok(records) => (cycle.records, cycle.ingest_s) = (records, wall.as_secs_f64()),
        Err(e) => outcome.errors.push(format!("live ingestion failed: {e}")),
    }

    // Phase 2 against the finished study: every reply must equal the
    // in-process answer on the same state.
    let expected: Vec<Result<Vec<String>, String>> = MIX
        .iter()
        .map(|q| {
            answer(
                &rig.state,
                &SnapshotQuery::parse(q).expect("the mix parses"),
            )
        })
        .collect();
    for k in 0..IDLE_QUERIES {
        let i = k % MIX.len();
        let t = Instant::now();
        let reply = wire.request(MIX[i]);
        cycle.idle_ms.push(t.elapsed().as_secs_f64() * 1e3);
        outcome.record(matches!((&reply, &expected[i]), (Reply::Ok(a), Ok(b)) if a == b));
    }
    cycle
}

/// Builds the model, the capture, the live state and its server, then
/// shuts the server down; the set-up `setup_s` times.
fn set_up(config: &StudyConfig, seed: u64) {
    let model = config.demand_model(seed);
    Capture::build(&model, &config.netsim, seed).expect("the france tier config is valid");
    let mut rig = Rig::new(model, config, seed);
    rig.server.shutdown();
}

/// Checks that the finished study's `DATASET` over the wire is byte-equal
/// to a batch export of the same week.
fn dataset_matches_batch(
    rig: &Rig,
    model: &DemandModel,
    config: &StudyConfig,
    seed: u64,
) -> Result<(), String> {
    let batch = collect_with_options(model, &config.netsim, &config.collect_options(), seed)
        .map_err(|e| format!("batch reference collection failed: {e}"))?;
    let mut wire = Wire::connect(&rig.addr()).map_err(|e| format!("connecting: {e}"))?;
    match wire.request("DATASET") {
        Reply::Ok(body) => {
            let mut csv = body.join("\n");
            csv.push('\n');
            if csv == batch.dataset.to_csv() {
                Ok(())
            } else {
                Err("live DATASET is not byte-equal to the batch export".into())
            }
        }
        other => Err(format!("DATASET failed: {other:?}")),
    }
}

/// One unit of the live workload. Every unit runs in a fresh child
/// process: in one process, cycles after the first ingested up to 2× slower
/// with query p50 up from ~25 to ~45 ms (cause not isolated), so each
/// cycle here starts as a freshly started server does.
enum Unit {
    /// One ingest cycle over the wire at `threads` ingest threads; `check`
    /// adds the `DATASET` byte-equality check after it.
    Cycle { threads: usize, check: bool },
    /// The untraced in-process cycle of the traced run.
    Plain,
    /// The traced in-process cycle and the finished-study measurements.
    Traced,
}

impl Unit {
    fn spec(&self) -> String {
        match self {
            Unit::Cycle { threads, check } => format!("cycle:{threads}:{}", *check as u8),
            Unit::Plain => "plain".into(),
            Unit::Traced => "traced".into(),
        }
    }

    fn parse(spec: &str) -> Result<Unit, String> {
        let bad = || format!("bad unit {spec}");
        match spec.split(':').collect::<Vec<_>>()[..] {
            ["cycle", threads, check] => Ok(Unit::Cycle {
                threads: threads.parse().map_err(|_| bad())?,
                check: check == "1",
            }),
            ["plain"] => Ok(Unit::Plain),
            ["traced"] => Ok(Unit::Traced),
            _ => Err(bad()),
        }
    }
}

/// Prefix of the lines a child process reports on.
const REPORT: &str = "unit-report";

/// Runs one [`Unit`] in this process and reports its operations, errors,
/// metrics and latency samples on standard output for the parent.
pub fn run_unit(args: &Args, threads: usize, spec: &str) -> Result<(), String> {
    let unit = Unit::parse(spec)?;
    mobilenet_obs::set_enabled(Some(false));
    let config = week_config();
    let model = config.demand_model(args.seed);
    let mut out = Outcome::default();
    let mut samples = Vec::new();
    match unit {
        Unit::Cycle { threads, check } => {
            let mut rig = Rig::new(model.clone(), &config, args.seed);
            let cycle = wire_cycle(&rig, threads, &mut out);
            // The cycle's own footprint, before the check's batch
            // reference adds to it.
            out.push(metric("peak_rss_mb", crate::probe::peak_rss_mb(), "MB"));
            if check {
                if let Err(e) = dataset_matches_batch(&rig, &model, &config, args.seed) {
                    out.errors.push(e);
                }
            }
            rig.server.shutdown();
            out.push(metric("records", cycle.records as f64, "count"));
            out.push(metric("ingest_s", cycle.ingest_s, "s"));
            out.push(metric("late_ms_max", cycle.late_ms_max, "ms"));
            samples.push(("busy", cycle.busy_ms));
            samples.push(("idle", cycle.idle_ms));
        }
        Unit::Plain => {
            let state = LiveState::new(
                model,
                config.netsim.clone(),
                config.collect_options(),
                args.seed,
            )
            .expect("the france tier config is valid");
            let plain = in_process_cycle(&state, threads, false, &mut out);
            out.push(metric("ingest_s", plain.ingest_s, "s"));
            out.push(metric("late_ms_max", plain.late_ms_max, "ms"));
        }
        Unit::Traced => {
            let snapshot_ms = traced_unit(model, &config, args.seed, threads, &mut out);
            samples.push(("snapshot", snapshot_ms));
        }
    }
    println!("{REPORT} ops {} {}", out.attempted, out.failed);
    for e in &out.errors {
        println!("{REPORT} error {e}");
    }
    for m in &out.metrics {
        println!("{REPORT} metric {} {:?} {}", m.name, m.value, m.unit);
    }
    for (name, values) in samples {
        let values: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        println!("{REPORT} samples {name} {}", values.join(" "));
    }
    Ok(())
}

/// What a child process reported.
#[derive(Default)]
struct Report {
    outcome: Outcome,
    samples: Vec<(String, Vec<f64>)>,
}

impl Report {
    fn value(&self, name: &str) -> f64 {
        self.outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    fn samples(&self, name: &str) -> &[f64] {
        self.samples
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, v)| v)
    }
}

/// Runs `unit` in a fresh child process of this benchmark, waits for it and
/// reads its report; other output of the child passes through.
fn spawn_unit(args: &Args, unit: &Unit) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", "live_query_mix", "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.as_secs().to_string()])
        .args(["--unit", &unit.spec()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running unit {}: {e}", unit.spec()))?;
    if !output.status.success() {
        return Err(format!(
            "unit {} exited with {}",
            unit.spec(),
            output.status
        ));
    }
    let mut report = Report::default();
    let malformed = |line: &str| format!("malformed unit report line {line:?}");
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let Some(rest) = line.strip_prefix(REPORT) else {
            println!("{line}");
            continue;
        };
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let number = |s: &str| s.parse::<f64>().map_err(|_| malformed(line));
        match fields[..] {
            ["ops", attempted, failed] => {
                report.outcome.attempted = attempted.parse().map_err(|_| malformed(line))?;
                report.outcome.failed = failed.parse().map_err(|_| malformed(line))?;
            }
            ["error", ..] => report.outcome.errors.push(fields[1..].join(" ")),
            ["metric", name, value, unit] => {
                report.outcome.push(metric(name, number(value)?, unit));
            }
            ["samples", name, ref values @ ..] => {
                let values = values.iter().map(|v| number(v)).collect::<Result<_, _>>()?;
                report.samples.push((name.to_string(), values));
            }
            _ => return Err(malformed(line)),
        }
    }
    Ok(report)
}

/// Folds a child's operation counts and errors into `outcome`.
fn absorb(outcome: &mut Outcome, report: &Report) {
    outcome.attempted += report.outcome.attempted;
    outcome.failed += report.outcome.failed;
    outcome.errors.extend(report.outcome.errors.iter().cloned());
}

/// Runs the workload: ingest cycles alternate between `nproc` ingest
/// threads and one, each in a fresh process, both under the same phase-1
/// query load; the query latencies are those of the `nproc` cycles. The
/// first cycle also checks the final `DATASET` against a batch export.
/// The parent sets up once before each cycle, so that the set-up samples
/// span the run as the cycles do.
pub fn run(args: &Args, threads: usize) -> Outcome {
    mobilenet_obs::set_enabled(Some(false));
    let config = week_config();
    let mut setup_s = Vec::new();
    let mut outcome = Outcome::default();
    // `[nproc, 1 thread]` ingest times.
    let mut ingest_s: [Vec<f64>; 2] = Default::default();
    let mut records = 0.0;
    let mut busy = Vec::new();
    // Phase-1 median latency of each `nproc` cycle.
    let mut busy_p50 = Vec::new();
    let mut idle = Vec::new();
    let mut late_ms_max = 0.0f64;
    // Peak RSS of each cycle's process.
    let mut peak_rss_mb = Vec::new();
    let start = Instant::now();
    for slot in CYCLE_SLOTS.into_iter().cycle() {
        if !ingest_s[1].is_empty() && start.elapsed() >= args.seconds {
            break;
        }
        timed(&mut setup_s, || set_up(&config, args.seed));
        let t = [threads, 1][slot];
        let check = ingest_s[0].is_empty();
        let report = match spawn_unit(args, &Unit::Cycle { threads: t, check }) {
            Ok(r) => r,
            Err(e) => {
                outcome.errors.push(e);
                return outcome;
            }
        };
        absorb(&mut outcome, &report);
        ingest_s[slot].push(report.value("ingest_s"));
        records = report.value("records");
        late_ms_max = late_ms_max.max(report.value("late_ms_max"));
        peak_rss_mb.push(report.value("peak_rss_mb"));
        if slot == 0 {
            busy.extend_from_slice(report.samples("busy"));
            busy_p50.extend(median(report.samples("busy")));
            idle.extend_from_slice(report.samples("idle"));
        }
    }

    let fast = |v: &[f64]| fast_time(v).expect("at least one cycle");
    let (busy_tail, idle_tail) = (tail(&busy), tail(&idle));
    let show = |t: Option<Tail>| {
        t.map_or("-".into(), |t| {
            format!("{:.3} ms at p{:.1} of {}", t.value, t.percentile, t.samples)
        })
    };
    println!(
        "live_query_mix: {} cycles at {threads} threads, {} at 1; ingest fast time {:.3} s at {threads} threads, \
         {:.3} s at 1; during ingest p50 {:.3} ms, tail {}; idle p50 {:.3} ms, tail {}; \
         failure fraction {:.4} ({} of {} queries); generator late by at most {late_ms_max:.2} ms",
        ingest_s[0].len(),
        ingest_s[1].len(),
        fast(&ingest_s[0]),
        fast(&ingest_s[1]),
        median(&busy).unwrap_or(0.0),
        show(busy_tail),
        median(&idle).unwrap_or(0.0),
        show(idle_tail),
        fail_frac(outcome.attempted, outcome.failed),
        outcome.failed,
        outcome.attempted,
    );
    println!(
        "live_query_mix: ingest seconds at {threads} threads {}, at 1 thread {}; \
         phase-1 p50 ms per {threads}-thread cycle {}; peak RSS MB per cycle {}",
        show_seconds(&ingest_s[0]),
        show_seconds(&ingest_s[1]),
        show_seconds(&busy_p50),
        show_seconds(&peak_rss_mb)
    );
    outcome.push(metric("setup_s", fast(&setup_s), "s"));
    outcome.push(metric("records_per_s", records / fast(&ingest_s[0]), "1/s"));
    outcome.push(metric(
        "records_per_s_1t",
        records / fast(&ingest_s[1]),
        "1/s",
    ));
    outcome.push(metric("op_ms", fast(&busy_p50), "ms"));
    outcome.push(metric(
        "peak_rss_mb",
        median(&peak_rss_mb).expect("at least one cycle"),
        "MB",
    ));
    outcome
}

/// Count and total time of `live_snapshot` spans recorded so far.
fn snapshot_span() -> (u64, u64) {
    mobilenet_obs::snapshot()
        .span("live_snapshot")
        .map_or((0, 0), |s| (s.count, s.total_ns))
}

/// What an in-process ingest cycle measured.
#[derive(Default)]
struct InProcess {
    ingest_s: f64,
    queries: u64,
    snapshot_builds: u64,
    snapshot_ms: Vec<f64>,
    late_ms_max: f64,
    table: LayerTable,
}

/// One ingest cycle with the mix sent in process through `answer()` at the
/// phase-1 rate. With `traced`, each query's snapshot build is read from
/// the `live_snapshot` span around it.
fn in_process_cycle(
    state: &Arc<LiveState>,
    threads: usize,
    traced: bool,
    outcome: &mut Outcome,
) -> InProcess {
    let head = state.catalog().head().len();
    let queries: Vec<SnapshotQuery> = MIX
        .iter()
        .map(|q| SnapshotQuery::parse(q).expect("the mix parses"))
        .collect();
    let mut run = InProcess::default();
    let (mut wait, mut snapshot, mut answering, mut probing) =
        (Duration::ZERO, 0u64, Duration::ZERO, Duration::ZERO);
    let ingest = spawn_ingest(state, threads);
    let loop_start = Instant::now();
    let schedule = OpenLoop::new(loop_start, INTERVAL);
    let mut free = loop_start;
    let mut watermarks_after_ingest = 0;
    for i in 0u32.. {
        let k = i as usize % MIX.len();
        let due = schedule.due(i);
        let t = Instant::now();
        sleep_until(due);
        let sent = Instant::now();
        wait += sent - t;
        run.late_ms_max = run.late_ms_max.max(generator_late_ms(due, free, sent));
        let finished_before = ingest.is_finished();
        let before = if traced { snapshot_span() } else { (0, 0) };
        let t = Instant::now();
        probing += t - sent;
        let reply = answer(state, &queries[k]);
        let elapsed = t.elapsed();
        let t = Instant::now();
        let after = if traced { snapshot_span() } else { (0, 0) };
        free = Instant::now();
        probing += free - t;
        run.queries += 1;
        let built_ns = after.1 - before.1;
        run.snapshot_builds += after.0 - before.0;
        if after.0 > before.0 {
            run.snapshot_ms.push(built_ns as f64 / 1e6);
        }
        snapshot += built_ns;
        answering += elapsed.saturating_sub(Duration::from_nanos(built_ns));
        outcome.record(matches!(&reply, Ok(body) if well_formed(MIX[k], body, head)));
        if MIX[k] == "WATERMARK" {
            if matches!(&reply, Ok(body) if reports_complete(body)) {
                break;
            }
            if finished_before {
                watermarks_after_ingest += 1;
                if watermarks_after_ingest > GRACE_WATERMARKS {
                    outcome
                        .errors
                        .push("WATERMARK never reported the finished week complete".into());
                    break;
                }
            }
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let (result, wall) = ingest.join().expect("the ingest thread does not panic");
    if let Err(e) = result {
        outcome.errors.push(format!("live ingestion failed: {e}"));
    }
    run.ingest_s = wall.as_secs_f64();
    run.table = LayerTable {
        rows: vec![
            ("loadgen.wait_s".into(), wait.as_secs_f64()),
            ("serve.snapshot_s".into(), snapshot as f64 / 1e9),
            ("serve.answer_s".into(), answering.as_secs_f64()),
            ("trace.probe_s".into(), probing.as_secs_f64()),
        ],
        wall_s: loop_s,
    };
    run
}

/// Median of `f()` over `reps` timed calls, ms.
fn median_ms(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f().as_secs_f64() * 1e3).collect();
    median(&samples).unwrap_or(0.0)
}

/// Untraced and traced cycles of the traced run. One cycle at the phase-1
/// rate builds only about a dozen snapshots, too few for a tail with ten
/// samples beyond it; the pairs pool theirs.
const TRACED_PAIRS: usize = 4;

/// The traced run, in fresh processes: [`TRACED_PAIRS`] pairs of an
/// untraced and a traced in-process cycle (overhead, snapshot cost during
/// ingest), each traced one followed on its finished study by the answer
/// cost per verb and the wire cost of the same queries over TCP. Returns
/// the per-layer metrics (medians over the traced cycles, snapshot builds
/// pooled) and the tracing overhead.
pub fn traced(args: &Args, _threads: usize) -> (Outcome, f64) {
    let mut outcome = Outcome::default();
    let mut ingest_s: [Vec<f64>; 2] = Default::default();
    let mut snapshot_ms = Vec::new();
    let (mut builds, mut queries) = (0.0, 0.0);
    let mut late_ms_max = 0.0f64;
    let mut reports = Vec::new();
    for _ in 0..TRACED_PAIRS {
        let (plain, traced) = match (
            spawn_unit(args, &Unit::Plain),
            spawn_unit(args, &Unit::Traced),
        ) {
            (Ok(p), Ok(t)) => (p, t),
            (p, t) => {
                outcome.errors.extend(p.err().into_iter().chain(t.err()));
                return (outcome, f64::NAN);
            }
        };
        absorb(&mut outcome, &plain);
        absorb(&mut outcome, &traced);
        ingest_s[0].push(plain.value("ingest_s"));
        ingest_s[1].push(traced.value("ingest_s"));
        snapshot_ms.extend_from_slice(traced.samples("snapshot"));
        builds += traced.value("snapshot_builds");
        queries += traced.value("queries");
        late_ms_max = late_ms_max
            .max(plain.value("late_ms_max"))
            .max(traced.value("late_ms_max"));
        reports.push(traced);
    }
    for m in reports[0].outcome.metrics.iter() {
        if m.name.contains('.') {
            let values: Vec<f64> = reports.iter().map(|r| r.value(&m.name)).collect();
            outcome.push(metric(
                m.name.clone(),
                median(&values).unwrap_or(f64::NAN),
                &m.unit,
            ));
        }
    }
    let snapshot_tail = tail(&snapshot_ms);
    println!(
        "live_query_mix: {} snapshot builds during ingest over {TRACED_PAIRS} traced cycles, \
         p50 {:.3} ms, tail {}",
        snapshot_ms.len(),
        median(&snapshot_ms).unwrap_or(0.0),
        snapshot_tail.map_or("-".into(), |t| format!(
            "{:.3} ms at p{:.1}",
            t.value, t.percentile
        ))
    );
    outcome.push(metric(
        "serve.snapshot_ms.p50",
        median(&snapshot_ms).unwrap_or(0.0),
        "ms",
    ));
    outcome.push(metric(
        "serve.snapshot_ms.tail",
        snapshot_tail.map_or(0.0, |t| t.value),
        "ms",
    ));
    outcome.push(metric(
        "serve.snapshot_builds_per_query",
        builds / queries.max(1.0),
        "ratio",
    ));
    outcome.push(metric("loadgen.late_ms_max", late_ms_max, "ms"));
    let [plain, traced] = [&ingest_s[0], &ingest_s[1]].map(|v| median(v).unwrap_or(f64::NAN));
    (outcome, traced / plain - 1.0)
}

/// The traced unit: see [`traced`]. Returns the snapshot build times
/// during ingest, ms.
fn traced_unit(
    model: DemandModel,
    config: &StudyConfig,
    seed: u64,
    threads: usize,
    out: &mut Outcome,
) -> Vec<f64> {
    mobilenet_obs::set_enabled(Some(true));
    mobilenet_obs::reset();
    let rig = Rig::new(model, config, seed);
    let traced_cycle = in_process_cycle(&rig.state, threads, true, out);
    mobilenet_obs::set_enabled(Some(false));
    mobilenet_par::set_thread_override(None);
    print!(
        "{}",
        traced_cycle
            .table
            .render("live_query_mix query-loop layers during ingest")
    );
    if !traced_cycle.table.sums_to_wall() {
        out.errors.push(format!(
            "live_query_mix layer table sums to {:.1}% of its traced wall time",
            100.0 * traced_cycle.table.sum_frac()
        ));
    }

    // Finished study: answer() minus its (cached) snapshot per verb, and
    // the TCP round trip of the same query.
    const REPS: usize = 15;
    let mut rig = rig;
    let mut wire = Wire::connect(&rig.addr()).expect("connecting to the server");
    let mut answer_ms = Vec::new();
    let mut wire_ms = Vec::new();
    for q in MIX {
        let query = SnapshotQuery::parse(q).expect("the mix parses");
        let in_process = median_ms(REPS, || {
            let t = Instant::now();
            let _ = rig.state.snapshot();
            let snap = t.elapsed();
            let t = Instant::now();
            let _ = answer(&rig.state, &query);
            t.elapsed().saturating_sub(snap)
        });
        let over_tcp = median_ms(REPS, || {
            let t = Instant::now();
            let reply = wire.request(q);
            let elapsed = t.elapsed();
            out.record(matches!(reply, Reply::Ok(_)));
            elapsed
        });
        answer_ms.push((q.split_whitespace().next().unwrap_or(q), in_process));
        wire_ms.push(over_tcp - in_process);
    }
    rig.server.shutdown();

    out.push(metric(
        "snapshot_builds",
        traced_cycle.snapshot_builds as f64,
        "count",
    ));
    out.push(metric("queries", traced_cycle.queries as f64, "count"));
    for (verb, ms) in answer_ms
        .iter()
        .filter(|(v, _)| !matches!(*v, "WATERMARK" | "STATS"))
    {
        out.push(metric(format!("serve.answer_ms.{verb}"), *ms, "ms"));
    }
    // Per verb, the TCP median minus the in-process median; the median over
    // verbs keeps the noise of the slow verbs' answers out.
    out.push(metric(
        "serve.wire_ms",
        median(&wire_ms).unwrap_or(0.0),
        "ms",
    ));
    out.push(metric("ingest_s", traced_cycle.ingest_s, "s"));
    out.push(metric("late_ms_max", traced_cycle.late_ms_max, "ms"));
    traced_cycle.snapshot_ms
}
