//! Live query service contracts (DESIGN §3.14).
//!
//! What this file pins:
//!
//! * a snapshot taken after live ingestion completes is **bit-identical**
//!   to the batch pipeline on the same `(config, seed)` — at 1, 2 and 8
//!   threads, with and without an injected fault plan, its collection
//!   diagnostics included field by field;
//! * mid-stream snapshots are consistent and monotone: version, watermark
//!   and folded session counts never go backwards, and the final
//!   snapshot converges to the batch output;
//! * snapshots built back to back while ingestion runs, each sharing
//!   rows with the partials a later fold writes, end byte-equal to batch
//!   collection at 1, 2 and 8 threads, with and without faults, and a
//!   snapshot a reader holds is never written by a later build;
//! * concurrent queries at one version share one build;
//! * the TCP server answers well-framed responses to at least four
//!   concurrent clients **while ingestion is running**, and a post-ingest
//!   `DATASET` response carries exactly the batch CSV.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

use mobilenet::netsim::collect_with_options;
use mobilenet::par::set_thread_override;
use mobilenet::serve::LiveState;
use mobilenet::{FaultPlan, Pipeline, Scale, DEFAULT_SEED};

mod common;

/// The batch reference for a small study with the given fault plan.
fn batch_csv(faults: FaultPlan, seed: u64) -> (String, mobilenet::netsim::CollectionStats) {
    let run = Pipeline::builder()
        .scale(Scale::Small)
        .seed(seed)
        .faults(faults)
        .run()
        .expect("valid configuration");
    let study = run.study();
    let stats = study.collection_stats().expect("measured").clone();
    (study.dataset().to_csv(), stats)
}

/// A fully-ingested live state for the same study.
fn live_state(faults: FaultPlan, seed: u64) -> std::sync::Arc<LiveState> {
    let config = Scale::Small.config().with_faults(faults);
    LiveState::from_config(&config, seed).expect("valid configuration")
}

#[test]
fn complete_snapshots_are_bit_identical_to_batch_collection() {
    // All thread counts run inside one #[test] so the process-global
    // override is never raced within this contract.
    for faults in [FaultPlan::none(), FaultPlan::degraded(3)] {
        set_thread_override(Some(1));
        let (reference_csv, reference_stats) = batch_csv(faults.clone(), DEFAULT_SEED);
        for threads in [1usize, 2, 8] {
            set_thread_override(Some(threads));
            let state = live_state(faults.clone(), DEFAULT_SEED);
            let ingest = state.run_ingestion().expect("live ingestion succeeds");
            assert!(ingest.records > 0);
            assert!(
                ingest.peak_resident_records <= ingest.resident_budget(),
                "peak {} exceeds budget {} at {threads} threads",
                ingest.peak_resident_records,
                ingest.resident_budget()
            );
            let snap = state.snapshot();
            assert!(snap.complete, "all shards closed");
            assert_eq!(snap.watermark_hour, mobilenet::traffic::HOURS_PER_WEEK);
            assert!(
                snap.dataset.to_csv() == reference_csv,
                "live dataset differs from batch at {threads} threads"
            );
            assert_eq!(snap.stats.sessions, reference_stats.sessions);
            assert_eq!(snap.stats.gn_records, reference_stats.gn_records);
            assert_eq!(snap.stats.s5s8_records, reference_stats.s5s8_records);
            assert_eq!(
                snap.stats.faults.lost_total(),
                reference_stats.faults.lost_total()
            );
            let label = format!("{threads} threads, faults active: {}", !faults.is_none());
            common::assert_same_stats(&snap.stats, &reference_stats, &label);
            assert_eq!(snap.ingest.records, ingest.records);
        }
    }
    set_thread_override(None);
}

#[test]
fn mid_stream_snapshots_are_monotone_and_converge() {
    let (reference_csv, _) = batch_csv(FaultPlan::none(), DEFAULT_SEED);
    let state = live_state(FaultPlan::none(), DEFAULT_SEED);
    let ingest_state = state.clone();
    let ingest = std::thread::spawn(move || ingest_state.run_ingestion());

    let mut last_version = 0u64;
    let mut last_watermark = 0usize;
    let mut last_sessions = 0u64;
    let mut observed_partial = false;
    while !state.complete() {
        let snap = state.snapshot();
        assert!(snap.version >= last_version, "version went backwards");
        assert!(
            snap.watermark_hour >= last_watermark,
            "watermark went backwards"
        );
        assert!(
            snap.stats.sessions >= last_sessions,
            "folded sessions went backwards"
        );
        if !snap.complete {
            observed_partial = true;
        }
        last_version = snap.version;
        last_watermark = snap.watermark_hour;
        last_sessions = snap.stats.sessions;
    }
    ingest
        .join()
        .expect("ingestion thread")
        .expect("live ingestion succeeds");

    let final_snap = state.snapshot();
    assert!(final_snap.complete);
    assert!(final_snap.version >= last_version);
    assert!(final_snap.watermark_hour == mobilenet::traffic::HOURS_PER_WEEK);
    assert!(
        final_snap.dataset.to_csv() == reference_csv,
        "live result converges to batch"
    );
    // The whole point of querying mid-stream: at least one snapshot must
    // have been taken before completion (small scale still folds many
    // chunks, so the polling loop always lands inside the run).
    assert!(observed_partial, "never observed an in-flight snapshot");
    // Snapshot caching: a repeated query at an unchanged version returns
    // the same Arc, not a recomputed merge. The ingest thread has been
    // joined, so the version cannot have moved.
    let again = state.snapshot();
    assert!(
        std::sync::Arc::ptr_eq(&final_snap, &again),
        "cached snapshot was rebuilt"
    );
}

/// FNV-1a over a dataset's CSV export.
fn digest(dataset: &mobilenet::traffic::TrafficDataset) -> u64 {
    dataset
        .to_csv()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn back_to_back_snapshots_during_ingest_end_equal_to_batch_and_spare_held_ones() {
    for faults in [FaultPlan::none(), FaultPlan::degraded(3)] {
        let config = Scale::Small.config().with_faults(faults.clone());
        let model = config.demand_model(DEFAULT_SEED);
        let reference = collect_with_options(
            &model,
            &config.netsim,
            &config.collect_options(),
            DEFAULT_SEED,
        )
        .expect("batch collection succeeds")
        .dataset
        .to_csv();
        for threads in [1usize, 2, 8] {
            set_thread_override(Some(threads));
            let label = format!("{threads} threads, faults active: {}", !faults.is_none());
            let state = live_state(faults.clone(), DEFAULT_SEED);
            let ingest_state = state.clone();
            let ingest = std::thread::spawn(move || ingest_state.run_ingestion());
            // One mid-ingest snapshot is held (with its digest) while
            // later builds run: the first of them must copy it, and none
            // may write into it.
            let mut held = None;
            let mut builds = 0u32;
            while !state.complete() {
                let snap = state.snapshot();
                builds += 1;
                if held.is_none() && !snap.complete && snap.stats.sessions > 0 {
                    let print = digest(&snap.dataset);
                    held = Some((snap, print));
                }
            }
            ingest
                .join()
                .expect("ingestion thread")
                .expect("live ingestion succeeds");
            let last = state.snapshot();
            assert!(last.complete, "{label}");
            assert!(
                last.dataset.to_csv() == reference,
                "live differs from batch, {label}"
            );
            let (held, print) = held.expect("a snapshot was taken mid-ingest");
            assert!(builds > 1, "{label}");
            assert!(!Arc::ptr_eq(&held, &last), "{label}");
            assert_eq!(
                digest(&held.dataset),
                print,
                "a held snapshot was written, {label}"
            );
        }
    }
    set_thread_override(None);
}

#[test]
fn concurrent_snapshots_at_one_version_share_one_build() {
    const READERS: usize = 6;
    let state = live_state(FaultPlan::none(), DEFAULT_SEED);
    // Once before ingestion (version 0) and once after it: no ingest
    // runs meanwhile, so every reader asks at the same version.
    for phase in ["before ingestion", "after ingestion"] {
        if phase == "after ingestion" {
            state.run_ingestion().expect("live ingestion succeeds");
        }
        let start = Barrier::new(READERS);
        let snaps: Vec<_> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        state.snapshot()
                    })
                })
                .collect();
            readers
                .into_iter()
                .map(|r| r.join().expect("reader thread"))
                .collect()
        });
        for snap in &snaps[1..] {
            assert!(
                Arc::ptr_eq(&snaps[0], snap),
                "{phase}: a second build at one version"
            );
        }
        assert_eq!(snaps[0].version, state.version(), "{phase}");
    }
}

/// Sends one protocol line and reads one framed response.
fn request(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    line: &str,
) -> Result<Vec<String>, String> {
    writeln!(writer, "{line}").expect("write request");
    writer.flush().expect("flush request");
    let mut head = String::new();
    reader.read_line(&mut head).expect("read response head");
    let head = head.trim_end();
    if let Some(n) = head.strip_prefix("OK ") {
        let n: usize = n.parse().expect("well-formed frame count");
        let mut body = Vec::with_capacity(n);
        for _ in 0..n {
            let mut l = String::new();
            reader.read_line(&mut l).expect("read body line");
            body.push(l.trim_end().to_string());
        }
        Ok(body)
    } else if let Some(msg) = head.strip_prefix("ERR ") {
        Err(msg.to_string())
    } else {
        panic!("malformed response head {head:?}");
    }
}

#[test]
fn server_answers_concurrent_clients_during_ingestion() {
    // The HEALTH verb surfaces obs metrics; the registry must be live.
    mobilenet::obs::set_enabled(Some(true));
    let (reference_csv, _) = batch_csv(FaultPlan::none(), DEFAULT_SEED);
    let state = live_state(FaultPlan::none(), DEFAULT_SEED);
    let mut server =
        mobilenet::spawn_server(state.clone(), "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    let ingest_state = state.clone();
    let ingest = std::thread::spawn(move || ingest_state.run_ingestion());

    // Four clients hammer the server while the week streams. Each checks
    // its responses are well-framed and internally consistent.
    let clients: Vec<_> = (0..4)
        .map(|client| {
            let state = state.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let mut rounds = 0u32;
                while !(state.complete() && rounds >= 3) {
                    let rank =
                        request(&mut reader, &mut writer, "RANK dl 5").expect("ranking answers");
                    assert!(rank.len() <= 5);
                    let watermark =
                        request(&mut reader, &mut writer, "WATERMARK").expect("watermark answers");
                    assert_eq!(watermark.len(), 1);
                    assert!(watermark[0].starts_with("hour "));
                    let stats = request(&mut reader, &mut writer, "STATS").expect("stats answers");
                    assert!(stats.iter().any(|l| l.starts_with("records ")));
                    if client == 0 {
                        let health =
                            request(&mut reader, &mut writer, "HEALTH").expect("health answers");
                        assert!(
                            health.iter().any(|l| l.contains("serve.queries")),
                            "health endpoint exposes serve.* metrics: {health:?}"
                        );
                    }
                    // Unknown verbs degrade to ERR, not a wedged stream.
                    let err = request(&mut reader, &mut writer, "NOPE");
                    assert!(err.is_err());
                    rounds += 1;
                }
                writeln!(writer, "QUIT").expect("quit");
            })
        })
        .collect();

    for c in clients {
        c.join().expect("client thread");
    }
    ingest
        .join()
        .expect("ingestion thread")
        .expect("live ingestion succeeds");

    // Post-ingest, the wire-format dataset is exactly the batch CSV.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let body = request(&mut reader, &mut writer, "DATASET").expect("dataset answers");
    let mut wire = body.join("\n");
    wire.push('\n');
    assert!(
        wire == reference_csv,
        "DATASET response is the batch export"
    );
    let watermark = request(&mut reader, &mut writer, "WATERMARK").expect("watermark");
    assert!(watermark[0].contains("complete true"));

    // SHUTDOWN stops the accept loop; shutdown() is then idempotent.
    let resp = request(&mut reader, &mut writer, "SHUTDOWN").expect("shutdown acks");
    assert!(resp.is_empty());
    server.shutdown();
}

#[test]
fn protocol_edges_err_and_never_panic() {
    // Out-of-range operands and hostile framing must all degrade to ERR
    // (or a drop) on the same connection — never a panicked client
    // thread or an unboundedly growing line buffer.
    mobilenet::obs::set_enabled(Some(true));
    let state = live_state(FaultPlan::none(), DEFAULT_SEED);
    state.run_ingestion().expect("live ingestion succeeds");
    let mut server =
        mobilenet::spawn_server(state.clone(), "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();
    let head_len = state.catalog().head().len();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    // RANK bounds: k = 0 and k > |head| are protocol errors, the bounds
    // themselves are fine.
    let err = request(&mut reader, &mut writer, "RANK dl 0").expect_err("k=0 is rejected");
    assert!(err.contains("at least 1"), "unexpected message {err:?}");
    let err = request(
        &mut reader,
        &mut writer,
        &format!("RANK dl {}", head_len + 1),
    )
    .expect_err("k>n is rejected");
    assert!(err.contains("out of range"), "unexpected message {err:?}");
    let full =
        request(&mut reader, &mut writer, &format!("RANK dl {head_len}")).expect("k=n answers");
    assert_eq!(full.len(), head_len);
    // An absurd k parses as usize but is out of range; a non-numeric k
    // fails the parse. Both are ERRs, not panics.
    assert!(request(&mut reader, &mut writer, "RANK dl 18446744073709551615").is_err());
    assert!(request(&mut reader, &mut writer, "RANK dl twenty").is_err());

    // SERIES bounds: service index past the head is rejected, the last
    // valid index answers.
    let err = request(&mut reader, &mut writer, &format!("SERIES dl {head_len}"))
        .expect_err("service>=n is rejected");
    assert!(err.contains("out of range"), "unexpected message {err:?}");
    assert!(request(
        &mut reader,
        &mut writer,
        &format!("SERIES dl {}", head_len - 1)
    )
    .is_ok());

    // A no-newline flood far past the line cap: the server drains it,
    // answers one ERR, and the connection keeps working.
    let flood = vec![b'A'; 16 * mobilenet::serve::MAX_LINE_BYTES];
    writer.write_all(&flood).expect("write flood");
    writer.write_all(b"\n").expect("terminate flood");
    writer.flush().expect("flush flood");
    let mut head = String::new();
    reader.read_line(&mut head).expect("flood response");
    assert!(
        head.starts_with("ERR line too long"),
        "unexpected response {head:?}"
    );
    let watermark =
        request(&mut reader, &mut writer, "WATERMARK").expect("connection survives the flood");
    assert!(watermark[0].contains("complete true"));

    // The drop is counted.
    let snapshot = mobilenet::obs::snapshot();
    assert_eq!(snapshot.counter("serve.dropped_lines"), Some(1));

    writeln!(writer, "QUIT").expect("quit");
    server.shutdown();
}

#[test]
fn shutdown_disconnects_idle_clients() {
    // An idle client holds no request open; shutdown() must still
    // propagate — the read timeout wakes the client thread, it observes
    // the stop flag and closes the socket, so the peer sees EOF instead
    // of a connection pinned forever.
    let state = live_state(FaultPlan::none(), DEFAULT_SEED);
    state.run_ingestion().expect("live ingestion succeeds");
    let mut server = mobilenet::spawn_server(state, "127.0.0.1:0").expect("bind ephemeral port");
    let idle = TcpStream::connect(server.addr()).expect("connect");
    idle.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    // Give the accept loop a moment to hand the connection off.
    let mut probe = BufReader::new(idle.try_clone().expect("clone"));
    server.shutdown();
    let mut line = String::new();
    let n = probe
        .read_line(&mut line)
        .expect("idle client sees EOF, not a timeout");
    assert_eq!(n, 0, "server closed the idle connection after shutdown");
}
