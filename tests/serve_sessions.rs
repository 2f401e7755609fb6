//! Sessioned multi-study protocol contracts (DESIGN §3.16).
//!
//! What this file pins:
//!
//! * **Multi-study isolation:** two live studies with different seeds
//!   served by one registry never mix — each `USE`d study's `DATASET`
//!   equals *its own* batch export, switching back and forth on one
//!   connection;
//! * **Delta-vs-poll equivalence** (acceptance criterion): replaying a
//!   `SUBSCRIBE` stream's rank events reconstructs the post-ingest
//!   ranking bit-identically to a polled `RANK` snapshot — at 1, 2 and
//!   8 threads, with and without `FaultPlan::degraded`;
//! * **Handshake and hygiene:** `HELLO` reports `mobilenet-serve/v2`
//!   and the capability set, `LIST`/`USE` round-trip study descriptions,
//!   parse errors carry the offending token, and subscriptions after
//!   completion still deliver a baseline plus `end`;
//! * **Shutdown regression:** a `SHUTDOWN` issued on one connection
//!   wakes another connection's idle `SUBSCRIBE` writer (the PR 8
//!   read-timeout fix, mirrored on the write path) instead of stranding
//!   it on an empty event queue.

use std::time::Duration;

use mobilenet::par::set_thread_override;
use mobilenet::serve::{
    Client, ClientError, DeltaEvent, LiveState, StudyRegistry, Topic, PROTOCOL_VERSION,
};
use mobilenet::{FaultPlan, Pipeline, Scale};

/// The batch reference CSV for a small study at `seed`.
fn batch_csv(faults: FaultPlan, seed: u64) -> String {
    let run = Pipeline::builder()
        .scale(Scale::Small)
        .seed(seed)
        .faults(faults)
        .run()
        .expect("valid configuration");
    run.study().dataset().to_csv()
}

/// A registry serving one small study per `(name, seed)`, with a server
/// bound on an ephemeral port.
fn serve_studies(
    studies: &[(&str, u64)],
    faults: &FaultPlan,
) -> (std::sync::Arc<StudyRegistry>, mobilenet::ServerHandle) {
    mobilenet::obs::set_enabled(Some(true));
    let registry = StudyRegistry::new();
    let config = Scale::Small.config().with_faults(faults.clone());
    for (name, seed) in studies {
        let state = LiveState::from_config(&config, *seed).expect("valid config");
        registry
            .register_state(name, "small", state, 1)
            .expect("registration succeeds");
    }
    let server = mobilenet::spawn_registry_server(registry.clone(), "127.0.0.1:0").expect("bind");
    (registry, server)
}

/// Polls `WATERMARK` until the selected study reports completion.
fn wait_complete(client: &mut Client) {
    loop {
        let body = client.request("WATERMARK").expect("watermark answers");
        if body[0].contains("complete true") {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn studies_never_mix_across_use_switches() {
    let (registry, mut server) = serve_studies(&[("alpha", 11), ("beta", 23)], &FaultPlan::none());
    let addr = server.addr().to_string();
    for entry in [
        registry.get("alpha").unwrap(),
        registry.get("beta").unwrap(),
    ] {
        registry.start(&entry).expect("ingestion starts");
    }

    let mut client = Client::connect(&addr).expect("connect");
    let hello = client.hello().expect("hello answers");
    assert_eq!(hello.version, PROTOCOL_VERSION);
    assert_eq!(hello.studies, 2);
    assert!(
        hello.capabilities.iter().any(|c| c == "SUBSCRIBE"),
        "caps: {hello:?}"
    );

    let listed = client.list().expect("list answers");
    assert_eq!(listed.len(), 2);
    assert_eq!(listed[0].name, "alpha");
    assert_eq!(listed[0].seed, 11);
    assert_eq!(listed[1].name, "beta");
    assert_eq!(listed[1].seed, 23);

    // With several studies registered, an un-USEd connection must pick.
    let mut fresh = Client::connect(&addr).expect("connect");
    match fresh.request("WATERMARK") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("USE"), "got {msg:?}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    fresh.quit().expect("quit");

    let reference_alpha = batch_csv(FaultPlan::none(), 11);
    let reference_beta = batch_csv(FaultPlan::none(), 23);
    assert!(
        reference_alpha != reference_beta,
        "seeds must differ for isolation to mean anything"
    );

    // Switch back and forth on ONE connection: each DATASET must be the
    // USE'd study's own batch export, never the other's.
    for (study, reference) in [
        ("alpha", &reference_alpha),
        ("beta", &reference_beta),
        ("alpha", &reference_alpha),
    ] {
        let info = client.use_study(study).expect("use answers");
        assert_eq!(info.name, study);
        wait_complete(&mut client);
        let body = client.request("DATASET").expect("dataset answers");
        let mut wire = body.join("\n");
        wire.push('\n');
        assert!(wire == *reference, "study {study} served a foreign dataset");
    }

    client.quit().expect("quit");
    server.shutdown();
}

/// Replays a subscription into the final per-direction rankings and
/// checks them against a polled `RANK` — the delta-vs-poll equivalence
/// criterion.
fn assert_delta_replay_matches_poll(faults: &FaultPlan, threads: usize) {
    set_thread_override(Some(threads));
    let (registry, mut server) = serve_studies(&[("solo", 7)], faults);
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    // Subscribe BEFORE ingestion starts: the stream must cover the whole
    // run and terminate itself at completion.
    let subscription = client
        .subscribe(vec![Topic::Rank, Topic::Watermark])
        .expect("subscribe");
    let entry = registry.get("solo").unwrap();

    let registry_start = registry.clone();
    let starter = std::thread::spawn(move || {
        // Give the subscriber a moment to receive its pre-ingest baseline.
        std::thread::sleep(Duration::from_millis(50));
        registry_start.start(&entry).expect("ingestion starts");
    });

    let mut last_rank: [Option<Vec<String>>; 2] = [None, None];
    let mut last_seq = None;
    let mut saw_end = false;
    for item in subscription {
        let (seq, event) = item.expect("well-formed event");
        if let Some(prev) = last_seq {
            assert_eq!(seq, prev + 1, "a seq gap means this subscriber lagged");
        }
        last_seq = Some(seq);
        match event {
            DeltaEvent::Rank { dir, entries, .. } => {
                let slot = match dir {
                    mobilenet::traffic::Direction::Down => 0,
                    mobilenet::traffic::Direction::Up => 1,
                };
                last_rank[slot] = Some(entries.iter().map(|e| e.protocol_line()).collect());
            }
            DeltaEvent::End { .. } => saw_end = true,
            _ => {}
        }
    }
    starter.join().expect("starter thread");
    assert!(saw_end, "stream terminates itself at completion");

    // The connection is back in command mode: poll the final ranking and
    // compare bit for bit with the replayed stream.
    for (slot, dir_token) in [(0, "dl"), (1, "ul")] {
        let replayed = last_rank[slot].as_ref().expect("rank events arrived");
        let polled = client
            .request(&format!("RANK {dir_token} {}", replayed.len()))
            .expect("rank answers");
        assert!(
            replayed == &polled,
            "replayed {dir_token} ranking differs from polled snapshot at {threads} threads"
        );
    }

    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn delta_replay_reconstructs_the_polled_ranking() {
    for faults in [FaultPlan::none(), FaultPlan::degraded(3)] {
        for threads in [1usize, 2, 8] {
            assert_delta_replay_matches_poll(&faults, threads);
        }
    }
    set_thread_override(None);
}

#[test]
fn subscribing_after_completion_yields_baseline_and_end() {
    let (registry, mut server) = serve_studies(&[("done", 5)], &FaultPlan::none());
    let addr = server.addr().to_string();
    let entry = registry.get("done").unwrap();
    registry.start(&entry).expect("ingestion starts");

    let mut client = Client::connect(&addr).expect("connect");
    wait_complete(&mut client);

    let events: Vec<_> = client
        .subscribe(vec![
            Topic::Watermark,
            Topic::Version,
            Topic::Rank,
            Topic::Autocorr,
        ])
        .expect("subscribe")
        .map(|item| item.expect("well-formed event").1)
        .collect();
    assert!(
        matches!(events.last(), Some(DeltaEvent::End { .. })),
        "stream ends immediately on a completed study: {events:?}"
    );
    let weeks_complete = events
        .iter()
        .any(|e| matches!(e, DeltaEvent::Watermark { complete: true, .. }));
    assert!(
        weeks_complete,
        "baseline carries the completed watermark: {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(e, DeltaEvent::Rank { .. })),
        "baseline carries the final rankings: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, DeltaEvent::Autocorr { lag: 24, .. })),
        "baseline carries the hour-lag autocorrelation: {events:?}"
    );

    // Parse errors carry the offending token (protocol hygiene).
    match client.request("SUBSCRIBE nope") {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("bad SUBSCRIBE: nope"), "got {msg:?}")
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    match client.request("USEX done") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("bad verb: USEX"), "got {msg:?}"),
        other => panic!("expected a parse error, got {other:?}"),
    }

    client.quit().expect("quit");
    server.shutdown();
}

#[test]
fn shutdown_wakes_a_subscribed_idle_client() {
    // The study is registered but never started: no events will ever
    // arrive past the baseline, so the streaming writer sits in its
    // queue wait — exactly the state the stop-flag recheck must cover.
    let (_registry, mut server) = serve_studies(&[("idle", 3)], &FaultPlan::none());
    let addr = server.addr().to_string();

    let (tx, rx) = std::sync::mpsc::channel();
    let sub_addr = addr.clone();
    let subscriber = std::thread::spawn(move || {
        let mut client = Client::connect(&sub_addr).expect("connect");
        let mut events = 0usize;
        for item in client.subscribe(vec![Topic::Watermark]).expect("subscribe") {
            match item {
                Ok(_) => events += 1,
                // Server hang-up mid-stream surfaces as one transport
                // error, then the iterator finishes.
                Err(ClientError::Io(_)) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        tx.send(events).expect("report");
    });

    // Let the subscriber drain its baseline and go idle, then stop the
    // server from a second connection.
    std::thread::sleep(Duration::from_millis(300));
    let admin = Client::connect(&addr).expect("connect admin");
    admin.shutdown().expect("shutdown acks");

    let events = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("subscribed client must wake on SHUTDOWN instead of hanging");
    subscriber.join().expect("subscriber thread");
    assert!(events >= 1, "the pre-stop baseline was delivered");
    server.shutdown();
}
