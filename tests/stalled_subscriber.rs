//! A subscriber that reads nothing while its study ingests (DESIGN §3.16).
//!
//! What this file pins: a client that subscribes before ingestion starts
//! and then stalls until the study completes holds ingestion back not at
//! all and loses no event. When it finally drains its stream, the seqs
//! run from 0 without a gap, the last event is `end`, and replaying the
//! stream's rank events gives the polled `RANK` for both directions.

use std::time::{Duration, Instant};

use mobilenet::serve::{Client, DeltaEvent, LiveState, StudyRegistry, Topic};
use mobilenet::traffic::Direction;
use mobilenet::Scale;

#[test]
fn a_stalled_subscriber_drains_a_gapless_stream_after_ingestion_finishes() {
    mobilenet::obs::set_enabled(Some(true));
    let registry = StudyRegistry::new();
    let state = LiveState::from_config(&Scale::Small.config(), 17).expect("valid config");
    let entry = registry
        .register_state("slow", "small", state, 1)
        .expect("registration");
    let mut server =
        mobilenet::spawn_registry_server(registry.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.addr().to_string();

    let mut stalled = Client::connect(&addr).expect("connect");
    let subscription = stalled.subscribe(Topic::ALL.to_vec()).expect("subscribe");
    registry.start(&entry).expect("ingestion starts");

    // Ingestion must finish while the subscriber reads nothing; a second
    // connection watches for completion.
    let mut poller = Client::connect(&addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(600);
    while !poller.request("WATERMARK").expect("watermark answers")[0].contains("complete true") {
        assert!(Instant::now() < deadline, "ingestion never completed");
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut replayed: [Option<Vec<String>>; 2] = [None, None];
    let mut seqs = Vec::new();
    let mut last = None;
    for item in subscription {
        let (seq, event) = item.expect("well-formed event");
        seqs.push(seq);
        if let DeltaEvent::Rank { dir, entries, .. } = &event {
            let slot = usize::from(*dir == Direction::Up);
            replayed[slot] = Some(entries.iter().map(|e| e.protocol_line()).collect());
        }
        last = Some(event);
    }
    assert!(
        seqs.iter().copied().eq(0..seqs.len() as u64),
        "seqs must run from 0 without a gap: {seqs:?}"
    );
    assert!(
        matches!(last, Some(DeltaEvent::End { .. })),
        "the stream ends on end: {last:?}"
    );

    for (slot, dir) in [(0, "dl"), (1, "ul")] {
        let replayed = replayed[slot].as_ref().expect("rank events arrived");
        // The drained connection is back in command mode.
        let polled = stalled
            .request(&format!("RANK {dir} {}", replayed.len()))
            .expect("rank answers");
        assert_eq!(
            replayed, &polled,
            "replayed {dir} ranking differs from the polled one"
        );
    }

    stalled.quit().expect("quit");
    poller.quit().expect("quit");
    server.shutdown();
}
