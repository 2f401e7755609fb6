//! Socket-level framing: every request line gets exactly one framed reply.
//!
//! One small study is ingested to completion and served over a real
//! socket. Each case opens one connection and sends a random run of
//! request lines, one at a time: every verb except `START`, `QUIT` and
//! `SHUTDOWN`, with operands drawn from the protocol's edge values (`0`,
//! `1`, `168`, `u64::MAX - 1`, `u64::MAX`) and malformed tokens, plus
//! blank lines and one overlong line. Every non-blank line must get
//! exactly one framed reply: `OK <n>` followed by `n` body lines, or one
//! `ERR` line. A `SUBSCRIBE` that answers `OK 0` streams its `EVENT` round
//! up to the `end` event and then returns to command mode. A closing
//! `HELLO` checks that no reply was left unread.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use mobilenet::serve::{LiveState, MAX_LINE_BYTES, PROTOCOL_VERSION};
use mobilenet::{spawn_server, DeltaEvent, Scale};

const VERBS: &[&str] = &[
    "HELLO",
    "LIST",
    "USE",
    "SUBSCRIBE",
    "RANK",
    "R2",
    "PEAKS",
    "SERIES",
    "AUTOCORR",
    "WATERMARK",
    "STATS",
    "DATASET",
    "HEALTH",
];
const DIRS: &[&str] = &["dl", "ul", "DL", "sideways"];
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "168",
    "18446744073709551614",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1e400",
];
const TOPICS: &[&str] = &[
    "all",
    "rank,watermark",
    "version",
    "autocorr",
    "rank,,version",
];
const STUDIES: &[&str] = &["default", "alpha"];

/// The address of a server whose one study has finished ingesting, so
/// every snapshot sits at watermark 168.
fn server_addr() -> &'static str {
    static ADDR: OnceLock<String> = OnceLock::new();
    ADDR.get_or_init(|| {
        let state = LiveState::from_config(&Scale::Small.config(), 17).expect("valid config");
        state.run_ingestion().expect("ingestion succeeds");
        // Dropping the handle leaves the server running for the process.
        let server = spawn_server(state, "127.0.0.1:0").expect("bind");
        server.addr().to_string()
    })
}

/// One request line, every choice read from `bits`: a blank line, or a
/// verb with its grammar's operands, sometimes one short or one long.
fn request_line(bits: u64) -> String {
    let pick = |table: &[&'static str], shift: u32| {
        table[((bits >> shift) % table.len() as u64) as usize].to_string()
    };
    if bits & 0xf == 0 {
        return if bits & 16 == 0 {
            String::new()
        } else {
            " \t".into()
        };
    }
    let verb = pick(VERBS, 8);
    let mut tokens = vec![if bits & (1 << 16) == 0 {
        verb.clone()
    } else {
        verb.to_lowercase()
    }];
    match verb.as_str() {
        "USE" => tokens.push(pick(STUDIES, 20)),
        "SUBSCRIBE" => tokens.push(pick(TOPICS, 20)),
        "R2" | "PEAKS" => tokens.push(pick(DIRS, 20)),
        "RANK" | "SERIES" | "AUTOCORR" => {
            tokens.push(pick(DIRS, 20));
            tokens.push(pick(NUMBERS, 24));
        }
        _ => {}
    }
    match (bits >> 32) % 8 {
        0 => {
            tokens.pop();
        }
        1 => tokens.push(pick(NUMBERS, 40)),
        _ => {}
    }
    tokens.join(" ")
}

fn read_line(reader: &mut impl BufRead, after: &str) -> Result<String, TestCaseError> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err(TestCaseError::fail(format!(
            "connection closed before the reply to {after:?}"
        ))),
        Ok(_) => Ok(line.trim_end_matches(['\r', '\n']).to_string()),
        Err(e) => Err(TestCaseError::fail(format!("no reply to {after:?}: {e}"))),
    }
}

/// Reads the one framed reply to `request` and returns its body.
fn read_reply(reader: &mut impl BufRead, request: &str) -> Result<Vec<String>, TestCaseError> {
    let head = read_line(reader, request)?;
    if head.starts_with("ERR ") {
        return Ok(Vec::new());
    }
    let n: usize = head
        .strip_prefix("OK ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| TestCaseError::fail(format!("unframed reply {head:?} to {request:?}")))?;
    let body = (0..n)
        .map(|_| read_line(reader, request))
        .collect::<Result<Vec<_>, _>>()?;
    let subscribed = request
        .split_whitespace()
        .next()
        .is_some_and(|verb| verb.eq_ignore_ascii_case("SUBSCRIBE"));
    if subscribed {
        prop_assert_eq!(n, 0);
        loop {
            let event = read_line(reader, request)?;
            let payload = event
                .strip_prefix("EVENT ")
                .and_then(|rest| rest.split_once(' '))
                .map(|(_, payload)| payload)
                .ok_or_else(|| TestCaseError::fail(format!("unframed event {event:?}")))?;
            match DeltaEvent::parse_wire(payload) {
                Ok(DeltaEvent::End { .. }) => break,
                Ok(_) => {}
                Err(e) => return Err(TestCaseError::fail(format!("bad event {event:?}: {e}"))),
            }
        }
    }
    Ok(body)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_request_line_gets_exactly_one_framed_reply(
        lines in prop::collection::vec(prop::num::u64::ANY, 1..16),
        overlong_at in 0usize..16,
    ) {
        let stream = TcpStream::connect(server_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut requests: Vec<String> = lines.iter().map(|&bits| request_line(bits)).collect();
        let overlong = format!("RANK dl {}", "9".repeat(MAX_LINE_BYTES));
        requests.insert(overlong_at.min(requests.len()), overlong);
        for request in &requests {
            writer.write_all(format!("{request}\n").as_bytes()).expect("send");
            if !request.trim().is_empty() {
                read_reply(&mut reader, request)?;
            }
        }
        writer.write_all(b"HELLO\n").expect("send");
        let hello = read_reply(&mut reader, "HELLO")?;
        prop_assert_eq!(hello.first().map(String::as_str), Some(PROTOCOL_VERSION));
    }
}
