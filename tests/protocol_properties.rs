//! The protocol parsers never panic on client input.
//!
//! The server decodes every request line with `String::from_utf8_lossy`
//! and hands it to `Command::parse`; clients hand event payloads to
//! `DeltaEvent::parse_wire` and `LIST` lines to `StudyInfo::parse`. Each
//! property below feeds one family of lines to all three parsers: none
//! may panic, and every `Command::parse` error keeps the `bad ` prefix the
//! protocol promises (`ERR bad <verb>: <token> ...`).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use mobilenet::serve::{Command, DeltaEvent, StudyInfo, MAX_LINE_BYTES};

/// Request verbs, event kinds and the keywords inside event payloads and
/// `LIST` lines, so random operands reach every parser arm.
const WORDS: &[&str] = &[
    "HELLO",
    "LIST",
    "USE",
    "START",
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
    "QUIT",
    "SHUTDOWN",
    "watermark",
    "version",
    "rank",
    "autocorr",
    "end",
    "alpha",
    "scale",
    "seed",
    "weeks",
    "week",
    "hour",
    "complete",
    "churn",
    "lag",
    "window",
    "mean",
];

/// Operand fragments: directions, integers at and past their bounds,
/// float spellings, topic lists and the rank payload's separators.
const OPERANDS: &[&str] = &[
    "dl",
    "ul",
    "DL",
    "sideways",
    "0",
    "1",
    "24",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "1e400",
    "NaN",
    "inf",
    "all",
    "rank,watermark",
    ",",
    "rank,,version",
    "=",
    "|",
    "a=b=c",
    "Facebook Video=1e-1=video|x=",
    "-",
    "true",
    "false",
    "é",
    "\u{FFFD}",
];

/// Runs `line` through every parser, bare and newline-terminated as the
/// server reads it.
fn check(line: &str) -> Result<(), TestCaseError> {
    for line in [line.to_string(), format!("{line}\n"), format!("{line}\r\n")] {
        if let Err(msg) = Command::parse(&line) {
            prop_assert!(
                msg.starts_with("bad "),
                "Command::parse({:?}) erred {:?}",
                line,
                msg
            );
        }
        let _ = DeltaEvent::parse_wire(&line);
        let _ = StudyInfo::parse(&line);
    }
    Ok(())
}

/// Decodes sampled `0..256` values as raw bytes, the way the server
/// decodes a request line.
fn lossy(bytes: &[u16]) -> String {
    let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #[test]
    fn arbitrary_byte_lines_never_panic(bytes in prop::collection::vec(0u16..256, 0..300)) {
        check(&lossy(&bytes))?;
    }

    #[test]
    fn very_long_tokens_never_panic(
        verb in 0usize..WORDS.len(),
        with_verb in prop::bool::ANY,
        fill in 0u16..256,
        len in 0usize..3 * MAX_LINE_BYTES,
    ) {
        let token = lossy(&[fill]).repeat(len);
        let line = if with_verb { format!("{} {token}", WORDS[verb]) } else { token };
        check(&line)?;
    }
}

proptest! {
    // Cheap cases: enough of them that every verb meets every operand
    // count, including none.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn known_words_with_random_operands_never_panic(
        verb in 0usize..WORDS.len(),
        lowercase in prop::bool::ANY,
        operands in prop::collection::vec(0usize..OPERANDS.len(), 0..6),
        noise in prop::collection::vec(0u16..256, 0..12),
        noise_at in 0usize..7,
    ) {
        let verb = WORDS[verb];
        let mut tokens =
            vec![if lowercase { verb.to_ascii_lowercase() } else { verb.to_string() }];
        tokens.extend(operands.iter().map(|&i| OPERANDS[i].to_string()));
        if !noise.is_empty() {
            tokens.insert(noise_at.min(tokens.len()), lossy(&noise));
        }
        check(&tokens.join(" "))?;
    }
}
