//! Golden digests of the collected bytes.
//!
//! Every other determinism test compares the program with itself (thread
//! counts, chunk sizes, batch vs live). These pin the small-scale
//! `mobilenet export` output to fixed FNV-1a digests, so a change that
//! alters what the apparatus collects — a different nearest station, a
//! reordered RNG draw, a changed fold order — fails here even when it is
//! self-consistent.
//!
//! The digests were re-pinned once, deliberately, when the per-session
//! samplers changed: a session's volume and ULI displacement now use the
//! ziggurat normal and its true position the rejection disc (DESIGN §3.3).
//! They were taken from the CLI export of that change:
//!
//! ```sh
//! mobilenet export --scale small --out a.csv
//! mobilenet export --scale small --faults degraded --chunk-size 97 --out b.csv
//! ```
//!
//! followed by FNV-1a (64-bit) over each file's bytes. The dataset's
//! `write_to` is what `export` writes, byte for byte.

use mobilenet::netsim::FaultPlan;
use mobilenet::{Pipeline, PipelineBuilder, Scale, DEFAULT_SEED};

/// FNV-1a of `mobilenet export --scale small`.
const SMALL_FAULT_FREE: u64 = 0xec6e_e493_75c8_98b0;

/// FNV-1a of `mobilenet export --scale small --faults degraded --chunk-size 97`.
const SMALL_DEGRADED_CHUNK_97: u64 = 0x93b6_21a6_f20f_8133;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn export_digest(edit: impl FnOnce(PipelineBuilder) -> PipelineBuilder) -> u64 {
    let builder = Pipeline::builder().scale(Scale::Small).seed(DEFAULT_SEED);
    let run = edit(builder).run().unwrap();
    let mut bytes = Vec::new();
    run.study().dataset().write_to(&mut bytes).unwrap();
    fnv1a(&bytes)
}

#[test]
fn small_fault_free_export_matches_its_golden_digest() {
    let got = export_digest(|b| b);
    assert_eq!(got, SMALL_FAULT_FREE, "digest {got:#018x}");
}

#[test]
fn small_degraded_chunk_97_export_matches_its_golden_digest() {
    let plan = FaultPlan::parse("degraded").unwrap();
    let got = export_digest(|b| b.faults(plan).chunk_size(97));
    assert_eq!(got, SMALL_DEGRADED_CHUNK_97, "digest {got:#018x}");
}
