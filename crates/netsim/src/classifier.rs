//! The DPI classification stage.
//!
//! The operator detects "the specific mobile service associated to each IP
//! session via Deep Packet Inspection and multiple fingerprinting
//! techniques", classifying **88%** of the traffic (§2). The synthetic
//! counterpart: every service (head or tail) owns a set of wire
//! fingerprints; sessions are stamped with one of their service's
//! fingerprints, and a configurable fraction of sessions instead carries
//! an *opaque* signature the table cannot invert (encrypted/unknown
//! protocols), reproducing the classification loss.

use rand::rngs::StdRng;
use rand::Rng;

use crate::records::FlowSignature;

/// Outcome of classifying one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceLabel {
    /// Recognized head service (catalog index).
    Head(u16),
    /// Recognized tail service (tail rank).
    Tail(u16),
    /// The signature matched no fingerprint.
    Unclassified,
}

/// Dictionary code of a signature no fingerprint matched. Codes below
/// `n_head` name head services, codes in `n_head..n_head + n_tail` name
/// tail services (by rank), and this sentinel names the unclassified rest
/// — the encoding [`DpiClassifier::classify_batch`] emits and the batched
/// aggregation fold branches on.
pub const UNCLASSIFIED_CODE: u32 = u32::MAX;

/// Fingerprint-table classifier.
///
/// The table is an open-addressing hash map specialized to the hot path:
/// fingerprints are already SplitMix64-finalized (well mixed), so the
/// probe sequence starts at `signature & mask` and walks linearly —
/// one L1-resident lookup per record instead of a SipHash `HashMap` probe.
/// Values are small dictionary codes (see [`UNCLASSIFIED_CODE`]); an
/// empty slot doubles as the unclassified answer.
#[derive(Debug, Clone)]
pub struct DpiClassifier {
    /// Slot keys (raw fingerprint bits); meaningful only where the
    /// matching `codes` slot is occupied.
    keys: Vec<u64>,
    /// Slot values: a service code, or [`UNCLASSIFIED_CODE`] for empty.
    codes: Vec<u32>,
    /// `capacity - 1`; capacity is a power of two ≥ 2 × fingerprints.
    mask: usize,
    n_head: u32,
    n_tail: u32,
    /// Fraction of sessions stamped with an opaque signature at the wire.
    opaque_fraction: f64,
    fingerprints_per_service: u32,
}

/// Deterministic fingerprint generator (SplitMix64).
fn fingerprint(service_key: u64, variant: u32) -> FlowSignature {
    let mut x = service_key
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(variant as u64 + 1);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    FlowSignature(x ^ (x >> 31))
}

/// Key-space separation between head and tail services.
const TAIL_KEY_BASE: u64 = 1 << 32;
/// Marker key for opaque signatures (never in the table).
const OPAQUE_KEY: u64 = u64::MAX;

impl DpiClassifier {
    /// Builds the fingerprint table for `n_head` head services and
    /// `n_tail` tail services; `classified_fraction` of sessions will be
    /// recognizable (the rest are stamped opaque at the wire).
    pub fn new(n_head: usize, n_tail: usize, classified_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&classified_fraction));
        let fingerprints_per_service = 4;
        let max_entries = (n_head + n_tail) * fingerprints_per_service as usize;
        let capacity = (max_entries * 2).max(8).next_power_of_two();
        let mut classifier = DpiClassifier {
            keys: vec![0; capacity],
            codes: vec![UNCLASSIFIED_CODE; capacity],
            mask: capacity - 1,
            n_head: n_head as u32,
            n_tail: n_tail as u32,
            opaque_fraction: 1.0 - classified_fraction,
            fingerprints_per_service,
        };
        for s in 0..n_head {
            for v in 0..fingerprints_per_service {
                classifier.insert(fingerprint(s as u64, v).0, s as u32);
            }
        }
        for t in 0..n_tail {
            for v in 0..fingerprints_per_service {
                classifier.insert(
                    fingerprint(TAIL_KEY_BASE + t as u64, v).0,
                    n_head as u32 + t as u32,
                );
            }
        }
        classifier
    }

    /// Inserts `(key, code)`, overwriting an existing key's code (the
    /// semantics the historical `HashMap` table had on fingerprint
    /// collisions).
    fn insert(&mut self, key: u64, code: u32) {
        debug_assert!(code != UNCLASSIFIED_CODE);
        let mut i = (key as usize) & self.mask;
        loop {
            if self.codes[i] == UNCLASSIFIED_CODE {
                self.keys[i] = key;
                self.codes[i] = code;
                return;
            }
            if self.keys[i] == key {
                self.codes[i] = code;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Looks a raw signature up to its dictionary code
    /// ([`UNCLASSIFIED_CODE`] when no fingerprint matches).
    #[inline]
    pub fn code_of(&self, signature: u64) -> u32 {
        let mut i = (signature as usize) & self.mask;
        loop {
            let code = self.codes[i];
            // An empty slot (code == UNCLASSIFIED_CODE, key still 0)
            // terminates the probe with the unclassified answer, which is
            // exactly what a missing key means.
            if self.keys[i] == signature || code == UNCLASSIFIED_CODE {
                return code;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Dictionary-encodes a whole signature column into `codes` — the
    /// once-per-batch resolution the columnar fold runs on. Clears and
    /// refills `codes` in place (allocation-free once its capacity has
    /// warmed to the batch length).
    pub fn classify_batch(&self, signatures: &[u64], codes: &mut Vec<u32>) {
        codes.clear();
        codes.extend(signatures.iter().map(|&sig| self.code_of(sig)));
    }

    /// Expands a dictionary code back into a [`ServiceLabel`].
    #[inline]
    pub fn label_of_code(&self, code: u32) -> ServiceLabel {
        if code < self.n_head {
            ServiceLabel::Head(code as u16)
        } else if code < self.n_head + self.n_tail {
            ServiceLabel::Tail((code - self.n_head) as u16)
        } else {
            ServiceLabel::Unclassified
        }
    }

    /// Number of head services (codes `0..n_head` are head codes).
    pub fn n_head(&self) -> u32 {
        self.n_head
    }

    /// Number of tail services (codes `n_head..n_head + n_tail`).
    pub fn n_tail(&self) -> u32 {
        self.n_tail
    }

    /// Stamps a session of a head service with a wire signature: one of the
    /// service's fingerprints, or an opaque signature for the
    /// DPI-invisible share.
    pub fn stamp_head(&self, service: u16, rng: &mut StdRng) -> FlowSignature {
        self.stamp(service as u64, rng)
    }

    /// Stamps a session of a tail service.
    pub fn stamp_tail(&self, tail_rank: u16, rng: &mut StdRng) -> FlowSignature {
        self.stamp(TAIL_KEY_BASE + tail_rank as u64, rng)
    }

    fn stamp(&self, key: u64, rng: &mut StdRng) -> FlowSignature {
        if rng.gen::<f64>() < self.opaque_fraction {
            // Opaque: derived from a key outside the table, plus entropy so
            // opaque signatures do not collide with each other either.
            let salt: u32 = rng.gen();
            fingerprint(OPAQUE_KEY ^ (salt as u64), 0)
        } else {
            let variant = rng.gen_range(0..self.fingerprints_per_service);
            fingerprint(key, variant)
        }
    }

    /// Inverts a signature to a service label.
    #[inline]
    pub fn classify(&self, signature: FlowSignature) -> ServiceLabel {
        self.label_of_code(self.code_of(signature.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn classified_sessions_round_trip() {
        let c = DpiClassifier::new(20, 50, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for s in 0..20u16 {
            for _ in 0..10 {
                let sig = c.stamp_head(s, &mut rng);
                assert_eq!(c.classify(sig), ServiceLabel::Head(s));
            }
        }
        for t in 0..50u16 {
            let sig = c.stamp_tail(t, &mut rng);
            assert_eq!(c.classify(sig), ServiceLabel::Tail(t));
        }
    }

    #[test]
    fn opaque_fraction_is_respected() {
        let c = DpiClassifier::new(20, 0, 0.88);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 50_000;
        let mut unclassified = 0;
        for i in 0..n {
            let sig = c.stamp_head((i % 20) as u16, &mut rng);
            if c.classify(sig) == ServiceLabel::Unclassified {
                unclassified += 1;
            }
        }
        let rate = unclassified as f64 / n as f64;
        assert!((rate - 0.12).abs() < 0.01, "unclassified rate {rate}");
    }

    #[test]
    fn head_and_tail_keyspaces_do_not_collide() {
        let c = DpiClassifier::new(200, 500, 1.0);
        // 700 services × 4 fingerprints, all distinct: one occupied slot each.
        let occupied = c
            .codes
            .iter()
            .filter(|&&code| code != UNCLASSIFIED_CODE)
            .count();
        assert_eq!(occupied, 700 * 4);
    }

    #[test]
    fn opaque_signatures_never_classify() {
        let c = DpiClassifier::new(20, 20, 0.0); // everything opaque
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let sig = c.stamp_head(5, &mut rng);
            assert_eq!(c.classify(sig), ServiceLabel::Unclassified);
        }
    }

    #[test]
    fn unknown_signature_is_unclassified() {
        let c = DpiClassifier::new(5, 5, 1.0);
        assert_eq!(
            c.classify(FlowSignature(0xDEAD_BEEF)),
            ServiceLabel::Unclassified
        );
    }

    #[test]
    fn batch_codes_agree_with_scalar_classification() {
        let c = DpiClassifier::new(20, 30, 0.88);
        let mut rng = StdRng::seed_from_u64(9);
        let mut signatures: Vec<u64> = (0..2000)
            .map(|i| {
                if i % 3 == 0 {
                    c.stamp_tail((i % 30) as u16, &mut rng).0
                } else {
                    c.stamp_head((i % 20) as u16, &mut rng).0
                }
            })
            .collect();
        signatures.push(0); // empty-slot key must classify as unknown
        signatures.push(0xDEAD_BEEF);
        let mut codes = Vec::new();
        c.classify_batch(&signatures, &mut codes);
        assert_eq!(codes.len(), signatures.len());
        let mut seen_head = false;
        let mut seen_tail = false;
        let mut seen_opaque = false;
        for (&sig, &code) in signatures.iter().zip(codes.iter()) {
            assert_eq!(c.label_of_code(code), c.classify(FlowSignature(sig)));
            match c.label_of_code(code) {
                ServiceLabel::Head(_) => seen_head = true,
                ServiceLabel::Tail(_) => seen_tail = true,
                ServiceLabel::Unclassified => seen_opaque = true,
            }
        }
        assert!(seen_head && seen_tail && seen_opaque);
        // Refilling reuses the column without growing it.
        let cap = codes.capacity();
        c.classify_batch(&signatures, &mut codes);
        assert_eq!(codes.capacity(), cap);
    }
}
