//! The passive probes on the Gn and S5/S8 interfaces.
//!
//! A probe sees one GTP session: user-plane volume counters plus the ULI
//! from the control plane. It does **not** see the true service (only a
//! wire signature) nor the true position (only the noisy ULI fix mapped to
//! the serving base station's commune) — reproducing the information
//! boundary of the real apparatus.
//!
//! Collection probes sessions in blocks (`ProbeBlock`): a first pass
//! draws each session's ULI fix and then its signature, in exactly the RNG
//! order of the test-only reference `Probe::observe`; a second pass
//! locates every fix of the block through the station index. Localization
//! draws no randomness, so a blocked shard yields the same records as
//! observing its sessions one at a time, while the lookups run back to
//! back over warm index memory.

use rand::rngs::StdRng;

use mobilenet_geo::{CommuneId, Point};
use mobilenet_traffic::{Session, Technology};

use crate::classifier::DpiClassifier;
use crate::radio::RadioNetwork;
use crate::records::{FlowSignature, Interface, SessionRecord};
use crate::uli::UliModel;

/// A probe pair covering both core interfaces.
pub struct Probe<'a> {
    radio: &'a RadioNetwork,
    uli: UliModel,
    classifier: &'a DpiClassifier,
    /// Per-commune ULI displacement direction: TGV-corridor communes get
    /// the local rail tangent (train passengers move along the track),
    /// everyone else scatters isotropically. Empty means all-isotropic.
    movement_directions: Vec<Option<(f64, f64)>>,
}

impl<'a> Probe<'a> {
    /// Wires a probe to the radio network and classifier.
    pub fn new(radio: &'a RadioNetwork, uli: UliModel, classifier: &'a DpiClassifier) -> Self {
        Probe {
            radio,
            uli,
            classifier,
            movement_directions: Vec::new(),
        }
    }

    /// Sets per-commune movement directions for anisotropic ULI noise.
    pub fn with_movement_directions(mut self, directions: Vec<Option<(f64, f64)>>) -> Self {
        self.movement_directions = directions;
        self
    }

    /// Observes one session, producing the operator-side record: the
    /// reference the blocked path is checked against.
    #[cfg(test)]
    pub fn observe(&self, session: &Session, rng: &mut StdRng) -> SessionRecord {
        let (fix, signature) = self.sense(session, rng);
        record_of(session, fix.1, self.radio.commune_of_fix(&fix.0), signature)
    }

    /// Observes every staged session of `block`: ULI fix then signature
    /// per session (the draw order of `Probe::observe`), then every fix
    /// located.
    pub(crate) fn observe_block(&self, block: &mut ProbeBlock, rng: &mut StdRng) {
        block.fixes.clear();
        block.signatures.clear();
        block.communes.clear();
        for session in &block.sessions {
            let (fix, signature) = self.sense(session, rng);
            block.fixes.push(fix);
            block.signatures.push(signature);
        }
        for (fix, _) in &block.fixes {
            block.communes.push(self.radio.commune_of_fix(fix));
        }
    }

    /// The RNG-drawing half of an observation: the (possibly stale) ULI
    /// fix, then the wire signature.
    #[inline]
    fn sense(&self, session: &Session, rng: &mut StdRng) -> ((Point, bool), FlowSignature) {
        let direction = self
            .movement_directions
            .get(session.commune.index())
            .copied()
            .flatten();
        let fix = self.uli.fix_along(&session.position, direction, rng);
        (fix, self.classifier.stamp_head(session.service, rng))
    }
}

/// The operator-side record of a session, given what the probe saw.
#[inline]
fn record_of(
    session: &Session,
    stale_uli: bool,
    commune: CommuneId,
    signature: FlowSignature,
) -> SessionRecord {
    let interface = match session.tech {
        Technology::G3 => Interface::Gn,
        Technology::G4 => Interface::S5S8,
    };
    SessionRecord {
        interface,
        start_hour: session.start_hour,
        dl_mb: session.dl_mb,
        ul_mb: session.ul_mb,
        commune,
        signature,
        stale_uli,
    }
}

/// Per-shard scratch of the blocked probe: one block of staged sessions
/// and what [`Probe::observe_block`] made of each. Allocated once per
/// shard; its vectors keep their capacity from block to block.
pub(crate) struct ProbeBlock {
    /// The staged sessions, in generation order.
    pub(crate) sessions: Vec<Session>,
    fixes: Vec<(Point, bool)>,
    signatures: Vec<FlowSignature>,
    communes: Vec<CommuneId>,
}

impl ProbeBlock {
    /// Scratch for blocks of up to `capacity` sessions.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        ProbeBlock {
            sessions: Vec::with_capacity(capacity),
            fixes: Vec::with_capacity(capacity),
            signatures: Vec::with_capacity(capacity),
            communes: Vec::with_capacity(capacity),
        }
    }

    /// The observed block, in session order: each session with its record.
    pub(crate) fn records(&self) -> impl Iterator<Item = (&Session, SessionRecord)> + '_ {
        self.sessions.iter().enumerate().map(|(i, session)| {
            let (_, stale) = self.fixes[i];
            (
                session,
                record_of(session, stale, self.communes[i], self.signatures[i]),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ServiceLabel;
    use crate::config::NetsimConfig;
    use mobilenet_geo::{Country, CountryConfig, Point};
    use rand::{Rng, SeedableRng};

    fn fixture() -> (Country, RadioNetwork, DpiClassifier) {
        let country = Country::generate(&CountryConfig::small(), 4);
        let radio = RadioNetwork::deploy(&country, &NetsimConfig::standard(), 9);
        let classifier = DpiClassifier::new(20, 10, 1.0);
        (country, radio, classifier)
    }

    fn session(country: &Country, tech: Technology) -> Session {
        let c = &country.communes()[100];
        Session {
            service: 3,
            commune: c.id,
            start_hour: 60,
            dl_mb: 12.0,
            ul_mb: 1.0,
            tech,
            position: c.centroid,
        }
    }

    #[test]
    fn technology_selects_the_interface() {
        let (country, radio, classifier) = fixture();
        let probe = Probe::new(&radio, UliModel::new(&NetsimConfig::ideal()), &classifier);
        let mut rng = StdRng::seed_from_u64(1);
        let r3 = probe.observe(&session(&country, Technology::G3), &mut rng);
        assert_eq!(r3.interface, Interface::Gn);
        let r4 = probe.observe(&session(&country, Technology::G4), &mut rng);
        assert_eq!(r4.interface, Interface::S5S8);
    }

    #[test]
    fn volumes_and_timing_pass_through() {
        let (country, radio, classifier) = fixture();
        let probe = Probe::new(&radio, UliModel::new(&NetsimConfig::ideal()), &classifier);
        let mut rng = StdRng::seed_from_u64(2);
        let s = session(&country, Technology::G4);
        let r = probe.observe(&s, &mut rng);
        assert_eq!(r.dl_mb, s.dl_mb);
        assert_eq!(r.ul_mb, s.ul_mb);
        assert_eq!(r.start_hour, s.start_hour);
    }

    #[test]
    fn record_signature_classifies_back_to_the_service() {
        let (country, radio, classifier) = fixture();
        let probe = Probe::new(&radio, UliModel::new(&NetsimConfig::ideal()), &classifier);
        let mut rng = StdRng::seed_from_u64(3);
        let r = probe.observe(&session(&country, Technology::G3), &mut rng);
        assert_eq!(classifier.classify(r.signature), ServiceLabel::Head(3));
    }

    #[test]
    fn localization_noise_can_misassign_the_commune() {
        let (country, radio, classifier) = fixture();
        // Huge noise: fixes land far away.
        let mut cfg = NetsimConfig::standard();
        cfg.uli_median_error_km = 30.0;
        let probe = Probe::new(&radio, UliModel::new(&cfg), &classifier);
        let mut rng = StdRng::seed_from_u64(4);
        let s = session(&country, Technology::G3);
        let misses = (0..200)
            .filter(|_| probe.observe(&s, &mut rng).commune != s.commune)
            .count();
        assert!(misses > 100, "only {misses}/200 misassigned at 30 km noise");
    }

    #[test]
    fn ideal_uli_with_central_position_rarely_misassigns() {
        let (country, radio, classifier) = fixture();
        let probe = Probe::new(&radio, UliModel::new(&NetsimConfig::ideal()), &classifier);
        let mut rng = StdRng::seed_from_u64(5);
        let mut hits = 0;
        let total = 200;
        for commune in country.communes().iter().take(total) {
            let s = Session {
                service: 0,
                commune: commune.id,
                start_hour: 0,
                dl_mb: 1.0,
                ul_mb: 0.1,
                tech: Technology::G3,
                position: commune.centroid,
            };
            if probe.observe(&s, &mut rng).commune == s.commune {
                hits += 1;
            }
        }
        assert!(
            hits * 10 >= total * 6,
            "only {hits}/{total} correct communes"
        );
    }

    #[test]
    fn blocked_observation_matches_one_session_at_a_time() {
        let (country, radio, classifier) = fixture();
        let probe = Probe::new(
            &radio,
            UliModel::new(&NetsimConfig::standard()),
            &classifier,
        );
        let mut block = ProbeBlock::with_capacity(4);
        for (i, c) in country.communes().iter().take(300).enumerate() {
            let tech = if i % 3 == 0 {
                Technology::G3
            } else {
                Technology::G4
            };
            let s = Session {
                commune: c.id,
                position: c.centroid,
                ..session(&country, tech)
            };
            block.sessions.push(s);
        }
        let mut one = StdRng::seed_from_u64(8);
        let want: Vec<SessionRecord> = block
            .sessions
            .iter()
            .map(|s| probe.observe(s, &mut one))
            .collect();
        let mut blocked = StdRng::seed_from_u64(8);
        probe.observe_block(&mut block, &mut blocked);
        let got: Vec<SessionRecord> = block.records().map(|(_, r)| r).collect();
        assert_eq!(got, want);
        // Both paths leave the RNG at the same point.
        assert_eq!(one.gen::<u64>(), blocked.gen::<u64>());
    }

    #[test]
    fn observation_is_deterministic_in_rng_state() {
        let (country, radio, classifier) = fixture();
        let probe = Probe::new(
            &radio,
            UliModel::new(&NetsimConfig::standard()),
            &classifier,
        );
        let s = session(&country, Technology::G4);
        let mut a = StdRng::seed_from_u64(6);
        let mut b = StdRng::seed_from_u64(6);
        assert_eq!(probe.observe(&s, &mut a), probe.observe(&s, &mut b));
        // And position jitter is actually used: a different seed moves it.
        let mut c = StdRng::seed_from_u64(7);
        let rc = probe.observe(&s, &mut c);
        let ra = probe.observe(&s, &mut a);
        // (May coincide in commune, but signatures virtually never match.)
        assert!(rc != ra || rc.commune == ra.commune);
        let _ = Point::new(0.0, 0.0);
    }
}
