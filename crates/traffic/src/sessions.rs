//! Discrete session sampling.
//!
//! The paper's probes observe individual IP sessions on the GTP user plane
//! (§2). This module samples synthetic sessions from the
//! [`DemandModel`]'s expectations: per
//! `(service, commune)` pair a Poisson number of sessions, each with a
//! start hour drawn from the applicable weekly profile, a log-normal
//! volume, a serving technology, and a true user position jittered inside
//! the commune. Sessions then flow through the `mobilenet-netsim`
//! collection pipeline, which re-aggregates them — with classification
//! loss and localization error — into a
//! [`TrafficDataset`](crate::dataset::TrafficDataset).
//!
//! Aggregates are unbiased with respect to the expected-value path: the
//! `volume_scale` thinning trades per-session granularity for speed
//! without moving the means.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mobilenet_geo::{CommuneId, Point};

use crate::demand::DemandModel;
use crate::dist::{log_normal_with_mean, poisson, unit_disc, Categorical};
use crate::mobility::MobilityModel;
use crate::week::{is_weekend_hour, HOURS_PER_DAY};

/// Radio technology serving a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technology {
    /// 3G (UTRAN → GGSN, Gn interface).
    G3,
    /// 4G (EUTRAN → P-GW, S5/S8 interface).
    G4,
}

/// One synthetic user session, as seen before the collection pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Session {
    /// Head-service index that truly generated the session.
    pub service: u16,
    /// The commune whose base station serves the session.
    pub commune: CommuneId,
    /// Hour-of-week of the session (0–167).
    pub start_hour: u16,
    /// Downlink volume, MB.
    pub dl_mb: f64,
    /// Uplink volume, MB.
    pub ul_mb: f64,
    /// Serving technology.
    pub tech: Technology,
    /// True position of the user when the session started.
    pub position: Point,
}

/// Seeded sampler of sessions from a demand model.
///
/// Generation is sharded **per service**: shard `s` covers service `s`
/// over every commune and draws from its own RNG stream, derived from the
/// master seed with [`mobilenet_par::seed_for`]. A shard's sessions are
/// therefore identical no matter which thread runs it or in what order —
/// the property the parallel collection pipeline builds on.
pub struct SessionGenerator<'a> {
    model: &'a DemandModel,
    seed: u64,
    /// Per-service hour samplers for the national profile.
    national_hours: Vec<Categorical>,
    /// Per-service hour samplers for the TGV-blend profile.
    tgv_hours: Vec<Categorical>,
    /// Gravity commuting flows (present when `commuter_share > 0`).
    mobility: Option<MobilityModel>,
}

impl<'a> SessionGenerator<'a> {
    /// Creates a generator; `seed` controls everything downstream.
    pub fn new(model: &'a DemandModel, seed: u64) -> Self {
        let n_services = model.catalog().head().len();
        let national_hours = (0..n_services)
            .map(|s| Categorical::new(model.national_profile(s).hourly()))
            .collect();
        // A TGV commune index, if any, to borrow its blended profile.
        let tgv_commune = model
            .country()
            .communes()
            .iter()
            .position(|c| c.usage_class() == mobilenet_geo::UsageClass::Tgv);
        let tgv_hours = (0..n_services)
            .map(|s| {
                let profile = match tgv_commune {
                    Some(ci) => model.profile_for(s, ci),
                    None => model.national_profile(s),
                };
                Categorical::new(profile.hourly())
            })
            .collect();
        let mobility = if model.config().commuter_share > 0.0 {
            Some(MobilityModel::gravity(
                model.country(),
                model.config().commute_radius_km,
                2.0,
            ))
        } else {
            None
        };
        SessionGenerator {
            model,
            seed: seed ^ 0x7365_7373_696f_6e73, // "sessions"
            national_hours,
            tgv_hours,
            mobility,
        }
    }

    /// Number of independent shards generation splits into (one per head
    /// service).
    pub fn shards(&self) -> usize {
        self.model.catalog().head().len()
    }

    /// Generates one shard — service `shard` over every commune — from the
    /// shard's own RNG stream. Safe to call from any thread, in any order;
    /// the shard's output depends only on `(model, seed, shard)`.
    ///
    /// Returns the number of sessions generated. When observability is
    /// enabled, the count also lands on the `traffic.sessions` counter —
    /// per-shard totals commute, so the counter is exact at any thread
    /// count.
    pub fn generate_shard(&self, shard: usize, mut sink: impl FnMut(&Session)) -> u64 {
        assert!(shard < self.shards(), "shard {shard} out of range");
        let mut rng = StdRng::seed_from_u64(mobilenet_par::seed_for(self.seed, shard as u64));
        let n_communes = self.model.country().communes().len();
        let mut count = 0u64;
        for ci in 0..n_communes {
            count += self.generate_pair(shard, ci, &mut rng, &mut sink);
        }
        mobilenet_obs::add("traffic.sessions", count);
        count
    }

    /// Generates the sessions of one `(service, commune)` pair.
    fn generate_pair(
        &self,
        service: usize,
        commune: usize,
        rng: &mut StdRng,
        sink: &mut impl FnMut(&Session),
    ) -> u64 {
        let Self {
            model,
            national_hours,
            tgv_hours,
            mobility,
            ..
        } = self;
        let model = *model;
        let cfg = model.config();
        let spec = &model.catalog().head()[service];
        let (weekly_dl, event_weights) = model.pair_demand(service, commune);
        if weekly_dl <= 0.0 {
            return 0;
        }
        // Thinned session count: volumes are scaled up to compensate.
        let mean_session_dl = spec.session_dl_mb * cfg.volume_scale;
        let lambda = weekly_dl / mean_session_dl;
        let n = poisson(&mut *rng, lambda);
        if n == 0 {
            return 0;
        }

        let home = &model.country().communes()[commune];
        let home_radius = disc_radius(home);
        let is_tgv = home.usage_class() == mobilenet_geo::UsageClass::Tgv;
        // Event-affected pairs sample hours from their surged weights;
        // everyone else uses the precomputed per-service samplers.
        let event_hours = event_weights.map(Categorical::new);
        let hours = match &event_hours {
            Some(h) => h,
            None if is_tgv => &tgv_hours[service],
            None => &national_hours[service],
        };

        for _ in 0..n {
            let start_hour = hours.sample(&mut *rng) as u16;
            // Commuting extension: relocate a share of working-hours
            // sessions to the subscriber's work commune.
            let (info, radius) = match mobility {
                Some(mob)
                    if is_working_hour(start_hour as usize)
                        && rng.gen::<f64>() < cfg.commuter_share =>
                {
                    let work = mob.sample_work(commune, &mut *rng) as usize;
                    let work = &model.country().communes()[work];
                    (work, disc_radius(work))
                }
                _ => (home, home_radius),
            };
            let dl_mb = log_normal_with_mean(&mut *rng, mean_session_dl, cfg.session_volume_sigma);
            let ul_mb = dl_mb * spec.ul_ratio;
            // Technology: the 4G-dependent demand share rides 4G where
            // available; without 4G everything falls back to 3G (the
            // 4G-only demand share was already removed by the spatial
            // gating in the demand model).
            let tech = if info.coverage.has_4g && rng.gen::<f64>() < tech_4g_share(spec) {
                Technology::G4
            } else {
                Technology::G3
            };
            // True position: uniform in a disc of the commune's area.
            let (a, b) = unit_disc(&mut *rng);
            let position = Point::new(info.centroid.x + radius * a, info.centroid.y + radius * b);
            sink(&Session {
                service: service as u16,
                commune: info.id,
                start_hour,
                dl_mb,
                ul_mb,
                tech,
                position,
            });
        }
        n
    }
}

/// Radius of the disc with a commune's area, the spread of its sessions'
/// true positions.
fn disc_radius(info: &mobilenet_geo::Commune) -> f64 {
    (info.area_km2 / std::f64::consts::PI).sqrt()
}

/// Whether an hour-of-week falls in commuting-relevant working hours
/// (9 am–6 pm on a working day).
fn is_working_hour(hour_of_week: usize) -> bool {
    let hod = hour_of_week % HOURS_PER_DAY;
    !is_weekend_hour(hour_of_week) && (9..18).contains(&hod)
}

/// Probability that a session of this service is served over 4G when 4G is
/// available: the 4G-dependent share plus half of the indifferent share.
fn tech_4g_share(spec: &crate::catalog::ServiceSpec) -> f64 {
    let dep = spec.spatial.fourg_share;
    dep + (1.0 - dep) * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every session of the week, shard by shard in shard order.
    fn generate(gen: &SessionGenerator, mut sink: impl FnMut(&Session)) -> u64 {
        (0..gen.shards())
            .map(|shard| gen.generate_shard(shard, &mut sink))
            .sum()
    }
    use crate::catalog::ServiceCatalog;
    use crate::config::TrafficConfig;
    use crate::dataset::Direction;
    use crate::week::HOURS_PER_WEEK;
    use mobilenet_geo::{Country, CountryConfig};
    use std::sync::Arc;

    fn model() -> DemandModel {
        let country = Arc::new(Country::generate(&CountryConfig::small(), 3));
        let catalog = Arc::new(ServiceCatalog::standard(10));
        DemandModel::new(country, catalog, TrafficConfig::fast(), 11)
    }

    #[test]
    fn generation_is_deterministic() {
        let m = model();
        let collect = |seed: u64| {
            let mut out = Vec::new();
            generate(&SessionGenerator::new(&m, seed), |s| out.push(*s));
            out
        };
        let a = collect(1);
        let b = collect(1);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        assert_eq!(a[0], b[0]);
        assert_eq!(a[a.len() - 1], b[b.len() - 1]);
        let c = collect(2);
        assert_ne!(a.len(), c.len());
    }

    #[test]
    fn sampled_totals_converge_to_expectation() {
        let m = model();
        let expected = m.expected_dataset();
        let mut dl_by_service = [0.0f64; 20];
        generate(&SessionGenerator::new(&m, 7), |s| {
            dl_by_service[s.service as usize] += s.dl_mb;
        });
        // Compare the largest services (enough sessions for a tight CLT
        // bound even with fast-config thinning).
        for (s, &got) in dl_by_service.iter().enumerate().take(3) {
            let want = expected.national_weekly(Direction::Down, s);
            let err = (got - want).abs() / want;
            assert!(
                err < 0.15,
                "service {s}: got {got}, want {want} (err {err:.3})"
            );
        }
    }

    #[test]
    fn session_fields_are_within_domain() {
        let m = model();
        let mut n = 0u64;
        generate(&SessionGenerator::new(&m, 3), |s| {
            n += 1;
            assert!((s.start_hour as usize) < HOURS_PER_WEEK);
            assert!(s.dl_mb > 0.0);
            assert!(s.ul_mb >= 0.0);
            assert!((s.service as usize) < 20);
            assert!((s.commune.index()) < m.country().communes().len());
            // Position within ~the commune's disc of its centroid.
            let c = &m.country().communes()[s.commune.index()];
            let max_r = (c.area_km2 / std::f64::consts::PI).sqrt() + 1e-9;
            assert!(s.position.distance(&c.centroid) <= max_r);
        });
        assert!(n > 1_000, "only {n} sessions generated");
    }

    #[test]
    fn ul_tracks_service_ratio() {
        let m = model();
        generate(&SessionGenerator::new(&m, 9), |s| {
            let ratio = m.catalog().head()[s.service as usize].ul_ratio;
            assert!((s.ul_mb - s.dl_mb * ratio).abs() < 1e-9);
        });
    }

    #[test]
    fn netflix_sessions_prefer_4g() {
        let m = model();
        let netflix = m
            .catalog()
            .head()
            .iter()
            .position(|s| s.name == "Netflix")
            .unwrap() as u16;
        let mms = m
            .catalog()
            .head()
            .iter()
            .position(|s| s.name == "MMS")
            .unwrap() as u16;
        let mut netflix_4g = (0u64, 0u64);
        let mut mms_4g = (0u64, 0u64);
        generate(&SessionGenerator::new(&m, 5), |s| {
            let covered = m.country().communes()[s.commune.index()].coverage.has_4g;
            if !covered {
                return;
            }
            if s.service == netflix {
                netflix_4g.1 += 1;
                if s.tech == Technology::G4 {
                    netflix_4g.0 += 1;
                }
            } else if s.service == mms {
                mms_4g.1 += 1;
                if s.tech == Technology::G4 {
                    mms_4g.0 += 1;
                }
            }
        });
        let nf = netflix_4g.0 as f64 / netflix_4g.1.max(1) as f64;
        let mm = mms_4g.0 as f64 / mms_4g.1.max(1) as f64;
        assert!(nf > mm, "netflix 4G share {nf} must exceed MMS {mm}");
    }

    #[test]
    fn commuting_relocates_working_hours_sessions_to_cities() {
        let country = Arc::new(Country::generate(&CountryConfig::small(), 3));
        let catalog = Arc::new(ServiceCatalog::standard(10));
        let mut cfg = TrafficConfig::fast();
        cfg.commuter_share = 0.6;
        let with = DemandModel::new(country.clone(), catalog.clone(), cfg, 11);
        let without = DemandModel::new(country, catalog, TrafficConfig::fast(), 11);

        let urban_daytime = |m: &DemandModel| -> f64 {
            let mut urban = 0.0;
            let mut total = 0.0;
            generate(&SessionGenerator::new(m, 5), |s| {
                let hod = s.start_hour as usize % 24;
                let weekday = s.start_hour >= 48;
                if weekday && (9..18).contains(&hod) {
                    total += s.dl_mb;
                    let class = m.country().communes()[s.commune.index()].usage_class();
                    if class == mobilenet_geo::UsageClass::Urban {
                        urban += s.dl_mb;
                    }
                }
            });
            urban / total
        };
        let share_with = urban_daytime(&with);
        let share_without = urban_daytime(&without);
        assert!(
            share_with > share_without + 0.02,
            "commuting should concentrate daytime traffic in cities: {share_with} vs {share_without}"
        );
    }

    #[test]
    fn hours_follow_the_profile() {
        let m = model();
        // Aggregate hours of service 0 over non-TGV communes and check the
        // empirical distribution correlates with the profile.
        let mut counts = vec![0.0f64; HOURS_PER_WEEK];
        generate(&SessionGenerator::new(&m, 13), |s| {
            if s.service == 0 {
                counts[s.start_hour as usize] += 1.0;
            }
        });
        let profile = m.national_profile(0).hourly().to_vec();
        let r = mobilenet_timeseries::stats::pearson_r(&counts, &profile);
        assert!(
            r > 0.9,
            "hour histogram does not follow the profile: r = {r}"
        );
    }
}
