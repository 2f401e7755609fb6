//! The demand field: expected traffic of every service everywhere.
//!
//! `DemandModel` combines the geography (`mobilenet-geo`), the service
//! catalog and the temporal profiles into the expected weekly demand of
//! each `(service, commune)` pair and its hourly decomposition. It is the
//! single source of truth that both generation paths share:
//!
//! * [`DemandModel::expected_dataset`] evaluates expectations directly —
//!   the fast, noise-free path used by tests and calibration;
//! * [`crate::sessions::SessionGenerator`] samples discrete sessions whose
//!   aggregate converges to the same expectations — the path that
//!   exercises the full `mobilenet-netsim` collection pipeline.
//!
//! Per-commune heterogeneity comes from two seeded log-normal factors: a
//! *commune activity* factor shared by all services (the common driver
//! behind Figure 10's strong spatial correlations) and a *service taste*
//! factor per (commune, service) pair (the residual that keeps r² below 1).

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mobilenet_geo::{Country, UsageClass};

use crate::catalog::ServiceCatalog;
use crate::config::TrafficConfig;
use crate::dataset::{Direction, TrafficDataset};
use crate::dist::unit_mean_log_normal;
use crate::profile::WeekProfile;
use crate::week::HOURS_PER_WEEK;

/// The expected demand field over a generated country.
#[derive(Debug, Clone)]
pub struct DemandModel {
    country: Arc<Country>,
    catalog: Arc<ServiceCatalog>,
    config: TrafficConfig,
    /// Per-service weekly profiles (national shape).
    profiles: Vec<WeekProfile>,
    /// Per-service profile applied in TGV communes (blend of the train
    /// schedule and the service's own shape).
    tgv_profiles: Vec<WeekProfile>,
    /// `[service][commune]` multiplicative taste factors (unit mean).
    taste: Vec<Vec<f64>>,
    /// Subscribers per commune.
    users: Vec<f64>,
    /// Event-adjusted hourly weights per affected `(service, commune)`:
    /// the stored weights sum to the weekly uplift factor (≥ 1).
    event_overrides: HashMap<(usize, usize), (Vec<f64>, f64)>,
    /// National weekly volume of each tail service, by tail rank, per
    /// direction: what [`DemandModel::fill_tail`] writes.
    tail_mb: [Vec<f64>; 2],
}

impl DemandModel {
    /// Builds the demand field; `seed` controls the taste factors only.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(
        country: Arc<Country>,
        catalog: Arc<ServiceCatalog>,
        config: TrafficConfig,
        seed: u64,
    ) -> Self {
        config.validate().expect("invalid TrafficConfig");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7472_6166_6669_6373); // "traffics"
        let n_communes = country.communes().len();
        let n_services = catalog.head().len();

        // Commune activity factor, shared across services.
        let activity: Vec<f64> = (0..n_communes)
            .map(|_| unit_mean_log_normal(&mut rng, config.commune_taste_sigma))
            .collect();
        // Service-specific taste on top.
        let taste: Vec<Vec<f64>> = (0..n_services)
            .map(|_| {
                activity
                    .iter()
                    .map(|a| a * unit_mean_log_normal(&mut rng, config.service_taste_sigma))
                    .collect()
            })
            .collect();

        // Weekly profiles, with per-(service, hour) log-normal fluctuation
        // baked in: real aggregate demand is not a smooth curve, and the
        // smoothed z-score detector behaves pathologically on one (its
        // trailing window degenerates). The jitter has unit mean, so
        // expectations are unchanged.
        let jitter = |rng: &mut StdRng, profile: &WeekProfile| -> WeekProfile {
            let weights: Vec<f64> = profile
                .hourly()
                .iter()
                .map(|w| w * unit_mean_log_normal(rng, config.hourly_noise_sigma))
                .collect();
            WeekProfile::from_weights(weights)
        };
        let profiles: Vec<WeekProfile> = catalog
            .head()
            .iter()
            .map(|spec| jitter(&mut rng, &WeekProfile::for_service(spec)))
            .collect();
        let train = jitter(&mut rng, &WeekProfile::tgv());
        let tgv_profiles: Vec<WeekProfile> = profiles
            .iter()
            .map(|p| train.blend(p, config.tgv_profile_weight))
            .collect();

        let users: Vec<f64> = country
            .communes()
            .iter()
            .map(|c| c.population as f64 * config.subscriber_share)
            .collect();

        // Exceptional events: precompute surged hourly weights for every
        // affected (service, commune). The weights sum to the weekly
        // uplift (≥ 1) instead of 1, so event traffic is *additional*.
        let mut event_overrides: HashMap<(usize, usize), (Vec<f64>, f64)> = HashMap::new();
        for event in &config.events {
            for id in country.communes_within(&event.epicenter, event.radius_km) {
                let ci = id.index();
                let d = country.communes()[ci].centroid.distance(&event.epicenter);
                let surge = event.surge_at(d);
                if surge <= 1.0 {
                    continue;
                }
                for (s, spec) in catalog.head().iter().enumerate() {
                    if !event.affects(spec.category) {
                        continue;
                    }
                    let entry = event_overrides.entry((s, ci)).or_insert_with(|| {
                        let base = if country.communes()[ci].usage_class() == UsageClass::Tgv {
                            tgv_profiles[s].hourly().to_vec()
                        } else {
                            profiles[s].hourly().to_vec()
                        };
                        (base, 1.0)
                    });
                    for h in event.hours() {
                        entry.0[h] *= surge;
                    }
                    entry.1 = entry.0.iter().sum();
                }
            }
        }

        // Tail volumes are catalog constants scaled by the national
        // subscriber base.
        let national_users: f64 = users.iter().sum();
        let tail = |per_user: &[f64]| -> Vec<f64> {
            per_user
                .iter()
                .enumerate()
                .map(|(rank, &mb)| mb * national_users * tail_damp(rank))
                .collect()
        };
        let tail_mb = [tail(catalog.tail_dl_mb()), tail(catalog.tail_ul_mb())];

        DemandModel {
            country,
            catalog,
            config,
            profiles,
            tgv_profiles,
            taste,
            users,
            event_overrides,
            tail_mb,
        }
    }

    /// The underlying country.
    pub fn country(&self) -> &Country {
        &self.country
    }

    /// The service catalog.
    pub fn catalog(&self) -> &ServiceCatalog {
        &self.catalog
    }

    /// The generation configuration.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// The weekly profile a `(service, commune)` pair follows: TGV
    /// communes ride the train-schedule blend, everyone else the service's
    /// national shape (§5: urbanization does not change *when* people use
    /// services — only TGV does).
    pub(crate) fn profile_for(&self, service: usize, commune: usize) -> &WeekProfile {
        if self.country.communes()[commune].usage_class() == UsageClass::Tgv {
            &self.tgv_profiles[service]
        } else {
            &self.profiles[service]
        }
    }

    /// The national (non-TGV) profile of a service.
    pub(crate) fn national_profile(&self, service: usize) -> &WeekProfile {
        &self.profiles[service]
    }

    /// Hourly demand weight of `(service, commune)` at `hour`: the
    /// applicable weekly profile, adjusted for any exceptional event. The
    /// weights sum to [`DemandModel::weekly_uplift`] over the week.
    pub(crate) fn hourly_weight(&self, service: usize, commune: usize, hour: usize) -> f64 {
        match self.event_overrides.get(&(service, commune)) {
            Some((weights, _)) => weights[hour],
            None => self.profile_for(service, commune).value(hour),
        }
    }

    /// Weekly demand uplift from exceptional events (1.0 when unaffected).
    pub(crate) fn weekly_uplift(&self, service: usize, commune: usize) -> f64 {
        self.event_overrides
            .get(&(service, commune))
            .map(|(_, s)| *s)
            .unwrap_or(1.0)
    }

    /// Expected weekly downlink MB of `service` in `commune`, including
    /// any event uplift.
    pub(crate) fn weekly_dl_mb(&self, service: usize, commune: usize) -> f64 {
        self.pair_demand(service, commune).0
    }

    /// [`DemandModel::weekly_dl_mb`] of a pair together with its
    /// event-adjusted hourly weights (`None` when no event affects it),
    /// from one lookup of the event table — the per-pair query of session
    /// sampling.
    pub(crate) fn pair_demand(&self, service: usize, commune: usize) -> (f64, Option<&[f64]>) {
        let event = self.event_overrides.get(&(service, commune));
        let spec = &self.catalog.head()[service];
        let c = &self.country.communes()[commune];
        let weekly_dl = self.users[commune]
            * spec.weekly_dl_mb_per_user
            * spec.spatial.commune_factor(c)
            * self.taste[service][commune]
            * event.map_or(1.0, |(_, uplift)| *uplift);
        (weekly_dl, event.map(|(weights, _)| weights.as_slice()))
    }

    /// Evaluates the expectation of the whole dataset, without sampling
    /// noise and without the collection pipeline (no classification loss,
    /// no localization error).
    ///
    /// Evaluation is parallelized per service: each service fills its own
    /// partial dataset (the cells of different services are disjoint) and
    /// the partials are merged in service order, so the result is
    /// bit-identical at any thread count.
    pub fn expected_dataset(&self) -> TrafficDataset {
        let n_services = self.catalog.head().len();
        let n_tail = self.catalog.tail_len();
        // Clones share the per-commune constants.
        let empty = TrafficDataset::new(
            &self.country,
            n_services,
            n_tail,
            self.config.subscriber_share,
        );
        let partials = mobilenet_par::par_map_collect(n_services, |s| {
            let mut ds = empty.clone();
            for (ci, commune) in self.country.communes().iter().enumerate() {
                let dl = self.weekly_dl_mb(s, ci);
                if dl <= 0.0 {
                    continue;
                }
                let uplift = self.weekly_uplift(s, ci);
                let dl_base = dl / uplift;
                let ul_base = dl_base * self.catalog.head()[s].ul_ratio;
                for h in 0..HOURS_PER_WEEK {
                    let w = self.hourly_weight(s, ci, h);
                    if w <= 0.0 {
                        continue;
                    }
                    ds.add(Direction::Down, s, commune.id, h, dl_base * w);
                    ds.add(Direction::Up, s, commune.id, h, ul_base * w);
                }
            }
            ds
        });
        let mut ds = empty;
        for partial in &partials {
            ds.merge(partial)
                .expect("partials share one shape by construction");
        }
        self.fill_tail(&mut ds);
        ds
    }

    /// Writes the tail-service national weekly volumes into a dataset.
    /// Tail volumes are catalog constants scaled by the national subscriber
    /// base, computed once with the model, so both generation paths share
    /// this step and a live snapshot pays only the additions.
    pub fn fill_tail(&self, ds: &mut TrafficDataset) {
        for dir in Direction::BOTH {
            for (rank, &mb) in self.tail_mb[dir.index()].iter().enumerate() {
                ds.add_tail(dir, rank, mb);
            }
        }
    }
}

/// Mild deterministic jitter so the tail rank curve is not perfectly
/// smooth (real rankings wiggle); damping is in `[0.9, 1.1]`.
fn tail_damp(rank: usize) -> f64 {
    let x = (rank as f64 * 12.9898).sin() * 43_758.547;
    0.9 + 0.2 * (x - x.floor())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobilenet_geo::CountryConfig;

    fn model() -> DemandModel {
        let country = Arc::new(Country::generate(&CountryConfig::small(), 3));
        let catalog = Arc::new(ServiceCatalog::standard(40));
        DemandModel::new(country, catalog, TrafficConfig::fast(), 11)
    }

    #[test]
    fn weekly_volumes_scale_with_users_and_class() {
        let m = model();
        let country = m.country();
        // Find an urban and a (plain) rural commune with users.
        let urban = country
            .communes()
            .iter()
            .find(|c| c.usage_class() == UsageClass::Urban)
            .unwrap();
        let service = 0; // YouTube, typical profile
        let dl = m.weekly_dl_mb(service, urban.id.index());
        assert!(dl > 0.0);
        // Per-user demand of an urban commune is near the catalog value
        // (up to the taste factor).
        let per_user = dl / m.users[urban.id.index()];
        let want = m.catalog().head()[service].weekly_dl_mb_per_user;
        assert!(
            per_user > want * 0.2 && per_user < want * 5.0,
            "{per_user} vs {want}"
        );
    }

    #[test]
    fn tgv_communes_use_the_train_profile() {
        let m = model();
        let country = m.country();
        let tgv = country
            .communes()
            .iter()
            .position(|c| c.usage_class() == UsageClass::Tgv)
            .expect("small country has TGV communes");
        let rural = country
            .communes()
            .iter()
            .position(|c| c.usage_class() == UsageClass::Rural)
            .unwrap();
        assert_ne!(
            m.profile_for(0, tgv).hourly(),
            m.profile_for(0, rural).hourly()
        );
        assert_eq!(
            m.profile_for(0, rural).hourly(),
            m.national_profile(0).hourly()
        );
    }

    #[test]
    fn expected_dataset_preserves_weekly_totals() {
        let m = model();
        let ds = m.expected_dataset();
        for s in [0usize, 7, 19] {
            let want: f64 = (0..m.country().communes().len())
                .map(|c| m.weekly_dl_mb(s, c))
                .sum();
            let got = ds.national_weekly(Direction::Down, s);
            assert!(
                (got - want).abs() / want < 1e-9,
                "service {s}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn expected_dataset_ul_ratio_holds() {
        let m = model();
        let ds = m.expected_dataset();
        for (s, spec) in m.catalog().head().iter().enumerate() {
            let dl = ds.national_weekly(Direction::Down, s);
            let ul = ds.national_weekly(Direction::Up, s);
            assert!((ul / dl - spec.ul_ratio).abs() < 1e-9, "{}", spec.name);
        }
    }

    #[test]
    fn netflix_demand_is_rural_starved() {
        let m = model();
        let ds = m.expected_dataset();
        let netflix = m
            .catalog()
            .head()
            .iter()
            .position(|s| s.name == "Netflix")
            .unwrap();
        let per_user = ds.per_user_commune_vector(Direction::Down, netflix);
        let country = m.country();
        let mean_of = |class: UsageClass| {
            let ids = country.communes_in_class(class);
            let total: f64 = ids.iter().map(|id| per_user[id.index()]).sum();
            total / ids.len() as f64
        };
        assert!(
            mean_of(UsageClass::Urban) > 5.0 * mean_of(UsageClass::Rural),
            "Netflix must collapse in rural areas"
        );
    }

    #[test]
    fn taste_factors_are_deterministic_in_seed() {
        let country = Arc::new(Country::generate(&CountryConfig::small(), 3));
        let catalog = Arc::new(ServiceCatalog::standard(10));
        let a = DemandModel::new(country.clone(), catalog.clone(), TrafficConfig::fast(), 5);
        let b = DemandModel::new(country.clone(), catalog.clone(), TrafficConfig::fast(), 5);
        let c = DemandModel::new(country, catalog, TrafficConfig::fast(), 6);
        assert_eq!(a.weekly_dl_mb(0, 100), b.weekly_dl_mb(0, 100));
        assert_ne!(a.weekly_dl_mb(0, 100), c.weekly_dl_mb(0, 100));
    }

    #[test]
    fn tail_fill_is_monotone_enough() {
        let m = model();
        let ds = m.expected_dataset();
        let tail = ds.tail_weekly(Direction::Down);
        assert_eq!(tail.len(), 40);
        assert!(tail[0] > 0.0);
        // Jitter is bounded, so rank 0 clearly exceeds rank 20.
        assert!(tail[0] > tail[20]);
    }

    #[test]
    fn events_add_localized_demand() {
        let country = Arc::new(Country::generate(&CountryConfig::small(), 3));
        let catalog = Arc::new(ServiceCatalog::standard(10));
        let capital = country.cities()[0].center;
        let mut cfg = TrafficConfig::fast();
        cfg.events
            .push(crate::events::EventSpec::stadium_match(capital));
        let with = DemandModel::new(country.clone(), catalog.clone(), cfg, 11);
        let without = DemandModel::new(country.clone(), catalog, TrafficConfig::fast(), 11);

        let host = country.commune_at(&capital).index();
        let facebook = with
            .catalog()
            .head()
            .iter()
            .position(|s| s.name == "Facebook")
            .unwrap();
        let mail = with
            .catalog()
            .head()
            .iter()
            .position(|s| s.name == "Mail")
            .unwrap();

        // Affected category at the epicenter: clear uplift.
        assert!(with.weekly_uplift(facebook, host) > 1.02);
        assert!(with.weekly_dl_mb(facebook, host) > 1.02 * without.weekly_dl_mb(facebook, host));
        // Unaffected category: untouched.
        assert_eq!(with.weekly_uplift(mail, host), 1.0);
        assert_eq!(
            with.weekly_dl_mb(mail, host),
            without.weekly_dl_mb(mail, host)
        );
        // Far away: untouched.
        let far = country
            .communes()
            .iter()
            .position(|c| c.centroid.distance(&capital) > 60.0)
            .unwrap();
        assert_eq!(with.weekly_uplift(facebook, far), 1.0);

        // The uplift is concentrated in the event hours.
        let event_hours: f64 = (19..22)
            .map(|h| with.hourly_weight(facebook, host, h))
            .sum();
        let base_hours: f64 = (19..22)
            .map(|h| without.hourly_weight(facebook, host, h))
            .sum();
        assert!(
            event_hours > 2.0 * base_hours,
            "{event_hours} vs {base_hours}"
        );
        // Off-event hours identical.
        assert!(
            (with.hourly_weight(facebook, host, 100) - without.hourly_weight(facebook, host, 100))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn event_expected_dataset_is_consistent() {
        let country = Arc::new(Country::generate(&CountryConfig::small(), 3));
        let catalog = Arc::new(ServiceCatalog::standard(10));
        let capital = country.cities()[0].center;
        let mut cfg = TrafficConfig::fast();
        cfg.events
            .push(crate::events::EventSpec::stadium_match(capital));
        let m = DemandModel::new(country, catalog, cfg, 11);
        let ds = m.expected_dataset();
        // National weekly totals still equal the (uplifted) per-commune
        // sums, so event traffic flows through the whole pipeline
        // consistently.
        for s in [2usize, 6] {
            let want: f64 = (0..m.country().communes().len())
                .map(|c| m.weekly_dl_mb(s, c))
                .sum();
            let got = ds.national_weekly(Direction::Down, s);
            assert!((got - want).abs() / want < 1e-9, "service {s}");
        }
    }
}
