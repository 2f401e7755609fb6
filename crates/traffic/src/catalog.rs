//! The mobile-service catalog.
//!
//! §3 of the paper selects 20 representative services covering >60% of the
//! network traffic, spanning video/audio streaming, social networks,
//! messaging, cloud, stores, news, adult content, gaming, mail and MMS
//! (Figure 3); around 500 services in total generate measurable traffic,
//! their volumes spanning ten orders of magnitude with the top half
//! following a Zipf law (Figure 2).
//!
//! This module encodes those 20 services — with per-user volumes, peak
//! palettes (Figures 6–7) and spatial affinities (Figures 9–11) acting as
//! the generator's **ground truth** — plus a synthetic Zipf-with-cutoff
//! tail for the rank analysis of Figure 2.

use crate::spatial::SpatialProfile;
use crate::week::TopicalTime;

/// Identifier of a service: index into [`ServiceCatalog::head`] for
/// `id < head_len`, tail rank otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub u16);

impl ServiceId {
    /// The id as an index into per-service arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Service categories, following Figure 3's legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Long-form video (YouTube, Netflix, iTunes video…).
    VideoStreaming,
    /// Music and audio streaming.
    AudioStreaming,
    /// Social networks (feeds, timelines).
    SocialNetwork,
    /// Instant messaging and photo-sharing chat.
    Messaging,
    /// Cloud storage and device sync.
    CloudStorage,
    /// Application stores.
    AppStore,
    /// News and generic web portals.
    NewsWeb,
    /// Adult content.
    Adult,
    /// Mobile gaming.
    Gaming,
    /// E-mail.
    Mail,
    /// Multimedia messaging (carrier MMS).
    Mms,
    /// Anything else (tail services).
    Other,
}

impl Category {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Category::VideoStreaming => "video streaming",
            Category::AudioStreaming => "audio streaming",
            Category::SocialNetwork => "social network",
            Category::Messaging => "messaging",
            Category::CloudStorage => "cloud storage",
            Category::AppStore => "app store",
            Category::NewsWeb => "news/web",
            Category::Adult => "adult",
            Category::Gaming => "gaming",
            Category::Mail => "mail",
            Category::Mms => "mms",
            Category::Other => "other",
        }
    }
}

/// An activity peak in a service's ground-truth palette: at which topical
/// time the service surges and by how much.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakSpec {
    /// When the peak occurs.
    pub time: TopicalTime,
    /// Relative surge amplitude: 0.8 means the peak rises ≈ 80% above the
    /// surrounding baseline (the scale of Figure 7's peak-to-average
    /// ratios).
    pub intensity: f64,
}

/// Full specification of a head service.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Identifier (position in the head list).
    pub id: ServiceId,
    /// Display name.
    pub name: &'static str,
    /// Category (Figure 3 colors).
    pub category: Category,
    /// Average weekly downlink volume per **urban** subscriber, MB.
    pub weekly_dl_mb_per_user: f64,
    /// Uplink-to-downlink volume ratio.
    pub ul_ratio: f64,
    /// Mean downlink volume of a single session, MB (sets the session count
    /// via `weekly volume / session volume`).
    pub session_dl_mb: f64,
    /// Ground-truth activity peaks.
    pub peaks: Vec<PeakSpec>,
    /// Spatial affinity.
    pub spatial: SpatialProfile,
}

impl ServiceSpec {
    /// Average weekly uplink volume per urban subscriber, MB.
    pub fn weekly_ul_mb_per_user(&self) -> f64 {
        self.weekly_dl_mb_per_user * self.ul_ratio
    }

    /// The ground-truth peak intensity at a topical time, if any.
    pub fn peak_at(&self, time: TopicalTime) -> Option<f64> {
        self.peaks
            .iter()
            .find(|p| p.time == time)
            .map(|p| p.intensity)
    }
}

/// The full catalog: 20 head services plus a Zipf tail.
#[derive(Debug, Clone)]
pub struct ServiceCatalog {
    head: Vec<ServiceSpec>,
    /// National weekly downlink volumes of tail services (rank order,
    /// starting right after the head), in MB.
    tail_dl_mb: Vec<f64>,
    /// Same for uplink.
    tail_ul_mb: Vec<f64>,
}

/// Shorthand used by the static table below.
fn peaks(list: &[(TopicalTime, f64)]) -> Vec<PeakSpec> {
    list.iter()
        .map(|&(time, intensity)| PeakSpec { time, intensity })
        .collect()
}

impl ServiceCatalog {
    /// Number of head services (the paper's selection).
    pub const HEAD_LEN: usize = 20;

    /// Builds the standard catalog with `n_tail` tail services.
    ///
    /// Tail volumes continue the head's rank distribution with a Zipf law
    /// (`s ≈ 1.69` downlink / `1.55` uplink, Figure 2) for the top half of
    /// the full ranking and an exponential cutoff beyond — reproducing the
    /// ten-orders-of-magnitude span and the "only the top half is Zipf"
    /// observation.
    pub fn standard(n_tail: usize) -> Self {
        let head = head_services();
        assert_eq!(head.len(), Self::HEAD_LEN);

        // Continue from the last head service's national scale. Tail
        // volumes are *national weekly MB per urban-equivalent subscriber
        // base*; they only feed the rank plot, so the absolute unit matches
        // the head's per-user volumes for comparability.
        let v_last_dl = head.last().unwrap().weekly_dl_mb_per_user;
        let v_last_ul = head.last().unwrap().weekly_ul_mb_per_user();
        let tail_dl_mb = tail_volumes(n_tail, Self::HEAD_LEN, v_last_dl, 1.69);
        let tail_ul_mb = tail_volumes(n_tail, Self::HEAD_LEN, v_last_ul, 1.55);
        ServiceCatalog {
            head,
            tail_dl_mb,
            tail_ul_mb,
        }
    }

    /// The head services, in catalog (≈ downlink-rank) order.
    pub fn head(&self) -> &[ServiceSpec] {
        &self.head
    }

    /// A head service by id.
    pub fn service(&self, id: ServiceId) -> &ServiceSpec {
        &self.head[id.index()]
    }

    /// Looks a head service up by display name.
    pub fn by_name(&self, name: &str) -> Option<&ServiceSpec> {
        self.head.iter().find(|s| s.name.eq_ignore_ascii_case(name))
    }

    /// Number of tail services.
    pub fn tail_len(&self) -> usize {
        self.tail_dl_mb.len()
    }

    /// Total number of services (head + tail).
    pub fn len(&self) -> usize {
        self.head.len() + self.tail_len()
    }

    /// Whether the catalog is empty (never for [`ServiceCatalog::standard`]).
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.tail_dl_mb.is_empty()
    }

    /// Tail weekly downlink volumes in rank order (MB).
    pub fn tail_dl_mb(&self) -> &[f64] {
        &self.tail_dl_mb
    }

    /// Tail weekly uplink volumes in rank order (MB).
    pub fn tail_ul_mb(&self) -> &[f64] {
        &self.tail_ul_mb
    }
}

/// Zipf continuation with exponential cutoff for the bottom half.
fn tail_volumes(n_tail: usize, head_len: usize, v_anchor: f64, s: f64) -> Vec<f64> {
    // The anchor is the last head rank; tail rank r (1-based within tail)
    // has global rank head_len + r.
    let anchor_rank = head_len as f64;
    let scale = v_anchor * anchor_rank.powf(s);
    let full = head_len + n_tail;
    let zipf_half = full / 2; // only the top half of the full ranking is Zipf
    (0..n_tail)
        .map(|i| {
            let rank = (head_len + i + 1) as f64;
            let base = scale * rank.powf(-s);
            if (head_len + i + 1) <= zipf_half {
                base
            } else {
                // Exponential cutoff: drives the bottom half down to the
                // ~10-orders-of-magnitude floor seen in Figure 2.
                let over = (head_len + i + 1 - zipf_half) as f64;
                let width = (full as f64 - zipf_half as f64) / 14.0;
                base * (-over / width).exp()
            }
        })
        .collect()
}

/// The static head-service table.
///
/// Volumes approximate Figure 3's ranking (video ≈ 3/4 of head downlink;
/// SnapChat/Facebook/Instagram lead uplink); peak palettes follow
/// Figures 6–7 (every service has a weekday-midday peak, commute/evening
/// peaks vary, the "student" services add a morning-break peak); spatial
/// profiles follow Figures 9–11 (typical urbanization scaling everywhere,
/// Netflix high-end, iCloud uniform, Adult avoiding TGV).
/// One row of the head-service table: name, category, weekly DL volume,
/// uplink ratio, mean session size, peak palette, spatial profile.
type HeadRow = (
    &'static str,
    Category,
    f64,
    f64,
    f64,
    Vec<PeakSpec>,
    SpatialProfile,
);

fn head_services() -> Vec<ServiceSpec> {
    use Category::*;
    use TopicalTime::*;

    let t = SpatialProfile::typical;
    let table: Vec<HeadRow> = vec![
        (
            "YouTube",
            VideoStreaming,
            160.0,
            0.0048,
            24.0,
            peaks(&[(Midday, 0.65), (Evening, 0.75), (WeekendEvening, 0.30)]),
            t(),
        ),
        (
            "iTunes",
            VideoStreaming,
            68.0,
            0.003,
            30.0,
            peaks(&[(Midday, 1.45), (Evening, 0.55)]),
            t(),
        ),
        (
            "Facebook Video",
            VideoStreaming,
            40.0,
            0.03,
            8.0,
            peaks(&[
                (Midday, 0.80),
                (AfternoonCommute, 0.35),
                (WeekendMidday, 0.22),
            ]),
            t(),
        ),
        (
            "Instagram Video",
            VideoStreaming,
            28.0,
            0.036,
            5.0,
            peaks(&[(Midday, 0.55), (MorningBreak, 0.30), (Evening, 0.45)]),
            t(),
        ),
        (
            "Netflix",
            VideoStreaming,
            22.0,
            0.0024,
            45.0,
            peaks(&[(Evening, 0.80), (WeekendEvening, 0.35), (Midday, 0.42)]),
            SpatialProfile::high_end_urban(),
        ),
        (
            "Audio",
            AudioStreaming,
            14.0,
            0.012,
            9.0,
            peaks(&[
                (MorningCommute, 0.95),
                (Midday, 0.50),
                (AfternoonCommute, 0.30),
            ]),
            t(),
        ),
        (
            "Facebook",
            SocialNetwork,
            13.0,
            0.18,
            1.6,
            peaks(&[
                (Midday, 1.20),
                (MorningBreak, 0.45),
                (AfternoonCommute, 0.28),
                (WeekendMidday, 0.18),
            ]),
            t(),
        ),
        (
            "Twitter",
            SocialNetwork,
            11.0,
            0.108,
            1.2,
            peaks(&[(Midday, 0.90), (MorningBreak, 0.55), (Evening, 0.55)]),
            t(),
        ),
        (
            "Google Services",
            NewsWeb,
            10.0,
            0.072,
            2.0,
            peaks(&[
                (Midday, 0.70),
                (MorningCommute, 0.60),
                (AfternoonCommute, 0.25),
            ]),
            t(),
        ),
        (
            "Instagram",
            SocialNetwork,
            8.5,
            0.21,
            1.4,
            peaks(&[
                (Midday, 0.85),
                (MorningBreak, 0.45),
                (Evening, 0.60),
                (WeekendEvening, 0.25),
            ]),
            t(),
        ),
        (
            "News",
            NewsWeb,
            7.5,
            0.018,
            1.0,
            peaks(&[
                (MorningCommute, 1.15),
                (Midday, 0.55),
                (AfternoonCommute, 0.20),
            ]),
            t(),
        ),
        (
            "Adult",
            Adult,
            7.0,
            0.009,
            4.5,
            peaks(&[(Evening, 0.70), (Midday, 0.40), (WeekendEvening, 0.18)]),
            SpatialProfile::new([1.0, 0.95, 0.52, 1.6], 0.3),
        ),
        (
            "Apple Store",
            AppStore,
            6.5,
            0.018,
            6.0,
            peaks(&[(Midday, 1.55), (WeekendMidday, 0.25)]),
            t(),
        ),
        (
            "Google Play",
            AppStore,
            6.0,
            0.018,
            6.0,
            peaks(&[(Midday, 1.05), (Evening, 0.35), (WeekendMidday, 0.15)]),
            t(),
        ),
        (
            "iCloud",
            CloudStorage,
            5.0,
            0.3,
            2.2,
            peaks(&[(Midday, 0.45), (MorningCommute, 0.50), (Evening, 0.25)]),
            SpatialProfile::uniform(),
        ),
        (
            "SnapChat",
            Messaging,
            4.5,
            0.78,
            0.8,
            peaks(&[
                (Midday, 1.00),
                (MorningBreak, 0.50),
                (AfternoonCommute, 0.42),
                (WeekendEvening, 0.32),
                (WeekendMidday, 0.20),
            ]),
            t(),
        ),
        (
            "WhatsApp",
            Messaging,
            3.5,
            0.48,
            0.35,
            peaks(&[
                (Midday, 0.75),
                (AfternoonCommute, 0.38),
                (Evening, 0.50),
                (WeekendMidday, 0.28),
            ]),
            t(),
        ),
        (
            "Mail",
            Mail,
            3.0,
            0.21,
            0.4,
            peaks(&[
                (MorningCommute, 0.85),
                (Midday, 0.60),
                (AfternoonCommute, 0.18),
            ]),
            t(),
        ),
        (
            "MMS",
            Mms,
            1.5,
            0.48,
            0.12,
            peaks(&[(Midday, 0.50), (WeekendMidday, 0.42), (Evening, 0.22)]),
            SpatialProfile::new([1.0, 0.97, 0.6, 2.4], 0.1),
        ),
        (
            "Pokemon Go",
            Gaming,
            1.2,
            0.15,
            0.5,
            peaks(&[
                (AfternoonCommute, 0.45),
                (Evening, 0.40),
                (WeekendMidday, 0.28),
                (Midday, 0.42),
            ]),
            SpatialProfile::new([1.0, 1.0, 0.62, 2.6], 0.25),
        ),
    ];

    table
        .into_iter()
        .enumerate()
        .map(
            |(i, (name, category, dl, ul_ratio, session_dl_mb, peaks, spatial))| ServiceSpec {
                id: ServiceId(i as u16),
                name,
                category,
                weekly_dl_mb_per_user: dl,
                ul_ratio,
                session_dl_mb,
                peaks,
                spatial,
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> ServiceCatalog {
        ServiceCatalog::standard(480)
    }

    #[test]
    fn head_has_twenty_services_with_unique_names() {
        let c = catalog();
        assert_eq!(c.head().len(), 20);
        let mut names: Vec<&str> = c.head().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
        assert_eq!(c.len(), 500);
        assert!(!c.is_empty());
    }

    #[test]
    fn ids_match_positions() {
        let c = catalog();
        for (i, s) in c.head().iter().enumerate() {
            assert_eq!(s.id.index(), i);
            assert!(std::ptr::eq(c.service(s.id), s));
        }
    }

    #[test]
    fn video_dominates_downlink_as_in_figure_3() {
        let c = catalog();
        let video: f64 = c
            .head()
            .iter()
            .filter(|s| s.category == Category::VideoStreaming)
            .map(|s| s.weekly_dl_mb_per_user)
            .sum();
        let head_dl: f64 = c.head().iter().map(|s| s.weekly_dl_mb_per_user).sum();
        let share = video / head_dl;
        // Paper: video ≈ 46% of total ≈ 3/4 of the head selection.
        assert!(share > 0.6 && share < 0.85, "video share {share}");
        // YouTube is the dominant provider, iTunes follows at a distance.
        assert_eq!(c.head()[0].name, "YouTube");
        assert_eq!(c.head()[1].name, "iTunes");
        assert!(c.head()[0].weekly_dl_mb_per_user > 2.0 * c.head()[1].weekly_dl_mb_per_user);
    }

    #[test]
    fn social_and_messaging_lead_uplink_as_in_figure_3() {
        let c = catalog();
        let mut by_ul: Vec<&ServiceSpec> = c.head().iter().collect();
        by_ul.sort_by(|a, b| {
            b.weekly_ul_mb_per_user()
                .partial_cmp(&a.weekly_ul_mb_per_user())
                .unwrap()
        });
        for s in &by_ul[..3] {
            assert!(
                matches!(s.category, Category::SocialNetwork | Category::Messaging),
                "uplink top-3 must be social/messaging, found {} ({:?})",
                s.name,
                s.category
            );
        }
    }

    #[test]
    fn uplink_is_a_small_fraction_of_the_load() {
        let c = catalog();
        let dl: f64 = c.head().iter().map(|s| s.weekly_dl_mb_per_user).sum();
        let ul: f64 = c.head().iter().map(|s| s.weekly_ul_mb_per_user()).sum();
        // Paper (§3 footnote): uplink accounts for less than one twentieth
        // of the total network load.
        assert!(ul / (ul + dl) < 0.07, "uplink share {}", ul / (ul + dl));
    }

    #[test]
    fn every_service_peaks_at_weekday_midday() {
        // §4: "almost all services show increased usage on midday of
        // working days" — our ground truth makes that universal.
        for s in catalog().head() {
            assert!(
                s.peak_at(TopicalTime::Midday).is_some(),
                "{} lacks a midday peak",
                s.name
            );
        }
    }

    #[test]
    fn student_services_have_morning_break_peaks() {
        let c = catalog();
        for name in ["SnapChat", "Instagram", "Facebook", "Twitter"] {
            let s = c.by_name(name).unwrap();
            assert!(
                s.peak_at(TopicalTime::MorningBreak).is_some(),
                "{name} lacks a morning-break peak"
            );
        }
    }

    #[test]
    fn peak_palettes_are_pairwise_distinct() {
        // §4's key finding: no two services share temporal dynamics. Ensure
        // the ground-truth palettes (time sets) are not identical for any
        // pair within a category.
        let c = catalog();
        for a in c.head() {
            for b in c.head() {
                if a.id == b.id {
                    continue;
                }
                let pa: Vec<(TopicalTime, u32)> = a
                    .peaks
                    .iter()
                    .map(|p| (p.time, (p.intensity * 100.0) as u32))
                    .collect();
                let pb: Vec<(TopicalTime, u32)> = b
                    .peaks
                    .iter()
                    .map(|p| (p.time, (p.intensity * 100.0) as u32))
                    .collect();
                assert_ne!(pa, pb, "{} and {} share a palette", a.name, b.name);
            }
        }
    }

    #[test]
    fn tail_is_monotone_decreasing_with_deep_cutoff() {
        let c = catalog();
        let tail = c.tail_dl_mb();
        assert_eq!(tail.len(), 480);
        for w in tail.windows(2) {
            assert!(w[0] >= w[1]);
        }
        // Head-to-tail continuity: first tail service is below the last
        // head service.
        assert!(tail[0] <= c.head().last().unwrap().weekly_dl_mb_per_user);
        // Ten-orders-of-magnitude span across the full ranking (Figure 2).
        let span = c.head()[0].weekly_dl_mb_per_user / tail.last().unwrap();
        assert!(span > 1e8, "span {span:.3e}");
    }

    #[test]
    fn by_name_is_case_insensitive_and_total() {
        let c = catalog();
        assert!(c.by_name("netflix").is_some());
        assert!(c.by_name("NETFLIX").is_some());
        assert!(c.by_name("MySpace").is_none());
    }

    #[test]
    fn sessions_per_week_are_plausible() {
        for s in catalog().head() {
            let n = s.weekly_dl_mb_per_user / s.session_dl_mb;
            assert!(n > 0.3 && n < 30.0, "{}: {} sessions/week", s.name, n);
        }
    }
}
