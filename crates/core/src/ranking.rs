//! Service rankings, Zipf fits, and category shares (§3, Figures 2–3).

use std::collections::BTreeMap;

use mobilenet_timeseries::zipf::{fit_zipf_ranked, ZipfFit};
use mobilenet_traffic::{Category, Direction, ServiceSpec, TrafficDataset};

use crate::study::Study;

/// Figure 2: normalized rank–volume curves with Zipf fits on the top half.
#[derive(Debug, Clone)]
pub struct ZipfRanking {
    /// Normalized downlink volumes in rank order (sum = 1).
    pub dl_normalized: Vec<f64>,
    /// Normalized uplink volumes in rank order.
    pub ul_normalized: Vec<f64>,
    /// Zipf fit over the top half of the downlink ranking.
    pub dl_fit: Option<ZipfFit>,
    /// Zipf fit over the top half of the uplink ranking.
    pub ul_fit: Option<ZipfFit>,
    /// Orders of magnitude spanned by the downlink ranking.
    pub dl_span_orders: f64,
}

/// Computes Figure 2 from a study.
pub fn zipf_ranking(study: &Study) -> ZipfRanking {
    let rank = |dir: Direction| -> Vec<f64> {
        let ranking = study.dataset().full_ranking(dir);
        let total: f64 = ranking.iter().sum();
        if total <= 0.0 {
            return ranking;
        }
        ranking.into_iter().map(|v| v / total).collect()
    };
    let dl = rank(Direction::Down);
    let ul = rank(Direction::Up);
    let dl_fit = fit_zipf_ranked(&dl[..dl.len() / 2]);
    let ul_fit = fit_zipf_ranked(&ul[..ul.len() / 2]);
    let positive_min = dl
        .iter()
        .copied()
        .filter(|v| *v > 0.0)
        .fold(f64::INFINITY, f64::min);
    let dl_span_orders = if dl.is_empty() || positive_min <= 0.0 {
        0.0
    } else {
        (dl[0] / positive_min).log10()
    };
    ZipfRanking {
        dl_normalized: dl,
        ul_normalized: ul,
        dl_fit,
        ul_fit,
        dl_span_orders,
    }
}

/// One row of Figure 3: a head service's share of traffic.
#[derive(Debug, Clone)]
pub struct ServiceShare {
    /// Catalog index.
    pub service: usize,
    /// Display name.
    pub name: &'static str,
    /// Category.
    pub category: Category,
    /// Share of the total (classified + unclassified) volume.
    pub share_of_total: f64,
}

/// Figure 3 for one direction: head services ranked by share, plus the
/// aggregate per-category shares and summary statistics.
#[derive(Debug, Clone)]
pub struct ServiceRanking {
    /// Direction the ranking refers to.
    pub direction: Direction,
    /// Head services sorted by decreasing share.
    pub services: Vec<ServiceShare>,
    /// Category → share of total volume, over head services.
    pub category_shares: BTreeMap<&'static str, f64>,
    /// Combined share of the 20 head services.
    pub head_share: f64,
    /// Share of volume the DPI stage could not classify.
    pub unclassified_share: f64,
}

/// Computes Figure 3 for one direction.
pub fn service_ranking(study: &Study, dir: Direction) -> ServiceRanking {
    service_ranking_of(study.dataset(), study.catalog().head(), dir)
}

/// [`service_ranking`] over a bare dataset — for consumers holding a
/// [`TrafficDataset`] without a [`Study`] (live snapshots, replayed
/// traces). `head` is the head of the service catalog the dataset was
/// aggregated under; answers are bit-identical to the study-based path.
pub fn service_ranking_of(
    ds: &TrafficDataset,
    head: &[ServiceSpec],
    dir: Direction,
) -> ServiceRanking {
    let total = ds.total(dir).max(f64::MIN_POSITIVE);
    let mut services: Vec<ServiceShare> = head
        .iter()
        .enumerate()
        .map(|(s, spec)| ServiceShare {
            service: s,
            name: spec.name,
            category: spec.category,
            share_of_total: ds.national_weekly(dir, s) / total,
        })
        .collect();
    services.sort_by(|a, b| b.share_of_total.partial_cmp(&a.share_of_total).unwrap());

    let mut category_shares: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in &services {
        *category_shares.entry(s.category.label()).or_insert(0.0) += s.share_of_total;
    }
    let head_share = services.iter().map(|s| s.share_of_total).sum();
    ServiceRanking {
        direction: dir,
        services,
        category_shares,
        head_share,
        unclassified_share: ds.unclassified(dir) / total,
    }
}

/// The top `k` head services by share, without ranking the whole head —
/// the streaming-query variant of [`service_ranking_of`].
///
/// Selection runs over a bounded binary heap (O(S·log k) instead of the
/// full O(S·log S) sort), but the returned prefix is **identical** — same
/// order, same shares — to `service_ranking_of(..).services[..k]`: ties
/// break exactly like the full sort's `partial_cmp` (stable over catalog
/// order) because candidates are pushed in catalog order and compared
/// with the same ordering.
pub fn top_k_services(
    ds: &TrafficDataset,
    head: &[ServiceSpec],
    dir: Direction,
    k: usize,
) -> Vec<ServiceShare> {
    let total = ds.total(dir).max(f64::MIN_POSITIVE);
    let k = k.min(head.len());
    if k == 0 {
        return Vec::new();
    }
    // Min-heap of the current top k, keyed by (share, Reverse(index)) so
    // the heap's minimum is the entry the full descending sort would
    // place last: lower share loses, and on exactly equal shares the
    // *higher* catalog index loses (a stable descending sort keeps
    // earlier indices first).
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    #[derive(PartialEq)]
    struct Key(f64, Reverse<usize>);
    impl Eq for Key {}
    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Key {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }
    let mut heap: BinaryHeap<Reverse<Key>> = BinaryHeap::with_capacity(k + 1);
    for (s, _spec) in head.iter().enumerate() {
        let share = ds.national_weekly(dir, s) / total;
        heap.push(Reverse(Key(share, Reverse(s))));
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut top: Vec<Key> = heap.into_iter().map(|Reverse(key)| key).collect();
    top.sort_by(|a, b| b.cmp(a));
    top.into_iter()
        .map(|Key(share, Reverse(s))| ServiceShare {
            service: s,
            name: head[s].name,
            category: head[s].category,
            share_of_total: share,
        })
        .collect()
}

/// §3's headline aggregate: uplink volume as a fraction of the total
/// network load (the paper reports under one twentieth).
pub fn uplink_fraction(study: &Study) -> f64 {
    let dl = study.dataset().total(Direction::Down);
    let ul = study.dataset().total(Direction::Up);
    if dl + ul <= 0.0 {
        return 0.0;
    }
    ul / (dl + ul)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> &'static Study {
        crate::testutil::measured_study()
    }

    #[test]
    fn ranking_is_normalized_and_sorted() {
        let s = study();
        let z = zipf_ranking(s);
        assert!((z.dl_normalized.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for w in z.dl_normalized.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(z.dl_normalized.len(), 20 + s.catalog().tail_len());
    }

    #[test]
    fn zipf_exponents_are_near_the_papers() {
        let s = study();
        let z = zipf_ranking(s);
        let dl = z.dl_fit.expect("downlink fit");
        let ul = z.ul_fit.expect("uplink fit");
        // Paper: −1.69 downlink, −1.55 uplink. The synthetic catalog
        // reproduces the neighbourhood, not the exact digits.
        assert!(
            (dl.exponent - 1.69).abs() < 0.45,
            "dl exponent {}",
            dl.exponent
        );
        assert!(
            (ul.exponent - 1.55).abs() < 0.45,
            "ul exponent {}",
            ul.exponent
        );
        // The span covers many orders of magnitude (paper: ~10).
        assert!(z.dl_span_orders > 6.0, "span {} orders", z.dl_span_orders);
    }

    #[test]
    fn video_dominates_downlink_shares() {
        let s = study();
        let r = service_ranking(s, Direction::Down);
        let video = r
            .category_shares
            .get("video streaming")
            .copied()
            .unwrap_or(0.0);
        // Paper: ≈ 46% of total downlink.
        assert!(video > 0.30 && video < 0.75, "video share {video}");
        assert_eq!(r.services[0].name, "YouTube");
    }

    #[test]
    fn social_or_messaging_tops_uplink() {
        let s = study();
        let r = service_ranking(s, Direction::Up);
        let top = &r.services[0];
        assert!(
            matches!(top.category, Category::SocialNetwork | Category::Messaging),
            "uplink leader {} ({:?})",
            top.name,
            top.category
        );
    }

    #[test]
    fn head_share_is_large_and_unclassified_near_twelve_percent() {
        let s = study();
        let r = service_ranking(s, Direction::Down);
        assert!(r.head_share > 0.6, "head share {}", r.head_share);
        assert!(
            (r.unclassified_share - 0.12).abs() < 0.03,
            "unclassified {}",
            r.unclassified_share
        );
    }

    #[test]
    fn uplink_is_a_small_fraction() {
        let s = study();
        let f = uplink_fraction(s);
        // Paper: less than one twentieth.
        assert!(f < 0.08, "uplink fraction {f}");
        assert!(f > 0.01, "uplink should not vanish: {f}");
    }

    #[test]
    fn top_k_is_the_exact_prefix_of_the_full_ranking() {
        let s = study();
        for dir in [Direction::Down, Direction::Up] {
            let full = service_ranking(s, dir);
            for k in [0usize, 1, 3, 5, 20, 25] {
                let top = top_k_services(s.dataset(), s.catalog().head(), dir, k);
                let want = k.min(full.services.len());
                assert_eq!(top.len(), want);
                for (a, b) in top.iter().zip(full.services.iter()) {
                    assert_eq!(a.service, b.service, "k={k}");
                    assert_eq!(a.name, b.name);
                    assert_eq!(a.share_of_total, b.share_of_total, "bitwise share");
                }
            }
        }
    }

    #[test]
    fn dataset_level_ranking_matches_the_study_path() {
        let s = study();
        let via_study = service_ranking(s, Direction::Down);
        let via_dataset = service_ranking_of(s.dataset(), s.catalog().head(), Direction::Down);
        assert_eq!(via_study.head_share, via_dataset.head_share);
        assert_eq!(via_study.services.len(), via_dataset.services.len());
        for (a, b) in via_study.services.iter().zip(via_dataset.services.iter()) {
            assert_eq!(a.service, b.service);
            assert_eq!(a.share_of_total, b.share_of_total);
        }
    }

    #[test]
    fn shares_sum_close_to_classified_share() {
        let s = study();
        let r = service_ranking(s, Direction::Down);
        let sum: f64 = r.services.iter().map(|x| x.share_of_total).sum();
        assert!((sum - r.head_share).abs() < 1e-12);
        let cat_sum: f64 = r.category_shares.values().sum();
        assert!((cat_sum - r.head_share).abs() < 1e-9);
    }
}
