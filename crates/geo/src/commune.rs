//! Communes: the spatial unit of every analysis in the paper.
//!
//! The study aggregates all traffic at the granularity of the ~36,000
//! French communes (§2): the ULI-based localization has a ~3 km median
//! error, so base stations are mapped to the commune hosting them and
//! demands are merged over communes. The paper further groups communes in
//! four classes (§5): urban, semi-urban, rural — per the INSEE
//! classification — plus rural communes crossed by a high-speed train line
//! (the *TGV* class), which behave like neither.

use crate::point::Point;

/// Identifier of a commune, dense in `0..country.communes().len()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommuneId(pub u32);

impl CommuneId {
    /// The id as an index into per-commune arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// INSEE-like urbanization level of a commune.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Urbanization {
    /// Dense city cores and large towns.
    Urban,
    /// Peri-urban belts and medium towns.
    SemiUrban,
    /// Countryside.
    Rural,
}

/// The four-way grouping used by Figure 11: urbanization level with rural
/// TGV-corridor communes split out into their own class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UsageClass {
    /// Dense city cores and large towns.
    Urban,
    /// Peri-urban belts and medium towns.
    SemiUrban,
    /// Countryside not crossed by a high-speed line.
    Rural,
    /// Rural communes crossed by a high-speed (TGV) line.
    Tgv,
}

impl UsageClass {
    /// All classes in the display order of Figure 11.
    pub const ALL: [UsageClass; 4] = [
        UsageClass::Urban,
        UsageClass::SemiUrban,
        UsageClass::Rural,
        UsageClass::Tgv,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            UsageClass::Urban => "urban",
            UsageClass::SemiUrban => "semi-urban",
            UsageClass::Rural => "rural",
            UsageClass::Tgv => "tgv",
        }
    }

    /// Index into fixed-size per-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            UsageClass::Urban => 0,
            UsageClass::SemiUrban => 1,
            UsageClass::Rural => 2,
            UsageClass::Tgv => 3,
        }
    }
}

/// Radio technologies covering a commune.
///
/// In the paper's France, 3G is near-pervasive while 4G is concentrated in
/// and around cities (Figure 9 right); Netflix adoption tracks 4G coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coverage {
    /// 3G (UTRAN) service is available.
    pub has_3g: bool,
    /// 4G (EUTRAN) service is available.
    pub has_4g: bool,
}

impl Coverage {
    /// Coverage by both technologies.
    pub const FULL: Coverage = Coverage {
        has_3g: true,
        has_4g: true,
    };
    /// 3G only.
    pub const G3_ONLY: Coverage = Coverage {
        has_3g: true,
        has_4g: false,
    };
    /// No cellular service (rare dead zones).
    pub const NONE: Coverage = Coverage {
        has_3g: false,
        has_4g: false,
    };

    /// Whether any technology covers the commune.
    #[inline]
    pub fn any(self) -> bool {
        self.has_3g || self.has_4g
    }
}

/// A commune: centroid, surface, census population, classification and
/// radio coverage.
#[derive(Debug, Clone)]
pub struct Commune {
    /// Dense identifier.
    pub id: CommuneId,
    /// Centroid on the country plane (km).
    pub centroid: Point,
    /// Surface in km² (France's communes average ≈ 16 km²).
    pub area_km2: f64,
    /// Resident census population.
    pub population: u64,
    /// INSEE-like urbanization level.
    pub urbanization: Urbanization,
    /// Crossed by a high-speed (TGV) rail corridor.
    pub on_tgv_corridor: bool,
    /// Radio coverage.
    pub coverage: Coverage,
}

impl Commune {
    /// The four-way class of Figure 11: rural TGV-corridor communes form
    /// their own class; urban/semi-urban communes keep their level even if
    /// a line passes through (city stations are dominated by residents).
    pub fn usage_class(&self) -> UsageClass {
        match (self.urbanization, self.on_tgv_corridor) {
            (Urbanization::Rural, true) => UsageClass::Tgv,
            (Urbanization::Urban, _) => UsageClass::Urban,
            (Urbanization::SemiUrban, _) => UsageClass::SemiUrban,
            (Urbanization::Rural, false) => UsageClass::Rural,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commune(urb: Urbanization, tgv: bool) -> Commune {
        Commune {
            id: CommuneId(0),
            centroid: Point::new(0.0, 0.0),
            area_km2: 16.0,
            population: 800,
            urbanization: urb,
            on_tgv_corridor: tgv,
            coverage: Coverage::FULL,
        }
    }

    #[test]
    fn usage_class_splits_tgv_out_of_rural_only() {
        assert_eq!(
            commune(Urbanization::Rural, true).usage_class(),
            UsageClass::Tgv
        );
        assert_eq!(
            commune(Urbanization::Rural, false).usage_class(),
            UsageClass::Rural
        );
        assert_eq!(
            commune(Urbanization::Urban, true).usage_class(),
            UsageClass::Urban
        );
        assert_eq!(
            commune(Urbanization::SemiUrban, true).usage_class(),
            UsageClass::SemiUrban
        );
    }

    #[test]
    fn class_indices_cover_all_four_slots() {
        let mut seen = [false; 4];
        for class in UsageClass::ALL {
            seen[class.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn coverage_any_reflects_either_technology() {
        assert!(Coverage::FULL.any());
        assert!(Coverage::G3_ONLY.any());
        assert!(!Coverage::NONE.any());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<&str> = UsageClass::ALL.iter().map(|c| c.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }
}
