//! The aggregated traffic dataset — the shape of the paper's data after
//! §2's commune-level aggregation.
//!
//! The analyses never need the full `service × commune × hour` cube; they
//! consume three marginal tables, which is also what keeps a
//! 36,000-commune country tractable:
//!
//! * **national hourly** series per service (Figures 4–7),
//! * **commune weekly** totals per service (Figures 8–10),
//! * **usage-class hourly** series per service (Figure 11),
//!
//! plus the weekly national totals of the ~480 tail services (Figure 2)
//! and the per-commune subscriber counts used for per-user normalization.

use mobilenet_geo::{CommuneId, Country, UsageClass};

use crate::week::HOURS_PER_WEEK;

/// Traffic direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Network → user.
    Down,
    /// User → network.
    Up,
}

impl Direction {
    /// Both directions, downlink first.
    pub const BOTH: [Direction; 2] = [Direction::Down, Direction::Up];

    /// Index into per-direction arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Direction::Down => 0,
            Direction::Up => 1,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Direction::Down => "downlink",
            Direction::Up => "uplink",
        }
    }
}

/// Aggregated measurement tables for one week of traffic.
///
/// All volumes are in MB. `service` indices refer to the head catalog;
/// tail services only appear in the national weekly ranking table.
#[derive(Debug, Clone)]
pub struct TrafficDataset {
    n_services: usize,
    n_communes: usize,
    /// `[dir][service][hour]`, flattened.
    national_hourly: Vec<f64>,
    /// `[dir][service][commune]`, flattened.
    commune_weekly: Vec<f64>,
    /// `[dir][service][class][hour]`, flattened.
    class_hourly: Vec<f64>,
    /// `[dir][tail rank]`, flattened: weekly national volumes of tail
    /// services.
    tail_weekly: Vec<f64>,
    /// Unclassified volume per direction (the DPI residue).
    unclassified: [f64; 2],
    /// Average subscribers per commune.
    commune_users: Vec<f64>,
    /// Usage class of each commune, by [`UsageClass::index`].
    commune_class: Vec<u8>,
    /// Subscribers per usage class.
    class_users: [f64; 4],
    /// Per head service: whether any of its rows in the three per-service
    /// tables may hold a value other than `+0.0`. Set by the adders, by
    /// [`TrafficDataset::merge`] and (for every row) by
    /// [`TrafficDataset::read_from`]; `merge` skips the rows unset here.
    written: Vec<bool>,
}

impl TrafficDataset {
    /// Creates an empty dataset shaped for `country` with `n_services` head
    /// services, `n_tail` tail services, and the given subscriber share.
    pub fn new(country: &Country, n_services: usize, n_tail: usize, subscriber_share: f64) -> Self {
        let n_communes = country.communes().len();
        let commune_users: Vec<f64> = country
            .communes()
            .iter()
            .map(|c| c.population as f64 * subscriber_share)
            .collect();
        let commune_class: Vec<u8> =
            country.communes().iter().map(|c| c.usage_class().index() as u8).collect();
        let mut class_users = [0.0; 4];
        for (u, &cls) in commune_users.iter().zip(commune_class.iter()) {
            class_users[cls as usize] += u;
        }
        TrafficDataset {
            n_services,
            n_communes,
            national_hourly: vec![0.0; 2 * n_services * HOURS_PER_WEEK],
            commune_weekly: vec![0.0; 2 * n_services * n_communes],
            class_hourly: vec![0.0; 2 * n_services * 4 * HOURS_PER_WEEK],
            tail_weekly: vec![0.0; 2 * n_tail],
            unclassified: [0.0; 2],
            commune_users,
            commune_class,
            class_users,
            written: vec![false; n_services],
        }
    }

    /// Number of head services.
    pub fn n_services(&self) -> usize {
        self.n_services
    }

    /// Number of communes.
    pub fn n_communes(&self) -> usize {
        self.n_communes
    }

    /// Number of tail services.
    pub fn n_tail(&self) -> usize {
        self.tail_weekly.len() / 2
    }

    #[inline]
    fn nh_index(&self, dir: usize, service: usize, hour: usize) -> usize {
        (dir * self.n_services + service) * HOURS_PER_WEEK + hour
    }

    #[inline]
    fn cw_index(&self, dir: usize, service: usize, commune: usize) -> usize {
        (dir * self.n_services + service) * self.n_communes + commune
    }

    #[inline]
    fn ch_index(&self, dir: usize, service: usize, class: usize, hour: usize) -> usize {
        ((dir * self.n_services + service) * 4 + class) * HOURS_PER_WEEK + hour
    }

    /// Records `mb` of classified traffic for `(service, commune, hour)`.
    pub fn add(
        &mut self,
        dir: Direction,
        service: usize,
        commune: CommuneId,
        hour: usize,
        mb: f64,
    ) {
        debug_assert!(service < self.n_services);
        debug_assert!(hour < HOURS_PER_WEEK);
        // Negative volume is a caller bug; NaN is tolerated (it can reach
        // here from degraded inputs) and handled by NaN-safe consumers.
        debug_assert!(mb.is_nan() || mb >= 0.0, "negative volume {mb}");
        self.written[service] = true;
        let d = dir.index();
        let c = commune.index();
        let class = self.commune_class[c] as usize;
        let nh = self.nh_index(d, service, hour);
        let cw = self.cw_index(d, service, c);
        let ch = self.ch_index(d, service, class, hour);
        self.national_hourly[nh] += mb;
        self.commune_weekly[cw] += mb;
        self.class_hourly[ch] += mb;
    }

    /// Records `mb` of traffic the classifier could not attribute.
    pub fn add_unclassified(&mut self, dir: Direction, mb: f64) {
        debug_assert!(mb.is_nan() || mb >= 0.0, "negative volume {mb}");
        self.unclassified[dir.index()] += mb;
    }

    /// Records the weekly national volume of a tail service (by tail rank).
    pub fn add_tail(&mut self, dir: Direction, tail_rank: usize, mb: f64) {
        let n = self.n_tail();
        debug_assert!(tail_rank < n);
        self.tail_weekly[dir.index() * n + tail_rank] += mb;
    }

    /// Records one classified record's downlink and uplink volumes for
    /// `(service, commune, hour)` in a single call — the columnar fold's
    /// per-record accumulation step.
    ///
    /// Bit-identical to `add(Down, …, dl_mb)` followed by
    /// `add(Up, …, ul_mb)`: the six dense cells touched are pairwise
    /// distinct (downlink and uplink tables are disjoint halves), so
    /// fusing the two calls never regroups a floating-point sum. Taking
    /// the commune as a raw index skips the `CommuneId` wrapper the
    /// columnar batch does not store.
    #[inline]
    pub fn add_classified_both(
        &mut self,
        service: usize,
        commune: usize,
        hour: usize,
        dl_mb: f64,
        ul_mb: f64,
    ) {
        debug_assert!(service < self.n_services);
        debug_assert!(hour < HOURS_PER_WEEK);
        debug_assert!(dl_mb.is_nan() || dl_mb >= 0.0, "negative volume {dl_mb}");
        debug_assert!(ul_mb.is_nan() || ul_mb >= 0.0, "negative volume {ul_mb}");
        // Marked before the adds: measured cheaper in the fold's hot loop
        // than after them.
        self.written[service] = true;
        let class = self.commune_class[commune] as usize;
        let nh = self.nh_index(0, service, hour);
        let cw = self.cw_index(0, service, commune);
        let ch = self.ch_index(0, service, class, hour);
        self.national_hourly[nh] += dl_mb;
        self.commune_weekly[cw] += dl_mb;
        self.class_hourly[ch] += dl_mb;
        let nh = self.nh_index(1, service, hour);
        let cw = self.cw_index(1, service, commune);
        let ch = self.ch_index(1, service, class, hour);
        self.national_hourly[nh] += ul_mb;
        self.commune_weekly[cw] += ul_mb;
        self.class_hourly[ch] += ul_mb;
    }

    /// Records one tail record's volumes in both directions (see
    /// [`TrafficDataset::add_classified_both`]).
    #[inline]
    pub fn add_tail_both(&mut self, tail_rank: usize, dl_mb: f64, ul_mb: f64) {
        let n = self.n_tail();
        debug_assert!(tail_rank < n);
        self.tail_weekly[tail_rank] += dl_mb;
        self.tail_weekly[n + tail_rank] += ul_mb;
    }

    /// Records one unclassified record's volumes in both directions.
    #[inline]
    pub fn add_unclassified_both(&mut self, dl_mb: f64, ul_mb: f64) {
        self.unclassified[0] += dl_mb;
        self.unclassified[1] += ul_mb;
    }

    /// Bytes held by the dense accumulation tables (national-hourly,
    /// commune-weekly, class-hourly, tail, unclassified) — the footprint
    /// of one streaming-fold partial, reported through the
    /// `netsim.ingest.accumulator_bytes` gauge.
    pub fn dense_bytes(&self) -> usize {
        std::mem::size_of::<f64>()
            * (self.national_hourly.len()
                + self.commune_weekly.len()
                + self.class_hourly.len()
                + self.tail_weekly.len()
                + self.unclassified.len())
    }

    /// The 168-hour national series of a head service.
    pub fn national_series(&self, dir: Direction, service: usize) -> &[f64] {
        let start = self.nh_index(dir.index(), service, 0);
        &self.national_hourly[start..start + HOURS_PER_WEEK]
    }

    /// Weekly national total of a head service.
    pub fn national_weekly(&self, dir: Direction, service: usize) -> f64 {
        self.national_series(dir, service).iter().sum()
    }

    /// A window `[start, end)` (hours of the week, clamped to
    /// `0..168`) of a head service's national series — the time-windowed
    /// accessor live queries use to answer over the watermarked prefix of
    /// a week still being ingested.
    pub fn national_series_window(
        &self,
        dir: Direction,
        service: usize,
        start: usize,
        end: usize,
    ) -> &[f64] {
        let series = self.national_series(dir, service);
        let end = end.min(HOURS_PER_WEEK);
        let start = start.min(end);
        &series[start..end]
    }

    /// The per-commune weekly totals of a head service.
    pub fn commune_vector(&self, dir: Direction, service: usize) -> &[f64] {
        let start = self.cw_index(dir.index(), service, 0);
        &self.commune_weekly[start..start + self.n_communes]
    }

    /// Weekly per-subscriber volume in every commune (0 where a commune has
    /// no subscribers) — the quantity mapped in Figure 9 and correlated in
    /// Figure 10.
    pub fn per_user_commune_vector(&self, dir: Direction, service: usize) -> Vec<f64> {
        self.commune_vector(dir, service)
            .iter()
            .zip(self.commune_users.iter())
            .map(|(v, u)| if *u > 0.0 { v / u } else { 0.0 })
            .collect()
    }

    /// The 168-hour series of a head service within one usage class.
    pub fn class_series(&self, dir: Direction, service: usize, class: UsageClass) -> &[f64] {
        let start = self.ch_index(dir.index(), service, class.index(), 0);
        &self.class_hourly[start..start + HOURS_PER_WEEK]
    }

    /// Per-subscriber hourly series of a head service within one usage
    /// class (Figure 11's unit).
    pub fn per_user_class_series(
        &self,
        dir: Direction,
        service: usize,
        class: UsageClass,
    ) -> Vec<f64> {
        let users = self.class_users[class.index()];
        self.class_series(dir, service, class)
            .iter()
            .map(|v| if users > 0.0 { v / users } else { 0.0 })
            .collect()
    }

    /// Weekly national volumes of the tail services, in tail-rank order.
    pub fn tail_weekly(&self, dir: Direction) -> &[f64] {
        let n = self.n_tail();
        &self.tail_weekly[dir.index() * n..(dir.index() + 1) * n]
    }

    /// The full service ranking: head weekly totals followed by tail
    /// volumes, sorted descending — the series of Figure 2.
    ///
    /// NaN-safe: a poisoned total cannot panic the sort
    /// ([`f64::total_cmp`] orders NaN ahead of every finite value in the
    /// descending ranking instead of aborting).
    pub fn full_ranking(&self, dir: Direction) -> Vec<f64> {
        let mut all: Vec<f64> =
            (0..self.n_services).map(|s| self.national_weekly(dir, s)).collect();
        all.extend_from_slice(self.tail_weekly(dir));
        all.sort_by(|a, b| b.total_cmp(a));
        all
    }

    /// Total classified volume in a direction (head + tail), MB.
    pub fn total_classified(&self, dir: Direction) -> f64 {
        let head: f64 = (0..self.n_services).map(|s| self.national_weekly(dir, s)).sum();
        let tail: f64 = self.tail_weekly(dir).iter().sum();
        head + tail
    }

    /// Unclassified volume in a direction, MB.
    pub fn unclassified(&self, dir: Direction) -> f64 {
        self.unclassified[dir.index()]
    }

    /// Total volume (classified + unclassified), MB.
    pub fn total(&self, dir: Direction) -> f64 {
        self.total_classified(dir) + self.unclassified(dir)
    }

    /// Average subscribers per commune.
    pub fn commune_users(&self) -> &[f64] {
        &self.commune_users
    }

    /// Subscribers per usage class, by [`UsageClass::index`].
    pub fn class_users(&self) -> [f64; 4] {
        self.class_users
    }

    /// Streams the dataset's sectioned CSV format to any writer, one
    /// logical row at a time — a dataset export never materializes the
    /// full text in memory.
    ///
    /// Format: a header line, then one line per logical row
    /// (`section,key...,values...`). Round-trips exactly through
    /// [`TrafficDataset::read_from`] / [`TrafficDataset::from_csv`]
    /// (floats are written with full precision).
    pub fn write_to<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        writeln!(
            writer,
            "#mobilenet-dataset v1,{},{},{}",
            self.n_services,
            self.n_communes,
            self.n_tail()
        )?;
        writeln!(
            writer,
            "unclassified,{:e},{:e}",
            self.unclassified[0], self.unclassified[1]
        )?;
        let join = |xs: &[f64]| {
            xs.iter().map(|v| format!("{v:e}")).collect::<Vec<_>>().join(",")
        };
        writeln!(writer, "commune_users,{}", join(&self.commune_users))?;
        let classes: Vec<String> =
            self.commune_class.iter().map(|c| c.to_string()).collect();
        writeln!(writer, "commune_class,{}", classes.join(","))?;
        for d in 0..2 {
            for s in 0..self.n_services {
                let start = self.nh_index(d, s, 0);
                writeln!(
                    writer,
                    "national_hourly,{d},{s},{}",
                    join(&self.national_hourly[start..start + HOURS_PER_WEEK])
                )?;
                let cw = self.cw_index(d, s, 0);
                writeln!(
                    writer,
                    "commune_weekly,{d},{s},{}",
                    join(&self.commune_weekly[cw..cw + self.n_communes])
                )?;
                for class in 0..4 {
                    let ch = self.ch_index(d, s, class, 0);
                    writeln!(
                        writer,
                        "class_hourly,{d},{s},{class},{}",
                        join(&self.class_hourly[ch..ch + HOURS_PER_WEEK])
                    )?;
                }
            }
            let n = self.n_tail();
            writeln!(
                writer,
                "tail_weekly,{d},{}",
                join(&self.tail_weekly[d * n..(d + 1) * n])
            )?;
        }
        Ok(())
    }

    /// Serializes the dataset to its sectioned CSV text format —
    /// [`TrafficDataset::write_to`] into an in-memory buffer, kept for
    /// callers that want the text itself.
    pub fn to_csv(&self) -> String {
        let mut out = Vec::new();
        self.write_to(&mut out).expect("writing a dataset to memory cannot fail");
        String::from_utf8(out).expect("dataset CSV is ASCII")
    }

    /// Reads a dataset incrementally from any reader — rows are parsed
    /// and applied one line at a time, so loading a multi-gigabyte export
    /// never holds more than one line of text.
    ///
    /// Errors carry the 1-based line number of the offending row (I/O
    /// failures report the line where reading stopped), so a caller (or a
    /// CLI user) can locate the problem in the file.
    pub fn read_from<R: std::io::BufRead>(mut reader: R) -> Result<TrafficDataset, DatasetError> {
        let mut line = String::new();
        let read_line = |reader: &mut R, line: &mut String, line_no: usize| {
            line.clear();
            let n = reader.read_line(line).map_err(|e| {
                DatasetError::at(line_no + 1, format!("i/o error: {e}"))
            })?;
            // Same semantics as `str::lines`: strip one `\n`, then at
            // most one `\r` before it.
            if line.ends_with('\n') {
                line.pop();
                if line.ends_with('\r') {
                    line.pop();
                }
            }
            Ok::<bool, DatasetError>(n > 0)
        };
        if !read_line(&mut reader, &mut line, 0)? {
            return Err(DatasetError::at(1, "empty input"));
        }
        let header = line
            .strip_prefix("#mobilenet-dataset v1,")
            .ok_or_else(|| DatasetError::at(1, "missing/unsupported header"))?;
        let dims: Vec<usize> = header
            .split(',')
            .map(|x| {
                x.parse().map_err(|e| DatasetError::at(1, format!("bad dimension: {e}")))
            })
            .collect::<Result<_, _>>()?;
        if dims.len() != 3 {
            return Err(DatasetError::at(1, "header needs 3 dimensions"));
        }
        let (n_services, n_communes, n_tail) = (dims[0], dims[1], dims[2]);

        let mut ds = TrafficDataset {
            n_services,
            n_communes,
            national_hourly: vec![0.0; 2 * n_services * HOURS_PER_WEEK],
            commune_weekly: vec![0.0; 2 * n_services * n_communes],
            class_hourly: vec![0.0; 2 * n_services * 4 * HOURS_PER_WEEK],
            tail_weekly: vec![0.0; 2 * n_tail],
            unclassified: [0.0; 2],
            commune_users: vec![0.0; n_communes],
            commune_class: vec![0; n_communes],
            class_users: [0.0; 4],
            // Any row of a file may be set (or hold a literal `-0`).
            written: vec![true; n_services],
        };

        let mut line_no = 1usize;
        while read_line(&mut reader, &mut line, line_no)? {
            line_no += 1;
            ds.apply_csv_line(&line, n_tail).map_err(|m| DatasetError::at(line_no, m))?;
        }

        // Recompute the derived class_users table.
        let mut class_users = [0.0; 4];
        for (u, &c) in ds.commune_users.iter().zip(ds.commune_class.iter()) {
            if c as usize >= 4 {
                return Err(DatasetError::at(0, "commune class out of range"));
            }
            class_users[c as usize] += u;
        }
        ds.class_users = class_users;
        Ok(ds)
    }

    /// Parses a dataset previously written by [`TrafficDataset::to_csv`]
    /// — [`TrafficDataset::read_from`] over an in-memory buffer.
    pub fn from_csv(text: &str) -> Result<TrafficDataset, DatasetError> {
        TrafficDataset::read_from(text.as_bytes())
    }

    /// Applies one body row of the CSV format to `self`.
    fn apply_csv_line(&mut self, line: &str, n_tail: usize) -> Result<(), String> {
        let (n_services, n_communes) = (self.n_services, self.n_communes);
        let parse_floats = |s: &str| -> Result<Vec<f64>, String> {
            s.split(',')
                .map(|x| x.parse::<f64>().map_err(|e| format!("bad float {x:?}: {e}")))
                .collect()
        };
        {
            let ds = self;
            let (section, rest) = line.split_once(',').ok_or("malformed line")?;
            match section {
                "unclassified" => {
                    let v = parse_floats(rest)?;
                    if v.len() != 2 {
                        return Err("unclassified needs 2 values".into());
                    }
                    ds.unclassified = [v[0], v[1]];
                }
                "commune_users" => {
                    let v = parse_floats(rest)?;
                    if v.len() != n_communes {
                        return Err("commune_users length mismatch".into());
                    }
                    ds.commune_users = v;
                }
                "commune_class" => {
                    let v: Vec<u8> = rest
                        .split(',')
                        .map(|x| x.parse().map_err(|e| format!("bad class: {e}")))
                        .collect::<Result<_, _>>()?;
                    if v.len() != n_communes {
                        return Err("commune_class length mismatch".into());
                    }
                    ds.commune_class = v;
                }
                "national_hourly" => {
                    let (d, rest) = rest.split_once(',').ok_or("missing dir")?;
                    let (s, values) = rest.split_once(',').ok_or("missing service")?;
                    let d: usize = d.parse().map_err(|_| "bad dir")?;
                    let s: usize = s.parse().map_err(|_| "bad service")?;
                    let v = parse_floats(values)?;
                    if d >= 2 || s >= n_services || v.len() != HOURS_PER_WEEK {
                        return Err("national_hourly row out of range".into());
                    }
                    let start = ds.nh_index(d, s, 0);
                    ds.national_hourly[start..start + HOURS_PER_WEEK].copy_from_slice(&v);
                }
                "commune_weekly" => {
                    let (d, rest) = rest.split_once(',').ok_or("missing dir")?;
                    let (s, values) = rest.split_once(',').ok_or("missing service")?;
                    let d: usize = d.parse().map_err(|_| "bad dir")?;
                    let s: usize = s.parse().map_err(|_| "bad service")?;
                    let v = parse_floats(values)?;
                    if d >= 2 || s >= n_services || v.len() != n_communes {
                        return Err("commune_weekly row out of range".into());
                    }
                    let start = ds.cw_index(d, s, 0);
                    ds.commune_weekly[start..start + n_communes].copy_from_slice(&v);
                }
                "class_hourly" => {
                    let (d, rest) = rest.split_once(',').ok_or("missing dir")?;
                    let (s, rest) = rest.split_once(',').ok_or("missing service")?;
                    let (class, values) = rest.split_once(',').ok_or("missing class")?;
                    let d: usize = d.parse().map_err(|_| "bad dir")?;
                    let s: usize = s.parse().map_err(|_| "bad service")?;
                    let class: usize = class.parse().map_err(|_| "bad class")?;
                    let v = parse_floats(values)?;
                    if d >= 2 || s >= n_services || class >= 4 || v.len() != HOURS_PER_WEEK {
                        return Err("class_hourly row out of range".into());
                    }
                    let start = ds.ch_index(d, s, class, 0);
                    ds.class_hourly[start..start + HOURS_PER_WEEK].copy_from_slice(&v);
                }
                "tail_weekly" => {
                    let (d, values) = rest.split_once(',').ok_or("missing dir")?;
                    let d: usize = d.parse().map_err(|_| "bad dir")?;
                    let v = parse_floats(values)?;
                    if d >= 2 || v.len() != n_tail {
                        return Err("tail_weekly row out of range".into());
                    }
                    ds.tail_weekly[d * n_tail..(d + 1) * n_tail].copy_from_slice(&v);
                }
                other => return Err(format!("unknown section {other:?}")),
            }
        }
        Ok(())
    }

    /// Merges another dataset (same shape) into this one. Used to combine
    /// partials generated in parallel and to fold datasets from
    /// independent exports.
    ///
    /// Validates shape compatibility first and returns a typed
    /// [`DatasetError`] on any mismatch (service count, commune count,
    /// tail length), leaving `self` untouched — two exports of different
    /// scales can no longer silently mis-merge or panic deep inside a
    /// pipeline.
    ///
    /// Row-sparse: of the per-service tables (national hourly, commune
    /// weekly, class hourly), only the head-service rows that `other`
    /// has written are added — each is one contiguous slice per direction
    /// and table. A streaming-fold shard writes a single head service, so
    /// merging its partial costs one row instead of all of them. The tail
    /// and unclassified cells are added densely.
    ///
    /// The result is bit-identical to adding every cell. A row `other`
    /// never wrote holds only `+0.0`, and `x + 0.0 == x` bit for bit
    /// unless `x` is `-0.0`. No dataset built by the adders or by merges
    /// holds a `-0.0`: every cell starts at `+0.0`, and adding any
    /// volume, `-0.0` included, to `+0.0` never yields `-0.0`. Only a
    /// hand-written CSV with a literal `-0` can carry one into `self`,
    /// and such a cell keeps its sign where a dense add would flip it to
    /// `+0.0`; a dataset read from CSV counts every row as written, so as
    /// `other` it always merges densely.
    pub fn merge(&mut self, other: &TrafficDataset) -> Result<(), DatasetError> {
        if self.n_services != other.n_services {
            return Err(DatasetError::at(
                0,
                format!(
                    "cannot merge: {} head services vs {}",
                    self.n_services, other.n_services
                ),
            ));
        }
        if self.n_communes != other.n_communes {
            return Err(DatasetError::at(
                0,
                format!(
                    "cannot merge: {} communes vs {}",
                    self.n_communes, other.n_communes
                ),
            ));
        }
        if self.tail_weekly.len() != other.tail_weekly.len() {
            return Err(DatasetError::at(
                0,
                format!(
                    "cannot merge: {} tail services vs {}",
                    self.n_tail(),
                    other.n_tail()
                ),
            ));
        }
        fn add_rows(dst: &mut [f64], src: &[f64], start: usize, len: usize) {
            let range = start..start + len;
            for (a, b) in dst[range.clone()].iter_mut().zip(&src[range]) {
                *a += b;
            }
        }
        for s in (0..self.n_services).filter(|&s| other.written[s]) {
            for d in 0..2 {
                let nh = self.nh_index(d, s, 0);
                add_rows(&mut self.national_hourly, &other.national_hourly, nh, HOURS_PER_WEEK);
                let cw = self.cw_index(d, s, 0);
                add_rows(&mut self.commune_weekly, &other.commune_weekly, cw, self.n_communes);
                let ch = self.ch_index(d, s, 0, 0);
                add_rows(&mut self.class_hourly, &other.class_hourly, ch, 4 * HOURS_PER_WEEK);
            }
            self.written[s] = true;
        }
        for (a, b) in self.tail_weekly.iter_mut().zip(&other.tail_weekly) {
            *a += b;
        }
        self.unclassified[0] += other.unclassified[0];
        self.unclassified[1] += other.unclassified[1];
        Ok(())
    }
}

/// A parse failure in [`TrafficDataset::from_csv`], locating the
/// offending row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetError {
    /// 1-based line number of the offending row; 0 for whole-file
    /// problems that no single line causes.
    pub line: usize,
    /// What went wrong on that line.
    pub message: String,
}

impl DatasetError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        DatasetError { line, message: message.into() }
    }
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "dataset: {}", self.message)
        } else {
            write!(f, "dataset line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for DatasetError {}

#[cfg(test)]
mod tests {
    use super::*;
    use mobilenet_geo::CountryConfig;

    fn dataset() -> (Country, TrafficDataset) {
        let country = Country::generate(&CountryConfig::small(), 5);
        let ds = TrafficDataset::new(&country, 3, 10, 0.5);
        (country, ds)
    }

    #[test]
    fn fused_adds_match_per_direction_adds_bitwise() {
        let (country, mut a) = dataset();
        let (_, mut b) = dataset();
        // Irrational-ish volumes catch any regrouping of the f64 sums.
        for i in 0..500usize {
            let commune = country.communes()[i % country.communes().len()].id;
            let (s, h) = (i % 3, (i * 13) % 168);
            let (dl, ul) = (0.1 + (i as f64) * 0.37, 0.05 + (i as f64) * 0.11);
            a.add(Direction::Down, s, commune, h, dl);
            a.add(Direction::Up, s, commune, h, ul);
            a.add_tail(Direction::Down, i % 10, dl);
            a.add_tail(Direction::Up, i % 10, ul);
            a.add_unclassified(Direction::Down, dl);
            a.add_unclassified(Direction::Up, ul);
            b.add_classified_both(s, commune.index(), h, dl, ul);
            b.add_tail_both(i % 10, dl, ul);
            b.add_unclassified_both(dl, ul);
        }
        assert_eq!(a.to_csv(), b.to_csv(), "fused adds must be bit-identical");
        assert!(a.dense_bytes() > 0);
        assert_eq!(a.dense_bytes(), b.dense_bytes());
    }

    #[test]
    fn add_updates_all_three_marginals() {
        let (country, mut ds) = dataset();
        let commune = country.communes()[10].id;
        let class = country.communes()[10].usage_class();
        ds.add(Direction::Down, 1, commune, 42, 7.5);
        assert_eq!(ds.national_series(Direction::Down, 1)[42], 7.5);
        assert_eq!(ds.commune_vector(Direction::Down, 1)[10], 7.5);
        assert_eq!(ds.class_series(Direction::Down, 1, class)[42], 7.5);
        // Other direction untouched.
        assert_eq!(ds.national_series(Direction::Up, 1)[42], 0.0);
        assert_eq!(ds.national_weekly(Direction::Down, 1), 7.5);
    }

    #[test]
    fn window_accessors_clamp_and_match_the_weekly_total() {
        let (country, mut ds) = dataset();
        for (i, c) in country.communes().iter().enumerate().take(100) {
            ds.add(Direction::Down, 0, c.id, (i * 7) % HOURS_PER_WEEK, 0.3 + i as f64 * 0.17);
        }
        // The full window is the weekly total, bit for bit (same
        // left-to-right additions).
        let full: f64 =
            ds.national_series_window(Direction::Down, 0, 0, HOURS_PER_WEEK).iter().sum();
        assert_eq!(full, ds.national_weekly(Direction::Down, 0));
        // Disjoint windows partition the series.
        let a = ds.national_series_window(Direction::Down, 0, 0, 50);
        let b = ds.national_series_window(Direction::Down, 0, 50, HOURS_PER_WEEK);
        assert_eq!(a.len() + b.len(), HOURS_PER_WEEK);
        assert_eq!(a[49], ds.national_series(Direction::Down, 0)[49]);
        // Out-of-range bounds clamp instead of panicking.
        assert_eq!(ds.national_series_window(Direction::Down, 0, 0, 10_000).len(), 168);
        assert!(ds.national_series_window(Direction::Down, 0, 80, 20).is_empty());
        assert!(ds.national_series_window(Direction::Down, 0, 168, 168).is_empty());
    }

    #[test]
    fn full_ranking_survives_nan_volumes() {
        // Regression: a NaN that slipped into an aggregate (corrupt trace,
        // faulty counter) used to panic `sort_by(partial_cmp().unwrap())`.
        let (country, mut ds) = dataset();
        let commune = country.communes()[0].id;
        ds.add(Direction::Down, 0, commune, 0, 5.0);
        ds.add(Direction::Down, 1, commune, 1, f64::NAN);
        ds.add(Direction::Down, 2, commune, 2, 1.0);
        let ranking = ds.full_ranking(Direction::Down);
        assert_eq!(ranking.len(), 3 + 10);
        assert_eq!(ranking.iter().filter(|v| v.is_nan()).count(), 1);
        // Finite entries keep their descending order.
        let finite: Vec<f64> = ranking.iter().copied().filter(|v| !v.is_nan()).collect();
        assert!(finite.windows(2).all(|w| w[0] >= w[1]), "{finite:?}");
    }

    #[test]
    fn class_series_sum_to_national() {
        let (country, mut ds) = dataset();
        for (i, c) in country.communes().iter().enumerate().take(50) {
            ds.add(Direction::Up, 0, c.id, i % HOURS_PER_WEEK, 1.0 + i as f64);
        }
        for hour in 0..HOURS_PER_WEEK {
            let national = ds.national_series(Direction::Up, 0)[hour];
            let class_sum: f64 = UsageClass::ALL
                .iter()
                .map(|&cls| ds.class_series(Direction::Up, 0, cls)[hour])
                .sum();
            assert!((national - class_sum).abs() < 1e-9);
        }
    }

    #[test]
    fn per_user_normalization_divides_by_subscribers() {
        let (country, mut ds) = dataset();
        let c = &country.communes()[3];
        ds.add(Direction::Down, 0, c.id, 0, 100.0);
        let per_user = ds.per_user_commune_vector(Direction::Down, 0);
        let users = c.population as f64 * 0.5;
        assert!((per_user[3] - 100.0 / users).abs() < 1e-12);
    }

    #[test]
    fn full_ranking_is_sorted_and_complete() {
        let (country, mut ds) = dataset();
        let id = country.communes()[0].id;
        ds.add(Direction::Down, 0, id, 0, 5.0);
        ds.add(Direction::Down, 1, id, 0, 50.0);
        ds.add(Direction::Down, 2, id, 0, 0.5);
        for rank in 0..10 {
            ds.add_tail(Direction::Down, rank, 1.0 / (rank + 1) as f64);
        }
        let ranking = ds.full_ranking(Direction::Down);
        assert_eq!(ranking.len(), 13);
        assert_eq!(ranking[0], 50.0);
        for w in ranking.windows(2) {
            assert!(w[0] >= w[1]);
        }
        let total: f64 = ranking.iter().sum();
        assert!((ds.total_classified(Direction::Down) - total).abs() < 1e-9);
    }

    #[test]
    fn unclassified_counts_into_total_only() {
        let (_, mut ds) = dataset();
        ds.add_unclassified(Direction::Down, 12.0);
        assert_eq!(ds.unclassified(Direction::Down), 12.0);
        assert_eq!(ds.total_classified(Direction::Down), 0.0);
        assert_eq!(ds.total(Direction::Down), 12.0);
    }

    #[test]
    fn merge_adds_tables() {
        let (country, mut a) = dataset();
        let mut b = TrafficDataset::new(&country, 3, 10, 0.5);
        let id = country.communes()[7].id;
        a.add(Direction::Down, 2, id, 5, 1.0);
        b.add(Direction::Down, 2, id, 5, 2.0);
        b.add_tail(Direction::Up, 3, 4.0);
        b.add_unclassified(Direction::Up, 1.0);
        a.merge(&b).expect("same shape");
        assert_eq!(a.national_series(Direction::Down, 2)[5], 3.0);
        assert_eq!(a.tail_weekly(Direction::Up)[3], 4.0);
        assert_eq!(a.unclassified(Direction::Up), 1.0);
    }

    #[test]
    fn merge_rejects_shape_mismatches_with_typed_errors() {
        let (country, mut a) = dataset();
        let before = a.to_csv();

        let more_services = TrafficDataset::new(&country, 4, 10, 0.5);
        let err = a.merge(&more_services).unwrap_err();
        assert!(err.message.contains("head services"), "{err}");

        let more_tail = TrafficDataset::new(&country, 3, 11, 0.5);
        let err = a.merge(&more_tail).unwrap_err();
        assert!(err.message.contains("tail services"), "{err}");

        let other_country = Country::generate(&CountryConfig::small(), 6);
        if other_country.communes().len() != country.communes().len() {
            let other = TrafficDataset::new(&other_country, 3, 10, 0.5);
            let err = a.merge(&other).unwrap_err();
            assert!(err.message.contains("communes"), "{err}");
        }

        // A failed merge leaves the target untouched.
        assert_eq!(a.to_csv(), before);
    }

    #[test]
    fn merge_keeps_a_literal_negative_zero_only_where_other_never_wrote() {
        // The one documented divergence from a dense add: a `-0` that a
        // hand-written CSV put into `self` keeps its sign when `other`
        // never wrote that row, and flips to `+0.0` when it did.
        let (country, empty) = dataset();
        let text = empty.to_csv().replacen("commune_weekly,0,1,0e0", "commune_weekly,0,1,-0", 1);
        let negative_zero = |ds: &TrafficDataset| ds.commune_vector(Direction::Down, 1)[0];
        let mut a = TrafficDataset::from_csv(&text).expect("parse");
        assert_eq!(negative_zero(&a).to_bits(), (-0.0f64).to_bits());

        let mut partial = TrafficDataset::new(&country, 3, 10, 0.5);
        partial.add_classified_both(2, 0, 0, 1.5, 0.5);
        a.merge(&partial).expect("same shape");
        assert_eq!(negative_zero(&a).to_bits(), (-0.0f64).to_bits());

        // A dataset read from CSV counts every row as written.
        a.merge(&TrafficDataset::from_csv(&empty.to_csv()).unwrap()).expect("same shape");
        assert_eq!(negative_zero(&a).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn reader_and_writer_apis_match_the_string_forms() {
        let (country, mut ds) = dataset();
        for (i, c) in country.communes().iter().enumerate().take(25) {
            ds.add(Direction::Down, i % 3, c.id, i % HOURS_PER_WEEK, 1.0 + i as f64);
        }
        let mut buf = Vec::new();
        ds.write_to(&mut buf).expect("write to memory");
        let text = ds.to_csv();
        assert_eq!(String::from_utf8(buf).unwrap(), text);

        let via_reader = TrafficDataset::read_from(text.as_bytes()).expect("read");
        assert_eq!(via_reader.to_csv(), text);
        // \r\n line endings parse identically.
        let crlf = text.replace('\n', "\r\n");
        assert_eq!(TrafficDataset::read_from(crlf.as_bytes()).unwrap().to_csv(), text);
        // Errors still carry the 1-based line number.
        let mut broken = text.clone();
        broken.push_str("bogus,1,2\n");
        let err = TrafficDataset::read_from(broken.as_bytes()).unwrap_err();
        assert_eq!(err.line, text.lines().count() + 1);
    }

    #[test]
    fn class_users_sum_to_total_subscribers() {
        let (country, ds) = dataset();
        let total: f64 = ds.class_users().iter().sum();
        let want = country.total_population() as f64 * 0.5;
        assert!((total - want).abs() < 1.0);
    }

    #[test]
    fn csv_round_trip_is_exact() {
        let (country, mut ds) = dataset();
        for (i, c) in country.communes().iter().enumerate().take(40) {
            ds.add(Direction::Down, i % 3, c.id, (i * 7) % HOURS_PER_WEEK, 0.1 + i as f64);
            ds.add(Direction::Up, (i + 1) % 3, c.id, (i * 5) % HOURS_PER_WEEK, 0.01 * i as f64);
        }
        ds.add_unclassified(Direction::Down, 3.25);
        for r in 0..10 {
            ds.add_tail(Direction::Up, r, (r as f64).exp());
        }
        let text = ds.to_csv();
        let back = TrafficDataset::from_csv(&text).expect("parse");
        assert_eq!(back.n_services(), ds.n_services());
        assert_eq!(back.n_communes(), ds.n_communes());
        for dir in Direction::BOTH {
            for s in 0..3 {
                assert_eq!(back.national_series(dir, s), ds.national_series(dir, s));
                assert_eq!(back.commune_vector(dir, s), ds.commune_vector(dir, s));
                for class in UsageClass::ALL {
                    assert_eq!(
                        back.class_series(dir, s, class),
                        ds.class_series(dir, s, class)
                    );
                }
            }
            assert_eq!(back.tail_weekly(dir), ds.tail_weekly(dir));
            assert_eq!(back.unclassified(dir), ds.unclassified(dir));
        }
        assert_eq!(back.class_users(), ds.class_users());
        assert_eq!(back.commune_users(), ds.commune_users());
    }

    #[test]
    fn csv_parser_rejects_malformed_input() {
        assert!(TrafficDataset::from_csv("").is_err());
        assert!(TrafficDataset::from_csv("not a dataset").is_err());
        assert!(TrafficDataset::from_csv("#mobilenet-dataset v1,2,3").is_err());
        assert!(
            TrafficDataset::from_csv("#mobilenet-dataset v1,1,1,1\nbogus,1,2").is_err()
        );
        assert!(TrafficDataset::from_csv(
            "#mobilenet-dataset v1,1,2,0\ncommune_users,1.0"
        )
        .is_err());
        assert!(TrafficDataset::from_csv(
            "#mobilenet-dataset v1,1,1,0\nunclassified,1.0,abc"
        )
        .is_err());
    }

    #[test]
    fn direction_indices_are_stable() {
        assert_eq!(Direction::Down.index(), 0);
        assert_eq!(Direction::Up.index(), 1);
        assert_eq!(Direction::Down.label(), "downlink");
        assert_eq!(Direction::Up.label(), "uplink");
    }

    mod merge_property {
        use super::super::*;
        use mobilenet_geo::CountryConfig;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::sync::OnceLock;

        const SERVICES: usize = 6;
        const TAIL: usize = 4;

        fn country() -> &'static Country {
            static COUNTRY: OnceLock<Country> = OnceLock::new();
            COUNTRY.get_or_init(|| Country::generate(&CountryConfig::small(), 11))
        }

        /// A volume drawn from ordinary, zero (both signs), subnormal,
        /// huge, infinite and NaN values.
        fn volume(rng: &mut StdRng) -> f64 {
            match rng.gen_range(0u32..8) {
                0 => f64::NAN,
                1 => f64::from_bits(rng.gen_range(1u64..1 << 52)),
                2 => f64::MAX * rng.gen::<f64>(),
                3 => f64::INFINITY,
                4 => 0.0,
                5 => -0.0,
                _ => rng.gen::<f64>() * 1e3,
            }
        }

        /// A dataset built through the adders, writing a random subset of
        /// head-service rows, and sometimes sent through a CSV round-trip.
        fn random_dataset(rng: &mut StdRng) -> TrafficDataset {
            let country = country();
            let communes = country.communes().len();
            let mut ds = TrafficDataset::new(country, SERVICES, TAIL, 0.5);
            let rows: Vec<usize> = (0..SERVICES).filter(|_| rng.gen_bool(0.4)).collect();
            for _ in 0..rng.gen_range(0usize..40) {
                let commune = rng.gen_range(0..communes);
                let hour = rng.gen_range(0..HOURS_PER_WEEK);
                if !rows.is_empty() {
                    let s = rows[rng.gen_range(0..rows.len())];
                    if rng.gen_bool(0.5) {
                        ds.add_classified_both(s, commune, hour, volume(rng), volume(rng));
                    } else {
                        let dir = if rng.gen_bool(0.5) { Direction::Down } else { Direction::Up };
                        ds.add(dir, s, country.communes()[commune].id, hour, volume(rng));
                    }
                }
                if rng.gen_bool(0.3) {
                    ds.add_tail_both(rng.gen_range(0..TAIL), volume(rng), volume(rng));
                }
                if rng.gen_bool(0.3) {
                    ds.add_unclassified_both(volume(rng), volume(rng));
                }
            }
            if rng.gen_bool(0.3) {
                ds = TrafficDataset::from_csv(&ds.to_csv()).expect("round-trip");
            }
            ds
        }

        /// The dense-add oracle: every cell of `other` added into `into`.
        fn dense_merge(into: &mut TrafficDataset, other: &TrafficDataset) {
            let tables = [
                (&mut into.national_hourly, &other.national_hourly),
                (&mut into.commune_weekly, &other.commune_weekly),
                (&mut into.class_hourly, &other.class_hourly),
                (&mut into.tail_weekly, &other.tail_weekly),
            ];
            for (a, b) in tables {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
            into.unclassified[0] += other.unclassified[0];
            into.unclassified[1] += other.unclassified[1];
        }

        /// Every table cell, as bits.
        fn bits(ds: &TrafficDataset) -> Vec<u64> {
            ds.national_hourly
                .iter()
                .chain(&ds.commune_weekly)
                .chain(&ds.class_hourly)
                .chain(&ds.tail_weekly)
                .chain(&ds.unclassified)
                .map(|v| v.to_bits())
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn merge_matches_the_dense_oracle_bitwise(seed in prop::num::u64::ANY) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut pool: Vec<(TrafficDataset, TrafficDataset)> = (0..rng.gen_range(2usize..6))
                    .map(|_| {
                        let ds = random_dataset(&mut rng);
                        (ds.clone(), ds)
                    })
                    .collect();
                // Merge random pairs until one dataset is left, so merged
                // datasets are merged again (their masks matter too).
                while pool.len() > 1 {
                    let j = rng.gen_range(0..pool.len());
                    let (other, other_oracle) = pool.swap_remove(j);
                    let i = rng.gen_range(0..pool.len());
                    let (sparse, oracle) = &mut pool[i];
                    let written: Vec<bool> =
                        sparse.written.iter().zip(&other.written).map(|(a, b)| a | b).collect();
                    sparse.merge(&other).expect("same shape");
                    dense_merge(oracle, &other_oracle);
                    prop_assert!(bits(sparse) == bits(oracle), "sparse merge diverged");
                    prop_assert_eq!(&sparse.written, &written);
                }

                // A shape mismatch errs and leaves the target, mask included,
                // untouched.
                let (mut target, _) = pool.pop().unwrap();
                let (before, written) = (bits(&target), target.written.clone());
                for (services, tail) in [(SERVICES + 1, TAIL), (SERVICES, TAIL + 1)] {
                    let mut other = TrafficDataset::new(country(), services, tail, 0.5);
                    other.add_classified_both(0, 0, 0, 1.0, 1.0);
                    prop_assert!(target.merge(&other).is_err());
                    prop_assert!(bits(&target) == before);
                    prop_assert_eq!(&target.written, &written);
                }
            }
        }
    }
}
