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
//!
//! The three per-service tables are stored per head service, as one
//! copy-on-write block holding that service's rows of all three tables
//! in both directions — exactly what one streaming-fold shard writes.
//! A block nobody wrote reads as `+0.0` and allocates nothing; a block
//! can be shared between datasets and is copied only when one of them
//! writes to it.

use std::sync::Arc;

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
    pub(crate) fn index(self) -> usize {
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

/// Offset of the usage-class hourly rows (4 × 168 cells, class-major)
/// within one direction's half of a service block; the national hourly
/// row (168 cells) comes first.
const CLASS_OFFSET: usize = HOURS_PER_WEEK;
/// Offset of the commune weekly row (one cell per commune) within one
/// direction's half of a service block.
const COMMUNE_OFFSET: usize = 5 * HOURS_PER_WEEK;

/// One head service's rows of the three per-service tables, both
/// directions: `[dir][national hourly | class hourly | commune weekly]`.
#[derive(Debug, Clone)]
enum Block {
    /// Never written: every cell reads as `+0.0`.
    Zero,
    /// Held by this dataset alone.
    Owned(Vec<f64>),
    /// Possibly held by other datasets too; copied before it is written
    /// unless this is the last holder.
    Shared(Arc<Vec<f64>>),
}

/// The per-country constants of a dataset, shared by every dataset cloned
/// from one [`TrafficDataset::new`] (fold partials, merge targets,
/// snapshots).
#[derive(Debug)]
struct Communes {
    /// Average subscribers per commune.
    users: Vec<f64>,
    /// Usage class of each commune, by [`UsageClass::index`].
    class: Vec<u8>,
    /// Subscribers per usage class.
    class_users: [f64; 4],
    /// One all-`+0.0` block, what a [`Block::Zero`] reads as.
    zeros: Vec<f64>,
}

impl Communes {
    fn new(users: Vec<f64>, class: Vec<u8>) -> Self {
        let mut class_users = [0.0; 4];
        for (u, &cls) in users.iter().zip(class.iter()) {
            class_users[cls as usize] += u;
        }
        let zeros = vec![0.0; block_len(users.len())];
        Communes {
            users,
            class,
            class_users,
            zeros,
        }
    }
}

/// Cells in one service block of a `n_communes`-commune dataset.
fn block_len(n_communes: usize) -> usize {
    2 * (COMMUNE_OFFSET + n_communes)
}

/// Aggregated measurement tables for one week of traffic.
///
/// All volumes are in MB. `service` indices refer to the head catalog;
/// tail services only appear in the national weekly ranking table.
///
/// Cloning is cheap for blocks that are shared and for the per-country
/// constants (reference counts); an owned block is copied.
#[derive(Debug, Clone)]
pub struct TrafficDataset {
    n_services: usize,
    n_communes: usize,
    /// One block per head service (see [`Block`]).
    blocks: Vec<Block>,
    /// `[dir][tail rank]`, flattened: weekly national volumes of tail
    /// services.
    tail_weekly: Vec<f64>,
    /// Whether any tail cell may hold a value other than `+0.0`.
    tail_written: bool,
    /// Unclassified volume per direction (the DPI residue).
    unclassified: [f64; 2],
    communes: Arc<Communes>,
    /// Whether every block cell was built from `+0.0` by additions alone.
    /// Such a cell never holds `-0.0` (that needs two `-0.0` operands) or
    /// a signalling NaN (no addition yields one), so `+0.0 + x` has the
    /// bits of `x` and a merge may share the block instead of adding it.
    /// False for a dataset read from CSV, which may hold a literal `-0`.
    additive: bool,
}

/// Mutable access to one head service's rows, borrowed once for a run of
/// that service's records ([`TrafficDataset::service_rows_mut`]).
pub struct ServiceRowsMut<'a> {
    block: &'a mut [f64],
    commune_class: &'a [u8],
}

impl ServiceRowsMut<'_> {
    /// Records `mb` of traffic in `dir` for `(commune, hour)`.
    #[inline]
    pub(crate) fn add(&mut self, dir: Direction, commune: usize, hour: usize, mb: f64) {
        debug_assert!(hour < HOURS_PER_WEEK);
        // Negative volume is a caller bug; NaN is tolerated (it can reach
        // here from degraded inputs) and handled by NaN-safe consumers.
        debug_assert!(mb.is_nan() || mb >= 0.0, "negative volume {mb}");
        let class = self.commune_class[commune] as usize;
        let half = self.block.len() / 2;
        let rows = &mut self.block[dir.index() * half..(dir.index() + 1) * half];
        rows[hour] += mb;
        rows[COMMUNE_OFFSET + commune] += mb;
        rows[CLASS_OFFSET + class * HOURS_PER_WEEK + hour] += mb;
    }

    /// Records one record's downlink and uplink volumes for
    /// `(commune, hour)` — the columnar fold's per-record step.
    ///
    /// Bit-identical to `add(Down, …, dl_mb)` followed by
    /// `add(Up, …, ul_mb)`: the six cells touched are pairwise distinct,
    /// so fusing the two calls never regroups a floating-point sum.
    #[inline]
    pub fn add_both(&mut self, commune: usize, hour: usize, dl_mb: f64, ul_mb: f64) {
        debug_assert!(hour < HOURS_PER_WEEK);
        debug_assert!(dl_mb.is_nan() || dl_mb >= 0.0, "negative volume {dl_mb}");
        debug_assert!(ul_mb.is_nan() || ul_mb >= 0.0, "negative volume {ul_mb}");
        let class = self.commune_class[commune] as usize;
        let (down, up) = self.block.split_at_mut(self.block.len() / 2);
        let ch = CLASS_OFFSET + class * HOURS_PER_WEEK + hour;
        down[hour] += dl_mb;
        down[COMMUNE_OFFSET + commune] += dl_mb;
        down[ch] += dl_mb;
        up[hour] += ul_mb;
        up[COMMUNE_OFFSET + commune] += ul_mb;
        up[ch] += ul_mb;
    }
}

/// `block` as an owned buffer: a never-written block becomes `+0.0`s, and
/// a shared one is copied unless its last holder is this dataset. Either
/// happens once; after that this is one match on an owned block, with no
/// atomic operation.
#[inline]
fn owned(block: &mut Block, len: usize) -> &mut Vec<f64> {
    if !matches!(block, Block::Owned(_)) {
        take_ownership(block, len);
    }
    match block {
        Block::Owned(rows) => rows,
        _ => unreachable!("the block was just made owned"),
    }
}

#[cold]
#[inline(never)]
fn take_ownership(block: &mut Block, len: usize) {
    let rows = match std::mem::replace(block, Block::Zero) {
        Block::Zero => vec![0.0; len],
        Block::Owned(rows) => rows,
        Block::Shared(rows) => Arc::try_unwrap(rows).unwrap_or_else(|rows| rows.to_vec()),
    };
    *block = Block::Owned(rows);
}

impl TrafficDataset {
    /// Creates an empty dataset shaped for `country` with `n_services` head
    /// services, `n_tail` tail services, and the given subscriber share.
    ///
    /// Its clones share the per-country constants, so building many
    /// datasets of one shape costs one `new` and cheap clones.
    pub fn new(country: &Country, n_services: usize, n_tail: usize, subscriber_share: f64) -> Self {
        let users = country
            .communes()
            .iter()
            .map(|c| c.population as f64 * subscriber_share)
            .collect();
        let class = country
            .communes()
            .iter()
            .map(|c| c.usage_class().index() as u8)
            .collect();
        TrafficDataset {
            n_services,
            n_communes: country.communes().len(),
            blocks: vec![Block::Zero; n_services],
            tail_weekly: vec![0.0; 2 * n_tail],
            tail_written: false,
            unclassified: [0.0; 2],
            communes: Arc::new(Communes::new(users, class)),
            additive: true,
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

    /// Head service `service`'s block.
    fn block(&self, service: usize) -> &[f64] {
        match &self.blocks[service] {
            Block::Zero => &self.communes.zeros,
            Block::Owned(rows) => rows,
            Block::Shared(rows) => rows,
        }
    }

    /// Direction `dir`'s half of head service `service`'s block.
    fn rows(&self, dir: Direction, service: usize) -> &[f64] {
        let half = COMMUNE_OFFSET + self.n_communes;
        &self.block(service)[dir.index() * half..(dir.index() + 1) * half]
    }

    /// Mutable access to head service `service`'s rows in the three
    /// per-service tables, marking them written. The first write to a
    /// block allocates it (never written) or copies it (still shared with
    /// another dataset); borrow it once per run of the service's records.
    #[inline]
    pub fn service_rows_mut(&mut self, service: usize) -> ServiceRowsMut<'_> {
        let len = block_len(self.n_communes);
        ServiceRowsMut {
            block: owned(&mut self.blocks[service], len),
            commune_class: &self.communes.class,
        }
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
        self.service_rows_mut(service)
            .add(dir, commune.index(), hour, mb);
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
        self.tail_written = true;
        self.tail_weekly[dir.index() * n + tail_rank] += mb;
    }

    /// Records one tail record's volumes in both directions.
    #[inline]
    pub fn add_tail_both(&mut self, tail_rank: usize, dl_mb: f64, ul_mb: f64) {
        let n = self.n_tail();
        debug_assert!(tail_rank < n);
        self.tail_written = true;
        self.tail_weekly[tail_rank] += dl_mb;
        self.tail_weekly[n + tail_rank] += ul_mb;
    }

    /// Records one unclassified record's volumes in both directions.
    #[inline]
    pub fn add_unclassified_both(&mut self, dl_mb: f64, ul_mb: f64) {
        self.unclassified[0] += dl_mb;
        self.unclassified[1] += ul_mb;
    }

    /// Bytes of the dense tables (national-hourly, commune-weekly,
    /// class-hourly, tail, unclassified) with every head-service block
    /// written — the footprint of a merge target, reported through the
    /// `netsim.ingest.accumulator_bytes` gauge. A fold partial allocates
    /// only the blocks of the services it writes, and a merged dataset
    /// shares the blocks that have one writer.
    pub fn dense_bytes(&self) -> usize {
        std::mem::size_of::<f64>()
            * (self.n_services * block_len(self.n_communes)
                + self.tail_weekly.len()
                + self.unclassified.len())
    }

    /// The 168-hour national series of a head service.
    pub fn national_series(&self, dir: Direction, service: usize) -> &[f64] {
        &self.rows(dir, service)[..HOURS_PER_WEEK]
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
        &self.rows(dir, service)[COMMUNE_OFFSET..]
    }

    /// Weekly per-subscriber volume in every commune (0 where a commune has
    /// no subscribers) — the quantity mapped in Figure 9 and correlated in
    /// Figure 10.
    pub fn per_user_commune_vector(&self, dir: Direction, service: usize) -> Vec<f64> {
        self.commune_vector(dir, service)
            .iter()
            .zip(self.communes.users.iter())
            .map(|(v, u)| if *u > 0.0 { v / u } else { 0.0 })
            .collect()
    }

    /// The 168-hour series of a head service within one usage class.
    pub fn class_series(&self, dir: Direction, service: usize, class: UsageClass) -> &[f64] {
        let start = CLASS_OFFSET + class.index() * HOURS_PER_WEEK;
        &self.rows(dir, service)[start..start + HOURS_PER_WEEK]
    }

    /// Per-subscriber hourly series of a head service within one usage
    /// class (Figure 11's unit).
    pub fn per_user_class_series(
        &self,
        dir: Direction,
        service: usize,
        class: UsageClass,
    ) -> Vec<f64> {
        let users = self.communes.class_users[class.index()];
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
        let mut all: Vec<f64> = (0..self.n_services)
            .map(|s| self.national_weekly(dir, s))
            .collect();
        all.extend_from_slice(self.tail_weekly(dir));
        all.sort_by(|a, b| b.total_cmp(a));
        all
    }

    /// Total classified volume in a direction (head + tail), MB.
    pub fn total_classified(&self, dir: Direction) -> f64 {
        let head: f64 = (0..self.n_services)
            .map(|s| self.national_weekly(dir, s))
            .sum();
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
        &self.communes.users
    }

    /// Streams the dataset's sectioned CSV format to any writer, one
    /// logical row at a time — a dataset export never materializes the
    /// full text in memory.
    ///
    /// Format: a header line, then one line per logical row
    /// (`section,key...,values...`). Round-trips exactly through
    /// [`TrafficDataset::from_csv`]
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
            xs.iter()
                .map(|v| format!("{v:e}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        writeln!(writer, "commune_users,{}", join(&self.communes.users))?;
        let classes: Vec<String> = self.communes.class.iter().map(|c| c.to_string()).collect();
        writeln!(writer, "commune_class,{}", classes.join(","))?;
        for dir in Direction::BOTH {
            let d = dir.index();
            for s in 0..self.n_services {
                writeln!(
                    writer,
                    "national_hourly,{d},{s},{}",
                    join(self.national_series(dir, s))
                )?;
                writeln!(
                    writer,
                    "commune_weekly,{d},{s},{}",
                    join(self.commune_vector(dir, s))
                )?;
                for class in UsageClass::ALL {
                    writeln!(
                        writer,
                        "class_hourly,{d},{s},{},{}",
                        class.index(),
                        join(self.class_series(dir, s, class))
                    )?;
                }
            }
            writeln!(writer, "tail_weekly,{d},{}", join(self.tail_weekly(dir)))?;
        }
        Ok(())
    }

    /// Serializes the dataset to its sectioned CSV text format —
    /// [`TrafficDataset::write_to`] into an in-memory buffer, kept for
    /// callers that want the text itself.
    pub fn to_csv(&self) -> String {
        let mut out = Vec::new();
        self.write_to(&mut out)
            .expect("writing a dataset to memory cannot fail");
        String::from_utf8(out).expect("dataset CSV is ASCII")
    }

    /// Reads a dataset incrementally from any reader — rows are parsed
    /// and applied one line at a time, so loading a multi-gigabyte export
    /// never holds more than one line of text.
    ///
    /// Errors carry the 1-based line number of the offending row (I/O
    /// failures report the line where reading stopped), so a caller (or a
    /// CLI user) can locate the problem in the file.
    pub(crate) fn read_from<R: std::io::BufRead>(
        mut reader: R,
    ) -> Result<TrafficDataset, DatasetError> {
        let mut line = String::new();
        let read_line = |reader: &mut R, line: &mut String, line_no: usize| {
            line.clear();
            let n = reader
                .read_line(line)
                .map_err(|e| DatasetError::at(line_no + 1, format!("i/o error: {e}")))?;
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
                x.parse()
                    .map_err(|e| DatasetError::at(1, format!("bad dimension: {e}")))
            })
            .collect::<Result<_, _>>()?;
        if dims.len() != 3 {
            return Err(DatasetError::at(1, "header needs 3 dimensions"));
        }
        let (n_services, n_communes, n_tail) = (dims[0], dims[1], dims[2]);

        let mut users = vec![0.0; n_communes];
        let mut class = vec![0u8; n_communes];
        let mut ds = TrafficDataset {
            n_services,
            n_communes,
            // Any block of a file may be set, or hold a literal `-0`.
            blocks: vec![Block::Owned(vec![0.0; block_len(n_communes)]); n_services],
            tail_weekly: vec![0.0; 2 * n_tail],
            tail_written: true,
            unclassified: [0.0; 2],
            // Replaced once the per-commune rows have been read.
            communes: Arc::new(Communes::new(Vec::new(), Vec::new())),
            additive: false,
        };

        let mut line_no = 1usize;
        while read_line(&mut reader, &mut line, line_no)? {
            line_no += 1;
            ds.apply_csv_line(&line, &mut users, &mut class)
                .map_err(|m| DatasetError::at(line_no, m))?;
        }
        if class.iter().any(|&c| c as usize >= 4) {
            return Err(DatasetError::at(0, "commune class out of range"));
        }
        // The derived class_users table is recomputed from the two rows.
        ds.communes = Arc::new(Communes::new(users, class));
        Ok(ds)
    }

    /// Parses a dataset previously written by [`TrafficDataset::to_csv`]
    /// or [`TrafficDataset::write_to`].
    pub fn from_csv(text: &str) -> Result<TrafficDataset, DatasetError> {
        TrafficDataset::read_from(text.as_bytes())
    }

    /// Applies one body row of the CSV format to `self`, or to the
    /// per-commune rows being read.
    fn apply_csv_line(
        &mut self,
        line: &str,
        users: &mut Vec<f64>,
        class: &mut Vec<u8>,
    ) -> Result<(), String> {
        let (n_services, n_communes, n_tail) = (self.n_services, self.n_communes, self.n_tail());
        let parse_floats = |s: &str| -> Result<Vec<f64>, String> {
            s.split(',')
                .map(|x| {
                    x.parse::<f64>()
                        .map_err(|e| format!("bad float {x:?}: {e}"))
                })
                .collect()
        };
        // The `dir,service,` key of a per-service row, and the rest.
        fn service_row(rest: &str) -> Result<(usize, usize, &str), String> {
            let (d, rest) = rest.split_once(',').ok_or("missing dir")?;
            let (s, rest) = rest.split_once(',').ok_or("missing service")?;
            let d: usize = d.parse().map_err(|_| "bad dir")?;
            let s: usize = s.parse().map_err(|_| "bad service")?;
            Ok((d, s, rest))
        }
        let half = COMMUNE_OFFSET + n_communes;
        let (section, rest) = line.split_once(',').ok_or("malformed line")?;
        // Per-service rows: where they start in the service's block.
        let (service, start, values) = match section {
            "unclassified" => {
                let v = parse_floats(rest)?;
                if v.len() != 2 {
                    return Err("unclassified needs 2 values".into());
                }
                self.unclassified = [v[0], v[1]];
                return Ok(());
            }
            "commune_users" => {
                let v = parse_floats(rest)?;
                if v.len() != n_communes {
                    return Err("commune_users length mismatch".into());
                }
                *users = v;
                return Ok(());
            }
            "commune_class" => {
                let v: Vec<u8> = rest
                    .split(',')
                    .map(|x| x.parse().map_err(|e| format!("bad class: {e}")))
                    .collect::<Result<_, _>>()?;
                if v.len() != n_communes {
                    return Err("commune_class length mismatch".into());
                }
                *class = v;
                return Ok(());
            }
            "tail_weekly" => {
                let (d, values) = rest.split_once(',').ok_or("missing dir")?;
                let d: usize = d.parse().map_err(|_| "bad dir")?;
                let v = parse_floats(values)?;
                if d >= 2 || v.len() != n_tail {
                    return Err("tail_weekly row out of range".into());
                }
                self.tail_weekly[d * n_tail..(d + 1) * n_tail].copy_from_slice(&v);
                return Ok(());
            }
            "national_hourly" => {
                let (d, s, values) = service_row(rest)?;
                let v = parse_floats(values)?;
                if d >= 2 || s >= n_services || v.len() != HOURS_PER_WEEK {
                    return Err("national_hourly row out of range".into());
                }
                (s, d * half, v)
            }
            "commune_weekly" => {
                let (d, s, values) = service_row(rest)?;
                let v = parse_floats(values)?;
                if d >= 2 || s >= n_services || v.len() != n_communes {
                    return Err("commune_weekly row out of range".into());
                }
                (s, d * half + COMMUNE_OFFSET, v)
            }
            "class_hourly" => {
                let (d, s, rest) = service_row(rest)?;
                let (class, values) = rest.split_once(',').ok_or("missing class")?;
                let class: usize = class.parse().map_err(|_| "bad class")?;
                let v = parse_floats(values)?;
                if d >= 2 || s >= n_services || class >= 4 || v.len() != HOURS_PER_WEEK {
                    return Err("class_hourly row out of range".into());
                }
                (s, d * half + CLASS_OFFSET + class * HOURS_PER_WEEK, v)
            }
            other => return Err(format!("unknown section {other:?}")),
        };
        let block = owned(&mut self.blocks[service], block_len(n_communes));
        block[start..start + values.len()].copy_from_slice(&values);
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
    /// Row-sparse: only the head-service blocks that `other` has written
    /// are added, so the cost is O(blocks `other` wrote), one add of
    /// 2 × (5 × 168 + communes) cells per block (≈ 0.6 MB at the france
    /// geography): a streaming-fold shard writes a single head service,
    /// and merging its partial costs one block instead of all of them.
    /// The tail and unclassified cells are added densely. This is the add
    /// path: it never shares a block, since a CSV-read dataset may hold a
    /// literal `-0`. To merge fold partials without copying their
    /// blocks, use [`merged`](Self::merged).
    ///
    /// The result is bit-identical to adding every cell. A block `other`
    /// never wrote holds only `+0.0`, and `x + 0.0 == x` bit for bit
    /// unless `x` is `-0.0`. No dataset built by the adders or by merges
    /// holds a `-0.0`: every cell starts at `+0.0`, and adding any
    /// volume, `-0.0` included, to `+0.0` never yields `-0.0`. Only a
    /// hand-written CSV with a literal `-0` can carry one into `self`,
    /// and such a cell keeps its sign where a dense add would flip it to
    /// `+0.0`; a dataset read from CSV counts every block as written, so
    /// as `other` it always merges densely.
    pub fn merge(&mut self, other: &TrafficDataset) -> Result<(), DatasetError> {
        self.check_shape(other)?;
        for service in 0..self.n_services {
            self.add_service_rows(other, service);
        }
        for (a, b) in self.tail_weekly.iter_mut().zip(&other.tail_weekly) {
            *a += b;
        }
        self.tail_written |= other.tail_written;
        self.unclassified[0] += other.unclassified[0];
        self.unclassified[1] += other.unclassified[1];
        Ok(())
    }

    /// Checks that `other` has this dataset's shape (head services,
    /// communes, tail length), as [`merge`](Self::merge) and
    /// [`merged`](Self::merged) require.
    fn check_shape(&self, other: &TrafficDataset) -> Result<(), DatasetError> {
        let mismatch = if self.n_services != other.n_services {
            format!("{} head services vs {}", self.n_services, other.n_services)
        } else if self.n_communes != other.n_communes {
            format!("{} communes vs {}", self.n_communes, other.n_communes)
        } else if self.tail_weekly.len() != other.tail_weekly.len() {
            format!("{} tail services vs {}", self.n_tail(), other.n_tail())
        } else {
            return Ok(());
        };
        Err(DatasetError::at(0, format!("cannot merge: {mismatch}")))
    }

    /// Whether any of head service `service`'s rows in the three
    /// per-service tables may hold a value other than `+0.0`.
    fn service_written(&self, service: usize) -> bool {
        !matches!(self.blocks[service], Block::Zero)
    }

    /// Merges `parts` in order into a fresh dataset shaped like this one
    /// (whose own cells are not read): bit for bit what
    /// [`merge`](Self::merge) of each part, in order, into an empty
    /// dataset makes.
    ///
    /// A head-service block with one writer whose cells were all built by
    /// additions from `+0.0` (every fold partial; not a dataset read from
    /// CSV) is shared, not copied: the writer's block moves behind a
    /// reference count that both datasets hold, and whichever writes to
    /// it next copies it first. That is exact because such a cell `x`
    /// never holds `-0.0` or a signalling NaN, so `+0.0 + x` has the bits
    /// of `x`. Any other written block is built as `+0.0` plus each
    /// writer's rows in order, and so are the tail table (skipping parts
    /// that never wrote one: their `+0.0`s change no bit) and the
    /// unclassified volumes.
    ///
    /// A shape mismatch between this dataset and a part is reported
    /// before any block is shared.
    pub fn merged<'a>(
        &self,
        parts: impl IntoIterator<Item = &'a mut TrafficDataset>,
    ) -> Result<TrafficDataset, DatasetError> {
        let mut parts: Vec<&mut TrafficDataset> = parts.into_iter().collect();
        for part in &parts {
            self.check_shape(part)?;
        }
        let mut out = TrafficDataset {
            n_services: self.n_services,
            n_communes: self.n_communes,
            blocks: vec![Block::Zero; self.n_services],
            tail_weekly: vec![0.0; self.tail_weekly.len()],
            tail_written: false,
            unclassified: [0.0; 2],
            communes: Arc::clone(&self.communes),
            additive: true,
        };
        for service in 0..self.n_services {
            let mut writers = parts.iter_mut().filter(|p| p.service_written(service));
            match (writers.next(), writers.next()) {
                (Some(sole), None) if sole.additive => {
                    out.blocks[service] = Block::Shared(sole.share_block(service));
                }
                (first, second) => {
                    for part in first.into_iter().chain(second).chain(writers) {
                        out.add_service_rows(part, service);
                    }
                }
            }
        }
        for part in &parts {
            if part.tail_written {
                for (a, b) in out.tail_weekly.iter_mut().zip(&part.tail_weekly) {
                    *a += b;
                }
                out.tail_written = true;
            }
            out.unclassified[0] += part.unclassified[0];
            out.unclassified[1] += part.unclassified[1];
        }
        Ok(out)
    }

    /// Head service `service`'s block behind a reference count, moving an
    /// owned block there first. The block must have been written.
    fn share_block(&mut self, service: usize) -> Arc<Vec<f64>> {
        let block = &mut self.blocks[service];
        if let Block::Owned(rows) = block {
            *block = Block::Shared(Arc::new(std::mem::take(rows)));
        }
        match block {
            Block::Shared(rows) => rows.clone(),
            _ => unreachable!("an unwritten block is never shared"),
        }
    }

    /// Adds `other`'s rows of head service `service` in the three
    /// per-service tables into this dataset's, cell by cell — a no-op
    /// when `other` never wrote them. The shapes must match (see
    /// [`check_shape`](Self::check_shape)).
    fn add_service_rows(&mut self, other: &TrafficDataset, service: usize) {
        if !other.service_written(service) {
            return;
        }
        let len = block_len(self.n_communes);
        for (a, &b) in owned(&mut self.blocks[service], len)
            .iter_mut()
            .zip(other.block(service))
        {
            *a += b;
        }
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
        DatasetError {
            line,
            message: message.into(),
        }
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
            b.service_rows_mut(s).add_both(commune.index(), h, dl, ul);
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
            ds.add(
                Direction::Down,
                0,
                c.id,
                (i * 7) % HOURS_PER_WEEK,
                0.3 + i as f64 * 0.17,
            );
        }
        // The full window is the weekly total, bit for bit (same
        // left-to-right additions).
        let full: f64 = ds
            .national_series_window(Direction::Down, 0, 0, HOURS_PER_WEEK)
            .iter()
            .sum();
        assert_eq!(full, ds.national_weekly(Direction::Down, 0));
        // Disjoint windows partition the series.
        let a = ds.national_series_window(Direction::Down, 0, 0, 50);
        let b = ds.national_series_window(Direction::Down, 0, 50, HOURS_PER_WEEK);
        assert_eq!(a.len() + b.len(), HOURS_PER_WEEK);
        assert_eq!(a[49], ds.national_series(Direction::Down, 0)[49]);
        // Out-of-range bounds clamp instead of panicking.
        assert_eq!(
            ds.national_series_window(Direction::Down, 0, 0, 10_000)
                .len(),
            168
        );
        assert!(ds
            .national_series_window(Direction::Down, 0, 80, 20)
            .is_empty());
        assert!(ds
            .national_series_window(Direction::Down, 0, 168, 168)
            .is_empty());
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
        let text = empty
            .to_csv()
            .replacen("commune_weekly,0,1,0e0", "commune_weekly,0,1,-0", 1);
        let negative_zero = |ds: &TrafficDataset| ds.commune_vector(Direction::Down, 1)[0];
        let mut a = TrafficDataset::from_csv(&text).expect("parse");
        assert_eq!(negative_zero(&a).to_bits(), (-0.0f64).to_bits());

        let mut partial = TrafficDataset::new(&country, 3, 10, 0.5);
        partial.service_rows_mut(2).add_both(0, 0, 1.5, 0.5);
        a.merge(&partial).expect("same shape");
        assert_eq!(negative_zero(&a).to_bits(), (-0.0f64).to_bits());

        // A dataset read from CSV counts every row as written.
        a.merge(&TrafficDataset::from_csv(&empty.to_csv()).unwrap())
            .expect("same shape");
        assert_eq!(negative_zero(&a).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn a_shared_block_is_unchanged_by_later_writes_to_the_original() {
        let (country, mut partial) = dataset();
        let commune = country.communes()[4].id;
        partial.add(Direction::Down, 1, commune, 7, 2.5);
        let shape = TrafficDataset::new(&country, 3, 10, 0.5);
        let merged = shape.merged([&mut partial]).expect("same shape");
        assert!(
            matches!(merged.blocks[1], Block::Shared(_)),
            "a sole fold writer is shared"
        );
        let before = merged.to_csv();

        partial.add(Direction::Down, 1, commune, 7, 1.0);
        partial.service_rows_mut(1).add_both(0, 0, 3.0, 1.0);
        assert_eq!(
            merged.to_csv(),
            before,
            "a write to the original reached its shared copy"
        );
        assert_eq!(partial.national_series(Direction::Down, 1)[7], 3.5);
        assert_eq!(merged.national_series(Direction::Down, 1)[7], 2.5);

        // The other way round: the merged dataset's writes stay its own.
        let mut merged = shape.merged([&mut partial]).expect("same shape");
        merged.add(Direction::Up, 1, commune, 9, 4.0);
        assert_eq!(partial.national_series(Direction::Up, 1)[9], 0.0);
        assert_eq!(merged.national_series(Direction::Up, 1)[9], 4.0);
    }

    #[test]
    fn writing_a_block_nobody_else_holds_does_not_copy_it() {
        let (country, mut partial) = dataset();
        partial.service_rows_mut(2).add_both(3, 4, 1.0, 0.5);
        let at = partial.block(2).as_ptr();
        partial.service_rows_mut(2).add_both(5, 6, 1.0, 0.5);
        assert_eq!(partial.block(2).as_ptr(), at, "an owned block was copied");

        // Sharing moves the block behind a reference count without a copy,
        // and once the other holder is gone, writing takes it back as is.
        let shape = TrafficDataset::new(&country, 3, 10, 0.5);
        let merged = shape.merged([&mut partial]).expect("same shape");
        assert_eq!(merged.block(2).as_ptr(), at, "sharing copied the block");
        drop(merged);
        partial.service_rows_mut(2).add_both(7, 8, 1.0, 0.5);
        assert_eq!(
            partial.block(2).as_ptr(),
            at,
            "the last holder's write copied the block"
        );

        // While another dataset holds it, the writer copies it once.
        let merged = shape.merged([&mut partial]).expect("same shape");
        partial.service_rows_mut(2).add_both(9, 10, 1.0, 0.5);
        let copy = partial.block(2).as_ptr();
        assert_ne!(copy, at);
        assert_eq!(merged.block(2).as_ptr(), at);
        partial.service_rows_mut(2).add_both(11, 12, 1.0, 0.5);
        assert_eq!(partial.block(2).as_ptr(), copy, "the copy was copied again");
    }

    #[test]
    fn a_csv_read_writer_is_added_not_shared() {
        // A literal `-0` read from CSV must come out of `merged` as the
        // `+0.0` an add merge makes, so such a writer is never shared.
        let (country, empty) = dataset();
        let text = empty
            .to_csv()
            .replacen("commune_weekly,0,1,0e0", "commune_weekly,0,1,-0", 1);
        let mut read = TrafficDataset::from_csv(&text).expect("parse");
        let merged = TrafficDataset::new(&country, 3, 10, 0.5)
            .merged([&mut read])
            .expect("same shape");
        assert!(matches!(merged.blocks[1], Block::Owned(_)));
        assert_eq!(
            merged.commune_vector(Direction::Down, 1)[0].to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn reader_and_writer_apis_match_the_string_forms() {
        let (country, mut ds) = dataset();
        for (i, c) in country.communes().iter().enumerate().take(25) {
            ds.add(
                Direction::Down,
                i % 3,
                c.id,
                i % HOURS_PER_WEEK,
                1.0 + i as f64,
            );
        }
        let mut buf = Vec::new();
        ds.write_to(&mut buf).expect("write to memory");
        let text = ds.to_csv();
        assert_eq!(String::from_utf8(buf).unwrap(), text);

        let via_reader = TrafficDataset::read_from(text.as_bytes()).expect("read");
        assert_eq!(via_reader.to_csv(), text);
        // \r\n line endings parse identically.
        let crlf = text.replace('\n', "\r\n");
        assert_eq!(
            TrafficDataset::read_from(crlf.as_bytes()).unwrap().to_csv(),
            text
        );
        // Errors still carry the 1-based line number.
        let mut broken = text.clone();
        broken.push_str("bogus,1,2\n");
        let err = TrafficDataset::read_from(broken.as_bytes()).unwrap_err();
        assert_eq!(err.line, text.lines().count() + 1);
    }

    #[test]
    fn class_users_sum_to_total_subscribers() {
        let (country, ds) = dataset();
        let total: f64 = ds.communes.class_users.iter().sum();
        let want = country.total_population() as f64 * 0.5;
        assert!((total - want).abs() < 1.0);
    }

    #[test]
    fn csv_round_trip_is_exact() {
        let (country, mut ds) = dataset();
        for (i, c) in country.communes().iter().enumerate().take(40) {
            ds.add(
                Direction::Down,
                i % 3,
                c.id,
                (i * 7) % HOURS_PER_WEEK,
                0.1 + i as f64,
            );
            ds.add(
                Direction::Up,
                (i + 1) % 3,
                c.id,
                (i * 5) % HOURS_PER_WEEK,
                0.01 * i as f64,
            );
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
        assert_eq!(back.communes.class_users, ds.communes.class_users);
        assert_eq!(back.commune_users(), ds.commune_users());
    }

    #[test]
    fn csv_parser_rejects_malformed_input() {
        assert!(TrafficDataset::from_csv("").is_err());
        assert!(TrafficDataset::from_csv("not a dataset").is_err());
        assert!(TrafficDataset::from_csv("#mobilenet-dataset v1,2,3").is_err());
        assert!(TrafficDataset::from_csv("#mobilenet-dataset v1,1,1,1\nbogus,1,2").is_err());
        assert!(
            TrafficDataset::from_csv("#mobilenet-dataset v1,1,2,0\ncommune_users,1.0").is_err()
        );
        assert!(
            TrafficDataset::from_csv("#mobilenet-dataset v1,1,1,0\nunclassified,1.0,abc").is_err()
        );
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
                        ds.service_rows_mut(s)
                            .add_both(commune, hour, volume(rng), volume(rng));
                    } else {
                        let dir = if rng.gen_bool(0.5) {
                            Direction::Down
                        } else {
                            Direction::Up
                        };
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
            let len = block_len(into.n_communes);
            for s in 0..SERVICES {
                for (x, y) in owned(&mut into.blocks[s], len)
                    .iter_mut()
                    .zip(other.block(s))
                {
                    *x += y;
                }
            }
            for (x, y) in into.tail_weekly.iter_mut().zip(&other.tail_weekly) {
                *x += y;
            }
            into.unclassified[0] += other.unclassified[0];
            into.unclassified[1] += other.unclassified[1];
        }

        /// Every table cell, as bits.
        fn bits(ds: &TrafficDataset) -> Vec<u64> {
            (0..ds.n_services)
                .flat_map(|s| ds.block(s).iter())
                .chain(&ds.tail_weekly)
                .chain(&ds.unclassified)
                .map(|v| v.to_bits())
                .collect()
        }

        /// Per head service: whether its rows are written.
        fn written(ds: &TrafficDataset) -> Vec<bool> {
            (0..ds.n_services).map(|s| ds.service_written(s)).collect()
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
                    let expected: Vec<bool> =
                        written(sparse).iter().zip(written(&other)).map(|(a, b)| a | b).collect();
                    sparse.merge(&other).expect("same shape");
                    dense_merge(oracle, &other_oracle);
                    prop_assert!(bits(sparse) == bits(oracle), "sparse merge diverged");
                    prop_assert_eq!(written(sparse), expected);
                }

                // A shape mismatch errs and leaves the target, mask included,
                // untouched.
                let (mut target, _) = pool.pop().unwrap();
                let (before, mask) = (bits(&target), written(&target));
                for (services, tail) in [(SERVICES + 1, TAIL), (SERVICES, TAIL + 1)] {
                    let mut other = TrafficDataset::new(country(), services, tail, 0.5);
                    other.service_rows_mut(0).add_both(0, 0, 1.0, 1.0);
                    prop_assert!(target.merge(&other).is_err());
                    prop_assert!(bits(&target) == before);
                    prop_assert_eq!(written(&target), mask.clone());
                }
            }

            #[test]
            fn shared_merges_match_add_merges_bitwise(seed in prop::num::u64::ANY) {
                // The engine's merge of fold partials into a fresh
                // dataset, sharing sole-writer blocks, against the add
                // path; the partials keep their cells, and a later write
                // to a partial leaves the merged dataset as it was.
                let mut rng = StdRng::seed_from_u64(seed);
                let mut partials: Vec<TrafficDataset> =
                    (0..rng.gen_range(1usize..5)).map(|_| random_dataset(&mut rng)).collect();
                let before: Vec<Vec<u64>> = partials.iter().map(bits).collect();
                let shape = TrafficDataset::new(country(), SERVICES, TAIL, 0.5);
                let mut reference = shape.clone();
                for p in &partials {
                    reference.merge(p).expect("same shape");
                }
                let merged = shape.merged(partials.iter_mut()).expect("same shape");
                prop_assert!(bits(&merged) == bits(&reference), "shared merge diverged");
                prop_assert_eq!(written(&merged), written(&reference));
                let after: Vec<Vec<u64>> = partials.iter().map(bits).collect();
                prop_assert!(after == before, "merging changed a partial");
                for p in &mut partials {
                    for s in 0..SERVICES {
                        p.service_rows_mut(s).add_both(0, 0, 1.0, 1.0);
                    }
                }
                prop_assert!(bits(&merged) == bits(&reference), "a partial's write reached the merge");

                // A shape mismatch errs before any block is shared.
                let mut other = TrafficDataset::new(country(), SERVICES + 1, TAIL, 0.5);
                other.service_rows_mut(0).add_both(0, 0, 1.0, 1.0);
                let mut parts: Vec<&mut TrafficDataset> = partials.iter_mut().collect();
                parts.push(&mut other);
                prop_assert!(shape.merged(parts).is_err());
                prop_assert!(partials.iter().all(|p| (0..SERVICES)
                    .all(|s| !matches!(p.blocks[s], Block::Shared(_)))));
            }
        }
    }
}
