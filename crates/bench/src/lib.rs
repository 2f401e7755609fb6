//! Shared pieces of the `figures`, `bench_baseline` and `ablations`
//! binaries: the fixed benchmark seed, and the `BENCH_*.json` baseline
//! parsing and regression checks behind `bench_baseline --compare`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mobilenet_core::DEFAULT_SEED;

/// The benchmark seed: fixed so numbers are comparable across runs
/// (the measurement week's start date, like [`DEFAULT_SEED`]).
pub const SEED: u64 = DEFAULT_SEED;

/// Per-stage timings read back from a `BENCH_*.json` baseline file.
#[derive(Debug, Clone, PartialEq)]
pub struct StageBaseline {
    /// Stage span name, e.g. `"kshape_sweep"`.
    pub stage: String,
    /// Single-thread wall-clock seconds.
    pub serial_s: f64,
    /// Multi-thread wall-clock seconds.
    pub parallel_s: f64,
}

/// A per-stage regression found by [`compare_stages`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Stage that regressed.
    pub stage: String,
    /// Baseline serial seconds.
    pub baseline_s: f64,
    /// Current serial seconds.
    pub current_s: f64,
}

/// Ingestion throughput read back from a `BENCH_*.json` baseline file.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestBaseline {
    /// Ingestion mode, e.g. `"streaming"` or `"replay_batched"`.
    pub mode: String,
    /// Records aggregated per second.
    pub records_per_s: f64,
}

/// An ingestion-throughput regression found by [`compare_ingest`].
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRegression {
    /// Ingestion mode that regressed.
    pub mode: String,
    /// Baseline records per second.
    pub baseline_rps: f64,
    /// Current records per second.
    pub current_rps: f64,
}

/// Relative slowdown (fraction of baseline) above which a stage counts as
/// regressed. 25% rides comfortably above shared-runner timing noise for
/// stages long enough to clear [`COMPARE_MIN_DELTA_S`].
pub const COMPARE_MAX_RELATIVE_SLOWDOWN: f64 = 0.25;

/// Absolute slowdown floor: stages that regress by less than this many
/// seconds never fail the gate, so microsecond-scale stages (where 25%
/// is pure jitter) cannot flake the build.
pub const COMPARE_MIN_DELTA_S: f64 = 0.05;

/// Extracts the first string value of `key` inside `obj`.
fn json_str(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let rest = &obj[obj.find(&pat)? + pat.len()..];
    let rest = &rest[rest.find(':')? + 1..];
    let rest = &rest[rest.find('"')? + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extracts the first numeric value of `key` inside `obj`.
fn json_num(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let rest = &obj[obj.find(&pat)? + pat.len()..];
    let rest = rest[rest.find(':')? + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the `"stages"` array out of a `BENCH_*.json` file written by
/// `bench_baseline`. Hand-rolled (the workspace has no serde): the writer
/// emits one `{ ... }` object per line inside the array, and this reader
/// accepts any formatting where stage objects don't nest.
pub fn parse_stage_baselines(json: &str) -> Result<Vec<StageBaseline>, String> {
    let start = json.find("\"stages\"").ok_or("no \"stages\" key in baseline file")?;
    let rest = &json[start..];
    let open = rest.find('[').ok_or("no stages array")?;
    let close = rest[open..].find(']').ok_or("unterminated stages array")? + open;
    let body = &rest[open + 1..close];

    let mut stages = Vec::new();
    let mut cursor = body;
    while let Some(obj_start) = cursor.find('{') {
        let obj_end = cursor[obj_start..]
            .find('}')
            .ok_or("unterminated stage object")?
            + obj_start;
        let obj = &cursor[obj_start..=obj_end];
        stages.push(StageBaseline {
            stage: json_str(obj, "stage").ok_or("stage object missing \"stage\"")?,
            serial_s: json_num(obj, "serial_s").ok_or("stage object missing \"serial_s\"")?,
            parallel_s: json_num(obj, "parallel_s")
                .ok_or("stage object missing \"parallel_s\"")?,
        });
        cursor = &cursor[obj_end + 1..];
    }
    if stages.is_empty() {
        return Err("stages array is empty".into());
    }
    Ok(stages)
}

/// Parses the `"ingest"` array out of a `BENCH_*.json` file written by
/// `bench_baseline` — one `{ "mode": …, "records_per_s": … }` object per
/// measured ingestion mode. Same hand-rolled grammar as
/// [`parse_stage_baselines`]. Files predating the ingest section parse as
/// an empty list (old baselines simply don't gate throughput).
pub fn parse_ingest_baselines(json: &str) -> Result<Vec<IngestBaseline>, String> {
    let Some(start) = json.find("\"ingest\"") else {
        return Ok(Vec::new());
    };
    let rest = &json[start..];
    let open = rest.find('[').ok_or("no ingest array")?;
    let close = rest[open..].find(']').ok_or("unterminated ingest array")? + open;
    let body = &rest[open + 1..close];

    let mut modes = Vec::new();
    let mut cursor = body;
    while let Some(obj_start) = cursor.find('{') {
        let obj_end = cursor[obj_start..]
            .find('}')
            .ok_or("unterminated ingest object")?
            + obj_start;
        let obj = &cursor[obj_start..=obj_end];
        modes.push(IngestBaseline {
            mode: json_str(obj, "mode").ok_or("ingest object missing \"mode\"")?,
            records_per_s: json_num(obj, "records_per_s")
                .ok_or("ingest object missing \"records_per_s\"")?,
        });
        cursor = &cursor[obj_end + 1..];
    }
    Ok(modes)
}

/// Compares current ingestion throughput against a baseline and returns
/// the modes that regressed: throughput down by more than
/// [`COMPARE_MAX_RELATIVE_SLOWDOWN`] relative to the baseline. Modes
/// present on only one side are ignored, like [`compare_stages`].
pub fn compare_ingest(
    baseline: &[IngestBaseline],
    current: &[(String, f64)],
) -> Vec<IngestRegression> {
    let mut regressions = Vec::new();
    for base in baseline {
        let Some((_, cur)) = current.iter().find(|(name, _)| *name == base.mode) else {
            continue;
        };
        if *cur < (1.0 - COMPARE_MAX_RELATIVE_SLOWDOWN) * base.records_per_s {
            regressions.push(IngestRegression {
                mode: base.mode.clone(),
                baseline_rps: base.records_per_s,
                current_rps: *cur,
            });
        }
    }
    regressions
}

/// Compares current per-stage serial timings against a baseline and
/// returns the stages that regressed: slower by more than
/// [`COMPARE_MAX_RELATIVE_SLOWDOWN`] relative AND [`COMPARE_MIN_DELTA_S`]
/// absolute. Stages present on only one side are ignored (renames and new
/// stages don't fail the gate; the baseline should be refreshed instead).
pub fn compare_stages(
    baseline: &[StageBaseline],
    current: &[(String, f64)],
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for base in baseline {
        let Some((_, cur)) = current.iter().find(|(name, _)| *name == base.stage) else {
            continue;
        };
        let delta = cur - base.serial_s;
        if delta > COMPARE_MIN_DELTA_S
            && delta > COMPARE_MAX_RELATIVE_SLOWDOWN * base.serial_s
        {
            regressions.push(Regression {
                stage: base.stage.clone(),
                baseline_s: base.serial_s,
                current_s: *cur,
            });
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "mobilenet-bench-baseline/v1",
  "stages": [
    { "stage": "generation", "serial_s": 0.3095, "parallel_s": 0.1536, "speedup": 2.01 },
    { "stage": "kshape_sweep", "serial_s": 2.1086, "parallel_s": 2.1826, "speedup": 0.97 },
    { "stage": "peaks", "serial_s": 0.0001, "parallel_s": 0.0005, "speedup": 0.24 }
  ],
  "total_serial_s": 3.7938
}"#;

    #[test]
    fn parses_stage_array() {
        let stages = parse_stage_baselines(SAMPLE).unwrap();
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[0].stage, "generation");
        assert_eq!(stages[0].serial_s, 0.3095);
        assert_eq!(stages[1].stage, "kshape_sweep");
        assert_eq!(stages[1].parallel_s, 2.1826);
    }

    #[test]
    fn rejects_files_without_stages() {
        assert!(parse_stage_baselines("{}").is_err());
        assert!(parse_stage_baselines("{\"stages\": []}").is_err());
    }

    #[test]
    fn flags_only_real_regressions() {
        let baseline = parse_stage_baselines(SAMPLE).unwrap();
        let current = vec![
            // 50% slower and > 50 ms: regression.
            ("generation".to_string(), 0.47),
            // Faster: fine.
            ("kshape_sweep".to_string(), 0.40),
            // 400% slower but sub-millisecond: ignored (absolute floor).
            ("peaks".to_string(), 0.0005),
        ];
        let regs = compare_stages(&baseline, &current);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].stage, "generation");
    }

    const INGEST_SAMPLE: &str = r#"{
  "schema": "mobilenet-bench-baseline/v1",
  "stages": [
    { "stage": "generation", "serial_s": 0.3095, "parallel_s": 0.1536, "speedup": 2.01 }
  ],
  "ingest": [
    { "mode": "streaming", "seconds": 1.2, "records": 3300000, "records_per_s": 2750000 },
    { "mode": "replay_batched", "seconds": 0.15, "records": 3300000, "records_per_s": 22000000 }
  ],
  "obs": { "counters": { "netsim.ingest.chunks": 5 } }
}"#;

    #[test]
    fn parses_ingest_array() {
        let modes = parse_ingest_baselines(INGEST_SAMPLE).unwrap();
        assert_eq!(modes.len(), 2);
        assert_eq!(modes[0].mode, "streaming");
        assert_eq!(modes[0].records_per_s, 2_750_000.0);
        assert_eq!(modes[1].mode, "replay_batched");
        assert_eq!(modes[1].records_per_s, 22_000_000.0);
        // Pre-ingest baselines gate nothing instead of erroring.
        assert_eq!(parse_ingest_baselines("{\"stages\": []}").unwrap(), Vec::new());
    }

    #[test]
    fn flags_only_real_throughput_drops() {
        let baseline = parse_ingest_baselines(INGEST_SAMPLE).unwrap();
        let current = vec![
            // 30% drop: regression.
            ("streaming".to_string(), 1_925_000.0),
            // 10% drop: within tolerance.
            ("replay_batched".to_string(), 19_800_000.0),
            // Unknown modes are ignored.
            ("replay_rows".to_string(), 1.0),
        ];
        let regs = compare_ingest(&baseline, &current);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].mode, "streaming");
        assert_eq!(regs[0].baseline_rps, 2_750_000.0);
        assert!(compare_ingest(&baseline, &[("streaming".to_string(), 2_800_000.0)]).is_empty());
    }

    #[test]
    fn within_tolerance_is_clean() {
        let baseline = parse_stage_baselines(SAMPLE).unwrap();
        let current = vec![
            ("generation".to_string(), 0.33),
            ("kshape_sweep".to_string(), 2.2),
            ("missing_stage_is_ignored".to_string(), 99.0),
        ];
        assert!(compare_stages(&baseline, &current).is_empty());
    }
}
