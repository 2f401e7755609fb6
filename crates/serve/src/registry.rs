//! The multi-study registry: named [`LiveState`]s served side by side.
//!
//! A [`StudyRegistry`] owns one [`StudyEntry`] per registered study —
//! its live state, its delta hub, its ingestion thread — plus the
//! server-wide stop flag. Studies register at startup (CLI
//! `serve --study`) or at runtime via the admin `START` verb; every
//! registration spawns that study's **publisher thread**
//! (`subscribe::publish_loop`), so subscriptions work the
//! moment the study exists, even before (or after) its ingestion runs.
//!
//! Connections select a study per session (`USE`); when exactly one
//! study is registered, queries auto-select it — which is what keeps
//! v1 single-study clients working unchanged.

use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use mobilenet_core::{Scale, StudyConfig};

use crate::live::LiveState;
use crate::subscribe::{publish_loop, DeltaHub};

/// One registered study: a named live state plus its delta hub and
/// ingestion driver.
pub struct StudyEntry {
    name: String,
    scale: String,
    weeks: usize,
    state: Arc<LiveState>,
    hub: Arc<DeltaHub>,
    /// The ingestion thread, once started (idempotence guard).
    ingest: Mutex<Option<JoinHandle<()>>>,
}

impl StudyEntry {
    /// The registry name of this study.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scale label this study was registered under.
    pub fn scale(&self) -> &str {
        &self.scale
    }

    /// Scheduled ring weeks of this study's run.
    pub fn weeks(&self) -> usize {
        self.weeks
    }

    /// The study's live state.
    pub fn state(&self) -> &Arc<LiveState> {
        &self.state
    }

    /// The study's delta hub (subscription fan-out point).
    pub fn hub(&self) -> &Arc<DeltaHub> {
        &self.hub
    }

    /// A point-in-time description of this study (the `LIST` body).
    pub fn info(&self) -> StudyInfo {
        StudyInfo {
            name: self.name.clone(),
            scale: self.scale.clone(),
            seed: self.state.seed(),
            weeks: self.weeks,
            week: self.state.week(),
            watermark_hour: self.state.watermark_hour(),
            complete: self.state.complete(),
            version: self.state.version(),
        }
    }
}

impl std::fmt::Debug for StudyEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudyEntry")
            .field("name", &self.name)
            .field("scale", &self.scale)
            .field("weeks", &self.weeks)
            .finish_non_exhaustive()
    }
}

/// A point-in-time description of one registered study — what `LIST`
/// reports, one study per body line.
///
/// `#[non_exhaustive]`: new fields are non-breaking; construct via
/// [`StudyEntry::info`] or [`StudyInfo::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct StudyInfo {
    /// Registry name.
    pub name: String,
    /// Scale label (`small`/`medium`/`france`/`national`).
    pub scale: String,
    /// Base demand/capture seed.
    pub seed: u64,
    /// Scheduled ring weeks.
    pub weeks: usize,
    /// Ring week currently folding.
    pub week: usize,
    /// Observed frontier within the current week, hours.
    pub watermark_hour: usize,
    /// Whether the final week has fully closed.
    pub complete: bool,
    /// Current state version.
    pub version: u64,
}

impl StudyInfo {
    /// Renders the `LIST` body line of this study.
    pub fn protocol_line(&self) -> String {
        format!(
            "{} scale {} seed {} weeks {} week {} hour {} complete {} version {}",
            self.name,
            self.scale,
            self.seed,
            self.weeks,
            self.week,
            self.watermark_hour,
            self.complete,
            self.version
        )
    }

    /// Parses a `LIST` body line (inverse of
    /// [`protocol_line`](StudyInfo::protocol_line)).
    pub fn parse(line: &str) -> Result<StudyInfo, String> {
        let mut tokens = line.split_whitespace();
        let name = tokens.next().ok_or_else(|| "empty study line".to_string())?.to_string();
        let mut field = |key: &str| -> Result<&str, String> {
            match (tokens.next(), tokens.next()) {
                (Some(k), Some(v)) if k == key => Ok(v),
                _ => Err(format!("bad study line: missing {key}")),
            }
        };
        let scale = field("scale")?.to_string();
        let seed = field("seed")?.parse().map_err(|_| "bad study line: seed".to_string())?;
        let weeks = field("weeks")?.parse().map_err(|_| "bad study line: weeks".to_string())?;
        let week = field("week")?.parse().map_err(|_| "bad study line: week".to_string())?;
        let watermark_hour =
            field("hour")?.parse().map_err(|_| "bad study line: hour".to_string())?;
        let complete =
            field("complete")?.parse().map_err(|_| "bad study line: complete".to_string())?;
        let version =
            field("version")?.parse().map_err(|_| "bad study line: version".to_string())?;
        Ok(StudyInfo { name, scale, seed, weeks, week, watermark_hour, complete, version })
    }
}

/// The set of studies one server instance serves, with the server-wide
/// stop flag and the per-study publisher threads.
#[derive(Debug, Default)]
pub struct StudyRegistry {
    entries: Mutex<Vec<Arc<StudyEntry>>>,
    stop: AtomicBool,
    publishers: Mutex<Vec<JoinHandle<()>>>,
}

impl StudyRegistry {
    /// An empty registry.
    pub fn new() -> Arc<StudyRegistry> {
        Arc::new(StudyRegistry::default())
    }

    /// Registers `state` under `name` and spawns its publisher thread.
    ///
    /// `scale` is a display label; `weeks` schedules the ring
    /// ([`LiveState::set_weeks`]). Names must be unique, non-empty and
    /// contain no whitespace (they are wire tokens).
    pub fn register_state(
        self: &Arc<Self>,
        name: &str,
        scale: &str,
        state: Arc<LiveState>,
        weeks: usize,
    ) -> Result<Arc<StudyEntry>, String> {
        if name.is_empty() || name.chars().any(char::is_whitespace) {
            return Err(format!("bad study name {name:?} (one non-empty wire token)"));
        }
        // Only reschedule when the registration actually changes the
        // week count: registering an externally-driven state (the v1
        // `spawn_server` path) must not fail just because its ingestion
        // already started.
        if weeks != state.weeks() {
            state.set_weeks(weeks)?;
        }
        let mut entries = self.entries.lock().expect("study registry poisoned");
        if entries.iter().any(|e| e.name == name) {
            return Err(format!("study {name} already registered"));
        }
        let entry = Arc::new(StudyEntry {
            name: name.to_string(),
            scale: scale.to_string(),
            weeks,
            state,
            hub: Arc::new(DeltaHub::new()),
            ingest: Mutex::new(None),
        });
        entries.push(entry.clone());
        drop(entries);
        // Initialize the lag counter at 0 so health checks can assert on
        // it even when no subscriber ever lagged.
        mobilenet_obs::add("serve.subscriber_lagged", 0);
        mobilenet_obs::gauge("serve.studies", self.len() as f64);
        let publisher = {
            let registry = self.clone();
            let entry = entry.clone();
            std::thread::spawn(move || {
                publish_loop(entry.state(), entry.hub(), &registry.stop);
            })
        };
        self.publishers.lock().expect("publisher list poisoned").push(publisher);
        Ok(entry)
    }

    /// Registers a study built from a [`StudyConfig`] (label `scale`).
    pub fn register_config(
        self: &Arc<Self>,
        name: &str,
        scale: &str,
        config: &StudyConfig,
        seed: u64,
        weeks: usize,
    ) -> Result<Arc<StudyEntry>, String> {
        let state = LiveState::from_config(config, seed)?;
        self.register_state(name, scale, state, weeks)
    }

    /// Registers a study from a scale token (`small`/`medium`/`france`/
    /// `national`) — the `START` verb's entry point.
    pub fn register_scale(
        self: &Arc<Self>,
        name: &str,
        scale: &str,
        seed: u64,
        weeks: usize,
    ) -> Result<Arc<StudyEntry>, String> {
        let scale = Scale::from_str(scale).map_err(|e| e.to_string())?;
        self.register_config(name, scale.name(), &scale.config(), seed, weeks)
    }

    /// Starts a registered study's ingestion on a dedicated thread
    /// (errors if it already started). Ingestion failures are counted on
    /// `serve.ingest_errors`; the study stays queryable at its last
    /// state.
    pub fn start(&self, entry: &Arc<StudyEntry>) -> Result<(), String> {
        let mut ingest = entry.ingest.lock().expect("ingest handle poisoned");
        if ingest.is_some() {
            return Err(format!("study {} already started", entry.name));
        }
        let state = entry.state.clone();
        let weeks = entry.weeks;
        *ingest = Some(std::thread::spawn(move || {
            for _ in 0..weeks {
                if let Err(e) = state.run_next_week() {
                    mobilenet_obs::add("serve.ingest_errors", 1);
                    eprintln!("mobilenet-serve: ingestion failed: {e}");
                    return;
                }
            }
        }));
        Ok(())
    }

    /// Looks a study up by name.
    pub fn get(&self, name: &str) -> Option<Arc<StudyEntry>> {
        self.entries
            .lock()
            .expect("study registry poisoned")
            .iter()
            .find(|e| e.name == name)
            .cloned()
    }

    /// The only registered study, when exactly one exists — the
    /// v1-compatible auto-selection.
    pub fn single(&self) -> Option<Arc<StudyEntry>> {
        let entries = self.entries.lock().expect("study registry poisoned");
        (entries.len() == 1).then(|| entries[0].clone())
    }

    /// Registered study count.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("study registry poisoned").len()
    }

    /// Whether no study is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time descriptions of every registered study, in
    /// registration order (the `LIST` body).
    pub fn list(&self) -> Vec<StudyInfo> {
        self.entries
            .lock()
            .expect("study registry poisoned")
            .iter()
            .map(|e| e.info())
            .collect()
    }

    /// Raises the server-wide stop flag and wakes everything that might
    /// be waiting on it: publisher loops (notifier waits) and streaming
    /// subscriber writers (queue waits).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for entry in self.entries.lock().expect("study registry poisoned").iter() {
            entry.state.notifier().notify();
            entry.hub.wake_all();
        }
    }

    /// Whether a stop was requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The stop flag, for loops that poll it directly.
    pub(crate) fn stop_flag(&self) -> &AtomicBool {
        &self.stop
    }

    /// Stops and joins every publisher and ingestion thread. An
    /// in-flight week runs to completion first (ingestion has no
    /// mid-week cancellation point); queries served elsewhere remain
    /// valid throughout.
    pub fn shutdown(&self) {
        self.request_stop();
        for publisher in self.publishers.lock().expect("publisher list poisoned").drain(..) {
            let _ = publisher.join();
        }
        let entries: Vec<Arc<StudyEntry>> =
            self.entries.lock().expect("study registry poisoned").clone();
        for entry in entries {
            let handle = entry.ingest.lock().expect("ingest handle poisoned").take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_info_round_trips_its_protocol_line() {
        let info = StudyInfo {
            name: "alpha".into(),
            scale: "small".into(),
            seed: 42,
            weeks: 3,
            week: 1,
            watermark_hour: 77,
            complete: false,
            version: 991,
        };
        let line = info.protocol_line();
        assert_eq!(StudyInfo::parse(&line).unwrap(), info);
        assert!(StudyInfo::parse("alpha scale small seed x").is_err());
    }

    #[test]
    fn registry_rejects_duplicate_and_malformed_names() {
        let registry = StudyRegistry::new();
        let config = StudyConfig::small();
        registry.register_config("alpha", "small", &config, 1, 1).expect("first registration");
        let err = registry.register_config("alpha", "small", &config, 2, 1).unwrap_err();
        assert!(err.contains("already registered"), "unexpected message {err:?}");
        assert!(registry.register_config("two words", "small", &config, 2, 1).is_err());
        assert!(registry.register_config("", "small", &config, 2, 1).is_err());
        assert!(registry.register_scale("beta", "galactic", 1, 1).is_err());
        assert_eq!(registry.len(), 1);
        assert!(registry.single().is_some());
        registry.shutdown();
    }
}
