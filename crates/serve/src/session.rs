//! Per-connection protocol sessions.
//!
//! A [`Session`] is what one TCP connection holds between requests: the
//! registry it speaks for and the study it has `USE`d. Session verbs
//! (`HELLO`/`LIST`/`USE`/`START`) and the study-resolution rule live
//! here so the server loop stays a pure framing/IO concern.
//!
//! **Study resolution:** a query or `SUBSCRIBE` needs a selected study.
//! If the connection never sent `USE` and exactly one study is
//! registered, that study is selected implicitly — the v1-compatible
//! path. With several studies registered, an explicit `USE` is
//! required.

use std::str::FromStr;
use std::sync::Arc;

use mobilenet_core::{Scale, DEFAULT_SEED};

use crate::query::PROTOCOL_VERSION;
use crate::registry::{StudyEntry, StudyRegistry};

/// The verbs this server understands, in grammar order — the `HELLO`
/// capability list.
pub(crate) const CAPABILITIES: &str = "HELLO LIST USE START SUBSCRIBE RANK R2 PEAKS SERIES \
                                         AUTOCORR WATERMARK STATS DATASET HEALTH QUIT SHUTDOWN";

/// One connection's protocol state: the registry plus the selected
/// study.
pub(crate) struct Session {
    registry: Arc<StudyRegistry>,
    study: Option<Arc<StudyEntry>>,
}

impl Session {
    /// A fresh session with no study selected.
    pub(crate) fn new(registry: Arc<StudyRegistry>) -> Session {
        Session {
            registry,
            study: None,
        }
    }

    /// `HELLO`: protocol version, capabilities and study count.
    pub(crate) fn hello(&self) -> Vec<String> {
        vec![
            PROTOCOL_VERSION.to_string(),
            format!("capabilities {CAPABILITIES}"),
            format!("studies {}", self.registry.len()),
        ]
    }

    /// `LIST`: one body line per registered study.
    pub(crate) fn list(&self) -> Vec<String> {
        self.registry
            .list()
            .iter()
            .map(|info| info.protocol_line())
            .collect()
    }

    /// `USE <study>`: selects a study for this connection; the body
    /// echoes its info line.
    pub(crate) fn use_study(&mut self, name: &str) -> Result<Vec<String>, String> {
        let entry = self
            .registry
            .get(name)
            .ok_or_else(|| format!("unknown study {name} (try LIST)"))?;
        let line = entry.info().protocol_line();
        self.study = Some(entry);
        Ok(vec![line])
    }

    /// `START <study> <scale> [seed [weeks]]`: registers a new study of
    /// a named scale (`small`/`medium`/`france`/`national`), starts its
    /// ingestion, and selects it for this connection.
    pub(crate) fn start(
        &mut self,
        name: &str,
        scale: &str,
        seed: Option<u64>,
        weeks: Option<usize>,
    ) -> Result<Vec<String>, String> {
        let scale = Scale::from_str(scale).map_err(|e| e.to_string())?;
        let entry = self.registry.register_config(
            name,
            scale.name(),
            &scale.config(),
            seed.unwrap_or(DEFAULT_SEED),
            weeks.unwrap_or(1),
        )?;
        self.registry.start(&entry)?;
        let line = entry.info().protocol_line();
        self.study = Some(entry);
        Ok(vec![line])
    }

    /// The study this connection operates on: the `USE`d one, or the
    /// implicit single registered study.
    pub(crate) fn current(&mut self) -> Result<Arc<StudyEntry>, String> {
        if let Some(entry) = &self.study {
            return Ok(entry.clone());
        }
        match self.registry.single() {
            Some(entry) => {
                self.study = Some(entry.clone());
                Ok(entry)
            }
            None if self.registry.is_empty() => Err("no study registered (START one)".to_string()),
            None => Err("several studies registered; USE one (try LIST)".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobilenet_core::StudyConfig;

    #[test]
    fn sessions_auto_select_a_single_study_and_demand_use_with_several() {
        let registry = StudyRegistry::new();
        let mut session = Session::new(registry.clone());
        assert_eq!(session.hello()[0], PROTOCOL_VERSION);
        let err = session.current().unwrap_err();
        assert!(err.contains("no study"), "unexpected message {err:?}");
        assert!(session.start("beta", "galactic", None, None).is_err());

        let config = StudyConfig::small();
        registry
            .register_config("alpha", "small", &config, 1, 1)
            .unwrap();
        assert_eq!(
            session.current().unwrap().info().name,
            "alpha",
            "single study auto-selects"
        );

        registry
            .register_config("beta", "small", &config, 2, 1)
            .unwrap();
        let mut fresh = Session::new(registry.clone());
        let err = fresh.current().unwrap_err();
        assert!(err.contains("USE one"), "unexpected message {err:?}");
        fresh.use_study("beta").unwrap();
        assert_eq!(fresh.current().unwrap().info().name, "beta");
        assert!(fresh.use_study("gamma").is_err());

        // The earlier session keeps its implicit selection.
        assert_eq!(session.current().unwrap().info().name, "alpha");
        assert_eq!(session.list().len(), 2);
        registry.shutdown();
    }
}
