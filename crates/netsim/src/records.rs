//! What the probes emit: operator-side session records, both as row
//! structs ([`SessionRecord`]) and as columnar struct-of-arrays batches
//! ([`RecordBatch`]) for the streaming aggregation hot path.

use mobilenet_geo::CommuneId;

use crate::classifier::DpiClassifier;

/// The probed core-network interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interface {
    /// Gn — between SGSN and GGSN (3G packet-switched core).
    Gn,
    /// S5/S8 — between S-GW and P-GW (4G evolved packet core).
    S5S8,
}

/// A wire-level flow signature, the classifier's input. Synthetic stand-in
/// for the transport/application-layer features a real DPI engine sees
/// (SNI, ports, payload patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowSignature(pub u64);

/// One session as recorded by a probe: volumes, timing, interface, the
/// commune derived from the ULI fix, and the flow signature awaiting
/// classification. The true service/commune are **not** part of the
/// record — the pipeline must recover them, as the real apparatus does.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// Interface the record was captured on.
    pub interface: Interface,
    /// Hour-of-week of session establishment.
    pub start_hour: u16,
    /// Downlink volume, MB.
    pub dl_mb: f64,
    /// Uplink volume, MB.
    pub ul_mb: f64,
    /// Commune of the serving base station, per the ULI chain.
    pub commune: CommuneId,
    /// Flow signature for the DPI stage.
    pub signature: FlowSignature,
    /// Whether the ULI fix was stale (diagnostic, not available to the
    /// real operator; used only by collection statistics).
    pub stale_uli: bool,
}

/// A columnar batch of session records: the struct-of-arrays twin of
/// `Vec<SessionRecord>` that the streaming engine's
/// [`ChunkSink`](crate::ingest::ChunkSink) buffers and the aggregation
/// fold walks.
///
/// Every column holds one field of every record, in record order, so the
/// fold is a tight loop over dense `Vec<u16>`/`Vec<u32>`/`Vec<f64>`
/// columns instead of a pointer-chasing walk over 56-byte row structs.
/// The `codes` column is *derived* scratch: the fold dictionary-encodes every signature through the DPI table once per
/// batch ([`DpiClassifier::classify_batch`]), and the fold then branches
/// on small integer codes only. All columns retain their capacity across
/// [`RecordBatch::clear`], so a warmed sink re-fills batches without
/// touching the heap.
#[derive(Debug, Clone, Default)]
pub struct RecordBatch {
    interfaces: Vec<Interface>,
    start_hours: Vec<u16>,
    dl_mb: Vec<f64>,
    ul_mb: Vec<f64>,
    communes: Vec<u32>,
    signatures: Vec<u64>,
    stale_uli: Vec<bool>,
    codes: Vec<u32>,
}

impl RecordBatch {
    /// An empty batch with room for `capacity` records per column.
    pub fn with_capacity(capacity: usize) -> Self {
        RecordBatch {
            interfaces: Vec::with_capacity(capacity),
            start_hours: Vec::with_capacity(capacity),
            dl_mb: Vec::with_capacity(capacity),
            ul_mb: Vec::with_capacity(capacity),
            communes: Vec::with_capacity(capacity),
            signatures: Vec::with_capacity(capacity),
            stale_uli: Vec::with_capacity(capacity),
            codes: Vec::new(),
        }
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.start_hours.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.start_hours.is_empty()
    }

    /// Empties every column, retaining capacity.
    pub fn clear(&mut self) {
        self.interfaces.clear();
        self.start_hours.clear();
        self.dl_mb.clear();
        self.ul_mb.clear();
        self.communes.clear();
        self.signatures.clear();
        self.stale_uli.clear();
        self.codes.clear();
    }

    /// Appends one record, splitting its fields across the columns.
    #[inline]
    pub(crate) fn push(&mut self, r: &SessionRecord) {
        self.interfaces.push(r.interface);
        self.start_hours.push(r.start_hour);
        self.dl_mb.push(r.dl_mb);
        self.ul_mb.push(r.ul_mb);
        self.communes.push(r.commune.0);
        self.signatures.push(r.signature.0);
        self.stale_uli.push(r.stale_uli);
    }

    /// Appends one record given as loose fields, skipping the row struct
    /// entirely — for writers that already hold the column values.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn push_parts(
        &mut self,
        interface: Interface,
        start_hour: u16,
        dl_mb: f64,
        ul_mb: f64,
        commune: u32,
        signature: u64,
        stale_uli: bool,
    ) {
        self.interfaces.push(interface);
        self.start_hours.push(start_hour);
        self.dl_mb.push(dl_mb);
        self.ul_mb.push(ul_mb);
        self.communes.push(commune);
        self.signatures.push(signature);
        self.stale_uli.push(stale_uli);
    }

    /// Reassembles record `i` as a row struct (the legacy row-at-a-time
    /// fold path and tests use this; the batched fold never does).
    #[inline]
    pub fn row(&self, i: usize) -> SessionRecord {
        SessionRecord {
            interface: self.interfaces[i],
            start_hour: self.start_hours[i],
            dl_mb: self.dl_mb[i],
            ul_mb: self.ul_mb[i],
            commune: CommuneId(self.communes[i]),
            signature: FlowSignature(self.signatures[i]),
            stale_uli: self.stale_uli[i],
        }
    }

    /// Dictionary-encodes every signature into the `codes` column in one
    /// pass over the DPI table (see [`DpiClassifier::classify_batch`]).
    /// Reuses the column's capacity: allocation-free once warmed.
    pub(crate) fn resolve_codes(&mut self, classifier: &DpiClassifier) {
        classifier.classify_batch(&self.signatures, &mut self.codes);
    }

    /// The interface column.
    pub(crate) fn interfaces(&self) -> &[Interface] {
        &self.interfaces
    }

    /// The hour-of-week column.
    pub fn start_hours(&self) -> &[u16] {
        &self.start_hours
    }

    /// The downlink-volume column (MB).
    pub(crate) fn dl_mb(&self) -> &[f64] {
        &self.dl_mb
    }

    /// The uplink-volume column (MB).
    pub(crate) fn ul_mb(&self) -> &[f64] {
        &self.ul_mb
    }

    /// The commune-index column.
    pub(crate) fn communes(&self) -> &[u32] {
        &self.communes
    }

    /// The raw flow-signature column.
    pub fn signatures(&self) -> &[u64] {
        &self.signatures
    }

    /// The stale-ULI diagnostic column.
    pub(crate) fn stale_uli(&self) -> &[bool] {
        &self.stale_uli
    }

    /// The dictionary-encoded service codes of the last
    /// [`RecordBatch::resolve_codes`] call (empty until then).
    pub(crate) fn codes(&self) -> &[u32] {
        &self.codes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_are_comparable() {
        assert_eq!(FlowSignature(5), FlowSignature(5));
        assert_ne!(FlowSignature(5), FlowSignature(6));
    }

    #[test]
    fn batch_round_trips_rows_and_retains_capacity_across_clear() {
        let records: Vec<SessionRecord> = (0..10)
            .map(|i| SessionRecord {
                interface: if i % 2 == 0 {
                    Interface::Gn
                } else {
                    Interface::S5S8
                },
                start_hour: i as u16 * 7,
                dl_mb: i as f64 + 0.25,
                ul_mb: i as f64 * 0.5,
                commune: CommuneId(i as u32),
                signature: FlowSignature(0x1000 + i as u64),
                stale_uli: i % 3 == 0,
            })
            .collect();
        let mut batch = RecordBatch::with_capacity(4);
        assert!(batch.is_empty());
        for r in &records {
            batch.push(r);
        }
        assert_eq!(batch.len(), 10);
        let back: Vec<SessionRecord> = (0..batch.len()).map(|i| batch.row(i)).collect();
        assert_eq!(back, records);

        let cap = batch.signatures.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.signatures.capacity(), cap, "clear must keep capacity");
    }
}
