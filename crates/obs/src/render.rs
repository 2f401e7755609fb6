//! Snapshot rendering: machine-readable JSON and the human report.

use std::fmt::Write as _;

use crate::registry::Snapshot;

/// Schema identifier embedded in every JSON report.
pub(crate) const JSON_SCHEMA: &str = "mobilenet-obs/v1";

/// Minimal JSON string escaping (metric names are plain identifiers, but
/// the format must stay valid for any input).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `f64` → JSON number (JSON has no NaN/Inf; those degrade to null).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

impl Snapshot {
    /// Serializes the snapshot as a self-describing JSON object
    /// (`mobilenet-obs/v1`). Keys are sorted, so equal snapshots produce
    /// byte-identical documents.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{JSON_SCHEMA}\",");

        out.push_str("  \"spans\": {");
        let mut first = true;
        for (path, s) in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{ \"count\": {}, \"total_ms\": {}, \"mean_ms\": {}, \"max_ms\": {} }}",
                escape(path),
                s.count,
                number(s.total_ms()),
                number(s.mean_ms()),
                number(s.max_ns as f64 / 1e6)
            );
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });

        out.push_str("  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {v}", escape(name));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });

        out.push_str("  \"fcounters\": {");
        let mut first = true;
        for (name, v) in &self.fcounters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", escape(name), number(*v));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });

        out.push_str("  \"gauges\": {");
        let mut first = true;
        for (name, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", escape(name), number(*v));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });

        out.push_str("  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let edges: Vec<String> = h.edges.iter().map(|e| number(*e)).collect();
            let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
            let _ = write!(
                out,
                "\n    \"{}\": {{ \"edges\": [{}], \"counts\": [{}], \"count\": {}, \"sum\": {} }}",
                escape(name),
                edges.join(", "),
                counts.join(", "),
                h.count,
                number(h.sum)
            );
        }
        out.push_str(if first { "}\n" } else { "\n  }\n" });

        out.push_str("}\n");
        out
    }

    /// A human-readable report: the span tree followed by counters,
    /// gauges and histograms.
    ///
    /// A span is indented once per recorded ancestor and named by its
    /// path below the nearest one. A span whose parent path was never
    /// recorded (`par/worker_busy` is recorded with no `par` span) is
    /// therefore shown at its own depth in that tree, with the path that
    /// places it, not as a child of whichever span sorts before it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("observability: nothing recorded\n");
            return out;
        }
        if !self.spans.is_empty() {
            out.push_str("spans (wall clock):\n");
            for (path, s) in &self.spans {
                let ancestors: Vec<usize> = path
                    .match_indices('/')
                    .map(|(at, _)| at)
                    .filter(|&at| self.spans.contains_key(&path[..at]))
                    .collect();
                let depth = ancestors.len();
                let name = ancestors
                    .last()
                    .map_or(path.as_str(), |&at| &path[at + 1..]);
                let _ = writeln!(
                    out,
                    "  {:indent$}{name:<width$} {:>6}x {:>10.2} ms  (mean {:.2} ms, max {:.2} ms)",
                    "",
                    s.count,
                    s.total_ms(),
                    s.mean_ms(),
                    s.max_ns as f64 / 1e6,
                    indent = depth * 2,
                    width = 28usize.saturating_sub(depth * 2),
                );
            }
        }
        if !self.counters.is_empty() || !self.fcounters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<34} {v}");
            }
            for (name, v) in &self.fcounters {
                let _ = writeln!(out, "  {name:<34} {v:.3}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<34} {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name} (n={}, mean={:.3}):",
                    h.count,
                    if h.count > 0 {
                        h.sum / h.count as f64
                    } else {
                        0.0
                    }
                );
                for (i, c) in h.counts.iter().enumerate() {
                    let label = if i < h.edges.len() {
                        format!("<= {}", h.edges[i])
                    } else {
                        format!("> {}", h.edges.last().copied().unwrap_or(f64::INFINITY))
                    };
                    let _ = writeln!(out, "    {label:<12} {c}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn empty_snapshot_serializes_cleanly() {
        let snap = Registry::new().snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"schema\""));
        assert!(json.contains("\"spans\": {}"));
        assert!(json.contains("\"counters\": {}"));
        assert!(snap.render().contains("nothing recorded"));
    }

    #[test]
    fn a_span_without_a_recorded_parent_is_not_nested_under_another() {
        let registry = Registry::new();
        for path in [
            "generate",
            "generate/collect",
            "generate/collect/merge",
            "par/worker_busy",
        ] {
            registry.record_span(path, 2_000_000);
        }
        // `a/b/c` under a recorded `a` but no `a/b`: one level in, named
        // by the path below `a`.
        registry.record_span("a", 1_000_000);
        registry.record_span("a/b/c", 1_000_000);
        let text = registry.snapshot().render();
        let names: Vec<String> = text
            .lines()
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .map(|l| {
                let name = l.split_whitespace().next().unwrap();
                format!("{}{name}", " ".repeat(l.len() - l.trim_start().len()))
            })
            .collect();
        assert_eq!(
            names,
            [
                "  a",
                "    b/c",
                "  generate",
                "    collect",
                "      merge",
                "  par/worker_busy",
            ],
            "{text}"
        );
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\ny");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_stay_valid_json() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert!(number(1.5e6).contains('e'));
    }
}
