//! JSONL export of one run's telemetry.
//!
//! Each line is one externally-tagged [`ExportLine`]. The owned-`String`
//! line types mirror the in-memory records ([`crate::SpanRecord`],
//! [`crate::MessageEvent`]) so an export file round-trips through the
//! vendored serde without borrowing `&'static str` labels.

use crate::critical_path::PhaseProfile;
use crate::message_log::MessageEvent;
use crate::registry::RegistrySnapshot;
use crate::span::SpanRecord;
use crate::timeseries::{SeriesSnapshot, SeriesWindowSnapshot};
use serde::{Deserialize, Serialize};
use std::io::BufRead;

/// Run-level metadata (first line of an export).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetaLine {
    /// Transport that produced the run ("sim", "tcp").
    pub transport: String,
    /// Number of sites.
    pub sites: u64,
    /// Workload/system seed.
    pub seed: u64,
}

/// One span, with owned strings (see [`crate::SpanRecord`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanLine {
    /// Trace id.
    pub trace: u64,
    /// Span id.
    pub span: u64,
    /// Parent span id (`0` = root).
    pub parent: u64,
    /// Recording site (raw id).
    pub site: u32,
    /// Phase name.
    pub name: String,
    /// Free-form detail.
    pub detail: String,
    /// Start tick.
    pub start: u64,
    /// End tick (`None` = never closed).
    pub end: Option<u64>,
    /// Lamport clock at open.
    pub clock: u64,
}

impl From<&SpanRecord> for SpanLine {
    fn from(r: &SpanRecord) -> Self {
        SpanLine {
            trace: r.trace,
            span: r.span,
            parent: r.parent,
            site: r.site.0,
            name: r.name.to_string(),
            detail: r.detail.clone(),
            start: r.start.ticks(),
            end: r.end.map(|e| e.ticks()),
            clock: r.clock,
        }
    }
}

/// One delivered message, with its piggybacked context flattened.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MessageLine {
    /// Delivery tick.
    pub at: u64,
    /// Sender (raw id).
    pub from: u32,
    /// Receiver (raw id).
    pub to: u32,
    /// Message kind.
    pub kind: String,
    /// Trace id, when a context was attached.
    pub trace: Option<u64>,
    /// Parent span id from the context.
    pub parent: Option<u64>,
    /// Sender's Lamport clock from the context.
    pub clock: Option<u64>,
}

impl From<&MessageEvent> for MessageLine {
    fn from(e: &MessageEvent) -> Self {
        MessageLine {
            at: e.at.ticks(),
            from: e.from.0,
            to: e.to.0,
            kind: e.kind.to_string(),
            trace: e.ctx.map(|c| c.trace_id),
            parent: e.ctx.map(|c| c.parent_span),
            clock: e.ctx.map(|c| c.clock),
        }
    }
}

/// One harness-visible update outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OutcomeLine {
    /// Raw transaction id (== the update's trace id).
    pub txn: u64,
    /// Origin site (raw id).
    pub site: u32,
    /// `true` for a commit, `false` for an abort.
    pub committed: bool,
    /// Abort reason or empty.
    pub detail: String,
    /// Completion tick.
    pub at: u64,
    /// Correspondences charged to the update.
    pub correspondences: u64,
}

/// One registry snapshot, tagged with its scope.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegistryLine {
    /// `"site<N>"` for a per-site accelerator registry, `"network"` for
    /// the transport substrate.
    pub scope: String,
    /// The snapshot.
    pub snapshot: RegistrySnapshot,
}

/// One time-series window, tagged with its scope. Emitted one line per
/// window so the `series` scope streams: a consumer can fold windows as
/// they arrive without materializing the whole export.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SeriesLine {
    /// `"site<N>"` for a per-site accelerator series.
    pub scope: String,
    /// Window width in sim ticks (repeated per line so each line is
    /// self-contained).
    pub window_ticks: u64,
    /// The window.
    pub window: SeriesWindowSnapshot,
}

/// One line of a JSONL export.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ExportLine {
    /// Run metadata.
    Meta(MetaLine),
    /// One span.
    Span(SpanLine),
    /// One delivered message.
    Message(MessageLine),
    /// One update outcome.
    Outcome(OutcomeLine),
    /// One registry snapshot.
    Registry(RegistryLine),
    /// One time-series window.
    Series(SeriesLine),
    /// The run's critical-path phase profile.
    Profile(PhaseProfile),
}

/// A parsed (or assembled) run export.
#[derive(Clone, Debug, Default)]
pub struct RunExport {
    /// Run metadata, when present.
    pub meta: Option<MetaLine>,
    /// All spans, all sites.
    pub spans: Vec<SpanLine>,
    /// All delivered messages.
    pub messages: Vec<MessageLine>,
    /// All update outcomes.
    pub outcomes: Vec<OutcomeLine>,
    /// All registry snapshots.
    pub registries: Vec<RegistryLine>,
    /// All time-series windows, one line per window.
    pub series: Vec<SeriesLine>,
    /// The run's critical-path phase profile, when one was computed.
    pub profile: Option<PhaseProfile>,
}

impl RunExport {
    /// Adds every record of one site's span collector.
    pub fn add_spans(&mut self, records: &[SpanRecord]) {
        self.spans.extend(records.iter().map(SpanLine::from));
    }

    /// Adds every event of a message log.
    pub fn add_messages(&mut self, events: &[MessageEvent]) {
        self.messages.extend(events.iter().map(MessageLine::from));
    }

    /// Adds one scoped registry snapshot.
    pub fn add_registry(&mut self, scope: &str, snapshot: RegistrySnapshot) {
        self.registries.push(RegistryLine { scope: scope.to_string(), snapshot });
    }

    /// The registry snapshot for one scope, when present.
    pub fn registry(&self, scope: &str) -> Option<&RegistrySnapshot> {
        self.registries.iter().find(|r| r.scope == scope).map(|r| &r.snapshot)
    }

    /// Adds one site's series snapshot, flattened to one line per window.
    pub fn add_series(&mut self, scope: &str, snapshot: &SeriesSnapshot) {
        for window in &snapshot.windows {
            self.series.push(SeriesLine {
                scope: scope.to_string(),
                window_ticks: snapshot.window_ticks,
                window: window.clone(),
            });
        }
    }

    /// Reassembles one scope's windows into a series snapshot (empty when
    /// the scope has no windows).
    pub fn series_for(&self, scope: &str) -> SeriesSnapshot {
        let mut snap = SeriesSnapshot::default();
        for line in self.series.iter().filter(|l| l.scope == scope) {
            snap.window_ticks = line.window_ticks;
            snap.windows.push(line.window.clone());
        }
        snap
    }

    /// All scopes that emitted series windows, first-seen order, deduped.
    pub fn series_scopes(&self) -> Vec<&str> {
        let mut scopes: Vec<&str> = Vec::new();
        for line in &self.series {
            if !scopes.contains(&line.scope.as_str()) {
                scopes.push(&line.scope);
            }
        }
        scopes
    }

    /// Serializes to JSONL: meta first, then spans, messages, outcomes,
    /// registries.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut push = |line: &ExportLine| {
            out.push_str(&serde_json::to_string(line).expect("export lines serialize"));
            out.push('\n');
        };
        if let Some(meta) = &self.meta {
            push(&ExportLine::Meta(meta.clone()));
        }
        for s in &self.spans {
            push(&ExportLine::Span(s.clone()));
        }
        for m in &self.messages {
            push(&ExportLine::Message(m.clone()));
        }
        for o in &self.outcomes {
            push(&ExportLine::Outcome(o.clone()));
        }
        for r in &self.registries {
            push(&ExportLine::Registry(r.clone()));
        }
        for s in &self.series {
            push(&ExportLine::Series(s.clone()));
        }
        if let Some(p) = &self.profile {
            push(&ExportLine::Profile(p.clone()));
        }
        out
    }

    /// Folds one parsed line into the export.
    pub fn absorb(&mut self, line: ExportLine) {
        match line {
            ExportLine::Meta(m) => self.meta = Some(m),
            ExportLine::Span(s) => self.spans.push(s),
            ExportLine::Message(m) => self.messages.push(m),
            ExportLine::Outcome(o) => self.outcomes.push(o),
            ExportLine::Registry(r) => self.registries.push(r),
            ExportLine::Series(s) => self.series.push(s),
            ExportLine::Profile(p) => self.profile = Some(p),
        }
    }

    /// Parses a JSONL export held in memory. Returns the first malformed
    /// line as an error (`"line <n>: <parse error>"`).
    pub fn parse(text: &str) -> Result<RunExport, String> {
        Self::from_reader(text.as_bytes())
    }

    /// Parses a JSONL export incrementally from a buffered reader, one
    /// line at a time through a reused buffer — the analyzer's path for
    /// 10⁵-update exports, where slurping the file into a `String` first
    /// would double peak memory.
    pub fn from_reader<R: BufRead>(reader: R) -> Result<RunExport, String> {
        let mut export = RunExport::default();
        for_each_line(reader, |line| {
            export.absorb(line);
            Ok(())
        })?;
        Ok(export)
    }
}

/// Streams a JSONL export through `visit` without materializing it: each
/// parsed line is handed over and dropped. Consumers that only fold
/// (rate panels, series renderers, summaries) stay O(1) in the export
/// size. Stops at the first malformed line or visitor error.
pub fn for_each_line<R: BufRead>(
    mut reader: R,
    mut visit: impl FnMut(ExportLine) -> Result<(), String>,
) -> Result<(), String> {
    let mut buf = String::new();
    let mut n = 0usize;
    loop {
        buf.clear();
        let read = reader
            .read_line(&mut buf)
            .map_err(|e| format!("line {}: read error: {e}", n + 1))?;
        if read == 0 {
            return Ok(());
        }
        n += 1;
        let line = buf.trim();
        if line.is_empty() {
            continue;
        }
        let parsed: ExportLine =
            serde_json::from_str(line).map_err(|e| format!("line {n}: {e:?}"))?;
        visit(parsed)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_types::{SiteId, VirtualTime};

    fn sample() -> RunExport {
        let mut export = RunExport {
            meta: Some(MetaLine { transport: "sim".into(), sites: 3, seed: 7 }),
            ..Default::default()
        };
        let mut col = crate::SpanCollector::new(SiteId(1));
        let root = col.start(9, 0, "update", VirtualTime(0), 1);
        col.instant(9, root, "checking", VirtualTime(0), 2);
        col.end(root, VirtualTime(4));
        export.add_spans(col.records());
        let mut log = crate::MessageLog::enabled();
        log.record(
            VirtualTime(1),
            SiteId(1),
            SiteId(0),
            "av-request",
            Some(crate::TraceContext::child(9, root, 3)),
        );
        export.add_messages(log.events());
        export.outcomes.push(OutcomeLine {
            txn: 9,
            site: 1,
            committed: true,
            detail: String::new(),
            at: 4,
            correspondences: 1,
        });
        let mut reg = crate::Registry::new();
        reg.inc("msg.sent.av-request");
        export.add_registry("site1", reg.snapshot());
        export.profile = Some(crate::critical_path::profile_export(&export));
        export
    }

    #[test]
    fn jsonl_roundtrips() {
        let export = sample();
        let text = export.to_jsonl();
        assert_eq!(text.lines().count(), 7);
        let back = RunExport::parse(&text).unwrap();
        assert_eq!(back.meta, export.meta);
        assert_eq!(back.spans, export.spans);
        assert_eq!(back.messages, export.messages);
        assert_eq!(back.outcomes, export.outcomes);
        assert_eq!(back.registries, export.registries);
        assert_eq!(back.registry("site1").unwrap().counter("msg.sent.av-request"), 1);
        assert_eq!(back.profile, export.profile);
        assert_eq!(back.profile.as_ref().unwrap().traces, 1);
    }

    #[test]
    fn parse_reports_malformed_lines() {
        let err = RunExport::parse("{\"nope\":1}\n").unwrap_err();
        assert!(err.starts_with("line 1"), "{err}");
    }

    #[test]
    fn parse_skips_blank_lines() {
        let export = RunExport::parse("\n\n").unwrap();
        assert!(export.spans.is_empty());
    }

    #[test]
    fn series_lines_roundtrip_one_window_per_line() {
        let mut reg = crate::Registry::new();
        let mut rec = crate::SeriesRecorder::new(10);
        reg.inc("update.committed");
        rec.roll(10, &mut reg);
        reg.add("update.committed", 2);
        rec.roll(20, &mut reg);
        let mut export = sample();
        export.add_series("site1", &rec.snapshot(&reg));
        let text = export.to_jsonl();
        assert_eq!(text.lines().count(), 9, "7 sample lines + 2 windows");
        let back = RunExport::parse(&text).unwrap();
        assert_eq!(back.series, export.series);
        let series = back.series_for("site1");
        assert_eq!(series.window_ticks, 10);
        assert_eq!(series.windows.len(), 2);
        assert_eq!(series.windows[1].counters["update.committed"], 2);
        assert_eq!(back.series_scopes(), vec!["site1"]);
        assert!(back.series_for("site9").windows.is_empty());
    }

    #[test]
    fn from_reader_matches_parse() {
        let text = sample().to_jsonl();
        let streamed = RunExport::from_reader(text.as_bytes()).unwrap();
        let parsed = RunExport::parse(&text).unwrap();
        assert_eq!(streamed.spans, parsed.spans);
        assert_eq!(streamed.registries, parsed.registries);
        assert_eq!(streamed.meta, parsed.meta);
    }

    #[test]
    fn for_each_line_streams_and_stops_on_visitor_error() {
        let text = sample().to_jsonl();
        let mut seen = 0;
        super::for_each_line(text.as_bytes(), |_| {
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 7);
        let err = super::for_each_line(text.as_bytes(), |_| Err("stop".to_string()));
        assert_eq!(err.unwrap_err(), "stop");
    }
}
