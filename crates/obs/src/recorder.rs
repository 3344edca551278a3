//! The `Recorder` trait and its two implementations.
//!
//! Instrumented code takes `&mut dyn Recorder` and calls the hooks
//! unconditionally for scalar metrics (a counter bump on the no-op
//! recorder is an inlined empty body behind one indirect call) but must
//! guard event *construction* behind [`Recorder::events_on`] so that
//! allocating variants cost nothing below the `events` level.

use std::collections::BTreeMap;
use std::io::{self, Write};

use crate::event::Event;
use crate::hist::Histogram;
use crate::json;

/// How much the recorder keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ObsLevel {
    /// Record nothing.
    #[default]
    Off,
    /// Counters, gauges, and latency histograms only.
    Metrics,
    /// Metrics plus the structured event journal.
    Events,
}

impl ObsLevel {
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s {
            "off" => Some(ObsLevel::Off),
            "metrics" => Some(ObsLevel::Metrics),
            "events" => Some(ObsLevel::Events),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Metrics => "metrics",
            ObsLevel::Events => "events",
        }
    }
}

/// Observability sink threaded through the FTL, cluster engine, and
/// migration policies. All hooks have empty defaults, so `dyn Recorder`
/// call sites pay one indirect call per hook and nothing else when the
/// implementation ignores them.
pub trait Recorder {
    /// Current recording level; callers use it to skip building events.
    fn level(&self) -> ObsLevel {
        ObsLevel::Off
    }

    /// Advances the journal clock (virtual microseconds). The simulation
    /// engine calls this as it dispatches each event; layers below the
    /// engine (the FTL) never see the clock and simply inherit it.
    fn set_now(&mut self, _now_us: u64) {}

    /// Sets (or clears) the device scope stamped on subsequent journal
    /// lines, so FTL events carry the OSD they happened on without the
    /// FTL knowing its own identity.
    fn set_device(&mut self, _device: Option<u32>) {}

    /// Unused: nothing in the workspace calls or overrides this. It stays
    /// declared, with its empty default, only because the `perfbench/`
    /// ledger's `TimedRecorder` forwards it; remove both together.
    fn set_component(&mut self, _component: Option<u32>) {}

    /// Adds `delta` to a named monotonic counter.
    fn counter(&mut self, _name: &'static str, _delta: u64) {}

    /// Sets a named gauge to its latest value.
    fn gauge(&mut self, _name: &'static str, _value: f64) {}

    /// Records a sample into a named log2 latency histogram.
    fn latency(&mut self, _name: &'static str, _us: u64) {}

    /// Appends a structured event to the journal.
    fn event(&mut self, _event: Event) {}

    /// Unused: nothing in the workspace calls or overrides this. It stays
    /// declared, with its empty default, only because the `perfbench/`
    /// ledger's `TimedRecorder` forwards it; remove both together.
    fn merge_histogram(&mut self, _name: &'static str, _hist: &Histogram) {}

    /// True when event construction is worth the allocation.
    fn events_on(&self) -> bool {
        self.level() >= ObsLevel::Events
    }
}

/// The recorder that records nothing. Every hook is an empty inlined
/// body; the hot-path cost is the indirect call alone, which the
/// obs-overhead perf cell keeps honest.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// One journal line: virtual time, optional device scope, event.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    pub t_us: u64,
    pub device: Option<u32>,
    pub event: Event,
}

/// In-memory recorder: BTree-backed metrics (deterministic iteration
/// order) plus an append-only journal, snapshotable to JSON/JSONL.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    level: ObsLevel,
    now_us: u64,
    device: Option<u32>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Histogram>,
    events: Vec<JournalEntry>,
}

impl MemoryRecorder {
    pub fn new(level: ObsLevel) -> Self {
        MemoryRecorder {
            level,
            ..MemoryRecorder::default()
        }
    }

    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauges(&self) -> &BTreeMap<&'static str, f64> {
        &self.gauges
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// All histograms, in deterministic name order.
    pub fn histograms(&self) -> &BTreeMap<&'static str, Histogram> {
        &self.hists
    }

    pub fn journal(&self) -> &[JournalEntry] {
        &self.events
    }

    /// Number of journal events matching a `kind` discriminator.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.event.kind() == kind)
            .count()
    }

    /// One JSON object with counters, gauges, and histogram summaries.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (name, value) in &self.counters {
            json::field_u64(&mut out, name, *value);
        }
        out.push_str("},\"gauges\":{");
        for (name, value) in &self.gauges {
            json::field_f64(&mut out, name, *value);
        }
        out.push_str("},\"histograms\":{");
        for (name, hist) in &self.hists {
            let mut body = String::from("{");
            write_hist_fields(&mut body, hist);
            body.push('}');
            json::field_raw(&mut out, name, &body);
        }
        out.push_str("}}");
        out
    }

    /// Writes the journal as JSONL: one line per event in insertion
    /// order (keyed by virtual time, stamped with the device scope when
    /// present), followed by trailer records for every counter, gauge,
    /// and histogram so a journal file is self-contained.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut line = String::new();
        for entry in &self.events {
            line.clear();
            line.push('{');
            json::field_u64(&mut line, "t_us", entry.t_us);
            if let Some(d) = entry.device {
                json::field_u64(&mut line, "osd", d as u64);
            }
            json::field_str(&mut line, "kind", entry.event.kind());
            entry.event.write_fields(&mut line);
            line.push_str("}\n");
            w.write_all(line.as_bytes())?;
        }
        for (name, value) in &self.counters {
            line.clear();
            line.push('{');
            json::field_str(&mut line, "kind", "counter");
            json::field_str(&mut line, "name", name);
            json::field_u64(&mut line, "value", *value);
            line.push_str("}\n");
            w.write_all(line.as_bytes())?;
        }
        for (name, value) in &self.gauges {
            line.clear();
            line.push('{');
            json::field_str(&mut line, "kind", "gauge");
            json::field_str(&mut line, "name", name);
            json::field_f64(&mut line, "value", *value);
            line.push_str("}\n");
            w.write_all(line.as_bytes())?;
        }
        for (name, hist) in &self.hists {
            line.clear();
            line.push('{');
            json::field_str(&mut line, "kind", "hist");
            json::field_str(&mut line, "name", name);
            write_hist_fields(&mut line, hist);
            line.push_str("}\n");
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }
}

fn write_hist_fields(out: &mut String, hist: &Histogram) {
    let (p50, p95, p99, max) = hist.summary();
    json::field_u64(out, "count", hist.count());
    json::field_u64(out, "p50", p50);
    json::field_u64(out, "p95", p95);
    json::field_u64(out, "p99", p99);
    json::field_u64(out, "max", max);
}

impl Recorder for MemoryRecorder {
    fn level(&self) -> ObsLevel {
        self.level
    }

    fn set_now(&mut self, now_us: u64) {
        self.now_us = now_us;
    }

    fn set_device(&mut self, device: Option<u32>) {
        self.device = device;
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        if self.level >= ObsLevel::Metrics {
            *self.counters.entry(name).or_insert(0) += delta;
        }
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        if self.level >= ObsLevel::Metrics {
            self.gauges.insert(name, value);
        }
    }

    fn latency(&mut self, name: &'static str, us: u64) {
        if self.level >= ObsLevel::Metrics {
            self.hists.entry(name).or_default().record(us);
        }
    }

    fn event(&mut self, event: Event) {
        if self.level >= ObsLevel::Events {
            self.events.push(JournalEntry {
                t_us: self.now_us,
                device: self.device,
                event,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering() {
        assert!(ObsLevel::Off < ObsLevel::Metrics);
        assert!(ObsLevel::Metrics < ObsLevel::Events);
        assert_eq!(ObsLevel::parse("events"), Some(ObsLevel::Events));
        assert_eq!(ObsLevel::parse("bogus"), None);
        assert_eq!(ObsLevel::Metrics.as_str(), "metrics");
    }

    #[test]
    fn noop_recorder_drops_everything() {
        let mut r = NoopRecorder;
        r.set_now(5);
        r.counter("x", 1);
        r.latency("y", 10);
        r.event(Event::QueueDepth { osd: 0, depth: 1 });
        assert_eq!(r.level(), ObsLevel::Off);
        assert!(!r.events_on());
    }

    #[test]
    fn metrics_level_keeps_metrics_drops_events() {
        let mut r = MemoryRecorder::new(ObsLevel::Metrics);
        r.counter("a", 2);
        r.counter("a", 3);
        r.gauge("g", 1.5);
        r.latency("lat", 100);
        r.event(Event::QueueDepth { osd: 0, depth: 1 });
        assert_eq!(r.counter_value("a"), 5);
        assert_eq!(r.gauges()["g"], 1.5);
        assert_eq!(r.histogram("lat").unwrap().count(), 1);
        assert!(r.journal().is_empty());
        assert!(!r.events_on());
    }

    #[test]
    fn events_level_stamps_time_and_device() {
        let mut r = MemoryRecorder::new(ObsLevel::Events);
        r.set_now(42);
        r.set_device(Some(3));
        r.event(Event::QueueDepth { osd: 3, depth: 7 });
        r.set_device(None);
        r.set_now(50);
        r.event(Event::RemapUpdate { object: 1, dest: 2 });
        let j = r.journal();
        assert_eq!(j.len(), 2);
        assert_eq!((j[0].t_us, j[0].device), (42, Some(3)));
        assert_eq!((j[1].t_us, j[1].device), (50, None));
        assert_eq!(r.count_kind("queue_depth"), 1);
    }

    #[test]
    fn off_level_memory_recorder_records_nothing() {
        let mut r = MemoryRecorder::new(ObsLevel::Off);
        r.counter("a", 1);
        r.latency("l", 1);
        r.event(Event::QueueDepth { osd: 0, depth: 0 });
        assert!(r.counters().is_empty());
        assert!(r.journal().is_empty());
    }

    #[test]
    fn jsonl_lines_all_parse() {
        let mut r = MemoryRecorder::new(ObsLevel::Events);
        r.set_now(10);
        r.event(Event::GcInvoked {
            free_blocks: 1,
            low_watermark: 2,
            high_watermark: 4,
        });
        r.counter("ftl.block_erases", 9);
        r.gauge("trigger.rsd", 0.25);
        r.latency("response_us", 1234);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for l in &lines {
            json::parse(l).unwrap_or_else(|e| panic!("{l}: {e}"));
        }
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("t_us").unwrap().as_u64(), Some(10));
        assert_eq!(first.get("kind").unwrap().as_str(), Some("gc_invoked"));
    }

    #[test]
    fn snapshot_json_parses() {
        let mut r = MemoryRecorder::new(ObsLevel::Metrics);
        r.counter("a.b", 7);
        r.gauge("g", -0.5);
        r.latency("lat", 3);
        r.latency("lat", 900);
        let snap = r.snapshot_json();
        let v = json::parse(&snap).unwrap();
        assert_eq!(
            v.get("counters").unwrap().get("a.b").unwrap().as_u64(),
            Some(7)
        );
        let lat = v.get("histograms").unwrap().get("lat").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(lat.get("max").unwrap().as_u64(), Some(900));
    }
}
