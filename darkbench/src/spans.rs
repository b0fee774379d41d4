//! The benchmark's own trace: spans around its calls into the program's
//! public API, kept in memory and written out when the run ends.

use darkside_core::trace::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. `id` names the utterance or session it served (or 0);
/// `parent` indexes the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Monotonic clock shared by the whole run, plus the span log. With
/// recording off, [`SpanLog::record`] keeps nothing; callers still read
/// the clock for their end-to-end timings.
pub struct SpanLog {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(recording: bool) -> Self {
        Self {
            epoch: Instant::now(),
            recording,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Log a finished call; returns its index (for children) when kept.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.recording {
            return None;
        }
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Total nanoseconds and call count per span name, over the spans
    /// that started at or after `since_ns`.
    pub fn totals(&self, since_ns: u64) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.start_ns >= since_ns) {
            let e = out.entry(s.name).or_insert((0u64, 0u64));
            e.0 += s.end_ns - s.start_ns;
            e.1 += 1;
        }
        out
    }

    /// Durations (ns) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Write one JSON line per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj(vec![
                ("name", s.name.into()),
                ("id", Json::U64(s.id)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}
