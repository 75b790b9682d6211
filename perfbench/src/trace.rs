//! In-memory spans around the benchmark's calls into each layer.
//!
//! With tracing off a [`Tracer`] records nothing: each call site costs one
//! branch. With it on, spans stay in memory until the run ends and are then
//! written as JSON lines (one object per span).

use std::time::{Duration, Instant};

use ftdircmp_serve::json::Json;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<SpanId>,
    key: String,
}

/// Span recorder; one per thread, merged at the end.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder measuring from `origin`; records only when `on`.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span named `name` for the unit or job `key`.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        key: &str,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            key: key.to_string(),
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Records a span whose bounds the caller measured.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        key: &str,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent,
            key: key.to_string(),
        });
        Some(self.spans.len() - 1)
    }

    /// Moves every span of `other` (same origin) into `self`.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Summed duration in seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::num_u64(id as u64)),
                ("name", Json::str(s.name)),
                ("start_us", Json::Num(s.start.as_secs_f64() * 1e6)),
                ("end_us", Json::Num(s.end.as_secs_f64() * 1e6)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num_u64(p as u64)),
                ),
                ("key", Json::str(&s.key)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("unit", None, "u0");
        t.end(id);
        assert_eq!(id, None);
        assert_eq!(t.len(), 0);
        assert_eq!(t.to_json_lines(), "");
    }

    #[test]
    fn spans_nest_and_merge() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        let root = a.begin("job", None, "j1");
        let child = a.begin("submit", root, "j1");
        a.end(child);
        a.end(root);
        let mut b = Tracer::new(true, origin);
        let other = b.begin("job", None, "j2");
        b.begin("status", other, "j2");
        a.absorb(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.durations("job").len(), 2);
        let lines = a.to_json_lines();
        let parsed: Vec<Json> = lines.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(parsed[1].get("parent"), Some(&Json::Num(0.0)));
        // The second tracer's child points at its own root after the merge.
        assert_eq!(parsed[3].get("parent"), Some(&Json::Num(2.0)));
        assert_eq!(parsed[3].get("key").and_then(Json::as_str), Some("j2"));
    }
}
