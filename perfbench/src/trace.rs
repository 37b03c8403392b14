//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each public
//! call it makes into a layer. A span names its layer, its parent (the
//! span that caused it) and its request: all spans of one request share
//! the request id. Replayed layer calls (the parse, plan, execution and
//! storage scan of a query the appliance just answered) are recorded as
//! children of that query's span, so a layer's self time is its span
//! durations minus the part its child spans cover (see
//! [`Tracer::self_ns`]). Everything stays in memory until the run ends,
//! then goes out as one JSON file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The appliance's layers on the request path, as named in the output.
pub const LAYERS: &[&str] = &["core", "query", "storage", "index", "annotate", "docmodel"];

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_request: 1,
        }
    }
}

impl Tracer {
    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request - 1
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        request: u64,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            layer,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
        id
    }

    /// Time `f` and record it as a span.
    pub fn time<T>(
        &mut self,
        request: u64,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let id = self.record(request, parent, layer, name, start, start.elapsed());
        (out, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (indexed like [`Tracer::spans`]), in
    /// nanoseconds: its duration minus the part of it its children
    /// cover. Replayed children run after their parent and can add up to
    /// more than it (a serial replay of work the parent did on two
    /// workers); they never cover more than the whole parent, so
    /// children are scaled down to fit it, level by level from the root.
    /// Self times are never negative and a tree's self times sum to its
    /// root's duration.
    pub fn self_ns(&self) -> Vec<f64> {
        let n = self.spans.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p as usize - 1].push(i);
            }
        }
        let mut eff: Vec<f64> = self.spans.iter().map(|s| s.dur_ns as f64).collect();
        let mut out = vec![0.0; n];
        // a parent is recorded before any child that names it, so index
        // order is top-down
        for i in 0..n {
            let covered: f64 = children[i].iter().map(|c| eff[*c]).sum();
            let scale = if covered > eff[i] {
                eff[i] / covered
            } else {
                1.0
            };
            for c in &children[i] {
                eff[*c] *= scale;
            }
            out[i] = eff[i] - covered.min(eff[i]);
        }
        out
    }

    /// Self time per layer in nanoseconds. Every layer in [`LAYERS`] is
    /// present (zero when the workload never calls it).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer).or_default() += own;
        }
        out
    }

    /// The spans plus the per-layer self-time table as JSON.
    pub fn to_json(&self, workload: &str, extra: &[(String, f64)]) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"workload\": \"{workload}\", \"self_ms\": {{");
        let by_layer = self.self_ns_by_layer();
        let body: Vec<String> = by_layer
            .iter()
            .map(|(l, ns)| format!("\"{l}\": {:.3}", ns / 1e6))
            .collect();
        out.push_str(&body.join(", "));
        out.push_str("}, \"summary\": {");
        let body: Vec<String> = extra.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        out.push_str(&body.join(", "));
        out.push_str("}, \"spans\": [\n");
        let body: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request,
                    s.layer,
                    s.name,
                    s.start_ns,
                    s.dur_ns
                )
            })
            .collect();
        out.push_str(&body.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let r = t.request();
        let now = Instant::now();
        let root = t.record(r, None, "core", "query", now, Duration::from_nanos(1_000));
        let exec = t.record(
            r,
            Some(root),
            "query",
            "exec",
            now,
            Duration::from_nanos(600),
        );
        t.record(
            r,
            Some(exec),
            "storage",
            "scan",
            now,
            Duration::from_nanos(400),
        );
        let by = t.self_ns_by_layer();
        assert_eq!(by["core"], 400.0);
        assert_eq!(by["query"], 200.0);
        assert_eq!(by["storage"], 400.0);
        assert_eq!(by["annotate"], 0.0);
    }

    #[test]
    fn children_never_cover_more_than_their_parent() {
        let mut t = Tracer::default();
        let r = t.request();
        let now = Instant::now();
        let root = t.record(r, None, "core", "query", now, Duration::from_nanos(1_000));
        let exec = t.record(
            r,
            Some(root),
            "query",
            "exec",
            now,
            Duration::from_nanos(800),
        );
        t.record(
            r,
            Some(exec),
            "storage",
            "scan",
            now,
            Duration::from_nanos(1_600),
        );
        let by = t.self_ns_by_layer();
        assert_eq!(by["core"], 200.0);
        assert_eq!(by["query"], 0.0);
        assert_eq!(by["storage"], 800.0);
        assert_eq!(by.values().sum::<f64>(), 1_000.0);
    }
}
