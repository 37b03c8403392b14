//! End-to-end benchmark of the Impliance appliance.
//!
//! One closed-loop client (the caller of the in-process API waits for
//! every reply before sending the next request) drives one of three
//! workloads, each putting most of its time in a different layer:
//!
//! * [`analytics`] — SQL over sealed, compressed nested claims: storage
//!   scan/decode and query operators.
//! * [`lookup`] — Zipf-skewed point reads, top-k text search and hybrid
//!   queries over a sealed text-heavy corpus: sealed `get`s, the inverted
//!   index and fusion.
//! * [`ingest`] — mixed-format batches with versioned updates, each
//!   followed by index maintenance, discovery and reads of fresh data:
//!   annotation, index maintenance, commits and parsing.
//!
//! Every answer is checked against an oracle computed by [`gen`] from the
//! generated inputs. A traced run records spans around each public call
//! (see [`trace`]) and adds the per-layer probes of [`probe`].

pub mod analytics;
pub mod gen;
pub mod ingest;
pub mod lookup;
pub mod probe;
pub mod session;
pub mod stats;
pub mod trace;

use std::time::{Duration, Instant};

use impliance_core::{Impliance, QueryResponse};
use impliance_docmodel::Value;
use impliance_index::{search_topk, SearchQuery};

use session::Session;
use stats::{geomean, median};

/// Workload names, in the order the benchmark documents them.
pub const WORKLOADS: &[&str] = &["analytics", "lookup", "ingest"];

/// How long the timed phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this much wall time has passed (checked between rounds).
    Time(Duration),
    /// Exactly this many rounds (the determinism tests).
    Rounds(usize),
}

impl Budget {
    pub fn more(&self, started: Instant, rounds_done: usize) -> bool {
        match *self {
            Budget::Time(d) => started.elapsed() < d,
            Budget::Rounds(n) => rounds_done < n,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    /// Corpus scale: 1 is the benchmark; the tests use small fractions.
    pub scale: f64,
    /// Setups run to take the median `setup_s`.
    pub setup_reps: usize,
}

impl Opts {
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(8)
    }
}

/// What a run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics: (name, value, unit).
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced run only): (name, value, unit).
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
    /// Digest of every generated input.
    pub digest: u64,
    /// Exact counts (for the determinism tests).
    pub counts: Vec<(&'static str, f64)>,
    /// The span dump of the traced run.
    pub trace_json: Option<String>,
}

/// Run one workload by name.
pub fn run(workload: &str, opts: &Opts) -> Option<Report> {
    match workload {
        "analytics" => Some(analytics::run(opts)),
        "lookup" => Some(lookup::run(opts)),
        "ingest" => Some(ingest::run(opts)),
        _ => None,
    }
}

/// Time `setup` `reps` times, keeping the last result.
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), times)
}

/// Index maintenance during a load: the client drains the change feed
/// every [`Maintain::EVERY`] documents, as a background maintainer that
/// keeps up with ingest would, so the maintainer reads each new version
/// while it is still in the memtable.
#[derive(Debug, Default)]
pub struct Maintain {
    pub records: usize,
    pub us: f64,
}

impl Maintain {
    pub const EVERY: usize = 256;

    /// Drain after the `k`-th loaded document when a chunk is full.
    pub fn every(&mut self, imp: &Impliance, k: usize) {
        if (k + 1).is_multiple_of(Self::EVERY) {
            self.drain(imp);
        }
    }

    pub fn drain(&mut self, imp: &Impliance) {
        let t = Instant::now();
        self.records += imp.run_indexing(None);
        self.us += t.elapsed().as_secs_f64() * 1e6;
    }
}

/// An integer view of a numeric value.
pub fn as_i64(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
        _ => None,
    }
}

/// `(id, score)` rows of a match-clause response.
pub fn scored_rows(resp: &QueryResponse) -> Vec<(i64, f64)> {
    resp.rows()
        .iter()
        .filter_map(|r| match (r.get("id"), r.get("score")) {
            (Value::Int(id), Value::Float(s)) => Some((*id, *s)),
            _ => None,
        })
        .collect()
}

/// The no-pruning reference for a top-k search: asking for every live
/// document means the bounded heap never evicts and the upper-bound
/// pruning never skips, so every match is scored.
pub fn reference_topk(
    imp: &Impliance,
    query: &str,
    path: Option<&str>,
    k: usize,
) -> Vec<(i64, f64)> {
    let idx = imp.text_index();
    let mut q = SearchQuery::new(query, (idx.live_docs() as usize).max(1));
    if let Some(p) = path {
        q = q.within(p);
    }
    // the oracle bypasses the pipeline under test
    let (hits, _) = search_topk(idx, &q);
    hits.into_iter()
        .take(k)
        .map(|h| (h.id.0 as i64, h.score))
        .collect()
}

/// What a workload hands to [`finish`] besides its session.
pub struct Finish<'a> {
    pub setup_s: Vec<f64>,
    pub stored_bytes: f64,
    pub input_bytes: f64,
    pub digest: u64,
    /// Per-layer probe results (traced run).
    pub probes: Vec<(&'static str, f64)>,
    /// `index.maintain_us_per_record` (records, wall µs).
    pub maintain: (f64, f64),
    pub links_per_doc: f64,
    /// VmHWM (MiB) read at a fixed point of the run, when the workload's
    /// memory keeps growing with the rounds done; `None` reads it at the
    /// end.
    pub rss_mb: Option<f64>,
    pub workload: &'a str,
}

/// Turn a finished session into a report: the end-to-end metrics from
/// the untraced samples, the per-layer metrics from the traced ones.
pub fn finish(s: Session, f: Finish<'_>) -> Report {
    let stored_ratio = f.stored_bytes / f.input_bytes.max(1.0);
    let class_ms: Vec<f64> = s
        .classes()
        .into_iter()
        .filter_map(|c| s.class_us(c))
        .map(|us| us / 1e3)
        .collect();
    let lat = &s.lat;
    for class in s.classes() {
        let all: Vec<f64> = lat
            .iter()
            .filter(|((c, _), _)| *c == class)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        eprintln!(
            "perfbench: {}: {class}: n={} class={:.1}us p50={:.1}us tail={:?}",
            f.workload,
            all.len(),
            s.class_us(class).unwrap_or(0.0),
            median(&all).unwrap_or(0.0),
            stats::tail(&all)
        );
    }
    let rounds_ms = &s.rounds_ms;
    eprintln!(
        "perfbench: {}: rounds={} setups={:?}",
        f.workload,
        rounds_ms.len(),
        f.setup_s
    );
    let ok_frac = if s.attempted == 0 {
        0.0
    } else {
        (s.attempted - s.failed) as f64 / s.attempted as f64
    };
    let end_to_end = vec![
        ("setup_s", median(&f.setup_s).unwrap_or(0.0), "s"),
        ("ok_frac", ok_frac, "frac"),
        (
            "peak_rss_mb",
            f.rss_mb.unwrap_or_else(session::peak_rss_mb),
            "MiB",
        ),
        ("stored_bytes_per_input_byte", stored_ratio, "B/B"),
        ("round_p50_ms", median(rounds_ms).unwrap_or(0.0), "ms"),
        ("class_geomean_ms", geomean(&class_ms).unwrap_or(0.0), "ms"),
        ("get_p50_us", s.class_us("get").unwrap_or(0.0), "us"),
        ("search_ms", s.class_us("search").unwrap_or(0.0) / 1e3, "ms"),
    ];
    let mut counts: Vec<(&'static str, f64)> = s.counts.iter().map(|(k, v)| (*k, *v)).collect();
    counts.push(("storage.stored_bytes", f.stored_bytes));
    counts.push(("annotate.links_per_doc", f.links_per_doc));
    counts.push(("stored_bytes_per_input_byte", stored_ratio));
    let mut per_layer = Vec::new();
    let mut trace_json = None;
    if let Some(t) = &s.tracer {
        let by_layer = t.self_ns_by_layer();
        let total: f64 = by_layer.values().sum::<f64>().max(1.0);
        for (layer, name) in [
            ("core", "core.self_frac"),
            ("query", "query.self_frac"),
            ("storage", "storage.self_frac"),
            ("index", "index.self_frac"),
            ("annotate", "annotate.self_frac"),
            ("docmodel", "docmodel.self_frac"),
        ] {
            per_layer.push((
                name,
                by_layer.get(layer).copied().unwrap_or(0.0) / total,
                "frac",
            ));
        }
        // core self time of each query: its root span minus the replayed
        // parse, plan and execution beneath it
        let core_self: Vec<f64> = t
            .spans()
            .iter()
            .zip(t.self_ns())
            .filter(|(sp, _)| sp.parent.is_none() && sp.name == "query")
            .map(|(_, own)| own / 1e3)
            .collect();
        per_layer.push(("core.self_us", median(&core_self).unwrap_or(0.0), "us"));
        let layer_p50 =
            |k: &str| median(s.layer.get(k).map_or(&[][..], |v| v.as_slice())).unwrap_or(0.0);
        per_layer.push(("query.exec_us", layer_p50("query.exec_us"), "us"));
        per_layer.push((
            "storage.hit_fetches",
            layer_p50("storage.hit_fetches"),
            "count",
        ));
        let queries = s
            .counts
            .get("core.queries")
            .copied()
            .unwrap_or(0.0)
            .max(1.0);
        per_layer.push((
            "core.plan_cache_hit_frac",
            s.counts.get("core.plan_cache_hits").copied().unwrap_or(0.0) / queries,
            "frac",
        ));
        per_layer.push((
            "query.columnar_frac",
            s.counts
                .get("query.columnar_queries")
                .copied()
                .unwrap_or(0.0)
                / queries,
            "frac",
        ));
        for key in [
            "query.rows_out",
            "query.early_terminations",
            "storage.segments_scanned",
            "storage.segments_skipped",
            "index.candidates_scored",
        ] {
            per_layer.push((key, s.counts.get(key).copied().unwrap_or(0.0), "count"));
        }
        per_layer.push(("storage.stored_bytes", f.stored_bytes, "bytes"));
        per_layer.push((
            "index.maintain_us_per_record",
            f.maintain.1 / f.maintain.0.max(1.0),
            "us",
        ));
        per_layer.push(("annotate.links_per_doc", f.links_per_doc, "count"));
        for (name, v) in &f.probes {
            let unit = if name.ends_with("_ms") { "ms" } else { "us" };
            per_layer.push((name, *v, unit));
        }
        // tracing overhead: traced vs untraced latency of the same
        // classes, as a geometric mean of the per-class ratios
        let ratios: Vec<f64> = s
            .lat_traced
            .iter()
            .filter_map(|(k, v)| Some(median(v)? / median(lat.get(k)?)?))
            .collect();
        per_layer.push((
            "obs.trace_overhead_frac",
            geomean(&ratios).map_or(0.0, |g| g - 1.0),
            "frac",
        ));
        let summary: Vec<(String, f64)> = per_layer
            .iter()
            .map(|(k, v, _)| (k.to_string(), *v))
            .collect();
        trace_json = Some(t.to_json(f.workload, &summary));
    }
    Report {
        attempted: s.attempted,
        failed: s.failed,
        end_to_end,
        per_layer,
        digest: f.digest,
        counts,
        trace_json,
    }
}
