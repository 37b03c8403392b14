//! The closed-loop client's bookkeeping: latency samples per operation
//! class, the oracle tally, and (in the traced run) the spans.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use impliance_core::{ApplianceConfig, Impliance, QueryResponse};
use impliance_docmodel::DocId;
use impliance_index::{search_topk, SearchQuery};
use impliance_query::{execute_plan_opts, ExecContext, ExecutionContext, LogicalPlan};
use impliance_storage::{Predicate, ScanPos, ScanRequest};

use crate::stats::{geomean, median};
use crate::trace::Tracer;

/// The pinned appliance configuration: the defaults, except that the
/// worker count is fixed instead of detected from the host.
pub fn config() -> ApplianceConfig {
    ApplianceConfig {
        worker_threads: 2,
        ..ApplianceConfig::default()
    }
}

/// A span handle: (request id, span id).
pub type SpanRef = (u64, u64);

/// Where a public call's timing goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No spans: the end-to-end samples.
    Plain,
    /// Spans around the call and replayed children (traced run only).
    Traced,
}

#[derive(Debug)]
pub struct Session {
    pub tracer: Option<Tracer>,
    pub mode: Mode,
    pub attempted: u64,
    pub failed: u64,
    /// (class, key) → latencies (µs) of untraced calls. The key tells
    /// apart the requests of one class (statements, search strings).
    pub lat: BTreeMap<(&'static str, usize), Vec<f64>>,
    /// The same for traced calls.
    pub lat_traced: BTreeMap<(&'static str, usize), Vec<f64>>,
    /// Time of each untraced round (ms): the summed latency of its calls.
    pub rounds_ms: Vec<f64>,
    /// Per-layer samples (µs) gathered from traced calls.
    pub layer: BTreeMap<&'static str, Vec<f64>>,
    /// Counts: totals over the run, and exact ones from its first round.
    pub counts: BTreeMap<&'static str, f64>,
    logged: usize,
}

impl Session {
    pub fn new(trace: bool) -> Session {
        Session {
            tracer: trace.then(Tracer::default),
            mode: Mode::Plain,
            attempted: 0,
            failed: 0,
            lat: BTreeMap::new(),
            lat_traced: BTreeMap::new(),
            rounds_ms: Vec::new(),
            layer: BTreeMap::new(),
            counts: BTreeMap::new(),
            logged: 0,
        }
    }

    /// Mode of round `r`: the traced run alternates untraced and traced
    /// rounds, so the two can be compared for the tracing overhead.
    pub fn begin_round(&mut self, r: usize) {
        self.mode = if self.tracer.is_some() && r % 2 == 1 {
            Mode::Traced
        } else {
            Mode::Plain
        };
        if self.mode == Mode::Plain {
            self.rounds_ms.push(0.0);
        }
    }

    /// The latest untraced latency (µs) of a class's key, if any.
    pub fn last(&self, class: &'static str, key: usize) -> Option<f64> {
        self.lat.get(&(class, key)).and_then(|v| v.last()).copied()
    }

    /// Account one query response: plan-cache and columnar shares over
    /// every query, exact counts over the first round only.
    pub fn tally_query(&mut self, resp: &QueryResponse, first_round: bool) {
        self.count("core.queries", 1.0);
        self.count(
            "core.plan_cache_hits",
            f64::from(u8::from(resp.plan_cache_hit)),
        );
        self.count(
            "query.columnar_queries",
            f64::from(u8::from(resp.metrics.columnar_batches > 0)),
        );
        if first_round {
            let m = &resp.metrics;
            self.count("query.rows_out", m.rows_out as f64);
            self.count("query.early_terminations", m.early_terminations as f64);
            self.count("storage.segments_scanned", m.scan.segments_scanned as f64);
            self.count("storage.segments_skipped", m.scan.segments_skipped as f64);
            self.count("index.candidates_scored", m.search_candidates_scored as f64);
        }
    }

    /// Time one public call of operation class `class` (request `key`
    /// within the class). In a traced round the call becomes a root span
    /// of a new request on `layer`.
    pub fn call<T>(
        &mut self,
        class: &'static str,
        key: usize,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Option<SpanRef>) {
        match (self.mode, self.tracer.as_mut()) {
            (Mode::Traced, Some(t)) => {
                let start = Instant::now();
                let request = t.request();
                let out = f();
                let dur = start.elapsed();
                let id = t.record(request, None, layer, name, start, dur);
                self.lat_traced
                    .entry((class, key))
                    .or_default()
                    .push(us(dur));
                (out, Some((request, id)))
            }
            _ => {
                let start = Instant::now();
                let out = f();
                let t = us(start.elapsed());
                self.lat.entry((class, key)).or_default().push(t);
                // a round's time is the summed latency of its calls: the
                // client's own checking between calls is not counted
                if let Some(round) = self.rounds_ms.last_mut() {
                    *round += t / 1e3;
                }
                (out, None)
            }
        }
    }

    /// Record a replayed layer call as a child span of `parent`.
    pub fn child<T>(
        &mut self,
        parent: SpanRef,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, SpanRef) {
        let t = self.tracer.as_mut().expect("child spans need the tracer");
        let (out, id) = t.time(parent.0, Some(parent.1), layer, name, f);
        (out, (parent.0, id))
    }

    /// Record a child span whose duration was measured elsewhere (read
    /// from the appliance's own histograms).
    pub fn child_measured(
        &mut self,
        parent: SpanRef,
        layer: &'static str,
        name: &'static str,
        dur: Duration,
    ) {
        let t = self.tracer.as_mut().expect("child spans need the tracer");
        t.record(parent.0, Some(parent.1), layer, name, Instant::now(), dur);
    }

    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.layer.entry(key).or_default().push(v);
    }

    /// Tally one operation against the oracle.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.logged < 5 {
                self.logged += 1;
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    /// A class's latency (µs): the geometric mean over its keys of each
    /// key's median, so a class mixing cheap and costly requests is not
    /// summarised by whichever one the overall median lands on.
    pub fn class_us(&self, class: &str) -> Option<f64> {
        let medians: Vec<f64> = self
            .lat
            .iter()
            .filter(|((c, _), _)| *c == class)
            .filter_map(|(_, v)| median(v))
            .collect();
        geomean(&medians)
    }

    /// Every class with untraced samples.
    pub fn classes(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = self.lat.keys().map(|(c, _)| *c).collect();
        out.dedup();
        out
    }

    pub fn count(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_default() += v;
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The process's peak resident set (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Scan leaves of a plan: (collection, predicate, fused filter above it).
fn scan_leaves<'p>(
    plan: &'p LogicalPlan,
    above: Option<&'p Predicate>,
    out: &mut Vec<(
        Option<&'p str>,
        Option<&'p Predicate>,
        Option<&'p Predicate>,
    )>,
) {
    match plan {
        LogicalPlan::Scan {
            collection,
            predicate,
            ..
        } => out.push((collection.as_deref(), predicate.as_ref(), above)),
        LogicalPlan::Filter {
            input, predicate, ..
        } => scan_leaves(input, Some(predicate), out),
        LogicalPlan::GroupAgg { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Fusion { input, .. }
        | LogicalPlan::Limit { input, .. } => scan_leaves(input, None, out),
        LogicalPlan::Join { left, right, .. } => {
            scan_leaves(left, None, out);
            scan_leaves(right, None, out);
        }
        _ => {}
    }
}

/// Index-scan leaves of a plan: (query, path, k).
fn index_leaves<'p>(
    plan: &'p LogicalPlan,
    out: &mut Vec<(&'p str, Option<&'p str>, Option<usize>)>,
) {
    match plan {
        LogicalPlan::IndexScan { query, path, k, .. } => out.push((query, path.as_deref(), *k)),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::GroupAgg { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Fusion { input, .. }
        | LogicalPlan::Limit { input, .. } => index_leaves(input, out),
        LogicalPlan::Join { left, right, .. } => {
            index_leaves(left, out);
            index_leaves(right, out);
        }
        _ => {}
    }
}

/// Replay the layers under one answered `Impliance::query` as child
/// spans of its root span: SQL parse and plan (when there is a
/// statement), execution of the response's physical plan at its
/// snapshot epoch, and under execution the storage scans of every scan
/// leaf (columnar pages over every partition, decoding `paths`), the
/// text-index search of every index-scan leaf and the point reads of
/// the hits it fetches.
pub fn replay_query(
    s: &mut Session,
    imp: &Impliance,
    root: SpanRef,
    statement: &str,
    limit: Option<usize>,
    paths: &[String],
    resp: &QueryResponse,
) {
    if !statement.is_empty() {
        let (parsed, _) = s.child(root, "query", "parse", || {
            impliance_query::parse_sql(statement)
        });
        if let Ok(parsed) = parsed {
            s.child(root, "query", "plan", || {
                impliance_query::SimplePlanner::new().plan(parsed)
            });
        }
    }
    let cfg = imp.config();
    let ctx = ExecContext {
        storage: imp.storage(),
        text_index: imp.text_index(),
        value_index: imp.value_index(),
        join_index: imp.join_index(),
        pushdown: cfg.pushdown,
        columnar: true,
        snapshot: Some(resp.snapshot_epoch),
    };
    let opts = ExecutionContext {
        batch_size: cfg.batch_size,
        limit,
        worker_threads: cfg.worker_threads,
        ..ExecutionContext::default()
    };
    let (exec, exec_span) = s.child(root, "query", "exec", || {
        execute_plan_opts(&ctx, &resp.plan, &opts)
    });
    let exec_us = exec_span_us(s, exec_span);
    s.sample("query.exec_us", exec_us);
    drop(exec);
    let mut scans = Vec::new();
    scan_leaves(&resp.plan, None, &mut scans);
    for (collection, predicate, fused) in scans {
        let mut parts = Vec::new();
        if let Some(c) = collection {
            parts.push(Predicate::CollectionIs(c.to_string()));
        }
        if let Some(p) = predicate {
            parts.push(p.clone());
        }
        let req = ScanRequest {
            predicate: Some(Predicate::And(parts)),
            snapshot: Some(resp.snapshot_epoch),
            ..ScanRequest::default()
        };
        let storage = imp.storage();
        s.child(exec_span, "storage", "scan", || {
            let mut rows = 0usize;
            for p in 0..storage.partition_count() {
                let mut pos = ScanPos::default();
                while let Ok((page, next, done)) =
                    storage.scan_partition_page_columnar(p, &req, fused, pos, cfg.batch_size, paths)
                {
                    rows += page.len;
                    pos = next;
                    if done {
                        break;
                    }
                }
            }
            rows
        });
    }
    let mut searches = Vec::new();
    index_leaves(&resp.plan, &mut searches);
    for (query, path, k) in searches {
        let idx = imp.text_index();
        let mut q = SearchQuery::new(query, k.unwrap_or(idx.live_docs() as usize).max(1));
        if let Some(p) = path {
            q = q.within(p);
        }
        let ((hits, _), _) = s.child(exec_span, "index", "search_topk", || search_topk(idx, &q));
        // the index scan fetches every hit it emits from storage: all of
        // them when unbounded (a hybrid), the top k otherwise
        let ids: Vec<DocId> = hits.iter().map(|h| h.id).collect();
        if k.is_none() {
            s.sample("storage.hit_fetches", ids.len() as f64);
        }
        let storage = imp.storage();
        s.child(exec_span, "storage", "fetch", || {
            ids.iter()
                .filter(|id| {
                    matches!(
                        storage.get_latest_at(**id, resp.snapshot_epoch),
                        Ok(Some(_))
                    )
                })
                .count()
        });
    }
}

fn exec_span_us(s: &Session, span: SpanRef) -> f64 {
    s.tracer
        .as_ref()
        .and_then(|t| t.spans().get(span.1 as usize - 1))
        .map_or(0.0, |sp| sp.dur_ns as f64 / 1e3)
}
