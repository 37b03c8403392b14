//! `ingest`: writes beside reads.
//!
//! Setup preloads and quiesces a base of mixed-format documents. Each
//! round streams one fixed batch (JSON claims, text transcripts, e-mails,
//! XML notes; a share of versioned updates to recent documents), then
//! runs index maintenance and discovery on the client thread, so
//! background work is interleaved deterministically, then reads the
//! just-written ids and runs a few searches. Time goes to annotation,
//! index maintenance, storage commits and parsing; the reads hit the
//! memtable.

use std::time::Instant;

use impliance_core::{Impliance, QueryRequest};
use impliance_docmodel::{json, DocId, Version};
use impliance_index::{search_topk, SearchQuery};
use impliance_obs::LATENCY_BUCKETS_US;

use crate::gen::{self, IngestOp, IngestStream, Input, Rng};
use crate::session::{config, peak_rss_mb, replay_query, Mode, Session, SpanRef};
use crate::{finish, reference_topk, scored_rows, timed_setups, Finish, Opts, Report};

/// Documents preloaded (and quiesced) by setup.
pub const BASE: usize = 2_000;
/// Operations per streamed batch.
pub const BATCH: usize = 24;
/// Batches after which the storage footprint and the peak resident set
/// are read. The appliance's state keeps growing with every batch, so
/// both are taken at a fixed point of the stream (the stored-bytes ratio
/// is then an exact count for a seed) rather than after however many
/// batches the run happened to fit.
const FOOTPRINT_AT: usize = 40;

/// Where each streamed document lives and which version it is at.
#[derive(Debug, Default)]
struct Ledger {
    /// Stream sequence number → (id, latest version, marker of it).
    docs: Vec<Option<(DocId, Version, String)>>,
}

impl Ledger {
    fn set(&mut self, seq: usize, entry: (DocId, Version, String)) {
        if self.docs.len() <= seq {
            self.docs.resize(seq + 1, None);
        }
        self.docs[seq] = Some(entry);
    }
}

struct Loaded {
    imp: Impliance,
    stream: IngestStream,
    ledger: Ledger,
}

fn ingest_input(
    imp: &Impliance,
    collection: &str,
    input: &Input,
) -> Result<DocId, impliance_core::Error> {
    match input {
        Input::Json(s) => imp.ingest_json(collection, s),
        Input::Text(s) => imp.ingest_text(collection, s),
        Input::Email(s) => imp.ingest_email(collection, s),
        Input::Xml(s) => imp.ingest_xml(collection, s),
    }
}

fn setup(seed: u64, base: usize) -> Loaded {
    let imp = Impliance::boot(config());
    let mut stream = IngestStream::new(seed);
    let mut ledger = Ledger::default();
    for _ in 0..base {
        if let IngestOp::Insert {
            seq,
            collection,
            input,
        } = stream.next_op(false)
        {
            let id = ingest_input(&imp, collection, &input).expect("base load");
            ledger.set(seq, (id, Version(1), gen::marker(seq)));
        }
    }
    imp.quiesce();
    Loaded {
        imp,
        stream,
        ledger,
    }
}

/// Storage commit time inside one traced call, read from the storage
/// engine's own commit-latency histogram.
fn commit_us() -> u64 {
    impliance_obs::global()
        .metrics()
        .histogram("storage.put.us", &LATENCY_BUCKETS_US)
        .sum()
}

fn replay_fetches(s: &mut Session, imp: &Impliance, span: SpanRef, ids: &[DocId]) {
    let epoch = imp.storage().current_epoch();
    s.child(span, "storage", "fetch", || {
        ids.iter()
            .filter(|id| matches!(imp.storage().get_latest_at(**id, epoch), Ok(Some(_))))
            .count()
    });
}

pub fn run(opts: &Opts) -> Report {
    let base = opts.scaled(BASE);
    let (loaded, setup_s) = timed_setups(opts.setup_reps, || setup(opts.seed, base));
    let Loaded {
        imp,
        mut stream,
        mut ledger,
    } = loaded;
    let imp = &imp;
    let mut rng = Rng::new(opts.seed ^ 0x16E57);
    let mut s = Session::new(opts.trace);
    let mut footprint = None;
    let mut maintain = (0.0, 0.0);
    let started = Instant::now();
    let mut r = 0;
    while opts.budget.more(started, r) {
        s.begin_round(r);
        let mut batch: Vec<usize> = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let op = stream.next_op(true);
            let before = commit_us();
            match op {
                IngestOp::Insert {
                    seq,
                    collection,
                    input,
                } => {
                    let key = ["json", "text", "email", "xml"]
                        .iter()
                        .position(|f| *f == input.format())
                        .unwrap_or(0);
                    let (res, span) = s.call("ingest", key, "core", "ingest", || {
                        ingest_input(imp, collection, &input)
                    });
                    s.check(res.is_ok(), || format!("ingest #{seq}"));
                    if let Ok(id) = res {
                        ledger.set(seq, (id, Version(1), gen::marker(seq)));
                        batch.push(seq);
                    }
                    if let Some(span) = span {
                        let commit = commit_us() - before;
                        s.child(span, "docmodel", "parse", || input.parse());
                        s.child_measured(
                            span,
                            "storage",
                            "commit",
                            std::time::Duration::from_micros(commit),
                        );
                    }
                }
                IngestOp::Update {
                    target,
                    seq,
                    json: body,
                } => {
                    let Some((id, v, _)) = ledger.docs[target].clone() else {
                        continue;
                    };
                    let node = json::parse(&body).expect("generated JSON parses");
                    let (res, span) =
                        s.call("ingest", 4, "core", "update", || imp.update(id, node));
                    let ok = matches!(res, Ok(nv) if nv == Version(v.0 + 1));
                    s.check(ok, || format!("update #{target} to v{}", v.0 + 1));
                    if let Ok(nv) = res {
                        ledger.set(target, (id, nv, gen::marker(seq)));
                        batch.push(target);
                    }
                    if let Some(span) = span {
                        let commit = commit_us() - before;
                        s.child(span, "docmodel", "parse", || json::parse(&body).is_ok());
                        s.child_measured(
                            span,
                            "storage",
                            "commit",
                            std::time::Duration::from_micros(commit),
                        );
                    }
                }
            }
        }
        let acked = imp.storage().current_epoch();
        let ids: Vec<DocId> = batch
            .iter()
            .filter_map(|q| ledger.docs[*q].as_ref().map(|e| e.0))
            .collect();
        // freshness: from the last ack until the index covers the batch
        let (records, span) = s.call("fresh", 0, "index", "run_indexing", || {
            imp.run_indexing(None)
        });
        s.check(imp.index_epoch() >= acked, || {
            format!("index_epoch {} < {acked}", imp.index_epoch())
        });
        if let Some(span) = span {
            replay_fetches(&mut s, imp, span, &ids);
        }
        if let Some(fresh) = s.last("fresh", 0) {
            if s.mode == Mode::Plain {
                maintain.0 += records as f64;
                maintain.1 += fresh;
            }
        }
        let (_, span) = s.call("discover", 0, "annotate", "run_discovery", || {
            imp.run_discovery(None)
        });
        s.check(imp.annotation_epoch() >= acked, || {
            format!("annotation_epoch {} < {acked}", imp.annotation_epoch())
        });
        if let Some(span) = span {
            replay_fetches(&mut s, imp, span, &ids);
        }
        for q in &batch {
            let Some((id, v, marker)) = ledger.docs[*q].clone() else {
                continue;
            };
            let (got, span) = s.call("get", 0, "core", "get", || imp.get(id));
            // readable at its latest version, and searchable by the
            // marker that version carries
            let idx = imp.text_index();
            let found = search_topk(idx, &SearchQuery::new(marker.as_str(), 4))
                .0
                .iter()
                .any(|h| h.id == id);
            let ok = matches!(&got, Ok(Some(d)) if d.id() == id && d.version() == v) && found;
            s.check(ok, || format!("fresh read {id:?} v{}", v.0));
            if let Some(span) = span {
                s.child(span, "storage", "get_latest", || {
                    imp.storage().get_latest(id).ok()
                });
            }
        }
        for j in 0..2 {
            let q = if j == 0 {
                let pick = batch[rng.below(batch.len() as u64) as usize];
                ledger.docs[pick]
                    .as_ref()
                    .map_or_else(String::new, |e| e.2.clone())
            } else {
                format!("{} inspection", gen::TAIL_TERMS[r % gen::TAIL_TERMS.len()])
            };
            let (res, span) = s.call("search", j, "core", "query", || {
                imp.query(
                    QueryRequest::builder("")
                        .match_text("*", q.as_str())
                        .top_k(10)
                        .build(),
                )
            });
            let want = reference_topk(imp, &q, None, 10);
            let got = res.as_ref().map(scored_rows);
            let ok = got.as_ref().is_ok_and(|g| *g == want && !want.is_empty());
            s.check(ok, || format!("search {q}: got {got:?}, want {want:?}"));
            if let Ok(resp) = &res {
                s.tally_query(resp, r == 0);
                if let Some(span) = span {
                    replay_query(&mut s, imp, span, "", Some(10), &[], resp);
                }
            }
        }
        r += 1;
        if r == FOOTPRINT_AT {
            footprint = Some((
                imp.storage().stored_bytes() as f64,
                stream.input_bytes as f64,
                stream.digest.0,
                peak_rss_mb(),
            ));
        }
    }
    let (stored_bytes, input_bytes, digest, rss_mb) = footprint.unwrap_or((
        imp.storage().stored_bytes() as f64,
        stream.input_bytes as f64,
        stream.digest.0,
        peak_rss_mb(),
    ));
    let stats = imp.discovery_stats();
    let links_per_doc = stats.relationships as f64 / (stats.docs_processed as f64).max(1.0);
    let probes = if opts.trace {
        let mut sample = IngestStream::new(opts.seed);
        let inputs: Vec<Input> = (0..500)
            .filter_map(|_| match sample.next_op(false) {
                IngestOp::Insert { input, .. } => Some(input),
                IngestOp::Update { .. } => None,
            })
            .collect();
        let ids: Vec<DocId> = ledger
            .docs
            .iter()
            .flatten()
            .map(|e| e.0)
            .rev()
            .take(500)
            .collect();
        let terms: Vec<String> = gen::TAIL_TERMS
            .iter()
            .map(|t| format!("{t} inspection"))
            .collect();
        crate::probe::run(&crate::probe::ProbeSet {
            imp,
            inputs: &inputs,
            ids: &ids,
            terms: &terms,
            scan: ("claims", 0),
        })
    } else {
        Vec::new()
    };
    finish(
        s,
        Finish {
            setup_s,
            stored_bytes,
            input_bytes,
            digest,
            probes,
            maintain,
            links_per_doc,
            rss_mb: Some(rss_mb),
            workload: "ingest",
        },
    )
}
