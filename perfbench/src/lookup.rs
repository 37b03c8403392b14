//! `lookup`: point reads, top-k searches and hybrid queries over a
//! sealed, compressed, fully indexed text-heavy corpus.
//!
//! Each round runs many `get`s on Zipf-skewed ids, top-k text searches
//! over head and tail terms (so candidate sets vary in size) and one
//! hybrid query (a match clause plus a SQL predicate). There is no
//! collection scan and no write: time goes to sealed point reads, the
//! inverted index and fusion.

use std::collections::BTreeMap;
use std::time::Instant;

use impliance_core::{Impliance, QueryRequest, QueryResponse};
use impliance_docmodel::DocId;

use crate::gen::{self, LookupCorpus, Rng, Zipf};
use crate::session::{config, replay_query, Session};
use crate::{
    as_i64, finish, reference_topk, scored_rows, timed_setups, Finish, Maintain, Opts, Report,
};

pub const CLAIMS: usize = 8_000;
pub const TRANSCRIPTS: usize = 5_000;
pub const EMAILS: usize = 3_000;
/// Point reads per round.
const GETS: usize = 32;

struct Loaded {
    imp: Impliance,
    /// Stored id of every corpus document, in corpus order.
    ids: Vec<DocId>,
    maintain: Maintain,
}

fn setup(c: &LookupCorpus) -> Loaded {
    let imp = Impliance::boot(config());
    let mut maintain = Maintain::default();
    let mut ids = Vec::with_capacity(c.docs.len());
    for (k, (collection, input)) in c.docs.iter().enumerate() {
        let id = match input {
            gen::Input::Json(s) => imp.ingest_json(collection, s),
            gen::Input::Text(s) => imp.ingest_text(collection, s),
            gen::Input::Email(s) => imp.ingest_email(collection, s),
            gen::Input::Xml(s) => imp.ingest_xml(collection, s),
        };
        ids.push(id.expect("lookup load"));
        maintain.every(&imp, k);
    }
    maintain.drain(&imp);
    imp.storage().seal_all();
    Loaded { imp, ids, maintain }
}

/// The search pool: head terms (long posting lists), tail terms and
/// head+tail pairs (short ones).
fn search_pool() -> Vec<String> {
    let mut out: Vec<String> = gen::HEAD_TERMS.iter().map(|h| h.to_string()).collect();
    for (i, t) in gen::TAIL_TERMS.iter().enumerate() {
        let h = gen::HEAD_TERMS[i % gen::HEAD_TERMS.len()];
        out.push(t.to_string());
        out.push(format!("{h} {t}"));
    }
    out
}

/// A hybrid statement: the claims over an amount threshold, ranked by a
/// tail term in their notes.
struct Hybrid {
    sql: String,
    term: &'static str,
    /// Expected `claim_id`s, best first.
    want: Vec<i64>,
}

fn hybrid_pool(imp: &Impliance, c: &LookupCorpus, ids: &[DocId], seed: u64) -> Vec<Hybrid> {
    let mut rng = Rng::new(seed ^ 0x4B1D);
    let claim_of: BTreeMap<i64, usize> = ids
        .iter()
        .take(c.claims.len())
        .enumerate()
        .map(|(k, id)| (id.0 as i64, k))
        .collect();
    (0..gen::TAIL_TERMS.len())
        .map(|i| {
            let term = gen::TAIL_TERMS[i];
            let t = rng.range(1_000, 4_500);
            // every scored hit in the notes, no pruning; keep the claims
            // over the threshold, best first
            let want = reference_topk(imp, term, Some("notes"), usize::MAX)
                .into_iter()
                .filter_map(|(id, _)| claim_of.get(&id))
                .filter(|k| c.claims[**k].amount >= t)
                .take(10)
                .map(|k| c.claims[*k].claim_id)
                .collect();
            Hybrid {
                sql: format!("SELECT claim_id, amount FROM claims WHERE amount >= {t}"),
                term,
                want,
            }
        })
        .collect()
}

fn claim_ids(resp: &QueryResponse) -> Vec<i64> {
    resp.rows()
        .iter()
        .filter_map(|r| as_i64(r.get("claim_id")))
        .collect()
}

pub fn run(opts: &Opts) -> Report {
    let corpus = gen::lookup_corpus(
        opts.seed,
        opts.scaled(CLAIMS),
        opts.scaled(TRANSCRIPTS),
        opts.scaled(EMAILS),
    );
    let (loaded, setup_s) = timed_setups(opts.setup_reps, || setup(&corpus));
    let imp = &loaded.imp;
    let searches = search_pool();
    let hybrids = hybrid_pool(imp, &corpus, &loaded.ids, opts.seed);
    let mut reference: BTreeMap<String, Vec<(i64, f64)>> = BTreeMap::new();
    let mut rng = Rng::new(opts.seed ^ 0x100C);
    // Zipf rank → document: a seeded shuffle, so the hot documents are
    // spread over partitions and segments
    let mut order: Vec<usize> = (0..loaded.ids.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let zipf = Zipf::new(order.len());
    let mut s = Session::new(opts.trace);
    let started = Instant::now();
    let mut r = 0;
    while opts.budget.more(started, r) {
        s.begin_round(r);
        for _ in 0..GETS {
            let k = order[zipf.sample(&mut rng)];
            let id = loaded.ids[k];
            let (got, span) = s.call("get", 0, "core", "get", || imp.get(id));
            let ok = matches!(&got, Ok(Some(d)) if d.id() == id && d.version().0 == 1
                && d.collection() == corpus.docs[k].0);
            s.check(ok, || format!("get {id:?}"));
            if let Some(span) = span {
                s.child(span, "storage", "get_latest", || {
                    imp.storage().get_latest(id).ok()
                });
            }
        }
        for j in 0..4 {
            let key = (4 * r + j) % searches.len();
            let q = &searches[key];
            let (res, span) = s.call("search", key, "core", "query", || {
                imp.query(
                    QueryRequest::builder("")
                        .match_text("*", q.as_str())
                        .top_k(10)
                        .build(),
                )
            });
            let want = reference
                .entry(q.clone())
                .or_insert_with(|| reference_topk(imp, q, None, 10));
            let got = res.as_ref().map(scored_rows);
            let ok = got.as_ref().is_ok_and(|g| g == want);
            s.check(ok, || format!("search {q}: got {got:?}, want {want:?}"));
            if let Ok(resp) = &res {
                s.tally_query(resp, r == 0);
                if let Some(span) = span {
                    replay_query(&mut s, imp, span, "", Some(10), &[], resp);
                }
            }
        }
        let key = r % hybrids.len();
        let h = &hybrids[key];
        let (res, span) = s.call("hybrid", key, "core", "query", || {
            imp.query(
                QueryRequest::builder(h.sql.as_str())
                    .match_text("notes", h.term)
                    .top_k(10)
                    .build(),
            )
        });
        let ok = res.as_ref().is_ok_and(|resp| claim_ids(resp) == h.want);
        s.check(ok, || format!("hybrid {} / {}", h.sql, h.term));
        if let Ok(resp) = &res {
            s.tally_query(resp, r == 0);
            if let Some(span) = span {
                let paths = ["claim_id".to_string(), "amount".to_string()];
                replay_query(&mut s, imp, span, &h.sql, Some(10), &paths, resp);
            }
        }
        r += 1;
    }
    let probes = if opts.trace {
        let step = (corpus.docs.len() / 500).max(1);
        let inputs: Vec<gen::Input> = corpus
            .docs
            .iter()
            .step_by(step)
            .map(|(_, i)| i.clone())
            .collect();
        let ids: Vec<DocId> = loaded.ids.iter().step_by(step).copied().collect();
        crate::probe::run(&crate::probe::ProbeSet {
            imp,
            inputs: &inputs,
            ids: &ids,
            terms: &searches,
            scan: ("claims", 4_500),
        })
    } else {
        Vec::new()
    };
    finish(
        s,
        Finish {
            setup_s,
            stored_bytes: imp.storage().stored_bytes() as f64,
            input_bytes: corpus.input_bytes as f64,
            digest: corpus.digest.0,
            probes,
            maintain: (loaded.maintain.records as f64, loaded.maintain.us),
            links_per_doc: 0.0,
            rss_mb: None,
            workload: "lookup",
        },
    )
}
