//! `analytics`: SQL over sealed, compressed nested claims.
//!
//! Setup loads about 20k claims plus orders and customers, seals every
//! partition (compressed) and drains the text index; it runs no
//! discovery. Each round runs one statement of every SQL class
//! (filter, project, count, group, join, topn), then a few point reads
//! and two text searches. Nearly all time is storage scan/decode and query
//! operators.

use std::collections::BTreeMap;
use std::time::Instant;

use impliance_core::{Impliance, QueryRequest, QueryResponse};
use impliance_docmodel::{DocId, Value};

use crate::gen::{self, AnalyticsCorpus, Expect, Rng, Zipf};
use crate::session::{config, replay_query, Session};
use crate::{
    as_i64, finish, reference_topk, scored_rows, timed_setups, Finish, Maintain, Opts, Report,
};

pub const CLAIMS: usize = 20_000;
pub const ORDERS: usize = 4_000;
pub const CUSTOMERS: usize = 400;
/// Statements per SQL class in the seeded pool.
const PER_CLASS: usize = 4;
/// Point reads per round.
const GETS: usize = 8;
/// Text searches per round.
const SEARCHES: usize = 2;

struct Loaded {
    imp: Impliance,
    claim_ids: Vec<DocId>,
    maintain: Maintain,
}

fn setup(c: &AnalyticsCorpus) -> Loaded {
    let imp = Impliance::boot(config());
    let mut maintain = Maintain::default();
    let mut claim_ids = Vec::with_capacity(c.claims.len());
    for (k, cl) in c.claims.iter().enumerate() {
        claim_ids.push(imp.ingest_json("claims", &cl.json).expect("claims load"));
        maintain.every(&imp, k);
    }
    for (_, json) in &c.customers {
        imp.ingest_json("customers", json).expect("customers load");
    }
    for (_, _, json) in &c.orders {
        imp.ingest_json("orders", json).expect("orders load");
    }
    maintain.drain(&imp);
    imp.storage().seal_all();
    Loaded {
        imp,
        claim_ids,
        maintain,
    }
}

/// Does a response match the expected answer?
pub fn matches(resp: &QueryResponse, expect: &Expect) -> bool {
    let rows = resp.rows();
    match expect {
        Expect::CountSum { rows: n, col, sum } => {
            rows.len() == *n
                && rows
                    .iter()
                    .map(|r| as_i64(r.get(col)).unwrap_or(i64::MIN / 4))
                    .sum::<i64>()
                    == *sum
        }
        Expect::Count(n) => rows.len() == 1 && as_i64(rows[0].get("n")) == Some(*n),
        Expect::Groups { sums } => {
            let got: BTreeMap<String, i64> = rows
                .iter()
                .filter_map(|r| match r.get("group") {
                    Value::Str(k) => Some((k.clone(), as_i64(r.get("total"))?)),
                    _ => None,
                })
                .collect();
            rows.len() == sums.len() && &got == sums
        }
        Expect::Ordered { col, values } => {
            rows.iter().map(|r| as_i64(r.get(col))).collect::<Vec<_>>()
                == values.iter().map(|v| Some(*v)).collect::<Vec<_>>()
        }
    }
}

/// Structural paths each class decodes (for the storage-scan replay).
fn paths(class: &str) -> Vec<String> {
    let p: &[&str] = match class {
        "filter" => &["claim_id", "amount"],
        "project" => &[
            "claim_id",
            "claimant",
            "city",
            "amount",
            "vehicle.make",
            "vehicle.year",
        ],
        "count" => &["vehicle.make"],
        "group" => &["vehicle.make", "city", "amount"],
        "join" => &["cust", "amount", "code", "city"],
        _ => &["claim_id", "amount", "vehicle.make"],
    };
    p.iter().map(|s| s.to_string()).collect()
}

pub fn run(opts: &Opts) -> Report {
    let corpus = gen::analytics_corpus(
        opts.seed,
        opts.scaled(CLAIMS),
        opts.scaled(ORDERS),
        opts.scaled(CUSTOMERS),
    );
    let classes = gen::sql_pool(&corpus, PER_CLASS);
    let (loaded, setup_s) = timed_setups(opts.setup_reps, || setup(&corpus));
    let imp = &loaded.imp;
    let mut rng = Rng::new(opts.seed ^ 0xA11);
    let zipf = Zipf::new(loaded.claim_ids.len());
    let searches: Vec<String> = gen::HEAD_TERMS[..2]
        .iter()
        .zip(gen::TAIL_TERMS)
        .flat_map(|(h, t)| [h.to_string(), t.to_string()])
        .collect();
    let mut reference: BTreeMap<String, Vec<(i64, f64)>> = BTreeMap::new();
    let mut s = Session::new(opts.trace);
    let started = Instant::now();
    let mut r = 0;
    while opts.budget.more(started, r) {
        s.begin_round(r);
        for class in &classes {
            let key = r % class.pool.len();
            let (sql, expect) = &class.pool[key];
            let (res, span) = s.call(class.name, key, "core", "query", || {
                imp.query(QueryRequest::builder(sql.as_str()).build())
            });
            let ok = res.as_ref().is_ok_and(|resp| matches(resp, expect));
            s.check(ok, || format!("{}: {sql}", class.name));
            if let Ok(resp) = &res {
                s.tally_query(resp, r == 0);
                if let Some(span) = span {
                    replay_query(&mut s, imp, span, sql, None, &paths(class.name), resp);
                }
            }
        }
        for _ in 0..GETS {
            let k = zipf.sample(&mut rng);
            let id = loaded.claim_ids[k];
            let (got, span) = s.call("get", 0, "core", "get", || imp.get(id));
            let ok = matches!(&got, Ok(Some(d)) if d.id() == id && d.version().0 == 1
                && d.root().get_str_path("claim_id").and_then(|n| n.as_value()).and_then(as_i64) == Some(k as i64));
            s.check(ok, || format!("get {id:?}"));
            if let Some(span) = span {
                s.child(span, "storage", "get_latest", || {
                    imp.storage().get_latest(id).ok()
                });
            }
        }
        for j in 0..SEARCHES {
            let key = (SEARCHES * r + j) % searches.len();
            let q = &searches[key];
            let (res, span) = s.call("search", key, "core", "query", || {
                imp.query(
                    QueryRequest::builder("")
                        .match_text("notes", q.as_str())
                        .top_k(10)
                        .build(),
                )
            });
            let want = reference
                .entry(q.clone())
                .or_insert_with(|| reference_topk(imp, q, Some("notes"), 10));
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
        r += 1;
    }
    let probes = if opts.trace {
        let inputs: Vec<gen::Input> = corpus
            .claims
            .iter()
            .step_by((corpus.claims.len() / 500).max(1))
            .map(|c| gen::Input::Json(c.json.clone()))
            .collect();
        let ids: Vec<DocId> = loaded
            .claim_ids
            .iter()
            .step_by((loaded.claim_ids.len() / 500).max(1))
            .copied()
            .collect();
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
            workload: "analytics",
        },
    )
}
