//! Per-layer unit costs, measured in the traced run by calling each
//! layer's public functions from outside on the workload's own data.

use std::time::Instant;

use impliance_annotate::{scan_entities, EntityResolver};
use impliance_core::Impliance;
use impliance_docmodel::DocId;
use impliance_index::{search_topk, InvertedIndex, SearchQuery};
use impliance_query::Priority;
use impliance_storage::codec::{decode_document, encode_document_vec};
use impliance_storage::{Predicate, ScanPos, ScanRequest};
use impliance_virt::{TenantId, WorkloadConfig, WorkloadManager};

use crate::gen::Input;
use crate::session::us;
use crate::stats::median;

/// What the probes run over.
pub struct ProbeSet<'a> {
    pub imp: &'a Impliance,
    /// Raw inputs, in the workload's format mix.
    pub inputs: &'a [Input],
    /// Stored document ids.
    pub ids: &'a [DocId],
    /// Search strings.
    pub terms: &'a [String],
    /// Scanned collection and the amount threshold of its filter.
    pub scan: (&'a str, i64),
}

fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let v: Vec<f64> = items
        .iter()
        .map(|x| {
            let t = Instant::now();
            f(x);
            us(t.elapsed())
        })
        .collect();
    median(&v).unwrap_or(0.0)
}

/// Run every probe; returns `(metric, value)` pairs.
pub fn run(p: &ProbeSet<'_>) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    out.push((
        "docmodel.parse_us",
        time_each(p.inputs, |i| {
            std::hint::black_box(i.parse());
        }),
    ));
    let storage = p.imp.storage();
    let docs: Vec<_> = p
        .ids
        .iter()
        .filter_map(|id| storage.get_latest(*id).ok().flatten())
        .collect();
    out.push((
        "storage.get_us",
        time_each(p.ids, |id| {
            std::hint::black_box(storage.get_latest(*id).ok());
        }),
    ));
    let encoded: Vec<Vec<u8>> = docs.iter().map(encode_document_vec).collect();
    out.push((
        "storage.decode_us_per_doc",
        time_each(&encoded, |b| {
            std::hint::black_box(decode_document(b, 0).ok());
        }),
    ));
    let (collection, threshold) = p.scan;
    let req = ScanRequest {
        predicate: Some(Predicate::And(vec![
            Predicate::CollectionIs(collection.to_string()),
            Predicate::Ge("amount".into(), impliance_docmodel::Value::Int(threshold)),
        ])),
        ..ScanRequest::default()
    };
    let paths = vec!["amount".to_string()];
    let mut scan_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for part in 0..storage.partition_count() {
            let mut pos = ScanPos::default();
            while let Ok((page, next, done)) =
                storage.scan_partition_page_columnar(part, &req, None, pos, 1024, &paths)
            {
                std::hint::black_box(page.len);
                pos = next;
                if done {
                    break;
                }
            }
        }
        scan_ms.push(us(t.elapsed()) / 1e3);
    }
    out.push(("storage.scan_ms", median(&scan_ms).unwrap_or(0.0)));
    let idx = p.imp.text_index();
    out.push((
        "index.search_us",
        time_each(p.terms, |q| {
            std::hint::black_box(search_topk(idx, &SearchQuery::new(q.as_str(), 10)));
        }),
    ));
    let scratch = InvertedIndex::new(8);
    out.push((
        "index.index_doc_us",
        time_each(&docs, |d| {
            scratch.index_document(d);
        }),
    ));
    let texts: Vec<String> = docs.iter().map(|d| d.root().full_text()).collect();
    out.push((
        "annotate.scan_entities_us",
        time_each(&texts, |t| {
            std::hint::black_box(scan_entities(t));
        }),
    ));
    let mentions: Vec<_> = texts.iter().map(|t| scan_entities(t)).collect();
    let mut resolver = EntityResolver::new(p.imp.config().resolution_threshold);
    let pairs: Vec<_> = docs.iter().map(|d| d.id()).zip(mentions.iter()).collect();
    out.push((
        "annotate.resolve_us",
        time_each(&pairs, |(id, m)| {
            std::hint::black_box(resolver.observe(*id, m));
        }),
    ));
    let wm = WorkloadManager::new(WorkloadConfig::default());
    let admits: Vec<u32> = (0..2_000).collect();
    out.push((
        "virt.admit_us",
        time_each(&admits, |_| {
            std::hint::black_box(wm.admit(TenantId(0), Priority::default(), None));
        }),
    ));
    out
}
