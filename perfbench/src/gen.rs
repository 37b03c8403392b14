//! Seeded input generation and the oracles that check the appliance's
//! answers.
//!
//! Everything the appliance receives is produced here from the workload
//! seed; the expected answers (counts, sums, groups, join cardinalities,
//! top-n values, ids and versions) are computed from the same generated
//! inputs, never from the appliance.

use std::collections::BTreeMap;

use impliance_annotate::scan::{FIRST_NAMES, LOCATIONS};
use impliance_docmodel::{email_to_document, json, text_to_document, xml, DocId};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Zipf(s = 1) sampler over ranks `0..n` (rank 0 most frequent).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for r in 0..n {
            acc += 1.0 / (r as f64 + 1.0);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// FNV-1a over every generated input byte: the input digest the
/// determinism tests compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
        // field separator, so ("ab","c") and ("a","bc") differ
        self.0 = (self.0 ^ 0xFF).wrapping_mul(0x0100_0000_01B3);
    }
}

const SURNAMES: &[&str] = &[
    "Anderson", "Baker", "Chen", "Davis", "Engel", "Fischer", "Garcia", "Hopper", "Ishikawa",
    "Johnson", "Kim", "Lovelace", "Miller", "Nguyen", "Olsen", "Patel", "Quinn", "Rivera", "Smith",
    "Turing",
];

pub const MAKES: &[&str] = &["Volvo", "Saab", "Tesla", "Ford", "Fiat", "Skoda"];

/// Words every claim note carries with high probability (large
/// posting lists: top-k pruning matters).
pub const HEAD_TERMS: &[&str] = &["damage", "estimate", "inspection", "vehicle"];

/// Rare words (short posting lists: selective searches).
pub const TAIL_TERMS: &[&str] = &[
    "bumper",
    "windshield",
    "hood",
    "mirror",
    "fender",
    "radiator",
    "axle",
    "tailgate",
    "sunroof",
    "chassis",
    "headlamp",
    "muffler",
];

const MOODS: &[&str] = &[
    "the unit arrived broken and I am very disappointed",
    "the replacement works great and I am very happy",
    "please confirm the shipping address on file",
    "support was unhelpful and I am quite upset",
    "excellent service, thanks for the quick turnaround",
    "the manual mentions a firmware update procedure",
];

const PARTNERS: &[&str] = &["Acme Widgets Inc.", "Globex Corp", "Initech LLC"];

fn person(rng: &mut Rng) -> String {
    format!("{} {}", rng.pick(FIRST_NAMES), rng.pick(SURNAMES))
}

fn product(rng: &mut Rng) -> String {
    format!(
        "{}-{}",
        rng.pick(&["BX", "AX", "CW", "DZ", "MK"]),
        rng.range(100, 9999)
    )
}

/// One nested insurance claim.
#[derive(Debug, Clone)]
pub struct Claim {
    pub claim_id: i64,
    pub city: String,
    pub amount: i64,
    pub make: &'static str,
    pub year: i64,
    pub json: String,
}

/// Generate claim `k` of `n`. Amounts trend upward with `k` (claims
/// arrive roughly in amount order), so segment zone maps on `amount`
/// can prune a threshold filter.
pub fn claim(rng: &mut Rng, k: usize, n: usize) -> Claim {
    let claimant = person(rng);
    let city = rng.pick(LOCATIONS).to_string();
    let amount = (k as i64 * 5_000) / n.max(1) as i64 + rng.range(0, 500);
    let make = *rng.pick(MAKES);
    let year = rng.range(1995, 2007);
    let mut words: Vec<&str> = Vec::new();
    for h in HEAD_TERMS {
        if rng.chance(4, 5) {
            words.push(h);
        }
    }
    let mut tails: Vec<&'static str> = Vec::new();
    for _ in 0..rng.range(1, 3) {
        let t = *rng.pick(TAIL_TERMS);
        if !tails.contains(&t) {
            tails.push(t);
        }
    }
    words.extend(tails.iter().copied());
    let padding = rng.range(0, 8) as usize;
    words.extend(std::iter::repeat_n("routine", padding));
    let json = format!(
        r#"{{"claim_id": {k}, "claimant": "{claimant}", "city": "{city}", "amount": {amount}, "vehicle": {{"make": "{make}", "year": {year}}}, "notes": "{} filed in {city}: {}."}}"#,
        claimant,
        words.join(" ")
    );
    Claim {
        claim_id: k as i64,
        city,
        amount,
        make,
        year,
        json,
    }
}

/// A call-center transcript (plain text).
pub fn transcript(rng: &mut Rng, marker: &str) -> String {
    format!(
        "Call transcript {marker}: {} calling from {} about product {}. Customer said: {}. \
         Vehicle damage {} noted.",
        person(rng),
        rng.pick(LOCATIONS),
        product(rng),
        rng.pick(MOODS),
        rng.pick(TAIL_TERMS)
    )
}

/// An RFC-2822-ish e-mail.
pub fn email(rng: &mut Rng, marker: &str) -> String {
    let from = person(rng).to_lowercase().replace(' ', ".");
    let to = person(rng).to_lowercase().replace(' ', ".");
    let partner = rng.pick(PARTNERS);
    format!(
        "From: {from}@example.com\nTo: {to}@example.com\nSubject: {partner} contract {marker}\n\n\
         Regarding our agreement with {partner}: delivery of {} is confirmed. \
         The inspection estimate is attached.\n",
        product(rng)
    )
}

/// A small XML purchase note.
pub fn xml(rng: &mut Rng, marker: &str) -> String {
    format!(
        "<note><ref>{marker}</ref><from>{}</from><city>{}</city><sku>{}</sku>\
         <qty>{}</qty></note>",
        person(rng),
        rng.pick(LOCATIONS),
        product(rng),
        rng.range(1, 20)
    )
}

/// The analytics corpus: claims plus orders and customers for the join.
#[derive(Debug, Clone)]
pub struct AnalyticsCorpus {
    pub claims: Vec<Claim>,
    /// (cust code, amount, json)
    pub orders: Vec<(String, i64, String)>,
    /// (code, json)
    pub customers: Vec<(String, String)>,
    pub digest: Digest,
    pub input_bytes: usize,
}

pub fn analytics_corpus(
    seed: u64,
    n_claims: usize,
    n_orders: usize,
    n_cust: usize,
) -> AnalyticsCorpus {
    let mut rng = Rng::new(seed);
    let mut digest = Digest::default();
    let mut input_bytes = 0;
    let claims: Vec<Claim> = (0..n_claims)
        .map(|k| {
            let c = claim(&mut rng, k, n_claims);
            digest.feed(c.json.as_bytes());
            input_bytes += c.json.len();
            c
        })
        .collect();
    let customers: Vec<(String, String)> = (0..n_cust)
        .map(|c| {
            let code = format!("C-{c}");
            let json = format!(
                r#"{{"code": "{code}", "name": "{}", "city": "{}"}}"#,
                person(&mut rng),
                rng.pick(LOCATIONS)
            );
            digest.feed(json.as_bytes());
            input_bytes += json.len();
            (code, json)
        })
        .collect();
    // about a tenth of the orders reference a customer that does not
    // exist, so the join drops rows and its cardinality is a real check
    let orders: Vec<(String, i64, String)> = (0..n_orders)
        .map(|k| {
            let cust = format!("C-{}", rng.below((n_cust + n_cust / 10).max(1) as u64));
            let amount = rng.range(1, 1_000);
            let json = format!(
                r#"{{"order_id": {k}, "cust": "{cust}", "sku": "{}", "amount": {amount}}}"#,
                product(&mut rng)
            );
            digest.feed(json.as_bytes());
            input_bytes += json.len();
            (cust, amount, json)
        })
        .collect();
    AnalyticsCorpus {
        claims,
        orders,
        customers,
        digest,
        input_bytes,
    }
}

/// What a SQL statement must return.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Row count and the sum of one numeric column.
    CountSum {
        rows: usize,
        col: &'static str,
        sum: i64,
    },
    /// A single `n` row.
    Count(i64),
    /// `group` key → `total` over all groups.
    Groups { sums: BTreeMap<String, i64> },
    /// The ordered values of one column (top-n).
    Ordered { col: &'static str, values: Vec<i64> },
}

/// One SQL class of the analytics workload and its statement pool.
#[derive(Debug, Clone)]
pub struct SqlClass {
    pub name: &'static str,
    pub pool: Vec<(String, Expect)>,
}

fn sorted(values: impl Iterator<Item = i64>) -> Vec<i64> {
    let mut v: Vec<i64> = values.collect();
    v.sort_unstable();
    v
}

/// The value at quantile `q` of an ascending, non-empty slice.
fn at_quantile(sorted: &[i64], q: f64) -> i64 {
    sorted[((q * sorted.len() as f64) as usize).min(sorted.len() - 1)]
}

/// Build the statement pool of every SQL class, with the answer of each
/// statement computed from the corpus. Thresholds sit at fixed quantiles
/// of the generated values, so the statements of one class do about the
/// same work and a class's latency does not hinge on which statement a
/// sample happened to run.
pub fn sql_pool(corpus: &AnalyticsCorpus, per_class: usize) -> Vec<SqlClass> {
    let claims = &corpus.claims;
    let amounts = sorted(claims.iter().map(|c| c.amount));
    let quantile = |q: f64| at_quantile(&amounts, q);
    let mut classes = Vec::new();
    let mut pool = Vec::new();
    for i in 0..per_class {
        let t = quantile(0.88 + 0.02 * i as f64);
        let hit: Vec<&Claim> = claims.iter().filter(|c| c.amount >= t).collect();
        pool.push((
            format!("SELECT claim_id, amount FROM claims WHERE amount >= {t}"),
            Expect::CountSum {
                rows: hit.len(),
                col: "amount",
                sum: hit.iter().map(|c| c.amount).sum(),
            },
        ));
    }
    classes.push(SqlClass {
        name: "filter",
        pool,
    });
    let projections = [
        "claim_id, claimant, city, amount, vehicle.make AS make, vehicle.year AS year",
        "vehicle.year AS year, amount, city, claimant, claim_id",
        "claimant, vehicle.make AS make, vehicle.year AS year, city, amount",
    ];
    let pool = (0..per_class)
        .map(|i| {
            (
                format!("SELECT {} FROM claims", projections[i % projections.len()]),
                Expect::CountSum {
                    rows: claims.len(),
                    col: "year",
                    sum: claims.iter().map(|c| c.year).sum(),
                },
            )
        })
        .collect();
    classes.push(SqlClass {
        name: "project",
        pool,
    });
    let pool = (0..per_class)
        .map(|i| {
            // COUNT(*) over (nearly) every claim: a full scan each time
            let t = quantile(0.01 * i as f64);
            (
                format!("SELECT COUNT(*) AS n FROM claims WHERE amount >= {t}"),
                Expect::Count(claims.iter().filter(|c| c.amount >= t).count() as i64),
            )
        })
        .collect();
    classes.push(SqlClass {
        name: "count",
        pool,
    });
    let pool = (0..per_class)
        .map(|i| {
            let (sql, by_make) = if i % 2 == 0 {
                (
                    "SELECT vehicle.make AS make, SUM(amount) AS total FROM claims GROUP BY vehicle.make",
                    true,
                )
            } else {
                ("SELECT city, SUM(amount) AS total FROM claims GROUP BY city", false)
            };
            let mut sums = BTreeMap::new();
            for c in claims {
                let k = if by_make { c.make.to_string() } else { c.city.clone() };
                *sums.entry(k).or_insert(0) += c.amount;
            }
            (sql.to_string(), Expect::Groups { sums })
        })
        .collect();
    classes.push(SqlClass {
        name: "group",
        pool,
    });
    let known: std::collections::BTreeSet<&str> =
        corpus.customers.iter().map(|(c, _)| c.as_str()).collect();
    let order_amounts = sorted(corpus.orders.iter().map(|(_, a, _)| *a));
    let pool = (0..per_class)
        .map(|i| {
            let t = at_quantile(&order_amounts, 0.45 + 0.03 * i as f64);
            let hit: Vec<i64> = corpus
                .orders
                .iter()
                .filter(|(c, a, _)| *a >= t && known.contains(c.as_str()))
                .map(|(_, a, _)| *a)
                .collect();
            (
                format!(
                    "SELECT c.city AS city, o.amount AS amount FROM orders o JOIN customers c \
                     ON o.cust = c.code WHERE o.amount >= {t}"
                ),
                Expect::CountSum {
                    rows: hit.len(),
                    col: "amount",
                    sum: hit.iter().sum(),
                },
            )
        })
        .collect();
    classes.push(SqlClass { name: "join", pool });
    let pool = (0..per_class)
        .map(|i| {
            let desc = i % 2 == 0;
            let y = if i < 2 { 0 } else { 1994 + i as i64 };
            let mut amounts: Vec<i64> = claims
                .iter()
                .filter(|c| c.year >= y)
                .map(|c| c.amount)
                .collect();
            amounts.sort_unstable();
            if desc {
                amounts.reverse();
            }
            amounts.truncate(10);
            (
                format!(
                    "SELECT claim_id, amount FROM claims WHERE vehicle.year >= {y} \
                     ORDER BY amount{} LIMIT 10",
                    if desc { " DESC" } else { "" }
                ),
                Expect::Ordered {
                    col: "amount",
                    values: amounts,
                },
            )
        })
        .collect();
    classes.push(SqlClass { name: "topn", pool });
    classes
}

/// One document of the mixed-format text corpora.
#[derive(Debug, Clone)]
pub enum Input {
    Json(String),
    Text(String),
    Email(String),
    Xml(String),
}

impl Input {
    pub fn body(&self) -> &str {
        match self {
            Input::Json(s) | Input::Text(s) | Input::Email(s) | Input::Xml(s) => s,
        }
    }

    /// Parse the input the way its ingest path does (the docmodel
    /// layer); true when it yields a document.
    pub fn parse(&self) -> bool {
        match self {
            Input::Json(s) => json::parse(s).is_ok(),
            Input::Xml(s) => xml::parse(s).is_ok(),
            Input::Text(s) => text_to_document(DocId(0), "p", s, 0).root().leaf_count() > 0,
            Input::Email(s) => email_to_document(DocId(0), "p", s, 0).root().leaf_count() > 0,
        }
    }

    pub fn format(&self) -> &'static str {
        match self {
            Input::Json(_) => "json",
            Input::Text(_) => "text",
            Input::Email(_) => "email",
            Input::Xml(_) => "xml",
        }
    }
}

/// The lookup corpus: claims (JSON), transcripts (text) and e-mails.
#[derive(Debug, Clone)]
pub struct LookupCorpus {
    /// (collection, input); claims first, so `claims[i]` is `docs[i]`.
    pub docs: Vec<(&'static str, Input)>,
    pub claims: Vec<Claim>,
    pub digest: Digest,
    pub input_bytes: usize,
}

pub fn lookup_corpus(
    seed: u64,
    n_claims: usize,
    n_transcripts: usize,
    n_emails: usize,
) -> LookupCorpus {
    let mut rng = Rng::new(seed);
    let mut digest = Digest::default();
    let mut input_bytes = 0;
    let claims: Vec<Claim> = (0..n_claims)
        .map(|k| claim(&mut rng, k, n_claims))
        .collect();
    let mut docs: Vec<(&'static str, Input)> = claims
        .iter()
        .map(|c| ("claims", Input::Json(c.json.clone())))
        .collect();
    for k in 0..n_transcripts {
        docs.push((
            "transcripts",
            Input::Text(transcript(&mut rng, &format!("t{k}"))),
        ));
    }
    for k in 0..n_emails {
        docs.push(("emails", Input::Email(email(&mut rng, &format!("m{k}")))));
    }
    for (_, d) in &docs {
        digest.feed(d.body().as_bytes());
        input_bytes += d.body().len();
    }
    LookupCorpus {
        docs,
        claims,
        digest,
        input_bytes,
    }
}

/// A unique, index-visible token for the `k`-th streamed document.
pub fn marker(k: usize) -> String {
    format!("zq{k}x")
}

/// One streamed ingest operation.
#[derive(Debug, Clone)]
pub enum IngestOp {
    /// Insert a new document (its `marker` is `marker(seq)`).
    Insert {
        seq: usize,
        collection: &'static str,
        input: Input,
    },
    /// New version of the document inserted as `target` (a stream
    /// sequence number), with a fresh JSON body.
    Update {
        target: usize,
        seq: usize,
        json: String,
    },
}

/// The ingest stream generator: mixed formats, a share of versioned
/// updates to recently inserted documents.
#[derive(Debug, Clone)]
pub struct IngestStream {
    rng: Rng,
    next_seq: usize,
    /// Sequence numbers of inserted documents, in order.
    inserted: Vec<usize>,
    pub digest: Digest,
    pub input_bytes: usize,
}

impl IngestStream {
    pub fn new(seed: u64) -> IngestStream {
        IngestStream {
            rng: Rng::new(seed ^ 0x001A_6E57),
            next_seq: 0,
            inserted: Vec::new(),
            digest: Digest::default(),
            input_bytes: 0,
        }
    }

    /// The next operation; `updates` enables versioned updates.
    pub fn next_op(&mut self, updates: bool) -> IngestOp {
        let seq = self.next_seq;
        self.next_seq += 1;
        let m = marker(seq);
        let op = if updates && self.inserted.len() > 16 && self.rng.chance(1, 8) {
            let back = self.rng.below(16) as usize + 1;
            let target = self.inserted[self.inserted.len() - back];
            let c = claim(&mut self.rng, seq, 1);
            // the revision carries its own marker so search can see it
            let json = c
                .json
                .replacen("\"notes\": \"", &format!("\"notes\": \"{m} revised: "), 1);
            IngestOp::Update { target, seq, json }
        } else {
            let (collection, input) = match self.rng.below(4) {
                0 => {
                    let c = claim(&mut self.rng, seq, 1);
                    let json = c
                        .json
                        .replacen("\"notes\": \"", &format!("\"notes\": \"{m} "), 1);
                    ("claims", Input::Json(json))
                }
                1 => ("transcripts", Input::Text(transcript(&mut self.rng, &m))),
                2 => ("emails", Input::Email(email(&mut self.rng, &m))),
                _ => ("notes", Input::Xml(xml(&mut self.rng, &m))),
            };
            self.inserted.push(seq);
            IngestOp::Insert {
                seq,
                collection,
                input,
            }
        };
        let body = match &op {
            IngestOp::Insert { input, .. } => input.body(),
            IngestOp::Update { json, .. } => json,
        };
        self.digest.feed(body.as_bytes());
        self.input_bytes += body.len();
        op
    }
}
