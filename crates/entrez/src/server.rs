//! The simulated Entrez information-retrieval server.
//!
//! Entrez circa 1995 offered exactly two operations, both reproduced here:
//! selection of whole ASN.1 values through **pre-computed indexes** ("a
//! simple syntax that uses boolean combinations of index-value pairs"), and
//! **pre-computed neighbor links** to similar sequences (`NA-Links` in the
//! paper). There is no server-side pruning — except the path extraction
//! the Penn group built into their driver, which this server applies
//! during the parse of each hit so only the pruned value crosses the wire.

use std::collections::{BTreeSet, HashMap};

use parking_lot::RwLock;

use kleisli_core::{
    BatchPolicy, Capabilities, DriverRequest, KError, KResult, LatencyModel, Remote,
    ResiliencePolicy, Source, Value,
};

use crate::path::Path;
use crate::query::{self, BoolQuery};

/// One stored entry: a uid plus its ASN.1 value.
#[derive(Debug, Clone)]
pub struct Entry {
    pub uid: i64,
    pub value: Value,
}

/// A precomputed similarity link.
#[derive(Debug, Clone)]
pub struct Link {
    pub uid: i64,
    pub score: f64,
    pub organism: String,
}

/// One "division" (database) of the server, e.g. `na` for nucleic acids.
#[derive(Debug, Default)]
pub struct Division {
    entries: Vec<Entry>,
    by_uid: HashMap<i64, usize>,
    /// index field → term → entry positions
    indexes: HashMap<String, HashMap<String, BTreeSet<usize>>>,
    links: HashMap<i64, Vec<Link>>,
}

impl Division {
    /// Add an entry with its index terms: `(field, term)` pairs.
    pub fn add_entry(
        &mut self,
        uid: i64,
        value: Value,
        terms: impl IntoIterator<Item = (String, String)>,
    ) -> KResult<()> {
        if self.by_uid.contains_key(&uid) {
            return Err(KError::format("entrez", format!("duplicate uid {uid}")));
        }
        let pos = self.entries.len();
        self.entries.push(Entry { uid, value });
        self.by_uid.insert(uid, pos);
        for (field, term) in terms {
            self.indexes
                .entry(field)
                .or_default()
                .entry(term.to_lowercase())
                .or_default()
                .insert(pos);
        }
        Ok(())
    }

    pub fn add_link(&mut self, from: i64, link: Link) {
        self.links.entry(from).or_default().push(link);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn eval_query(&self, q: &BoolQuery) -> BTreeSet<usize> {
        match q {
            BoolQuery::Term { field, term } => self
                .indexes
                .get(field)
                .and_then(|ix| ix.get(&term.to_lowercase()))
                .cloned()
                .unwrap_or_default(),
            BoolQuery::And(a, b) => {
                let sa = self.eval_query(a);
                let sb = self.eval_query(b);
                sa.intersection(&sb).copied().collect()
            }
            BoolQuery::Or(a, b) => {
                let sa = self.eval_query(a);
                let sb = self.eval_query(b);
                sa.union(&sb).copied().collect()
            }
            BoolQuery::Not(a) => {
                let sa = self.eval_query(a);
                (0..self.entries.len()).filter(|i| !sa.contains(i)).collect()
            }
        }
    }
}

/// The data half of the Entrez server: named divisions answering index
/// fetches and link lookups.
#[derive(Default)]
pub struct Entrez {
    divisions: RwLock<HashMap<String, Division>>,
}

/// The Entrez server: [`Entrez`] served through the shared remote-driver
/// shell, which adds latency/traffic accounting and enforces the paper's
/// "say five" tolerated concurrent requests advertised below.
pub type EntrezServer = Remote<Entrez>;

/// The paper's example: an Entrez server tolerating ~5 requests at once.
const ENTREZ_CONCURRENT_REQUESTS: usize = 5;

/// How many rows a pool worker keeps pulled ahead of the consumer per
/// request: a fixed window (`kleisli_core::pool`, "A fixed window").
/// ASN.1 entries are chunky; keep the window small. Advertised only
/// when the server's latency model charges a per-row transfer cost —
/// with instant rows there is no latency to hide.
pub const ENTREZ_PREFETCH_ROWS: usize = 16;

/// Keys per batched wire round-trip: the multi-uid fetch ceiling the
/// server advertises in [`Capabilities::batching`]. A 32-uid link
/// workload costs two wire requests instead of thirty-two.
pub const ENTREZ_BATCH_KEYS: usize = 16;

impl Source for Entrez {
    fn capabilities(&self, latency: &LatencyModel) -> Capabilities {
        Capabilities {
            sql: false,
            path_extraction: true,
            links: true,
            // the paper's example: a server tolerating ~5 requests at
            // once — enforced by the shell's admission gate
            max_concurrent_requests: ENTREZ_CONCURRENT_REQUESTS,
            // 0 unless the latency model realizes a real per-row sleep:
            // prefetch pipelines wall-clock transfer latency only.
            prefetch_rows: latency.effective_prefetch(ENTREZ_PREFETCH_ROWS),
            // a remote source: advertise retry + circuit breaking
            resilience: ResiliencePolicy::standard(),
            // multi-uid fetch: the rewriter may fold a per-element link
            // loop into ceil(n/16) wire round-trips (the shell's default
            // per-key pass under one request charge).
            batching: Some(BatchPolicy {
                max_keys: ENTREZ_BATCH_KEYS,
            }),
        }
    }

    fn answer(&self, driver: &str, req: &DriverRequest) -> KResult<Vec<Value>> {
        match req {
            DriverRequest::EntrezFetch { db, query, path } => self.fetch(driver, db, query, path),
            DriverRequest::EntrezLinks { db, uid } => self.links(driver, db, *uid),
            other => Err(KError::driver(
                driver,
                format!("unsupported request: {}", other.describe()),
            )),
        }
    }
}

impl Entrez {
    /// Mutable access to a division for loading data.
    pub fn with_division<R>(&self, db: &str, f: impl FnOnce(&mut Division) -> R) -> R {
        let mut divs = self.divisions.write();
        f(divs.entry(db.to_string()).or_default())
    }

    fn fetch(
        &self,
        driver: &str,
        db: &str,
        query: &str,
        path: &Option<String>,
    ) -> KResult<Vec<Value>> {
        let parsed = query::parse(query)?;
        let path = match path {
            Some(p) => Some(Path::parse(p)?),
            None => None,
        };
        let divs = self.divisions.read();
        let division = divs
            .get(db)
            .ok_or_else(|| KError::driver(driver, format!("no division '{db}'")))?;
        let hits = division.eval_query(&parsed);
        let mut out = Vec::with_capacity(hits.len());
        for pos in hits {
            let entry = &division.entries[pos];
            // Path extraction during the "parse" of the hit: only the
            // pruned value is shipped (and counted) downstream.
            let v = match &path {
                Some(p) => p.apply(&entry.value)?,
                None => entry.value.clone(),
            };
            out.push(v);
        }
        Ok(out)
    }

    fn links(&self, driver: &str, db: &str, uid: i64) -> KResult<Vec<Value>> {
        let divs = self.divisions.read();
        let division = divs
            .get(db)
            .ok_or_else(|| KError::driver(driver, format!("no division '{db}'")))?;
        if !division.by_uid.contains_key(&uid) {
            return Err(KError::driver(
                driver,
                format!("no entry with uid {uid} in '{db}'"),
            ));
        }
        Ok(division
            .links
            .get(&uid)
            .map(|ls| {
                ls.iter()
                    .map(|l| {
                        Value::record_from(vec![
                            ("uid", Value::Int(l.uid)),
                            ("score", Value::Float(l.score)),
                            ("organism", Value::str(&l.organism)),
                        ])
                    })
                    .collect()
            })
            .unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleisli_core::Driver;

    fn entry_value(acc: &str, giim: i64, org: &str) -> Value {
        Value::record_from(vec![
            (
                "seq",
                Value::record_from(vec![(
                    "id",
                    Value::set(vec![
                        Value::variant("giim", Value::Int(giim)),
                        Value::variant("accession", Value::str(acc)),
                    ]),
                )]),
            ),
            ("organism", Value::str(org)),
        ])
    }

    fn server() -> EntrezServer {
        let s = EntrezServer::serve("GenBank", Entrez::default(), LatencyModel::instant());
        s.with_division("na", |d| {
            for (i, (acc, org)) in [
                ("M81409", "human"),
                ("X52127", "mouse"),
                ("U03862", "human"),
            ]
            .iter()
            .enumerate()
            {
                d.add_entry(
                    i as i64 + 100,
                    entry_value(acc, i as i64 + 100, org),
                    vec![
                        ("accession".to_string(), acc.to_string()),
                        ("organism".to_string(), org.to_string()),
                    ],
                )
                .unwrap();
            }
            d.add_link(
                100,
                Link {
                    uid: 101,
                    score: 0.92,
                    organism: "mouse".into(),
                },
            );
            d.add_link(
                100,
                Link {
                    uid: 102,
                    score: 0.88,
                    organism: "human".into(),
                },
            );
        });
        s
    }

    fn collect(s: &EntrezServer, req: &DriverRequest) -> Vec<Value> {
        // exercise the two-phase path: submit, then redeem the handle
        s.submit(req)
            .unwrap()
            .wait()
            .unwrap()
            .collect::<KResult<_>>()
            .unwrap()
    }

    #[test]
    fn index_lookup_by_accession() {
        let s = server();
        let rows = collect(
            &s,
            &DriverRequest::EntrezFetch {
                db: "na".into(),
                query: "accession M81409".into(),
                path: None,
            },
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].project("organism"), Some(&Value::str("human")));
    }

    #[test]
    fn boolean_queries() {
        let s = server();
        let fetch = |q: &str| {
            collect(
                &s,
                &DriverRequest::EntrezFetch {
                    db: "na".into(),
                    query: q.into(),
                    path: None,
                },
            )
            .len()
        };
        assert_eq!(fetch("organism human"), 2);
        assert_eq!(fetch("organism human AND accession M81409"), 1);
        assert_eq!(fetch("organism human OR organism mouse"), 3);
        assert_eq!(fetch("NOT organism human"), 1);
        assert_eq!(fetch("organism marsian"), 0);
    }

    #[test]
    fn path_extraction_prunes_shipped_bytes() {
        let s = server();
        let full = collect(
            &s,
            &DriverRequest::EntrezFetch {
                db: "na".into(),
                query: "accession M81409".into(),
                path: None,
            },
        );
        let full_bytes = s.metrics().bytes_shipped;
        s.reset_metrics();
        let pruned = collect(
            &s,
            &DriverRequest::EntrezFetch {
                db: "na".into(),
                query: "accession M81409".into(),
                path: Some("Seq-entry.seq.id..giim".into()),
            },
        );
        let pruned_bytes = s.metrics().bytes_shipped;
        assert_eq!(pruned, vec![Value::set(vec![Value::Int(100)])]);
        assert!(
            pruned_bytes < full_bytes / 2,
            "pruned {pruned_bytes} vs full {full_bytes}"
        );
        drop(full);
    }

    #[test]
    fn links_lookup() {
        let s = server();
        let links = collect(
            &s,
            &DriverRequest::EntrezLinks {
                db: "na".into(),
                uid: 100,
            },
        );
        assert_eq!(links.len(), 2);
        // entry with no links: empty, not an error
        let none = collect(
            &s,
            &DriverRequest::EntrezLinks {
                db: "na".into(),
                uid: 101,
            },
        );
        assert!(none.is_empty());
        // unknown uid: error (surfacing at wait, not at submission)
        assert!(s
            .submit(&DriverRequest::EntrezLinks {
                db: "na".into(),
                uid: 999
            })
            .unwrap()
            .wait()
            .is_err());
    }

    #[test]
    fn unknown_division_and_request_kind() {
        let s = server();
        assert!(s
            .perform(&DriverRequest::EntrezFetch {
                db: "protein".into(),
                query: "accession X".into(),
                path: None
            })
            .is_err());
        assert!(s
            .perform(&DriverRequest::TableScan {
                table: "t".into(),
                columns: None
            })
            .is_err());
    }
}
