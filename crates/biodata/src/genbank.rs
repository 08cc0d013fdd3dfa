//! GenBank-shaped ASN.1 entries and the homology-link graph.
//!
//! Each entry is a `Seq-entry` complex object:
//!
//! ```text
//! [seq = [id = { <giim = uid>, <accession = "M81409"> },
//!         descr = "...", inst = [length = n, seq-data = "ACGT..."]],
//!  organism = "...",
//!  keywords = {"..."},
//!  pubs = {Publication}]
//! ```
//!
//! Entries are indexed by `accession`, `organism`, and `chromosome`; the
//! link graph provides the precomputed similarity neighbors `NA-Links`
//! returns, each with a score and the *neighbor's* organism so the DOE
//! query can keep only non-human homologs.

use rand::Rng;

use entrez_sim::server::Link;
use entrez_sim::EntrezServer;
use kleisli_core::Value;

use crate::gdb::GdbData;
use crate::{dna, s};

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct GenBankConfig {
    /// Extra entries beyond those cross-referenced from GDB.
    pub extra_entries: usize,
    /// Homology links per entry.
    pub links_per_entry: usize,
    /// Sequence length.
    pub seq_len: usize,
    pub seed: u64,
}

impl Default for GenBankConfig {
    fn default() -> Self {
        GenBankConfig {
            extra_entries: 200,
            links_per_entry: 4,
            seq_len: 120,
            seed: 81409,
        }
    }
}

const ORGANISMS: [&str; 6] = [
    "Homo sapiens",
    "Mus musculus",
    "Rattus norvegicus",
    "Gallus gallus",
    "Drosophila melanogaster",
    "Saccharomyces cerevisiae",
];

/// One generated entry.
#[derive(Debug, Clone)]
pub struct GenBankEntry {
    pub uid: i64,
    pub accession: String,
    pub organism: String,
    pub chromosome: Option<String>,
    pub value: Value,
}

/// The generated entries and links.
#[derive(Debug, Clone)]
pub struct GenBankData {
    pub entries: Vec<GenBankEntry>,
    /// (from uid, to uid, score)
    pub links: Vec<(i64, i64, f64)>,
}

impl GenBankData {
    /// Generate entries for every GDB cross-reference (same accession,
    /// human, on the locus's chromosome) plus `extra_entries` from other
    /// organisms, then a link graph.
    pub fn generate(config: &GenBankConfig, gdb: &GdbData) -> GenBankData {
        let mut rng = crate::rng(config.seed);
        let mut entries = Vec::new();
        let mut uid = 100_000i64;
        for locus in &gdb.loci {
            let Some(acc) = &locus.genbank_ref else {
                continue;
            };
            uid += 1;
            entries.push(make_entry(
                &mut rng,
                uid,
                acc,
                "Homo sapiens",
                Some(&locus.chromosome),
                config.seq_len,
                &format!("Human {} locus", locus.symbol),
            ));
        }
        for n in 0..config.extra_entries {
            uid += 1;
            let organism = ORGANISMS[1 + rng.gen_range(0..ORGANISMS.len() - 1)];
            let acc = crate::accession(50_000 + n);
            entries.push(make_entry(
                &mut rng,
                uid,
                &acc,
                organism,
                None,
                config.seq_len,
                &format!("{organism} homologous sequence {n}"),
            ));
        }
        // link graph: each entry links to k random others
        let mut links = Vec::new();
        if entries.len() > 1 {
            for e in &entries {
                for _ in 0..config.links_per_entry {
                    let target = &entries[rng.gen_range(0..entries.len())];
                    if target.uid != e.uid {
                        links.push((e.uid, target.uid, rng.gen_range(0.5..1.0)));
                    }
                }
            }
        }
        GenBankData { entries, links }
    }

    /// Load entries, index terms and links into an Entrez server division.
    pub fn load(&self, server: &EntrezServer, db: &str) -> kleisli_core::KResult<()> {
        let by_uid: std::collections::HashMap<i64, &GenBankEntry> =
            self.entries.iter().map(|e| (e.uid, e)).collect();
        server.with_division(db, |division| -> kleisli_core::KResult<()> {
            for e in &self.entries {
                let mut terms = vec![
                    ("accession".to_string(), e.accession.clone()),
                    ("organism".to_string(), e.organism.clone()),
                ];
                if let Some(chr) = &e.chromosome {
                    terms.push(("chromosome".to_string(), chr.clone()));
                }
                division.add_entry(e.uid, e.value.clone(), terms)?;
            }
            for (from, to, score) in &self.links {
                let organism = by_uid
                    .get(to)
                    .map(|t| t.organism.clone())
                    .unwrap_or_default();
                division.add_link(
                    *from,
                    Link {
                        uid: *to,
                        score: *score,
                        organism,
                    },
                );
            }
            Ok(())
        })
    }

    pub fn entry_by_accession(&self, acc: &str) -> Option<&GenBankEntry> {
        self.entries.iter().find(|e| e.accession == acc)
    }

    /// Non-human link targets of a uid — the expected homolog set for the
    /// DOE query.
    pub fn expected_non_human_links(&self, uid: i64) -> Vec<i64> {
        let human: std::collections::HashSet<i64> = self
            .entries
            .iter()
            .filter(|e| e.organism == "Homo sapiens")
            .map(|e| e.uid)
            .collect();
        self.links
            .iter()
            .filter(|(f, t, _)| *f == uid && !human.contains(t))
            .map(|(_, t, _)| *t)
            .collect()
    }
}

#[allow(clippy::too_many_arguments)]
fn make_entry(
    rng: &mut rand::rngs::StdRng,
    uid: i64,
    accession: &str,
    organism: &str,
    chromosome: Option<&str>,
    seq_len: usize,
    descr: &str,
) -> GenBankEntry {
    let sequence = dna(rng, seq_len);
    let keywords = {
        const KW: [&str; 6] = [
            "Exons",
            "Base Sequence",
            "Amino Acid Sequence",
            "Genes, Structural",
            "Repetitive Sequences",
            "Promoter Regions",
        ];
        let n = rng.gen_range(1..4);
        Value::set((0..n).map(|_| s(KW[rng.gen_range(0..KW.len())])).collect())
    };
    let value = Value::record_from(vec![
        (
            "seq",
            Value::record_from(vec![
                (
                    "id",
                    Value::set(vec![
                        Value::variant("giim", Value::Int(uid)),
                        Value::variant("accession", s(accession)),
                    ]),
                ),
                ("descr", s(descr)),
                (
                    "inst",
                    Value::record_from(vec![
                        ("length", Value::Int(sequence.len() as i64)),
                        ("seq-data", s(&sequence)),
                    ]),
                ),
            ]),
        ),
        ("organism", s(organism)),
        ("keywords", keywords),
        (
            "chromosome",
            match chromosome {
                Some(c) => Value::variant("known", s(c)),
                None => Value::variant("unknown", Value::Unit),
            },
        ),
    ]);
    GenBankEntry {
        uid,
        accession: accession.to_string(),
        organism: organism.to_string(),
        chromosome: chromosome.map(String::from),
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gdb::GdbConfig;
    use kleisli_core::{Driver, DriverRequest, KResult, LatencyModel};

    fn data() -> (GdbData, GenBankData) {
        let gdb = GdbData::generate(&GdbConfig {
            loci: 100,
            seed: 5,
            ..Default::default()
        });
        let gb = GenBankData::generate(
            &GenBankConfig {
                extra_entries: 30,
                seed: 5,
                ..Default::default()
            },
            &gdb,
        );
        (gdb, gb)
    }

    #[test]
    fn every_gdb_ref_has_an_entry() {
        let (gdb, gb) = data();
        for locus in &gdb.loci {
            if let Some(acc) = &locus.genbank_ref {
                let e = gb.entry_by_accession(acc).expect("entry exists");
                assert_eq!(e.organism, "Homo sapiens");
                assert_eq!(e.chromosome.as_deref(), Some(locus.chromosome.as_str()));
            }
        }
    }

    #[test]
    fn loads_into_entrez_and_fetches_by_accession() {
        let (gdb, gb) = data();
        let server = EntrezServer::serve("GenBank", Default::default(), LatencyModel::instant());
        gb.load(&server, "na").unwrap();
        let locus = gdb.loci.iter().find(|l| l.genbank_ref.is_some()).unwrap();
        let acc = locus.genbank_ref.as_deref().unwrap();
        let hits: Vec<Value> = server
            .submit(&DriverRequest::EntrezFetch {
                db: "na".into(),
                query: format!("accession {acc}"),
                path: Some("Seq-entry.seq.id..giim".into()),
            })
            .unwrap()
            .wait()
            .unwrap()
            .collect::<KResult<_>>()
            .unwrap();
        assert_eq!(hits.len(), 1);
        let expected_uid = gb.entry_by_accession(acc).unwrap().uid;
        assert_eq!(hits[0], Value::set(vec![Value::Int(expected_uid)]));
    }

    #[test]
    fn links_resolve_with_organisms() {
        let (_, gb) = data();
        let server = EntrezServer::serve("GenBank", Default::default(), LatencyModel::instant());
        gb.load(&server, "na").unwrap();
        let some_linked = gb.links[0].0;
        let links: Vec<Value> = server
            .submit(&DriverRequest::EntrezLinks {
                db: "na".into(),
                uid: some_linked,
            })
            .unwrap()
            .wait()
            .unwrap()
            .collect::<KResult<_>>()
            .unwrap();
        assert!(!links.is_empty());
        for l in &links {
            assert!(l.project("organism").is_some());
            assert!(l.project("score").is_some());
        }
    }
}
