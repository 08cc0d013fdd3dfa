//! Figure-2 architecture tests (experiment E2): one session federating
//! all three source kinds, data crossing driver boundaries as token
//! streams, and the printers producing every output format.

use std::sync::Arc;

use ace_sim::{AceServer, AceStore};
use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, AceObjects, Session};
use kleisli_core::{read_exchange, write_exchange, LatencyModel, Value};

fn three_source_session() -> Session {
    let fed = bio_federation(
        &GdbConfig {
            loci: 80,
            seed: 8,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 20,
            seed: 8,
            ..Default::default()
        },
        LatencyModel::instant(),
        LatencyModel::instant(),
    )
    .expect("federation");

    let mut store = AceStore::new();
    let seq_ref = store.reference("Sequence", "seq-22-1");
    store.upsert(
        "Sequence",
        "seq-22-1",
        vec![("DNA".into(), vec![Value::str("ACGTACGT")])],
    );
    store
        .insert(
            "Clone",
            "c22-5",
            vec![
                ("Length".into(), vec![Value::Int(1200)]),
                ("Seq".into(), vec![seq_ref]),
            ],
        )
        .expect("insert");
    let ace = Arc::new(AceServer::serve("ACE22", store.into(), LatencyModel::instant()));

    let mut session = Session::new();
    session.register_driver(fed.gdb.clone());
    session.register_driver(fed.genbank.clone());
    session.register_driver(ace.clone());
    session.register_object_store(Arc::new(AceObjects(ace)));
    session
}

#[test]
fn all_three_sources_answer_through_one_session() {
    let s = three_source_session();
    let relational = s
        .query(r#"count(GDB-Tab("locus"))"#)
        .expect("relational source");
    assert_eq!(relational, Value::Int(80));

    let asn = s
        .query(r#"count(GenBank([db = "na", select = "organism \"Homo sapiens\""]))"#)
        .expect("asn source");
    assert!(matches!(asn, Value::Int(n) if n > 0));

    let ace = s
        .query(r#"{[n = c.name, len = c.Length] | \c <- ACE22([class = "Clone"])}"#)
        .expect("ace source");
    assert_eq!(ace.len(), Some(1));
}

#[test]
fn object_identity_dereferences_across_the_session() {
    let s = three_source_session();
    // Follow the Seq reference of the clone through deref.
    let dna = s
        .query(r#"{deref(c.Seq).DNA | \c <- ACE22([class = "Clone"])}"#)
        .expect("deref");
    assert_eq!(dna, Value::set(vec![Value::str("ACGTACGT")]));
}

#[test]
fn query_results_survive_the_exchange_format() {
    let s = three_source_session();
    let v = s
        .query(r#"{[s = l.locus_symbol, i = l.locus_id] | \l <- GDB-Tab("locus"), l.locus_id <= 5}"#)
        .expect("query");
    // ship it through the driver exchange format and back
    let text = write_exchange(&v);
    let back = read_exchange(&text).expect("exchange parse");
    assert_eq!(v, back);
}

#[test]
fn printers_cover_the_output_formats_of_section_3() {
    let s = three_source_session();
    let v = s
        .query(r#"{[s = l.locus_symbol] | \l <- GDB-Tab("locus"), l.locus_id <= 3}"#)
        .expect("query");
    // CPL syntax
    let cpl = v.to_string();
    assert!(cpl.starts_with('{') && cpl.contains("[s = "));
    // HTML for the Mosaic views
    let html = kleisli_core::print::to_html(&v);
    assert!(html.contains("<table"));
    // aligned text table
    let table = kleisli_core::print::to_table(&v);
    assert!(table.lines().count() >= 4);
}

#[test]
fn cross_source_join_runs_locally() {
    // GDB (relational) joined with GenBank (ASN.1) — never pushable, so
    // the optimizer must plan it locally and still get the right answer.
    let s = three_source_session();
    let v = s
        .query(
            r#"{[s = l.locus_symbol, org = e.organism] |
                \l <- GDB-Tab("locus"),
                [object_id = \oid, genbank_ref = \acc, ...] <- GDB-Tab("object_genbank_eref"),
                oid = l.locus_id,
                \e <- GenBank([db = "na", select = "chromosome 22"]),
                member(<accession = acc>, e.seq.id)}"#,
        )
        .expect("cross-source join");
    // every chromosome-22 entry pairs with exactly its locus
    for row in v.elements().unwrap() {
        assert_eq!(row.project("org"), Some(&Value::str("Homo sapiens")));
    }
}
