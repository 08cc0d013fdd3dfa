//! End-to-end reproduction of the paper's "impossible" DOE query
//! (experiment E1 in DESIGN.md): chromosome-22 loci from the relational
//! GDB source joined through Entrez sequence ids to non-human homology
//! links, validated exactly against the generator's ground truth.

use std::collections::{BTreeMap, BTreeSet};

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, How, Session};
use kleisli_core::testutil::SlowDriver;
use kleisli_core::{DriverRequest, LatencyModel, Value};
use nrc::{Expr, LoopStrategy};
use std::time::Duration;

fn federation() -> (Session, kleisli::BioFederation) {
    federation_of(400)
}

fn federation_of(loci: usize) -> (Session, kleisli::BioFederation) {
    let fed = bio_federation(
        &GdbConfig {
            loci,
            seed: 11,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 120,
            links_per_entry: 3,
            seed: 11,
            ..Default::default()
        },
        LatencyModel::instant(),
        LatencyModel::instant(),
    )
    .expect("federation");
    let mut session = Session::new();
    session.register_driver(fed.gdb.clone());
    session.register_driver(fed.genbank.clone());
    session
        .run(
            r#"
            define Loci22 == {[locus_symbol = x, genbank_ref = y] |
                [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
                [genbank_ref = \y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
                [loc_cyto_chrom_num = "22", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")};
            define ASN-IDs == \accession =>
                flatten(GenBank([db = "na",
                                 select = "accession " ^ accession,
                                 path = "Seq-entry.seq.id..giim"]));
            define NA-Links == \uid => GenBank([db = "na", link = uid]);
        "#,
        )
        .expect("defines");
    (session, fed)
}

const DOE: &str = r#"{[locus = locus, homologs =
        {l | \l <- NA-Links(uid), not (l.organism = "Homo sapiens")}] |
    \locus <- Loci22, \uid <- ASN-IDs(locus.genbank_ref)}"#;

#[test]
fn doe_query_matches_ground_truth_exactly() {
    let (session, fed) = federation();
    let result = session.query(DOE).expect("query");

    // ground truth from the generators
    let mut expected: BTreeMap<String, Vec<i64>> = BTreeMap::new();
    for (symbol, acc) in fed.gdb_data.expected_loci("22") {
        let uid = fed
            .genbank_data
            .entry_by_accession(acc)
            .expect("entry")
            .uid;
        let mut homologs = fed.genbank_data.expected_non_human_links(uid);
        homologs.sort();
        homologs.dedup();
        expected.insert(symbol.to_string(), homologs);
    }
    assert!(!expected.is_empty(), "seed must put loci on chromosome 22");
    assert!(
        expected.values().any(|h| !h.is_empty()),
        "seed must produce some non-human homologs"
    );

    let rows = result.elements().expect("set result");
    assert_eq!(rows.len(), expected.len(), "one row per chr-22 locus");
    for row in rows {
        let locus = row.project("locus").expect("locus");
        let symbol = match locus.project("locus_symbol") {
            Some(Value::Str(s)) => s.to_string(),
            other => panic!("bad locus_symbol {other:?}"),
        };
        let want = expected.get(&symbol).expect("known locus");
        let homologs = row.project("homologs").expect("homologs");
        let mut got: Vec<i64> = homologs
            .elements()
            .expect("set")
            .iter()
            .map(|l| match l.project("uid") {
                Some(Value::Int(u)) => *u,
                other => panic!("bad link uid {other:?}"),
            })
            .collect();
        got.sort();
        got.dedup();
        assert_eq!(&got, want, "homologs of {symbol}");
        // every returned homolog is non-human
        for l in homologs.elements().unwrap() {
            assert_ne!(
                l.project("organism"),
                Some(&Value::str("Homo sapiens")),
                "human homolog leaked through the filter"
            );
        }
    }
}

#[test]
fn rerunning_a_compiled_plan_builds_none_of_its_record_shapes() {
    let (session, _fed) = federation();
    let plan = session.compile_shared(DOE).expect("compile");
    // The directory of every result record — a shape the plan builds —
    // by its magic: a directory built afresh has a fresh one. (The loci
    // come from the SQL the plan ships: their shape is the driver's.)
    let shapes = |result: Value| -> BTreeSet<u64> {
        let magic = |r: &Value| match r {
            Value::Record(r) => r.magic(),
            other => panic!("not a record: {other}"),
        };
        result.elements().expect("a set").iter().map(magic).collect()
    };
    let first = shapes(session.start(&plan, How::default()).wait().expect("query"));
    // No record of the first run is left: only the plan keeps the shape.
    let second = shapes(session.start(&plan, How::default()).wait().expect("query"));
    assert_eq!(first.len(), 1, "{first:?}");
    assert_eq!(first, second);
}

#[test]
fn doe_plan_uses_every_optimization_of_section_4() {
    let (session, _fed) = federation();
    let compiled = session.compile_shared(DOE).expect("compile");
    let mut sql = 0;
    let mut paths = 0;
    let mut batched = 0;
    compiled.optimized.visit(&mut |e| match e {
        Expr::Remote { request, .. } => match request {
            DriverRequest::Sql { query } => {
                sql += 1;
                assert!(
                    query.contains("locus_cyto_location"),
                    "three-way join shipped: {query}"
                );
            }
            DriverRequest::EntrezFetch { path: Some(_), .. } => {
                paths += 1;
            }
            _ => {}
        },
        Expr::Ext {
            strategy: LoopStrategy::Batched(spec),
            ..
        } => {
            batched += 1;
            assert_eq!(&*spec.driver, "GenBank");
        }
        Expr::Ext {
            strategy: LoopStrategy::Parallel(_),
            ..
        } => panic!("a batched loop runs its bodies in order"),
        _ => {}
    });
    assert_eq!(sql, 1, "relational part must ship as one SQL query");
    assert_eq!(
        batched, 2,
        "both remote inner loops ship their keys in batches"
    );
    // the authored path expression is preserved through optimization
    let mut remote_apps_with_path = 0;
    compiled.optimized.visit(&mut |e| {
        if let Expr::RemoteApp { arg, .. } = e {
            if format!("{arg}").contains("path") {
                remote_apps_with_path += 1;
            }
        }
    });
    assert!(
        paths + remote_apps_with_path >= 1,
        "path extraction must reach the driver"
    );
}

#[test]
fn doe_query_ships_one_relational_request() {
    let (session, fed) = federation_of(1200);
    let loci = fed.gdb_data.expected_loci("22").len() as u64;
    assert!(loci > 16, "the seed must give each hop more than one chunk");
    let gdb_before = session.driver_metrics("GDB").expect("gdb metrics");
    let gb_before = session.driver_metrics("GenBank").expect("genbank metrics");
    let _ = session.query(DOE).expect("query");
    let gdb = session.driver_metrics("GDB").expect("gdb metrics").since(&gdb_before);
    assert_eq!(gdb.requests, 1, "Loci22 must be a single shipped SQL query");
    // Staged, each hop sees all its keys: ceil(n/16) multi-key requests
    // for the accession look-ups, as many again for the links, and not
    // one key travelling alone.
    let gb = session.driver_metrics("GenBank").expect("genbank metrics").since(&gb_before);
    assert_eq!(gb.requests, 2 * loci.div_ceil(16), "{gb:?}");
    assert_eq!(gb.batch_requests, gb.requests, "{gb:?}");
    assert_eq!(gb.batched_keys, 2 * loci, "{gb:?}");
}

/// How often `explain` reports the staging rule for `query`.
fn stagings(session: &Session, query: &str) -> usize {
    fired(session, query, "batch/stage-dependent-remote-loop")
}

/// How often `explain` reports `rule` for `query`.
fn fired(session: &Session, query: &str, rule: &str) -> usize {
    let plan = session.explain(query).expect("explain");
    plan.lines()
        .filter(|l| l.contains(rule))
        .map(|l| {
            let count = l.trim().split(' ').next().expect("`<n> x <rule>`");
            count.parse::<usize>().expect("a count")
        })
        .sum()
}

#[test]
fn only_a_dependent_loop_with_two_batchable_hops_is_staged() {
    let (mut session, _fed) = federation();
    // A source that answers one key per request.
    session.register_driver(SlowDriver::new("PLAIN", 1, Duration::ZERO, 2));
    assert_eq!(stagings(&session, DOE), 1);

    // The inner source does not depend on the outer variable: the second
    // hop's keys are the same for every locus and nothing is gained.
    let independent = r#"{[s = locus.locus_symbol, n = count(NA-Links(uid))] |
        \locus <- Loci22, \uid <- ASN-IDs("M81409")}"#;
    assert_eq!(stagings(&session, independent), 0);
    // Either hop on a driver without `Capabilities::batching`.
    let plain_second = r#"{y.n | \locus <- Loci22, \uid <- ASN-IDs(locus.genbank_ref),
        \y <- PLAIN([db = "na", link = uid])}"#;
    assert_eq!(stagings(&session, plain_second), 0);
    let plain_first = r#"{l.uid | \locus <- Loci22, \h <- PLAIN([class = locus.locus_symbol]),
        \l <- NA-Links(h.n)}"#;
    assert_eq!(stagings(&session, plain_first), 0);
    // Those loops are still parallel or batched ones; it is staging that
    // declined.
    for query in [independent, plain_second, plain_first] {
        let parallel = fired(&session, query, "parallel/parallel-remote-inner-loop");
        let batched = fired(&session, query, "batch/batch-remote-inner-loop");
        assert_eq!(
            parallel + batched,
            2,
            "{}",
            session.explain(query).expect("explain")
        );
    }

    session.set_opt_config(kleisli_opt::OptConfig {
        enable_batching: false,
        ..kleisli_opt::OptConfig::default()
    });
    assert_eq!(stagings(&session, DOE), 0);
}

#[test]
fn doe_without_optimizations_gives_the_same_answer() {
    let (mut session, _fed) = federation();
    let optimized = session.query(DOE).expect("optimized");
    session.set_opt_config(kleisli_opt::OptConfig::none());
    let naive = session.query(DOE).expect("naive");
    assert_eq!(optimized, naive);
}

#[test]
fn parameterized_view_other_chromosome() {
    // the Figure-1 form generalizes the query over chromosomes
    let (mut session, fed) = federation();
    let query21 = DOE.replace("Loci22", "Loci21");
    session
        .run(
            r#"define Loci21 == {[locus_symbol = x, genbank_ref = y] |
            [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
            [genbank_ref = \y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
            [loc_cyto_chrom_num = "21", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")};"#,
        )
        .expect("define");
    let result = session.query(&query21).expect("query");
    assert_eq!(
        result.len(),
        Some(fed.gdb_data.expected_loci("21").len()),
        "chromosome parameter respected"
    );
}

// ---------------------------------------------------------------------------
// The three `row_stream` texts of the benchmark, served the way `kleislid`
// serves them (`Session::run_shared`): what they cost on the wire.
// ---------------------------------------------------------------------------

const ROW_STREAM: [&str; 3] = [
    r#"GDB-Tab("locus")"#,
    r#"flatten({GDB-Tab("locus"), GDB-Tab("object_genbank_eref"), GDB-Tab("locus_cyto_location")})"#,
    r#"[loci = GDB-Tab("locus"), refs = GDB-Tab("object_genbank_eref"), bands = GDB-Tab("locus_cyto_location")]"#,
];

/// The benchmark's GDB — a `bio_federation` of 100 loci, 80
/// cross-references and 100 bands — behind `latency`.
fn row_stream_session(latency: LatencyModel) -> Session {
    let gdb = (0..)
        .map(|seed| GdbConfig {
            loci: 100,
            chromosomes: 24,
            seed,
            ..Default::default()
        })
        .find(|config| {
            let loci = bio_data::GdbData::generate(config).loci;
            loci.iter().filter(|l| l.genbank_ref.is_some()).count() == 80
        })
        .expect("some seed cross-references 80 loci of 100");
    let genbank = GenBankConfig {
        extra_entries: 0,
        links_per_entry: 0,
        ..Default::default()
    };
    let fed = bio_federation(&gdb, &genbank, latency, LatencyModel::instant()).expect("federation");
    let mut session = Session::new();
    session.register_driver(fed.gdb.clone());
    session
}

#[test]
fn a_served_table_scan_fills_one_wave_of_connections() {
    let served = |session: &Session, text: &str| {
        let before = session.driver_metrics("GDB").expect("metrics");
        let plan = session.compile_shared(text).expect("compile");
        let handle = session.start(&plan, How::default());
        assert!(!handle.from_cache());
        let value = handle.wait().expect("query");
        let m = session.driver_metrics("GDB").expect("metrics").since(&before);
        (value, m.requests, m.rows_shipped)
    };
    // Rows that cost wall-clock time (as little as a sleep can cost): the
    // source prefetches, so a scan read to its end alone fills one wave
    // of the eight connections — 8 requests — and the three scans of one
    // query share that wave as 3 + 2 + 3.
    let paced = row_stream_session(LatencyModel::real(
        Duration::from_micros(50),
        Duration::from_nanos(1),
    ));
    // The same rows on the virtual clock, and rows that cost nothing:
    // nothing to overlap, one request a scan, as ever.
    let counted = row_stream_session(LatencyModel::virtual_only(
        Duration::from_millis(2),
        Duration::from_micros(100),
    ));
    let free = row_stream_session(LatencyModel::instant());
    let wire = [(8, 1, 100), (8, 3, 280), (8, 3, 280)];
    let plans = [
        ("REMOTE[GDB: scan locus]", 1, 4),
        (
            "flatten(({REMOTE[GDB: scan locus]} U ({REMOTE[GDB: scan object_genbank_eref]} \
             U {REMOTE[GDB: scan locus_cyto_location]})))",
            9,
            12,
        ),
        (
            "[loci = REMOTE[GDB: scan locus], refs = REMOTE[GDB: scan object_genbank_eref], \
             bands = REMOTE[GDB: scan locus_cyto_location]]",
            4,
            12,
        ),
    ];
    for ((text, (split, whole, rows)), (plan, nodes, rules)) in
        ROW_STREAM.into_iter().zip(wire).zip(plans)
    {
        let (fast, requests, shipped) = served(&paced, text);
        assert_eq!((requests, shipped), (split, rows), "{text}");
        for unsplit in [&counted, &free] {
            let (slow, requests, shipped) = served(unsplit, text);
            assert_eq!((requests, shipped), (whole, rows), "{text}");
            assert_eq!(fast, slow, "{text}");
        }
        // The split is the driver's, at run time: no plan shows it, and
        // the plan is what it was before a scan could split.
        let explained = paced.explain(text).expect("explain");
        let optimized =
            format!("== optimized ({nodes} nodes) ==\n{plan}\n\n== rules fired ({rules}) ==");
        assert!(explained.contains(&optimized), "{explained}");
        let also = counted.explain(text).expect("explain");
        assert!(also.contains(&optimized), "{also}");
    }
    // `query` reads to the end as the server does: one wave.
    let before = paced.driver_metrics("GDB").expect("metrics");
    assert_eq!(paced.query(ROW_STREAM[0]).expect("query").len(), Some(100));
    assert_eq!(paced.driver_metrics("GDB").expect("metrics").since(&before).requests, 8);
    // A prefix is one request that ships one window (of rows not yet
    // read) at most.
    let before = paced.driver_metrics("GDB").expect("metrics");
    let plan = paced.compile_shared(ROW_STREAM[0]).expect("compile");
    let first = How {
        limit: Some(1),
        ..How::default()
    };
    assert_eq!(paced.start(&plan, first).wait().expect("prefix").len(), Some(1));
    let m = paced.driver_metrics("GDB").expect("metrics").since(&before);
    assert_eq!(m.requests, 1);
    assert!(m.rows_shipped <= 1 + 32 + 2, "{} rows for a prefix of 1", m.rows_shipped);
}
