//! Behavioral tests for each Section-4 optimization, using the traffic
//! counters and virtual latency clocks as observables (experiments
//! E7–E11 in DESIGN.md, checked for *shape* rather than wall time).

use std::time::Duration;

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, BioFederation, Session};
use kleisli_core::{LatencyModel, Value};
use kleisli_opt::OptConfig;

fn federation(loci: usize) -> (Session, BioFederation) {
    let fed = bio_federation(
        &GdbConfig {
            loci,
            seed: 31,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 40,
            links_per_entry: 2,
            seed: 31,
            ..Default::default()
        },
        // virtual latency: accumulates on a counter, never sleeps
        LatencyModel::virtual_only(Duration::from_millis(2), Duration::from_micros(10)),
        LatencyModel::virtual_only(Duration::from_millis(2), Duration::from_micros(10)),
    )
    .expect("federation");
    let mut session = Session::new();
    session.register_driver(fed.gdb.clone());
    session.register_driver(fed.genbank.clone());
    (session, fed)
}

const LOCI22: &str = r#"{[locus_symbol = x, genbank_ref = y] |
    [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
    [genbank_ref = \y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
    [loc_cyto_chrom_num = "22", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")}"#;

#[test]
fn e7_pushdown_collapses_requests_and_virtual_latency() {
    let (mut session, fed) = federation(200);

    session.reset_metrics();
    fed.gdb.latency().reset();
    let full = session.query(LOCI22).expect("full");
    let full_requests = session.driver_metrics("GDB").unwrap().requests;
    let full_latency = fed.gdb.latency().virtual_elapsed();

    session.set_opt_config(OptConfig {
        enable_pushdown: false,
        ..OptConfig::default()
    });
    session.reset_metrics();
    fed.gdb.latency().reset();
    let local = session.query(LOCI22).expect("local");
    let local_requests = session.driver_metrics("GDB").unwrap().requests;
    let local_latency = fed.gdb.latency().virtual_elapsed();

    assert_eq!(full, local, "same answer");
    assert_eq!(full_requests, 1);
    assert_eq!(local_requests, 3);
    assert!(
        full_latency < local_latency,
        "pushdown must reduce simulated network time: {full_latency:?} vs {local_latency:?}"
    );
}

#[test]
fn e7_pushdown_ships_fewer_rows_and_bytes() {
    let (mut session, _fed) = federation(200);
    session.reset_metrics();
    let _ = session.query(LOCI22).expect("full");
    let with = session.driver_metrics("GDB").unwrap();

    session.set_opt_config(OptConfig {
        enable_pushdown: false,
        ..OptConfig::default()
    });
    session.reset_metrics();
    let _ = session.query(LOCI22).expect("local");
    let without = session.driver_metrics("GDB").unwrap();

    assert!(
        with.rows_shipped < without.rows_shipped / 5,
        "pushdown ships only matching rows: {} vs {}",
        with.rows_shipped,
        without.rows_shipped
    );
    assert!(with.bytes_shipped < without.bytes_shipped);
}

#[test]
fn e9_cache_fetches_inner_subquery_once() {
    let (mut session, _fed) = federation(50);
    let q = r#"{[s = l.locus_symbol,
                 n = count({e | \e <- GDB-Tab("object_genbank_eref"), e.object_class_key = 1})] |
                \l <- GDB-Tab("locus")}"#;
    let base = OptConfig {
        enable_pushdown: false,
        enable_joins: false,
        enable_parallel: false,
        ..OptConfig::default()
    };

    session.set_opt_config(OptConfig {
        enable_cache: true,
        ..base.clone()
    });
    session.reset_metrics();
    let cached = session.query(q).expect("cached");
    let with_cache = session.driver_metrics("GDB").unwrap().requests;

    session.set_opt_config(OptConfig {
        enable_cache: false,
        ..base
    });
    session.reset_metrics();
    let uncached = session.query(q).expect("uncached");
    let without_cache = session.driver_metrics("GDB").unwrap().requests;

    assert_eq!(cached, uncached, "same answer");
    assert_eq!(with_cache, 2, "outer scan + one cached inner fetch");
    assert_eq!(
        without_cache,
        1 + 50,
        "without the cache the inner subquery re-fetches per locus"
    );
}

#[test]
fn e11_parallel_gather_is_bounded_and_correct() {
    let (mut session, _fed) = federation(60);
    let q = r#"{[u = uid, n = count(GenBank([db = "na", link = uid]))] |
        \e <- GenBank([db = "na", select = "organism \"Homo sapiens\""]),
        \uid <- {g | <giim = \g> <- e.seq.id}}"#;

    let compiled = session.compile(q).expect("compile");
    let mut widths = Vec::new();
    compiled.optimized.visit(&mut |e| {
        if let nrc::Expr::ParExt { max_in_flight, .. } = e {
            widths.push(*max_in_flight);
        }
    });
    assert!(!widths.is_empty(), "loops over remote calls must parallelize");
    assert!(
        widths.iter().all(|w| *w == 5),
        "GenBank tolerates 5 concurrent requests, got {widths:?}"
    );

    // parallel result equals sequential result
    let parallel = session.run_compiled(&compiled).expect("parallel");
    session.set_opt_config(OptConfig {
        enable_parallel: false,
        ..OptConfig::default()
    });
    let sequential = session.query(q).expect("sequential");
    assert_eq!(parallel, sequential);
}

#[test]
fn e10_first_n_ships_a_fraction_of_the_rows() {
    let (session, _fed) = federation(3000);
    session.reset_metrics();
    let rows = session
        .query_first_n(r#"{[s = l.locus_symbol] | \l <- GDB-Tab("locus")}"#, 7)
        .expect("first_n");
    assert_eq!(rows.len(), 7);
    let m = session.driver_metrics("GDB").unwrap();
    // This federation's latency is virtual-only (an accounting tool), so
    // GDB advertises `prefetch_rows: 0` and laziness stays strict —
    // prefetch only engages for *real* (slept) per-row latency, where
    // the bound loosens to prefix + prefetch buffer.
    assert!(
        m.rows_shipped < 20,
        "{} rows shipped for 7 results",
        m.rows_shipped
    );
    assert_eq!(m.rows_prefetched, 0, "instant rows must not be prefetched");
}

#[test]
fn e8_join_strategies_choose_by_condition_shape() {
    let (session, _fed) = federation(50);
    // equality condition → indexed join
    let eq_query = r#"{[a = l.locus_symbol, b = e.genbank_ref] |
        \l <- GDB-Tab("locus"), \e <- GDB-Tab("object_genbank_eref"),
        l.locus_id = e.object_id}"#;
    // force local planning by disabling pushdown
    let mut s2 = session;
    s2.set_opt_config(OptConfig {
        enable_pushdown: false,
        ..OptConfig::default()
    });
    let compiled = s2.compile(eq_query).expect("compile");
    let mut indexed = 0;
    compiled.optimized.visit(&mut |e| {
        if let nrc::Expr::Join { strategy, .. } = e {
            if *strategy == nrc::JoinStrategy::IndexedNl {
                indexed += 1;
            }
        }
    });
    assert_eq!(indexed, 1, "equality predicates become index keys: {}", compiled.optimized);
}

#[test]
fn an_optimized_list_join_keeps_the_naive_order_on_every_path() {
    // A list theta-join becomes a BLOCKED-NL-JOIN; a list's order is
    // observable, so the operator must emit outer-major like the nested
    // comprehension it replaced — at the top of a query and inside a
    // record field, whichever entry point runs the plan.
    const BARE: &str = r"[| [a = l, b = r] | \l <- [|1, 2, 3|], \r <- [|10, 20|], l < r |]";
    const NESTED: &str = r"[| [k = k, pairs = [| [a = l, b = r] |
        \l <- [|1, 2, 3|], \r <- [|10, 20|], l < r + k |]] | \k <- [|0|] |]";
    for src in [BARE, NESTED] {
        let mut naive = Session::new();
        naive.set_opt_config(OptConfig::none());
        let expected = naive.query(src).expect("naive");

        let mut session = Session::new();
        let compiled = session.compile(src).expect("compile");
        assert!(
            compiled.optimized.to_string().contains("BLOCKED-NL-JOIN"),
            "the default optimizer plans a join here: {}",
            compiled.optimized
        );
        assert_eq!(session.query(src).expect("query"), expected, "query: {src}");
        assert_eq!(
            session.run_compiled(&compiled).expect("run_compiled"),
            expected,
            "run_compiled: {src}"
        );
        match &session.run(&format!("{src};")).expect("run")[..] {
            [kleisli::StmtResult::Value(v)] => assert_eq!(*v, expected, "run: {src}"),
            other => panic!("one statement, one value: {other:?}"),
        }
    }
}

#[test]
fn a_bag_drawn_from_a_set_counts_each_element_once_on_every_path() {
    // The inner set has two elements however many rows streamed into it.
    const SRC: &str = r"{| x | \x <- {y mod 2 | \y <- {1, 2, 3, 4}} |}";
    let expected = Value::bag(vec![Value::Int(0), Value::Int(1)]);
    for config in [OptConfig::default(), OptConfig::none()] {
        let mut session = Session::new();
        session.set_opt_config(config);
        let compiled = session.compile(SRC).expect("compile");
        assert_eq!(session.query(SRC).expect("query"), expected);
        assert_eq!(
            session.run_compiled(&compiled).expect("run_compiled"),
            expected
        );
    }
}

#[test]
fn a_constant_head_field_stays_local_when_the_rest_is_pushed_down() {
    // `select ..., 7 as nonce` is outside the servers' SQL subset: the
    // columns ship as one query and the constant is added to each row
    // here.
    let (mut session, _fed) = federation(200);
    let query = r#"{[sym = x, ref = y, nonce = 7] |
        [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
        [genbank_ref = \y, object_id = a, ...] <- GDB-Tab("object_genbank_eref")}"#;
    session.reset_metrics();
    let pushed = session.query(query).expect("a constant head field");
    let gdb = session.driver_metrics("GDB").unwrap();
    assert_eq!(gdb.requests, 1, "still one SQL query");
    assert!(!pushed.elements().expect("a set").is_empty());

    session.set_opt_config(OptConfig::none());
    assert_eq!(pushed, session.query(query).expect("naive"));
}
