//! Semantics-equivalence harness for batched driver round-trips: a plan
//! executed with the optimizer's IN-list / multi-uid batching mark must
//! be indistinguishable — values, printed form, error messages, and
//! order-sensitive observables (`first_n`, list order, set dedup) —
//! from the same plan executed per element with batching disabled.
//!
//! Batching is *advisory* by construction (a warm-up puts a chunk's keys
//! on the wire, and each element's marked call replays its own key's
//! reply; the loop body is unchanged), so any divergence here is a real
//! defect in the warm-up, the batched reply splitting, or the hand-off of
//! each reply to its element.
//!
//! The one exception is a two-hop dependent loop, which batching
//! *rewrites* (`batch/stage-dependent-remote-loop`): the second half of
//! this file holds the staged plan to the nested plan, to
//! `OptConfig::none()` and to `kleisli_exec::reference::eval`, with keys
//! that fail at either hop.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Duration;

use bench_harness::latency_federation;
use kleisli::{BioFederation, How, Session};
use kleisli_core::testutil::assert_quiescent;
use entrez_sim::{Entrez, EntrezServer, Link};
use kleisli_core::{CollKind, KResult, LatencyModel, Value, DEFAULT_BLOCK_ROWS};
use kleisli_exec::{eval, eval_blocks, reference, Env};
use kleisli_opt::{OptConfig, RuleCtx, StaticCatalog};
use nrc::{BatchSpec, Expr, LoopStrategy, Prim};
use proptest::prelude::*;

/// Set comprehension (dedup observable): per-uid link counts.
const LINK_SET: &str =
    r#"{[u = uid, n = count(GenBank([db = "na", link = uid]))] | \uid <- UIDS}"#;

/// List comprehension (order + duplicate observable) over `UIDL`.
const LINK_LIST: &str = r#"[| count(GenBank([db = "na", link = uid])) | \uid <- UIDL |]"#;

/// Nested comprehension: the batched request feeds an inner loop.
const NESTED: &str =
    r#"{[u = uid, hits = {l.uid | \l <- GenBank([db = "na", link = uid])}] | \uid <- UIDS}"#;

/// A session over the federation, which every test ends with both
/// sources and every batch flight quiescent: checked when it is dropped.
struct Fed {
    session: Session,
    fed: BioFederation,
}

impl Deref for Fed {
    type Target = Session;
    fn deref(&self) -> &Session {
        &self.session
    }
}

impl DerefMut for Fed {
    fn deref_mut(&mut self) -> &mut Session {
        &mut self.session
    }
}

impl Drop for Fed {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            assert_quiescent(&[&*self.fed.gdb, &*self.fed.genbank, &*self.session.context()]);
        }
    }
}

fn federation() -> Fed {
    let (session, fed) = latency_federation(12, Duration::ZERO);
    Fed { session, fed }
}

/// A fresh federation session plus every valid GenBank uid.
fn fed_session() -> (Fed, Vec<i64>) {
    let fed = federation();
    let uids = fed.fed.genbank_data.entries.iter().map(|e| e.uid).collect();
    (fed, uids)
}

/// Bind the generated key list both as a set (`UIDS`) and, preserving
/// duplicates and order, as a list (`UIDL`).
fn bind_keys(session: &mut Session, keys: &[i64]) {
    let vals: Vec<Value> = keys.iter().copied().map(Value::Int).collect();
    session.bind_value("UIDS", Value::set(vals.clone()));
    session.bind_value("UIDL", Value::list(vals));
}

/// Turn batched driver round-trips off or on, the rest of the optimizer
/// configuration unchanged.
fn set_batching(session: &mut Session, on: bool) {
    let config = OptConfig {
        enable_batching: on,
        ..session.opt_config().clone()
    };
    session.set_opt_config(config);
}

/// The rows of the first `n` of `query`: a prefix, as a caller holding a
/// limit asks for it.
fn first_n(session: &Session, query: &str, n: usize) -> KResult<Vec<Value>> {
    let plan = session.compile_shared(query)?;
    let how = How {
        limit: Some(n),
        ..How::default()
    };
    let rows = session.start(&plan, how).wait()?;
    Ok(rows.elements().expect("a collection").to_vec())
}

/// Run `query` with batching off then on; both outcomes stringified so
/// error messages participate in the equivalence check too.
fn both_ways(session: &mut Session, query: &str) -> (Result<String, String>, Result<String, String>) {
    set_batching(session, false);
    let plain = session.query(query).map(|v| v.to_string()).map_err(|e| e.to_string());
    set_batching(session, true);
    let batched = session.query(query).map(|v| v.to_string()).map_err(|e| e.to_string());
    (plain, batched)
}

/// Keys sampled (with repetition) from the valid uid pool — duplicate,
/// empty, and singleton key sets all arise from the size range.
fn key_picks() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..1000, 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn set_comprehension_matches_unbatched(picks in key_picks()) {
        let (mut s, pool) = fed_session();
        let keys: Vec<i64> = picks.iter().map(|i| pool[i % pool.len()]).collect();
        bind_keys(&mut s, &keys);
        let (plain, batched) = both_ways(&mut s, LINK_SET);
        prop_assert_eq!(plain, batched);
    }

    #[test]
    fn list_comprehension_preserves_order_and_duplicates(picks in key_picks()) {
        let (mut s, pool) = fed_session();
        let keys: Vec<i64> = picks.iter().map(|i| pool[i % pool.len()]).collect();
        bind_keys(&mut s, &keys);
        let (plain, batched) = both_ways(&mut s, LINK_LIST);
        prop_assert_eq!(plain, batched);
    }

    #[test]
    fn nested_comprehension_matches_unbatched(picks in key_picks()) {
        let (mut s, pool) = fed_session();
        let keys: Vec<i64> = picks.iter().map(|i| pool[i % pool.len()]).collect();
        bind_keys(&mut s, &keys);
        let (plain, batched) = both_ways(&mut s, NESTED);
        prop_assert_eq!(plain, batched);
    }

    #[test]
    fn first_n_sees_the_same_prefix(picks in key_picks(), n in 0usize..12) {
        let (mut s, pool) = fed_session();
        let keys: Vec<i64> = picks.iter().map(|i| pool[i % pool.len()]).collect();
        bind_keys(&mut s, &keys);
        set_batching(&mut s, false);
        let plain = first_n(&s, LINK_LIST, n).map_err(|e| e.to_string());
        set_batching(&mut s, true);
        let batched = first_n(&s, LINK_LIST, n).map_err(|e| e.to_string());
        prop_assert_eq!(plain, batched);
    }
}

#[test]
fn empty_and_singleton_key_sets() {
    let (mut s, pool) = fed_session();
    for keys in [vec![], vec![pool[0]]] {
        bind_keys(&mut s, &keys);
        for q in [LINK_SET, LINK_LIST, NESTED] {
            let (plain, batched) = both_ways(&mut s, q);
            assert_eq!(plain, batched, "query {q} diverged on keys {keys:?}");
            assert!(plain.is_ok(), "query {q} failed on keys {keys:?}: {plain:?}");
        }
    }
}

#[test]
fn duplicate_keys_share_one_flight_per_distinct_key() {
    let (mut s, pool) = fed_session();
    // 16 logical keys (one warm-up chunk), 6 distinct: the batch must
    // fold to the distinct set (one 6-key wire request), while the list
    // result still answers all 16 positions.
    let keys: Vec<i64> = (0..16).map(|i| pool[i % 6]).collect();
    bind_keys(&mut s, &keys);
    let before = s.driver_metrics("GenBank").expect("metrics");
    let (plain, batched) = both_ways(&mut s, LINK_LIST);
    assert_eq!(plain, batched);
    let m = s.driver_metrics("GenBank").expect("metrics").since(&before);
    assert_eq!(m.batched_keys, 6, "duplicates must not inflate the batch: {m:?}");
    assert_eq!(m.batch_requests, 1, "6 distinct keys fit one wire request: {m:?}");
}

#[test]
fn a_bad_key_fails_identically_in_both_modes() {
    let (mut s, pool) = fed_session();
    // One unknown uid among valid ones: the per-key error must surface
    // with the same message whether the request rode a batch or not.
    let keys = vec![pool[0], -7777, pool[1], pool[2], pool[3]];
    bind_keys(&mut s, &keys);
    let (plain, batched) = both_ways(&mut s, LINK_SET);
    assert_eq!(plain, batched);
    let err = plain.expect_err("an unknown uid must fail the query");
    assert!(
        err.contains("no entry with uid -7777"),
        "unexpected error shape: {err}"
    );
}

#[test]
fn three_distinct_keys_are_one_batched_wire_request() {
    let (mut s, pool) = fed_session();
    bind_keys(&mut s, &pool[..3]);
    let before = s.driver_metrics("GenBank").expect("metrics");
    let (plain, batched) = both_ways(&mut s, LINK_SET);
    assert_eq!(plain, batched);
    let m = s.driver_metrics("GenBank").expect("metrics").since(&before);
    // The unbatched run's three requests, then one for all three keys.
    assert_eq!(
        (m.requests, m.batch_requests, m.batched_keys),
        (4, 1, 3),
        "{m:?}"
    );
}

#[test]
fn batching_does_not_need_the_parallel_rule() {
    let (mut s, pool) = fed_session();
    let keys: Vec<i64> = (0..32).map(|i| pool[i % pool.len()]).collect();
    bind_keys(&mut s, &keys);
    s.set_opt_config(OptConfig {
        enable_parallel: false,
        ..OptConfig::default()
    });
    let before = s.driver_metrics("GenBank").expect("metrics");
    let (plain, batched) = both_ways(&mut s, LINK_SET);
    assert_eq!(plain, batched);
    assert!(batched.is_ok(), "{batched:?}");
    let m = s.driver_metrics("GenBank").expect("metrics").since(&before);
    assert!(m.batch_requests >= 1, "batching never engaged: {m:?}");
}

#[test]
fn batched_run_actually_batches() {
    // Guard against the harness silently testing nothing: on a 32-key
    // workload the batched path must issue multi-key wire requests.
    let (mut s, pool) = fed_session();
    let keys: Vec<i64> = (0..32).map(|i| pool[i % pool.len()]).collect();
    bind_keys(&mut s, &keys);
    set_batching(&mut s, true);
    let before = s.driver_metrics("GenBank").expect("metrics");
    s.query(LINK_SET).expect("query");
    let m = s.driver_metrics("GenBank").expect("metrics").since(&before);
    assert!(
        m.batch_requests >= 1 && m.batched_keys >= 16,
        "batching never engaged: {m:?}"
    );
}

// ------------------------------------------------------------------------
// The hand-off: each element's marked call replays the element's handle
// ------------------------------------------------------------------------

/// `U{ {count(let <binder> = 0 in GenBank([db = "na", link = x + 1]))}
/// | \x <- KEYS }` with the `let` binding `binder` — built by hand:
/// desugaring names every binder afresh and the optimizer inlines a `let`,
/// so only such a plan has a call under a binder of its argument's
/// variable — and the same loop through the batch rule set alone.
fn let_over_the_call(s: &Session, binder: &str, keys: &[i64]) -> (Expr, Arc<Expr>) {
    let next = Expr::prim(Prim::Add, vec![Expr::var("x"), Expr::int(1)]);
    let arg = Expr::record(vec![("db", Expr::str("na")), ("link", next)]);
    let call = Expr::RemoteApp { driver: nrc::name("GenBank"), arg: Arc::new(arg) };
    let body = Expr::let_(binder, Expr::int(0), call);
    let keys = Value::set(keys.iter().map(|&k| Value::Int(k)).collect());
    let body = Expr::single(CollKind::Set, Expr::prim(Prim::Count, vec![body]));
    let e = Expr::ext(CollKind::Set, "x", body, Expr::Const(keys));
    let out = through_batch_rules(s, &e, &["GenBank"]);
    (e, out)
}

/// `e` through the batch rule set alone, over a catalog of `drivers`.
fn through_batch_rules(s: &Session, e: &Expr, drivers: &[&str]) -> Arc<Expr> {
    let mut catalog = StaticCatalog::new();
    for &d in drivers {
        catalog.add_driver(d, s.context().driver(d).expect("registered").capabilities());
    }
    let ctx = RuleCtx { catalog: &catalog };
    kleisli_opt::rules::batch::rule_set().run(Arc::new(e.clone()), &ctx, &mut Vec::new())
}

/// Is `e` a batch-marked loop?
fn is_marked(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Ext {
            strategy: LoopStrategy::Batched(_),
            ..
        }
    )
}

#[test]
fn a_call_under_a_let_rebinding_its_argument_is_not_marked_and_answers_unbatched() {
    let (s, pool) = fed_session();
    // Keys one below valid uids: `x + 1` is valid, `0 + 1` is not.
    let keys: Vec<i64> = pool.iter().take(20).map(|uid| uid - 1).collect();
    let run = |e: &Expr| eval(e, &Env::empty(), &s.context()).map_err(|e| e.to_string());
    // A binder the argument does not read keeps the mark, and the marked
    // loop batches to the unmarked loop's answer.
    let (plain, marked) = let_over_the_call(&s, "y", &keys);
    assert!(is_marked(&marked), "{marked}");
    let before = s.driver_metrics("GenBank").expect("metrics");
    assert_eq!(run(&marked), run(&plain));
    assert!(run(&plain).is_ok());
    let m = s.driver_metrics("GenBank").expect("metrics").since(&before);
    assert_eq!(m.batched_keys, 20, "{m:?}");
    // Rebinding the loop variable the argument reads refuses the mark.
    let (rebound, out) = let_over_the_call(&s, "x", &keys);
    assert!(
        !is_marked(&out),
        "a call under a binder of its argument was marked"
    );
    assert_eq!(
        run(&rebound),
        Err("driver 'GenBank': no entry with uid 1 in 'na'".into())
    );
}

/// GenBank's `(requests, batch_requests, coalesced)` over one batched run
/// of `query`, once it answered what the unbatched run did.
fn batched_traffic(s: &mut Fed, query: &str) -> (u64, u64, u64) {
    let (plain, batched) = both_ways(s, query);
    assert_eq!(plain, batched);
    assert!(batched.is_ok(), "{batched:?}");
    let before = s.driver_metrics("GenBank").expect("metrics");
    s.query(query).expect("batched");
    let m = s.driver_metrics("GenBank").expect("metrics").since(&before);
    (m.requests, m.batch_requests, m.coalesced)
}

#[test]
fn a_marked_call_run_twice_per_element_replays_one_flight() {
    let (mut s, pool) = fed_session();
    let keys: Vec<i64> = pool.iter().take(20).copied().collect();
    bind_keys(&mut s, &keys);
    // The call sits under an inner generator: it runs twice per element.
    let twice = r#"{[u = uid, n = count({l | \v <- {1, 2}, \l <- GenBank([db = "na", link = uid])})] | \uid <- UIDS}"#;
    let plan = s.compile_shared(twice).expect("compile");
    assert!(is_marked(&plan.optimized), "{}", plan.optimized);
    let once = batched_traffic(&mut s, LINK_SET);
    assert_eq!(batched_traffic(&mut s, twice), once, "the second run of each call is a replay");
    assert_eq!(once.2, 0, "no body goes back to the window");
}

#[test]
fn a_marked_call_under_an_inner_remote_generator_replays_its_element_handle() {
    let (mut s, pool) = fed_session();
    let keys: Vec<i64> = pool.iter().take(20).copied().collect();
    bind_keys(&mut s, &keys);
    // The inner generator reads a remote source and its body calls one,
    // but both calls ask for the outer element's `uid` alone, so it stays
    // a sequential loop, unmarked: the marked call, its source and again
    // under it once per link, replays the outer element's handle every
    // time it runs.
    let inner = r#"{[u = uid, n = count({[v = v.uid, l = l.uid] | \v <- GenBank([db = "na", link = uid]), \l <- GenBank([db = "na", link = uid])})] | \uid <- UIDS}"#;
    let plan = s.compile_shared(inner).expect("compile");
    let text = plan.optimized.to_string();
    assert!(is_marked(&plan.optimized), "{text}");
    assert_eq!(
        text.matches("PAR[").count(),
        0,
        "no request of the inner loop changes per element: {text}"
    );
    let once = batched_traffic(&mut s, LINK_SET);
    assert_eq!(batched_traffic(&mut s, inner), once, "every run of the call is a replay");
}

/// A second Entrez whose entries link once each, where GenBank's link
/// three times, registered on `s`.
fn other_entrez(s: &mut Session, pool: &[i64]) -> Arc<EntrezServer> {
    let other = Arc::new(EntrezServer::serve("Other", Entrez::default(), LatencyModel::instant()));
    other.with_division("na", |d| {
        for &uid in pool {
            d.add_entry(uid, Value::Int(uid), []).expect("a fresh uid");
            d.add_link(uid, Link { uid, score: 1.0, organism: "other".into() });
        }
    });
    s.register_driver(other.clone());
    other
}

/// `driver([db = "na", link = <var>])`.
fn links_of(driver: &str, var: &str) -> Expr {
    let arg = Expr::record(vec![("db", Expr::str("na")), ("link", Expr::var(var))]);
    Expr::RemoteApp {
        driver: nrc::name(driver),
        arg: Arc::new(arg),
    }
}

/// `U{ body | \var <- source }`, marked for `call` when given.
fn loop_over(var: &str, body: Expr, source: Expr, call: Option<&Expr>) -> Expr {
    let strategy = call.map_or(LoopStrategy::Sequential, |call| match call {
        Expr::RemoteApp { driver, arg } => LoopStrategy::Batched(BatchSpec {
            driver: driver.clone(),
            arg: Arc::clone(arg),
            max_keys: 16,
        }),
        other => panic!("not a call: {other}"),
    });
    Expr::Ext {
        kind: CollKind::Set,
        var: nrc::name(var),
        body: Arc::new(body),
        source: Arc::new(source),
        strategy,
    }
}

fn count(e: Expr) -> Expr {
    Expr::prim(Prim::Count, vec![e])
}

#[test]
fn two_drivers_called_on_one_argument_answer_each_its_own() {
    let (mut s, pool) = fed_session();
    let other = other_entrez(&mut s, &pool);
    // `U{ {[u = x, g = count(GenBank(r)), o = count(Other(r))]} | \x <-
    // KEYS }`, both calls on one argument node `r` — a plan shared by
    // hand, as hash-consing shares equal subplans.
    let arg = Arc::new(Expr::record(vec![
        ("db", Expr::str("na")),
        ("link", Expr::var("x")),
    ]));
    let call = |driver: &str| Expr::RemoteApp {
        driver: nrc::name(driver),
        arg: Arc::clone(&arg),
    };
    let row = Expr::record(vec![
        ("u", Expr::var("x")),
        ("g", count(call("GenBank"))),
        ("o", count(call("Other"))),
    ]);
    let keys = Expr::Const(Value::set(
        pool.iter().take(20).map(|&k| Value::Int(k)).collect(),
    ));
    let body = Expr::single(CollKind::Set, row);
    let plain = loop_over("x", body.clone(), keys.clone(), None);
    // A body calling two drivers stays unmarked (the parallel rule takes
    // it in the full pipeline).
    let out = through_batch_rules(&s, &plain, &["GenBank", "Other"]);
    assert_eq!(*out, plain, "a body calling two drivers was marked");
    // Marked by hand for GenBank, the Other call on the same argument
    // node is never handed GenBank's reply.
    let marked = loop_over("x", body, keys, Some(&call("GenBank")));
    let mut args = Vec::new();
    marked.visit(&mut |e| {
        if let Expr::RemoteApp { arg, .. } = e {
            args.push(Arc::clone(arg));
        }
    });
    assert!(args.len() == 2 && Arc::ptr_eq(&args[0], &args[1]), "one argument node");
    let run = |e: &Expr| eval(e, &Env::empty(), &s.context()).map(|v| v.to_string()).map_err(|e| e.to_string());
    let answer = run(&plain).expect("unbatched");
    assert!(answer.contains("o = 1") && !answer.contains("o = 3"), "{answer}");
    assert_eq!(run(&marked), Ok(answer));
    assert_quiescent(&[&*other]);
}

#[test]
fn a_marked_loop_inside_another_keeps_the_outer_elements_handle() {
    let (mut s, pool) = fed_session();
    let other = other_entrez(&mut s, &pool);
    // Built by hand, since the optimizer marks neither loop (each body
    // calls two drivers): `BATCH[GenBank] U{ BATCH[Other] U{ {[u = x,
    // v = y, g = count(GenBank(x)), o = count(Other(y))]} | \y <- YS } |
    // \x <- KEYS }`. The outer marked call runs in the inner loop's body.
    let set = |keys: &[i64]| Expr::Const(Value::set(keys.iter().map(|&k| Value::Int(k)).collect()));
    let (genbank, links) = (links_of("GenBank", "x"), links_of("Other", "y"));
    let row = |inner: bool| {
        let mut fields = vec![("u", Expr::var("x")), ("g", count(genbank.clone()))];
        if inner {
            fields.extend([("v", Expr::var("y")), ("o", count(links.clone()))]);
        }
        Expr::single(CollKind::Set, Expr::record(fields))
    };
    let nested = |marked: bool| {
        let inner = loop_over("y", row(true), set(&pool[20..23]), marked.then_some(&links));
        loop_over("x", inner, set(&pool[..20]), marked.then_some(&genbank))
    };
    let unnested = loop_over("x", row(false), set(&pool[..20]), Some(&genbank));
    let run = |e: &Expr| {
        let before = s.driver_metrics("GenBank").expect("metrics");
        let v = eval(e, &Env::empty(), &s.context())
            .map(|v| v.to_string())
            .map_err(|e| e.to_string());
        (
            v,
            s.driver_metrics("GenBank")
                .expect("metrics")
                .since(&before)
                .requests,
        )
    };
    let (plain, _) = run(&nested(false));
    let (batched, requests) = run(&nested(true));
    assert!(plain.is_ok(), "{plain:?}");
    assert_eq!(batched, plain);
    let (_, unnested_requests) = run(&unnested);
    assert_eq!(unnested_requests, 2, "20 keys, 16 a request");
    assert_eq!(
        requests, unnested_requests,
        "an outer call in the inner body went to the wire"
    );
    assert_quiescent(&[&*other]);
}

#[test]
fn an_element_whose_key_failed_ships_the_rows_before_it_then_the_error() {
    let (mut s, pool) = fed_session();
    let keys = vec![pool[0], pool[1], pool[2], -7777, pool[3], pool[4]];
    bind_keys(&mut s, &keys);
    // The rows of the elements in front of the failing one, then its
    // error, at the full grain and at grain 1, batched or not.
    let drain = |s: &Fed, grain: usize| {
        let plan = s.compile_shared(LINK_LIST).expect("compile");
        let mut blocks = eval_blocks(&plan.optimized, &Env::empty(), &s.context()).expect("built");
        let mut rows = Vec::new();
        while let Some(block) = blocks.next_block(grain) {
            rows.extend(block.into_rows().map(|r| r.map_err(|e| e.to_string())));
        }
        rows
    };
    for grain in [DEFAULT_BLOCK_ROWS, 1] {
        set_batching(&mut s, false);
        let plain = drain(&s, grain);
        set_batching(&mut s, true);
        let batched = drain(&s, grain);
        assert_eq!(plain, batched, "grain {grain}");
        assert_eq!(batched.len(), 4, "three rows, then the error: {batched:?}");
        assert!(batched[..3].iter().all(Result::is_ok));
        let err = batched[3].as_ref().expect_err("the failing key");
        assert!(err.contains("no entry with uid -7777"), "{err}");
    }
}

// ------------------------------------------------------------------------
// Two-hop dependent loops: the staged plan
// ------------------------------------------------------------------------

/// Hop 1 of the two-hop loops: an accession's sequence uids (the DOE
/// query's `ASN-IDs`).
const IDS: &str = r#"define IDS == \acc => flatten(GenBank([db = "na",
    select = "accession " ^ acc, path = "Seq-entry.seq.id..giim"]));"#;

/// The comprehension brackets and bound key collection of each kind.
const KINDS: [(&str, &str, &str); 3] = [
    ("{", "}", "KEYS"),
    ("{|", "|}", "KEYB"),
    ("[|", "|]", "KEYL"),
];
const LIST: (&str, &str, &str) = KINDS[2];

/// `\k <- KEYS, \uid <- IDS(k.acc)` with the per-uid link count in the
/// head. The outer element's `bump` is added to the hop-2 key, so the
/// generator can break a key at either hop: a trailing word in `acc`
/// fails the hop-1 query, a large `bump` names a uid nobody has.
fn two_hop((open, close, keys): (&str, &str, &str)) -> String {
    format!(
        r#"{open}[a = k.acc, u = uid, n = count(GenBank([db = "na", link = uid + k.bump]))] |
            \k <- {keys}, \uid <- IDS(k.acc){close}"#
    )
}

#[derive(Debug, Clone, Copy)]
enum Fault {
    Hop1,
    Hop2,
}

/// A session with `IDS` defined and the keys bound as a set, a bag and
/// a list. `picks` index the accession pool (duplicates welcome: they
/// become duplicate `(i, o)` pairs in the bag and list loops); each
/// fault breaks the key at its position, with that position in the
/// error text so the harness can tell *which* failure was reported.
fn two_hop_session(picks: &[usize], faults: &[(usize, Fault)]) -> Fed {
    let mut s = federation();
    s.run(IDS).expect("define");
    let pool = &s.fed.genbank_data.entries;
    let mut keys: Vec<(String, i64)> = picks
        .iter()
        .map(|i| (pool[i % pool.len()].accession.clone(), 0))
        .collect();
    for (at, fault) in faults {
        if keys.is_empty() {
            break;
        }
        let at = at % keys.len();
        match fault {
            Fault::Hop1 => keys[at].0 = format!("{} bad{at}", keys[at].0),
            Fault::Hop2 => keys[at].1 = 9_000_000 + at as i64,
        }
    }
    let vals: Vec<Value> = keys
        .into_iter()
        .map(|(acc, bump)| {
            Value::record_from(vec![("acc", Value::str(acc)), ("bump", Value::Int(bump))])
        })
        .collect();
    s.bind_value("KEYS", Value::set(vals.clone()));
    s.bind_value("KEYB", Value::bag(vals.clone()));
    s.bind_value("KEYL", Value::list(vals));
    s
}

/// The four readings of one query that must agree: the definitional
/// semantics of the desugared NRC, the unoptimized plan, the nested
/// (batching-off) plan and the staged (batching-on) plan — as printed
/// values or error texts.
fn four_ways(s: &mut Session, query: &str) -> [Result<String, String>; 4] {
    let raw = s.compile_shared(query).expect("compile").raw.clone();
    let by_the_book = reference::eval(&raw, &Env::empty(), &s.context());
    let mut run = |config: OptConfig| {
        s.set_opt_config(config);
        s.query(query)
    };
    let naive = run(OptConfig::none());
    let nested = run(OptConfig {
        enable_batching: false,
        ..OptConfig::default()
    });
    let staged = run(OptConfig::default());
    [by_the_book, naive, nested, staged]
        .map(|r| r.map(|v| v.to_string()).map_err(|e| e.to_string()))
}

fn fault_picks() -> impl Strategy<Value = Vec<(usize, Fault)>> {
    let fault = prop_oneof![Just(Fault::Hop1), Just(Fault::Hop2)];
    proptest::collection::vec((0usize..1000, fault), 0..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Up to 40 keys: several 16-key chunks per hop, so chunk
    /// boundaries, read-ahead and partial chunks all take part.
    #[test]
    fn two_hop_loops_match_every_other_reading(
        picks in proptest::collection::vec(0usize..1000, 0..40),
        faults in fault_picks(),
    ) {
        let mut s = two_hop_session(&picks, &faults);
        for kind in KINDS {
            let [by_the_book, naive, nested, staged] = four_ways(&mut s, &two_hop(kind));
            prop_assert_eq!(&naive, &by_the_book, "unoptimized {} loop", kind.2);
            prop_assert_eq!(&nested, &by_the_book, "nested {} loop", kind.2);
            prop_assert_eq!(&staged, &by_the_book, "staged {} loop", kind.2);
        }
    }

    /// A list prefix is the same rows in the same order however the loop
    /// runs — and an error counts only if it precedes the `n`-th row.
    #[test]
    fn two_hop_first_n_sees_the_same_prefix(
        picks in proptest::collection::vec(0usize..1000, 0..40),
        faults in fault_picks(),
        n in 0usize..30,
    ) {
        let mut s = two_hop_session(&picks, &faults);
        let query = two_hop(LIST);
        let prefix = |s: &mut Session, config: OptConfig| {
            s.set_opt_config(config);
            first_n(s, &query, n).map_err(|e| e.to_string())
        };
        let naive = prefix(&mut s, OptConfig::none());
        let nested = prefix(&mut s, OptConfig { enable_batching: false, ..OptConfig::default() });
        let staged = prefix(&mut s, OptConfig::default());
        prop_assert_eq!(&nested, &naive);
        prop_assert_eq!(&staged, &naive);
        let raw = s.compile_shared(&query).expect("compile").raw.clone();
        match (reference::eval(&raw, &Env::empty(), &s.context()), staged) {
            (Ok(all), staged) => {
                let all = all.elements().expect("a list");
                prop_assert_eq!(staged, Ok(all[..n.min(all.len())].to_vec()));
            }
            (Err(e), Err(staged)) => prop_assert_eq!(staged, e.to_string()),
            // The error lies beyond the prefix: nothing to compare it to.
            (Err(_), Ok(rows)) => prop_assert_eq!(rows.len(), n),
        }
    }

    /// Set and bag prefixes arrive in stream order, which staging is
    /// free to change: hold them to membership and size.
    #[test]
    fn two_hop_set_and_bag_prefixes_are_drawn_from_the_result(
        picks in proptest::collection::vec(0usize..1000, 0..40),
        n in 0usize..30,
    ) {
        let s = two_hop_session(&picks, &[]);
        for kind in &KINDS[..2] {
            let query = two_hop(*kind);
            let all = s.query(&query).expect("query");
            let all = all.elements().expect("a collection");
            let got = first_n(&s, &query, n).expect("prefix");
            prop_assert_eq!(got.len(), n.min(all.len()));
            prop_assert!(got.iter().all(|row| all.contains(row)));
        }
    }
}

#[test]
fn a_bad_key_at_both_hops_reports_the_earlier_element() {
    // One stage-1 chunk holds both failures. Whichever key comes first
    // in list order is the one an element-at-a-time evaluation trips
    // over — even when that is the hop-2 failure and stage 1, run as a
    // whole, would have hit the later key's hop-1 failure first.
    let picks: Vec<usize> = (0..12).collect();
    for (faults, culprit) in [
        ([(3, Fault::Hop2), (8, Fault::Hop1)], "no entry with uid"),
        ([(3, Fault::Hop1), (8, Fault::Hop2)], "bad3"),
    ] {
        let mut s = two_hop_session(&picks, &faults);
        for kind in KINDS {
            let [by_the_book, naive, nested, staged] = four_ways(&mut s, &two_hop(kind));
            assert_eq!(naive, by_the_book, "{kind:?} {faults:?}");
            assert_eq!(nested, by_the_book, "{kind:?} {faults:?}");
            assert_eq!(staged, by_the_book, "{kind:?} {faults:?}");
            if kind == LIST {
                let err = staged.expect_err("both keys are bad");
                assert!(err.contains(culprit), "{faults:?} reported {err}");
            }
        }
        // The rows in front of the failure still arrive.
        s.set_opt_config(OptConfig::default());
        assert_eq!(first_n(&s, &two_hop(LIST), 3).expect("prefix").len(), 3);
        assert!(first_n(&s, &two_hop(LIST), 4).is_err());
    }
}

#[test]
fn two_hop_run_actually_stages() {
    // Guard against the harness silently testing nothing: 40 distinct
    // keys must stage, and both hops must ride batched wire requests.
    let picks: Vec<usize> = (0..40).collect();
    let s = two_hop_session(&picks, &[]);
    for kind in KINDS {
        let query = two_hop(kind);
        assert!(
            s.explain(&query)
                .expect("explain")
                .contains("batch/stage-dependent-remote-loop"),
            "{kind:?} loop was not staged"
        );
        let before = s.driver_metrics("GenBank").expect("metrics");
        s.query(&query).expect("query");
        let m = s.driver_metrics("GenBank").expect("metrics").since(&before);
        assert_eq!((m.requests, m.batched_keys), (6, 80), "{kind:?}: {m:?}");
    }
}
