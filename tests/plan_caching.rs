//! Session-level behavior of the deterministic subplan-caching subsystem:
//! stable `Cached` ids across pointer-distinct compiles, the compiled-plan
//! LRU (hits, invalidation, correctness), and the set-deduplicated
//! `query_first_n` prefix.

use std::sync::Arc;
use std::time::Duration;

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, BioFederation, Session};
use kleisli_core::{LatencyModel, Value};
use kleisli_opt::OptConfig;
use nrc::Expr;

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
        LatencyModel::virtual_only(Duration::from_millis(2), Duration::from_micros(10)),
        LatencyModel::virtual_only(Duration::from_millis(2), Duration::from_micros(10)),
    )
    .expect("federation");
    let mut session = Session::new();
    session.register_driver(fed.gdb.clone());
    session.register_driver(fed.genbank.clone());
    (session, fed)
}

/// A query whose inner subquery is outer-independent and remote — the
/// cache rule wraps it in `Cached`.
const CACHEABLE: &str = r#"{[s = l.locus_symbol,
         n = count({e | \e <- GDB-Tab("object_genbank_eref"), e.object_class_key = 1})] |
      \l <- GDB-Tab("locus")}"#;

fn cached_ids(e: &Expr) -> Vec<u64> {
    let mut out = Vec::new();
    e.visit(&mut |n| {
        if let Expr::Cached { id, .. } = n {
            out.push(*id);
        }
    });
    out
}

#[test]
fn cached_ids_are_stable_across_pointer_distinct_compiles() {
    // Two *separate* sessions (separate interners, separate plan caches):
    // the compiled plans share no Arcs, yet their cached subqueries carry
    // identical ids — the subplan's structural hash — and therefore map
    // to the same Context cache slots.
    let (s1, _fed1) = federation(20);
    let (s2, _fed2) = federation(20);
    let c1 = s1.compile(CACHEABLE).expect("compile 1");
    let c2 = s2.compile(CACHEABLE).expect("compile 2");

    let ids1 = cached_ids(&c1.optimized);
    let ids2 = cached_ids(&c2.optimized);
    assert!(!ids1.is_empty(), "the inner subquery must be cached");
    assert_eq!(ids1, ids2, "Cached ids must survive recompilation");

    // The plans really are pointer-distinct objects.
    let arcs = |e: &Expr| {
        let mut v = Vec::new();
        e.for_each_child(&mut |c| v.push(std::sync::Arc::as_ptr(c) as usize));
        v
    };
    assert_ne!(arcs(&c1.optimized), arcs(&c2.optimized));

    // Running the query populates exactly those slots in the session's
    // Context — the deterministic id is a real slot address.
    let s1 = s1;
    let v = s1.query(CACHEABLE).expect("run");
    assert_eq!(v.len(), Some(20));
    for id in &ids1 {
        assert!(
            s1.context().cache_get(*id).is_some(),
            "slot {id} must be populated after the run"
        );
    }
}

#[test]
fn plan_cache_hits_and_is_invalidated_by_binding_changes() {
    let mut session = Session::new();
    session.bind_value(
        "DB",
        Value::set((0..10).map(Value::Int).collect()),
    );
    let q = r"{x | \x <- DB, x < 5}";
    let first = session.query(q).expect("first");
    let stats = session.plan_cache_stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.entries, 1);

    let second = session.query(q).expect("second");
    assert_eq!(first, second);
    let stats = session.plan_cache_stats();
    assert_eq!(stats.hits, 1, "identical source must hit the plan cache");

    // Rebinding DB changes the meaning of the source: the cache must not
    // serve the stale plan.
    session.bind_value(
        "DB",
        Value::set((100..110).map(Value::Int).collect()),
    );
    assert_eq!(session.plan_cache_stats().entries, 0, "invalidated");
    let third = session.query(q).expect("third");
    assert_eq!(third, Value::set(vec![]), "new binding, new plan");
}

#[test]
fn plan_cache_respects_opt_config_and_capacity() {
    let (session, _fed) = federation(10);
    let mut session = session;
    let a = session.query(CACHEABLE).expect("default config");
    session.set_opt_config(OptConfig::none());
    // Different config → different key → a fresh compile, same answer.
    let before = session.plan_cache_stats();
    let b = session.query(CACHEABLE).expect("none config");
    let after = session.plan_cache_stats();
    assert_eq!(a, b);
    assert_eq!(after.hits, before.hits, "config change must not hit");
    assert_eq!(after.entries, before.entries + 1);

    // Capacity 0 disables caching entirely.
    session.set_plan_cache_capacity(0);
    assert_eq!(session.plan_cache_stats().entries, 0);
    session.query(CACHEABLE).expect("uncached run");
    assert_eq!(session.plan_cache_stats().entries, 0);
}

#[test]
fn first_n_prefix_of_a_set_query_is_duplicate_free() {
    let mut session = Session::new();
    // 40 records whose projection collapses onto 4 distinct keys: the
    // streamed prefix used to return the same key over and over.
    session.bind_value(
        "DB",
        Value::set(
            (0..40)
                .map(|i| {
                    Value::record_from(vec![("k", Value::Int(i % 4)), ("v", Value::Int(i))])
                })
                .collect(),
        ),
    );
    let got = session
        .query_first_n(r"{x.k | \x <- DB}", 10)
        .expect("first_n");
    let mut uniq = got.clone();
    uniq.sort();
    uniq.dedup();
    assert_eq!(
        uniq.len(),
        got.len(),
        "set prefix contains duplicates: {got:?}"
    );
    assert_eq!(got.len(), 4, "only 4 distinct keys exist");

    // Bag prefixes keep duplicates (kind-faithful behavior).
    let bag = session
        .query_first_n(r"{| x.k | \x <- DB |}", 10)
        .expect("bag first_n");
    assert_eq!(bag.len(), 10);
}

#[test]
fn repeated_queries_reuse_the_compiled_plan_and_stay_correct() {
    let (session, _fed) = federation(15);
    let first = session.query(CACHEABLE).expect("run 1");
    for _ in 0..5 {
        assert_eq!(session.query(CACHEABLE).expect("re-run"), first);
    }
    let stats = session.plan_cache_stats();
    assert_eq!(stats.hits, 5, "five warm runs, five plan-cache hits");
}

#[test]
fn a_session_keeps_its_cached_plans_alive_not_every_plan_it_ever_compiled() {
    let mut session = Session::new();
    session.bind_value("DB", Value::set((0..5).map(Value::Int).collect()));
    session.set_plan_cache_capacity(2);
    let query = |k: i64| format!(r"{{x + {k} | \x <- DB}}");

    let compiled = session.compile(&query(0)).unwrap();
    let Expr::Ext { body, .. } = &compiled.raw else {
        panic!("a comprehension desugars to a generator: {}", compiled.raw)
    };
    // A subplan the compile interned, watched without keeping it alive.
    let subplan = Arc::downgrade(body);
    drop(compiled);
    assert!(subplan.upgrade().is_some(), "the plan cache still holds q0");
    for k in 1..=3 {
        session.compile(&query(k)).unwrap();
    }
    assert!(
        subplan.upgrade().is_none(),
        "q0 left the plan cache, yet something still holds its subplans"
    );
}
