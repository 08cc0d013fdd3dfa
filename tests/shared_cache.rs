//! Cross-session shared-cache semantics at the `Session` API level
//! (below the server): two sessions sharing one `PlanCache` and one
//! `ResultCache` compile a common query once and populate the result
//! cache once, and a cancellation mid-flight neither poisons the shared
//! cell nor caches a partial result.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, BioFederation, PlanCache, Session};
use kleisli_core::{CancelToken, KError, LatencyModel, Value};
use kleisli_exec::ResultCache;

fn shared_pair(fed: &BioFederation) -> (Session, Session, Arc<PlanCache>, Arc<ResultCache>) {
    let plans = PlanCache::new(16);
    let results = ResultCache::with_default_budget();
    let make = || {
        let mut s = Session::new();
        s.register_driver(fed.gdb.clone());
        s.register_driver(fed.genbank.clone());
        // Shared caches attach *after* registration (registration
        // invalidates whatever caches are attached).
        s.share_plan_cache(Arc::clone(&plans));
        s.share_result_cache(Arc::clone(&results));
        s
    };
    let a = make();
    let b = make();
    (a, b, plans, results)
}

fn federation(latency_ms: u64) -> BioFederation {
    bio_federation(
        &GdbConfig {
            loci: 30,
            seed: 23,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 5,
            links_per_entry: 2,
            seq_len: 20,
            seed: 23,
        },
        LatencyModel::real(Duration::from_millis(latency_ms), Duration::ZERO),
        LatencyModel::real(Duration::from_millis(latency_ms), Duration::ZERO),
    )
    .expect("federation")
}

const COUNT_LOCI: &str = r#"count({l | \l <- GDB-Tab("locus")})"#;

/// Run one query through the shared caches — what a server connection
/// does per admitted query.
fn run(session: &Session, src: &str) -> Value {
    let (value, _from_cache) = session
        .run_shared(src, &Arc::new(CancelToken::new()))
        .expect("query");
    value
}

#[test]
fn two_concurrent_sessions_compile_once_and_populate_once() {
    let fed = federation(25);
    let (a, b, plans, results) = shared_pair(&fed);
    let barrier = Barrier::new(2);

    let (va, vb) = thread::scope(|scope| {
        let ta = scope.spawn(|| {
            barrier.wait();
            run(&a, COUNT_LOCI)
        });
        let tb = scope.spawn(|| {
            barrier.wait();
            run(&b, COUNT_LOCI)
        });
        (ta.join().unwrap(), tb.join().unwrap())
    });

    assert_eq!(va, Value::Int(30));
    assert_eq!(vb, va);

    // Exactly one compile across both sessions (single-flight plan
    // cache), and exactly one populate flight in the result cache.
    let p = plans.stats();
    assert_eq!(p.misses, 1, "one compile: {p:?}");
    assert_eq!(p.hits, 1, "the other session hit: {p:?}");
    let r = results.stats();
    assert_eq!(r.misses, 1, "one result computation: {r:?}");
    assert_eq!(r.hits, 1, "the other session was served: {r:?}");
    assert_eq!(r.entries, 1);
}

#[test]
fn cancelled_flight_does_not_poison_the_shared_cell() {
    let fed = federation(300);
    let (a, b, _plans, results) = shared_pair(&fed);

    // Session A wins the populate flight, then is cancelled while its
    // 300 ms round-trip is in flight; its uncommitted ticket must wake
    // waiters, not cache anything.
    let token = Arc::new(CancelToken::new());
    let err = thread::scope(|scope| {
        scope.spawn(|| {
            thread::sleep(Duration::from_millis(50));
            token.cancel();
        });
        a.run_shared(COUNT_LOCI, &token).expect_err("cancelled query")
    });
    assert!(err.to_string().to_lowercase().contains("cancel"), "{err}");
    assert_eq!(results.stats().entries, 0, "nothing cached by the abort");

    // Session B retries the same plan_hash and completes — the cell was
    // released, not poisoned.
    let v = run(&b, COUNT_LOCI);
    assert_eq!(v, Value::Int(30));
    let r = results.stats();
    assert_eq!(r.entries, 1, "retry cached the result: {r:?}");
    assert_eq!(r.misses, 2, "both flights counted as misses: {r:?}");
}

#[test]
fn a_cancel_reaches_a_waiter_parked_on_another_sessions_flight() {
    let fed = federation(300);
    let (a, b, _plans, results) = shared_pair(&fed);
    let token = Arc::new(CancelToken::new());
    thread::scope(|scope| {
        let leader = scope.spawn(|| run(&a, COUNT_LOCI));
        // A leads from the moment its miss is counted, 300 ms from done.
        while results.stats().misses == 0 {
            thread::yield_now();
        }
        scope.spawn(|| {
            thread::sleep(Duration::from_millis(80));
            token.cancel();
        });
        let parked = Instant::now();
        let err = b.run_shared(COUNT_LOCI, &token).expect_err("cancelled while waiting");
        let waited = parked.elapsed();
        assert!(matches!(err, KError::Cancelled(_)), "{err}");
        assert!(
            waited < Duration::from_millis(150),
            "the waiter sat out {waited:?} of the leader's flight"
        );
        // The leader and its commit are untouched...
        assert_eq!(leader.join().unwrap(), Value::Int(30));
    });
    // ...and the waiter that gave up counted neither a hit nor a miss.
    let r = results.stats();
    assert_eq!((r.misses, r.hits, r.entries), (1, 0, 1), "{r:?}");
    let (v, cached) = b
        .run_shared(COUNT_LOCI, &Arc::new(CancelToken::new()))
        .expect("a third lookup");
    assert_eq!((v, cached), (Value::Int(30), true));
    assert_eq!(results.stats().hits, 1);
}

#[test]
fn plan_hash_is_stable_across_sessions_and_recompiles() {
    let fed = federation(0);
    let (a, b, _, _) = shared_pair(&fed);
    let ha = a.compile(COUNT_LOCI).unwrap().plan_hash();
    let hb = b.compile(COUNT_LOCI).unwrap().plan_hash();
    assert_eq!(ha, hb, "same topology, same source, same key");
    let other = a.compile(r#"count({l | \l <- GDB-Tab("object_genbank_eref")})"#).unwrap();
    assert_ne!(ha, other.plan_hash());
}
