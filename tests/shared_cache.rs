//! Cross-session shared-cache semantics at the `Session` API level
//! (below the server): two sessions sharing one `PlanCache` and one
//! `ResultCache` keep one plan of a common query and populate the result
//! cache once, and a cancellation mid-flight neither poisons the shared
//! cell nor caches a partial result.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, BioFederation, How, PlanCache, Session};
use kleisli_core::{CancelToken, KError, KResult, LatencyModel, Value};
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

/// What a server connection does per admitted query: start it with no
/// limit under `cancel` and wait; and whether the shared cache answered.
fn run_shared(session: &Session, src: &str, cancel: &Arc<CancelToken>) -> KResult<(Value, bool)> {
    let how = How {
        cancel: Some(Arc::clone(cancel)),
        ..How::default()
    };
    let handle = session.start(&session.compile_shared(src)?, how);
    let from_cache = handle.from_cache();
    Ok((handle.wait()?, from_cache))
}

/// Run one query through the shared caches.
fn run(session: &Session, src: &str) -> Value {
    let (value, _from_cache) =
        run_shared(session, src, &Arc::new(CancelToken::new())).expect("query");
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

    // One compile across both sessions (single-flight plan cache), kept
    // because the other session coalesced onto it — or, when it was done
    // before the other could, a second compile, whose ask admits the
    // plan. Exactly one populate flight in the result cache either way.
    let p = plans.stats();
    assert!(
        matches!((p.misses, p.hits, p.declined), (1, 1, 0) | (2, 0, 1)),
        "one compile and a hit, or a declined compile and an admitted one: {p:?}"
    );
    assert_eq!(p.entries, 1, "{p:?}");
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
        run_shared(&a, COUNT_LOCI, &token).expect_err("cancelled query")
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
        let err = run_shared(&b, COUNT_LOCI, &token).expect_err("cancelled while waiting");
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
    let (v, cached) =
        run_shared(&b, COUNT_LOCI, &Arc::new(CancelToken::new())).expect("a third lookup");
    assert_eq!((v, cached), (Value::Int(30), true));
    assert_eq!(results.stats().hits, 1);
}

const DOE_DEFINES: &str = r#"
    define Loci == \chrom => {[locus_symbol = x, genbank_ref = y] |
        [locus_symbol = \x, locus_id = \a, ...] <- GDB-Tab("locus"),
        [genbank_ref = \y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
        [loc_cyto_chrom_num = chrom, locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")};
    define ASN-IDs == \accession =>
        flatten(GenBank([db = "na", select = "accession " ^ accession, path = "Seq-entry.seq.id..giim"]));
    define NA-Links == \uid => GenBank([db = "na", link = uid]);
"#;

/// The paper's DOE query over one chromosome. Compiling it names its
/// binders with `nrc::fresh` (`g%6027`), numbered anew by every compile.
fn doe(chromosome: &str) -> String {
    format!(
        r#"{{[locus = locus, homologs = {{l | \l <- NA-Links(uid), not (l.organism = "Homo sapiens")}}] | \locus <- Loci("{chromosome}"), \uid <- ASN-IDs(locus.genbank_ref)}}"#
    )
}

/// A session over `fed` with the DOE defines and a plan cache of its own.
fn doe_session(fed: &BioFederation) -> Session {
    let mut s = Session::new();
    s.register_driver(fed.gdb.clone());
    s.register_driver(fed.genbank.clone());
    s.run(DOE_DEFINES).expect("defines");
    s
}

#[test]
fn plan_hash_is_stable_across_sessions_and_recompiles() {
    let fed = federation(0);
    let (a, b) = (doe_session(&fed), doe_session(&fed));
    assert!(!Arc::ptr_eq(a.plan_cache(), b.plan_cache()));
    let first = a.compile_shared(&doe("1")).unwrap();
    let key = first.plan_hash();
    assert_eq!(
        b.compile_shared(&doe("1")).unwrap().plan_hash(),
        key,
        "another session, same key"
    );
    a.clear_plan_cache();
    let again = a.compile_shared(&doe("1")).unwrap();
    assert_ne!(
        again.optimized, first.optimized,
        "a recompile numbers its binders anew"
    );
    assert_eq!(again.plan_hash(), key, "recompiled, same key");
    let other = a.compile_shared(&doe("2")).unwrap();
    assert_ne!(key, other.plan_hash());
}

#[test]
fn a_recompiled_plan_finds_its_result() {
    // Two texts alternating through a one-plan cache: every ask
    // recompiles. Were the key the spelling of the binders, no ask would
    // ever find an earlier one's result, and each would leave an orphan.
    let fed = federation(0);
    let mut session = doe_session(&fed);
    let results = ResultCache::with_default_budget();
    session.share_result_cache(Arc::clone(&results));
    session.share_plan_cache(PlanCache::new(1));
    let (one, two) = (doe("1"), doe("2"));
    let served: Vec<bool> = [&one, &two, &one, &two, &one, &two, &one, &two]
        .iter()
        .map(|src| {
            run_shared(&session, src, &Arc::new(CancelToken::new()))
                .unwrap()
                .1
        })
        .collect();
    // Asked once: served. Asked twice: admitted. From then on: hits.
    assert_eq!(served, [false, false, false, false, true, true, true, true]);
    assert_eq!(session.plan_cache_stats().misses, 8, "every ask recompiled");
    let r = results.stats();
    assert_eq!(
        (r.hits, r.misses, r.declined, r.entries),
        (4, 4, 2, 2),
        "{r:?}"
    );
}
