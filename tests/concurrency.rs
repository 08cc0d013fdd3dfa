//! End-to-end tests of the concurrency-first session API: non-blocking
//! [`kleisli::Session::start`], `QueryHandle` wait / try_wait / cancel,
//! prefixes (`How::limit`), enforced per-driver admission budgets, and
//! latency overlap across parallel plans.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench_harness::set_par_width;
use kleisli::{Compiled, How, QueryHandle, QueryStatus, Session};
use kleisli_core::testutil::{assert_quiescent, Fault, SlowDriver};
use kleisli_core::{Driver, Value};

/// A session over one slow driver plus an `IDS` binding for per-element
/// remote loops.
fn slow_session(driver: Arc<SlowDriver>, ids: i64) -> Session {
    let mut s = Session::new();
    s.register_driver(driver);
    s.bind_value("IDS", Value::set((0..ids).map(Value::Int).collect()));
    s
}

/// Per-element remote loop (the request depends on `i`, so the optimizer
/// parallelizes the loop up to the driver's budget rather than caching
/// the subquery).
const PER_ELEMENT: &str = r#"{[i = i, n = count(SRC([function = "probe", arg = i]))] | \i <- IDS}"#;

/// Start `src` on `s`, read to its end unless `limit` rows are enough.
fn start(s: &Session, src: &str, limit: Option<usize>) -> QueryHandle {
    let plan = s.compile_shared(src).expect("compile");
    s.start(&plan, How { limit, ..How::default() })
}

#[test]
fn submit_then_wait_matches_blocking_evaluation() {
    let driver = SlowDriver::new("SRC", 3, Duration::from_millis(1), 4);
    let s = slow_session(Arc::clone(&driver), 6);
    let compiled = s.compile_shared(PER_ELEMENT).expect("compile");
    let concurrent = start(&s, PER_ELEMENT, None).wait().expect("wait");
    let blocking = s.run_compiled(&compiled).expect("blocking");
    assert_eq!(concurrent, blocking);
    assert_quiescent(&[&*driver, &*s.context()]);
}

#[test]
fn parallel_plan_overlaps_latency_and_respects_the_budget() {
    let delay = Duration::from_millis(30);
    let driver = SlowDriver::new("SRC", 2, delay, 4);
    let max_seen = Arc::clone(&driver.max_seen);
    let s = slow_session(Arc::clone(&driver), 8);
    let compiled = s.compile_shared(PER_ELEMENT).expect("compile");

    // Blocking baseline: width forced to 1 — each of the 8 requests is
    // submitted and waited on in turn.
    let mut sequential = Compiled::clone(&compiled);
    sequential.optimized = set_par_width(&compiled.optimized, 1);
    let sequential = Arc::new(sequential);
    let t0 = Instant::now();
    let blocking_result = s.run_compiled(&sequential).expect("blocking");
    let blocking = t0.elapsed();

    // Concurrent: the optimizer's width (the driver budget, 4).
    let t0 = Instant::now();
    let concurrent_result = s.submit_compiled(&compiled).wait().expect("concurrent");
    let concurrent = t0.elapsed();

    assert_eq!(blocking_result, concurrent_result);
    assert!(
        concurrent * 2 < blocking,
        "8 overlapped {delay:?} requests at width 4 must be at least 2x \
         faster than blocking: {concurrent:?} vs {blocking:?}"
    );
    let seen = max_seen.load(Ordering::SeqCst);
    assert!(
        seen <= 4,
        "in-flight requests exceeded the enforced budget: {seen} > 4"
    );
    assert!(seen >= 2, "requests did not overlap at all");
    assert_quiescent(&[&*driver, &*s.context()]);
}

#[test]
fn try_wait_polls_without_blocking() {
    let driver = SlowDriver::new("SRC", 2, Duration::from_millis(40), 2);
    let s = slow_session(Arc::clone(&driver), 2);
    let mut h = start(&s, PER_ELEMENT, None);
    // Immediately after submit the slow query cannot be done.
    assert_eq!(h.status(), QueryStatus::Running);
    let mut polls = 0u32;
    let result = loop {
        match h.try_wait() {
            Some(r) => break r,
            None => {
                polls += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    assert!(result.is_ok());
    assert!(polls > 0, "the first poll should have found it running");
    assert_quiescent(&[&*driver, &*s.context()]);
}

#[test]
fn cancelled_handle_frees_the_driver_budget_for_later_queries() {
    // Budget of 1 and a slow request: cancel a submitted query mid-flight,
    // then prove the driver still serves subsequent queries — no leaked
    // admission ticket.
    let driver = SlowDriver::new("SRC", 2, Duration::from_millis(30), 1);
    let s = slow_session(Arc::clone(&driver), 4);

    let h = start(&s, PER_ELEMENT, None);
    std::thread::sleep(Duration::from_millis(10)); // let it get in flight
    h.cancel();
    drop(h);

    // The next query on the same (budget-1) driver must complete.
    let v = start(&s, r#"{[n = x.n] | \x <- SRC([table = "t"])}"#, None)
        .wait()
        .expect("wait");
    assert_eq!(v.len(), Some(2));
    // Every ticket drains (bounded: a leak must fail, not hang).
    assert_quiescent(&[&*driver, &*s.context()]);
}

#[test]
fn first_n_streams_a_prefix_and_cancels_the_rest() {
    // 40 ids, each costing a 10 ms request: a 3-row prefix must return
    // long before the full evaluation would, and stop the worker.
    let driver = SlowDriver::new("SRC", 1, Duration::from_millis(10), 2);
    let performs = Arc::clone(&driver.performs);
    let s = slow_session(Arc::clone(&driver), 40);
    let prefix = start(&s, PER_ELEMENT, Some(3)).wait().expect("prefix");
    assert_eq!(prefix.len(), Some(3));
    // Give cancellation a moment to land, then check the worker stopped
    // far short of the 40 requests the full query would need.
    std::thread::sleep(Duration::from_millis(60));
    let ran = performs.load(Ordering::SeqCst);
    assert!(
        ran < 40,
        "first_n(3) must cancel the remaining evaluation (ran {ran}/40 requests)"
    );
    assert_quiescent(&[&*driver, &*s.context()]);
}

#[test]
fn first_n_prefix_wins_over_a_later_error() {
    // The stream yields 0..=4 fine and errors on 5 (division by zero).
    // first_n(3) has its rows regardless of whether the worker has
    // already hit the error by the time we ask — the prefix, not the
    // late error, is the answer.
    let mut s = Session::new();
    s.bind_value("DB", Value::set((0..6).map(Value::Int).collect()));
    let q = r"{| if x = 5 then 10 / 0 else x | \x <- DB |}";
    // Let the worker run before asking for the prefix.
    let h = start(&s, q, Some(3));
    std::thread::sleep(Duration::from_millis(20));
    let prefix = h.wait().expect("prefix must not be poisoned by a later error");
    assert_eq!(
        prefix.elements(),
        Some(&[Value::Int(0), Value::Int(1), Value::Int(2)][..])
    );
    // But an error *before* n rows does propagate.
    assert!(start(&s, q, Some(6)).wait().is_err());
    assert_quiescent(&[&*s.context()]);
}

#[test]
fn dedup_applies_to_set_typed_prefixes() {
    let mut s = Session::new();
    s.bind_value(
        "DB",
        Value::set((0..30).map(|i| Value::Int(i % 3)).collect()),
    );
    let prefix = start(&s, r"{x | \x <- DB}", Some(10)).wait().expect("prefix");
    // only 3 distinct values exist; duplicates must not count toward n
    assert_eq!(prefix.len(), Some(3));
    let mut sorted = prefix.elements().expect("a set").to_vec();
    sorted.sort();
    assert_eq!(sorted, vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
    assert_quiescent(&[&*s.context()]);
}

#[test]
fn query_workers_run_on_a_bounded_shared_executor() {
    // 20 submitted queries on a session whose executor allows 3 workers:
    // every query completes correctly, yet at most 3 OS threads are ever
    // created — submissions beyond the bound queue as data. This is the
    // observable for "no ad-hoc thread per query" (PR-4 spawned one
    // thread per submit, i.e. 20 here).
    use kleisli_core::Executor;

    let executor = Executor::new("session-test", 3);
    let driver = SlowDriver::new("SRC", 2, Duration::from_millis(1), 4);
    let mut s = Session::with_executor(Arc::clone(&executor));
    s.register_driver(driver.clone());
    s.bind_value("IDS", Value::set((0..3).map(Value::Int).collect()));

    let q = r#"{[n = x.n] | \x <- SRC([table = "t"])}"#;
    let handles: Vec<_> = (0..20).map(|_| start(&s, q, None)).collect();
    let mut results = Vec::new();
    for h in handles {
        results.push(h.wait().expect("wait"));
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    assert!(
        executor.threads_spawned() <= 3,
        "query workers must stay bounded by the executor limit: {} spawned",
        executor.threads_spawned()
    );
    assert!(executor.threads_spawned() >= 1);
    assert_quiescent(&[&*driver, &*s.context()]);
}

#[test]
fn two_queries_in_flight_on_one_session() {
    // Generous margins: sequential would cost >= 2 x 60 ms, so anything
    // clearly under that proves the two queries overlapped even on a
    // loaded CI machine.
    let delay = Duration::from_millis(60);
    let driver = SlowDriver::new("SRC", 2, delay, 4);
    let s = slow_session(Arc::clone(&driver), 2);
    let q = r#"{[n = x.n] | \x <- SRC([table = "t"])}"#;
    let t0 = Instant::now();
    let h1 = start(&s, q, None);
    let h2 = start(&s, q, None);
    let v1 = h1.wait().expect("wait 1");
    let v2 = h2.wait().expect("wait 2");
    let elapsed = t0.elapsed();
    assert_eq!(v1, v2);
    assert!(
        elapsed < 2 * delay - delay / 6,
        "two overlapped queries must beat back-to-back execution: {elapsed:?}"
    );
    assert_quiescent(&[&*driver, &*s.context()]);
}

#[test]
fn session_queries_prefetch_rows_on_latency_charging_drivers() {
    // End-to-end through the real federation: with a per-row transfer
    // cost the drivers advertise a prefetch depth, so a session query's
    // rows are pulled ahead by pool workers — visible in the new
    // rows_prefetched counter — and the answer matches the instant
    // (fully lazy, prefetch-0) federation's.
    use bench_harness::{latency_federation, latency_federation_rows};
    use std::time::Duration as D;

    let q = r#"{[s = l.locus_symbol] | \l <- GDB-Tab("locus")}"#;
    let (pre_session, pre_fed) =
        latency_federation_rows(25, D::from_millis(1), D::from_micros(200));
    let (lazy_session, lazy_fed) = latency_federation(25, D::from_millis(1));

    let pre = pre_session.query(q).expect("prefetching query");
    let lazy = lazy_session.query(q).expect("lazy query");
    assert_eq!(pre, lazy, "row prefetch must not change the answer");

    let m = pre_session.driver_metrics("GDB").unwrap();
    assert!(
        m.rows_prefetched > 0,
        "a per-row-latency driver must prefetch rows ahead of the consumer"
    );
    assert!(m.rows_pulled >= m.rows_prefetched);
    let m0 = lazy_session.driver_metrics("GDB").unwrap();
    assert_eq!(m0.rows_prefetched, 0, "instant rows must not be prefetched");
    assert_quiescent(&[
        &*pre_fed.gdb,
        &*lazy_fed.gdb,
        &*pre_session.context(),
        &*lazy_session.context(),
    ]);
}

#[test]
fn a_query_started_beside_another_keeps_its_cached_subquery() {
    // A cached scan re-joined by every element of a loop that is parked
    // on a wedged call: a second query started on the same session
    // meanwhile must not make the first fetch its cached subquery again.
    let src = SlowDriver::new("SRC", 3, Duration::ZERO, 4);
    let other = SlowDriver::new("OTHER", 1, Duration::ZERO, 1);
    other.set_fault(Fault::NeverRespond);
    let mut s = slow_session(Arc::clone(&src), 6);
    s.register_driver(other.clone());
    let q = r#"{[i = i, n = count(SRC([table = "t"])), m = count(OTHER([function = "probe", arg = i]))] | \i <- IDS}"#;
    let first = start(&s, q, None);
    let t0 = Instant::now();
    while other.requests_started() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "the loop never reached OTHER");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(start(&s, "count(IDS)", None).wait().unwrap(), Value::Int(6));
    other.release_wedged();
    assert_eq!(first.wait().unwrap().len(), Some(6));
    assert_eq!(src.metrics().requests, 1, "one SRC request for the cached scan");
    assert_quiescent(&[&*src, &*other, &*s.context()]);
}
