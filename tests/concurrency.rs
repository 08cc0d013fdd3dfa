//! End-to-end tests of the concurrency-first session API: non-blocking
//! [`kleisli::Session::submit`], `QueryHandle` wait / try_wait / cancel /
//! first_n, enforced per-driver admission budgets, and latency overlap
//! across parallel plans.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench_harness::set_par_width;
use kleisli::{QueryStatus, Session};
use kleisli_core::testutil::SlowDriver;
use kleisli_core::Value;

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

#[test]
fn submit_then_wait_matches_blocking_evaluation() {
    let driver = SlowDriver::new("SRC", 3, Duration::from_millis(1), 4);
    let s = slow_session(driver, 6);
    let compiled = s.compile(PER_ELEMENT).expect("compile");
    let concurrent = s.submit(PER_ELEMENT).expect("submit").wait().expect("wait");
    let blocking = s.run_compiled(&compiled).expect("blocking");
    assert_eq!(concurrent, blocking);
}

#[test]
fn parallel_plan_overlaps_latency_and_respects_the_budget() {
    let delay = Duration::from_millis(30);
    let driver = SlowDriver::new("SRC", 2, delay, 4);
    let max_seen = Arc::clone(&driver.max_seen);
    let s = slow_session(driver, 8);
    let compiled = s.compile(PER_ELEMENT).expect("compile");

    // Blocking baseline: width forced to 1 — each of the 8 requests is
    // submitted and waited on in turn.
    let mut sequential = compiled.clone();
    sequential.optimized = set_par_width(&compiled.optimized, 1);
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
}

#[test]
fn try_wait_polls_without_blocking() {
    let driver = SlowDriver::new("SRC", 2, Duration::from_millis(40), 2);
    let s = slow_session(driver, 2);
    let mut h = s.submit(PER_ELEMENT).expect("submit");
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
}

#[test]
fn cancelled_handle_frees_the_driver_budget_for_later_queries() {
    // Budget of 1 and a slow request: cancel a submitted query mid-flight,
    // then prove the driver still serves subsequent queries — no leaked
    // admission ticket.
    let driver = SlowDriver::new("SRC", 2, Duration::from_millis(30), 1);
    let gate = Arc::clone(driver.gate());
    let s = slow_session(driver, 4);

    let h = s.submit(PER_ELEMENT).expect("submit");
    std::thread::sleep(Duration::from_millis(10)); // let it get in flight
    h.cancel();
    drop(h);

    // The next query on the same (budget-1) driver must complete.
    let v = s
        .submit(r#"{[n = x.n] | \x <- SRC([table = "t"])}"#)
        .expect("submit")
        .wait()
        .expect("wait");
    assert_eq!(v.len(), Some(2));
    // Every ticket drains (bounded: a leak must fail, not hang).
    let t0 = Instant::now();
    while gate.in_flight() != 0 {
        assert!(t0.elapsed() < Duration::from_secs(2), "admission ticket leaked");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn first_n_streams_a_prefix_and_cancels_the_rest() {
    // 40 ids, each costing a 10 ms request: a 3-row prefix must return
    // long before the full evaluation would, and stop the worker.
    let driver = SlowDriver::new("SRC", 1, Duration::from_millis(10), 2);
    let performs = Arc::clone(&driver.performs);
    let s = slow_session(driver, 40);
    let h = s.submit(PER_ELEMENT).expect("submit");
    let prefix = h.first_n(3).expect("prefix");
    assert_eq!(prefix.len(), 3);
    // Give cancellation a moment to land, then check the worker stopped
    // far short of the 40 requests the full query would need.
    std::thread::sleep(Duration::from_millis(60));
    let ran = performs.load(Ordering::SeqCst);
    assert!(
        ran < 40,
        "first_n(3) must cancel the remaining evaluation (ran {ran}/40 requests)"
    );
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
    // Let the worker run to the error before asking for the prefix.
    let h = s.submit(q).expect("submit");
    std::thread::sleep(Duration::from_millis(20));
    let prefix = h.first_n(3).expect("prefix must not be poisoned by a later error");
    assert_eq!(prefix, vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
    // But an error *before* n rows does propagate.
    let h = s.submit(q).expect("submit");
    assert!(h.first_n(6).is_err());
}

#[test]
fn dedup_applies_to_set_typed_prefixes() {
    let mut s = Session::new();
    s.bind_value(
        "DB",
        Value::set((0..30).map(|i| Value::Int(i % 3)).collect()),
    );
    let h = s.submit(r"{x | \x <- DB}").expect("submit");
    let prefix = h.first_n(10).expect("prefix");
    // only 3 distinct values exist; duplicates must not count toward n
    assert_eq!(prefix.len(), 3);
    let mut sorted = prefix.clone();
    sorted.sort();
    assert_eq!(sorted, vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
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
    s.register_driver(driver);
    s.bind_value("IDS", Value::set((0..3).map(Value::Int).collect()));

    let q = r#"{[n = x.n] | \x <- SRC([table = "t"])}"#;
    let handles: Vec<_> = (0..20).map(|_| s.submit(q).expect("submit")).collect();
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
}

#[test]
fn two_queries_in_flight_on_one_session() {
    // Generous margins: sequential would cost >= 2 x 60 ms, so anything
    // clearly under that proves the two queries overlapped even on a
    // loaded CI machine.
    let delay = Duration::from_millis(60);
    let driver = SlowDriver::new("SRC", 2, delay, 4);
    let s = slow_session(driver, 2);
    let q = r#"{[n = x.n] | \x <- SRC([table = "t"])}"#;
    let t0 = Instant::now();
    let h1 = s.submit(q).expect("submit 1");
    let h2 = s.submit(q).expect("submit 2");
    let v1 = h1.wait().expect("wait 1");
    let v2 = h2.wait().expect("wait 2");
    let elapsed = t0.elapsed();
    assert_eq!(v1, v2);
    assert!(
        elapsed < 2 * delay - delay / 6,
        "two overlapped queries must beat back-to-back execution: {elapsed:?}"
    );
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
    let (pre_session, _pre_fed) =
        latency_federation_rows(25, D::from_millis(1), D::from_micros(200));
    let (lazy_session, _lazy_fed) = latency_federation(25, D::from_millis(1));

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
}
