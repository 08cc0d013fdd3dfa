//! One resilience state per driver: every session that registers a driver
//! shares its circuit breaker, its batch flight table and its counters
//! (`kleisli_core::Driver::resilience`), so what one session learns about a
//! source another acts on, and no fetch after a FLUSH of the source replays
//! what any of them fetched before it.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use kleisli::{BreakerPolicy, BreakerState, ResiliencePolicy, Session};
use kleisli_core::testutil::{assert_quiescent, Fault, SlowDriver};
use kleisli_core::{
    BatchPolicy, BlockStream, CancelToken, Driver, DriverRequest, Fetch, KError, KResult,
    ResilientHandle, Value,
};
use kleisli_exec::Context;

/// A whole-set scan against the [`SlowDriver`] (which ignores the request
/// shape and yields its configured rows).
const SCAN: &str = r#"{x.n | \x <- SRC([class = "any"])}"#;

fn session(driver: &Arc<SlowDriver>) -> Session {
    let mut s = Session::new();
    s.register_driver(driver.clone());
    s
}

/// A session's context over `driver`, for fetching below the query layer.
fn context(driver: &Arc<SlowDriver>) -> Arc<Context> {
    session(driver).context()
}

fn links(uid: i64) -> DriverRequest {
    DriverRequest::EntrezLinks {
        db: "na".into(),
        uid,
    }
}

/// The handle of `req` fetched alone on `ctx`, `how` it is read.
fn one(ctx: &Context, req: DriverRequest, how: Fetch) -> ResilientHandle {
    let mut handles = ctx.fetch("SRC", &[req], how);
    handles.pop().expect("a handle a request").expect("fetched")
}

/// Count the rows of a redeemed stream, failing on any error row.
fn drain(stream: BlockStream) -> KResult<usize> {
    Ok(stream.collect::<KResult<Vec<Value>>>()?.len())
}

/// A source that fails every request, advertising a breaker that opens on
/// the second failure in a row.
fn dead_source() -> Arc<SlowDriver> {
    let drv = SlowDriver::new("SRC", 3, Duration::from_millis(1), 2);
    drv.set_resilience(ResiliencePolicy {
        breaker: Some(BreakerPolicy {
            failure_threshold: 2,
            cooldown: Duration::from_secs(60),
        }),
        ..ResiliencePolicy::default()
    });
    drv.set_fault(Fault::FailRequests(u32::MAX));
    drv
}

#[test]
fn a_breaker_one_session_opened_fails_another_sessions_first_query_fast() {
    let drv = dead_source();
    let (a, b) = (session(&drv), session(&drv));
    for i in 0..2 {
        let err = a.query(SCAN).unwrap_err();
        assert!(matches!(err, KError::Transport { .. }), "failure {i}: {err}");
    }
    let started = drv.requests_started();
    let err = b.query(SCAN).unwrap_err();
    assert!(matches!(err, KError::CircuitOpen { .. }), "expected fail-fast, got: {err}");
    assert!(err.to_string().contains("circuit open"), "{err}");
    assert_eq!(drv.requests_started(), started, "session B reached the wire");
    assert_eq!(b.breaker_state("SRC"), Some(BreakerState::Open));
    let m = b.driver_metrics("SRC").expect("metrics");
    assert_eq!(m.breaker_opens, 1, "{m:?}");
    assert_quiescent(&[&*drv, &*a.context(), &*b.context()]);
}

#[test]
fn two_sessions_batching_the_same_keys_share_one_wire_request() {
    let drv = SlowDriver::new("SRC", 3, Duration::from_millis(1), 2);
    drv.set_batching(Some(BatchPolicy::default()));
    drv.set_fault(Fault::NeverRespond);
    let before = drv.metrics();
    let contexts = [context(&drv), context(&drv)];
    let reqs: Vec<DriverRequest> = (0..8).map(links).collect();
    // The wire is wedged, so the second session's keys find the first's
    // flights still pending.
    let fetched = contexts.iter().flat_map(|ctx| ctx.fetch("SRC", &reqs, Fetch::Batch));
    let handles: Vec<ResilientHandle> = fetched.collect::<KResult<_>>().expect("batching");
    assert_eq!(handles.len(), 16);
    drv.release_wedged();
    for h in handles {
        assert_eq!(h.wait().and_then(drain).expect("rows"), 3);
    }
    assert_eq!(drv.batch_performs.load(Ordering::SeqCst), 1, "one wire request for both");
    assert_eq!(drv.performs.load(Ordering::SeqCst), 0, "no key went alone");
    let m = drv.metrics().since(&before);
    assert_eq!((m.batch_requests, m.batched_keys), (1, 8), "{m:?}");
    assert_quiescent(&[&*drv, &*contexts[0], &*contexts[1]]);
}

#[test]
fn a_waiter_of_another_session_cancelling_never_poisons_the_shared_flight() {
    let drv = SlowDriver::new("SRC", 3, Duration::from_millis(1), 2);
    drv.set_batching(Some(BatchPolicy::default()));
    drv.set_fault(Fault::NeverRespond);
    let (a, b) = (context(&drv), context(&drv));
    let held = one(&a, links(1), Fetch::Batch);
    // Session B's window fetch attaches to session A's pending flight.
    let cancel = Arc::new(CancelToken::new());
    let waiter = one(&b.with_cancel_token(Arc::clone(&cancel)), links(1), Fetch::Window);
    let waiting = thread::spawn(move || waiter.wait().and_then(drain));
    cancel.cancel();
    let e = waiting.join().expect("thread").expect_err("its own cancellation");
    assert!(e.to_string().contains("cancelled"), "got: {e}");
    // Session A's handle still replays the shared rows.
    drv.release_wedged();
    assert_eq!(held.wait().and_then(drain).expect("rows"), 3);
    assert_eq!(drv.batch_performs.load(Ordering::SeqCst), 1);
    assert_eq!(drv.performs.load(Ordering::SeqCst), 0);
    assert_quiescent(&[&*drv, &*a, &*b]);
}

#[test]
fn a_flush_retires_the_batch_flights_fetched_before_it() {
    let drv = SlowDriver::new("SRC", 3, Duration::from_millis(1), 2);
    drv.set_batching(Some(BatchPolicy::default()));
    let s = session(&drv);
    let ctx = s.context();
    // Two handles of one flight: redeeming one waits out the batch, and
    // the flight leaves the window as it resolves.
    let batch = ctx.fetch("SRC", &[links(9), links(9)], Fetch::Batch);
    let mut batch = batch.into_iter().map(|h| h.expect("batched"));
    let (kept, redeemed) = (batch.next().expect("a handle"), batch.next().expect("two"));
    assert_eq!(redeemed.wait().and_then(drain).expect("batched rows"), 3);
    s.flush_source("SRC").expect("flush");
    // A fetch after the flush never replays the reply fetched before it.
    let window = one(&ctx, links(9), Fetch::Window);
    assert_eq!(window.wait().and_then(drain).expect("fetched"), 3);
    assert_eq!(drv.performs.load(Ordering::SeqCst), 1, "the window fetch went to the wire");
    // The other handle still replays its own flight.
    assert_eq!(kept.wait().and_then(drain).expect("its own rows"), 3);
    assert_quiescent(&[&*drv, &*ctx]);
}
