//! Failure injection: errors from drivers, malformed native data, bad
//! queries, and mid-stream failures must surface as clean `KError`s, never
//! panics or wrong answers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kleisli::Session;
use kleisli_core::{
    blocks_of_rows, BlockStream, Capabilities, Driver, DriverRequest, KError, KResult, Value,
};

/// A driver that fails in configurable ways.
struct FlakyDriver {
    name: String,
    /// fail the whole request
    refuse: bool,
    /// yield this many rows, then fail mid-stream
    fail_after: Option<usize>,
    calls: AtomicU64,
}

impl Driver for FlakyDriver {
    fn name(&self) -> &str {
        &self.name
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }
    fn perform(&self, _req: &DriverRequest) -> KResult<BlockStream> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if self.refuse {
            return Err(KError::driver(&self.name, "connection refused"));
        }
        let fail_after = self.fail_after;
        let name = self.name.clone();
        Ok(blocks_of_rows(Box::new((0..10).map(move |i| {
            if let Some(n) = fail_after {
                if i >= n as i64 {
                    return Err(KError::driver(&name, "stream interrupted"));
                }
            }
            Ok(Value::record_from(vec![("n", Value::Int(i))]))
        }))))
    }
}

fn session_with(driver: FlakyDriver) -> Session {
    let mut s = Session::new();
    s.register_driver(Arc::new(driver));
    s
}

#[test]
fn refused_connection_is_a_driver_error() {
    let s = session_with(FlakyDriver {
        name: "DOWN".into(),
        refuse: true,
        fail_after: None,
        calls: AtomicU64::new(0),
    });
    let err = s
        .query(r#"{x.n | \x <- DOWN([class = "anything"])}"#)
        .unwrap_err();
    assert!(
        matches!(err, KError::Driver { ref driver, .. } if driver == "DOWN"),
        "{err}"
    );
}

#[test]
fn mid_stream_failure_propagates() {
    let s = session_with(FlakyDriver {
        name: "FLAKY".into(),
        refuse: false,
        fail_after: Some(4),
        calls: AtomicU64::new(0),
    });
    let err = s
        .query(r#"{x.n | \x <- FLAKY([class = "c"])}"#)
        .unwrap_err();
    assert!(matches!(err, KError::Driver { .. }), "{err}");
    // but a lazy consumer that stops before row 4 succeeds
    let ok = s
        .query_first_n(r#"{x.n | \x <- FLAKY([class = "c"])}"#, 3)
        .expect("lazy prefix");
    assert_eq!(ok.len(), 3);
}

#[test]
fn bad_sql_is_reported_not_panicked() {
    let mut db = sybase_sim::Database::new();
    db.create_table("t", &["a"]).unwrap();
    let server = Arc::new(sybase_sim::SybaseServer::serve(
        "GDB",
        db.into(),
        kleisli_core::LatencyModel::instant(),
    ));
    let mut s = Session::new();
    s.register_driver(server);
    // ship raw SQL with a syntax error
    let err = s
        .query(r#"GDB([query = "selekt a from t"])"#)
        .unwrap_err();
    assert!(matches!(err, KError::Format { ref format, .. } if format == "sql"), "{err}");
    // unknown table
    let err = s
        .query(r#"GDB([query = "select a from missing"])"#)
        .unwrap_err();
    assert!(err.to_string().contains("missing"), "{err}");
}

#[test]
fn malformed_driver_requests_are_eval_errors() {
    let s = session_with(FlakyDriver {
        name: "D".into(),
        refuse: false,
        fail_after: None,
        calls: AtomicU64::new(0),
    });
    // not a record
    assert!(s.query(r#"D(42)"#).is_err());
    // unrecognized request shape
    assert!(s.query(r#"D([nonsense = 1])"#).is_err());
}

#[test]
fn inexhaustive_pattern_alternatives_fail_at_runtime_with_message() {
    let mut s = Session::new();
    s.bind_value(
        "V",
        Value::set(vec![Value::variant("unexpected-tag", Value::Int(1))]),
    );
    s.run(r"define get == <known = \x> => x;").unwrap();
    let err = s.query(r"{get(v) | \v <- V}").unwrap_err();
    assert!(
        err.to_string().contains("no pattern alternative"),
        "{err}"
    );
}

#[test]
fn division_by_zero_inside_comprehension() {
    let mut s = Session::new();
    s.bind_value("S", Value::set(vec![Value::Int(0), Value::Int(1)]));
    let err = s.query(r"{10 / x | \x <- S}").unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

#[test]
fn dangling_ace_reference_errors_cleanly() {
    let mut s = Session::new();
    s.bind_value(
        "R",
        Value::set(vec![Value::Ref(kleisli_core::Oid {
            class: Arc::from("Clone"),
            id: 404,
        })]),
    );
    let err = s.query(r"{deref(r) | \r <- R}").unwrap_err();
    assert!(err.to_string().contains("dangling"), "{err}");
}

#[test]
fn malformed_formats_error_with_format_name() {
    assert!(matches!(
        bio_formats::parse_fasta("no header"),
        Err(KError::Format { format, .. }) if format == "fasta"
    ));
    assert!(matches!(
        entrez_sim::asn1::parse_value("{ broken"),
        Err(KError::Format { format, .. }) if format == "asn1"
    ));
    assert!(matches!(
        ace_sim::parse_ace("NotAHeader\nTag 1\n"),
        Err(KError::Format { format, .. }) if format == "ace"
    ));
}

// ---------------------------------------------------------------------------
// Resilience: deadlines, retries and circuit breakers, end to end
// through the session layer against an instrumented fault-injecting driver.
// ---------------------------------------------------------------------------

use std::time::{Duration, Instant};

use kleisli::{BreakerPolicy, BreakerState, ResiliencePolicy, RetryPolicy};
use kleisli_core::testutil::{assert_quiescent, Fault, SlowDriver};

/// A whole-set scan against the [`SlowDriver`] (which ignores the request
/// shape and yields its configured rows).
const SCAN: &str = r#"{x.n | \x <- SRC([class = "any"])}"#;

fn resilient_session(driver: &Arc<SlowDriver>) -> Session {
    let mut s = Session::new();
    s.register_driver(driver.clone());
    s
}

/// Spin (bounded) until `cond` holds — for effects that happen on a pool
/// or query worker thread shortly after the main thread's trigger.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_mid_stream_stall_resolves_as_a_timeout_at_the_row_boundary() {
    // Rows trickle at 5ms each; a 60ms budget runs out mid-stream and the
    // executor's row-boundary budget check turns it into a clean Timeout
    // instead of an unbounded hang.
    let drv = SlowDriver::pipelined(
        "SRC",
        1000,
        Duration::from_millis(1),
        Duration::from_millis(5),
        2,
        0,
    );
    let s = resilient_session(&drv);
    let t0 = Instant::now();
    let err = s
        .submit_with_deadline(SCAN, Duration::from_millis(60))
        .expect("submit")
        .wait()
        .unwrap_err();
    assert!(err.is_timeout(), "expected a timeout, got: {err}");
    assert!(
        t0.elapsed() < Duration::from_millis(1000),
        "a 60ms budget must not take {:?} to resolve",
        t0.elapsed()
    );
}

/// `run` a scan of a never-responding `drv` under `deadline` — however the
/// caller imposes it — and check the wedged request becomes a `Timeout`
/// in about that long, with its ticket and its worker given back.
fn assert_a_wedged_request_times_out(
    drv: &Arc<SlowDriver>,
    deadline: Duration,
    run: impl FnOnce(&Session) -> kleisli_core::KResult<Value>,
) {
    drv.set_fault(Fault::NeverRespond);
    let s = resilient_session(drv);
    let t0 = Instant::now();
    let err = run(&s).unwrap_err();
    let elapsed = t0.elapsed();
    assert!(err.is_timeout(), "expected a timeout, got: {err}");
    assert!(
        elapsed < deadline * 3,
        "a {deadline:?} deadline resolved only after {elapsed:?}"
    );
    // The wedged round-trip was abandoned: its admission ticket is stolen
    // back so the gate's full width is available again immediately.
    wait_until("the admission ticket to be released", || {
        drv.gate().in_flight() == 0
    });
    let m = s.driver_metrics("SRC").expect("metrics");
    assert!(m.timeouts >= 1, "timeout not counted: {m:?}");
    // Let the wedged worker finish, notice its stolen ticket, and retire.
    drv.release_wedged();
    assert_quiescent(&[&**drv, &*s.context()]);
}

#[test]
fn a_never_responding_driver_times_out_and_releases_its_ticket() {
    let drv = SlowDriver::new("SRC", 5, Duration::from_millis(1), 2);
    let deadline = Duration::from_millis(50);
    assert_a_wedged_request_times_out(&drv, deadline, |s| {
        s.submit_with_deadline(SCAN, deadline)
            .expect("submit")
            .wait()
    });
}

#[test]
fn a_policy_deadline_turns_a_wedged_request_into_a_timeout() {
    // No session deadline: the budget is the one the source advertises.
    let drv = SlowDriver::new("SRC", 5, Duration::from_millis(1), 2);
    let deadline = Duration::from_millis(50);
    drv.set_resilience(ResiliencePolicy {
        deadline: Some(deadline),
        ..ResiliencePolicy::default()
    });
    assert_a_wedged_request_times_out(&drv, deadline, |s| s.query(SCAN));
}

#[test]
fn transport_failures_are_retried_and_rows_arrive_exactly_once() {
    let drv = SlowDriver::new("SRC", 4, Duration::from_millis(1), 2);
    drv.set_resilience(ResiliencePolicy {
        retry: Some(RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
        }),
        ..ResiliencePolicy::default()
    });
    let s = resilient_session(&drv);
    drv.set_fault(Fault::FailRequests(2));
    let rows = s.query(SCAN).expect("retried to success");
    assert_eq!(rows, Value::set((0..4).map(Value::Int).collect()));
    assert_eq!(
        drv.performs.load(Ordering::SeqCst),
        3,
        "two failures plus one success"
    );
    let m = s.driver_metrics("SRC").expect("metrics");
    assert_eq!(m.retries, 2, "both failures retried: {m:?}");
}

#[test]
fn the_breaker_opens_fails_fast_and_closes_after_a_good_probe() {
    let drv = SlowDriver::new("SRC", 3, Duration::from_millis(1), 2);
    drv.set_resilience(ResiliencePolicy {
        breaker: Some(BreakerPolicy {
            failure_threshold: 3,
            cooldown: Duration::from_millis(200),
        }),
        ..ResiliencePolicy::default()
    });
    let s = resilient_session(&drv);
    drv.set_fault(Fault::FailRequests(u32::MAX));

    for i in 0..3 {
        let err = s.query(SCAN).unwrap_err();
        assert!(
            matches!(err, KError::Transport { .. }),
            "failure {i}: expected a transport error, got: {err}"
        );
    }
    assert_eq!(s.breaker_state("SRC"), Some(BreakerState::Open));
    let m = s.driver_metrics("SRC").expect("metrics");
    assert_eq!(m.breaker_opens, 1, "{m:?}");

    // Open breaker: fail fast without touching the wire.
    let before = drv.performs.load(Ordering::SeqCst);
    let err = s.query(SCAN).unwrap_err();
    assert!(
        matches!(err, KError::CircuitOpen { .. }),
        "expected fail-fast, got: {err}"
    );
    assert_eq!(
        drv.performs.load(Ordering::SeqCst),
        before,
        "an open breaker must not ship requests"
    );

    // Cooldown elapses: half-open admits one probe, and its success
    // closes the breaker again.
    std::thread::sleep(Duration::from_millis(250));
    assert_eq!(s.breaker_state("SRC"), Some(BreakerState::HalfOpen));
    drv.set_fault(Fault::None);
    let rows = s.query(SCAN).expect("probe succeeds");
    assert_eq!(rows.len(), Some(3));
    assert_eq!(s.breaker_state("SRC"), Some(BreakerState::Closed));
}

#[test]
fn dropping_a_query_over_a_wedged_driver_neither_blocks_nor_leaks_the_ticket() {
    let drv = SlowDriver::new("SRC", 5, Duration::from_millis(1), 1);
    drv.set_fault(Fault::NeverRespond);
    let s = resilient_session(&drv);
    let handle = s.submit(SCAN).expect("submit");
    wait_until("the request to wedge on the wire", || {
        drv.gate().in_flight() == 1
    });

    let t0 = Instant::now();
    drop(handle);
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "dropping the handle blocked for {:?}",
        t0.elapsed()
    );

    // Drop cancels; the cancel token interrupts the in-flight wait, which
    // abandons the wedged round-trip and steals the admission ticket back.
    wait_until("the admission ticket to be released", || {
        drv.gate().in_flight() == 0
    });
    drv.release_wedged();
    assert_quiescent(&[&*drv, &*s.context()]);
}

// ---------------------------------------------------------------------------
// Batched flights under failure: a failing wire request is charged to
// the breaker once per attempt — never once per attached waiter — and
// every waiter resolves with the shared error.
// ---------------------------------------------------------------------------

use kleisli_core::{BatchPolicy, DriverRef, DriverResilience, Fetch, ResilientHandle};

#[test]
fn a_failing_batched_wire_request_fails_every_key_and_charges_the_breaker_once_per_attempt() {
    let drv = SlowDriver::new("SRC", 3, Duration::from_millis(1), 2);
    drv.set_fault(Fault::FailRequests(u32::MAX));
    let dref: DriverRef = drv.clone();
    let res = Arc::new(DriverResilience::with_batching(
        "SRC",
        ResiliencePolicy {
            retry: Some(RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            }),
            breaker: Some(BreakerPolicy {
                failure_threshold: 3,
                cooldown: Duration::from_secs(60),
            }),
            ..ResiliencePolicy::default()
        },
        Some(BatchPolicy { max_keys: 16 }),
    ));
    let reqs: Vec<kleisli_core::DriverRequest> = (0..8)
        .map(|uid| kleisli_core::DriverRequest::EntrezLinks {
            db: "na".into(),
            uid,
        })
        .collect();
    let batch = res.fetch(&dref, &reqs, Fetch::Batch, None, None);
    assert_eq!(batch.len(), 8, "one flight per distinct key");
    let batch: Vec<ResilientHandle> =
        batch.into_iter().collect::<KResult<_>>().expect("batching advertised");
    let _seeds = res.seed(&batch);

    // Two independent waiters per key — sixteen consumers share the one
    // doomed wire request, and every single one must see its error.
    for req in &reqs {
        for _ in 0..2 {
            let mut waiter = res.fetch(&dref, std::slice::from_ref(req), Fetch::Window, None, None);
            let err = match waiter.pop().expect("a handle a request").expect("attached").wait() {
                Err(e) => e,
                Ok(_) => panic!("the batch must fail"),
            };
            assert!(
                matches!(err, KError::Transport { .. })
                    && err.to_string().contains("injected transport failure"),
                "waiter got the wrong error: {err}"
            );
        }
    }

    // The wire saw exactly 1 + max_retries batched attempts, no per-key
    // round-trips, and the three failures were charged to the breaker at
    // the wire level: it trips exactly at its threshold of 3. Sixteen
    // per-waiter charges would have tripped it long before the retry
    // budget ran out.
    assert_eq!(drv.batch_performs.load(Ordering::SeqCst), 3);
    assert_eq!(drv.performs.load(Ordering::SeqCst), 0);
    let m = res.metrics_snapshot();
    assert_eq!(m.retries, 2, "{m:?}");
    assert_eq!(m.breaker_opens, 1, "{m:?}");
    assert_eq!(m.batch_requests, 1, "8 keys fit one wire request: {m:?}");
    assert_eq!(m.batched_keys, 8, "{m:?}");
    assert_eq!(res.breaker_state(), Some(BreakerState::Open));
}

// ---------------------------------------------------------------------------
// Read-ahead in a staged two-hop loop: one chunk demanded plus one ahead
// per hop, and nothing left behind when the stream is dropped with the
// read-ahead chunk's batched request still on the wire.
// ---------------------------------------------------------------------------

/// 100 keys through two batching drivers, one per hop so each hop's
/// traffic reads off its own counters. Every request yields the one row
/// `[n = 0]`, so hop 2 sees one `(i, o)` pair — and one key — per key of
/// hop 1.
const TWO_HOP: &str = r#"[| y.n | \x <- KEYL,
    \h <- HOP1([db = "d", link = x]), \y <- HOP2([db = "d", link = h.n + x]) |]"#;
const TWO_HOP_KEYS: i64 = 100;
const MAX_KEYS: u64 = 16;
const WIDTH: usize = 2;

fn two_hop_session(delay: Duration) -> (Session, [Arc<SlowDriver>; 2]) {
    let mut s = Session::new();
    let hops = ["HOP1", "HOP2"].map(|name| {
        let drv = SlowDriver::new(name, 1, delay, WIDTH);
        drv.set_batching(Some(BatchPolicy {
            max_keys: MAX_KEYS as usize,
        }));
        s.register_driver(drv.clone());
        drv
    });
    s.bind_value(
        "KEYL",
        Value::list((0..TWO_HOP_KEYS).map(Value::Int).collect()),
    );
    let plan = s.explain(TWO_HOP).expect("explain");
    assert!(plan.contains("batch/stage-dependent-remote-loop"), "{plan}");
    (s, hops)
}

/// Every batched wire request resolved, every ticket returned, every
/// seed dropped — and admission never went past the driver's width.
fn assert_two_hop_quiescent(s: &Session, hops: &[Arc<SlowDriver>; 2]) {
    assert_quiescent(&[&*hops[0], &*hops[1], &*s.context()]);
    for drv in hops {
        let name = drv.name();
        assert!(drv.max_seen.load(Ordering::SeqCst) <= WIDTH, "{name}");
        assert_eq!(
            drv.performs.load(Ordering::SeqCst),
            0,
            "{name}: a key went alone"
        );
    }
}

#[test]
fn a_prefix_over_a_two_hop_loop_reads_one_chunk_ahead_per_hop() {
    let (s, hops) = two_hop_session(Duration::from_millis(1));
    assert_eq!(
        s.query_first_n(TWO_HOP, 1).expect("prefix"),
        [Value::Int(0)]
    );
    assert_two_hop_quiescent(&s, &hops);
    for drv in &hops {
        let name = drv.name();
        let m = s.driver_metrics(name).expect("metrics");
        assert!(
            m.batched_keys > MAX_KEYS && m.batched_keys <= 2 * MAX_KEYS,
            "{name} must ship the demanded chunk and one ahead, not {} keys",
            m.batched_keys
        );
        assert_eq!(drv.batch_performs.load(Ordering::SeqCst), 2, "{name}");
    }

    // The full drain, for contrast: every key, ceil(100/16) requests.
    s.reset_metrics();
    assert_eq!(s.query(TWO_HOP).expect("query").len(), Some(100));
    assert_two_hop_quiescent(&s, &hops);
    for name in ["HOP1", "HOP2"] {
        let m = s.driver_metrics(name).expect("metrics");
        assert_eq!((m.batched_keys, m.batch_requests), (100, 7), "{name}");
    }
}

#[test]
fn cancelling_a_two_hop_loop_mid_read_ahead_leaves_the_drivers_quiescent() {
    let (s, hops) = two_hop_session(Duration::from_millis(30));
    let handle = s.submit(TWO_HOP).expect("submit");
    // Both of hop 1's warm-ups — the demanded chunk and the one read
    // ahead — are on the wire before any body has run.
    wait_until("hop 1's read-ahead to be in flight", || {
        hops[0].gate().in_flight() == WIDTH
    });
    handle.cancel();
    assert!(matches!(handle.wait(), Err(KError::Cancelled(_))));
    assert_two_hop_quiescent(&s, &hops);
    assert_eq!(hops[1].batch_performs.load(Ordering::SeqCst), 0);
}

#[test]
fn a_deadline_inside_a_two_hop_loop_leaves_the_drivers_quiescent() {
    let (s, hops) = two_hop_session(Duration::from_millis(30));
    let err = s
        .submit_with_deadline(TWO_HOP, Duration::from_millis(10))
        .expect("submit")
        .wait()
        .unwrap_err();
    assert!(err.is_timeout(), "expected a timeout, got: {err}");
    assert_two_hop_quiescent(&s, &hops);
}

// ---------------------------------------------------------------------------
// A split full fetch (`kleisli_exec::eval`, "a full fetch is as wide as its
// reply"): each part is an ordinary request, so whatever ends the query —
// cancel, deadline, a failing part — with parts in flight and parts still
// queued leaves the source quiescent, and a retried part is retried alone.
// ---------------------------------------------------------------------------

/// Three value-position scans of a source that answers by row ranges:
/// 100 rows behind a 32-row window on six connections, so four parts a
/// scan — twelve requests, two whole waves of the six workers (siblings
/// that fill whole waves keep the parts they would have alone).
const THREE_SCANS: &str =
    r#"[a = SRC([table = "t"]), b = SRC([table = "t"]), c = SRC([table = "t"])]"#;
const ONE_SCAN: &str = r#"count(SRC([table = "t"]))"#;
const PARTS: u64 = 4;
const CONNECTIONS: usize = 6;

fn sliceable_source(delay: Duration) -> Arc<SlowDriver> {
    let drv = SlowDriver::pipelined("SRC", 100, delay, Duration::ZERO, CONNECTIONS, 32);
    drv.set_sliceable(true);
    drv
}

/// No ticket, no orphan, no flight pending or seeded. (Admission itself
/// is asserted where it happens: `RequestGate::admit` checks
/// `in_flight < limit` on every pickup of a debug build, so a part
/// admitted past the width fails its scan with a driver panic.)
fn assert_source_quiescent(s: &Session, drv: &SlowDriver) {
    assert_quiescent(&[drv, &*s.context()]);
}

#[test]
fn a_split_scan_is_one_request_per_part_and_never_wider_than_its_source() {
    let drv = sliceable_source(Duration::from_millis(40));
    let s = resilient_session(&drv);
    let v = s.query(THREE_SCANS).expect("query");
    for field in ["a", "b", "c"] {
        assert_eq!(v.project(field).and_then(Value::len), Some(100), "{field}");
    }
    assert_eq!(drv.performs.load(Ordering::SeqCst), 3 * PARTS);
    // Nothing was abandoned, so what was inside the source was admitted:
    // twelve parts, never more than the six connections at once.
    assert_eq!(drv.max_seen.load(Ordering::SeqCst), CONNECTIONS);
    assert_source_quiescent(&s, &drv);
    assert_eq!(s.driver_metrics("SRC").expect("metrics").rows_shipped, 300);
}

#[test]
fn cancel_deadline_and_a_failing_part_leave_a_split_scan_quiescent() {
    let delay = Duration::from_millis(30);
    for what in ["cancel", "deadline", "failing part"] {
        let drv = sliceable_source(delay);
        let s = resilient_session(&drv);
        let err = match what {
            "cancel" => {
                let handle = s.submit(THREE_SCANS).expect("submit");
                // Six parts inside the source, six queued behind them.
                wait_until("every connection to be busy", || {
                    drv.gate().in_flight() == CONNECTIONS
                });
                handle.cancel();
                handle.wait().unwrap_err()
            }
            "deadline" => s
                .submit_with_deadline(THREE_SCANS, delay / 3)
                .expect("submit")
                .wait()
                .unwrap_err(),
            _ => {
                // The second part of every scan fails; `a`'s is the error.
                drv.set_fault(Fault::FailRow(30));
                s.query(THREE_SCANS).unwrap_err()
            }
        };
        match what {
            "cancel" => assert!(matches!(err, KError::Cancelled(_)), "{what}: {err}"),
            "deadline" => assert!(err.is_timeout(), "{what}: {err}"),
            _ => assert!(matches!(err, KError::Transport { .. }), "{what}: {err}"),
        }
        drv.set_fault(Fault::None);
        assert_source_quiescent(&s, &drv);
        assert!(drv.performs.load(Ordering::SeqCst) <= 3 * PARTS, "{what}");
        // The source is whole again: the next scan is four requests.
        let before = drv.performs.load(Ordering::SeqCst);
        assert_eq!(s.query(ONE_SCAN).expect("query"), Value::Int(100), "{what}");
        let after = drv.performs.load(Ordering::SeqCst);
        assert_eq!(after - before, PARTS, "{what}");
    }
}

#[test]
fn a_retried_part_does_not_refetch_its_siblings() {
    let drv = sliceable_source(Duration::from_millis(1));
    drv.set_resilience(ResiliencePolicy {
        retry: Some(RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
        }),
        ..ResiliencePolicy::default()
    });
    let s = resilient_session(&drv);
    drv.set_fault(Fault::FailRequests(1));
    assert_eq!(s.query(ONE_SCAN).expect("retried"), Value::Int(100));
    assert_eq!(
        drv.performs.load(Ordering::SeqCst),
        PARTS + 1,
        "the failed part again, and only it"
    );
    let m = s.driver_metrics("SRC").expect("metrics");
    assert_eq!((m.retries, m.rows_shipped), (1, 100), "{m:?}");
    assert_source_quiescent(&s, &drv);
}

#[test]
fn a_half_open_breaker_is_probed_by_the_whole_scan_not_by_a_part() {
    let drv = sliceable_source(Duration::from_millis(1));
    drv.set_resilience(ResiliencePolicy {
        breaker: Some(BreakerPolicy {
            failure_threshold: 1,
            cooldown: Duration::from_millis(100),
        }),
        ..ResiliencePolicy::default()
    });
    let s = resilient_session(&drv);
    drv.set_fault(Fault::FailRow(0));
    assert!(s.query(ONE_SCAN).is_err());
    assert_eq!(s.breaker_state("SRC"), Some(BreakerState::Open));
    drv.set_fault(Fault::None);
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(s.breaker_state("SRC"), Some(BreakerState::HalfOpen));
    // Half-open admits one request at a time: four parts would be one
    // probe and three refusals.
    let before = drv.performs.load(Ordering::SeqCst);
    assert_eq!(s.query(ONE_SCAN).expect("the probe"), Value::Int(100));
    assert_eq!(drv.performs.load(Ordering::SeqCst) - before, 1);
    assert_eq!(s.breaker_state("SRC"), Some(BreakerState::Closed));
    assert_eq!(s.query(ONE_SCAN).expect("query"), Value::Int(100));
    assert_eq!(drv.performs.load(Ordering::SeqCst) - before, 1 + PARTS);
    assert_source_quiescent(&s, &drv);
}
