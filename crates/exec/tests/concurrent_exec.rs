//! The latency-overlapping scheduler against an instrumented driver:
//!
//! * the driver's `max_concurrent_requests` is an *enforced* admission
//!   limit — in-flight requests never exceed it, even when the plan asks
//!   for more parallelism;
//! * independent union arms and join sides overlap their round-trips;
//! * a dropped or cancelled request handle never leaks an admission
//!   ticket: subsequent submits on a full budget still proceed.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kleisli_core::testutil::{assert_quiescent, SlowDriver};
use kleisli_core::{CollKind, DriverRequest, Value};
use kleisli_exec::{collect_stream, eval, eval_stream, reference, Context, Env};
use nrc::{name, Expr, LoopStrategy};

fn scan(driver: &str) -> Expr {
    Expr::Remote {
        driver: name(driver),
        request: DriverRequest::TableScan {
            table: "t".into(),
            columns: None,
        },
    }
}

fn wrap_ext(inner: Expr) -> Expr {
    Expr::ext(
        CollKind::Set,
        "x",
        Expr::single(CollKind::Set, Expr::proj(Expr::var("x"), "n")),
        inner,
    )
}

#[test]
fn admission_limit_is_enforced_beyond_plan_parallelism() {
    // The loop asks for 8-wide parallelism, but the driver tolerates 3:
    // in-flight performs must never exceed 3, and the result is correct.
    let driver = SlowDriver::new("slow", 4, Duration::from_millis(5), 3);
    let max_seen = Arc::clone(&driver.max_seen);
    let mut ctx = Context::new();
    ctx.register_driver(driver.clone());
    let ctx = Arc::new(ctx);

    let e = Expr::Ext {
        kind: CollKind::Set,
        var: name("i"),
        body: Arc::new(wrap_ext(scan("slow"))),
        source: Arc::new(Expr::Const(Value::set((0..16).map(Value::Int).collect()))),
        strategy: LoopStrategy::Parallel(8),
    };
    let v = eval(&e, &Env::empty(), &ctx).unwrap();
    assert_eq!(v.len(), Some(4), "4 distinct rows per scan");
    let seen = max_seen.load(Ordering::SeqCst);
    assert!(
        seen <= 3,
        "admission limit violated: {seen} concurrent performs for a budget of 3"
    );
    assert!(seen >= 2, "parallel plan should actually overlap requests");
    assert_quiescent(&[&*driver, &*ctx]);
}

#[test]
fn par_ext_runs_on_the_shared_executor_with_bounded_workers() {
    // 64 elements through a width-8 parallel loop on a private 4-worker
    // executor: the chunk evaluators are executor tasks, not ad-hoc
    // scoped threads, so the worker count is bounded by the executor
    // limit and does not grow with the element count.
    use kleisli_core::Executor;

    let executor = Executor::new("test-exec", 4);
    let mut ctx = Context::with_executor(Arc::clone(&executor));
    let driver = SlowDriver::new("slow", 2, Duration::from_millis(1), 8);
    ctx.register_driver(driver.clone());
    let ctx = Arc::new(ctx);

    let e = Expr::Ext {
        kind: CollKind::Set,
        var: name("i"),
        body: Arc::new(wrap_ext(scan("slow"))),
        source: Arc::new(Expr::Const(Value::set((0..64).map(Value::Int).collect()))),
        strategy: LoopStrategy::Parallel(8),
    };
    let v = eval(&e, &Env::empty(), &ctx).unwrap();
    assert_eq!(v.len(), Some(2));
    assert!(
        executor.threads_spawned() <= 4,
        "executor workers must stay bounded: {} spawned for a limit of 4",
        executor.threads_spawned()
    );
    assert!(
        executor.threads_spawned() >= 1,
        "chunks must actually run on the executor"
    );
    assert_quiescent(&[&*driver, &*ctx]);
}

#[test]
fn nested_par_ext_completes_on_a_one_worker_executor() {
    // A parallel loop's body holding another, on an executor with a
    // single worker: caller-help in the batch runner means progress
    // never depends on free pool capacity — this must complete, not
    // deadlock, and still agree with the sequential answer.
    use kleisli_core::Executor;

    let executor = Executor::new("tiny", 1);
    let ctx = Arc::new(Context::with_executor(Arc::clone(&executor)));

    let inner = Expr::Ext {
        kind: CollKind::Set,
        var: name("j"),
        body: Arc::new(Expr::single(
            CollKind::Set,
            Expr::prim(
                nrc::Prim::Add,
                vec![
                    Expr::prim(nrc::Prim::Mul, vec![Expr::var("i"), Expr::int(10)]),
                    Expr::var("j"),
                ],
            ),
        )),
        source: Arc::new(Expr::Const(Value::set((0..4).map(Value::Int).collect()))),
        strategy: LoopStrategy::Parallel(3),
    };
    let outer = Expr::Ext {
        kind: CollKind::Set,
        var: name("i"),
        body: Arc::new(inner),
        source: Arc::new(Expr::Const(Value::set((0..4).map(Value::Int).collect()))),
        strategy: LoopStrategy::Parallel(3),
    };
    let v = eval(&outer, &Env::empty(), &ctx).unwrap();
    let mut expect: Vec<Value> = (0..4)
        .flat_map(|i| (0..4).map(move |j| Value::Int(i * 10 + j)))
        .collect();
    expect.sort();
    assert_eq!(v, Value::set(expect));
    assert!(executor.threads_spawned() <= 1);
    assert_quiescent(&[&*ctx]);
}

#[test]
fn union_arms_overlap_their_round_trips() {
    // Two sources, 60 ms per request. Waiting on them in turn costs
    // ~120 ms; the evaluator submits the right arm while the left is in
    // flight, so the whole union costs ~one round-trip — through `eval`
    // as much as through a stream.
    let delay = Duration::from_millis(60);
    let a = SlowDriver::new("A", 3, delay, 2);
    let b = SlowDriver::new("B", 3, delay, 2);
    let mut ctx = Context::new();
    ctx.register_driver(a.clone());
    ctx.register_driver(b.clone());
    let ctx = Arc::new(ctx);

    let e = Expr::union(CollKind::Set, wrap_ext(scan("A")), wrap_ext(scan("B")));

    let t0 = Instant::now();
    let streamed = collect_stream(
        eval_stream(&e, &Env::empty(), &ctx).unwrap(),
        CollKind::Set,
    )
    .unwrap();
    let concurrent = t0.elapsed();

    assert_eq!(streamed, reference::eval(&e, &Env::empty(), &ctx).unwrap());
    assert_eq!(streamed, eval(&e, &Env::empty(), &ctx).unwrap());
    // Loose bound (sequential costs 2x delay): proves overlap happened
    // without flaking on a loaded runner.
    assert!(
        concurrent < 2 * delay - delay / 6,
        "two overlapped round-trips must cost visibly less than two \
         sequential ones: {concurrent:?}"
    );
    assert_quiescent(&[&*a, &*b, &*ctx]);
}

#[test]
fn join_sides_overlap_their_round_trips() {
    let delay = Duration::from_millis(60);
    let a = SlowDriver::new("A", 5, delay, 2);
    let b = SlowDriver::new("B", 5, delay, 2);
    let mut ctx = Context::new();
    ctx.register_driver(a.clone());
    ctx.register_driver(b.clone());
    let ctx = Arc::new(ctx);

    let body = Expr::single(
        CollKind::Set,
        Expr::record(vec![
            ("a", Expr::proj(Expr::var("l"), "n")),
            ("b", Expr::proj(Expr::var("r"), "n")),
        ]),
    );
    let e = Expr::Join {
        kind: CollKind::Set,
        left: Arc::new(scan("A")),
        right: Arc::new(scan("B")),
        lvar: name("l"),
        rvar: name("r"),
        keys: Some((
            Arc::new(Expr::proj(Expr::var("l"), "n")),
            Arc::new(Expr::proj(Expr::var("r"), "n")),
        )),
        cond: Arc::new(Expr::bool(true)),
        body: Arc::new(body),
    };

    let t0 = Instant::now();
    let streamed = collect_stream(
        eval_stream(&e, &Env::empty(), &ctx).unwrap(),
        CollKind::Set,
    )
    .unwrap();
    let concurrent = t0.elapsed();
    assert_eq!(streamed.len(), Some(5));
    assert!(
        concurrent < 2 * delay - delay / 6,
        "join sides must overlap: {concurrent:?} for two {delay:?} round-trips"
    );
    assert_quiescent(&[&*a, &*b, &*ctx]);
}

#[test]
fn blocking_adapter_drivers_are_not_prefetched_in_union_arms() {
    // A one-method driver's submit runs the request inline, so
    // prefetching it would execute eagerly: the right arm must stay
    // fully lazy for such drivers.
    use kleisli_core::{
        blocks_of_rows, BlockStream, Capabilities, Driver, DriverResilience, KResult,
    };
    use std::sync::atomic::AtomicU64;
    use std::sync::OnceLock;

    struct OneMethod {
        performs: Arc<AtomicU64>,
        resilience: OnceLock<Arc<DriverResilience>>,
    }
    impl Driver for OneMethod {
        fn name(&self) -> &str {
            "inline"
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities::default()
        }
        fn perform(&self, _req: &DriverRequest) -> KResult<BlockStream> {
            self.performs.fetch_add(1, Ordering::SeqCst);
            Ok(blocks_of_rows(Box::new(
                (0..3).map(|i| Ok(Value::record_from(vec![("n", Value::Int(i))]))),
            )))
        }
        fn resilience(&self) -> &Arc<DriverResilience> {
            self.resilience.get_or_init(|| DriverResilience::of(self, Arc::default()))
        }
    }

    let performs = Arc::new(AtomicU64::new(0));
    let mut ctx = Context::new();
    ctx.register_driver(Arc::new(OneMethod {
        performs: Arc::clone(&performs),
        resilience: OnceLock::new(),
    }));
    let ctx = Arc::new(ctx);

    let e = Expr::union(
        CollKind::Set,
        Expr::single(CollKind::Set, Expr::Const(Value::Int(-1))),
        wrap_ext(scan("inline")),
    );
    let got = kleisli_exec::first_n(&e, 1, &Env::empty(), &ctx).unwrap();
    assert_eq!(got, vec![Value::Int(-1)]);
    assert_eq!(
        performs.load(Ordering::SeqCst),
        0,
        "a blocking submit adapter must not run at union construction"
    );
    assert_quiescent(&[&*ctx]);
}

#[test]
fn dropped_prefix_stream_frees_the_driver_budget() {
    // Budget of 1. A first_n-style consumer abandons a stream whose
    // request is still queued; the ticket must not leak — the next
    // submit on the same driver proceeds.
    let driver = SlowDriver::new("gated", 8, Duration::from_millis(20), 1);
    let performs = Arc::clone(&driver.performs);
    let mut ctx = Context::new();
    ctx.register_driver(driver.clone());
    let ctx = Arc::new(ctx);

    // Union of two scans on the same driver: both requests submitted at
    // construction, the second queued behind the budget of 1.
    let e = Expr::union(CollKind::Set, wrap_ext(scan("gated")), wrap_ext(scan("gated")));
    {
        let mut stream = eval_stream(&e, &Env::empty(), &ctx).unwrap();
        // Pull one row from the first scan, then abandon everything.
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first, Value::Int(0));
    } // dropped: the queued second request is cancelled before running

    // The budget must drain fully; a fresh evaluation still works.
    let v = eval(&wrap_ext(scan("gated")), &Env::empty(), &ctx).unwrap();
    assert_eq!(v.len(), Some(8));
    assert_quiescent(&[&*driver, &*ctx]);
    // The abandoned queued request ideally never performed; allow the
    // race where it slipped in before cancellation, but the follow-up
    // request above must have run regardless.
    assert!(performs.load(Ordering::SeqCst) >= 2);
}
