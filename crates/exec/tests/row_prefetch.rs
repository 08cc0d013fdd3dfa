//! Row-pipelined execution through the streaming executor: bounded
//! row-prefetch buffers behind `PendingStream`, the `prefetch_rows = 0`
//! fully-lazy guarantee, and the `first_n` early-stop regression — early
//! termination must cancel outstanding prefetch work and release the
//! admission ticket, with row traffic bounded by prefix + buffer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kleisli_core::testutil::SlowDriver;
use kleisli_core::{
    blocks_of_rows, BlockStream, Capabilities, CollKind, Driver, DriverRequest, KError, KResult,
    MetricsSnapshot, Value, DEFAULT_BLOCK_ROWS,
};
use kleisli_exec::{
    collect_stream, eval, eval_blocks, eval_stream, first_n, reference, Context, Env,
};
use nrc::{name, Expr};

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

fn ctx_of(driver: Arc<SlowDriver>) -> Arc<Context> {
    let mut ctx = Context::new();
    ctx.register_driver(driver);
    Arc::new(ctx)
}

#[test]
fn prefetched_stream_agrees_with_lazy_and_eager() {
    let rows = 40;
    let lazy = SlowDriver::new("L", rows, Duration::ZERO, 2);
    let pre = SlowDriver::pipelined("P", rows, Duration::ZERO, Duration::ZERO, 2, 8);
    let lazy_ctx = ctx_of(lazy);
    let pre_ctx = ctx_of(pre);

    let lazy_v = collect_stream(
        eval_stream(&wrap_ext(scan("L")), &Env::empty(), &lazy_ctx).unwrap(),
        CollKind::Set,
    )
    .unwrap();
    let pre_v = collect_stream(
        eval_stream(&wrap_ext(scan("P")), &Env::empty(), &pre_ctx).unwrap(),
        CollKind::Set,
    )
    .unwrap();
    let expected = reference::eval(&wrap_ext(scan("P")), &Env::empty(), &pre_ctx).unwrap();
    assert_eq!(lazy_v, pre_v, "prefetch must not change results");
    assert_eq!(pre_v, expected);
    assert_eq!(
        eval(&wrap_ext(scan("P")), &Env::empty(), &pre_ctx).unwrap(),
        expected
    );
}

#[test]
fn first_n_early_stop_releases_the_ticket_and_bounds_row_traffic() {
    // The satellite regression: a prefix consumer over a prefetching
    // stream must cancel outstanding row-prefetch work, release the
    // admission ticket, and ship no rows beyond prefix + buffer.
    let prefetch = 4;
    let driver = SlowDriver::pipelined(
        "gated",
        10_000,
        Duration::ZERO,
        Duration::from_micros(200),
        1,
        prefetch,
    );
    let gate = Arc::clone(driver.gate());
    let metrics = Arc::clone(driver.counters());
    let ctx = ctx_of(driver);

    let cutoff = 3;
    let got = first_n(&wrap_ext(scan("gated")), cutoff, &Env::empty(), &ctx).unwrap();
    assert_eq!(got.len(), cutoff);

    // No ticket leak: the budget-of-1 gate drains, and a fresh request
    // on the same driver proceeds.
    let t0 = Instant::now();
    while gate.in_flight() != 0 {
        assert!(t0.elapsed() < Duration::from_secs(2), "admission ticket leaked");
        std::thread::sleep(Duration::from_millis(1));
    }

    // No extra rows after the cutoff: whatever refill was in flight
    // stops at the next row boundary once the stream is dropped. Allow
    // prefix + buffer + one in-flight pull, then require stability.
    let t0 = Instant::now();
    let mut shipped = metrics.snapshot().rows_shipped;
    loop {
        std::thread::sleep(Duration::from_millis(15));
        let now = metrics.snapshot().rows_shipped;
        if now == shipped {
            break;
        }
        shipped = now;
        assert!(t0.elapsed() < Duration::from_secs(2), "rows kept shipping");
    }
    assert!(
        shipped <= (cutoff + prefetch + 1) as u64,
        "{shipped} rows shipped for a cutoff of {cutoff} and a buffer of {prefetch}"
    );

    let again = first_n(&wrap_ext(scan("gated")), 2, &Env::empty(), &ctx).unwrap();
    assert_eq!(again.len(), 2, "driver still serves after the early stop");
}

#[test]
fn prefetch_zero_ships_exactly_the_demanded_prefix() {
    // The fully-lazy path must stay byte-identical: no pool worker ever
    // touches the rows, so the prefix is all that crosses the boundary.
    let driver = SlowDriver::new("lazy", 10_000, Duration::ZERO, 1);
    let metrics = Arc::clone(driver.counters());
    let ctx = ctx_of(driver);
    let got = first_n(&wrap_ext(scan("lazy")), 5, &Env::empty(), &ctx).unwrap();
    assert_eq!(got.len(), 5);
    let m = metrics.snapshot();
    assert!(
        m.rows_shipped <= 6,
        "fully-lazy scan shipped {} rows for 5 results",
        m.rows_shipped
    );
    assert_eq!(m.rows_prefetched, 0, "nothing may be prefetched at depth 0");
}

#[test]
fn first_n_stopping_mid_block_releases_the_ticket_and_bounds_blocks() {
    // Block-boundary variant of the early-stop regression: at
    // prefetch_rows = 8 the pool ships 2-row blocks (a 4-block window),
    // so a cutoff of 3 stops *inside* a buffered block. The admission
    // ticket must still drain, and row traffic stays bounded by
    // prefix + buffer + one in-flight block.
    let prefetch = 8; // block_rows = 2, depth = 4 blocks
    let block_rows = 2;
    let driver = SlowDriver::pipelined(
        "blocked",
        10_000,
        Duration::ZERO,
        Duration::from_micros(200),
        1,
        prefetch,
    );
    let gate = Arc::clone(driver.gate());
    let metrics = Arc::clone(driver.counters());
    let ctx = ctx_of(driver);

    let cutoff = 3;
    let got = first_n(&wrap_ext(scan("blocked")), cutoff, &Env::empty(), &ctx).unwrap();
    assert_eq!(got.len(), cutoff);

    let t0 = Instant::now();
    while gate.in_flight() != 0 {
        assert!(t0.elapsed() < Duration::from_secs(2), "admission ticket leaked");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Refill stops at the next *block* boundary once the stream drops.
    let t0 = Instant::now();
    let mut shipped = metrics.snapshot().rows_shipped;
    loop {
        std::thread::sleep(Duration::from_millis(15));
        let now = metrics.snapshot().rows_shipped;
        if now == shipped {
            break;
        }
        shipped = now;
        assert!(t0.elapsed() < Duration::from_secs(2), "rows kept shipping");
    }
    assert!(
        shipped <= (cutoff + prefetch + block_rows) as u64,
        "{shipped} rows shipped for a cutoff of {cutoff}, a buffer of {prefetch} \
         and {block_rows}-row blocks"
    );
    assert!(
        metrics.snapshot().blocks_shipped > 0,
        "a prefetching driver must account its handoffs in blocks"
    );

    let again = first_n(&wrap_ext(scan("blocked")), 2, &Env::empty(), &ctx).unwrap();
    assert_eq!(again.len(), 2, "driver still serves after the mid-block stop");
}

/// A driver whose stream delivers a partial block: `good` rows, then a
/// driver error inside the same block.
struct PartialBlockDriver {
    good: i64,
}

impl Driver for PartialBlockDriver {
    fn name(&self) -> &str {
        "partial"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }
    fn perform(&self, _req: &DriverRequest) -> KResult<BlockStream> {
        let good = self.good;
        Ok(blocks_of_rows(Box::new((0..=good).map(move |i| {
            if i == good {
                Err(KError::driver("partial", "stream interrupted"))
            } else {
                Ok(Value::record_from(vec![("n", Value::Int(i))]))
            }
        }))))
    }
    fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

#[test]
fn driver_error_inside_a_partial_block_surfaces_after_the_good_rows() {
    let good = 3;
    let mut ctx = Context::new();
    ctx.register_driver(Arc::new(PartialBlockDriver { good }));
    let ctx = Arc::new(ctx);
    let plan = wrap_ext(scan("partial"));

    // Full-grain pull: one partially-delivered block carrying the good
    // rows with the error as its final entry, then exhaustion.
    let mut s = eval_blocks(&plan, &Env::empty(), &ctx).unwrap();
    let b = s.next_block(DEFAULT_BLOCK_ROWS).expect("a partial block");
    assert_eq!(b.len() as i64, good + 1, "good rows ride in front of the error");
    assert!(b.rows()[..good as usize].iter().all(|r| r.is_ok()));
    assert!(b.ends_with_err());
    assert!(s.next_block(DEFAULT_BLOCK_ROWS).is_none(), "failed streams end");

    // The grain-1 view sees the same rows in the same order, and a
    // prefix consumer that stops before the bad row never sees it.
    let items: Vec<_> = eval_stream(&plan, &Env::empty(), &ctx).unwrap().collect();
    assert_eq!(items.len() as i64, good + 1);
    assert!(items[..good as usize].iter().all(|r| r.is_ok()));
    assert!(items[good as usize].is_err());
    let prefix = first_n(&plan, good as usize, &Env::empty(), &ctx).unwrap();
    assert_eq!(prefix.len() as i64, good);
}

#[test]
fn clamped_to_zero_full_drain_is_byte_identical_to_fully_lazy() {
    // The prefetch-ceiling-0 configuration must be indistinguishable
    // from the never-pipelined driver on a full drain — through both
    // the grain-1 view and the block drain — and must neither prefetch
    // rows nor ship blocks through the pool buffer.
    let rows = 64;
    let plain = SlowDriver::new("plain", rows, Duration::ZERO, 2);
    let clamped = SlowDriver::pipelined("clamped", rows, Duration::ZERO, Duration::ZERO, 2, 0);
    let clamped_metrics = Arc::clone(clamped.counters());
    let plain_ctx = ctx_of(plain);
    let clamped_ctx = ctx_of(clamped);

    let plain_v = collect_stream(
        eval_stream(&wrap_ext(scan("plain")), &Env::empty(), &plain_ctx).unwrap(),
        CollKind::Set,
    )
    .unwrap();
    let clamped_rows_v = collect_stream(
        eval_stream(&wrap_ext(scan("clamped")), &Env::empty(), &clamped_ctx).unwrap(),
        CollKind::Set,
    )
    .unwrap();
    let clamped_blocks_v = kleisli_exec::collect_blocks(
        eval_blocks(&wrap_ext(scan("clamped")), &Env::empty(), &clamped_ctx).unwrap(),
        CollKind::Set,
    )
    .unwrap();
    let expected =
        reference::eval(&wrap_ext(scan("clamped")), &Env::empty(), &clamped_ctx).unwrap();
    assert_eq!(plain_v, clamped_rows_v);
    assert_eq!(clamped_rows_v, clamped_blocks_v);
    assert_eq!(clamped_blocks_v, expected);

    let m = clamped_metrics.snapshot();
    assert_eq!(m.rows_prefetched, 0, "clamped-to-0 must prefetch nothing");
    assert_eq!(m.blocks_shipped, 0, "clamped-to-0 must bypass the block buffer");
}

#[test]
fn union_arms_overlap_their_row_transfer() {
    // Two row-heavy scans with real per-row latency. Lazily, the
    // consumer pays both arms' transfer back-to-back; with prefetch
    // covering the whole result, each driver's pool worker pulls its
    // arm's rows concurrently, so the union costs about one arm.
    let rows = 30;
    let per_row = Duration::from_millis(2);
    let mk = |prefetch: usize, names: (&str, &str)| {
        let a = SlowDriver::pipelined(names.0, rows, Duration::ZERO, per_row, 2, prefetch);
        let b = SlowDriver::pipelined(names.1, rows, Duration::ZERO, per_row, 2, prefetch);
        let mut ctx = Context::new();
        ctx.register_driver(a);
        ctx.register_driver(b);
        Arc::new(ctx)
    };
    let run = |ctx: &Arc<Context>, names: (&str, &str)| {
        let e = Expr::union(
            CollKind::Set,
            wrap_ext(scan(names.0)),
            wrap_ext(scan(names.1)),
        );
        let t0 = Instant::now();
        let v = collect_stream(
            eval_stream(&e, &Env::empty(), ctx).unwrap(),
            CollKind::Set,
        )
        .unwrap();
        (v, t0.elapsed())
    };

    let lazy_ctx = mk(0, ("A", "B"));
    let pre_ctx = mk(rows as usize, ("A", "B"));
    let (lazy_v, lazy_t) = run(&lazy_ctx, ("A", "B"));
    let (pre_v, pre_t) = run(&pre_ctx, ("A", "B"));
    assert_eq!(lazy_v, pre_v);
    // Lazy cost: ~2 * rows * per_row on the consumer's clock. Pipelined:
    // ~rows * per_row. Loose bound so a loaded runner doesn't flake —
    // it only guards against the row overlap disappearing entirely.
    assert!(
        pre_t < lazy_t,
        "row prefetch must beat the lazy pull: {pre_t:?} vs {lazy_t:?}"
    );
    let sequential_floor = per_row * (2 * rows as u32);
    assert!(
        pre_t < sequential_floor - sequential_floor / 6,
        "overlapped row transfer must cost visibly less than sequential \
         ({pre_t:?} for a {sequential_floor:?} sequential floor)"
    );
}
