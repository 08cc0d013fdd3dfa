//! Regression tests for the cache/streaming seams:
//!
//! * `eval_stream` has a real `Cached` arm — a cached remote scan streams
//!   lazily on miss (a `first_n` consumer pulls only what it needs) and
//!   streams from the cache on hit (no driver traffic);
//! * single-flight population — a `Cached` subquery under a parallel
//!   generator (`ParExt`) is evaluated exactly once no matter how many
//!   worker threads race to it;
//! * abandoned prefixes do not poison the cell: the next consumer
//!   populates it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kleisli_core::{
    blocks_of_rows, BlockStream, Capabilities, CollKind, Driver, DriverRequest, KResult,
    MetricsSnapshot, Value,
};
use kleisli_exec::{collect_stream, eval, eval_stream, first_n, reference, Context, Env};
use nrc::{name, Expr};

/// Counts both `perform` calls and per-row pulls.
struct CountingDriver {
    rows: i64,
    execs: Arc<AtomicU64>,
    pulled: Arc<AtomicU64>,
}

impl Driver for CountingDriver {
    fn name(&self) -> &str {
        "counting"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }
    fn perform(&self, _req: &DriverRequest) -> KResult<BlockStream> {
        self.execs.fetch_add(1, Ordering::SeqCst);
        let pulled = Arc::clone(&self.pulled);
        let rows = self.rows;
        Ok(blocks_of_rows(Box::new((0..rows).map(move |i| {
            pulled.fetch_add(1, Ordering::SeqCst);
            Ok(Value::Int(i))
        }))))
    }
    fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

fn counting_ctx(rows: i64) -> (Arc<Context>, Arc<AtomicU64>, Arc<AtomicU64>) {
    let execs = Arc::new(AtomicU64::new(0));
    let pulled = Arc::new(AtomicU64::new(0));
    let mut ctx = Context::new();
    ctx.register_driver(Arc::new(CountingDriver {
        rows,
        execs: Arc::clone(&execs),
        pulled: Arc::clone(&pulled),
    }));
    (Arc::new(ctx), execs, pulled)
}

fn cached_scan(id: u64) -> Expr {
    Expr::Cached {
        id,
        expr: Arc::new(Expr::Remote {
            driver: name("counting"),
            request: DriverRequest::TableScan {
                table: "t".into(),
                columns: None,
            },
        }),
    }
}

#[test]
fn cached_remote_scan_streams_lazily_on_miss() {
    let (ctx, _execs, pulled) = counting_ctx(100_000);
    // U{ {x} | \x <- Cached(REMOTE) }: before the Cached stream arm, the
    // generator fell back to the eager evaluator and materialized all
    // 100k rows for a 5-row prefix.
    let e = Expr::ext(
        CollKind::Set,
        "x",
        Expr::single(CollKind::Set, Expr::var("x")),
        cached_scan(1),
    );
    let got = first_n(&e, 5, &Env::empty(), &ctx).unwrap();
    assert_eq!(got.len(), 5);
    assert!(
        pulled.load(Ordering::SeqCst) <= 6,
        "pulled {} rows for a 5-row prefix: cached scan is not lazy",
        pulled.load(Ordering::SeqCst)
    );
}

#[test]
fn abandoned_prefix_leaves_cell_empty_then_full_stream_populates() {
    let (ctx, execs, _pulled) = counting_ctx(50);
    let e = cached_scan(7);
    // A partial pull must NOT commit a truncated result.
    let prefix = first_n(&e, 3, &Env::empty(), &ctx).unwrap();
    assert_eq!(prefix.len(), 3);
    assert_eq!(
        ctx.cache_get(7),
        None,
        "an abandoned prefix must not populate the cache"
    );
    // A full consumption commits the canonical set...
    let full = collect_stream(
        eval_stream(&e, &Env::empty(), &ctx).unwrap(),
        CollKind::Set,
    )
    .unwrap();
    assert_eq!(full.len(), Some(50));
    assert_eq!(ctx.cache_get(7), Some(full.clone()));
    let execs_after_populate = execs.load(Ordering::SeqCst);
    // ...and a later stream is served from the cache: no new execute.
    let again = collect_stream(
        eval_stream(&e, &Env::empty(), &ctx).unwrap(),
        CollKind::Set,
    )
    .unwrap();
    assert_eq!(again, full);
    assert_eq!(
        execs.load(Ordering::SeqCst),
        execs_after_populate,
        "a cache hit must not contact the driver"
    );
}

#[test]
fn streamed_and_eager_cached_values_are_identical() {
    // The value the streaming populator commits must be the canonical
    // collection the oracle computes (which keeps no cells of its own),
    // whether a grain-1 stream or a full `eval` drain populated the cell.
    let (ctx_stream, ..) = counting_ctx(20);
    let (ctx_eval, ..) = counting_ctx(20);
    let e = cached_scan(3);
    let streamed = collect_stream(
        eval_stream(&e, &Env::empty(), &ctx_stream).unwrap(),
        CollKind::Set,
    )
    .unwrap();
    let expected = reference::eval(&e, &Env::empty(), &ctx_eval).unwrap();
    assert_eq!(ctx_eval.cache_get(3), None);
    assert_eq!(streamed, expected);
    assert_eq!(eval(&e, &Env::empty(), &ctx_eval).unwrap(), expected);
    assert_eq!(ctx_stream.cache_get(3), Some(expected));
    assert_eq!(ctx_stream.cache_get(3), ctx_eval.cache_get(3));
}

#[test]
fn cached_subquery_under_parallel_generator_runs_once() {
    let (ctx, execs, _pulled) = counting_ctx(100);
    // ParExt{ U{ {y} | \y <- Cached(REMOTE) } | \x <- {0..15} }, width 8:
    // 16 worker evaluations race to the same cache cell; single-flight
    // must let exactly one of them contact the driver.
    let body = Expr::ext(
        CollKind::Set,
        "y",
        Expr::single(CollKind::Set, Expr::var("y")),
        cached_scan(42),
    );
    let e = Expr::ParExt {
        kind: CollKind::Set,
        var: name("x"),
        body: Arc::new(body),
        source: Arc::new(Expr::Const(Value::set((0..16).map(Value::Int).collect()))),
        max_in_flight: 8,
        batch: None,
    };
    let v = eval(&e, &Env::empty(), &ctx).unwrap();
    assert_eq!(v.len(), Some(100));
    assert_eq!(
        execs.load(Ordering::SeqCst),
        1,
        "single-flight: the cached subquery must be evaluated exactly once"
    );
}

#[test]
fn evaluation_error_aborts_population_and_allows_retry() {
    // A Cached subquery whose evaluation fails must release the
    // single-flight claim so a later evaluator can succeed.
    let ctx = Arc::new(Context::new());
    let bad = Expr::Cached {
        id: 9,
        expr: Arc::new(Expr::ext(
            CollKind::Set,
            "x",
            Expr::single(
                CollKind::Set,
                Expr::prim(nrc::Prim::Div, vec![Expr::int(1), Expr::var("x")]),
            ),
            Expr::Const(Value::set(vec![Value::Int(0)])),
        )),
    };
    assert!(eval(&bad, &Env::empty(), &ctx).is_err());
    assert_eq!(ctx.cache_get(9), None);
    // Same id, a computable subquery: the claim must be free again.
    let good = Expr::Cached {
        id: 9,
        expr: Arc::new(Expr::single(CollKind::Set, Expr::int(5))),
    };
    let v = eval(&good, &Env::empty(), &ctx).unwrap();
    assert_eq!(v, Value::set(vec![Value::Int(5)]));
}
