//! Operators pull blocks, not rows: a full drain of a cached scan or a
//! parallel generator moves its source's rows in blocks, so the driver's
//! prefetch buffer hands them over at least two rows per handoff
//! (`MetricsSnapshot::blocks_shipped` against `rows_pulled`). An operator
//! that read its input through the grain-1 view would hand over one row
//! per block.

use std::sync::Arc;
use std::time::Duration;

use kleisli_core::testutil::{assert_quiescent, SlowDriver};
use kleisli_core::{CollKind, Driver, DriverRequest};
use kleisli_exec::{collect_blocks, eval_blocks, reference, Context, Env};
use nrc::{name, Expr, LoopStrategy};

const ROWS: i64 = 64;

fn scan() -> Arc<Expr> {
    Arc::new(Expr::Remote {
        driver: name("P"),
        request: DriverRequest::TableScan {
            table: "t".into(),
            columns: None,
        },
    })
}

#[test]
fn operators_pull_blocks_not_rows() {
    let plans = [
        ("a cached scan", Expr::Cached { id: 7, expr: scan() }),
        (
            "a width-4 parallel generator",
            Expr::Ext {
                kind: CollKind::Set,
                var: name("x"),
                body: Arc::new(Expr::single(
                    CollKind::Set,
                    Expr::proj(Expr::var("x"), "n"),
                )),
                source: scan(),
                strategy: LoopStrategy::Parallel(4),
            },
        ),
    ];
    for (what, plan) in plans {
        let driver = SlowDriver::pipelined("P", ROWS, Duration::ZERO, Duration::ZERO, 2, 64);
        let mut ctx = Context::new();
        ctx.register_driver(driver.clone());
        let ctx = Arc::new(ctx);
        let got = collect_blocks(eval_blocks(&plan, &Env::empty(), &ctx).unwrap(), CollKind::Set)
            .unwrap();
        assert_eq!(got.len(), Some(ROWS as usize), "{what}");
        let m = driver.metrics();
        assert_eq!(m.rows_pulled, ROWS as u64, "{what}");
        assert!(
            m.blocks_shipped * 2 <= m.rows_pulled,
            "{what}: {} blocks for {} rows",
            m.blocks_shipped,
            m.rows_pulled
        );
        ctx.cache_clear();
        let oracle = reference::eval(&plan, &Env::empty(), &ctx).unwrap();
        assert_eq!(got, oracle, "{what}");
        assert_quiescent(&[&*driver, &*ctx]);
    }
}
