//! Strict siblings start together; a value-position scan is a full
//! fetch (`kleisli_exec::eval` module docs).
//!
//! * overlap, counted rather than timed: the scans of a record, of
//!   `flatten` over a union of singletons and of a strict primitive's
//!   arguments are inside their source at the same moment, admission
//!   never exceeds the advertised limit, and a limit-1 source gives the
//!   same value serially;
//! * a failing field — first or later — reports what left-to-right
//!   evaluation reports, and the siblings started beside it are
//!   cancelled: no ticket, no orphan, row traffic stops within a block;
//! * cancel and deadline stop a full fetch the same way;
//! * one timed guard with the window *below* the table size;
//! * a full fetch is as wide as its reply: over a source that answers by
//!   row ranges a value-position scan is one request per part, all inside
//!   the source together; a failing part ends the scan where it stands —
//!   rows in front of it, nothing behind — and a stream-position scan is
//!   never split;
//! * and siblings share the width: three scans that alone would be 12
//!   parts (4 + 4 + 4) for 8 connections are one wave of 3 + 3 + 2, through
//!   a record, `flatten` and a nested record alike; a part failing, a
//!   cancel or a deadline inside such a wave leaves the source quiescent;
//!   a sibling that cannot start is sized alone, in its turn, and the
//!   others as if it were not there.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kleisli_core::resilience::CancelToken;
use kleisli_core::testutil::{Fault, SlowDriver};
use kleisli_core::{CollKind, DriverRequest, KError, Value, DEFAULT_BLOCK_ROWS};
use kleisli_exec::{
    collect_blocks, eval, eval_blocks, eval_blocks_to_end, first_n, reference, Context, Env,
};
use nrc::{name, Expr, Prim};

fn scan(driver: &str) -> Expr {
    Expr::Remote {
        driver: name(driver),
        request: DriverRequest::TableScan {
            table: "t".into(),
            columns: None,
        },
    }
}

fn ctx_of(drivers: &[&Arc<SlowDriver>]) -> Context {
    let mut ctx = Context::new();
    for d in drivers {
        ctx.register_driver(Arc::clone(d) as _);
    }
    ctx
}

fn record_of(scans: [Expr; 3]) -> Expr {
    let [a, b, c] = scans;
    Expr::record(vec![("a", a), ("b", b), ("c", c)])
}

/// `flatten({a, b, c})`: a union spine of singletons under a primitive.
fn flatten_of(scans: [Expr; 3]) -> Expr {
    let [a, b, c] = scans.map(|s| Expr::single(CollKind::Set, s));
    Expr::prim(
        Prim::Flatten,
        vec![Expr::union(
            CollKind::Set,
            a,
            Expr::union(CollKind::Set, b, c),
        )],
    )
}

fn count(e: Expr) -> Expr {
    Expr::prim(Prim::Count, vec![e])
}

/// Wait until `driver` holds no ticket, no orphan, and ships no more rows;
/// return how many rows it shipped in all.
fn quiesced(driver: &SlowDriver) -> u64 {
    let t0 = Instant::now();
    let mut shipped = driver.counters().snapshot().rows_shipped;
    loop {
        std::thread::sleep(Duration::from_millis(15));
        let now = driver.counters().snapshot().rows_shipped;
        if now == shipped && driver.gate().in_flight() == 0 && driver.orphans() == 0 {
            return shipped;
        }
        shipped = now;
        assert!(
            t0.elapsed() < Duration::from_secs(3),
            "{}: {} in flight, {} orphans, rows still shipping",
            kleisli_core::Driver::name(driver),
            driver.gate().in_flight(),
            driver.orphans()
        );
    }
}

#[test]
fn sibling_scans_are_inside_their_source_together() {
    // Each request spends 40 ms inside the source; siblings submitted
    // within that time of each other are counted together by
    // `max_seen`. Nothing here is timed.
    let delay = Duration::from_millis(40);
    type Shape = fn([Expr; 3]) -> Expr;
    let sum_of_counts: Shape = |[a, b, _]| Expr::prim(Prim::Add, vec![count(a), count(b)]);
    let shapes: [(&str, Shape, usize); 3] = [
        ("record", record_of, 3),
        ("flatten", flatten_of, 3),
        ("prim", sum_of_counts, 2),
    ];
    for (what, shape, together) in shapes {
        let wide = SlowDriver::new("S", 5, delay, 3);
        let serial = SlowDriver::new("S", 5, delay, 1);
        let e = shape([scan("S"), scan("S"), scan("S")]);
        let overlapped = eval(&e, &Env::empty(), &ctx_of(&[&wide])).unwrap();
        let one_by_one = eval(&e, &Env::empty(), &ctx_of(&[&serial])).unwrap();
        let by_the_book = reference::eval(&e, &Env::empty(), &ctx_of(&[&serial])).unwrap();
        assert_eq!(overlapped, by_the_book, "{what}");
        assert_eq!(one_by_one, by_the_book, "{what}");
        assert_eq!(wide.max_seen.load(Ordering::SeqCst), together, "{what}");
        assert_eq!(serial.max_seen.load(Ordering::SeqCst), 1, "{what}");
        assert_eq!(wide.performs.load(Ordering::SeqCst), together as u64);
        for d in [&wide, &serial] {
            assert!(d.threads_spawned() <= d.gate().limit(), "{what}");
            assert_eq!(quiesced(d), 5 * d.performs.load(Ordering::SeqCst));
        }
    }
}

#[test]
fn a_nested_operator_starts_with_its_siblings() {
    // [n = count(S), rest = [rows = S, local = 1 + 2]]: the scan under
    // `count` and the one two records down are both strict descendants
    // of the outer record.
    let driver = SlowDriver::new("S", 4, Duration::from_millis(40), 4);
    let inner = Expr::record(vec![
        ("rows", scan("S")),
        ("local", Expr::prim(Prim::Add, vec![Expr::int(1), Expr::int(2)])),
    ]);
    let e = Expr::record(vec![("n", count(scan("S"))), ("rest", inner)]);
    let ctx = ctx_of(&[&driver]);
    let v = eval(&e, &Env::empty(), &ctx).unwrap();
    assert_eq!(v, reference::eval(&e, &Env::empty(), &ctx).unwrap());
    assert_eq!(v.project("n"), Some(&Value::Int(4)));
    // Two by `eval`, together; the reference's two, one after the other.
    assert_eq!(driver.max_seen.load(Ordering::SeqCst), 2);
}

#[test]
fn a_sibling_that_cannot_start_stays_lazy_and_keeps_its_place() {
    // The middle field holds a `Let`: not prefetchable, so evaluated
    // in its turn, between the two scans started ahead. A consumer
    // that stops at the first field's error never runs it.
    let driver = SlowDriver::new("S", 3, Duration::from_millis(20), 4);
    let down = SlowDriver::new("DOWN", 3, Duration::ZERO, 1);
    down.set_fault(Fault::FailRequests(u32::MAX));
    let local = Expr::let_("s", Expr::int(0), count(scan("S")));
    let ctx = ctx_of(&[&driver, &down]);

    let e = record_of([scan("S"), local.clone(), scan("S")]);
    let v = eval(&e, &Env::empty(), &ctx).unwrap();
    assert_eq!(v.project("b"), Some(&Value::Int(3)));
    assert_eq!(driver.max_seen.load(Ordering::SeqCst), 2, "a and c, then b");
    assert_eq!(driver.performs.load(Ordering::SeqCst), 3);

    let e = record_of([scan("DOWN"), local, scan("S")]);
    let err = eval(&e, &Env::empty(), &ctx).unwrap_err();
    assert!(matches!(err, KError::Transport { .. }), "{err}");
    quiesced(&driver);
    // `c` was started (and cancelled); `b` never ran.
    assert!(driver.performs.load(Ordering::SeqCst) <= 4);
}

/// Every way of running `e`, as comparable text.
fn every_way(e: &Expr, ctx: &Context) -> [Result<String, String>; 3] {
    let text = |r: kleisli_core::KResult<Value>| match r {
        Ok(v) => Ok(v.to_string()),
        Err(err) => Err(err.to_string()),
    };
    let kind = e.coll_kind_hint();
    [
        text(eval(e, &Env::empty(), ctx)),
        match kind {
            Some(kind) => {
                text(eval_blocks(e, &Env::empty(), ctx).and_then(|s| collect_blocks(s, kind)))
            }
            None => text(eval(e, &Env::empty(), ctx)),
        },
        text(reference::eval(e, &Env::empty(), ctx)),
    ]
}

#[test]
fn a_failing_field_reports_what_left_to_right_evaluation_reports() {
    // Row-heavy healthy sources (10 000 rows at 200 us, window 8) beside
    // sources that fail with distinguishable errors: whichever field
    // fails first *in source order* is the error, its healthy siblings
    // are cancelled, and they stop shipping within a block of the error.
    let per_row = Duration::from_micros(200);
    let healthy = |name: &str| SlowDriver::pipelined(name, 10_000, Duration::ZERO, per_row, 2, 8);
    let failing = |name: &str, after: Duration| {
        let d = SlowDriver::new(name, 1, after, 2);
        d.set_fault(Fault::FailRequests(u32::MAX));
        d
    };
    let (a, b) = (healthy("A"), healthy("B"));
    // F2 fails long before F1 does: source order, not arrival order.
    let (f1, f2) = (
        failing("F1", Duration::from_millis(30)),
        failing("F2", Duration::ZERO),
    );
    let ctx = ctx_of(&[&a, &b, &f1, &f2]);
    let cases = [
        ("first field", [scan("F1"), scan("A"), scan("B")]),
        ("two failures", [scan("F1"), scan("F2"), scan("A")]),
    ];
    for (what, fields) in cases {
        for shape in [record_of, flatten_of] {
            let e = shape(fields.clone());
            let [evaluated, blocks, oracle] = every_way(&e, &ctx);
            assert_eq!(evaluated, oracle, "{what}");
            assert_eq!(blocks, oracle, "{what}");
            let err = oracle.expect_err(what);
            assert!(err.contains("'F1'"), "{what}: {err}");
        }
    }
    for d in [&a, &b] {
        let shipped = quiesced(d);
        let requests = d.performs.load(Ordering::SeqCst);
        // The reference drains nothing either: it fails on F1 first. Per
        // request, at most what shipped while F1 spent its 30 ms plus one
        // full-fetch block in flight at the drop.
        let per_request = 30_000 / 200 + 2 * DEFAULT_BLOCK_ROWS as u64;
        assert!(
            shipped <= requests * per_request,
            "{shipped} rows for {requests} abandoned requests"
        );
    }
    for d in [&f1, &f2] {
        quiesced(d);
    }
}

#[test]
fn a_later_field_failing_still_delivers_the_earlier_error_free_prefix() {
    // [n = count(SMALL), bad = F, rest = BIG]: the first field drains to
    // its end, the second fails, the third is cancelled mid-transfer.
    let small = SlowDriver::pipelined("SMALL", 20, Duration::ZERO, Duration::from_micros(200), 2, 4);
    let big = SlowDriver::pipelined("BIG", 10_000, Duration::ZERO, Duration::from_micros(200), 2, 8);
    let bad = SlowDriver::new("F", 1, Duration::from_millis(10), 1);
    bad.set_fault(Fault::FailRequests(u32::MAX));
    let ctx = ctx_of(&[&small, &big, &bad]);
    for shape in [record_of, flatten_of] {
        let e = shape([scan("SMALL"), scan("F"), scan("BIG")]);
        let [evaluated, blocks, oracle] = every_way(&e, &ctx);
        assert_eq!(evaluated, oracle);
        assert_eq!(blocks, oracle);
        assert!(oracle.unwrap_err().contains("'F'"));
    }
    assert_eq!(quiesced(&small), 20 * small.performs.load(Ordering::SeqCst));
    let shipped = quiesced(&big);
    assert!(shipped < 2_000, "{shipped} rows of an abandoned 10 000-row scan");
    quiesced(&bad);
}

#[test]
fn cancel_and_deadline_stop_a_full_fetch_at_a_block_boundary() {
    let per_row = Duration::from_micros(200);
    let e = record_of([scan("BIG"), scan("BIG"), scan("BIG")]);
    for what in ["cancel", "deadline"] {
        let big = SlowDriver::pipelined("BIG", 10_000, Duration::from_millis(5), per_row, 3, 8);
        let ctx = ctx_of(&[&big]);
        let token = Arc::new(CancelToken::new());
        let ctx = match what {
            "cancel" => ctx.with_cancel_token(Arc::clone(&token)),
            _ => ctx.with_deadline(Instant::now() + Duration::from_millis(25)),
        };
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            token.cancel();
        });
        let t0 = Instant::now();
        let err = eval(&e, &Env::empty(), &ctx).unwrap_err();
        canceller.join().unwrap();
        match what {
            "cancel" => assert!(matches!(err, KError::Cancelled(_)), "{err}"),
            _ => assert!(err.is_timeout(), "{err}"),
        }
        // Noticed at the next block boundary of the scan being drained:
        // 64 rows at 200 us (sleeps overshoot, so a generous bound).
        assert!(t0.elapsed() < Duration::from_millis(500), "{what}: {:?}", t0.elapsed());
        let shipped = quiesced(&big);
        assert_eq!(big.max_seen.load(Ordering::SeqCst), 3, "{what}");
        assert!(shipped < 3_000, "{what}: {shipped} rows of 30 000 shipped");
    }
}

#[test]
fn a_stream_position_scan_keeps_its_window() {
    // The same scan, as the top of a streamed query: nothing is pulled,
    // so the worker parks at the advertised window — while the record
    // above fetched everything it was asked for without a consumer.
    let window = 8;
    let driver = SlowDriver::pipelined("S", 500, Duration::ZERO, Duration::ZERO, 2, window);
    let ctx = ctx_of(&[&driver]);
    let mut stream = eval_blocks(&scan("S"), &Env::empty(), &ctx).unwrap();
    std::thread::sleep(Duration::from_millis(40));
    let shipped = driver.counters().snapshot().rows_shipped;
    assert!(shipped <= window as u64, "{shipped} rows ahead of an idle consumer");
    assert_eq!(stream.next_block(1).unwrap().len(), 1);
    std::thread::sleep(Duration::from_millis(40));
    let shipped = driver.counters().snapshot().rows_shipped;
    assert!(shipped <= 1 + window as u64 + 2, "{shipped} rows ahead of a grain-1 consumer");
    drop(stream);
    quiesced(&driver);

    // A lazy driver stays lazy in value position too.
    let lazy = SlowDriver::new("L", 500, Duration::ZERO, 2);
    let e = record_of([scan("L"), scan("L"), scan("L")]);
    eval(&e, &Env::empty(), &ctx_of(&[&lazy])).unwrap();
    let m = lazy.counters().snapshot();
    assert_eq!((m.rows_shipped, m.rows_prefetched), (1500, 0));
}

#[test]
fn a_record_of_three_scans_costs_less_than_two_in_series() {
    // Real per-row latency and a window (8) well below the table (30):
    // before full fetches, the second and third workers parked after 8
    // rows until the consumer reached them. Loose bound, as in
    // `union_arms_overlap_their_row_transfer`: it only guards against
    // the overlap disappearing.
    let rows = 30;
    let per_row = Duration::from_millis(2);
    let drivers: Vec<_> = ["A", "B", "C"]
        .iter()
        .map(|n| SlowDriver::pipelined(n, rows, Duration::ZERO, per_row, 2, 8))
        .collect();
    let ctx = ctx_of(&drivers.iter().collect::<Vec<_>>());
    let e = record_of([scan("A"), scan("B"), scan("C")]);
    let t0 = Instant::now();
    let v = eval(&e, &Env::empty(), &ctx).unwrap();
    let took = t0.elapsed();
    assert_eq!(v.project("c").and_then(Value::len), Some(rows as usize));
    let two_in_series = per_row * (2 * rows as u32);
    assert!(
        took < two_in_series - two_in_series / 6,
        "three overlapped scans took {took:?}; two in series cost {two_in_series:?}"
    );
}

/// `rows` rows behind a `window`-row prefetch window on `limit`
/// connections, answered by row ranges: a full fetch of it is
/// `min(ceil(rows / window), limit)` requests.
fn sliceable(
    rows: i64,
    delay: Duration,
    per_row: Duration,
    limit: usize,
    window: usize,
) -> Arc<SlowDriver> {
    let driver = SlowDriver::pipelined("S", rows, delay, per_row, limit, window);
    driver.set_sliceable(true);
    driver
}

fn numbered(rows: std::ops::Range<i64>) -> Vec<Value> {
    rows.map(|n| Value::record_from(vec![("n", Value::Int(n))]))
        .collect()
}

#[test]
fn a_value_position_scan_is_as_wide_as_its_reply() {
    // 100 rows, window 8, four connections: four parts of 25 rows, inside
    // the source together. Three such scans in a record queue 12 parts on
    // the 4 workers, and admission never exceeds the width.
    let delay = Duration::from_millis(40);
    let driver = sliceable(100, delay, Duration::ZERO, 4, 8);
    let ctx = ctx_of(&[&driver]);
    let v = eval(&scan("S"), &Env::empty(), &ctx).unwrap();
    assert_eq!(v, Value::set(numbered(0..100)));
    assert_eq!(driver.performs.load(Ordering::SeqCst), 4);
    assert_eq!(driver.max_seen.load(Ordering::SeqCst), 4);
    assert_eq!(quiesced(&driver), 100);

    let e = record_of([scan("S"), scan("S"), scan("S")]);
    let v = eval(&e, &Env::empty(), &ctx).unwrap();
    assert_eq!(v, reference::eval(&e, &Env::empty(), &ctx).unwrap());
    // 12 by `eval`, 3 by the reference, which asks for each scan whole.
    assert_eq!(driver.performs.load(Ordering::SeqCst), 4 + 12 + 3);
    assert_eq!(driver.max_seen.load(Ordering::SeqCst), 4);
    assert!(driver.threads_spawned() <= 4);
    assert_eq!(quiesced(&driver), 100 + 300 + 300);

    // Not sliceable, too short for a second window, or one connection:
    // one request, as ever.
    let plain = SlowDriver::pipelined("S", 100, delay, Duration::ZERO, 4, 8);
    let short = sliceable(8, delay, Duration::ZERO, 4, 8);
    let serial = sliceable(100, delay, Duration::ZERO, 1, 8);
    for d in [&plain, &short, &serial] {
        eval(&scan("S"), &Env::empty(), &ctx_of(&[d])).unwrap();
        assert_eq!(d.performs.load(Ordering::SeqCst), 1);
    }
}

#[test]
fn a_failing_part_ends_the_scan_where_it_stands() {
    // Four parts of 25 rows; the one holding row 30 fails. The consumer
    // who reads the blocks sees the part in front, the error, the end.
    let driver = sliceable(100, Duration::from_millis(5), Duration::ZERO, 4, 8);
    driver.set_fault(Fault::FailRow(30));
    let ctx = ctx_of(&[&driver]);
    let mut blocks = eval_blocks_to_end(&scan("S"), &Env::empty(), &ctx).unwrap();
    let mut rows = Vec::new();
    while let Some(block) = blocks.next_block(DEFAULT_BLOCK_ROWS) {
        rows.extend(block.into_rows());
    }
    let err = rows.pop().expect("an error row").unwrap_err();
    assert!(matches!(err, KError::Transport { .. }), "{err}");
    let delivered: Vec<Value> = rows.into_iter().map(Result::unwrap).collect();
    assert_eq!(delivered, numbered(0..25), "the part in front, none behind");
    assert!(blocks.next_block(1).is_none(), "nothing follows the error");
    drop(blocks);
    quiesced(&driver);

    // `eval` reports what the unsplit scan reports.
    let [evaluated, blocks, oracle] = every_way(&scan("S"), &ctx);
    assert_eq!(evaluated, oracle);
    assert_eq!(blocks, oracle);
    assert!(oracle.unwrap_err().contains("injected transport failure"));

    // The first part failing cancels the three behind it mid-transfer:
    // 2 500 rows each at 200 us, stopped within a block of the error.
    let per_row = Duration::from_micros(200);
    let big = sliceable(10_000, Duration::from_millis(5), per_row, 4, 8);
    big.set_fault(Fault::FailRow(0));
    let err = eval(&scan("S"), &Env::empty(), &ctx_of(&[&big])).unwrap_err();
    assert!(matches!(err, KError::Transport { .. }), "{err}");
    let shipped = quiesced(&big);
    assert!(big.performs.load(Ordering::SeqCst) <= 4);
    assert!(shipped < 1_000, "{shipped} rows of 10 000 shipped");
}

#[test]
fn a_stream_position_scan_is_never_split() {
    // A prefix of a 100-row scan that would split four ways in value
    // position: one request, and no more rows than the window allows.
    let window = 8;
    let driver = sliceable(100, Duration::ZERO, Duration::ZERO, 4, window);
    let ctx = ctx_of(&[&driver]);
    let prefix = first_n(&scan("S"), 3, &Env::empty(), &ctx).unwrap();
    assert_eq!(prefix, numbered(0..3));
    assert_eq!(driver.performs.load(Ordering::SeqCst), 1);
    let shipped = quiesced(&driver);
    assert!(shipped <= 3 + window as u64 + 2, "{shipped} rows for 3");

    // The whole stream, read to its end by someone who might have
    // stopped: still one request.
    let all = eval_blocks(&scan("S"), &Env::empty(), &ctx)
        .and_then(|s| collect_blocks(s, CollKind::Set))
        .unwrap();
    assert_eq!(all.len(), Some(100));
    assert_eq!(driver.performs.load(Ordering::SeqCst), 2);
    // ... and a generator's source is stream position wherever it sits.
    let ns = Expr::ext(
        CollKind::Set,
        "row",
        Expr::single(CollKind::Set, Expr::proj(Expr::var("row"), "n")),
        scan("S"),
    );
    let e = record_of([ns.clone(), ns.clone(), ns]);
    let v = eval(&e, &Env::empty(), &ctx).unwrap();
    assert_eq!(v.project("c").and_then(Value::len), Some(100));
    assert_eq!(driver.performs.load(Ordering::SeqCst), 2 + 3);
}

#[test]
fn sibling_scans_share_the_width() {
    // Three 100-row scans, window 32, eight connections: alone each is 4
    // parts, 12 in all — a wave of eight and a wave of four stragglers.
    // Starting together they are one wave of 3 + 3 + 2, all inside the
    // source at once.
    let delay = Duration::from_millis(40);
    type Shape = fn([Expr; 3]) -> Expr;
    let nested: Shape = |[a, b, c]| {
        let inner = Expr::record(vec![("b", count(b)), ("c", c)]);
        Expr::record(vec![("a", a), ("rest", inner)])
    };
    let shapes: [(&str, Shape); 3] = [
        ("record", record_of),
        ("flatten", flatten_of),
        ("nested", nested),
    ];
    for (what, shape) in shapes {
        let driver = sliceable(100, delay, Duration::ZERO, 8, 32);
        let ctx = ctx_of(&[&driver]);
        let e = shape([scan("S"), scan("S"), scan("S")]);
        let v = eval(&e, &Env::empty(), &ctx).unwrap();
        assert_eq!(driver.performs.load(Ordering::SeqCst), 8, "{what}");
        assert_eq!(driver.max_seen.load(Ordering::SeqCst), 8, "{what}");
        assert_eq!(quiesced(&driver), 300, "{what}");
        assert_eq!(v, reference::eval(&e, &Env::empty(), &ctx).unwrap(), "{what}");
    }
    // Two of them fit the width as they are: 4 + 4.
    let driver = sliceable(100, delay, Duration::ZERO, 8, 32);
    let e = Expr::record(vec![("a", scan("S")), ("b", scan("S"))]);
    eval(&e, &Env::empty(), &ctx_of(&[&driver])).unwrap();
    assert_eq!(driver.performs.load(Ordering::SeqCst), 8);
    // ... and scans of different sources share nothing.
    let [a, b, c] = ["A", "B", "C"].map(|n| {
        let d = SlowDriver::pipelined(n, 100, delay, Duration::ZERO, 8, 32);
        d.set_sliceable(true);
        d
    });
    let e = record_of([scan("A"), scan("B"), scan("C")]);
    eval(&e, &Env::empty(), &ctx_of(&[&a, &b, &c])).unwrap();
    for d in [&a, &b, &c] {
        assert_eq!(d.performs.load(Ordering::SeqCst), 4);
    }
}

#[test]
fn a_sibling_that_cannot_start_is_sized_alone_in_its_turn() {
    // 100 rows, window 32, six connections. `a` and `c` start together:
    // 4 + 4 parts for six connections is one wave of 3 + 3. `b` holds a
    // `Let` — not prefetchable — so it is no part of that wave: its scan
    // is sized when its turn comes, alone, at 4 parts. (All three
    // together would have been two whole waves of 4 + 4 + 4.)
    let driver = sliceable(100, Duration::from_millis(20), Duration::ZERO, 6, 32);
    let ctx = ctx_of(&[&driver]);
    let local = Expr::let_("s", Expr::int(0), count(scan("S")));
    let e = record_of([scan("S"), local, scan("S")]);
    let v = eval(&e, &Env::empty(), &ctx).unwrap();
    assert_eq!(v.project("b"), Some(&Value::Int(100)));
    assert_eq!(driver.performs.load(Ordering::SeqCst), 3 + 3 + 4);
    assert_eq!(driver.max_seen.load(Ordering::SeqCst), 6);
    assert_eq!(quiesced(&driver), 300);
}

#[test]
fn a_jointly_planned_wave_that_fails_or_is_stopped_ends_quiescent() {
    // Three scans of 9 000 rows, window 3 000, eight connections: 3 + 3 +
    // 3 alone, one wave of 3 + 3 + 2 parts of 3 000 / 3 000 / 4 500 rows
    // together, 200 us a row.
    let per_row = Duration::from_micros(200);
    let big = || sliceable(9_000, Duration::from_millis(5), per_row, 8, 3_000);
    let e = record_of([scan("S"), scan("S"), scan("S")]);

    // The part holding row 100 — the first of each scan — fails: the
    // error is `a`'s, as the unsplit scan reports it, and the five
    // healthy parts of the wave are cancelled mid-transfer.
    let driver = big();
    driver.set_fault(Fault::FailRow(100));
    let err = eval(&e, &Env::empty(), &ctx_of(&[&driver])).unwrap_err();
    assert!(matches!(err, KError::Transport { .. }), "{err}");
    let shipped = quiesced(&driver);
    assert_eq!(driver.performs.load(Ordering::SeqCst), 8);
    assert!(shipped < 1_500, "{shipped} rows of 27 000 shipped");
    let oracle = reference::eval(&e, &Env::empty(), &ctx_of(&[&driver])).unwrap_err();
    assert_eq!(err.to_string(), oracle.to_string());

    for what in ["cancel", "deadline"] {
        let driver = big();
        let ctx = ctx_of(&[&driver]);
        let token = Arc::new(CancelToken::new());
        let ctx = match what {
            "cancel" => ctx.with_cancel_token(Arc::clone(&token)),
            _ => ctx.with_deadline(Instant::now() + Duration::from_millis(25)),
        };
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            token.cancel();
        });
        let err = eval(&e, &Env::empty(), &ctx).unwrap_err();
        canceller.join().unwrap();
        match what {
            "cancel" => assert!(matches!(err, KError::Cancelled(_)), "{err}"),
            _ => assert!(err.is_timeout(), "{err}"),
        }
        let shipped = quiesced(&driver);
        assert_eq!(driver.performs.load(Ordering::SeqCst), 8, "{what}");
        assert_eq!(driver.max_seen.load(Ordering::SeqCst), 8, "{what}");
        // Eight parts, each stopped within a block of the 25 ms mark.
        let per_part = 25_000 / 200 + 2 * DEFAULT_BLOCK_ROWS as u64;
        assert!(shipped <= 8 * per_part, "{what}: {shipped} rows of 27 000 shipped");
        assert_eq!(ctx.seeded_flights(), 0, "{what}");
        // The next query over the same source is sized as ever.
        let v = eval(&count(scan("S")), &Env::empty(), &ctx_of(&[&driver])).unwrap();
        assert_eq!(v, Value::Int(9_000), "{what}");
        assert_eq!(driver.performs.load(Ordering::SeqCst), 8 + 3, "{what}");
    }
}
