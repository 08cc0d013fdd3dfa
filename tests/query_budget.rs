//! A query's byte budget (`kleisli::How::max_bytes`). A short text can ask
//! for more than any heap holds — six generators over one 20-element
//! literal is 20⁶ = 64 M records — so every row collected into a value is
//! charged, once per value however many generators it streamed through,
//! and past the budget the query is an error naming it. The
//! heap the query took on the way is measured by a counting allocator
//! over the whole process (the evaluation runs on executor workers), so
//! this binary holds only these tests, and they run one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

use kleisli::{How, Session};
use kleisli_core::{KError, Value};

/// The system allocator, counting the bytes the process has allocated
/// and not freed, and the most that figure has been.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        PEAK.fetch_max(live + layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The tests of this binary, one at a time: each reads the process's heap.
static SERIAL: Mutex<()> = Mutex::new(());

/// Six generators over one 20-element literal.
fn six_generators() -> String {
    let twenty: Vec<String> = (1..=20).map(|i| i.to_string()).collect();
    let twenty = twenty.join(", ");
    let names = ["a", "b", "c", "d", "e", "f"];
    let fields: Vec<String> = names.iter().map(|n| format!("{n} = {n}")).collect();
    let generators: Vec<String> = names.iter().map(|n| format!(r"\{n} <- {{{twenty}}}")).collect();
    format!("{{[{}] | {}}}", fields.join(", "), generators.join(", "))
}

fn within(max_bytes: u64) -> How {
    How {
        max_bytes: Some(max_bytes),
        ..How::default()
    }
}

#[test]
fn a_query_past_its_byte_budget_is_an_error_and_its_heap_stays_near_the_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const BUDGET: u64 = 4 << 20;
    /// What the query may hold beyond its budget: the plan, the
    /// executor's first use, and a block of rows in each generator.
    const SLACK: u64 = 2 << 20;
    let session = Session::new();
    let plan = session.compile_shared(&six_generators()).expect("compile");

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let err = session.start(&plan, within(BUDGET)).wait().expect_err("past the budget");
    let rise = (PEAK.load(Ordering::Relaxed) - before) as u64;

    assert!(matches!(err, KError::Eval(_)), "{err}");
    assert!(err.to_string().contains(&format!("memory budget of {BUDGET} bytes")), "{err}");
    assert!(rise <= BUDGET + SLACK, "the heap rose {rise} bytes");
    // The session serves the next query.
    assert_eq!(session.query("count({1, 2, 3})").expect("count"), Value::Int(3));
}

#[test]
fn a_query_one_block_inside_its_budget_runs() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut session = Session::new();
    session.bind_value("DB", Value::set((0..100).map(Value::Int).collect()));
    let plan = session.compile_shared(r"{x * 2 | \x <- DB}").expect("compile");
    // One generator returns the result's rows: that is the whole charge.
    let result = session.start(&plan, How::default()).wait().expect("unbudgeted");
    let charge: u64 = result.elements().expect("a set").iter().map(Value::approx_bytes).sum();

    let at = session.start(&plan, within(charge)).wait().expect("inside the budget");
    assert_eq!(at, result);
    let err = session.start(&plan, within(charge - 1)).wait().expect_err("one byte short");
    assert!(err.to_string().contains("memory budget"), "{err}");
}

#[test]
fn a_flat_and_a_nested_query_yielding_the_same_rows_fail_at_the_same_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut session = Session::new();
    let ints = |n: i64| Value::set((0..n).map(Value::Int).collect());
    session.bind_value("A", ints(20));
    session.bind_value("B", ints(20));
    let pairs = (0..20).flat_map(|a| (0..20).map(move |b| (a, b)));
    let pairs = pairs.map(|(a, b)| Value::record_from([("a", Value::Int(a)), ("b", Value::Int(b))]));
    session.bind_value("PAIRS", Value::set(pairs.collect()));
    let flat = session.compile_shared(r"{[a = p.a, b = p.b] | \p <- PAIRS}").expect("compile");
    let nested = session.compile_shared(r"{[a = a, b = b] | \a <- A, \b <- B}").expect("compile");
    let result = session.start(&flat, How::default()).wait().expect("unbudgeted");
    assert_eq!(session.start(&nested, How::default()).wait().expect("unbudgeted"), result);
    let charge: u64 = result.elements().expect("a set").iter().map(Value::approx_bytes).sum();
    for plan in [&flat, &nested] {
        let at = session.start(plan, within(charge)).wait().expect("inside the budget");
        assert_eq!(at, result);
        let err = session.start(plan, within(charge - 1)).wait().expect_err("one byte short");
        assert!(err.to_string().contains("memory budget"), "{err}");
    }
}
