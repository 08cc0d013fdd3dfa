//! The parts of the served path below the server: the `QueryHandle`
//! grain rule, the plan cache's source-catalog snapshot, and the reply
//! written once into its frame.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use kleisli::{PlanCache, Session};
use kleisli_core::testutil::SlowDriver;
use kleisli_core::{
    write_exchange, Capabilities, DriverRequest, KResult, LatencyModel, Oid, Remote, Source,
    TableStats, Value,
};
use kleisli_server::proto::{decode_response, encode_result_frame, encode_result_text, frame};
use kleisli_server::{Response, ServedFrom};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Grain
// ---------------------------------------------------------------------

#[test]
fn a_three_row_prefix_costs_a_handful_of_requests_not_the_loop() {
    // `tests/concurrency.rs`'s per-element remote loop: 40 ids, one
    // 10 ms request each. The grain doubles per pull (1, 2, 4, ..), so
    // when the third row arrives the worker is at most one four-row
    // pull further; a drain at the full grain runs all 40 requests
    // before the first row shows.
    let driver = SlowDriver::new("SRC", 1, Duration::from_millis(10), 2);
    let performs = Arc::clone(&driver.performs);
    let mut s = Session::new();
    s.register_driver(driver);
    s.bind_value("IDS", Value::set((0..40).map(Value::Int).collect()));
    let h = s
        .submit(r#"{[i = i, n = count(SRC([function = "probe", arg = i]))] | \i <- IDS}"#)
        .expect("submit");
    assert_eq!(h.first_n(3).expect("prefix").len(), 3);
    std::thread::sleep(Duration::from_millis(60));
    let ran = performs.load(Ordering::SeqCst);
    assert!(ran <= 16, "first_n(3) ran {ran} of the loop's 40 requests");
}

// ---------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------

/// An SQL-capable source with nothing but a schema: it counts how often
/// each table's statistics are asked for, and the schema can be swapped
/// underneath the mediator.
#[derive(Default)]
struct Schema {
    columns: Mutex<Vec<String>>,
    asked: Mutex<HashMap<String, usize>>,
}

impl Schema {
    fn with_columns(columns: &[&str]) -> Schema {
        let schema = Schema::default();
        schema.set_columns(columns);
        schema
    }

    fn set_columns(&self, columns: &[&str]) {
        *self.columns.lock().unwrap() = columns.iter().map(|c| c.to_string()).collect();
    }

    fn asked(&self, table: &str) -> usize {
        self.asked.lock().unwrap().get(table).copied().unwrap_or(0)
    }
}

impl Source for Schema {
    fn capabilities(&self, _latency: &LatencyModel) -> Capabilities {
        Capabilities {
            sql: true,
            ..Capabilities::default()
        }
    }

    fn answer(&self, _driver: &str, _req: &DriverRequest) -> KResult<Vec<Value>> {
        Ok(Vec::new())
    }

    fn table_stats(&self, table: &str) -> Option<TableStats> {
        *self
            .asked
            .lock()
            .unwrap()
            .entry(table.to_string())
            .or_default() += 1;
        Some(TableStats {
            rows: 10,
            columns: self.columns.lock().unwrap().clone(),
            ..TableStats::default()
        })
    }
}

/// Two sessions over one `X` source, sharing one plan cache (attached
/// after registration, as the server does).
fn two_sessions(source: &Arc<Remote<Schema>>) -> (Session, Session) {
    let plans = PlanCache::new(64);
    let session = || {
        let mut s = Session::new();
        s.register_driver(source.clone());
        s.share_plan_cache(Arc::clone(&plans));
        s
    };
    (session(), session())
}

/// A never-seen whole-row selection: pushing it down needs the schema.
fn whole_rows(table: &str, k: usize) -> String {
    format!(r#"{{r | \r <- X-Tab("{table}"), r.a = {k}}}"#)
}

#[test]
fn a_table_is_asked_for_its_statistics_once_per_invalidation() {
    let source = Arc::new(Remote::serve(
        "X",
        Schema::with_columns(&["a", "b"]),
        LatencyModel::instant(),
    ));
    let (a, b) = two_sessions(&source);
    for k in 0..100 {
        let session = if k % 4 < 2 { &a } else { &b };
        let table = if k % 2 == 0 { "t" } else { "u" };
        session
            .compile_shared(&whole_rows(table, k))
            .expect("compile");
    }
    assert_eq!(
        a.plan_cache_stats().misses,
        100,
        "every text was never seen"
    );
    assert_eq!((source.asked("t"), source.asked("u")), (1, 1));

    // A flush from either session drops the source's snapshot with its
    // plans: the next compile — on the other session — asks again, once.
    a.flush_source("X").expect("flush");
    for k in 100..110 {
        b.compile_shared(&whole_rows("t", k)).expect("compile");
    }
    assert_eq!((source.asked("t"), source.asked("u")), (2, 1));
}

#[test]
fn a_flush_replaces_the_schema_the_pushdown_decides_on() {
    // A bare projection is shipped as SQL only if it narrows the row,
    // which takes the schema to know.
    let source = Arc::new(Remote::serve(
        "X",
        Schema::with_columns(&["a", "b"]),
        LatencyModel::instant(),
    ));
    let (a, b) = two_sessions(&source);
    let projection = r#"{[a = r.a, b = r.b] | \r <- X-Tab("t")}"#;
    let respelled = r#"{[a = s.a, b = s.b] | \s <- X-Tab("t")}"#;
    let pushed = |explain: String| explain.contains("select t0.a as a, t0.b as b from t");
    assert!(
        !pushed(a.explain(projection).unwrap()),
        "both columns: nothing to narrow"
    );

    // The table grows a column underneath the mediator. Unannounced,
    // plans and snapshot stay as they were — together.
    source.set_columns(&["a", "b", "c"]);
    assert!(!pushed(b.explain(respelled).unwrap()));

    // FLUSH, from either session, drops both: the recompile sees the
    // new schema and decides the other way.
    b.flush_source("X").expect("flush");
    assert!(
        pushed(a.explain(projection).unwrap()),
        "two of three columns: ship the projection"
    );
    assert_eq!(source.asked("t"), 2);
}

// ---------------------------------------------------------------------
// Wire
// ---------------------------------------------------------------------

/// An arbitrary value nesting up to `depth`: empty collections, and
/// strings holding every character the exchange format escapes.
fn value(depth: u32) -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e6f64..1e6).prop_map(Value::Float),
        "[ab\\\n\ré]{0,6}".prop_map(Value::str),
        (0u64..50).prop_map(|id| Value::Ref(Oid {
            class: Arc::from("Cl\\one"),
            id,
        })),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = value(depth - 1);
    prop_oneof![
        3 => leaf,
        1 => proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::set),
        1 => proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::bag),
        1 => proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::list),
        1 => proptest::collection::vec(("[a-c\n]{1}", inner.clone()), 0..4)
            .prop_map(Value::record_from),
        1 => ("[a-z\\]{1,6}", inner).prop_map(|(t, v)| Value::variant(t, v)),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_result_frame_is_the_text_path_byte_for_byte(v in value(4), id in any::<u64>(), cached in any::<bool>()) {
        let served = if cached { ServedFrom::SharedCache } else { ServedFrom::Fresh };
        let payload = encode_result_text(id, served, &write_exchange(&v));
        let framed = encode_result_frame(id, served, &v, usize::MAX).expect("unbounded");
        prop_assert_eq!(&framed, &frame(&payload).unwrap());
        prop_assert_eq!(
            decode_response(&framed[4..]).unwrap(),
            Response::Result { id, served, value: v }
        );
    }
}
