//! The parser's nesting budget (`cpl::parser::MAX_NESTING`): a query
//! nested to the budget in any bracket form, or chaining that many
//! operators, parses and runs on a 2 MiB stack — what every executor
//! worker has — and one nested a level deeper, or a thousand levels
//! deeper, is an ordinary parse error that names the limit rather than a
//! stack overflow that aborts the process.

use cpl::parser::MAX_NESTING;
use kleisli::Session;
use kleisli_core::{KError, Value};

/// `depth` levels of each bracket form around `1` — parentheses, set
/// literals and record fields — and a chain of `depth` additions.
fn forms(depth: usize) -> [String; 4] {
    [
        format!("{}1{}", "(".repeat(depth), ")".repeat(depth)),
        format!("{}1{}", "{".repeat(depth), "}".repeat(depth)),
        format!("{}1{}", "[a = ".repeat(depth), "]".repeat(depth)),
        format!("1{}", " + 1".repeat(depth)),
    ]
}

/// Run `test` on a thread with a 2 MiB stack.
fn on_a_worker_sized_stack(test: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(test)
        .expect("spawn")
        .join()
        .expect("the test thread");
}

fn assert_names_the_limit(err: &KError, text: &str) {
    assert!(
        matches!(err, KError::Parse { .. }),
        "{err}: {}",
        &text[..20]
    );
    let limit = format!("{MAX_NESTING} levels");
    assert!(err.to_string().contains(&limit), "{err}");
}

#[test]
fn a_query_nested_to_the_budget_runs_and_one_level_deeper_is_a_parse_error() {
    on_a_worker_sized_stack(|| {
        let session = Session::new();
        let [parens, sets, records, chain] = forms(MAX_NESTING).map(|text| session.query(&text));
        assert_eq!(parens.expect("parentheses"), Value::Int(1));
        assert_eq!(chain.expect("a chain"), Value::Int(MAX_NESTING as i64 + 1));
        let mut set = sets.expect("sets");
        let mut record = records.expect("records");
        for _ in 0..MAX_NESTING {
            set = set.elements().expect("a set")[0].clone();
            record = record.project("a").expect("a record").clone();
        }
        assert_eq!((set, record), (Value::Int(1), Value::Int(1)));
        for text in forms(MAX_NESTING + 1) {
            assert_names_the_limit(&session.query(&text).unwrap_err(), &text);
        }
    });
}

#[test]
fn a_thousand_levels_is_a_parse_error_not_an_abort() {
    on_a_worker_sized_stack(|| {
        let operands = [
            format!("{}true", "not ".repeat(1000)),
            format!("{}1{}", "<a = ".repeat(1000), " >".repeat(1000)),
            format!("{}\\x{} => 1", "(".repeat(1000), ")".repeat(1000)),
            format!("1{}", " + 1".repeat(1999)),
        ];
        for text in forms(1000).into_iter().chain(operands) {
            assert_names_the_limit(&cpl::parse_expr(&text).unwrap_err(), &text);
        }
    });
}
