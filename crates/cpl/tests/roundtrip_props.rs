//! Property tests for the CPL front end: randomly generated queries over a
//! random publication-shaped database must desugar to closed NRC whose
//! evaluation matches a direct reference interpretation of the
//! comprehension.

use cpl::{desugar, parse_expr, Definitions};
use kleisli_core::Value;
use kleisli_opt::{NullCatalog, OptConfig};
use proptest::prelude::*;

fn database(rows: usize, seed: usize) -> Value {
    Value::set(
        (0..rows)
            .map(|i| {
                let j = i * 7 + seed;
                Value::record_from(vec![
                    ("title", Value::str(format!("t{i}"))),
                    ("year", Value::Int(1985 + (j % 10) as i64)),
                    (
                        "keywd",
                        Value::set(
                            (0..(j % 3 + 1))
                                .map(|k| Value::str(format!("k{}", (j + k) % 5)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// Reference semantics of `{[title = t] | [title = \t, year = \y, ...] <- DB, y <op> c}`.
fn reference_filter(db: &Value, op: &str, c: i64) -> Value {
    let keep = |y: i64| match op {
        "=" => y == c,
        "<>" => y != c,
        "<" => y < c,
        "<=" => y <= c,
        ">" => y > c,
        _ => y >= c,
    };
    Value::set(
        db.elements()
            .unwrap()
            .iter()
            .filter(|p| match p.project("year") {
                Some(Value::Int(y)) => keep(*y),
                _ => false,
            })
            .map(|p| Value::record_from(vec![("title", p.project("title").unwrap().clone())]))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn filters_agree_with_reference(
        rows in 0usize..30,
        seed in 0usize..50,
        op_idx in 0usize..6,
        c in 1980i64..2000,
    ) {
        let ops = ["=", "<>", "<", "<=", ">", ">="];
        let op = ops[op_idx];
        let db = database(rows, seed);
        let mut defs = Definitions::new();
        defs.insert_value("DB", db.clone());
        let src = format!(
            r"{{[title = t] | [title = \t, year = \y, ...] <- DB, y {op} {c}}}"
        );
        let ast = parse_expr(&src).expect("parse");
        let e = desugar(&ast, &defs).expect("desugar");
        prop_assert!(e.free_vars().is_empty(), "desugared query must be closed");
        let got = kleisli_exec::eval(&e, &kleisli_exec::Env::empty(), &kleisli_exec::Context::new())
            .expect("eval");
        prop_assert_eq!(got, reference_filter(&db, op, c));
    }

    #[test]
    fn optimizer_agrees_with_unoptimized_on_parsed_queries(
        rows in 0usize..25,
        seed in 0usize..50,
        c in 1980i64..2000,
    ) {
        // a nested query: keyword inversion restricted by year
        let db = database(rows, seed);
        let mut defs = Definitions::new();
        defs.insert_value("DB", db);
        let src = format!(
            r"{{[k = k, n = count({{x.title | \x <- DB, k <- x.keywd}})] |
               [year = \y, keywd = \kk, ...] <- DB, y <= {c}, \k <- kk}}"
        );
        let ast = parse_expr(&src).expect("parse");
        let e = desugar(&ast, &defs).expect("desugar");
        let ctx = kleisli_exec::Context::new();
        let plain = kleisli_exec::eval(&e, &kleisli_exec::Env::empty(), &ctx).expect("eval");
        let (opt, _) = kleisli_opt::optimize(e, &NullCatalog, &OptConfig::default());
        let optimized = kleisli_exec::eval(&opt, &kleisli_exec::Env::empty(), &ctx).expect("eval opt");
        prop_assert_eq!(plain, optimized);
    }

    #[test]
    fn literal_values_roundtrip_through_parser(v_idx in 0usize..6, n in -100i64..100) {
        // print a value in CPL syntax, re-parse, desugar, evaluate: fixpoint
        let v = match v_idx {
            0 => Value::Int(n),
            1 => Value::str(format!("s{n}")),
            2 => Value::Bool(n % 2 == 0),
            3 => Value::set(vec![Value::Int(n), Value::Int(n + 1)]),
            4 => Value::record_from(vec![("a", Value::Int(n))]),
            _ => Value::variant("tag", Value::Int(n)),
        };
        let text = v.to_string();
        let ast = parse_expr(&text).expect("parse printed value");
        let e = desugar(&ast, &Definitions::new()).expect("desugar");
        let back = kleisli_exec::eval(&e, &kleisli_exec::Env::empty(), &kleisli_exec::Context::new())
            .expect("eval");
        prop_assert_eq!(back, v);
    }
}
