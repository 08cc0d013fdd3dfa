//! Property test: the planner (index selection, hash-join ordering) agrees
//! with a brute-force reference evaluation of the same conjunctive query.

use proptest::prelude::*;

use kleisli_core::Value;
use sybase_sim::sql::{self, CmpOp, ColRef, Operand, Pred, Query, SelectItem, SelectList};
use sybase_sim::storage::{Database, Datum};
use sybase_sim::execute_query;

fn small_db(rows_a: &[(i64, i64)], rows_b: &[(i64, i64)], index: bool) -> Database {
    let mut db = Database::new();
    db.create_table("a", &["x", "y"]).unwrap();
    db.create_table("b", &["u", "v"]).unwrap();
    for (x, y) in rows_a {
        db.table_mut("a")
            .unwrap()
            .insert(vec![Datum::Int(*x), Datum::Int(*y)])
            .unwrap();
    }
    for (u, v) in rows_b {
        db.table_mut("b")
            .unwrap()
            .insert(vec![Datum::Int(*u), Datum::Int(*v)])
            .unwrap();
    }
    if index {
        db.table_mut("a").unwrap().create_index("x").unwrap();
        db.table_mut("b").unwrap().create_index("u").unwrap();
    }
    db
}

fn col(q: &str, c: &str) -> Operand {
    Operand::Col(ColRef {
        qualifier: Some(q.into()),
        column: c.into(),
    })
}

fn pred_strategy() -> impl Strategy<Value = Pred> {
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    let operand = prop_oneof![
        Just(col("a", "x")),
        Just(col("a", "y")),
        Just(col("b", "u")),
        Just(col("b", "v")),
        (-3i64..3).prop_map(|i| Operand::Lit(Datum::Int(i))),
    ];
    (operand.clone(), op, operand).prop_map(|(lhs, op, rhs)| Pred { lhs, op, rhs })
}

/// Brute force: cross product, then filter, then project.
fn reference(db: &Database, q: &Query) -> Vec<Value> {
    let a = db.table("a").unwrap();
    let b = db.table("b").unwrap();
    let mut out = Vec::new();
    for ra in a.rows() {
        for rb in b.rows() {
            let lookup = |o: &Operand| -> Datum {
                match o {
                    Operand::Lit(d) => d.clone(),
                    Operand::Col(c) => {
                        let (t, row) = if c.qualifier.as_deref() == Some("a") {
                            (a, ra)
                        } else {
                            (b, rb)
                        };
                        row[t.col_index(&c.column).unwrap()].clone()
                    }
                }
            };
            let pass = q.preds.iter().all(|p| {
                let l = lookup(&p.lhs);
                let r = lookup(&p.rhs);
                if std::mem::discriminant(&l) != std::mem::discriminant(&r) {
                    return p.op == CmpOp::Ne;
                }
                p.op.eval(l.cmp(&r))
            });
            if pass {
                let SelectList::Items(items) = &q.select else {
                    unreachable!()
                };
                out.push(Value::record(
                    items
                        .iter()
                        .map(|it| {
                            let Operand::Col(_) = Operand::Col(it.column.clone()) else {
                                unreachable!()
                            };
                            (
                                std::sync::Arc::from(it.output.as_str()),
                                lookup(&Operand::Col(it.column.clone())).to_value(),
                            )
                        })
                        .collect(),
                ));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn planner_agrees_with_brute_force(
        rows_a in proptest::collection::vec((-3i64..3, -3i64..3), 0..12),
        rows_b in proptest::collection::vec((-3i64..3, -3i64..3), 0..12),
        preds in proptest::collection::vec(pred_strategy(), 0..4),
        index in any::<bool>(),
    ) {
        let db = small_db(&rows_a, &rows_b, index);
        let q = Query {
            select: SelectList::Items(vec![
                SelectItem { column: ColRef { qualifier: Some("a".into()), column: "x".into() }, output: "x".into() },
                SelectItem { column: ColRef { qualifier: Some("b".into()), column: "v".into() }, output: "v".into() },
            ]),
            from: vec![("a".into(), "a".into()), ("b".into(), "b".into())],
            preds,
        };
        let mut got = execute_query(&db, &q).unwrap();
        let mut want = reference(&db, &q);
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn sql_text_roundtrip_through_parser(
        lit in -5i64..5,
        op_idx in 0usize..6,
    ) {
        let ops = ["=", "<>", "<", "<=", ">", ">="];
        let text = format!("select a.x as x from a where a.y {} {}", ops[op_idx], lit);
        let q = sql::parse(&text).unwrap();
        prop_assert_eq!(q.preds.len(), 1);
    }
}
