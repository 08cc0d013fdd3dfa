//! The value evaluator: scalars, records, variants, functions, control
//! flow and primitives.
//!
//! Kleisli's evaluation mechanism "is basically eager, with rules used to
//! introduce a limited amount of laziness in strategic places" (Section 4).
//! This module is the eager core. It does not iterate collections: every
//! form that assembles one (`Union`, `Ext`, `ParExt`, `Join`, `Remote`,
//! `RemoteApp`) is handed to the block evaluator in [`crate::stream`] and
//! drained at the full grain, so a comprehension means the same thing —
//! same operators, same overlap, same errors — at the top of a query and
//! inside a record field. The block evaluator calls back into this module
//! only for the forms it does not stream, so the mutual recursion always
//! descends.

use std::sync::Arc;

use kleisli_core::{KError, KResult, Value};
use nrc::{Expr, Prim};

use crate::context::{CacheLookup, Context};
use crate::env::{Env, Rt};
use crate::prims::apply_prim;
use crate::stream::{collect_blocks, eval_blocks};

/// Evaluate a closed, collection- or value-producing expression.
pub fn eval(e: &Expr, env: &Env, ctx: &Context) -> KResult<Value> {
    eval_rt(e, env, ctx)?.into_value()
}

/// Evaluate, permitting a function result (used for `Apply` heads).
pub fn eval_rt(e: &Expr, env: &Env, ctx: &Context) -> KResult<Rt> {
    match e {
        Expr::Const(v) => Ok(Rt::Val(v.clone())),
        Expr::Var(n) => env
            .lookup(n)
            .cloned()
            .ok_or_else(|| KError::Unbound(n.to_string())),
        Expr::Let { var, def, body } => {
            let d = eval_rt(def, env, ctx)?;
            eval_rt(body, &env.bind(Arc::clone(var), d), ctx)
        }
        Expr::Lambda { var, body } => Ok(Rt::Closure {
            var: Arc::clone(var),
            body: Arc::clone(body),
            env: env.clone(),
        }),
        Expr::Apply(f, a) => {
            let fv = eval_rt(f, env, ctx)?;
            let av = eval_rt(a, env, ctx)?;
            match fv {
                Rt::Closure {
                    var,
                    body,
                    env: cenv,
                } => eval_rt(&body, &cenv.bind(var, av), ctx),
                Rt::Val(v) => Err(KError::eval(format!(
                    "cannot apply a non-function ({})",
                    v.kind_name()
                ))),
            }
        }
        Expr::Record(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (n, fe) in fields {
                out.push((Arc::clone(n), eval(fe, env, ctx)?));
            }
            Ok(Rt::Val(Value::record(out)))
        }
        Expr::Proj(inner, field) => {
            let v = eval(inner, env, ctx)?;
            match &v {
                Value::Record(r) => r
                    .get(field)
                    .cloned()
                    .map(Rt::Val)
                    .ok_or_else(|| KError::eval(format!("record has no field '{field}': {v}"))),
                other => Err(KError::eval(format!(
                    "projection '.{field}' on non-record {}",
                    other.kind_name()
                ))),
            }
        }
        Expr::Inject(tag, inner) => Ok(Rt::Val(Value::Variant(
            Arc::clone(tag),
            Arc::new(eval(inner, env, ctx)?),
        ))),
        Expr::Case {
            scrutinee,
            arms,
            default,
        } => {
            let v = eval(scrutinee, env, ctx)?;
            let Value::Variant(tag, payload) = &v else {
                return Err(KError::eval(format!(
                    "case on non-variant {}",
                    v.kind_name()
                )));
            };
            for arm in arms {
                if arm.tag == *tag {
                    let env2 = env.bind(Arc::clone(&arm.var), Rt::Val((**payload).clone()));
                    return eval_rt(&arm.body, &env2, ctx);
                }
            }
            match default {
                Some(d) => eval_rt(d, env, ctx),
                None => Err(KError::eval(format!("no case arm for variant tag '{tag}'"))),
            }
        }
        Expr::Empty(kind) => Ok(Rt::Val(Value::empty(*kind))),
        Expr::Single(kind, inner) => Ok(Rt::Val(Value::collection(
            *kind,
            vec![eval(inner, env, ctx)?],
        ))),
        Expr::Union(..)
        | Expr::Ext { .. }
        | Expr::ParExt { .. }
        | Expr::Join { .. }
        | Expr::Remote { .. }
        | Expr::RemoteApp { .. } => {
            let kind = e.coll_kind_hint().expect("a collection form");
            collect_blocks(eval_blocks(e, env, ctx)?, kind).map(Rt::Val)
        }
        Expr::If(c, t, f) => {
            let branch = if eval_cond(c, env, ctx, "if")? { t } else { f };
            eval_rt(branch, env, ctx)
        }
        Expr::Prim(p, args) => {
            // `and`/`or` short-circuit like the paper's examples expect.
            if *p == Prim::And || *p == Prim::Or {
                let a = eval(&args[0], env, ctx)?;
                if let Value::Bool(b) = a {
                    if (*p == Prim::And && !b) || (*p == Prim::Or && b) {
                        return Ok(Rt::Val(Value::Bool(b)));
                    }
                    return eval_rt(&args[1], env, ctx);
                }
                return Err(KError::eval(format!(
                    "'{p}' expects bool operands, got {}",
                    a.kind_name()
                )));
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, env, ctx)?);
            }
            apply_prim(*p, &vals, ctx).map(Rt::Val)
        }
        Expr::Cached { id, expr } => match ctx.cache_cell(*id).lookup_or_begin() {
            CacheLookup::Hit(v) => Ok(Rt::Val(v)),
            CacheLookup::Miss(ticket) => {
                // Single-flight: concurrent evaluators of the same id
                // block in lookup_or_begin until this commit (or until
                // the ticket is dropped by `?` on an Err, which aborts
                // and lets one of them retry).
                let v = eval(expr, env, ctx)?;
                ticket.commit(v.clone());
                Ok(Rt::Val(v))
            }
            // This thread is already populating this id higher up the
            // stack; evaluate without the cache to avoid self-deadlock.
            CacheLookup::Reentrant => Ok(Rt::Val(eval(expr, env, ctx)?)),
        },
    }
}

/// Evaluate a condition to its truth value; `what` names the construct
/// (`if`, `join`) in the error a non-bool raises.
pub(crate) fn eval_cond(c: &Expr, env: &Env, ctx: &Context, what: &str) -> KResult<bool> {
    match eval(c, env, ctx)? {
        Value::Bool(b) => Ok(b),
        other => Err(KError::eval(format!(
            "{what} condition must be bool, got {}",
            other.kind_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpl::{desugar, parse_expr, Definitions};
    use kleisli_core::CollKind;
    use nrc::JoinStrategy;

    fn run_with(src: &str, defs: &Definitions) -> KResult<Value> {
        let ast = parse_expr(src).expect("parse");
        let e = desugar(&ast, defs)?;
        eval(&e, &Env::empty(), &Context::new())
    }

    fn publications() -> Value {
        let p = |title: &str, year: i64, authors: Vec<&str>, journal: Value, kw: Vec<&str>| {
            Value::record_from(vec![
                ("title", Value::str(title)),
                ("year", Value::Int(year)),
                (
                    "authors",
                    Value::list(
                        authors
                            .into_iter()
                            .map(|a| {
                                Value::record_from(vec![
                                    ("name", Value::str(a)),
                                    ("initial", Value::str("X")),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("journal", journal),
                (
                    "keywd",
                    Value::set(kw.into_iter().map(Value::str).collect()),
                ),
            ])
        };
        Value::set(vec![
            p(
                "Structure of the human perforin gene",
                1989,
                vec!["Lichtenheld", "Podack"],
                Value::variant(
                    "controlled",
                    Value::variant("medline-jta", Value::str("J Immunol")),
                ),
                vec!["Exons", "Base Sequence"],
            ),
            p(
                "A second paper",
                1988,
                vec!["Smith"],
                Value::variant("uncontrolled", Value::str("Ad Hoc Reviews")),
                vec!["Exons"],
            ),
        ])
    }

    fn pub_defs() -> Definitions {
        let mut defs = Definitions::new();
        defs.insert_value("DB", publications());
        defs
    }

    #[test]
    fn paper_title_authors_projection() {
        let v = run_with(
            r"{[title = p.title, authors = p.authors] | \p <- DB}",
            &pub_defs(),
        )
        .unwrap();
        assert_eq!(v.len(), Some(2));
        let first = &v.elements().unwrap()[0];
        assert!(first.project("title").is_some());
        assert!(first.project("authors").is_some());
        assert!(first.project("year").is_none());
    }

    #[test]
    fn paper_pattern_and_filter_equivalence() {
        let a = run_with(
            r"{[title = t] | [title = \t, year = \y, ...] <- DB, y = 1988}",
            &pub_defs(),
        )
        .unwrap();
        let b = run_with(
            r"{[title = t] | [title = \t, year = 1988, ...] <- DB}",
            &pub_defs(),
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), Some(1));
    }

    #[test]
    fn paper_flatten_keywords() {
        let v = run_with(
            r"{[title = t, keyword = k] | [title = \t, keywd = \kk, ...] <- DB, \k <- kk}",
            &pub_defs(),
        )
        .unwrap();
        assert_eq!(v.len(), Some(3));
    }

    #[test]
    fn paper_keyword_inversion() {
        let v = run_with(
            r"{[keyword = k, titles = {x.title | \x <- DB, k <- x.keywd}] | \y <- DB, \k <- y.keywd}",
            &pub_defs(),
        )
        .unwrap();
        // keywords: Exons (2 titles), Base Sequence (1 title)
        assert_eq!(v.len(), Some(2));
        let exons = v
            .elements()
            .unwrap()
            .iter()
            .find(|e| e.project("keyword") == Some(&Value::str("Exons")))
            .unwrap();
        assert_eq!(exons.project("titles").unwrap().len(), Some(2));
    }

    #[test]
    fn paper_uncontrolled_journals() {
        let v = run_with(
            r"{[name = n, title = t] | [title = \t, journal = <uncontrolled = \n>, ...] <- DB}",
            &pub_defs(),
        )
        .unwrap();
        assert_eq!(v.len(), Some(1));
        assert_eq!(
            v.elements().unwrap()[0].project("name"),
            Some(&Value::str("Ad Hoc Reviews"))
        );
    }

    #[test]
    fn paper_jname_function() {
        let src = r#"
            define jname ==
                <uncontrolled = \s> => s
              | <controlled = <medline-jta = \s>> => s
              | <controlled = <iso-jta = \s>> => s
              | <controlled = <journal-title = \s>> => s
              | <controlled = <issn = \s>> => s;
            {[title = t, name = jname(v)] | [title = \t, journal = \v, ...] <- DB};
        "#;
        let stmts = cpl::parse_program(src).unwrap();
        let mut defs = pub_defs();
        let mut result = None;
        for s in &stmts {
            if let Some(e) = cpl::desugar_stmt(s, &mut defs).unwrap() {
                result = Some(eval(&e, &Env::empty(), &Context::new()).unwrap());
            }
        }
        let v = result.unwrap();
        assert_eq!(v.len(), Some(2));
        let names: Vec<_> = v
            .elements()
            .unwrap()
            .iter()
            .map(|e| e.project("name").unwrap().clone())
            .collect();
        assert!(names.contains(&Value::str("J Immunol")));
        assert!(names.contains(&Value::str("Ad Hoc Reviews")));
    }

    #[test]
    fn papers_of_membership() {
        let src = r#"
            define papers-of == \x => {p.title | \p <- DB, x <- p.authors};
            papers-of([name = "Smith", initial = "X"]);
        "#;
        let stmts = cpl::parse_program(src).unwrap();
        let mut defs = pub_defs();
        let mut result = None;
        for s in &stmts {
            if let Some(e) = cpl::desugar_stmt(s, &mut defs).unwrap() {
                result = Some(eval(&e, &Env::empty(), &Context::new()).unwrap());
            }
        }
        assert_eq!(
            result.unwrap(),
            Value::set(vec![Value::str("A second paper")])
        );
    }

    #[test]
    fn bag_comprehension_keeps_duplicates() {
        let mut defs = Definitions::new();
        defs.insert_value(
            "B",
            Value::bag(vec![Value::Int(1), Value::Int(1), Value::Int(2)]),
        );
        let v = run_with(r"{| x * 10 | \x <- B |}", &defs).unwrap();
        assert_eq!(
            v,
            Value::bag(vec![Value::Int(10), Value::Int(10), Value::Int(20)])
        );
    }

    #[test]
    fn list_comprehension_preserves_order() {
        let mut defs = Definitions::new();
        defs.insert_value(
            "L",
            Value::list(vec![Value::Int(3), Value::Int(1), Value::Int(2)]),
        );
        let v = run_with(r"[| x + 1 | \x <- L |]", &defs).unwrap();
        assert_eq!(
            v,
            Value::list(vec![Value::Int(4), Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn aggregates_and_conditionals() {
        let defs = pub_defs();
        let v = run_with(r"sum({y | [year = \y, ...] <- DB})", &defs).unwrap();
        assert_eq!(v, Value::Int(1989 + 1988));
        let v = run_with(r#"if count(DB) = 2 then "two" else "other""#, &defs).unwrap();
        assert_eq!(v, Value::str("two"));
    }

    #[test]
    fn join_strategies_agree_with_nested_loops() {
        use nrc::name;
        let mk_set = |range: std::ops::Range<i64>, f: fn(i64) -> i64| {
            Value::set(
                range
                    .map(|i| {
                        Value::record_from(vec![("k", Value::Int(f(i))), ("v", Value::Int(i))])
                    })
                    .collect(),
            )
        };
        let left = mk_set(0..30, |i| i % 7);
        let right = mk_set(0..20, |i| i % 5);
        // The oracle's nested-loop comprehension — which the evaluator's
        // own reading of the same comprehension must match too.
        let mut defs = Definitions::new();
        defs.insert_value("L", left.clone());
        defs.insert_value("R", right.clone());
        let nested = r"{[a = l.v, b = r.v] | \l <- L, \r <- R, l.k = r.k}";
        let loops = desugar(&parse_expr(nested).expect("parse"), &defs).unwrap();
        let reference = crate::reference::eval(&loops, &Env::empty(), &Context::new()).unwrap();
        assert_eq!(run_with(nested, &defs).unwrap(), reference);

        let body = Expr::single(
            CollKind::Set,
            Expr::record(vec![
                ("a", Expr::proj(Expr::var("l"), "v")),
                ("b", Expr::proj(Expr::var("r"), "v")),
            ]),
        );
        for strategy in [JoinStrategy::BlockedNl, JoinStrategy::IndexedNl] {
            let e = Expr::Join {
                kind: CollKind::Set,
                strategy: strategy.clone(),
                left: Arc::new(Expr::Const(left.clone())),
                right: Arc::new(Expr::Const(right.clone())),
                lvar: name("l"),
                rvar: name("r"),
                left_key: Some(Arc::new(Expr::proj(Expr::var("l"), "k"))),
                right_key: Some(Arc::new(Expr::proj(Expr::var("r"), "k"))),
                cond: Arc::new(Expr::eq(
                    Expr::proj(Expr::var("l"), "k"),
                    Expr::proj(Expr::var("r"), "k"),
                )),
                body: Arc::new(body.clone()),
            };
            let got = eval(&e, &Env::empty(), &Context::new()).unwrap();
            assert_eq!(got, reference, "strategy {strategy:?}");
            let by_the_book = crate::reference::eval(&e, &Env::empty(), &Context::new());
            assert_eq!(by_the_book.unwrap(), reference, "strategy {strategy:?}");
        }
    }

    #[test]
    fn cached_node_memoizes() {
        let ctx = Context::new();
        let inner = Expr::single(CollKind::Set, Expr::int(1));
        let e = Expr::Cached {
            id: 99,
            expr: Arc::new(inner),
        };
        let v1 = eval(&e, &Env::empty(), &ctx).unwrap();
        ctx.cache_put(99, Value::set(vec![Value::Int(42)])); // prove it reads the cache
        let v2 = eval(&e, &Env::empty(), &ctx).unwrap();
        assert_eq!(v1, Value::set(vec![Value::Int(1)]));
        assert_eq!(v2, Value::set(vec![Value::Int(42)]));
    }

    #[test]
    fn par_ext_matches_sequential() {
        use nrc::name;
        let src = Value::set((0..50).map(Value::Int).collect());
        let body = Expr::single(
            CollKind::Set,
            Expr::prim(Prim::Mul, vec![Expr::var("x"), Expr::int(3)]),
        );
        let seq = Expr::Ext {
            kind: CollKind::Set,
            var: name("x"),
            body: Arc::new(body.clone()),
            source: Arc::new(Expr::Const(src.clone())),
        };
        let par = Expr::ParExt {
            kind: CollKind::Set,
            var: name("x"),
            body: Arc::new(body),
            source: Arc::new(Expr::Const(src)),
            max_in_flight: 8,
            batch: None,
        };
        let ctx = Context::new();
        assert_eq!(
            crate::reference::eval(&seq, &Env::empty(), &ctx).unwrap(),
            eval(&par, &Env::empty(), &ctx).unwrap()
        );
    }

    #[test]
    fn par_ext_preserves_list_order() {
        use nrc::name;
        let src = Value::list((0..20).rev().map(Value::Int).collect());
        let body = Expr::single(CollKind::List, Expr::var("x"));
        let par = Expr::ParExt {
            kind: CollKind::List,
            var: name("x"),
            body: Arc::new(body),
            source: Arc::new(Expr::Const(src.clone())),
            max_in_flight: 4,
            batch: None,
        };
        let got = eval(&par, &Env::empty(), &Context::new()).unwrap();
        assert_eq!(got, src);
        let expected = crate::reference::eval(&par, &Env::empty(), &Context::new()).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn runtime_errors_are_reported() {
        let defs = Definitions::new();
        assert!(run_with("1 / 0", &defs).is_err());
        assert!(run_with("[a = 1].b", &defs).is_err());
        assert!(run_with("if 3 then 1 else 2", &defs).is_err());
    }

    #[test]
    fn mixed_kind_union_is_an_error() {
        let e = Expr::union(
            CollKind::Set,
            Expr::Const(Value::set(vec![])),
            Expr::Const(Value::list(vec![])),
        );
        assert!(eval(&e, &Env::empty(), &Context::new()).is_err());
    }
}
