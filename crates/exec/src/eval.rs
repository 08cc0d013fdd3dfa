//! The value evaluator: scalars, records, variants, functions, control
//! flow and primitives.
//!
//! Kleisli's evaluation mechanism "is basically eager, with rules used to
//! introduce a limited amount of laziness in strategic places" (Section 4).
//! This module is the eager core. It does not iterate collections: every
//! form that assembles one (`Union`, `Ext`, `Join`, `Remote`,
//! `RemoteApp`) is handed to the block evaluator in [`crate::stream`] and
//! drained at the full grain, so a comprehension means the same thing —
//! same operators, same overlap, same errors — at the top of a query and
//! inside a record field. The block evaluator calls back into this module
//! only for the forms it does not stream, so the mutual recursion always
//! descends.
//!
//! # Strict siblings start together; a value-position scan is a full fetch, as wide as its reply, and siblings share the width
//!
//! The one rule about remote scans, in four clauses, stated here and
//! relied on by [`crate::stream`]:
//!
//! * **Strict siblings start together.** An operator that evaluates
//!   several children unconditionally and in order — the fields of a
//!   record, the arguments of a strict primitive, the arms of a union,
//!   the element of a singleton, nested in each other — first *starts*
//!   every child whose stream can be built by non-blocking submission
//!   alone ([`crate::stream`]'s `prefetchable`), and only then drains
//!   them, in source order. Three scans in one record cost about one
//!   scan: request ‖ request ‖ request, then rows ‖ rows ‖ rows.
//!   [`eval`] is `finish(start(e))` over the small `Pending` tree that
//!   carries the started streams to where they are consumed. Values and
//!   errors are those of left-to-right evaluation: a child that cannot
//!   start (or whose start fails) stays lazy and is evaluated — and
//!   fails — when its turn comes, and dropping the later siblings'
//!   streams on an earlier error cancels their requests.
//! * **Value position fetches in full.** When this module collects a
//!   bare `Remote` / `RemoteApp` (or a union spine of them) to its end,
//!   the rows *are* the collection it builds, so buffering them ahead is
//!   memory-neutral: the request is fetched in full
//!   ([`kleisli_core::Fetch::Full`]), and a prefetching driver's worker
//!   ships the whole reply without waiting for the consumer — who is away
//!   draining the sibling in front. The top of a plan is value
//!   position too when whoever drains it reads to the end by
//!   construction and keeps every row
//!   ([`crate::stream::eval_blocks_to_end`]: every query a session
//!   starts without a limit, the server's admitted query among them).
//! * **Stream position keeps the window.** Every other consumer of a
//!   scan — a top-level stream whose reader may stop (a query started
//!   with a limit), `first_n`, the source of a generator, a scan under a
//!   local filter — may stop early
//!   or never hold the rows, so for it
//!   [`kleisli_core::Capabilities::prefetch_rows`] stays the ceiling on
//!   rows shipped but not yet read.
//! * **A full fetch is as wide as its reply, and siblings share the
//!   width.** One connection ships one reply at its row clock, and a
//!   server tolerates several ("say five" requests, Section 4) — so the
//!   full fetches one outermost start meets are first only *planned*
//!   ([`crate::stream`]'s `Wave`), and when it returns the requests bound
//!   for each source are one full fetch ([`crate::Context::fetch`]),
//!   which asks the source how they split ([`kleisli_core::Driver::parts`],
//!   over all of them at once). A
//!   source that answers piecewise and prefetches — GDB, for a table scan
//!   longer than one window — returns consecutive row ranges, as many as
//!   fill **one wave** of its connections: all of them for a scan alone
//!   (never more than it has rows), shared between siblings one part at
//!   a time where it makes the longest part shortest
//!   ([`kleisli_core::remote::apportion`]). Every part of every request
//!   is then in flight as a request of its own before the first is
//!   redeemed, and a request's streams are read back to back, in part
//!   order. One 100-row scan on eight connections is `request ‖ … ‖
//!   request`, `rows ‖ … ‖ rows`, eight parts of 13 rows: P − 1 extra
//!   round-trips, paid in parallel while no other client wants those
//!   connections, for (1 − 1/P) of the row transfer. Three such scans of
//!   100, 80 and 100 rows are one wave of 3 + 2 + 3 parts — not 8 + 8 +
//!   8, three waves, each a round-trip more. (Siblings that do not divide
//!   the connections get uneven parts, and long enough ones would cross
//!   sooner in several waves: `apportion` names that cost.) Each part is
//!   an ordinary request —
//!   admitted against the source's limit (parts beyond it queue as data),
//!   counted, retried and charged to the breaker on its own, so
//!   a retried part does not refetch its siblings — and the scan means
//!   what the unsplit one means: the first error ends it and cancels the
//!   parts behind, so no row ever follows an error. A scan that fails to
//!   start when the wave is launched stays lazy, like a child that cannot
//!   start: it is fetched again — alone — and fails when its turn
//!   comes. Whatever blocks while a wave is open (a nested [`eval`])
//!   plans and launches a wave of its own. While the source's
//!   breaker is anything but closed nothing is split: a half-open
//!   breaker admits one probe, and a whole request is it. What a
//!   split gives up is the single instant — P reads at P instants, like
//!   any join that was not pushed down to its source. Stream position is
//!   never split, so there each request's buffer holds one window at
//!   most and `prefetch_rows` stays the ceiling for whoever may stop
//!   early. No plan shows a split and no option selects one: the part
//!   counts are a function of the row counts of the tables scanned
//!   together and the driver's advertised window and width — never of
//!   load — so the same query costs the same requests every time.

use std::sync::Arc;

use kleisli_core::{BlockStream, CollKind, Join, KError, KResult, Value};
use nrc::{Expr, Name, Prim};

use crate::context::Context;
use crate::env::{Env, Rt};
use crate::prims::apply_prim;
use crate::stream::{blocks_to_end, collect_in, prefetchable, try_start, Fetch, Want, Wave};

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
        Expr::Union(..)
        | Expr::Ext { .. }
        | Expr::Join { .. }
        | Expr::Remote { .. }
        | Expr::RemoteApp { .. } => {
            let kind = e.coll_kind_hint().expect("a collection form");
            collect_in(blocks_to_end(e, env, ctx, Want::Any)?, kind, ctx).map(Rt::Val)
        }
        Expr::If(c, t, f) => {
            let branch = if eval_cond(c, env, ctx, "if")? { t } else { f };
            eval_rt(branch, env, ctx)
        }
        // `and`/`or` short-circuit like the paper's examples expect.
        Expr::Prim(p @ (Prim::And | Prim::Or), args) => {
            let a = eval(&args[0], env, ctx)?;
            if let Value::Bool(b) = a {
                if (*p == Prim::And && !b) || (*p == Prim::Or && b) {
                    return Ok(Rt::Val(Value::Bool(b)));
                }
                return eval_rt(&args[1], env, ctx);
            }
            Err(KError::eval(format!(
                "'{p}' expects bool operands, got {}",
                a.kind_name()
            )))
        }
        // The strict operators: every child, unconditionally, in order.
        Expr::Record(_) | Expr::Single(..) | Expr::Prim(..) => if prefetchable(e, ctx) {
            // Every sibling that can start is in flight before the
            // first one drains, their full fetches sized together
            // (module docs).
            let started = Wave::of(|fetch| {
                let children = strict_children(e);
                children.map(|child| start(child, env, ctx, fetch)).collect()
            });
            finish_node(e, started, env, ctx)
        } else {
            eval_strict(e, ctx, |child| eval(child, env, ctx))
        }
        .map(Rt::Val),
        Expr::Cached { id, expr } => match ctx.cache_join(*id)? {
            Join::Hit(v) => Ok(Rt::Val(v)),
            Join::Lead(lead) => {
                // An Err drops the lead on the way out: a waiter retries.
                let v = eval(expr, env, ctx)?;
                lead.commit(v.clone());
                Ok(Rt::Val(v))
            }
            Join::Reentrant => Ok(Rt::Val(eval(expr, env, ctx)?)),
        },
    }
}

/// A *strict operator* evaluates all its children, unconditionally and
/// in order: a record, a singleton, a primitive other than the
/// short-circuiting `and` / `or`.
fn is_strict(e: &Expr) -> bool {
    match e {
        Expr::Record(_) | Expr::Single(..) => true,
        Expr::Prim(p, _) => !matches!(p, Prim::And | Prim::Or),
        _ => false,
    }
}

/// The children of a strict operator — record fields, primitive
/// arguments, a singleton's element. Empty for every other form.
pub(crate) fn strict_children(e: &Expr) -> impl Iterator<Item = &Arc<Expr>> {
    let mut fields: &[(Name, Arc<Expr>)] = &[];
    let mut args: &[Arc<Expr>] = &[];
    let mut element = None;
    match e {
        Expr::Record(fs) => fields = fs,
        Expr::Prim(_, ps) if is_strict(e) => args = ps,
        Expr::Single(_, inner) => element = Some(inner),
        _ => {}
    }
    fields.iter().map(|(_, fe)| fe).chain(args).chain(element)
}

/// The value of strict operator `e`, each child's value supplied by
/// `child`, called once per child in source order.
fn eval_strict(
    e: &Expr,
    ctx: &Context,
    mut child: impl FnMut(&Arc<Expr>) -> KResult<Value>,
) -> KResult<Value> {
    match e {
        Expr::Record(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (n, fe) in fields {
                out.push((Arc::clone(n), child(fe)?));
            }
            Ok(Value::record(out))
        }
        Expr::Single(kind, inner) => Ok(Value::collection(*kind, vec![child(inner)?])),
        Expr::Prim(p, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(child(a)?);
            }
            apply_prim(*p, &vals, ctx)
        }
        other => unreachable!("not a strict operator: {other}"),
    }
}

/// The value of strict operator `e` over its started children: finished
/// in source order, the first error dropping — and so cancelling — the
/// streams behind it.
fn finish_node(e: &Expr, started: Vec<Pending>, env: &Env, ctx: &Context) -> KResult<Value> {
    let mut started = started.into_iter();
    eval_strict(e, ctx, |_| {
        let child = started.next().expect("one started child per child");
        child.finish(env, ctx)
    })
}

/// A strict child between [`start`] and [`Pending::finish`] (module
/// docs): whatever of it could be put in flight is, and the streams ride
/// here until the child's turn to be evaluated comes.
pub(crate) enum Pending {
    /// Nothing in flight: evaluated from scratch when its turn comes.
    Lazy(Arc<Expr>),
    /// A collection form whose block stream is built — its remote
    /// requests are on the wire — to be collected into a collection of
    /// this kind.
    Stream(BlockStream, CollKind),
    /// A strict operator over its started children.
    Node(Arc<Expr>, Vec<Pending>),
}

/// Put in flight whatever `e` will certainly request, without blocking
/// and without evaluating anything else. `fetch` is the position of the
/// operator the child belongs to: [`Fetch::Full`] from [`eval`], which
/// drains every child now — in flight, then, once the wave `eval` opened
/// around all its children is launched; a singleton's own position when
/// it is an element of a stream that may never be pulled that far.
pub(crate) fn start(e: &Arc<Expr>, env: &Env, ctx: &Context, fetch: Fetch) -> Pending {
    if is_strict(e) && prefetchable(e, ctx) {
        let children = strict_children(e).map(|c| start(c, env, ctx, fetch));
        return Pending::Node(Arc::clone(e), children.collect());
    }
    // A collection form: `finish` collects it. A failed construction (a
    // malformed request record, an open breaker) is not reported from
    // here — the child stays lazy and fails when, and only if, its turn
    // comes.
    match try_start(e, env, ctx, Want::Any, fetch) {
        Some(stream) => Pending::Stream(stream, e.coll_kind_hint().expect("a collection form")),
        None => Pending::Lazy(Arc::clone(e)),
    }
}

impl Pending {
    /// Evaluate the child to its value, draining what [`start`] put in
    /// flight.
    pub(crate) fn finish(self, env: &Env, ctx: &Context) -> KResult<Value> {
        match self {
            Pending::Lazy(e) => eval(&e, env, ctx),
            Pending::Stream(stream, kind) => collect_in(stream, kind, ctx),
            Pending::Node(e, children) => finish_node(&e, children, env, ctx),
        }
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
        // Blocked: no keys, the equality in `cond`; indexed: keys too.
        let key = |v: &str| Arc::new(Expr::proj(Expr::var(v), "k"));
        for (what, keys) in [("blocked", None), ("indexed", Some((key("l"), key("r"))))] {
            let e = Expr::Join {
                kind: CollKind::Set,
                left: Arc::new(Expr::Const(left.clone())),
                right: Arc::new(Expr::Const(right.clone())),
                lvar: name("l"),
                rvar: name("r"),
                keys,
                cond: Arc::new(Expr::eq(
                    Expr::proj(Expr::var("l"), "k"),
                    Expr::proj(Expr::var("r"), "k"),
                )),
                body: Arc::new(body.clone()),
            };
            let got = eval(&e, &Env::empty(), &Context::new()).unwrap();
            assert_eq!(got, reference, "{what}");
            let by_the_book = crate::reference::eval(&e, &Env::empty(), &Context::new());
            assert_eq!(by_the_book.unwrap(), reference, "{what}");
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
        use nrc::{name, LoopStrategy};
        let src = Value::set((0..50).map(Value::Int).collect());
        let body = Expr::single(
            CollKind::Set,
            Expr::prim(Prim::Mul, vec![Expr::var("x"), Expr::int(3)]),
        );
        let seq = Expr::ext(CollKind::Set, "x", body.clone(), Expr::Const(src.clone()));
        let par = Expr::Ext {
            kind: CollKind::Set,
            var: name("x"),
            body: Arc::new(body),
            source: Arc::new(Expr::Const(src)),
            strategy: LoopStrategy::Parallel(8),
        };
        let ctx = Context::new();
        assert_eq!(
            crate::reference::eval(&seq, &Env::empty(), &ctx).unwrap(),
            eval(&par, &Env::empty(), &ctx).unwrap()
        );
    }

    #[test]
    fn par_ext_preserves_list_order() {
        use nrc::{name, LoopStrategy};
        let src = Value::list((0..20).rev().map(Value::Int).collect());
        let body = Expr::single(CollKind::List, Expr::var("x"));
        let par = Expr::Ext {
            kind: CollKind::List,
            var: name("x"),
            body: Arc::new(body),
            source: Arc::new(Expr::Const(src.clone())),
            strategy: LoopStrategy::Parallel(4),
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
