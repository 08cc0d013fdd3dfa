//! The "resolve" rule set: partial evaluation that runs before the monadic
//! rules — beta reduction, let inlining, constant folding, record
//! projection (the paper's rule R4), case-of-variant dispatch, and the
//! lowering of dynamic driver calls with constant arguments into static
//! [`Expr::Remote`] requests that the pushdown rules can inspect.

use std::sync::Arc;

use kleisli_exec::{request_from_value, Context};
use nrc::{Expr, Prim};

use crate::engine::{Rule, RuleCtx, RuleSet, Strategy};

/// Build the resolve rule set.
pub fn rule_set() -> RuleSet {
    RuleSet {
        name: "resolve",
        strategy: Strategy::BottomUp,
        rules: vec![
            Rule {
                name: "beta-reduce",
                apply: beta_reduce,
            },
            Rule {
                name: "let-inline",
                apply: let_inline,
            },
            Rule {
                name: "proj-record (R4)",
                apply: proj_record,
            },
            Rule {
                name: "case-of-variant",
                apply: case_of_variant,
            },
            Rule {
                name: "if-const",
                apply: if_const,
            },
            Rule {
                name: "const-fold",
                apply: const_fold,
            },
            Rule {
                name: "record-introspection-fold",
                apply: record_introspection,
            },
            Rule {
                name: "record-const-fold",
                apply: record_const_fold,
            },
            Rule {
                name: "variant-const-fold",
                apply: variant_const_fold,
            },
            Rule {
                name: "resolve-remote-call",
                apply: resolve_remote_call,
            },
        ],
    }
}

/// `(\x => b)(a)  ==>  let x = a in b`
fn beta_reduce(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Apply(f, a) = e else { return None };
    let Expr::Lambda { var, body } = &**f else {
        return None;
    };
    Some(Expr::Let {
        var: var.clone(),
        def: Arc::clone(a),
        body: body.clone(),
    })
}

/// Is an expression cheap enough to duplicate freely?
fn is_cheap(e: &Expr) -> bool {
    match e {
        Expr::Const(_) | Expr::Var(_) => true,
        Expr::Proj(inner, _) => is_cheap(inner),
        _ => false,
    }
}

/// Inline `let` bindings that are cheap or used at most once (and local).
fn let_inline(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Let { var, def, body } = e else {
        return None;
    };
    let uses = body.count_free(var);
    if uses == 0 {
        if def.touches_remote() {
            return None; // keep for its (cost-)visible effects? drop anyway is sound, but conservative
        }
        return Some((**body).clone());
    }
    if is_cheap(def) || (uses == 1 && !def.touches_remote()) {
        return Some((*Expr::subst_shared(body, var, def)).clone());
    }
    None
}

/// `[l1 = e1, ..., ln = en].li  ==>  ei`  (rule R4 of the paper)
fn proj_record(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Proj(inner, field) = e else {
        return None;
    };
    match &**inner {
        Expr::Record(fields) => fields
            .iter()
            .find(|(n, _)| n == field)
            .map(|(_, fe)| (**fe).clone()),
        Expr::Const(kleisli_core::Value::Record(r)) => r.get(field).cloned().map(Expr::Const),
        _ => None,
    }
}

/// `case <t = e> of ... <t = \x> => b ...  ==>  let x = e in b`
fn case_of_variant(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Case {
        scrutinee,
        arms,
        default,
    } = e
    else {
        return None;
    };
    let (tag, payload): (&str, Expr) = match &**scrutinee {
        Expr::Inject(t, inner) => (t, (**inner).clone()),
        Expr::Const(kleisli_core::Value::Variant(t, inner)) => (t, Expr::Const((**inner).clone())),
        _ => return None,
    };
    for arm in arms {
        if &*arm.tag == tag {
            return Some(Expr::Let {
                var: arm.var.clone(),
                def: Arc::new(payload),
                body: arm.body.clone(),
            });
        }
    }
    default.as_ref().map(|d| (**d).clone())
}

/// `if true then a else b ==> a`, `if false then a else b ==> b`
fn if_const(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::If(c, t, f) = e else { return None };
    match &**c {
        Expr::Const(kleisli_core::Value::Bool(true)) => Some((**t).clone()),
        Expr::Const(kleisli_core::Value::Bool(false)) => Some((**f).clone()),
        _ => None,
    }
}

/// Fold pure primitives over constant arguments by running the evaluator
/// at compile time.
fn const_fold(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Prim(p, args) = e else { return None };
    if !p.is_pure_local() || *p == Prim::Deref {
        return None;
    }
    let mut vals = Vec::with_capacity(args.len());
    for a in args {
        match &**a {
            Expr::Const(v) => vals.push(v.clone()),
            _ => return None,
        }
    }
    kleisli_exec::prims::apply_prim(*p, &vals, &Context::new())
        .ok()
        .map(Expr::Const)
}

/// Fold `hasfield`/`recordwidth` over record *expressions* (whose field
/// set is statically known even when the values are not).
fn record_introspection(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Prim(p, args) = e else { return None };
    match p {
        Prim::HasField => {
            let Expr::Record(fields) = &*args[0] else {
                return None;
            };
            let Expr::Const(kleisli_core::Value::Str(f)) = &*args[1] else {
                return None;
            };
            Some(Expr::bool(fields.iter().any(|(n, _)| **n == **f)))
        }
        Prim::RecordWidth => {
            let Expr::Record(fields) = &*args[0] else {
                return None;
            };
            Some(Expr::int(fields.len() as i64))
        }
        _ => None,
    }
}

/// A record expression whose fields are all constants is a constant.
fn record_const_fold(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Record(fields) = e else { return None };
    let mut out = Vec::with_capacity(fields.len());
    for (n, fe) in fields {
        match &**fe {
            Expr::Const(v) => out.push((n.clone(), v.clone())),
            _ => return None,
        }
    }
    Some(Expr::Const(kleisli_core::Value::record(out)))
}

/// `<t = const>` is a constant.
fn variant_const_fold(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::Inject(tag, inner) = e else {
        return None;
    };
    match &**inner {
        Expr::Const(v) => Some(Expr::Const(kleisli_core::Value::Variant(
            tag.clone(),
            Arc::new(v.clone()),
        ))),
        _ => None,
    }
}

/// `REMOTE-APP[d](const)  ==>  REMOTE[d: parsed-request]` — once the
/// argument is a constant the request can be built at compile time, making
/// it visible to the pushdown rules.
fn resolve_remote_call(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
    let Expr::RemoteApp { driver, arg } = e else {
        return None;
    };
    let Expr::Const(v) = &**arg else { return None };
    let request = request_from_value(v).ok()?;
    Some(Expr::Remote {
        driver: driver.clone(),
        request,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::NullCatalog;
    use kleisli_core::{DriverRequest, Value};

    fn run(e: Expr) -> Expr {
        let ctx = RuleCtx { catalog: &NullCatalog };
        let mut trace = Vec::new();
        rule_set().run_owned(e, &ctx, &mut trace)
    }

    #[test]
    fn beta_then_inline() {
        let e = Expr::apply(Expr::lambda("x", Expr::var("x")), Expr::int(7));
        assert_eq!(run(e), Expr::int(7));
    }

    #[test]
    fn r4_projection() {
        let e = Expr::proj(
            Expr::record(vec![("a", Expr::int(1)), ("b", Expr::var("y"))]),
            "a",
        );
        assert_eq!(run(e), Expr::int(1));
    }

    #[test]
    fn case_dispatch_on_known_tag() {
        let e = Expr::Case {
            scrutinee: Arc::new(Expr::Inject(nrc::name("ok"), Arc::new(Expr::int(5)))),
            arms: vec![nrc::CaseArm {
                tag: nrc::name("ok"),
                var: nrc::name("x"),
                body: Arc::new(Expr::prim(Prim::Add, vec![Expr::var("x"), Expr::int(1)])),
            }],
            default: Some(Arc::new(Expr::int(0))),
        };
        assert_eq!(run(e), Expr::int(6));
    }

    #[test]
    fn constant_arithmetic_folds() {
        let e = Expr::prim(Prim::Mul, vec![Expr::int(6), Expr::int(7)]);
        assert_eq!(run(e), Expr::int(42));
        // division by zero must NOT fold (stays a runtime error)
        let e = Expr::prim(Prim::Div, vec![Expr::int(1), Expr::int(0)]);
        assert!(matches!(run(e), Expr::Prim(Prim::Div, _)));
    }

    #[test]
    fn hasfield_folds_on_record_expressions() {
        let e = Expr::prim(
            Prim::HasField,
            vec![
                Expr::record(vec![("a", Expr::var("unknown"))]),
                Expr::str("a"),
            ],
        );
        // NB: `unknown` is free but the field set is static.
        assert_eq!(run(e), Expr::bool(true));
    }

    #[test]
    fn remote_call_lowering() {
        let e = Expr::RemoteApp {
            driver: nrc::name("GDB"),
            arg: Arc::new(Expr::Const(Value::record_from(vec![(
                "table",
                Value::str("locus"),
            )]))),
        };
        match run(e) {
            Expr::Remote { driver, request } => {
                assert_eq!(&*driver, "GDB");
                assert_eq!(
                    request,
                    DriverRequest::TableScan {
                        table: "locus".into(),
                        columns: None
                    }
                );
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn remote_call_with_dynamic_arg_stays() {
        let e = Expr::RemoteApp {
            driver: nrc::name("GDB"),
            arg: Arc::new(Expr::var("x")),
        };
        assert_eq!(run(e.clone()), e);
    }

    #[test]
    fn unused_pure_let_is_dropped() {
        let e = Expr::let_("x", Expr::int(1), Expr::int(2));
        assert_eq!(run(e), Expr::int(2));
    }

    #[test]
    fn shadowing_let_not_miscounted() {
        // let x = 1 in (\x => x)(5)  ==> 5
        let e = Expr::let_(
            "x",
            Expr::int(1),
            Expr::apply(Expr::lambda("x", Expr::var("x")), Expr::int(5)),
        );
        assert_eq!(run(e), Expr::int(5));
    }
}
