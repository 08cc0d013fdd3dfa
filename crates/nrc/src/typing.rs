//! Best-effort static typing for NRC.
//!
//! The paper stresses that "static type information is both available and
//! useful in specifying and optimizing transformations". Data arriving from
//! drivers is often only dynamically known, so this checker is *gradual*:
//! unknown information is represented by `Type::Any` and only definite
//! mismatches (projecting a field from an integer, unioning a set with a
//! list, ...) are errors. The optimizer consults the inferred types — e.g.
//! homogeneity of records — and the session uses it to reject ill-typed
//! queries early.

use std::collections::HashMap;
use std::sync::Arc;

use kleisli_core::{CollKind, KError, KResult, Type};

use crate::expr::{Expr, Name};
use crate::prim::Prim;

/// Typing environment: variable name → type.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    vars: HashMap<Name, Type>,
}

impl TypeEnv {
    pub fn new() -> TypeEnv {
        TypeEnv::default()
    }

    pub fn bind(&self, name: Name, ty: Type) -> TypeEnv {
        let mut vars = self.vars.clone();
        vars.insert(name, ty);
        TypeEnv { vars }
    }

    pub fn lookup(&self, name: &str) -> Option<&Type> {
        self.vars.get(name)
    }
}

/// Infer the type of `e` under `env`, erring only on definite mismatches.
pub fn infer(e: &Expr, env: &TypeEnv) -> KResult<Type> {
    match e {
        Expr::Const(v) => Ok(Type::of(v)),
        Expr::Var(n) => env
            .lookup(n)
            .cloned()
            .ok_or_else(|| KError::Unbound(n.to_string())),
        Expr::Let { var, def, body } => {
            let t = infer(def, env)?;
            infer(body, &env.bind(Arc::clone(var), t))
        }
        Expr::Lambda { var, body } => {
            let r = infer(body, &env.bind(Arc::clone(var), Type::Any))?;
            Ok(Type::Fun(Box::new(Type::Any), Box::new(r)))
        }
        Expr::Apply(f, a) => {
            let tf = infer(f, env)?;
            infer(a, env)?;
            match tf {
                Type::Fun(_, r) => Ok(*r),
                Type::Any => Ok(Type::Any),
                other => Err(KError::ty(format!("cannot apply non-function: {other}"))),
            }
        }
        Expr::Record(fields) => {
            let mut fs = Vec::with_capacity(fields.len());
            for (n, fe) in fields {
                fs.push((Arc::clone(n), infer(fe, env)?));
            }
            fs.sort_by(|a, b| a.0.cmp(&b.0));
            Ok(Type::Record(fs, false))
        }
        Expr::Proj(inner, field) => {
            let t = infer(inner, env)?;
            match t {
                Type::Record(fields, open) => match fields.iter().find(|(n, _)| n == field) {
                    Some((_, ft)) => Ok(ft.clone()),
                    None if open => Ok(Type::Any),
                    None => Err(KError::ty(format!(
                        "record {} has no field '{field}'",
                        Type::Record(fields.clone(), open)
                    ))),
                },
                Type::Any => Ok(Type::Any),
                other => Err(KError::ty(format!(
                    "projection '.{field}' applied to non-record type {other}"
                ))),
            }
        }
        Expr::Inject(tag, inner) => {
            let t = infer(inner, env)?;
            Ok(Type::Variant(vec![(Arc::clone(tag), t)], true))
        }
        Expr::Case {
            scrutinee,
            arms,
            default,
        } => {
            let st = infer(scrutinee, env)?;
            match &st {
                Type::Variant(..) | Type::Any => {}
                other => {
                    return Err(KError::ty(format!(
                        "case on non-variant type {other}"
                    )))
                }
            }
            let mut result: Option<Type> = None;
            for arm in arms {
                let payload = match &st {
                    Type::Variant(tags, _) => tags
                        .iter()
                        .find(|(n, _)| n == &arm.tag)
                        .map(|(_, t)| t.clone())
                        .unwrap_or(Type::Any),
                    _ => Type::Any,
                };
                let bt = infer(&arm.body, &env.bind(Arc::clone(&arm.var), payload))?;
                result = Some(match result {
                    None => bt,
                    Some(r) => r.lub(&bt),
                });
            }
            if let Some(d) = default {
                let dt = infer(d, env)?;
                result = Some(match result {
                    None => dt,
                    Some(r) => r.lub(&dt),
                });
            }
            Ok(result.unwrap_or(Type::Any))
        }
        Expr::Empty(kind) => Ok(Type::Coll(*kind, Box::new(Type::Any))),
        Expr::Single(kind, inner) => Ok(Type::Coll(*kind, Box::new(infer(inner, env)?))),
        Expr::Union(kind, a, b) => {
            let ta = infer(a, env)?;
            let tb = infer(b, env)?;
            let ea = coll_elem(&ta, *kind, "union")?;
            let eb = coll_elem(&tb, *kind, "union")?;
            Ok(Type::Coll(*kind, Box::new(ea.lub(&eb))))
        }
        Expr::Ext {
            kind,
            var,
            body,
            source,
        }
        | Expr::ParExt {
            kind,
            var,
            body,
            source,
            ..
        } => {
            let ts = infer(source, env)?;
            // Generators may draw from any collection kind (the paper:
            // `x <- p.authors` iterates a list inside a set comprehension).
            let elem = any_coll_elem(&ts, "comprehension generator")?;
            let tb = infer(body, &env.bind(Arc::clone(var), elem))?;
            let belem = coll_elem(&tb, *kind, "comprehension body")?;
            Ok(Type::Coll(*kind, Box::new(belem)))
        }
        Expr::If(c, t, e2) => {
            let tc = infer(c, env)?;
            if !matches!(tc, Type::Bool | Type::Any) {
                return Err(KError::ty(format!("if condition must be bool, got {tc}")));
            }
            let tt = infer(t, env)?;
            let te = infer(e2, env)?;
            Ok(tt.lub(&te))
        }
        Expr::Prim(p, args) => {
            if args.len() != p.arity() {
                return Err(KError::ty(format!(
                    "primitive '{p}' expects {} argument(s), got {}",
                    p.arity(),
                    args.len()
                )));
            }
            let arg_types: Vec<Type> = args
                .iter()
                .map(|a| infer(a, env))
                .collect::<KResult<_>>()?;
            prim_result(*p, &arg_types)
        }
        Expr::Remote { .. } => Ok(Type::set(Type::Any)),
        Expr::RemoteApp { arg, .. } => {
            infer(arg, env)?;
            Ok(Type::set(Type::Any))
        }
        Expr::Join {
            kind,
            left,
            right,
            lvar,
            rvar,
            left_key,
            right_key,
            cond,
            body,
            ..
        } => {
            let tl = infer(left, env)?;
            let tr = infer(right, env)?;
            let le = coll_elem(&tl, *kind, "join left")?;
            let re = coll_elem(&tr, *kind, "join right")?;
            // Each key over its own side alone (`crate::expr`, "Scope").
            let (lenv, renv) = (
                env.bind(Arc::clone(lvar), le),
                env.bind(Arc::clone(rvar), re.clone()),
            );
            left_key.iter().try_for_each(|k| infer(k, &lenv).map(drop))?;
            right_key.iter().try_for_each(|k| infer(k, &renv).map(drop))?;
            let inner = lenv.bind(Arc::clone(rvar), re);
            infer(cond, &inner)?;
            let tb = infer(body, &inner)?;
            let belem = coll_elem(&tb, *kind, "join body")?;
            Ok(Type::Coll(*kind, Box::new(belem)))
        }
        Expr::Cached { expr, .. } => infer(expr, env),
    }
}

/// Element type of a collection type of any kind.
fn any_coll_elem(t: &Type, what: &str) -> KResult<Type> {
    match t {
        Type::Coll(_, elem) => Ok((**elem).clone()),
        Type::Any => Ok(Type::Any),
        other => Err(KError::ty(format!(
            "{what}: expected a collection, got {other}"
        ))),
    }
}

/// Element type of a collection type of the expected kind.
fn coll_elem(t: &Type, kind: CollKind, what: &str) -> KResult<Type> {
    match t {
        Type::Coll(k, elem) if *k == kind => Ok((**elem).clone()),
        Type::Coll(k, _) => Err(KError::ty(format!(
            "{what}: expected a {}, got a {}",
            kind.name(),
            k.name()
        ))),
        Type::Any => Ok(Type::Any),
        other => Err(KError::ty(format!(
            "{what}: expected a {}, got {other}",
            kind.name()
        ))),
    }
}

fn numeric(t: &Type) -> bool {
    matches!(t, Type::Int | Type::Float | Type::Any)
}

fn prim_result(p: Prim, args: &[Type]) -> KResult<Type> {
    use Prim::*;
    let t = |i: usize| args[i].clone();
    Ok(match p {
        Add | Sub | Mul | Div | Mod => {
            if !numeric(&args[0]) || !numeric(&args[1]) {
                return Err(KError::ty(format!(
                    "arithmetic '{p}' on non-numeric types {} and {}",
                    args[0], args[1]
                )));
            }
            if args[0] == Type::Float || args[1] == Type::Float {
                Type::Float
            } else if args[0] == Type::Int && args[1] == Type::Int {
                Type::Int
            } else {
                Type::Any
            }
        }
        Neg => {
            if !numeric(&args[0]) {
                return Err(KError::ty(format!("'neg' on non-numeric type {}", args[0])));
            }
            t(0)
        }
        Eq | Ne | Lt | Le | Gt | Ge => Type::Bool,
        And | Or => {
            for a in args {
                if !matches!(a, Type::Bool | Type::Any) {
                    return Err(KError::ty(format!("'{p}' on non-bool type {a}")));
                }
            }
            Type::Bool
        }
        Not => {
            if !matches!(args[0], Type::Bool | Type::Any) {
                return Err(KError::ty(format!("'not' on non-bool type {}", args[0])));
            }
            Type::Bool
        }
        StrCat => Type::Str,
        StrLen => Type::Int,
        StrUpper | StrLower | Substr | ToString => Type::Str,
        StrContains | StrStartsWith => Type::Bool,
        IsEmpty => Type::Bool,
        Member => Type::Bool,
        Flatten => match &args[0] {
            Type::Coll(k, inner) => match &**inner {
                Type::Coll(_, elem) => Type::Coll(*k, elem.clone()),
                Type::Any => Type::Coll(*k, Box::new(Type::Any)),
                other => {
                    return Err(KError::ty(format!(
                        "'flatten' needs a collection of collections, got elements {other}"
                    )))
                }
            },
            Type::Any => Type::Any,
            other => return Err(KError::ty(format!("'flatten' on {other}"))),
        },
        Distinct | SetOf => Type::set(elem_of(&args[0])?),
        BagOf => Type::bag(elem_of(&args[0])?),
        ListOf => Type::list(elem_of(&args[0])?),
        Append => t(0).lub(&t(1)),
        Nth => elem_of(&args[0])?,
        Range => Type::list(Type::Int),
        Count => Type::Int,
        Sum => match elem_of(&args[0])? {
            Type::Float => Type::Float,
            Type::Int => Type::Int,
            _ => Type::Any,
        },
        Max | Min => elem_of(&args[0])?,
        Avg => Type::Float,
        Deref => Type::Any,
        HasField => Type::Bool,
        RecordWidth => Type::Int,
        Fail => Type::Any,
    })
}

fn elem_of(t: &Type) -> KResult<Type> {
    match t {
        Type::Coll(_, e) => Ok((**e).clone()),
        Type::Any => Ok(Type::Any),
        other => Err(KError::ty(format!("expected a collection, got {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::name;
    use kleisli_core::Value;

    fn env_with(n: &str, t: Type) -> TypeEnv {
        TypeEnv::new().bind(name(n), t)
    }

    #[test]
    fn infers_comprehension_over_records() {
        // U{ {[t = x.title]} | \x <- DB } : {[t: string]}
        let db_ty = Type::set(Type::record(vec![("title", Type::Str), ("year", Type::Int)]));
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::single(
                CollKind::Set,
                Expr::record(vec![("t", Expr::proj(Expr::var("x"), "title"))]),
            ),
            Expr::var("DB"),
        );
        let t = infer(&e, &env_with("DB", db_ty)).unwrap();
        assert_eq!(t, Type::set(Type::record(vec![("t", Type::Str)])));
    }

    #[test]
    fn rejects_projection_on_base_type() {
        let e = Expr::proj(Expr::int(3), "x");
        assert!(matches!(
            infer(&e, &TypeEnv::new()),
            Err(KError::Type(_))
        ));
    }

    #[test]
    fn rejects_missing_field_on_closed_record() {
        let e = Expr::proj(Expr::var("r"), "zzz");
        let env = env_with("r", Type::record(vec![("a", Type::Int)]));
        assert!(infer(&e, &env).is_err());
    }

    #[test]
    fn open_record_projection_is_any() {
        let e = Expr::proj(Expr::var("r"), "zzz");
        let env = env_with("r", Type::Record(vec![], true));
        assert_eq!(infer(&e, &env).unwrap(), Type::Any);
    }

    #[test]
    fn union_of_mismatched_kinds_fails() {
        let e = Expr::union(
            CollKind::Set,
            Expr::Const(Value::set(vec![])),
            Expr::Const(Value::list(vec![])),
        );
        assert!(infer(&e, &TypeEnv::new()).is_err());
    }

    #[test]
    fn unbound_variable_is_reported() {
        assert!(matches!(
            infer(&Expr::var("nope"), &TypeEnv::new()),
            Err(KError::Unbound(_))
        ));
    }

    #[test]
    fn a_join_key_sees_its_own_side_only() {
        let ints = || Arc::new(Expr::Const(Value::set(vec![Value::Int(1)])));
        let join = |right_key: &str| Expr::Join {
            kind: CollKind::Set,
            strategy: crate::JoinStrategy::IndexedNl,
            left: ints(),
            right: ints(),
            lvar: name("l"),
            rvar: name("r"),
            left_key: Some(Arc::new(Expr::var("l"))),
            right_key: Some(Arc::new(Expr::var(right_key))),
            cond: Arc::new(Expr::bool(true)),
            body: Arc::new(Expr::single(CollKind::Set, Expr::var("l"))),
        };
        assert_eq!(
            infer(&join("r"), &TypeEnv::new()).unwrap(),
            Type::set(Type::Int)
        );
        assert!(matches!(
            infer(&join("l"), &TypeEnv::new()),
            Err(KError::Unbound(_))
        ));
    }

    #[test]
    fn arithmetic_type_errors_are_definite() {
        let bad = Expr::prim(Prim::Add, vec![Expr::str("a"), Expr::int(1)]);
        assert!(infer(&bad, &TypeEnv::new()).is_err());
        let ok = Expr::prim(Prim::Add, vec![Expr::int(1), Expr::int(1)]);
        assert_eq!(infer(&ok, &TypeEnv::new()).unwrap(), Type::Int);
    }

    #[test]
    fn case_merges_arm_types() {
        // case v of <a = \x> => 1 | <b = \y> => 2 end
        let e = Expr::Case {
            scrutinee: Arc::new(Expr::var("v")),
            arms: vec![
                crate::expr::CaseArm {
                    tag: name("a"),
                    var: name("x"),
                    body: Arc::new(Expr::int(1)),
                },
                crate::expr::CaseArm {
                    tag: name("b"),
                    var: name("y"),
                    body: Arc::new(Expr::int(2)),
                },
            ],
            default: None,
        };
        let env = env_with(
            "v",
            Type::variant(vec![("a", Type::Unit), ("b", Type::Unit)]),
        );
        assert_eq!(infer(&e, &env).unwrap(), Type::Int);
    }

    #[test]
    fn remote_is_dynamically_typed_set() {
        let e = Expr::Remote {
            driver: name("GDB"),
            request: kleisli_core::DriverRequest::TableScan {
                table: "locus".into(),
                columns: None,
            },
        };
        assert_eq!(infer(&e, &TypeEnv::new()).unwrap(), Type::set(Type::Any));
    }
}
