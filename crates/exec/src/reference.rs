//! The definitional semantics of NRC as a deliberately naive interpreter:
//! the oracle the evaluator is tested against, never a path a query takes.
//!
//! Plain structural recursion over every [`Expr`] form, each collection
//! built whole and canonicalized the moment it is complete. Both join
//! strategies are one outer-major nested loop, every loop strategy runs
//! its bodies one after another, `Cached` is its body, a remote request
//! is fetched and drained on the spot: no executor, cache cells,
//! batching, streaming or operator strategies. Keep
//! it obviously right; never optimize it. It shares leaf semantics with
//! the evaluator ([`apply_prim`], the driver-request convention, [`Env`])
//! and raises the same error texts, so results compare equal on values and
//! on stringified errors alike.

use std::sync::Arc;

use kleisli_core::{CollKind, DriverRequest, Fetch, KError, KResult, Value};
use nrc::{Expr, Name, Prim};

use crate::context::{request_from_value, Context};
use crate::env::{Env, Rt};
use crate::prims::apply_prim;

macro_rules! bail {
    ($($msg:tt)*) => { return Err(KError::eval(format!($($msg)*))) };
}

/// Evaluate `e` by the book.
pub fn eval(e: &Expr, env: &Env, ctx: &Context) -> KResult<Value> {
    rt(e, env, ctx)?.into_value()
}

fn rt(e: &Expr, env: &Env, ctx: &Context) -> KResult<Rt> {
    let val = |e: &Expr, env: &Env| eval(e, env, ctx);
    Ok(Rt::Val(match e {
        Expr::Const(v) => v.clone(),
        Expr::Var(n) => match env.lookup(n) {
            Some(bound) => return Ok(bound.clone()),
            None => return Err(KError::Unbound(n.to_string())),
        },
        Expr::Let { var, def, body } => {
            return rt(body, &env.bind(Arc::clone(var), rt(def, env, ctx)?), ctx)
        }
        Expr::Lambda { var, body } => {
            return Ok(Rt::Closure {
                var: Arc::clone(var),
                body: Arc::clone(body),
                env: env.clone(),
            })
        }
        Expr::Apply(f, a) => {
            let (fv, av) = (rt(f, env, ctx)?, rt(a, env, ctx)?);
            match fv {
                Rt::Closure { var, body, env } => return rt(&body, &env.bind(var, av), ctx),
                Rt::Val(v) => bail!("cannot apply a non-function ({})", v.kind_name()),
            }
        }
        Expr::Record(fields) => {
            let field = |(n, fe): &(Name, Arc<Expr>)| Ok((Arc::clone(n), val(fe, env)?));
            Value::record(fields.iter().map(field).collect::<KResult<Vec<_>>>()?)
        }
        Expr::Proj(inner, field) => match val(inner, env)? {
            Value::Record(r) => match r.get(field) {
                Some(v) => v.clone(),
                None => bail!(
                    "record has no field '{field}': {}",
                    Value::Record(r.clone())
                ),
            },
            other => bail!("projection '.{field}' on non-record {}", other.kind_name()),
        },
        Expr::Inject(tag, inner) => Value::Variant(Arc::clone(tag), Arc::new(val(inner, env)?)),
        Expr::Case {
            scrutinee,
            arms,
            default,
        } => {
            let v = val(scrutinee, env)?;
            let Value::Variant(tag, payload) = &v else {
                bail!("case on non-variant {}", v.kind_name());
            };
            match (arms.iter().find(|arm| arm.tag == *tag), default) {
                (Some(arm), _) => {
                    let bound = env.bind(Arc::clone(&arm.var), Rt::Val((**payload).clone()));
                    return rt(&arm.body, &bound, ctx);
                }
                (None, Some(d)) => return rt(d, env, ctx),
                (None, None) => bail!("no case arm for variant tag '{tag}'"),
            }
        }
        Expr::If(c, t, f) => return rt(if truth(&val(c, env)?, "if")? { t } else { f }, env, ctx),
        Expr::Prim(p @ (Prim::And | Prim::Or), args) => match val(&args[0], env)? {
            // Short-circuit: the left operand alone may decide.
            Value::Bool(b) if b == (*p == Prim::Or) => Value::Bool(b),
            Value::Bool(_) => return rt(&args[1], env, ctx),
            other => bail!("'{p}' expects bool operands, got {}", other.kind_name()),
        },
        Expr::Prim(p, args) => {
            let vals: KResult<Vec<_>> = args.iter().map(|a| val(a, env)).collect();
            apply_prim(*p, &vals?, ctx)?
        }
        Expr::Cached { expr, .. } => return rt(expr, env, ctx),
        Expr::Empty(kind) => Value::empty(*kind),
        Expr::Single(kind, inner) => Value::collection(*kind, vec![val(inner, env)?]),
        Expr::Union(kind, a, b) => {
            let mut out = elems(val(a, env)?, *kind, Some("union"))?;
            out.extend(elems(val(b, env)?, *kind, Some("union"))?);
            Value::collection(*kind, out)
        }
        Expr::Ext {
            kind,
            var,
            body,
            source,
            ..
        } => {
            let src = val(source, env)?;
            let Some(generator) = src.elements() else {
                bail!(
                    "comprehension generator: expected a collection, got {}",
                    src.kind_name()
                );
            };
            let mut out = Vec::new();
            for el in generator {
                let piece = val(body, &env.bind(Arc::clone(var), Rt::Val(el.clone())))?;
                out.extend(elems(piece, *kind, None)?);
            }
            Value::collection(*kind, out)
        }
        Expr::Join {
            kind,
            left,
            right,
            lvar,
            rvar,
            keys,
            cond,
            body,
        } => {
            let ls = elems(val(left, env)?, *kind, Some("join left"))?;
            let rs = elems(val(right, env)?, *kind, Some("join right"))?;
            let mut out = Vec::new();
            for l in &ls {
                for r in &rs {
                    let lenv = env.bind(Arc::clone(lvar), Rt::Val(l.clone()));
                    let renv = env.bind(Arc::clone(rvar), Rt::Val(r.clone()));
                    // Equi-keys the optimizer split off are part of the
                    // condition — each over its own side alone
                    // (`nrc::expr`, "Scope").
                    if let Some((lk, rk)) = keys {
                        if val(lk, &lenv)? != val(rk, &renv)? {
                            continue;
                        }
                    }
                    let pair = lenv.bind(Arc::clone(rvar), Rt::Val(r.clone()));
                    if truth(&val(cond, &pair)?, "join")? {
                        out.extend(elems(val(body, &pair)?, *kind, None)?);
                    }
                }
            }
            Value::collection(*kind, out)
        }
        Expr::Remote { driver, request } => remote(driver, request, ctx)?,
        Expr::RemoteApp { driver, arg } => {
            remote(driver, &request_from_value(&val(arg, env)?)?, ctx)?
        }
    }))
}

fn truth(v: &Value, what: &str) -> KResult<bool> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => bail!("{what} condition must be bool, got {}", other.kind_name()),
    }
}

/// The elements of `v`, which must be a `kind` collection: a union operand
/// or join side named by `what`, or (`None`) a comprehension body piece.
fn elems(v: Value, kind: CollKind, what: Option<&str>) -> KResult<Vec<Value>> {
    let (want, name) = (kind.name(), v.kind_name());
    match (v.coll_kind(), what) {
        (Some(k), _) if k == kind => Ok(v.elements().expect("a collection").to_vec()),
        (_, None) => bail!("comprehension body must produce a {want}, got {name}"),
        (Some(_), Some(what)) => bail!("{what}: expected a {want}, got a {name}"),
        (None, Some(what)) => bail!("{what}: expected a {want}, got {name}"),
    }
}

/// Fetch, wait, drain row by row: drivers answer with sets.
fn remote(driver: &str, req: &DriverRequest, ctx: &Context) -> KResult<Value> {
    let handle = ctx.fetch(driver, std::slice::from_ref(req), Fetch::Window).pop();
    let rows: KResult<Vec<Value>> = handle.expect("a handle a request")?.wait()?.collect();
    Ok(Value::set(rows?))
}
