//! Desugaring CPL into NRC.
//!
//! Comprehensions are translated with the three identities due to Wadler
//! that the paper quotes in Section 4:
//!
//! ```text
//! {e |}            =  {e}
//! {e | \x <- e', D} =  U{ {e | D} | \x <- e' }
//! {e | c, D}       =  if c then {e | D} else {}
//! ```
//!
//! Patterns (record patterns with `...`, variant patterns, literal fields,
//! bound-variable equality) compile into projections, `HasField` tests,
//! `Case` dispatch, and equality filters whose *failure* continuation is
//! the empty collection (in generators) or the next alternative (in
//! pattern-matching functions).

use std::collections::HashMap;
use std::sync::Arc;

use kleisli_core::{CollKind, KError, KResult, Value};
use nrc::{fresh, CaseArm, Expr, LoopStrategy, Name, Prim};

use crate::ast::{CExpr, Pattern, Qual, Stmt};

/// Named definitions (`define f == e`). Bodies are stored in NRC form with
/// earlier definitions already inlined, so inlining a name is a clone.
#[derive(Debug, Clone, Default)]
pub struct Definitions {
    map: HashMap<Name, Expr>,
}

impl Definitions {
    pub fn new() -> Definitions {
        Definitions::default()
    }

    /// Bind a name to an already-desugared NRC expression.
    pub fn insert(&mut self, name: Name, expr: Expr) {
        self.map.insert(name, expr);
    }

    /// Bind a name directly to a constant value (used by the session to
    /// expose data sets and by tests).
    pub fn insert_value(&mut self, name: impl AsRef<str>, v: Value) {
        self.map.insert(Arc::from(name.as_ref()), Expr::Const(v));
    }

    pub fn get(&self, name: &str) -> Option<&Expr> {
        self.map.get(name)
    }

    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.map.keys()
    }
}

/// Desugar a parsed statement. `Define` statements extend `defs` and return
/// `None`; queries return the NRC expression to optimize and evaluate.
pub fn desugar_stmt(stmt: &Stmt, defs: &mut Definitions) -> KResult<Option<Expr>> {
    match stmt {
        Stmt::Define(name, body) => {
            let e = desugar(body, defs)?;
            defs.insert(Arc::clone(name), e);
            Ok(None)
        }
        Stmt::Query(q) => desugar(q, defs).map(Some),
    }
}

/// Desugar a CPL expression (with no free variables except definitions).
pub fn desugar(e: &CExpr, defs: &Definitions) -> KResult<Expr> {
    let mut scope = Vec::new();
    desugar_in(e, defs, &mut scope)
}

fn desugar_in(e: &CExpr, defs: &Definitions, scope: &mut Vec<Name>) -> KResult<Expr> {
    match e {
        CExpr::Lit(v) => Ok(Expr::Const(v.clone())),
        CExpr::Var(n) => resolve_var(n, defs, scope),
        CExpr::Record(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (n, fe) in fields {
                out.push((Arc::clone(n), Arc::new(desugar_in(fe, defs, scope)?)));
            }
            Ok(Expr::Record(out))
        }
        CExpr::Variant(tag, inner) => Ok(Expr::Inject(
            Arc::clone(tag),
            Arc::new(desugar_in(inner, defs, scope)?),
        )),
        CExpr::Coll(kind, elems) => {
            let mut acc = Expr::Empty(*kind);
            for el in elems.iter().rev() {
                let single = Expr::single(*kind, desugar_in(el, defs, scope)?);
                acc = match acc {
                    Expr::Empty(_) => single,
                    other => Expr::union(*kind, single, other),
                };
            }
            Ok(acc)
        }
        CExpr::Comp { kind, head, quals } => desugar_comp(*kind, head, quals, defs, scope),
        CExpr::Proj(inner, field) => Ok(Expr::Proj(
            Arc::new(desugar_in(inner, defs, scope)?),
            Arc::clone(field),
        )),
        CExpr::App(f, args) => desugar_app(f, args, defs, scope),
        CExpr::If(c, t, el) => Ok(Expr::if_(
            desugar_in(c, defs, scope)?,
            desugar_in(t, defs, scope)?,
            desugar_in(el, defs, scope)?,
        )),
        CExpr::BinOp(p, a, b) => Ok(Expr::prim(
            *p,
            vec![desugar_in(a, defs, scope)?, desugar_in(b, defs, scope)?],
        )),
        CExpr::UnOp(p, a) => Ok(Expr::prim(*p, vec![desugar_in(a, defs, scope)?])),
        CExpr::Lambda(alts) => {
            let arg = fresh("arg");
            let mut acc = Expr::prim(
                Prim::Fail,
                vec![Expr::str("no pattern alternative matched the argument")],
            );
            for (pat, body) in alts.iter().rev() {
                let scrut = Expr::Var(Arc::clone(&arg));
                if pat.failure_points() < 2 {
                    acc = compile_match(pat, &scrut, body, acc, defs, scope)?;
                    continue;
                }
                // The rest of the alternatives, bound once and applied at
                // each point this pattern can fail: copying it into every
                // point doubles the function with each alternative.
                let k = fresh("alt");
                let fail = Expr::apply(Expr::Var(Arc::clone(&k)), Expr::Const(Value::Unit));
                let matched = compile_match(pat, &scrut, body, fail, defs, scope)?;
                let rest = Expr::Lambda {
                    var: fresh("unit"),
                    body: Arc::new(acc),
                };
                acc = Expr::Let {
                    var: k,
                    def: Arc::new(rest),
                    body: Arc::new(matched),
                };
            }
            Ok(Expr::Lambda {
                var: arg,
                body: Arc::new(acc),
            })
        }
        CExpr::LetIn { pat, def, body } => {
            let def_e = desugar_in(def, defs, scope)?;
            match pat {
                Pattern::Bind(x) => {
                    scope.push(Arc::clone(x));
                    let body_e = desugar_in(body, defs, scope);
                    scope.pop();
                    Ok(Expr::Let {
                        var: Arc::clone(x),
                        def: Arc::new(def_e),
                        body: Arc::new(body_e?),
                    })
                }
                _ => {
                    let tmp = fresh("let");
                    let fail = Expr::prim(Prim::Fail, vec![Expr::str("let pattern did not match")]);
                    let matched =
                        compile_match(pat, &Expr::Var(Arc::clone(&tmp)), body, fail, defs, scope)?;
                    Ok(Expr::Let {
                        var: tmp,
                        def: Arc::new(def_e),
                        body: Arc::new(matched),
                    })
                }
            }
        }
    }
}

fn resolve_var(n: &Name, defs: &Definitions, scope: &[Name]) -> KResult<Expr> {
    // Clone the *binder's* allocation (innermost match), not the use
    // site's: the parser allots a fresh `Arc<str>` per occurrence, and
    // sharing the binder's is what makes `Env::lookup`'s `Arc::ptr_eq`
    // fast path hit at run time.
    if let Some(binder) = scope.iter().rev().find(|s| *s == n) {
        return Ok(Expr::Var(Arc::clone(binder)));
    }
    if let Some(def) = defs.get(n) {
        return Ok(def.clone());
    }
    // A primitive used as a first-class function: eta-expand.
    if let Some(p) = Prim::by_name(n) {
        let vars: Vec<Name> = (0..p.arity()).map(|_| fresh("eta")).collect();
        let call = Expr::Prim(
            p,
            vars.iter()
                .map(|v| Arc::new(Expr::Var(Arc::clone(v))))
                .collect(),
        );
        return Ok(vars.into_iter().rev().fold(call, |body, var| Expr::Lambda {
            var,
            body: Arc::new(body),
        }));
    }
    Err(KError::Unbound(n.to_string()))
}

fn desugar_comp(
    kind: CollKind,
    head: &CExpr,
    quals: &[Qual],
    defs: &Definitions,
    scope: &mut Vec<Name>,
) -> KResult<Expr> {
    match quals.split_first() {
        None => Ok(Expr::single(kind, desugar_in(head, defs, scope)?)),
        Some((Qual::Filter(c), rest)) => {
            let cond = desugar_in(c, defs, scope)?;
            let inner = desugar_comp(kind, head, rest, defs, scope)?;
            Ok(Expr::if_(cond, inner, Expr::Empty(kind)))
        }
        Some((Qual::Gen(pat, src), rest)) => {
            let src_e = desugar_in(src, defs, scope)?;
            let var = fresh("g");
            // Bind the pattern's variables while desugaring the rest.
            let bound = pat.bound_vars();
            let depth = scope.len();
            scope.extend(bound.iter().cloned());
            let inner = desugar_comp(kind, head, rest, defs, scope);
            scope.truncate(depth);
            let inner = inner?;
            let body = compile_pattern(
                pat,
                &Expr::Var(Arc::clone(&var)),
                inner,
                Expr::Empty(kind),
                defs,
                scope,
            )?;
            Ok(Expr::Ext {
                kind,
                var,
                body: Arc::new(body),
                source: Arc::new(src_e),
                strategy: LoopStrategy::Sequential,
            })
        }
    }
}

fn desugar_app(
    f: &CExpr,
    args: &[CExpr],
    defs: &Definitions,
    scope: &mut Vec<Name>,
) -> KResult<Expr> {
    if let CExpr::Var(n) = f {
        let shadowed = scope.iter().any(|s| s == n) || defs.get(n).is_some();
        if !shadowed {
            // driver session openers
            if let Some(kind) = driver_opener(n) {
                return desugar_open(kind, n, args);
            }
            if let Some(p) = Prim::by_name(n) {
                if args.len() != p.arity() {
                    return Err(KError::ty(format!(
                        "primitive '{n}' expects {} argument(s), got {}",
                        p.arity(),
                        args.len()
                    )));
                }
                let mut out = Vec::with_capacity(args.len());
                for a in args {
                    out.push(desugar_in(a, defs, scope)?);
                }
                return Ok(Expr::prim(p, out));
            }
        }
    }
    let mut e = desugar_in(f, defs, scope)?;
    if args.is_empty() {
        return Ok(Expr::apply(e, Expr::Const(Value::Unit)));
    }
    for a in args {
        e = Expr::apply(e, desugar_in(a, defs, scope)?);
    }
    Ok(e)
}

fn driver_opener(n: &str) -> Option<&'static str> {
    match n {
        "Open-Sybase" => Some("sybase"),
        "Open-ASN" => Some("asn"),
        "Open-ACE" => Some("ace"),
        _ => None,
    }
}

/// `Open-Sybase([server = "GDB", ...])` evaluates to the driver function
/// for the registered source named by `server`: `\req => REMOTE-APP(req)`.
/// The server name must be a literal so queries stay statically analyzable.
fn desugar_open(_kind: &'static str, opener: &Name, args: &[CExpr]) -> KResult<Expr> {
    let [CExpr::Record(fields)] = args else {
        return Err(KError::ty(format!(
            "{opener} expects a single record argument"
        )));
    };
    let server = fields.iter().find_map(|(n, v)| {
        if &**n == "server" {
            if let CExpr::Lit(Value::Str(s)) = v {
                return Some(Arc::clone(s));
            }
        }
        None
    });
    let Some(server) = server else {
        return Err(KError::ty(format!(
            "{opener} requires a literal server field, e.g. {opener}([server = \"GDB\"])"
        )));
    };
    let req = fresh("req");
    Ok(Expr::Lambda {
        var: Arc::clone(&req),
        body: Arc::new(Expr::RemoteApp {
            driver: server,
            arg: Arc::new(Expr::Var(req)),
        }),
    })
}

/// Compile `pat` matched against `scrut`, desugaring `body` in the extended
/// scope for the success continuation; `fail` is the failure continuation.
fn compile_match(
    pat: &Pattern,
    scrut: &Expr,
    body: &CExpr,
    fail: Expr,
    defs: &Definitions,
    scope: &mut Vec<Name>,
) -> KResult<Expr> {
    let bound = pat.bound_vars();
    let depth = scope.len();
    scope.extend(bound.iter().cloned());
    let success = desugar_in(body, defs, scope);
    scope.truncate(depth);
    compile_pattern(pat, scrut, success?, fail, defs, scope)
}

/// Compile a pattern match over an already-desugared success expression.
/// Variables bound by the pattern occur free in `success` and are captured
/// by the generated `Let`s and `Case` arms.
fn compile_pattern(
    pat: &Pattern,
    scrut: &Expr,
    success: Expr,
    fail: Expr,
    defs: &Definitions,
    scope: &mut Vec<Name>,
) -> KResult<Expr> {
    match pat {
        Pattern::Wild => Ok(success),
        Pattern::Bind(x) => Ok(Expr::Let {
            var: Arc::clone(x),
            def: Arc::new(scrut.clone()),
            body: Arc::new(success),
        }),
        Pattern::Lit(v) => Ok(Expr::if_(
            Expr::eq(scrut.clone(), Expr::Const(v.clone())),
            success,
            fail,
        )),
        Pattern::EqVar(x) => {
            let reference = resolve_var(x, defs, scope)?;
            Ok(Expr::if_(Expr::eq(scrut.clone(), reference), success, fail))
        }
        Pattern::Variant(tag, inner) => {
            let v = fresh("v");
            let arm_body = compile_pattern(
                inner,
                &Expr::Var(Arc::clone(&v)),
                success,
                fail.clone(),
                defs,
                scope,
            )?;
            Ok(Expr::Case {
                scrutinee: Arc::new(scrut.clone()),
                arms: vec![CaseArm {
                    tag: Arc::clone(tag),
                    var: v,
                    body: Arc::new(arm_body),
                }],
                default: Some(Arc::new(fail)),
            })
        }
        Pattern::Record(fields, open) => {
            // Bind the scrutinee once if it is not already a variable.
            let (scrut_var, wrap): (Expr, Option<Name>) = match scrut {
                Expr::Var(_) => (scrut.clone(), None),
                _ => {
                    let tmp = fresh("r");
                    (Expr::Var(Arc::clone(&tmp)), Some(tmp))
                }
            };
            // Innermost: success. Compile fields right-to-left so that
            // earlier fields' bindings scope over later fields' equality
            // patterns.
            let mut acc = success;
            for (fname, fpat) in fields.iter().rev() {
                let proj = Expr::Proj(Arc::new(scrut_var.clone()), Arc::clone(fname));
                // extend scope with variables bound by *earlier* fields
                let mut earlier: Vec<Name> = Vec::new();
                for (en, ep) in fields {
                    if en == fname && std::ptr::eq(ep, fpat) {
                        break;
                    }
                    ep.collect_bound_into(&mut earlier);
                }
                let depth = scope.len();
                scope.extend(earlier);
                let compiled = compile_pattern(fpat, &proj, acc, fail.clone(), defs, scope);
                scope.truncate(depth);
                acc = Expr::if_(
                    Expr::prim(Prim::HasField, vec![scrut_var.clone(), Expr::str(&**fname)]),
                    compiled?,
                    fail.clone(),
                );
            }
            if !*open {
                acc = Expr::if_(
                    Expr::eq(
                        Expr::prim(Prim::RecordWidth, vec![scrut_var.clone()]),
                        Expr::int(fields.len() as i64),
                    ),
                    acc,
                    fail,
                );
            }
            Ok(match wrap {
                Some(tmp) => Expr::Let {
                    var: tmp,
                    def: Arc::new(scrut.clone()),
                    body: Arc::new(acc),
                },
                None => acc,
            })
        }
    }
}

impl Pattern {
    fn collect_bound_into(&self, out: &mut Vec<Name>) {
        for n in self.bound_vars() {
            out.push(n);
        }
    }

    /// The points at which [`compile_pattern`] makes matching this
    /// pattern fail, each a copy of the failure continuation.
    fn failure_points(&self) -> usize {
        match self {
            Pattern::Wild | Pattern::Bind(_) => 0,
            Pattern::Lit(_) | Pattern::EqVar(_) => 1,
            Pattern::Variant(_, inner) => 1 + inner.failure_points(),
            Pattern::Record(fields, open) => {
                let fields: usize = fields.iter().map(|(_, p)| 1 + p.failure_points()).sum();
                fields + usize::from(!open)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    fn ds(src: &str) -> Expr {
        let e = parse_expr(src).unwrap();
        let mut defs = Definitions::new();
        defs.insert_value("DB", Value::set(vec![]));
        desugar(&e, &defs).unwrap()
    }

    #[test]
    fn empty_comprehension_is_singleton() {
        // {e |} has no quals — not parseable; test via single filter
        let e = ds("{1 | true}");
        // if true then {1} else {}
        match e {
            Expr::If(c, t, f) => {
                assert_eq!(*c, Expr::bool(true));
                assert_eq!(*t, Expr::single(CollKind::Set, Expr::int(1)));
                assert_eq!(*f, Expr::Empty(CollKind::Set));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn generator_becomes_ext() {
        let e = ds(r"{x | \x <- DB}");
        match e {
            Expr::Ext { kind, body, .. } => {
                assert_eq!(kind, CollKind::Set);
                // body = let x = g in {x}
                assert!(matches!(*body, Expr::Let { .. }));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn use_sites_share_the_binders_allocation() {
        // `Env::lookup`'s Arc::ptr_eq fast path relies on desugaring
        // cloning the binder's Name, not the parser's per-occurrence one.
        let e = ds(r"{x | \x <- DB}");
        let mut shared = false;
        e.visit(&mut |n| {
            if let Expr::Let { var, body, .. } = n {
                if let Expr::Single(_, inner) = &**body {
                    if let Expr::Var(v) = &**inner {
                        if Arc::ptr_eq(var, v) {
                            shared = true;
                        }
                    }
                }
            }
        });
        assert!(shared, "use site must share the binder's allocation: {e}");
    }

    #[test]
    fn unbound_variable_errors() {
        let e = parse_expr(r"{x | \y <- DB}").unwrap();
        let mut defs = Definitions::new();
        defs.insert_value("DB", Value::set(vec![]));
        assert!(matches!(desugar(&e, &defs), Err(KError::Unbound(_))));
    }

    #[test]
    fn membership_generator_with_unbound_var_errors() {
        // `x <- p.authors` is an equality pattern; with no enclosing binder
        // for x this must be reported as unbound.
        let e = parse_expr(r"{p | \p <- DB, x <- p.authors}").unwrap();
        let mut defs = Definitions::new();
        defs.insert_value("DB", Value::set(vec![]));
        assert!(matches!(desugar(&e, &defs), Err(KError::Unbound(_))));
    }

    #[test]
    fn bound_membership_compiles() {
        let e = ds(r"\x => {p | \p <- DB, x <- p.authors}");
        let mut found_eq = false;
        fn walk(e: &Expr, found: &mut bool) {
            e.visit(&mut |n| {
                if let Expr::Prim(Prim::Eq, _) = n {
                    *found = true;
                }
            });
        }
        walk(&e, &mut found_eq);
        assert!(found_eq, "membership should compile to equality: {e}");
    }

    #[test]
    fn defines_inline() {
        let stmts = parse_program(
            r"define Two == 2;
              define AddTwo == \x => x + Two;
              AddTwo(5);",
        )
        .unwrap();
        let mut defs = Definitions::new();
        let mut last = None;
        for s in &stmts {
            if let Some(e) = desugar_stmt(s, &mut defs).unwrap() {
                last = Some(e);
            }
        }
        let q = last.unwrap();
        // fully inlined: no free variables
        assert!(q.free_vars().is_empty(), "free vars in {q}");
    }

    #[test]
    fn open_sybase_produces_remote_app() {
        let stmts = parse_program(
            r#"define GDB == Open-Sybase([server = "GDB", user = "cbil", password = "bogus"]);
               GDB([query = "select * from locus"]);"#,
        )
        .unwrap();
        let mut defs = Definitions::new();
        let mut last = None;
        for s in &stmts {
            if let Some(e) = desugar_stmt(s, &mut defs).unwrap() {
                last = Some(e);
            }
        }
        let q = last.unwrap();
        let mut found = false;
        q.visit(&mut |n| {
            if let Expr::RemoteApp { driver, .. } = n {
                assert_eq!(&**driver, "GDB");
                found = true;
            }
        });
        assert!(found, "no RemoteApp in {q}");
    }

    #[test]
    fn open_sybase_requires_literal_server() {
        let e = parse_expr(r"Open-Sybase([server = x])").unwrap();
        let defs = Definitions::new();
        assert!(desugar(&e, &defs).is_err());
    }

    #[test]
    fn closed_record_pattern_checks_width() {
        let e = ds(r"{t | [title = \t] <- DB}");
        let mut saw_width = false;
        e.visit(&mut |n| {
            if let Expr::Prim(Prim::RecordWidth, _) = n {
                saw_width = true;
            }
        });
        assert!(saw_width, "closed record pattern must check width: {e}");
    }

    #[test]
    fn open_record_pattern_skips_width_check() {
        let e = ds(r"{t | [title = \t, ...] <- DB}");
        let mut saw_width = false;
        e.visit(&mut |n| {
            if let Expr::Prim(Prim::RecordWidth, _) = n {
                saw_width = true;
            }
        });
        assert!(!saw_width, "open record pattern must not check width: {e}");
    }

    #[test]
    fn variant_pattern_compiles_to_case_with_default() {
        let e = ds(r"{n | [journal = <uncontrolled = \n>, ...] <- DB}");
        let mut saw_case = false;
        e.visit(&mut |node| {
            if let Expr::Case { default, arms, .. } = node {
                saw_case = true;
                assert!(default.is_some());
                assert_eq!(&*arms[0].tag, "uncontrolled");
            }
        });
        assert!(saw_case, "no case in {e}");
    }

    #[test]
    fn lambda_alternatives_chain_through_fail() {
        let e = ds(r#"<a = \s> => s | <b = \s> => s"#);
        let mut fails = 0;
        e.visit(&mut |node| {
            if let Expr::Prim(Prim::Fail, _) = node {
                fails += 1;
            }
        });
        assert!(fails >= 1, "fallback Fail expected in {e}");
        assert!(matches!(e, Expr::Lambda { .. }));
    }

    #[test]
    fn alternatives_desugar_to_linear_size() {
        // Each pattern fails at two points (two `Case` defaults), so the
        // rest of the function is bound once, not copied into both.
        let alternatives: Vec<String> = (0..20)
            .map(|i| format!(r"<c = <t{i} = \s>> => s"))
            .collect();
        let e = ds(&format!("({})", alternatives.join(" | ")));
        assert!(e.size() <= 400, "{} nodes", e.size());
        // A pattern that cannot fail, or fails at one point, binds no
        // second function.
        for one in [r"\chrom => chrom", r"<a = \s> => s | <b = \s> => s"] {
            let mut lambdas = 0;
            ds(one).visit(&mut |node| lambdas += usize::from(matches!(node, Expr::Lambda { .. })));
            assert_eq!(lambdas, 1, "{one}");
        }
    }

    #[test]
    fn eta_expansion_of_primitives() {
        let e = ds("count");
        assert!(matches!(e, Expr::Lambda { .. }));
    }

    #[test]
    fn collection_literal_builds_unions() {
        let e = ds("{1, 2}");
        assert!(matches!(e, Expr::Union(CollKind::Set, ..)));
        let e = ds("{}");
        assert_eq!(e, Expr::Empty(CollKind::Set));
    }
}
