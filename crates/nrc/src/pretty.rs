//! Pretty printer for NRC expressions, in the paper's notation:
//! `U{ e1 | \x <- e2 }` for extension, `{e}` for singletons, and explicit
//! markers for the physical operators so that `explain` output reads well.

use std::fmt;

use kleisli_core::CollKind;

use crate::expr::{Expr, LoopStrategy};

fn union_symbol(kind: CollKind) -> &'static str {
    match kind {
        CollKind::Set => "U",
        CollKind::Bag => "U+",
        CollKind::List => "U++",
    }
}

/// The most elements a constant collection shows; the rest are counted, so
/// a plan over a bound value stays readable in `explain` output.
const SHOWN_ELEMENTS: usize = 3;

/// Write `e` at the given indentation depth (used by `Display`).
pub fn write_expr(f: &mut fmt::Formatter<'_>, e: &Expr, depth: usize) -> fmt::Result {
    if depth > 64 {
        return write!(f, "...");
    }
    match e {
        Expr::Const(v) => match (v.coll_kind(), v.elements()) {
            (Some(kind), Some(elems)) if elems.len() > SHOWN_ELEMENTS => {
                let (open, close) = kind.brackets();
                write!(f, "{open}")?;
                for e in &elems[..SHOWN_ELEMENTS] {
                    write!(f, "{e}, ")?;
                }
                write!(f, "... {} more{close}", elems.len() - SHOWN_ELEMENTS)
            }
            _ => write!(f, "{v}"),
        },
        Expr::Var(n) => write!(f, "{n}"),
        Expr::Let { var, def, body } => {
            write!(f, "let {var} = ")?;
            write_expr(f, def, depth + 1)?;
            write!(f, " in ")?;
            write_expr(f, body, depth + 1)
        }
        Expr::Lambda { var, body } => {
            write!(f, "(\\{var} => ")?;
            write_expr(f, body, depth + 1)?;
            write!(f, ")")
        }
        Expr::Apply(a, b) => {
            write_expr(f, a, depth + 1)?;
            write!(f, "(")?;
            write_expr(f, b, depth + 1)?;
            write!(f, ")")
        }
        Expr::Record(fields) => {
            write!(f, "[")?;
            for (i, (n, fe)) in fields.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{n} = ")?;
                write_expr(f, fe, depth + 1)?;
            }
            write!(f, "]")
        }
        Expr::Proj(inner, field) => {
            write_expr(f, inner, depth + 1)?;
            write!(f, ".{field}")
        }
        Expr::Inject(tag, inner) => {
            write!(f, "<{tag} = ")?;
            write_expr(f, inner, depth + 1)?;
            write!(f, ">")
        }
        Expr::Case {
            scrutinee,
            arms,
            default,
        } => {
            write!(f, "case ")?;
            write_expr(f, scrutinee, depth + 1)?;
            write!(f, " of ")?;
            for (i, arm) in arms.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "<{} = \\{}> => ", arm.tag, arm.var)?;
                write_expr(f, &arm.body, depth + 1)?;
            }
            if let Some(d) = default {
                write!(f, " | _ => ")?;
                write_expr(f, d, depth + 1)?;
            }
            write!(f, " end")
        }
        Expr::Empty(kind) => {
            let (open, close) = kind.brackets();
            write!(f, "{open}{close}")
        }
        Expr::Single(kind, inner) => {
            let (open, close) = kind.brackets();
            write!(f, "{open}")?;
            write_expr(f, inner, depth + 1)?;
            write!(f, "{close}")
        }
        Expr::Union(kind, a, b) => {
            write!(f, "(")?;
            write_expr(f, a, depth + 1)?;
            write!(f, " {} ", union_symbol(*kind))?;
            write_expr(f, b, depth + 1)?;
            write!(f, ")")
        }
        Expr::Ext {
            kind,
            var,
            body,
            source,
            strategy,
        } => {
            match strategy {
                LoopStrategy::Sequential => {}
                LoopStrategy::Batched(b) => write!(f, "BATCH[{}≤{}]", b.driver, b.max_keys)?,
                LoopStrategy::Parallel(width) => write!(f, "PAR[{width}]")?,
            }
            write!(f, "{}{{ ", union_symbol(*kind))?;
            write_expr(f, body, depth + 1)?;
            write!(f, " | \\{var} <- ")?;
            write_expr(f, source, depth + 1)?;
            write!(f, " }}")
        }
        Expr::If(c, t, e2) => {
            write!(f, "if ")?;
            write_expr(f, c, depth + 1)?;
            write!(f, " then ")?;
            write_expr(f, t, depth + 1)?;
            write!(f, " else ")?;
            write_expr(f, e2, depth + 1)
        }
        Expr::Prim(p, args) => {
            if p.arity() == 2 && !p.cpl_name().chars().next().unwrap().is_alphabetic() {
                write!(f, "(")?;
                write_expr(f, &args[0], depth + 1)?;
                write!(f, " {p} ")?;
                write_expr(f, &args[1], depth + 1)?;
                write!(f, ")")
            } else {
                write!(f, "{p}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write_expr(f, a, depth + 1)?;
                }
                write!(f, ")")
            }
        }
        Expr::RemoteApp { driver, arg } => {
            write!(f, "REMOTE-APP[{driver}](")?;
            write_expr(f, arg, depth + 1)?;
            write!(f, ")")
        }
        Expr::Remote { driver, request } => {
            write!(f, "REMOTE[{driver}: {}]", request.describe())
        }
        Expr::Join {
            keys,
            left,
            right,
            lvar,
            rvar,
            cond,
            body,
            ..
        } => {
            let tag = match keys {
                None => "BLOCKED-NL-JOIN",
                Some(_) => "INDEXED-NL-JOIN",
            };
            write!(f, "{tag}(\\{lvar} <- ")?;
            write_expr(f, left, depth + 1)?;
            write!(f, ", \\{rvar} <- ")?;
            write_expr(f, right, depth + 1)?;
            write!(f, " on ")?;
            write_expr(f, cond, depth + 1)?;
            write!(f, " yield ")?;
            write_expr(f, body, depth + 1)?;
            write!(f, ")")
        }
        Expr::Cached { id, expr } => {
            write!(f, "CACHED[{id}](")?;
            write_expr(f, expr, depth + 1)?;
            write!(f, ")")
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::expr::Expr;
    use crate::prim::Prim;
    use kleisli_core::CollKind;

    #[test]
    fn ext_prints_paper_notation() {
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::single(CollKind::Set, Expr::proj(Expr::var("x"), "title")),
            Expr::var("DB"),
        );
        assert_eq!(e.to_string(), "U{ {x.title} | \\x <- DB }");
    }

    #[test]
    fn a_large_constant_collection_prints_its_first_elements_and_a_count() {
        let ints = |n: i64| Expr::Const(kleisli_core::Value::set((0..n).map(Into::into).collect()));
        assert_eq!(ints(3).to_string(), "{0, 1, 2}");
        assert_eq!(ints(10).to_string(), "{0, 1, 2, ... 7 more}");
    }

    #[test]
    fn infix_prims_print_infix() {
        let e = Expr::eq(Expr::int(1), Expr::int(2));
        assert_eq!(e.to_string(), "(1 = 2)");
        let e = Expr::prim(Prim::Count, vec![Expr::var("xs")]);
        assert_eq!(e.to_string(), "count(xs)");
    }

    #[test]
    fn bag_and_list_markers_differ() {
        let b = Expr::ext(CollKind::Bag, "x", Expr::var("x"), Expr::var("B"));
        assert!(b.to_string().starts_with("U+{"));
        let l = Expr::ext(CollKind::List, "x", Expr::var("x"), Expr::var("L"));
        assert!(l.to_string().starts_with("U++{"));
    }
}
