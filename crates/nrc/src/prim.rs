//! Primitive operations of NRC/CPL.
//!
//! Comprehensions alone cannot express aggregates or ordering — the paper
//! notes these come from the more general *structural recursion* paradigm
//! [Breazu-Tannen, Buneman, Naqvi 91]. Kleisli surfaces them as primitives;
//! the aggregate group here (`Sum`, `Count`, ...) are exactly the
//! structural-recursion folds the paper mentions.

use std::fmt;

/// A primitive operation, with fixed arity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prim {
    // arithmetic (int and float, dynamically dispatched)
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Neg,
    // comparison (total order over all values)
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    // boolean
    And,
    Or,
    Not,
    // strings
    StrCat,
    StrLen,
    StrUpper,
    StrLower,
    StrContains,
    StrStartsWith,
    Substr,
    ToString,
    // collections
    IsEmpty,
    Member,
    Flatten,
    Distinct,
    SetOf,
    BagOf,
    ListOf,
    Append,
    Nth,
    Range,
    // aggregates (structural recursion folds)
    Count,
    Sum,
    Max,
    Min,
    Avg,
    // object identity
    Deref,
    // record introspection (pattern-match support; not surface syntax)
    HasField,
    RecordWidth,
    /// Abort evaluation with a message (compiled from inexhaustive
    /// pattern alternatives).
    Fail,
}

impl Prim {
    /// Number of arguments the primitive takes.
    pub fn arity(self) -> usize {
        use Prim::*;
        match self {
            Neg | Not | StrLen | StrUpper | StrLower | ToString | IsEmpty | Flatten | Distinct
            | SetOf | BagOf | ListOf | Count | Sum | Max | Min | Avg | Deref | RecordWidth
            | Fail => 1,
            Add | Sub | Mul | Div | Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or | StrCat
            | StrContains | StrStartsWith | Member | Append | Nth | Range | HasField => 2,
            Substr => 3,
        }
    }

    /// The CPL surface name (used by the parser and pretty printer).
    pub fn cpl_name(self) -> &'static str {
        use Prim::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Mod => "mod",
            Neg => "neg",
            Eq => "=",
            Ne => "<>",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            And => "and",
            Or => "or",
            Not => "not",
            StrCat => "^",
            StrLen => "strlen",
            StrUpper => "strupper",
            StrLower => "strlower",
            StrContains => "strcontains",
            StrStartsWith => "strstartswith",
            Substr => "substr",
            ToString => "tostring",
            IsEmpty => "isempty",
            Member => "member",
            Flatten => "flatten",
            Distinct => "distinct",
            SetOf => "setof",
            BagOf => "bagof",
            ListOf => "listof",
            Append => "append",
            Nth => "nth",
            Range => "range",
            Count => "count",
            Sum => "sum",
            Max => "max",
            Min => "min",
            Avg => "avg",
            Deref => "deref",
            HasField => "hasfield",
            RecordWidth => "recordwidth",
            Fail => "fail",
        }
    }

    /// Named (identifier-like) primitives callable as functions in CPL,
    /// i.e. everything that is not an infix operator.
    pub fn by_name(name: &str) -> Option<Prim> {
        use Prim::*;
        Some(match name {
            "strlen" => StrLen,
            "strupper" => StrUpper,
            "strlower" => StrLower,
            "strcontains" => StrContains,
            "strstartswith" => StrStartsWith,
            "substr" => Substr,
            "tostring" => ToString,
            "isempty" => IsEmpty,
            "member" => Member,
            "flatten" => Flatten,
            "distinct" => Distinct,
            "setof" => SetOf,
            "bagof" => BagOf,
            "listof" => ListOf,
            "append" => Append,
            "nth" => Nth,
            "range" => Range,
            "count" => Count,
            "sum" => Sum,
            "max" => Max,
            "min" => Min,
            "avg" => Avg,
            "deref" => Deref,
            "not" => Not,
            "neg" => Neg,
            _ => return None,
        })
    }

    /// Is this primitive free of effects and cheap? (All are, but `Deref`
    /// consults the object store, which pushdown must not assume.)
    pub fn is_pure_local(self) -> bool {
        !matches!(self, Prim::Deref | Prim::Fail)
    }
}

impl fmt::Display for Prim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.cpl_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_is_consistent_with_name_lookup() {
        for p in [
            Prim::Count,
            Prim::Sum,
            Prim::Member,
            Prim::Substr,
            Prim::Range,
        ] {
            if let Some(q) = Prim::by_name(p.cpl_name()) {
                assert_eq!(p, q);
                assert_eq!(p.arity(), q.arity());
            }
        }
        assert_eq!(Prim::Substr.arity(), 3);
        assert_eq!(Prim::Not.arity(), 1);
        assert!(Prim::by_name("no-such-prim").is_none());
    }
}
