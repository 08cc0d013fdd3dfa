//! Recursive-descent parser for CPL.
//!
//! The grammar follows the paper's examples:
//!
//! ```text
//! program  := { stmt }
//! stmt     := 'define' IDENT '==' expr ';'  |  expr ';'
//! expr     := lambda | 'if' expr 'then' expr 'else' expr
//!           | 'let' pattern ('='|'==') expr 'in' expr | orexpr
//! lambda   := alt { '|' alt }          (tried with backtracking)
//! alt      := pattern '=>' expr
//! orexpr   := andexpr { 'or' andexpr }
//! andexpr  := notexpr { 'and' notexpr }
//! notexpr  := 'not' notexpr | cmp
//! cmp      := add [ ('='|'<>'|'<'|'<='|'>'|'>=') add ]
//! add      := mul { ('+'|'-'|'^') mul }
//! mul      := unary { ('*'|'/'|'mod') unary }
//! unary    := '-' unary | postfix
//! postfix  := atom { '.' IDENT | '(' [expr {',' expr}] ')' }
//! atom     := literal | IDENT | '(' expr ')' | record | variant
//!           | collection-or-comprehension
//! ```
//!
//! Variant payloads parse at `add` precedence so the closing `>` is not
//! taken as a comparison (`<controlled = <medline-jta = s>>` nests fine);
//! wrap comparisons in parentheses inside variants.
//!
//! # Nesting budget
//!
//! The parser recurses once per nested sub-expression, so nesting is
//! bounded: past [`MAX_NESTING`] levels of sub-expressions and patterns
//! (a parenthesis, a collection, a record field, a branch, an operand of
//! `not` or unary `-`, the right side of a comparison, a variant payload,
//! a nested pattern) the input is an ordinary parse error naming the
//! limit, never a stack overflow on a 2 MiB executor worker. A chain of
//! binary operators or postfix projections and applications is a loop
//! here, but it builds a left-deep tree that every later stage walks
//! recursively, so each operator the loop folds counts as one level too
//! (and an operand parsed after it is that much deeper). So does each
//! qualifier of a comprehension after the first: desugaring nests every
//! qualifier inside the one before it. So does each alternative of a
//! pattern-matching function after the first: desugaring nests every
//! alternative inside the failure of the one before it.

use std::sync::Arc;

use kleisli_core::{CollKind, KError, KResult, Value};
use nrc::Prim;

use crate::ast::{CExpr, Pattern, Qual, Stmt};
use crate::lexer::{lex, Tok, Token};

/// Parse a whole program (a sequence of statements).
pub fn parse_program(src: &str) -> KResult<Vec<Stmt>> {
    let mut p = Parser::new(src)?;
    let mut stmts = Vec::new();
    while !p.at(&Tok::Eof) {
        stmts.push(p.stmt()?);
        while p.eat(&Tok::Semi) {}
    }
    Ok(stmts)
}

/// Parse a single expression (the whole input must be one expression).
pub fn parse_expr(src: &str) -> KResult<CExpr> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect(&Tok::Eof)?;
    Ok(e)
}

/// The most sub-expressions and patterns one may nest inside another
/// (module docs).
pub const MAX_NESTING: usize = 64;

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Sub-expressions and patterns the parser is inside right now.
    depth: usize,
}

impl Parser {
    fn new(src: &str) -> KResult<Parser> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            depth: 0,
        })
    }

    /// Parse one level further in (`parse`), within the nesting budget.
    /// The outermost expression is level zero.
    fn nested<T>(&mut self, parse: fn(&mut Parser) -> KResult<T>) -> KResult<T> {
        self.deeper()?;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// Go one level further in, within the nesting budget.
    fn deeper(&mut self) -> KResult<()> {
        if self.depth > MAX_NESTING {
            return Err(self.err(format!(
                "nested deeper than {MAX_NESTING} levels of sub-expressions"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    /// Parse a left-deep chain (`parse`), which calls [`Parser::deeper`]
    /// once per operator it folds; the chain's levels end with it.
    fn chain<T>(&mut self, parse: impl FnOnce(&mut Parser) -> KResult<T>) -> KResult<T> {
        let depth = self.depth;
        let parsed = parse(self);
        self.depth = depth;
        parsed
    }

    /// `operand (op operand)*`, folded to the left, one level per `op`.
    fn binary_chain(
        &mut self,
        operand: fn(&mut Parser) -> KResult<CExpr>,
        op: fn(&Tok) -> Option<Prim>,
    ) -> KResult<CExpr> {
        self.chain(|p| {
            let mut lhs = operand(p)?;
            while let Some(op) = op(p.peek()) {
                p.bump();
                p.deeper()?;
                let rhs = operand(p)?;
                lhs = CExpr::BinOp(op, Box::new(lhs), Box::new(rhs));
            }
            Ok(lhs)
        })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].kind
    }

    fn here(&self) -> (u32, u32) {
        let t = &self.toks[self.pos];
        (t.line, t.col)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.at(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> KResult<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                t.describe(),
                self.peek().describe()
            )))
        }
    }

    fn err(&self, msg: impl Into<String>) -> KError {
        let (line, col) = self.here();
        KError::parse(msg, line, col)
    }

    fn ident(&mut self) -> KResult<Arc<str>> {
        match self.bump() {
            Tok::Ident(s) => Ok(Arc::from(s.as_str())),
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    // ---------- statements ----------

    fn stmt(&mut self) -> KResult<Stmt> {
        if self.eat(&Tok::Define) {
            let name = self.ident()?;
            self.expect(&Tok::EqEq)?;
            let body = self.expr()?;
            if !self.at(&Tok::Eof) {
                self.expect(&Tok::Semi)?;
            }
            Ok(Stmt::Define(name, body))
        } else {
            let e = self.expr()?;
            if !self.at(&Tok::Eof) {
                self.expect(&Tok::Semi)?;
            }
            Ok(Stmt::Query(e))
        }
    }

    // ---------- expressions ----------

    fn expr(&mut self) -> KResult<CExpr> {
        self.nested(Parser::expr_at_depth)
    }

    fn expr_at_depth(&mut self) -> KResult<CExpr> {
        // lambda alternatives, tried with backtracking
        if let Some(l) = self.try_lambda()? {
            return Ok(l);
        }
        if self.eat(&Tok::If) {
            let c = self.expr()?;
            self.expect(&Tok::Then)?;
            let t = self.expr()?;
            self.expect(&Tok::Else)?;
            let e = self.expr()?;
            return Ok(CExpr::If(Box::new(c), Box::new(t), Box::new(e)));
        }
        if self.eat(&Tok::Let) {
            let pat = self.pattern()?;
            if !self.eat(&Tok::EqEq) {
                self.expect(&Tok::Eq)?;
            }
            let def = self.expr()?;
            self.expect(&Tok::In)?;
            let body = self.expr()?;
            return Ok(CExpr::LetIn {
                pat,
                def: Box::new(def),
                body: Box::new(body),
            });
        }
        self.or_expr()
    }

    /// Try to parse `pattern => body { | pattern => body }`, each
    /// alternative's body one level inside the one before it, as it is
    /// once desugared. Every pattern is parsed at the function's own
    /// level, where the first one parsed, so a long function never reads
    /// as one that ends early.
    fn try_lambda(&mut self) -> KResult<Option<CExpr>> {
        let start = self.pos;
        let Ok(pat) = self.pattern() else {
            self.pos = start;
            return Ok(None);
        };
        if !self.eat(&Tok::DArrow) {
            self.pos = start;
            return Ok(None);
        }
        let body = self.expr()?;
        let level = self.depth;
        let mut alts = vec![(pat, body)];
        loop {
            let alt_start = self.pos;
            if !self.eat(&Tok::Pipe) {
                break;
            }
            let depth = std::mem::replace(&mut self.depth, level);
            let pat = self.pattern();
            self.depth = depth;
            let Ok(pat) = pat else {
                self.pos = alt_start;
                break;
            };
            if !self.eat(&Tok::DArrow) {
                self.pos = alt_start;
                break;
            }
            self.deeper()?;
            let body = self.expr()?;
            alts.push((pat, body));
        }
        self.depth = level;
        Ok(Some(CExpr::Lambda(alts)))
    }

    fn or_expr(&mut self) -> KResult<CExpr> {
        self.binary_chain(Parser::and_expr, |t| {
            matches!(t, Tok::Or).then_some(Prim::Or)
        })
    }

    fn and_expr(&mut self) -> KResult<CExpr> {
        self.binary_chain(Parser::not_expr, |t| {
            matches!(t, Tok::And).then_some(Prim::And)
        })
    }

    fn not_expr(&mut self) -> KResult<CExpr> {
        if self.eat(&Tok::Not) {
            let inner = self.nested(Parser::not_expr)?;
            return Ok(CExpr::UnOp(Prim::Not, Box::new(inner)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> KResult<CExpr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Eq => Some(Prim::Eq),
            Tok::Ne => Some(Prim::Ne),
            Tok::Lt => Some(Prim::Lt),
            Tok::Le => Some(Prim::Le),
            Tok::Gt => Some(Prim::Gt),
            Tok::Ge => Some(Prim::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.nested(Parser::add_expr)?;
            Ok(CExpr::BinOp(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> KResult<CExpr> {
        self.binary_chain(Parser::mul_expr, |t| match t {
            Tok::Plus => Some(Prim::Add),
            Tok::Minus => Some(Prim::Sub),
            Tok::Caret => Some(Prim::StrCat),
            _ => None,
        })
    }

    fn mul_expr(&mut self) -> KResult<CExpr> {
        self.binary_chain(Parser::unary_expr, |t| match t {
            Tok::Star => Some(Prim::Mul),
            Tok::Slash => Some(Prim::Div),
            Tok::Mod => Some(Prim::Mod),
            _ => None,
        })
    }

    fn unary_expr(&mut self) -> KResult<CExpr> {
        if self.eat(&Tok::Minus) {
            let inner = self.nested(Parser::unary_expr)?;
            return Ok(match inner {
                CExpr::Lit(Value::Int(i)) => CExpr::Lit(Value::Int(-i)),
                CExpr::Lit(Value::Float(x)) => CExpr::Lit(Value::Float(-x)),
                other => CExpr::UnOp(Prim::Neg, Box::new(other)),
            });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> KResult<CExpr> {
        self.chain(|p| {
            let mut e = p.atom()?;
            loop {
                if p.eat(&Tok::Dot) {
                    p.deeper()?;
                    let field = p.ident()?;
                    e = CExpr::Proj(Box::new(e), field);
                } else if p.at(&Tok::LParen) {
                    p.bump();
                    p.deeper()?;
                    let mut args = Vec::new();
                    if !p.at(&Tok::RParen) {
                        loop {
                            args.push(p.expr()?);
                            if !p.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    p.expect(&Tok::RParen)?;
                    e = CExpr::App(Box::new(e), args);
                } else {
                    break;
                }
            }
            Ok(e)
        })
    }

    fn atom(&mut self) -> KResult<CExpr> {
        match self.peek().clone() {
            Tok::Int(i) => {
                self.bump();
                Ok(CExpr::Lit(Value::Int(i)))
            }
            Tok::Float(x) => {
                self.bump();
                Ok(CExpr::Lit(Value::Float(x)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(CExpr::Lit(Value::str(s)))
            }
            Tok::True => {
                self.bump();
                Ok(CExpr::Lit(Value::Bool(true)))
            }
            Tok::False => {
                self.bump();
                Ok(CExpr::Lit(Value::Bool(false)))
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(CExpr::Var(Arc::from(s.as_str())))
            }
            Tok::LParen => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    return Ok(CExpr::Lit(Value::Unit));
                }
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::LBrack => self.record_expr(),
            Tok::Lt => self.variant_expr(),
            Tok::LBrace => self.collection(CollKind::Set, Tok::RBrace),
            Tok::LBraceBar => self.collection(CollKind::Bag, Tok::RBraceBar),
            Tok::LBrackBar => self.collection(CollKind::List, Tok::RBrackBar),
            Tok::If => {
                // allow if-expressions in operand position
                self.bump();
                let c = self.expr()?;
                self.expect(&Tok::Then)?;
                let t = self.expr()?;
                self.expect(&Tok::Else)?;
                let e = self.expr()?;
                Ok(CExpr::If(Box::new(c), Box::new(t), Box::new(e)))
            }
            other => Err(self.err(format!("unexpected {}", other.describe()))),
        }
    }

    /// `[l1 = e1, ...]` — records always use plain square brackets.
    fn record_expr(&mut self) -> KResult<CExpr> {
        self.expect(&Tok::LBrack)?;
        let mut fields = Vec::new();
        if !self.at(&Tok::RBrack) {
            loop {
                let name = self.ident()?;
                self.expect(&Tok::Eq)?;
                let value = self.expr()?;
                fields.push((name, value));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RBrack)?;
        Ok(CExpr::Record(fields))
    }

    /// `<tag = e>` with the payload at `add` precedence (so `>` closes).
    fn variant_expr(&mut self) -> KResult<CExpr> {
        self.expect(&Tok::Lt)?;
        let tag = self.ident()?;
        self.expect(&Tok::Eq)?;
        let payload = self.nested(Parser::add_expr)?;
        self.expect(&Tok::Gt)?;
        Ok(CExpr::Variant(tag, Box::new(payload)))
    }

    /// A collection literal or comprehension of the given kind.
    fn collection(&mut self, kind: CollKind, close: Tok) -> KResult<CExpr> {
        self.bump(); // opening bracket
        if self.eat(&close) {
            return Ok(CExpr::Coll(kind, Vec::new()));
        }
        let head = self.expr()?;
        if self.eat(&Tok::Pipe) {
            let quals = self.qualifiers()?;
            self.expect(&close)?;
            return Ok(CExpr::Comp {
                kind,
                head: Box::new(head),
                quals,
            });
        }
        let mut elems = vec![head];
        while self.eat(&Tok::Comma) {
            elems.push(self.expr()?);
        }
        self.expect(&close)?;
        Ok(CExpr::Coll(kind, elems))
    }

    /// `qualifier (',' qualifier)*`, each qualifier one level inside the
    /// one before it, as it is once desugared.
    fn qualifiers(&mut self) -> KResult<Vec<Qual>> {
        self.chain(|p| {
            let mut quals = vec![p.qualifier()?];
            while p.eat(&Tok::Comma) {
                p.deeper()?;
                quals.push(p.qualifier()?);
            }
            Ok(quals)
        })
    }

    /// `pattern <- expr` (generator) or a boolean filter expression.
    fn qualifier(&mut self) -> KResult<Qual> {
        let start = self.pos;
        if let Ok(pat) = self.pattern() {
            if self.eat(&Tok::LArrow) {
                let src = self.expr()?;
                return Ok(Qual::Gen(pat, src));
            }
        }
        self.pos = start;
        let e = self.expr()?;
        Ok(Qual::Filter(e))
    }

    // ---------- patterns ----------

    fn pattern(&mut self) -> KResult<Pattern> {
        self.nested(Parser::pattern_at_depth)
    }

    fn pattern_at_depth(&mut self) -> KResult<Pattern> {
        match self.peek().clone() {
            Tok::Backslash => {
                self.bump();
                let n = self.ident()?;
                Ok(Pattern::Bind(n))
            }
            Tok::Underscore => {
                self.bump();
                Ok(Pattern::Wild)
            }
            Tok::Int(i) => {
                self.bump();
                Ok(Pattern::Lit(Value::Int(i)))
            }
            Tok::Float(x) => {
                self.bump();
                Ok(Pattern::Lit(Value::Float(x)))
            }
            Tok::Minus => {
                self.bump();
                match self.bump() {
                    Tok::Int(i) => Ok(Pattern::Lit(Value::Int(-i))),
                    Tok::Float(x) => Ok(Pattern::Lit(Value::Float(-x))),
                    other => Err(self.err(format!(
                        "expected numeric literal after '-', found {}",
                        other.describe()
                    ))),
                }
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Pattern::Lit(Value::str(s)))
            }
            Tok::True => {
                self.bump();
                Ok(Pattern::Lit(Value::Bool(true)))
            }
            Tok::False => {
                self.bump();
                Ok(Pattern::Lit(Value::Bool(false)))
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(Pattern::EqVar(Arc::from(s.as_str())))
            }
            Tok::LParen => {
                self.bump();
                let p = self.pattern()?;
                self.expect(&Tok::RParen)?;
                Ok(p)
            }
            Tok::LBrack => self.record_pattern(),
            Tok::Lt => {
                self.bump();
                let tag = self.ident()?;
                self.expect(&Tok::Eq)?;
                let inner = self.pattern()?;
                self.expect(&Tok::Gt)?;
                Ok(Pattern::Variant(tag, Box::new(inner)))
            }
            other => Err(self.err(format!("expected pattern, found {}", other.describe()))),
        }
    }

    /// `[l1 = p1, ..., ln = pn]` with optional trailing `...`.
    fn record_pattern(&mut self) -> KResult<Pattern> {
        self.expect(&Tok::LBrack)?;
        let mut fields = Vec::new();
        let mut open = false;
        if !self.at(&Tok::RBrack) {
            loop {
                if self.eat(&Tok::Ellipsis) {
                    open = true;
                    break;
                }
                let name = self.ident()?;
                self.expect(&Tok::Eq)?;
                let pat = self.pattern()?;
                fields.push((name, pat));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RBrack)?;
        Ok(Pattern::Record(fields, open))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(src: &str) -> CExpr {
        parse_expr(src).unwrap()
    }

    #[test]
    fn paper_query_title_authors() {
        let e = q(r"{[title = p.title, authors = p.authors] | \p <- DB}");
        match e {
            CExpr::Comp { kind, head, quals } => {
                assert_eq!(kind, CollKind::Set);
                assert!(matches!(*head, CExpr::Record(ref fs) if fs.len() == 2));
                assert_eq!(quals.len(), 1);
                assert!(matches!(&quals[0], Qual::Gen(Pattern::Bind(n), _) if &**n == "p"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_query_record_pattern_with_ellipsis() {
        let e = q(r"{[title = t, authors = a] | [title = \t, authors = \a, ...] <- DB}");
        match e {
            CExpr::Comp { quals, .. } => match &quals[0] {
                Qual::Gen(Pattern::Record(fields, open), _) => {
                    assert!(*open);
                    assert_eq!(fields.len(), 2);
                    assert!(matches!(&fields[0].1, Pattern::Bind(n) if &**n == "t"));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_query_literal_field_pattern() {
        let e = q(r"{[title = t] | [title = \t, year = 1988, ...] <- DB}");
        match e {
            CExpr::Comp { quals, .. } => match &quals[0] {
                Qual::Gen(Pattern::Record(fields, true), _) => {
                    assert!(matches!(&fields[1].1, Pattern::Lit(Value::Int(1988))));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn filter_qualifier() {
        let e = q(r"{t | [title = \t, year = \y, ...] <- DB, y = 1988}");
        match e {
            CExpr::Comp { quals, .. } => {
                assert!(matches!(
                    &quals[1],
                    Qual::Filter(CExpr::BinOp(Prim::Eq, ..))
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn membership_generator_uses_eqvar() {
        // `x <- p.authors` where x is bound outside: equality semantics
        let e = q(r"{p | \p <- DB, x <- p.authors}");
        match e {
            CExpr::Comp { quals, .. } => {
                assert!(matches!(&quals[1], Qual::Gen(Pattern::EqVar(n), _) if &**n == "x"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn variant_pattern_in_generator() {
        let e =
            q(r"{[name = n, title = t] | [title = \t, journal = <uncontrolled = \n>, ...] <- DB}");
        match e {
            CExpr::Comp { quals, .. } => match &quals[0] {
                Qual::Gen(Pattern::Record(fields, true), _) => {
                    assert!(
                        matches!(&fields[1].1, Pattern::Variant(tag, _) if &**tag == "uncontrolled")
                    );
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn jname_style_alternatives() {
        let e = q(r"<uncontrolled = \s> => s
                    | <controlled = <medline-jta = \s>> => s
                    | <controlled = <iso-jta = \s>> => s");
        match e {
            CExpr::Lambda(alts) => {
                assert_eq!(alts.len(), 3);
                assert!(matches!(&alts[1].0, Pattern::Variant(t, inner)
                    if &**t == "controlled" && matches!(&**inner, Pattern::Variant(..))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn simple_lambda() {
        let e = q(r"\x => {p | \p <- DB, x <- p.authors}");
        match e {
            CExpr::Lambda(alts) => {
                assert_eq!(alts.len(), 1);
                assert!(matches!(&alts[0].0, Pattern::Bind(n) if &**n == "x"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_variant_expression() {
        let e = q(r#"<controlled = <medline-jta = "J Immunol">>"#);
        match e {
            CExpr::Variant(tag, inner) => {
                assert_eq!(&*tag, "controlled");
                assert!(matches!(*inner, CExpr::Variant(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn string_concat_and_application() {
        let e = q(r#"GDB([query = "select * from " ^ Table])"#);
        match e {
            CExpr::App(f, args) => {
                assert!(matches!(*f, CExpr::Var(ref n) if &**n == "GDB"));
                assert_eq!(args.len(), 1);
                match &args[0] {
                    CExpr::Record(fields) => {
                        assert!(matches!(&fields[0].1, CExpr::BinOp(Prim::StrCat, ..)));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn define_statement() {
        let stmts = parse_program(
            r#"define papers-of == \x => {p | \p <- DB, x <- p.authors};
               papers-of("Smith");"#,
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
        assert!(matches!(&stmts[0], Stmt::Define(n, _) if &**n == "papers-of"));
        assert!(matches!(&stmts[1], Stmt::Query(_)));
    }

    #[test]
    fn collection_literals() {
        assert!(matches!(q("{}"), CExpr::Coll(CollKind::Set, ref v) if v.is_empty()));
        assert!(matches!(q("{1, 2}"), CExpr::Coll(CollKind::Set, ref v) if v.len() == 2));
        assert!(matches!(q("{| 1, 1 |}"), CExpr::Coll(CollKind::Bag, ref v) if v.len() == 2));
        assert!(matches!(q("[| 1, 2 |]"), CExpr::Coll(CollKind::List, ref v) if v.len() == 2));
    }

    #[test]
    fn bag_and_list_comprehensions() {
        assert!(matches!(
            q(r"{| x | \x <- B |}"),
            CExpr::Comp {
                kind: CollKind::Bag,
                ..
            }
        ));
        assert!(matches!(
            q(r"[| x | \x <- L |]"),
            CExpr::Comp {
                kind: CollKind::List,
                ..
            }
        ));
    }

    #[test]
    fn precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        match q("1 + 2 * 3") {
            CExpr::BinOp(Prim::Add, _, rhs) => {
                assert!(matches!(*rhs, CExpr::BinOp(Prim::Mul, ..)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // not a = b parses as not (a = b)? No: not binds looser than cmp.
        match q("not x = y") {
            CExpr::UnOp(Prim::Not, inner) => {
                assert!(matches!(*inner, CExpr::BinOp(Prim::Eq, ..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_then_else() {
        let e = q("if x = 1 then {x} else {}");
        assert!(matches!(e, CExpr::If(..)));
    }

    #[test]
    fn let_binding() {
        let e = q(r"let \x == 5 in x + 1");
        assert!(matches!(e, CExpr::LetIn { .. }));
    }

    #[test]
    fn parse_errors_carry_positions() {
        let err = parse_expr("{1, ").unwrap_err();
        match err {
            KError::Parse { line, col, .. } => {
                assert_eq!(line, 1);
                assert!(col >= 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deeply_nested_comprehension() {
        let e = q(
            r"{[keyword = k, titles = {x.title | \x <- DB, k <- x.keywd}] | \y <- DB, \k <- y.keywd}",
        );
        assert!(matches!(e, CExpr::Comp { .. }));
    }

    #[test]
    fn projection_chains() {
        let e = q("locus.genbank-ref");
        assert!(matches!(e, CExpr::Proj(_, ref f) if &**f == "genbank-ref"));
    }
}
