//! The conjunctive SQL subset understood by the simulated Sybase server:
//!
//! ```text
//! select <item> {, <item>} from <table> [alias] {, <table> [alias]}
//!   [where <pred> {and <pred>}]
//! item  := * | [alias.]column [as name]
//! pred  := operand op operand        op ∈ { =, <>, <, <=, >, >= }
//! operand := [alias.]column | 'string' | 123 | 1.5 | true | false
//! ```
//!
//! This is the fragment the paper's optimizer generates (selections,
//! projections, and equi/θ-joins), plus `select *` for `GDB-Tab`-style
//! whole-table templates.

use kleisli_core::{KError, KResult};

use crate::storage::Datum;

/// A parsed SQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub select: SelectList,
    /// (table, alias) — alias defaults to the table name.
    pub from: Vec<(String, String)>,
    pub preds: Vec<Pred>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SelectList {
    Star,
    Items(Vec<SelectItem>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub column: ColRef,
    pub output: String,
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ColRef {
    pub qualifier: Option<String>,
    pub column: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    Col(ColRef),
    Lit(Datum),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    pub lhs: Operand,
    pub op: CmpOp,
    pub rhs: Operand,
}

// ------------------------------------------------------------- lexer ----

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Star,
    Comma,
    Dot,
    Op(CmpOp),
    Eof,
}

fn lex(src: &str) -> KResult<Vec<Tok>> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    let err = |msg: String| KError::format("sql", msg);
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'*' => {
                out.push(Tok::Star);
                i += 1;
            }
            b',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            b'.' => {
                out.push(Tok::Dot);
                i += 1;
            }
            b'=' => {
                out.push(Tok::Op(CmpOp::Eq));
                i += 1;
            }
            b'<' => {
                if b.get(i + 1) == Some(&b'>') {
                    out.push(Tok::Op(CmpOp::Ne));
                    i += 2;
                } else if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Op(CmpOp::Le));
                    i += 2;
                } else {
                    out.push(Tok::Op(CmpOp::Lt));
                    i += 1;
                }
            }
            b'>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Op(CmpOp::Ge));
                    i += 2;
                } else {
                    out.push(Tok::Op(CmpOp::Gt));
                    i += 1;
                }
            }
            b'\'' => {
                i += 1;
                let mut s = String::new();
                loop {
                    match b.get(i) {
                        None => return Err(err("unterminated string literal".into())),
                        Some(b'\'') if b.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&c) => {
                            s.push(c as char);
                            i += 1;
                        }
                    }
                }
                out.push(Tok::Str(s));
            }
            c if c.is_ascii_digit()
                || (c == b'-' && b.get(i + 1).is_some_and(u8::is_ascii_digit)) =>
            {
                let start = i;
                if c == b'-' {
                    i += 1;
                }
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let mut float = false;
                if i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    float = true;
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = std::str::from_utf8(&b[start..i]).expect("ascii");
                if float {
                    out.push(Tok::Float(
                        text.parse().map_err(|_| err(format!("bad float {text}")))?,
                    ));
                } else {
                    out.push(Tok::Int(
                        text.parse().map_err(|_| err(format!("bad int {text}")))?,
                    ));
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Tok::Ident(
                    std::str::from_utf8(&b[start..i])
                        .expect("ascii")
                        .to_string(),
                ));
            }
            other => return Err(err(format!("unexpected character '{}'", other as char))),
        }
    }
    out.push(Tok::Eof);
    Ok(out)
}

// ------------------------------------------------------------ parser ----

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

/// Parse a SQL query.
pub fn parse(src: &str) -> KResult<Query> {
    let mut p = Parser {
        toks: lex(src)?,
        pos: 0,
    };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos]
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> KError {
        KError::format("sql", msg.into())
    }

    fn keyword(&mut self, kw: &str) -> KResult<()> {
        match self.bump() {
            Tok::Ident(s) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.err(format!("expected '{kw}', found {other:?}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> KResult<String> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_eof(&mut self) -> KResult<()> {
        match self.peek() {
            Tok::Eof => Ok(()),
            other => Err(self.err(format!("trailing input: {other:?}"))),
        }
    }

    fn query(&mut self) -> KResult<Query> {
        self.keyword("select")?;
        let select = if matches!(self.peek(), Tok::Star) {
            self.bump();
            SelectList::Star
        } else {
            let mut items = Vec::new();
            loop {
                items.push(self.select_item()?);
                if !matches!(self.peek(), Tok::Comma) {
                    break;
                }
                self.bump();
            }
            SelectList::Items(items)
        };
        self.keyword("from")?;
        let mut from = Vec::new();
        loop {
            let table = self.ident()?;
            // optional alias (any identifier that is not a keyword)
            let alias = match self.peek() {
                Tok::Ident(s)
                    if !s.eq_ignore_ascii_case("where") && !s.eq_ignore_ascii_case("and") =>
                {
                    self.ident()?
                }
                _ => table.clone(),
            };
            from.push((table, alias));
            if !matches!(self.peek(), Tok::Comma) {
                break;
            }
            self.bump();
        }
        let mut preds = Vec::new();
        if self.at_keyword("where") {
            self.bump();
            loop {
                preds.push(self.pred()?);
                if self.at_keyword("and") {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        Ok(Query {
            select,
            from,
            preds,
        })
    }

    fn select_item(&mut self) -> KResult<SelectItem> {
        let column = self.col_ref()?;
        let output = if self.at_keyword("as") {
            self.bump();
            self.ident()?
        } else {
            column.column.clone()
        };
        Ok(SelectItem { column, output })
    }

    fn col_ref(&mut self) -> KResult<ColRef> {
        let first = self.ident()?;
        if matches!(self.peek(), Tok::Dot) {
            self.bump();
            let column = self.ident()?;
            Ok(ColRef {
                qualifier: Some(first),
                column,
            })
        } else {
            Ok(ColRef {
                qualifier: None,
                column: first,
            })
        }
    }

    fn operand(&mut self) -> KResult<Operand> {
        match self.peek().clone() {
            Tok::Int(i) => {
                self.bump();
                Ok(Operand::Lit(Datum::Int(i)))
            }
            Tok::Float(x) => {
                self.bump();
                Ok(Operand::Lit(Datum::float(x)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Operand::Lit(Datum::str(s)))
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("true") => {
                self.bump();
                Ok(Operand::Lit(Datum::Bool(true)))
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("false") => {
                self.bump();
                Ok(Operand::Lit(Datum::Bool(false)))
            }
            Tok::Ident(_) => Ok(Operand::Col(self.col_ref()?)),
            other => Err(self.err(format!("expected operand, found {other:?}"))),
        }
    }

    fn pred(&mut self) -> KResult<Pred> {
        let lhs = self.operand()?;
        let op = match self.bump() {
            Tok::Op(op) => op,
            other => return Err(self.err(format!("expected comparison, found {other:?}"))),
        };
        let rhs = self.operand()?;
        Ok(Pred { lhs, op, rhs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_loci22_query() {
        let q = parse(
            "select locus_symbol, genbank_ref \
             from locus, object_genbank_eref, locus_cyto_location \
             where locus.locus_id = locus_cyto_location.locus_cyto_location_id \
             and locus.locus_id = object_genbank_eref.object_id \
             and object_class_key = 1 \
             and loc_cyto_chrom_num = '22'",
        )
        .unwrap();
        assert_eq!(q.from.len(), 3);
        assert_eq!(q.preds.len(), 4);
        match &q.select {
            SelectList::Items(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0].output, "locus_symbol");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_star_and_alias() {
        let q = parse("select * from locus l where l.locus_id = 5").unwrap();
        assert_eq!(q.select, SelectList::Star);
        assert_eq!(q.from, vec![("locus".to_string(), "l".to_string())]);
        assert_eq!(
            q.preds[0].lhs,
            Operand::Col(ColRef {
                qualifier: Some("l".into()),
                column: "locus_id".into()
            })
        );
    }

    #[test]
    fn as_renames_output() {
        let q = parse("select t.a as x from t").unwrap();
        match &q.select {
            SelectList::Items(items) => assert_eq!(items[0].output, "x"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn string_escapes_and_operators() {
        let q = parse("select a from t where a <> 'it''s' and b >= 2 and c <= 3.5").unwrap();
        assert_eq!(q.preds.len(), 3);
        assert_eq!(q.preds[0].op, CmpOp::Ne);
        assert_eq!(q.preds[0].rhs, Operand::Lit(Datum::str("it's")));
        assert_eq!(q.preds[2].rhs, Operand::Lit(Datum::float(3.5)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("selekt a from t").is_err());
        assert!(parse("select a from t where").is_err());
        assert!(parse("select from t").is_err());
        assert!(parse("select a from t extra junk !").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse("SELECT a FROM t WHERE a = 1 AND a = 1").is_ok());
    }
}
