//! Lexer for CPL surface syntax.
//!
//! CPL identifiers follow the paper's convention of embedded hyphens
//! (`locus-symbol`, `medline-jta`, `NA-Links`): a `-` is part of an
//! identifier when it is directly surrounded by identifier characters.
//! Binary subtraction therefore requires whitespace (`a - b`), which
//! matches every example in the paper.
//!
//! Comments run from `%` to end of line (the paper's ASN.1 excerpts use
//! `%` comments).

use kleisli_core::{KError, KResult};

/// A lexical token with its source position (1-based line/column).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: Tok,
    pub line: u32,
    pub col: u32,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    // keywords
    Define,
    If,
    Then,
    Else,
    Let,
    In,
    True,
    False,
    And,
    Or,
    Not,
    Mod,
    // brackets
    LBrace,    // {
    RBrace,    // }
    LBraceBar, // {|
    RBraceBar, // |}
    LBrack,    // [
    RBrack,    // ]
    LBrackBar, // [|
    RBrackBar, // |]
    LParen,    // (
    RParen,    // )
    Lt,        // <
    Gt,        // >
    // punctuation / operators
    Comma,
    Semi,
    Dot,
    Ellipsis,  // ...
    Backslash, // \
    LArrow,    // <-
    DArrow,    // =>
    EqEq,      // ==
    Eq,        // =
    Ne,        // <>
    Le,        // <=
    Ge,        // >=
    Pipe,      // |
    Caret,     // ^
    Plus,
    Minus,
    Star,
    Slash,
    Underscore,
    Eof,
}

impl Tok {
    /// Human-readable name for error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier '{s}'"),
            Tok::Int(i) => format!("integer {i}"),
            Tok::Float(x) => format!("float {x}"),
            Tok::Str(_) => "string literal".into(),
            Tok::Eof => "end of input".into(),
            other => format!("'{}'", symbol_of(other)),
        }
    }
}

fn symbol_of(t: &Tok) -> &'static str {
    match t {
        Tok::Define => "define",
        Tok::If => "if",
        Tok::Then => "then",
        Tok::Else => "else",
        Tok::Let => "let",
        Tok::In => "in",
        Tok::True => "true",
        Tok::False => "false",
        Tok::And => "and",
        Tok::Or => "or",
        Tok::Not => "not",
        Tok::Mod => "mod",
        Tok::LBrace => "{",
        Tok::RBrace => "}",
        Tok::LBraceBar => "{|",
        Tok::RBraceBar => "|}",
        Tok::LBrack => "[",
        Tok::RBrack => "]",
        Tok::LBrackBar => "[|",
        Tok::RBrackBar => "|]",
        Tok::LParen => "(",
        Tok::RParen => ")",
        Tok::Lt => "<",
        Tok::Gt => ">",
        Tok::Comma => ",",
        Tok::Semi => ";",
        Tok::Dot => ".",
        Tok::Ellipsis => "...",
        Tok::Backslash => "\\",
        Tok::LArrow => "<-",
        Tok::DArrow => "=>",
        Tok::EqEq => "==",
        Tok::Eq => "=",
        Tok::Ne => "<>",
        Tok::Le => "<=",
        Tok::Ge => ">=",
        Tok::Pipe => "|",
        Tok::Caret => "^",
        Tok::Plus => "+",
        Tok::Minus => "-",
        Tok::Star => "*",
        Tok::Slash => "/",
        Tok::Underscore => "_",
        _ => "?",
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

/// Tokenize CPL source text.
pub fn lex(src: &str) -> KResult<Vec<Token>> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    loop {
        let t = lx.next_token()?;
        let done = t.kind == Tok::Eof;
        out.push(t);
        if done {
            return Ok(out);
        }
    }
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, msg: impl Into<String>) -> KError {
        KError::parse(msg, self.line, self.col)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => {
                    self.bump();
                }
                Some(b'%') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn next_token(&mut self) -> KResult<Token> {
        self.skip_trivia();
        let (line, col) = (self.line, self.col);
        let mk = |kind| Token { kind, line, col };
        let Some(c) = self.peek() else {
            return Ok(mk(Tok::Eof));
        };
        // identifiers / keywords
        if c.is_ascii_alphabetic() {
            let word = self.lex_word();
            let kind = match word.as_str() {
                "define" => Tok::Define,
                "if" => Tok::If,
                "then" => Tok::Then,
                "else" => Tok::Else,
                "let" => Tok::Let,
                "in" => Tok::In,
                "true" => Tok::True,
                "false" => Tok::False,
                "and" => Tok::And,
                "or" => Tok::Or,
                "not" => Tok::Not,
                "mod" => Tok::Mod,
                _ => Tok::Ident(word),
            };
            return Ok(mk(kind));
        }
        // numbers
        if c.is_ascii_digit() {
            return self.lex_number().map(&mk);
        }
        // strings
        if c == b'"' {
            return self.lex_string().map(&mk);
        }
        // underscore: wildcard or identifier start
        if c == b'_' {
            if self
                .peek2()
                .is_some_and(|c2| c2.is_ascii_alphanumeric() || c2 == b'_')
            {
                let word = self.lex_word();
                return Ok(mk(Tok::Ident(word)));
            }
            self.bump();
            return Ok(mk(Tok::Underscore));
        }
        self.bump();
        let kind = match c {
            b'{' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    Tok::LBraceBar
                } else {
                    Tok::LBrace
                }
            }
            b'}' => Tok::RBrace,
            b'[' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    Tok::LBrackBar
                } else {
                    Tok::LBrack
                }
            }
            b']' => Tok::RBrack,
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b',' => Tok::Comma,
            b';' => Tok::Semi,
            b'.' => {
                if self.peek() == Some(b'.') && self.peek2() == Some(b'.') {
                    self.bump();
                    self.bump();
                    Tok::Ellipsis
                } else {
                    Tok::Dot
                }
            }
            b'\\' => Tok::Backslash,
            b'^' => Tok::Caret,
            b'+' => Tok::Plus,
            b'-' => Tok::Minus,
            b'*' => Tok::Star,
            b'/' => Tok::Slash,
            b'|' => match self.peek() {
                Some(b'}') => {
                    self.bump();
                    Tok::RBraceBar
                }
                Some(b']') => {
                    self.bump();
                    Tok::RBrackBar
                }
                _ => Tok::Pipe,
            },
            b'<' => match self.peek() {
                Some(b'-') => {
                    self.bump();
                    Tok::LArrow
                }
                Some(b'=') => {
                    self.bump();
                    Tok::Le
                }
                Some(b'>') => {
                    self.bump();
                    Tok::Ne
                }
                _ => Tok::Lt,
            },
            b'>' => match self.peek() {
                Some(b'=') => {
                    self.bump();
                    Tok::Ge
                }
                _ => Tok::Gt,
            },
            b'=' => match self.peek() {
                Some(b'=') => {
                    self.bump();
                    Tok::EqEq
                }
                Some(b'>') => {
                    self.bump();
                    Tok::DArrow
                }
                _ => Tok::Eq,
            },
            other => {
                return Err(KError::parse(
                    format!("unexpected character '{}'", other as char),
                    line,
                    col,
                ))
            }
        };
        Ok(mk(kind))
    }

    /// Lex an identifier; hyphens join when surrounded by ident chars.
    fn lex_word(&mut self) -> String {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let joining_hyphen = c == b'-'
                && self
                    .peek2()
                    .is_some_and(|c2| c2.is_ascii_alphanumeric() || c2 == b'_');
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'\'' || joining_hyphen {
                self.bump();
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn lex_number(&mut self) -> KResult<Tok> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && self.peek2().is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let mut look = self.pos + 1;
            if matches!(self.src.get(look), Some(b'+') | Some(b'-')) {
                look += 1;
            }
            if self.src.get(look).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                self.bump(); // e
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.bump();
                }
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                }
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        if is_float {
            text.parse()
                .map(Tok::Float)
                .map_err(|_| self.err(format!("bad float literal '{text}'")))
        } else {
            text.parse()
                .map(Tok::Int)
                .map_err(|_| self.err(format!("integer literal out of range '{text}'")))
        }
    }

    fn lex_string(&mut self) -> KResult<Tok> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string literal")),
                Some(b'"') => return Ok(Tok::Str(s)),
                Some(b'\\') => match self.bump() {
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    other => {
                        return Err(self.err(format!(
                            "unknown string escape '\\{}'",
                            other.map(|c| c as char).unwrap_or(' ')
                        )))
                    }
                },
                Some(c) if c < 0x80 => s.push(c as char),
                Some(first) => {
                    // multi-byte utf-8: copy the remaining bytes of the char
                    let mut bytes = vec![first];
                    let extra = match first {
                        0xC0..=0xDF => 1,
                        0xE0..=0xEF => 2,
                        _ => 3,
                    };
                    for _ in 0..extra {
                        if let Some(b) = self.bump() {
                            bytes.push(b);
                        }
                    }
                    s.push_str(&String::from_utf8_lossy(&bytes));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn hyphenated_identifiers() {
        assert_eq!(
            kinds("locus-symbol"),
            vec![Tok::Ident("locus-symbol".into()), Tok::Eof]
        );
        // subtraction needs spaces
        assert_eq!(
            kinds("a - b"),
            vec![
                Tok::Ident("a".into()),
                Tok::Minus,
                Tok::Ident("b".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn bag_and_list_brackets() {
        assert_eq!(
            kinds("{| x |}"),
            vec![
                Tok::LBraceBar,
                Tok::Ident("x".into()),
                Tok::RBraceBar,
                Tok::Eof
            ]
        );
        assert_eq!(
            kinds("[| x |]"),
            vec![
                Tok::LBrackBar,
                Tok::Ident("x".into()),
                Tok::RBrackBar,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn arrows_and_equality() {
        assert_eq!(
            kinds("\\x <- y == => = <> <= >="),
            vec![
                Tok::Backslash,
                Tok::Ident("x".into()),
                Tok::LArrow,
                Tok::Ident("y".into()),
                Tok::EqEq,
                Tok::DArrow,
                Tok::Eq,
                Tok::Ne,
                Tok::Le,
                Tok::Ge,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42"), vec![Tok::Int(42), Tok::Eof]);
        assert_eq!(kinds("3.25"), vec![Tok::Float(3.25), Tok::Eof]);
        assert_eq!(kinds("1e3"), vec![Tok::Float(1000.0), Tok::Eof]);
        // field access after an int-looking receiver still works: `x.1`? not
        // supported — but `p.title` must lex Dot.
        assert_eq!(
            kinds("p.title"),
            vec![
                Tok::Ident("p".into()),
                Tok::Dot,
                Tok::Ident("title".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds(r#""a\"b\n""#),
            vec![Tok::Str("a\"b\n".into()), Tok::Eof]
        );
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("x % comment here\ny"),
            vec![Tok::Ident("x".into()), Tok::Ident("y".into()), Tok::Eof]
        );
    }

    #[test]
    fn ellipsis_vs_dot() {
        assert_eq!(kinds("..."), vec![Tok::Ellipsis, Tok::Eof]);
        assert_eq!(kinds("."), vec![Tok::Dot, Tok::Eof]);
    }

    #[test]
    fn positions_are_tracked() {
        let toks = lex("x\n  y").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn wildcard_vs_ident() {
        assert_eq!(kinds("_"), vec![Tok::Underscore, Tok::Eof]);
        assert_eq!(kinds("_x"), vec![Tok::Ident("_x".into()), Tok::Eof]);
    }
}
