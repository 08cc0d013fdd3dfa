//! Token streams — Kleisli's mechanism for "laziness, pipelining and fast
//! response" (Section 3).
//!
//! A complex object is flattened into a stream of tokens so that a consumer
//! (a driver, a printer, or the pipelined executor) can start working on a
//! prefix of a value before the producer has finished materializing it. The
//! textual exchange format used between drivers and the system is a direct
//! rendering of this token stream.

use std::sync::Arc;

use crate::error::{KError, KResult};
use crate::value::{CollKind, Oid, Value};

/// One token of the exchange stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// The unit value `()`.
    Unit,
    /// A boolean literal.
    Bool(bool),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A string literal.
    Str(Arc<str>),
    /// Opens a collection of the given kind; closed by [`Token::EndColl`].
    StartColl(CollKind),
    /// Closes the innermost open collection.
    EndColl,
    /// Opens a record; closed by [`Token::EndRecord`].
    StartRecord,
    /// Introduces the next record field; followed by that field's value.
    Field(Arc<str>),
    /// Closes the innermost open record.
    EndRecord,
    /// Introduces a variant; followed by the payload value.
    StartVariant(Arc<str>),
    /// Closes the innermost open variant.
    EndVariant,
    /// An object reference by identity.
    Ref(Oid),
}

/// Lazily tokenize a value (depth-first, with an explicit work stack so the
/// stream is produced incrementally rather than all at once).
pub struct Tokenizer {
    stack: Vec<Frame>,
}

enum Frame {
    Value(Value),
    Emit(Token),
}

impl Tokenizer {
    /// A tokenizer that will emit `v`'s token stream.
    pub fn new(v: Value) -> Tokenizer {
        Tokenizer {
            stack: vec![Frame::Value(v)],
        }
    }
}

impl Iterator for Tokenizer {
    type Item = Token;

    fn next(&mut self) -> Option<Token> {
        match self.stack.pop()? {
            Frame::Emit(t) => Some(t),
            Frame::Value(v) => match v {
                Value::Unit => Some(Token::Unit),
                Value::Bool(b) => Some(Token::Bool(b)),
                Value::Int(i) => Some(Token::Int(i)),
                Value::Float(x) => Some(Token::Float(x)),
                Value::Str(s) => Some(Token::Str(s)),
                Value::Ref(o) => Some(Token::Ref(o)),
                ref coll @ (Value::Set(_) | Value::Bag(_) | Value::List(_)) => {
                    let kind = coll.coll_kind().expect("collection");
                    let es = coll.elements().expect("collection").to_vec();
                    self.stack.push(Frame::Emit(Token::EndColl));
                    for e in es.iter().rev() {
                        self.stack.push(Frame::Value(e.clone()));
                    }
                    Some(Token::StartColl(kind))
                }
                Value::Record(r) => {
                    self.stack.push(Frame::Emit(Token::EndRecord));
                    let pairs: Vec<_> = r
                        .iter()
                        .map(|(n, fv)| (Arc::clone(n), fv.clone()))
                        .collect();
                    for (n, fv) in pairs.into_iter().rev() {
                        self.stack.push(Frame::Value(fv));
                        self.stack.push(Frame::Emit(Token::Field(n)));
                    }
                    Some(Token::StartRecord)
                }
                Value::Variant(tag, inner) => {
                    self.stack.push(Frame::Emit(Token::EndVariant));
                    self.stack.push(Frame::Value((*inner).clone()));
                    Some(Token::StartVariant(tag))
                }
            },
        }
    }
}

/// Tokenize a value.
pub fn tokenize(v: &Value) -> Tokenizer {
    Tokenizer::new(v.clone())
}

/// How deeply a token stream may nest collections, records and variants.
/// The stream may come from a peer, and rebuilding it recurses once per
/// level: unbounded, a few hundred kilobytes of `C set` lines — far
/// inside any frame limit — would overflow the reader's stack.
pub const MAX_NESTING: usize = 256;

/// Rebuild a value from a token stream. Fails on malformed streams, and
/// on one nested deeper than [`MAX_NESTING`].
pub fn detokenize<I: Iterator<Item = Token>>(tokens: &mut I) -> KResult<Value> {
    next_value(tokens, 0)
}

fn next_value<I: Iterator<Item = Token>>(tokens: &mut I, depth: usize) -> KResult<Value> {
    let tok = tokens
        .next()
        .ok_or_else(|| KError::exchange("unexpected end of token stream"))?;
    value_from(tok, tokens, depth)
}

/// The value `tok` opens, itself `depth` levels down.
fn value_from<I: Iterator<Item = Token>>(tok: Token, rest: &mut I, depth: usize) -> KResult<Value> {
    if depth > MAX_NESTING {
        return Err(KError::exchange(format!(
            "value nested deeper than {MAX_NESTING} levels"
        )));
    }
    match tok {
        Token::Unit => Ok(Value::Unit),
        Token::Bool(b) => Ok(Value::Bool(b)),
        Token::Int(i) => Ok(Value::Int(i)),
        Token::Float(x) => Ok(Value::Float(x)),
        Token::Str(s) => Ok(Value::Str(s)),
        Token::Ref(o) => Ok(Value::Ref(o)),
        Token::StartColl(kind) => {
            let mut elems = Vec::new();
            loop {
                match rest
                    .next()
                    .ok_or_else(|| KError::exchange("unterminated collection"))?
                {
                    Token::EndColl => break,
                    t => elems.push(value_from(t, rest, depth + 1)?),
                }
            }
            Ok(Value::collection(kind, elems))
        }
        Token::StartRecord => {
            let mut fields = Vec::new();
            loop {
                match rest
                    .next()
                    .ok_or_else(|| KError::exchange("unterminated record"))?
                {
                    Token::EndRecord => break,
                    Token::Field(n) => fields.push((n, next_value(rest, depth + 1)?)),
                    other => {
                        return Err(KError::exchange(format!(
                            "expected field or end-of-record, got {other:?}"
                        )))
                    }
                }
            }
            Ok(Value::record(fields))
        }
        Token::StartVariant(tag) => {
            let inner = next_value(rest, depth + 1)?;
            match rest.next() {
                Some(Token::EndVariant) => Ok(Value::Variant(tag, Arc::new(inner))),
                other => Err(KError::exchange(format!(
                    "expected end-of-variant, got {other:?}"
                ))),
            }
        }
        other => Err(KError::exchange(format!("unexpected token {other:?}"))),
    }
}

/// Where [`write_exchange_into`] puts its text: a `String`, a byte
/// buffer, or a caller's bounded frame.
pub trait ExchangeSink {
    /// Append `text`. Answering `false` stops the writer — a bounded
    /// sink has taken all it will.
    fn put(&mut self, text: &str) -> bool;
}

impl ExchangeSink for String {
    fn put(&mut self, text: &str) -> bool {
        self.push_str(text);
        true
    }
}

impl ExchangeSink for Vec<u8> {
    fn put(&mut self, text: &str) -> bool {
        self.extend_from_slice(text.as_bytes());
        true
    }
}

/// Render a value in the line-oriented textual exchange format used
/// between Kleisli and its drivers — one line per token of
/// [`tokenize`]'s stream.
pub fn write_exchange(v: &Value) -> String {
    let mut out = String::new();
    write_exchange_into(v, &mut out);
    out
}

/// [`write_exchange`] straight into `out`: one recursive walk over the
/// value, no token stream and no allocation per token. Returns `false`
/// if the sink stopped the walk (what it holds is then a truncated
/// prefix, of no use to a reader).
pub fn write_exchange_into(v: &Value, out: &mut impl ExchangeSink) -> bool {
    match v {
        Value::Unit => out.put("U\n"),
        Value::Bool(b) => out.put(if *b { "B 1\n" } else { "B 0\n" }),
        Value::Int(i) => {
            let mut digits = [0u8; 20];
            out.put(if *i < 0 { "I -" } else { "I " })
                && out.put(decimal(i.unsigned_abs(), &mut digits))
                && out.put("\n")
        }
        Value::Float(x) => {
            let bits = x.to_bits();
            let mut hex = [0u8; 16];
            for (k, h) in hex.iter_mut().enumerate() {
                *h = b"0123456789abcdef"[(bits >> (60 - 4 * k)) as usize & 0xf];
            }
            out.put("F ")
                && out.put(std::str::from_utf8(&hex).expect("hex digits are ASCII"))
                && out.put("\n")
        }
        Value::Str(s) => put_line(out, "S ", s),
        Value::Set(es) | Value::Bag(es) | Value::List(es) => {
            let open = match v {
                Value::Set(_) => "C set\n",
                Value::Bag(_) => "C bag\n",
                _ => "C list\n",
            };
            out.put(open) && es.iter().all(|e| write_exchange_into(e, out)) && out.put("c\n")
        }
        Value::Record(r) => {
            out.put("R\n")
                && r.iter()
                    .all(|(n, fv)| put_line(out, "L ", n) && write_exchange_into(fv, out))
                && out.put("r\n")
        }
        Value::Variant(tag, inner) => {
            put_line(out, "V ", tag) && write_exchange_into(inner, out) && out.put("v\n")
        }
        Value::Ref(o) => {
            let mut digits = [0u8; 20];
            out.put("O ")
                && put_escaped(out, &o.class)
                && out.put(" ")
                && out.put(decimal(o.id, &mut digits))
                && out.put("\n")
        }
    }
}

/// `n` in decimal, written into the tail of `digits`.
fn decimal(mut n: u64, digits: &mut [u8; 20]) -> &str {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII")
}

/// One `<tag><escaped text>\n` line.
fn put_line(out: &mut impl ExchangeSink, tag: &str, text: &str) -> bool {
    out.put(tag) && put_escaped(out, text) && out.put("\n")
}

/// `text` with backslash, newline and carriage return escaped, so a
/// token never spans lines.
fn put_escaped(out: &mut impl ExchangeSink, text: &str) -> bool {
    let mut from = 0;
    for (at, byte) in text.bytes().enumerate() {
        let escaped = match byte {
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            _ => continue,
        };
        if !(out.put(&text[from..at]) && out.put(escaped)) {
            return false;
        }
        from = at + 1;
    }
    out.put(&text[from..])
}

/// Parse the textual exchange format back into exactly one value: a
/// malformed line fails with its own error, and so does any line after
/// the value.
pub fn read_exchange(text: &str) -> KResult<Value> {
    let mut toks = text.lines().filter(|l| !l.is_empty()).map(parse_line);
    let mut iter = ResultIter {
        inner: &mut toks,
        err: None,
    };
    let v = detokenize(&mut iter);
    // A bad line ends the token stream early; the structural error that
    // follows from that is not the one to report.
    if let Some(e) = iter.err {
        return Err(e);
    }
    let v = v?;
    if toks.next().is_some() {
        return Err(KError::exchange("trailing lines after the value"));
    }
    Ok(v)
}

struct ResultIter<'a, I: Iterator<Item = KResult<Token>>> {
    inner: &'a mut I,
    err: Option<KError>,
}

impl<I: Iterator<Item = KResult<Token>>> Iterator for ResultIter<'_, I> {
    type Item = Token;
    fn next(&mut self) -> Option<Token> {
        if self.err.is_some() {
            return None;
        }
        match self.inner.next()? {
            Ok(t) => Some(t),
            Err(e) => {
                self.err = Some(e);
                None
            }
        }
    }
}

fn parse_line(line: &str) -> KResult<Token> {
    let (tag, rest) = match line.split_once(' ') {
        Some((t, r)) => (t, r),
        None => (line, ""),
    };
    match tag {
        "U" => Ok(Token::Unit),
        "B" => Ok(Token::Bool(rest == "1")),
        "I" => rest
            .parse()
            .map(Token::Int)
            .map_err(|_| KError::exchange(format!("bad int: {rest}"))),
        "F" => parse_hex_f64(rest)
            .map(Token::Float)
            .ok_or_else(|| KError::exchange(format!("bad float: {rest}"))),
        "S" => Ok(Token::Str(Arc::from(unescape(rest)?))),
        "C" => match rest {
            "set" => Ok(Token::StartColl(CollKind::Set)),
            "bag" => Ok(Token::StartColl(CollKind::Bag)),
            "list" => Ok(Token::StartColl(CollKind::List)),
            _ => Err(KError::exchange(format!("bad collection kind: {rest}"))),
        },
        "c" => Ok(Token::EndColl),
        "R" => Ok(Token::StartRecord),
        "L" => Ok(Token::Field(Arc::from(unescape(rest)?))),
        "r" => Ok(Token::EndRecord),
        "V" => Ok(Token::StartVariant(Arc::from(unescape(rest)?))),
        "v" => Ok(Token::EndVariant),
        "O" => {
            let (class, id) = rest
                .rsplit_once(' ')
                .ok_or_else(|| KError::exchange("bad ref"))?;
            Ok(Token::Ref(Oid {
                class: Arc::from(unescape(class)?),
                id: id
                    .parse()
                    .map_err(|_| KError::exchange(format!("bad oid: {id}")))?,
            }))
        }
        _ => Err(KError::exchange(format!("unknown token line: {line}"))),
    }
}

fn parse_hex_f64(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn unescape(s: &str) -> KResult<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                other => {
                    return Err(KError::exchange(format!("bad escape: \\{other:?}")));
                }
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::set(vec![
            Value::record_from(vec![
                ("title", Value::str("Structure of the human perforin gene")),
                (
                    "authors",
                    Value::list(vec![Value::record_from(vec![
                        ("name", Value::str("Lichtenheld")),
                        ("initial", Value::str("MG")),
                    ])]),
                ),
                (
                    "journal",
                    Value::variant(
                        "controlled",
                        Value::variant("medline-jta", Value::str("J Immunol")),
                    ),
                ),
                ("year", Value::Int(1989)),
            ]),
            Value::record_from(vec![
                ("title", Value::str("x")),
                ("authors", Value::list(vec![])),
                ("journal", Value::variant("uncontrolled", Value::str("Nat"))),
                ("year", Value::Int(1990)),
            ]),
        ])
    }

    #[test]
    fn tokenize_detokenize_roundtrip() {
        let v = sample();
        let mut toks = tokenize(&v);
        let back = detokenize(&mut toks).unwrap();
        assert_eq!(v, back);
        assert!(toks.next().is_none(), "no trailing tokens");
    }

    #[test]
    fn exchange_text_roundtrip() {
        let v = sample();
        let text = write_exchange(&v);
        let back = read_exchange(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn exchange_handles_special_floats_exactly() {
        for x in [0.0, -0.0, f64::NAN, f64::INFINITY, 1.5e-300] {
            let v = Value::Float(x);
            let back = read_exchange(&write_exchange(&v)).unwrap();
            assert_eq!(v, back);
        }
    }

    #[test]
    fn exchange_escapes_newlines_and_backslashes() {
        let v = Value::str("line1\nline2\\end");
        let back = read_exchange(&write_exchange(&v)).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn direct_writer_spells_the_extremes_and_stops_when_the_sink_says_so() {
        for (v, text) in [
            (Value::Int(i64::MIN), "I -9223372036854775808\n"),
            (Value::Int(i64::MAX), "I 9223372036854775807\n"),
            (Value::Int(0), "I 0\n"),
            (Value::bag(vec![]), "C bag\nc\n"),
            (Value::record(vec![]), "R\nr\n"),
            (Value::str("a\\\r\nb"), "S a\\\\\\r\\nb\n"),
        ] {
            assert_eq!(write_exchange(&v), text);
        }

        /// Takes `room` bytes, then refuses.
        struct Tight {
            text: String,
            room: usize,
        }
        impl ExchangeSink for Tight {
            fn put(&mut self, text: &str) -> bool {
                if self.text.len() + text.len() > self.room {
                    return false;
                }
                self.text.push_str(text);
                true
            }
        }
        let big = Value::list((0..10_000).map(Value::Int).collect());
        let mut tight = Tight {
            text: String::new(),
            room: 64,
        };
        assert!(!write_exchange_into(&big, &mut tight));
        assert!(write_exchange(&big).starts_with(&tight.text));
        assert!(
            tight.text.len() > 48,
            "stopped at the bound, not before: {}",
            tight.text.len()
        );
    }

    #[test]
    fn malformed_streams_error_cleanly() {
        assert!(read_exchange("C set\n").is_err()); // unterminated
        assert!(read_exchange("Z what\n").is_err()); // unknown tag
        assert!(read_exchange("R\nI 3\n").is_err()); // value where field expected

        // Nesting is bounded, not recursed into until the stack gives out.
        let nested = |levels: usize| "C list\n".repeat(levels) + &"c\n".repeat(levels);
        assert!(read_exchange(&nested(MAX_NESTING)).is_ok());
        let err = read_exchange(&nested(200_000)).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
    }

    #[test]
    fn tokenizer_is_incremental() {
        // The first token of a large set arrives without traversing it all.
        let big = Value::set((0..10_000).map(Value::Int).collect());
        let mut t = tokenize(&big);
        assert_eq!(t.next(), Some(Token::StartColl(CollKind::Set)));
        assert_eq!(t.next(), Some(Token::Int(0)));
    }

    #[test]
    fn oid_roundtrip() {
        let v = Value::Ref(Oid {
            class: Arc::from("Clone"),
            id: 42,
        });
        let back = read_exchange(&write_exchange(&v)).unwrap();
        assert_eq!(v, back);
    }
}
