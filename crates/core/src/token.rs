//! The exchange format — Kleisli's token stream (Section 3), spelled as
//! text between the system and its drivers.
//!
//! The paper flattens a complex object into a stream of tokens so that a
//! consumer can start on a prefix of a value before the producer has
//! finished it. Here that stream is lines, one per token: `U`, `B 0` /
//! `B 1`, `I <decimal>`, `F <16 hex digits of the bits>`, `S <text>`,
//! `C set|bag|list` … `c`, `R` then `L <name>` and its value per field …
//! `r`, `V <tag>` and its value then `v`, and `O <class> <id>`; text has
//! backslash, newline and carriage return escaped, so a token never spans
//! lines. [`write_exchange_into`] writes a value's lines in one walk over
//! it and [`read_exchange`] builds the value in one pass over its lines:
//! there is no token type in between. A reply's records mostly share a
//! few shapes, so the reader keeps, for one read, the last directory it
//! read at each nesting depth, and builds a record whose `L` lines spell
//! that directory's names in order from it ([`RemyRecord::from_dir`])
//! without interning it again.

use std::sync::Arc;

use crate::error::{KError, KResult};
use crate::remy::{Directory, RemyRecord};
use crate::value::{CollKind, Oid, Value};

/// How deeply an exchange text may nest collections, records and
/// variants. The text may come from a peer, and reading it recurses once
/// per level: unbounded, a few hundred kilobytes of `C set` lines — far
/// inside any frame limit — would overflow the reader's stack.
pub const MAX_NESTING: usize = 256;

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
/// between Kleisli and its drivers (module docs).
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

/// Parse the textual exchange format back into exactly one value, in
/// one pass over its lines: each value is built as its lines are read.
/// A malformed line fails with its own error, and so do a value nested
/// deeper than [`MAX_NESTING`] and any line after the value. Blank lines
/// are skipped.
pub fn read_exchange(text: &str) -> KResult<Value> {
    let mut lines = text.lines().filter(|l| !l.is_empty());
    let v = read_value(next_line(&mut lines)?, &mut lines, &mut Vec::new(), 0)?;
    if lines.next().is_some() {
        return Err(KError::exchange("trailing lines after the value"));
    }
    Ok(v)
}

fn next_line<'t>(lines: &mut impl Iterator<Item = &'t str>) -> KResult<&'t str> {
    lines
        .next()
        .ok_or_else(|| KError::exchange("unexpected end of exchange text"))
}

/// The last directory read at each nesting depth (module docs).
type Shapes = Vec<Option<Arc<Directory>>>;

/// The value `line` opens, itself `depth` levels down; a collection,
/// record or variant reads the lines up to its close from `rest`.
fn read_value<'t>(
    line: &'t str,
    rest: &mut impl Iterator<Item = &'t str>,
    shapes: &mut Shapes,
    depth: usize,
) -> KResult<Value> {
    if depth > MAX_NESTING {
        return Err(KError::exchange(format!(
            "value nested deeper than {MAX_NESTING} levels"
        )));
    }
    // The lines that are their whole token: the writer puts nothing after
    // these tags, and a `B` line is `B 0` or `B 1`.
    match line {
        "U" => return Ok(Value::Unit),
        "B 0" => return Ok(Value::Bool(false)),
        "B 1" => return Ok(Value::Bool(true)),
        "R" => {
            let width = shapes.get(depth).and_then(Option::as_ref).map_or(0, |d| d.width());
            let mut fields = Vec::with_capacity(width);
            loop {
                let line = rest
                    .next()
                    .ok_or_else(|| KError::exchange("unterminated record"))?;
                if line == "r" {
                    return record(fields, shapes, depth).map(Value::Record);
                }
                let Some(name) = line.strip_prefix("L ") else {
                    return Err(KError::exchange(format!(
                        "expected field or end-of-record, got line {line:?}"
                    )));
                };
                fields.push((name, read_value(next_line(rest)?, rest, shapes, depth + 1)?));
            }
        }
        _ => {}
    }
    let Some((tag, arg)) = line.split_once(' ') else {
        return Err(unknown(line));
    };
    match tag {
        "I" => arg
            .parse()
            .map(Value::Int)
            .map_err(|_| KError::exchange(format!("bad int: {arg}"))),
        "F" => u64::from_str_radix(arg, 16)
            .map(|bits| Value::Float(f64::from_bits(bits)))
            .map_err(|_| KError::exchange(format!("bad float: {arg}"))),
        "S" => Ok(Value::Str(unescape(arg)?)),
        "C" => {
            let kind = match arg {
                "set" => CollKind::Set,
                "bag" => CollKind::Bag,
                "list" => CollKind::List,
                _ => return Err(KError::exchange(format!("bad collection kind: {arg}"))),
            };
            let mut elems = Vec::new();
            loop {
                let line = rest
                    .next()
                    .ok_or_else(|| KError::exchange("unterminated collection"))?;
                if line == "c" {
                    return Ok(Value::collection(kind, elems));
                }
                elems.push(read_value(line, rest, shapes, depth + 1)?);
            }
        }
        "V" => {
            let tag = unescape(arg)?;
            let inner = read_value(next_line(rest)?, rest, shapes, depth + 1)?;
            match rest.next() {
                Some("v") => Ok(Value::Variant(tag, Arc::new(inner))),
                other => Err(KError::exchange(format!(
                    "expected end-of-variant, got {other:?}"
                ))),
            }
        }
        "O" => {
            let (class, id) = arg
                .rsplit_once(' ')
                .ok_or_else(|| KError::exchange("bad ref"))?;
            Ok(Value::Ref(Oid {
                class: unescape(class)?,
                id: id
                    .parse()
                    .map_err(|_| KError::exchange(format!("bad oid: {id}")))?,
            }))
        }
        _ => Err(unknown(line)),
    }
}

/// The record of `fields`, named as their `L` lines spell them: built
/// from the last directory read at `depth` if the names spell it in
/// order, and otherwise anew, its directory becoming that depth's last.
fn record(fields: Vec<(&str, Value)>, shapes: &mut Shapes, depth: usize) -> KResult<RemyRecord> {
    // A line with an escape in it names something other than its text,
    // so it is never taken as spelling a name.
    let spelled = |dir: &&Arc<Directory>| {
        let mut names = dir.names().iter().zip(&fields);
        dir.width() == fields.len() && names.all(|(n, (raw, _))| **n == **raw && !raw.contains('\\'))
    };
    if let Some(dir) = shapes.get(depth).and_then(Option::as_ref).filter(spelled) {
        let dir = Arc::clone(dir);
        return Ok(RemyRecord::from_dir(dir, fields.into_iter().map(|(_, v)| v)));
    }
    let fields = fields.into_iter().map(|(raw, v)| Ok((unescape(raw)?, v)));
    let record = RemyRecord::new(fields.collect::<KResult<_>>()?);
    shapes.resize(shapes.len().max(depth + 1), None);
    shapes[depth] = Some(Arc::clone(record.dir()));
    Ok(record)
}

fn unknown(line: &str) -> KError {
    KError::exchange(format!("unknown exchange line: {line:?}"))
}

/// `s` with its escapes undone; a run with no backslash goes from the
/// line straight into the `Arc`.
fn unescape(s: &str) -> KResult<Arc<str>> {
    if !s.contains('\\') {
        return Ok(Arc::from(s));
    }
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
    Ok(Arc::from(out))
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
    fn oid_roundtrip() {
        let v = Value::Ref(Oid {
            class: Arc::from("Clone"),
            id: 42,
        });
        let back = read_exchange(&write_exchange(&v)).unwrap();
        assert_eq!(v, back);
    }
}
