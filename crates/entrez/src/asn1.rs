//! ASN.1 value notation, schema-less subset.
//!
//! NCBI's toolkit prints ASN.1 values in a text form like
//!
//! ```text
//! Seq-entry ::= {
//!   seq {
//!     id { giim : 117246, accession : "M81409" },
//!     descr "Human perforin gene",
//!     length 1200
//!   }
//! }
//! ```
//!
//! Real ASN.1 value notation is schema-directed (SET OF and SEQUENCE —
//! records — both print as braces); without the schema we disambiguate
//! syntactically: inside braces, `identifier <value>` pairs make a record,
//! `identifier : <value>` makes a CHOICE (variant), and bare values make a
//! SEQUENCE OF (decoded as a list). This matches how the simulator's data
//! is generated and round-trips exactly.
//!
//! Parsing recurses once per level of braces and variants, so a value
//! nested deeper than [`MAX_NESTING`] — the bound the exchange reader
//! puts on values a source hands us — is an error, not a stack overflow.

use std::sync::Arc;

use kleisli_core::token::MAX_NESTING;
use kleisli_core::{KError, KResult, Value};

/// Print a value in ASN.1 value notation with the given type name header.
pub fn print_entry(type_name: &str, v: &Value) -> String {
    let mut out = format!("{type_name} ::= ");
    print_value(&mut out, v);
    out.push('\n');
    out
}

/// Print a bare value (no `Type ::=` header).
pub fn print_value_string(v: &Value) -> String {
    let mut out = String::new();
    print_value(&mut out, v);
    out
}

fn print_value(out: &mut String, v: &Value) {
    match v {
        Value::Unit => out.push_str("NULL"),
        Value::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => out.push_str(&format!("{x:?}")),
        Value::Str(s) => {
            out.push('"');
            out.push_str(&s.replace('"', "\"\""));
            out.push('"');
        }
        Value::Record(r) => {
            out.push_str("{ ");
            for (i, (n, fv)) in r.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(n);
                out.push(' ');
                print_value(out, fv);
            }
            out.push_str(" }");
        }
        Value::Variant(tag, inner) => {
            out.push_str(tag);
            out.push_str(" : ");
            print_value(out, inner);
        }
        Value::Set(es) | Value::Bag(es) | Value::List(es) => {
            out.push_str("{ ");
            for (i, e) in es.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                print_value(out, e);
            }
            out.push_str(" }");
        }
        Value::Ref(o) => {
            out.push_str(&format!("ref {} {}", o.class, o.id));
        }
    }
}

/// Parse an entry of the form `TypeName ::= <value>`; returns the type
/// name and the value. Collections decode as **lists** (SEQUENCE OF).
pub fn parse_entry(text: &str) -> KResult<(String, Value)> {
    let mut p = P::new(text);
    p.ws();
    let name = p.type_name()?;
    p.ws();
    p.expect_str("::=")?;
    let v = p.value()?;
    p.ws();
    if !p.done() {
        return Err(p.err("trailing input after value"));
    }
    Ok((name, v))
}

/// Parse a bare ASN.1 value.
pub fn parse_value(text: &str) -> KResult<Value> {
    let mut p = P::new(text);
    let v = p.value()?;
    p.ws();
    if !p.done() {
        return Err(p.err("trailing input after value"));
    }
    Ok(v)
}

struct P<'a> {
    b: &'a [u8],
    i: usize,
    /// Values open around the one being parsed.
    depth: usize,
}

impl<'a> P<'a> {
    fn new(s: &'a str) -> P<'a> {
        P {
            b: s.as_bytes(),
            i: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> KError {
        KError::format("asn1", format!("{} (at byte {})", msg.into(), self.i))
    }

    fn done(&self) -> bool {
        self.i >= self.b.len()
    }

    fn ws(&mut self) {
        while self.i < self.b.len() {
            match self.b[self.i] {
                b' ' | b'\t' | b'\r' | b'\n' => self.i += 1,
                b'-' if self.b.get(self.i + 1) == Some(&b'-') => {
                    // ASN.1 comment: -- to end of line
                    while self.i < self.b.len() && self.b[self.i] != b'\n' {
                        self.i += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect_str(&mut self, s: &str) -> KResult<()> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(())
        } else {
            Err(self.err(format!("expected '{s}'")))
        }
    }

    fn type_name(&mut self) -> KResult<String> {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'-' || c == b'_')
        {
            self.i += 1;
        }
        if start == self.i {
            return Err(self.err("expected a type name"));
        }
        Ok(std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| self.err("bad utf-8"))?
            .to_string())
    }

    fn ident(&mut self) -> Option<String> {
        let start = self.i;
        if !self
            .peek()
            .is_some_and(|c| c.is_ascii_lowercase() || c == b'_')
        {
            return None;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'-' || c == b'_')
        {
            self.i += 1;
        }
        Some(String::from_utf8_lossy(&self.b[start..self.i]).into_owned())
    }

    /// One value, at most [`MAX_NESTING`] levels deep.
    fn value(&mut self) -> KResult<Value> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("value nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let v = self.term();
        self.depth -= 1;
        v
    }

    fn term(&mut self) -> KResult<Value> {
        self.ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'{') => self.braces(),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(_) => {
                // keyword, variant, or (rejected) bare identifier
                let save = self.i;
                if self.b[self.i..].starts_with(b"TRUE") {
                    self.i += 4;
                    return Ok(Value::Bool(true));
                }
                if self.b[self.i..].starts_with(b"FALSE") {
                    self.i += 5;
                    return Ok(Value::Bool(false));
                }
                if self.b[self.i..].starts_with(b"NULL") {
                    self.i += 4;
                    return Ok(Value::Unit);
                }
                if self.b[self.i..].starts_with(b"ref ") {
                    self.i += 4;
                    self.ws();
                    let class = self.type_name()?;
                    self.ws();
                    let Value::Int(id) = self.number()? else {
                        return Err(self.err("expected object id"));
                    };
                    return Ok(Value::Ref(kleisli_core::Oid {
                        class: Arc::from(class.as_str()),
                        id: id as u64,
                    }));
                }
                match self.ident() {
                    Some(tag) => {
                        self.ws();
                        if self.peek() == Some(b':') {
                            self.i += 1;
                            let inner = self.value()?;
                            Ok(Value::Variant(Arc::from(tag.as_str()), Arc::new(inner)))
                        } else {
                            self.i = save;
                            Err(self.err(format!("bare identifier '{tag}'")))
                        }
                    }
                    None => Err(self.err("unexpected character")),
                }
            }
        }
    }

    fn string(&mut self) -> KResult<Arc<str>> {
        self.i += 1; // opening quote
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') if self.b.get(self.i + 1) == Some(&b'"') => {
                    s.push('"');
                    self.i += 2;
                }
                Some(b'"') => {
                    self.i += 1;
                    return Ok(Arc::from(s.as_str()));
                }
                Some(c) => {
                    s.push(c as char);
                    self.i += 1;
                }
            }
        }
    }

    fn number(&mut self) -> KResult<Value> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.i += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| self.err("utf-8"))?;
        if float {
            text.parse()
                .map(Value::Float)
                .map_err(|_| self.err(format!("bad float '{text}'")))
        } else {
            text.parse()
                .map(Value::Int)
                .map_err(|_| self.err(format!("bad int '{text}'")))
        }
    }

    /// `{ ... }` — record when entries look like `ident value`, variant
    /// payload lists otherwise (decoded as a list).
    fn braces(&mut self) -> KResult<Value> {
        self.i += 1; // {
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::list(vec![]));
        }
        // Lookahead: `ident <not-:>` starts a record field.
        let save = self.i;
        let is_record = match self.ident() {
            Some(_) => {
                self.ws();
                let c = self.peek();
                c != Some(b':') && c != Some(b',') && c != Some(b'}')
            }
            None => false,
        };
        self.i = save;
        if is_record {
            let mut fields = Vec::new();
            loop {
                self.ws();
                let name = self
                    .ident()
                    .ok_or_else(|| self.err("expected field name"))?;
                let v = self.value()?;
                fields.push((Arc::from(name.as_str()), v));
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(Value::record(fields));
                    }
                    _ => return Err(self.err("expected ',' or '}' in record")),
                }
            }
        }
        let mut elems = Vec::new();
        loop {
            let v = self.value()?;
            elems.push(v);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::list(elems));
                }
                _ => return Err(self.err("expected ',' or '}' in collection")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::record_from(vec![
            (
                "seq",
                Value::record_from(vec![
                    (
                        "id",
                        Value::list(vec![
                            Value::variant("giim", Value::Int(117_246)),
                            Value::variant("accession", Value::str("M81409")),
                        ]),
                    ),
                    ("descr", Value::str("Human perforin (PRF1) gene")),
                    ("length", Value::Int(1200)),
                ]),
            ),
            (
                "keywords",
                Value::list(vec![Value::str("Exons"), Value::str("Base Sequence")]),
            ),
        ])
    }

    #[test]
    fn roundtrip_entry() {
        let v = sample();
        let text = print_entry("Seq-entry", &v);
        let (name, back) = parse_entry(&text).unwrap();
        assert_eq!(name, "Seq-entry");
        assert_eq!(back, v);
    }

    #[test]
    fn roundtrip_scalars() {
        for v in [
            Value::Int(-5),
            Value::Bool(true),
            Value::Bool(false),
            Value::Unit,
            Value::str("with \"quotes\" inside"),
            Value::Float(2.5),
        ] {
            let text = print_value_string(&v);
            assert_eq!(parse_value(&text).unwrap(), v, "text: {text}");
        }
    }

    #[test]
    fn nesting_past_the_exchange_bound_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "{ ".repeat(n), "}".repeat(n));
        // What an executor worker has.
        let on_worker_stack = std::thread::Builder::new().stack_size(2 << 20);
        let parsed = on_worker_stack.spawn(move || {
            [MAX_NESTING, MAX_NESTING + 1, 100_000].map(|n| parse_value(&nested(n)))
        });
        let [deepest, one_past, far_past] = parsed.expect("spawned").join().expect("no overflow");
        assert!(deepest.is_ok(), "{deepest:?}");
        for e in [one_past, far_past] {
            let e = e.expect_err("past the bound");
            assert!(
                e.to_string().contains("nested deeper than 256 levels"),
                "{e}"
            );
        }
    }

    #[test]
    fn empty_braces_are_an_empty_list() {
        assert_eq!(parse_value("{ }").unwrap(), Value::list(vec![]));
    }

    #[test]
    fn variant_notation() {
        let v = Value::variant(
            "controlled",
            Value::variant("medline-jta", Value::str("J Immunol")),
        );
        let text = print_value_string(&v);
        assert_eq!(text, "controlled : medline-jta : \"J Immunol\"");
        assert_eq!(parse_value(&text).unwrap(), v);
    }

    #[test]
    fn comments_are_skipped() {
        let v = parse_value("{ title \"x\", -- Medline journal title\n year 1989 }").unwrap();
        assert_eq!(v.project("year"), Some(&Value::Int(1989)));
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(parse_value("{ title }").is_err());
        assert!(parse_value("\"unterminated").is_err());
        assert!(parse_value("{ 1, 2").is_err());
        assert!(parse_entry("Seq-entry = { }").is_err());
        assert!(parse_value("bare-ident").is_err());
    }

    #[test]
    fn object_references() {
        let v = Value::Ref(kleisli_core::Oid {
            class: Arc::from("Clone"),
            id: 9,
        });
        let text = print_value_string(&v);
        assert_eq!(parse_value(&text).unwrap(), v);
    }
}
