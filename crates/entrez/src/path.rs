//! Path extraction (Section 3 of the paper): "a terse description of
//! successive record projections, variant selections, and extractions of
//! elements from collections", applied **during the parse** of an ASN.1
//! value so that only the pruned result is shipped.
//!
//! Grammar: `[RootType] ('.' field | '..' tag)*`
//!
//! * `.field` projects a record field; applied to a collection it maps
//!   over the elements.
//! * `..tag` selects the payloads of variant elements carrying `tag`,
//!   dropping other tags — "a variant extraction for each element in the
//!   resulting set".
//!
//! The example from the paper: `Seq-entry.seq.id..giim`.

use kleisli_core::{KError, KResult, Value};

/// One path step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// `.field`
    Field(String),
    /// `..tag`
    Tag(String),
}

/// A parsed path expression.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Path {
    pub steps: Vec<Step>,
}

impl Path {
    /// Parse a path expression. A leading bare identifier (no dot) names
    /// the root type and is ignored for navigation.
    pub fn parse(text: &str) -> KResult<Path> {
        let mut rest = text.trim();
        if rest.is_empty() {
            return Ok(Path::default());
        }
        // strip optional root type name
        if !rest.starts_with('.') {
            match rest.find('.') {
                Some(i) => rest = &rest[i..],
                None => return Ok(Path::default()), // just a root name
            }
        }
        let mut steps = Vec::new();
        let b = rest.as_bytes();
        let mut i = 0;
        while i < b.len() {
            if b[i] != b'.' {
                return Err(KError::format(
                    "path",
                    format!("expected '.' at byte {i} of '{text}'"),
                ));
            }
            let tag = b.get(i + 1) == Some(&b'.');
            i += if tag { 2 } else { 1 };
            let start = i;
            while i < b.len() && b[i] != b'.' {
                i += 1;
            }
            if start == i {
                return Err(KError::format("path", format!("empty segment in '{text}'")));
            }
            let name = rest[start..i].to_string();
            steps.push(if tag {
                Step::Tag(name)
            } else {
                Step::Field(name)
            });
        }
        Ok(Path { steps })
    }

    /// Apply the path to a value. Collections are mapped over; `..tag`
    /// additionally filters to matching variants. Mapping over a
    /// collection flattens one level per step applied, matching the
    /// Entrez driver's behaviour of returning the set of extracted
    /// values.
    pub fn apply(&self, v: &Value) -> KResult<Value> {
        let mut cur = v.clone();
        for step in &self.steps {
            cur = apply_step(&cur, step)?;
        }
        Ok(cur)
    }
}

fn apply_step(v: &Value, step: &Step) -> KResult<Value> {
    match v {
        Value::Set(_) | Value::Bag(_) | Value::List(_) => {
            // map over elements, collecting into a set
            let mut out = Vec::new();
            for e in v.elements().expect("collection") {
                match apply_step(e, step) {
                    Ok(Value::Unit) => {} // dropped by a ..tag mismatch
                    Ok(r) => out.push(r),
                    Err(e) => return Err(e),
                }
            }
            Ok(Value::set(out))
        }
        Value::Record(r) => match step {
            Step::Field(f) => r
                .get(f)
                .cloned()
                .ok_or_else(|| KError::format("path", format!("record has no field '{f}'"))),
            Step::Tag(t) => Err(KError::format(
                "path",
                format!("'..{t}' applied to a record, expected a variant"),
            )),
        },
        Value::Variant(tag, inner) => match step {
            Step::Tag(t) if &**tag == t => Ok((**inner).clone()),
            Step::Tag(_) => Ok(Value::Unit), // dropped when inside a collection
            Step::Field(f) => Err(KError::format(
                "path",
                format!("'.{f}' applied to a variant, expected a record"),
            )),
        },
        other => Err(KError::format(
            "path",
            format!("path step applied to {}", other.kind_name()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Value {
        Value::record_from(vec![(
            "seq",
            Value::record_from(vec![(
                "id",
                Value::set(vec![
                    Value::variant("giim", Value::Int(117_246)),
                    Value::variant("accession", Value::str("M81409")),
                    Value::variant("giim", Value::Int(999)),
                ]),
            )]),
        )])
    }

    #[test]
    fn parses_the_papers_path() {
        let p = Path::parse("Seq-entry.seq.id..giim").unwrap();
        assert_eq!(
            p.steps,
            vec![
                Step::Field("seq".into()),
                Step::Field("id".into()),
                Step::Tag("giim".into())
            ]
        );
    }

    #[test]
    fn root_name_alone_is_identity() {
        let p = Path::parse("Seq-entry").unwrap();
        assert!(p.steps.is_empty());
        assert_eq!(p.apply(&entry()).unwrap(), entry());
    }

    #[test]
    fn applies_projections_and_variant_extraction() {
        let p = Path::parse("Seq-entry.seq.id..giim").unwrap();
        let got = p.apply(&entry()).unwrap();
        assert_eq!(got, Value::set(vec![Value::Int(117_246), Value::Int(999)]));
    }

    #[test]
    fn variant_mismatch_drops_elements() {
        let p = Path::parse(".seq.id..accession").unwrap();
        let got = p.apply(&entry()).unwrap();
        assert_eq!(got, Value::set(vec![Value::str("M81409")]));
    }

    #[test]
    fn missing_field_is_an_error() {
        let p = Path::parse(".nope").unwrap();
        assert!(p.apply(&entry()).is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(Path::parse(".seq..").is_err());
        assert!(Path::parse(".se q").is_ok()); // spaces allowed inside segment? no:
                                               // the above parses 'se q' as one segment name; navigation would just fail.
        assert!(Path::parse("...x").is_err());
    }

    #[test]
    fn pruning_reduces_size() {
        let p = Path::parse("Seq-entry.seq.id..giim").unwrap();
        let pruned = p.apply(&entry()).unwrap();
        assert!(pruned.approx_size() < entry().approx_size());
    }
}
