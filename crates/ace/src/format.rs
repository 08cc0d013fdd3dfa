//! The `.ace` bulk-load text format.
//!
//! ```text
//! Sequence : "seq-22-1"
//! Clone "c22-5"
//! Length 1200
//! Remark "cosmid walk"
//!
//! Clone : "c22-5"
//! Map "chr22"
//! ```
//!
//! Paragraphs are separated by blank lines; the first line names the
//! object (`Class : "name"`), following lines are `Tag value...` where a
//! value is a quoted string, a number, or `Class "name"` (a reference).
//! This is the format the paper says CPL generates "with the existing
//! machinery of CPL by applying the appropriate output reformatting
//! routines".

use kleisli_core::{KError, KResult, Value};

use crate::store::AceStore;

/// Parse `.ace` text into a store.
pub fn parse_ace(text: &str) -> KResult<AceStore> {
    let mut store = AceStore::new();
    for (pno, para) in paragraphs(text).into_iter().enumerate() {
        let mut lines = para.iter();
        let header = lines.next().expect("non-empty paragraph");
        let (class, name) = parse_header(header).ok_or_else(|| {
            KError::format("ace", format!("bad paragraph {pno} header: {header}"))
        })?;
        let mut tags: Vec<(String, Vec<Value>)> = Vec::new();
        for line in lines {
            let (tag, values) = parse_tag_line(line, &mut store)
                .ok_or_else(|| KError::format("ace", format!("bad tag line: {line}")))?;
            // repeated tag lines within a paragraph accumulate values
            match tags.iter_mut().find(|(t, _)| *t == tag) {
                Some((_, existing)) => existing.extend(values),
                None => tags.push((tag, values)),
            }
        }
        store.upsert(&class, &name, tags);
    }
    Ok(store)
}

/// Print a store as `.ace` text (stable order: class, then object name).
pub fn print_ace(store: &AceStore) -> String {
    let mut classes: Vec<&String> = store.classes().collect();
    classes.sort();
    let mut out = String::new();
    for class in classes {
        let mut objs: Vec<_> = store.class(class).iter().collect();
        objs.sort_by(|a, b| a.name.cmp(&b.name));
        for obj in objs {
            out.push_str(&format!("{class} : \"{}\"\n", obj.name));
            for (tag, values) in &obj.tags {
                for v in values {
                    out.push_str(tag);
                    out.push(' ');
                    match v {
                        Value::Str(s) => out.push_str(&format!("\"{s}\"")),
                        Value::Int(i) => out.push_str(&i.to_string()),
                        Value::Float(x) => out.push_str(&format!("{x:?}")),
                        Value::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
                        Value::Ref(oid) => {
                            // references print as Class "name"
                            let target = store
                                .deref(oid)
                                .ok()
                                .and_then(|t| t.project("name").cloned());
                            match target {
                                Some(Value::Str(n)) => {
                                    out.push_str(&format!("{} \"{}\"", oid.class, n))
                                }
                                _ => out.push_str(&format!("{} \"?{}\"", oid.class, oid.id)),
                            }
                        }
                        other => out.push_str(&format!("\"{other}\"")),
                    }
                    out.push('\n');
                }
            }
            out.push('\n');
        }
    }
    out
}

fn paragraphs(text: &str) -> Vec<Vec<&str>> {
    let mut out = Vec::new();
    let mut cur: Vec<&str> = Vec::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.trim().is_empty() {
            if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
        } else if !line.trim_start().starts_with("//") {
            cur.push(line);
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn parse_header(line: &str) -> Option<(String, String)> {
    let (class, rest) = line.split_once(':')?;
    let name = rest.trim().strip_prefix('"')?.strip_suffix('"')?;
    Some((class.trim().to_string(), name.to_string()))
}

fn parse_tag_line(line: &str, store: &mut AceStore) -> Option<(String, Vec<Value>)> {
    let mut rest = line.trim();
    let tag_end = rest.find(char::is_whitespace)?;
    let tag = rest[..tag_end].to_string();
    rest = rest[tag_end..].trim_start();
    let mut values = Vec::new();
    while !rest.is_empty() {
        if let Some(q) = rest.strip_prefix('"') {
            let end = q.find('"')?;
            values.push(Value::str(&q[..end]));
            rest = q[end + 1..].trim_start();
        } else {
            let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
            let word = &rest[..end];
            rest = rest[end..].trim_start();
            if let Ok(i) = word.parse::<i64>() {
                values.push(Value::Int(i));
            } else if let Ok(x) = word.parse::<f64>() {
                values.push(Value::Float(x));
            } else if word == "TRUE" {
                values.push(Value::Bool(true));
            } else if word == "FALSE" {
                values.push(Value::Bool(false));
            } else if word.chars().next().is_some_and(char::is_uppercase) {
                // `Class "name"` reference: consume the following string
                let q = rest.strip_prefix('"')?;
                let end = q.find('"')?;
                let name = &q[..end];
                rest = q[end + 1..].trim_start();
                values.push(store.reference(word, name));
            } else {
                return None;
            }
        }
    }
    Some((tag, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
Sequence : "seq-22-1"
Clone Clone "c22-5"
Length 1200
Remark "cosmid walk" "verified"

Clone : "c22-5"
Map "chr22"
"#;

    #[test]
    fn parse_paragraphs_and_references() {
        let store = parse_ace(SAMPLE).unwrap();
        assert_eq!(store.object_count(), 2);
        let seq = store.find("Sequence", "seq-22-1").unwrap().to_value();
        assert_eq!(seq.project("Length"), Some(&Value::Int(1200)));
        // the Clone tag is a reference
        let clone_ref = seq.project("Clone").unwrap();
        let Value::Ref(oid) = clone_ref else {
            panic!("expected a reference, got {clone_ref}");
        };
        let target = store.deref(oid).unwrap();
        assert_eq!(target.project("Map"), Some(&Value::str("chr22")));
        // multi-valued tag
        assert_eq!(
            seq.project("Remark"),
            Some(&Value::list(vec![
                Value::str("cosmid walk"),
                Value::str("verified")
            ]))
        );
    }

    #[test]
    fn roundtrip_through_print() {
        let store = parse_ace(SAMPLE).unwrap();
        let text = print_ace(&store);
        let store2 = parse_ace(&text).unwrap();
        assert_eq!(store2.object_count(), store.object_count());
        let a = store.find("Sequence", "seq-22-1").unwrap().to_value();
        let b = store2.find("Sequence", "seq-22-1").unwrap().to_value();
        // references get fresh oids on reparse; compare projected scalars
        assert_eq!(a.project("Length"), b.project("Length"));
        assert_eq!(a.project("Remark"), b.project("Remark"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "// header comment\n\nClone : \"c1\"\nLength 5\n\n\n";
        let store = parse_ace(text).unwrap();
        assert_eq!(store.object_count(), 1);
    }

    #[test]
    fn malformed_input_errors() {
        assert!(parse_ace("Clone \"missing colon\"\n").is_err());
        assert!(parse_ace("Clone : \"c\"\nTag \"unterminated\n").is_err());
    }
}
