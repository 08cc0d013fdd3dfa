//! EMBL flat-file format (two-letter line codes):
//!
//! ```text
//! ID   M81409; DNA; 1200 BP.
//! DE   Human perforin (PRF1) gene.
//! OS   Homo sapiens
//! KW   Exons; Base Sequence.
//! SQ   Sequence 16 BP;
//!      ACGTACGTAC GTACGT
//! //
//! ```
//!
//! Maps to records `[id, description, organism, keywords: {string},
//! sequence]`.

use std::fmt::Write as _;

use kleisli_core::{KError, KResult, Value};

/// Parse EMBL text (one or more entries terminated by `//`).
pub fn parse_embl(text: &str) -> KResult<Value> {
    let mut entries = Vec::new();
    let mut id = String::new();
    let mut de = String::new();
    let mut os = String::new();
    let mut kw: Vec<String> = Vec::new();
    let mut seq = String::new();
    let mut in_seq = false;
    let mut saw_any = false;
    for (lno, line) in text.lines().enumerate() {
        let lno = lno + 1;
        if line.starts_with("//") {
            if id.is_empty() {
                return Err(KError::format(
                    "embl",
                    format!("entry terminated on line {lno} without an ID line"),
                ));
            }
            entries.push(Value::record_from(vec![
                ("id", Value::str(std::mem::take(&mut id))),
                ("description", Value::str(std::mem::take(&mut de))),
                ("organism", Value::str(std::mem::take(&mut os))),
                (
                    "keywords",
                    Value::set(kw.drain(..).map(Value::str).collect()),
                ),
                ("sequence", Value::str(std::mem::take(&mut seq))),
            ]));
            in_seq = false;
            saw_any = true;
            continue;
        }
        if in_seq {
            for c in line.chars() {
                if c.is_ascii_alphabetic() {
                    seq.push(c.to_ascii_uppercase());
                } else if !c.is_whitespace() && !c.is_ascii_digit() {
                    return Err(KError::format(
                        "embl",
                        format!("invalid sequence character '{c}' on line {lno}"),
                    ));
                }
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        // Line codes are two ASCII letters. On arbitrary (UTF-8) input the
        // byte index 2 can fall inside a multi-byte character, where
        // `split_at` would panic — report a format error instead.
        let cut = line.len().min(2);
        if !line.is_char_boundary(cut) {
            return Err(KError::format(
                "embl",
                format!("line {lno} does not start with an ASCII line code"),
            ));
        }
        let (code, rest) = line.split_at(cut);
        let rest = rest.trim_start();
        match code {
            "ID" => {
                id = rest
                    .split([';', ' '])
                    .next()
                    .unwrap_or_default()
                    .to_string();
                if id.is_empty() {
                    return Err(KError::format("embl", format!("empty ID on line {lno}")));
                }
            }
            "DE" => {
                if !de.is_empty() {
                    de.push(' ');
                }
                de.push_str(rest.trim_end_matches('.'));
            }
            "OS" => os = rest.to_string(),
            "KW" => {
                for k in rest.trim_end_matches('.').split(';') {
                    let k = k.trim();
                    if !k.is_empty() {
                        kw.push(k.to_string());
                    }
                }
            }
            "SQ" => in_seq = true,
            "XX" | "AC" | "DT" | "OC" | "RN" | "RT" | "RA" | "RL" | "FH" | "FT" | "CC" => {}
            other => {
                return Err(KError::format(
                    "embl",
                    format!("unknown line code '{other}' on line {lno}"),
                ))
            }
        }
    }
    if !saw_any && !id.is_empty() {
        return Err(KError::format("embl", "missing final // terminator"));
    }
    Ok(Value::list(entries))
}

/// Print entries as EMBL text.
pub fn print_embl(v: &Value) -> KResult<String> {
    let entries = v
        .elements()
        .ok_or_else(|| KError::format("embl", "expected a collection of records"))?;
    let mut out = String::new();
    for e in entries {
        let get_str = |f: &str| match e.project(f) {
            Some(Value::Str(s)) => Ok(s.to_string()),
            _ => Err(KError::format(
                "embl",
                format!("missing string field '{f}'"),
            )),
        };
        let id = get_str("id")?;
        let seq = get_str("sequence")?;
        if !seq.is_ascii() {
            // The 60-column wrap below slices at byte offsets.
            return Err(KError::format(
                "embl",
                format!("sequence of '{id}' contains non-ASCII characters"),
            ));
        }
        let _ = writeln!(out, "ID   {id}; DNA; {} BP.", seq.len());
        let _ = writeln!(out, "DE   {}.", get_str("description")?);
        let _ = writeln!(out, "OS   {}", get_str("organism")?);
        if let Some(kws) = e.project("keywords").and_then(Value::elements) {
            if !kws.is_empty() {
                let names: Vec<String> = kws
                    .iter()
                    .map(|k| match k {
                        Value::Str(s) => s.to_string(),
                        other => other.to_string(),
                    })
                    .collect();
                let _ = writeln!(out, "KW   {}.", names.join("; "));
            }
        }
        let _ = writeln!(out, "SQ   Sequence {} BP;", seq.len());
        for chunk in seq.as_bytes().chunks(60) {
            let _ = writeln!(out, "     {}", std::str::from_utf8(chunk).expect("ascii"));
        }
        let _ = writeln!(out, "//");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "ID   M81409; DNA; 16 BP.\nDE   Human perforin gene.\nOS   Homo sapiens\nKW   Exons; Base Sequence.\nSQ   Sequence 16 BP;\n     ACGTACGTAC GTACGT\n//\n";

    #[test]
    fn parse_entry() {
        let v = parse_embl(SAMPLE).unwrap();
        assert_eq!(v.len(), Some(1));
        let e = &v.elements().unwrap()[0];
        assert_eq!(e.project("id"), Some(&Value::str("M81409")));
        assert_eq!(e.project("organism"), Some(&Value::str("Homo sapiens")));
        assert_eq!(
            e.project("keywords"),
            Some(&Value::set(vec![
                Value::str("Base Sequence"),
                Value::str("Exons")
            ]))
        );
        assert_eq!(e.project("sequence"), Some(&Value::str("ACGTACGTACGTACGT")));
    }

    #[test]
    fn roundtrip() {
        let v = parse_embl(SAMPLE).unwrap();
        let text = print_embl(&v).unwrap();
        assert_eq!(parse_embl(&text).unwrap(), v);
    }

    #[test]
    fn multiple_entries() {
        let text = format!("{SAMPLE}{SAMPLE}");
        let v = parse_embl(&text).unwrap();
        assert_eq!(v.len(), Some(2));
    }

    #[test]
    fn errors() {
        assert!(parse_embl("DE   no id\n//\n").is_err());
        assert!(parse_embl("ZZ   bogus code\n//\n").is_err());
        assert!(parse_embl("ID   X;\nSQ  ;\nAC!GT\n//\n").is_err());
    }
}
