//! Generator for the `Publication` type printed in the paper's
//! introduction: title, author list, variant-typed journal, volume/issue/
//! year/pages, abstract, and keyword set.

use rand::Rng;

use kleisli_core::Value;

use crate::s;

const JOURNALS: [&str; 5] = [
    "J Immunol",
    "Nucleic Acids Research",
    "Nature",
    "Cell",
    "Genomics",
];

const SURNAMES: [&str; 8] = [
    "Lichtenheld",
    "Podack",
    "Buneman",
    "Davidson",
    "Hart",
    "Overton",
    "Wong",
    "Smith",
];

const KEYWORDS: [&str; 7] = [
    "Amino Acid Sequence",
    "Base Sequence",
    "Exons",
    "Genes, Structural",
    "Chromosome 22",
    "Human Genome Project",
    "Sequence Homology",
];

const TOPICS: [&str; 6] = [
    "the human perforin gene",
    "cosmid contigs on chromosome 22q11",
    "a transcription map of the DiGeorge region",
    "immunoglobulin lambda variable genes",
    "a yeast artificial chromosome library",
    "long-range restriction mapping",
];

/// Generate `n` publication records with the paper's `Publication` type.
/// Journals follow the variant structure: roughly a third `uncontrolled`
/// (free-text, the informal review process) and the rest `controlled`
/// with a nested variant choosing among `medline-jta`, `iso-jta`,
/// `journal-title` and `issn`.
pub fn publications(n: usize, seed: u64) -> Value {
    let mut rng = crate::rng(seed);
    let mut pubs = Vec::with_capacity(n);
    for i in 0..n {
        let topic = TOPICS[rng.gen_range(0..TOPICS.len())];
        let journal = if rng.gen_ratio(1, 3) {
            Value::variant(
                "uncontrolled",
                s(format!(
                    "{} lab report",
                    SURNAMES[rng.gen_range(0..SURNAMES.len())]
                )),
            )
        } else {
            let name = JOURNALS[rng.gen_range(0..JOURNALS.len())];
            let inner = match rng.gen_range(0..4) {
                0 => Value::variant("medline-jta", s(name)),
                1 => Value::variant("iso-jta", s(name)),
                2 => Value::variant("journal-title", s(name)),
                _ => Value::variant("issn", s(format!("00{:02}-{:04}", i % 100, 1000 + i))),
            };
            Value::variant("controlled", inner)
        };
        let n_authors = rng.gen_range(1..4);
        let authors = Value::list(
            (0..n_authors)
                .map(|a| {
                    Value::record_from(vec![
                        ("name", s(SURNAMES[(i + a) % SURNAMES.len()])),
                        (
                            "initial",
                            s(format!("{}", (b'A' + ((i + a) % 26) as u8) as char)),
                        ),
                    ])
                })
                .collect(),
        );
        let n_kw = rng.gen_range(1..4);
        let keywd = Value::set(
            (0..n_kw)
                .map(|_| s(KEYWORDS[rng.gen_range(0..KEYWORDS.len())]))
                .collect(),
        );
        pubs.push(Value::record_from(vec![
            ("title", s(format!("Structure of {topic} ({i})"))),
            ("authors", authors),
            ("journal", journal),
            ("volume", s(format!("{}", 100 + i % 80))),
            ("issue", s(format!("{}", 1 + i % 12))),
            ("year", Value::Int(1985 + (i % 10) as i64)),
            ("pages", s(format!("{}-{}", 4000 + i, 4008 + i))),
            ("abstract", s(format!("We have cloned {topic}."))),
            ("keywd", keywd),
        ]));
    }
    Value::set(pubs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleisli_core::Type;

    #[test]
    fn publications_conform_to_the_papers_type() {
        let ty = Type::set(Type::Record(
            vec![
                (std::sync::Arc::from("title"), Type::Str),
                (
                    std::sync::Arc::from("authors"),
                    Type::list(Type::record(vec![
                        ("name", Type::Str),
                        ("initial", Type::Str),
                    ])),
                ),
                (
                    std::sync::Arc::from("journal"),
                    Type::variant(vec![
                        ("uncontrolled", Type::Str),
                        (
                            "controlled",
                            Type::Variant(
                                vec![
                                    (std::sync::Arc::from("medline-jta"), Type::Str),
                                    (std::sync::Arc::from("iso-jta"), Type::Str),
                                    (std::sync::Arc::from("journal-title"), Type::Str),
                                    (std::sync::Arc::from("issn"), Type::Str),
                                ],
                                false,
                            ),
                        ),
                    ]),
                ),
                (std::sync::Arc::from("year"), Type::Int),
                (std::sync::Arc::from("keywd"), Type::set(Type::Str)),
            ],
            true,
        ));
        let pubs = publications(50, 42);
        assert!(ty.admits(&pubs), "generated publications violate the type");
        assert_eq!(pubs.len(), Some(50));
    }

    #[test]
    fn journals_cover_both_variants() {
        let pubs = publications(100, 7);
        let mut uncontrolled = 0;
        let mut controlled = 0;
        for p in pubs.elements().unwrap() {
            match p.project("journal") {
                Some(Value::Variant(tag, _)) if &**tag == "uncontrolled" => uncontrolled += 1,
                Some(Value::Variant(tag, _)) if &**tag == "controlled" => controlled += 1,
                other => panic!("unexpected journal {other:?}"),
            }
        }
        assert!(uncontrolled > 10);
        assert!(controlled > 10);
    }
}
