//! Fuzz-style property tests: the flat-file parsers must return `Err` —
//! never panic — on arbitrary input, including multi-byte UTF-8 at every
//! position (the EMBL line-code `split_at(2)` used to panic when byte 2
//! fell inside a character), and the printers must reject (not slice
//! through) non-ASCII sequence values.

use bio_formats::{parse_embl, parse_fasta, parse_gcg, print_embl, print_fasta, print_gcg};
use kleisli_core::Value;
use proptest::prelude::*;

/// Soup of newlines, format-significant ASCII ("ID", "SQ", "//", ">",
/// "..", digits, separators) and 2/3-byte UTF-8 characters, so the
/// generated texts both wander deep into the parsers' state machines and
/// hit non-ASCII at arbitrary byte offsets.
fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec("[A-Za-z0-9;:./> é€µΩ中\n-]{0,12}", 0..8)
        .prop_map(|lines| lines.join("\n"))
}

/// Like [`soup`] but each chunk is prefixed by a plausible format line,
/// steering generation toward the interesting parse paths.
fn seeded_soup() -> impl Strategy<Value = String> {
    (
        prop_oneof![
            Just("ID   M81409; DNA; 4 BP.\n"),
            Just("SQ   Sequence 4 BP;\n"),
            Just(">id desc\n"),
            Just("X  Length: 4  Check: 0  ..\n"),
            Just("//\n"),
        ],
        soup(),
    )
        .prop_map(|(seed, tail)| format!("{seed}{tail}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parsers_never_panic_on_arbitrary_input(text in soup(), seeded in seeded_soup()) {
        for t in [&text, &seeded] {
            // Ok or Err are both acceptable; reaching here at all is the
            // property (a panic fails the test).
            let _ = parse_embl(t);
            let _ = parse_fasta(t);
            let _ = parse_gcg(t);
        }
    }

    #[test]
    fn printers_reject_non_ascii_sequences(seq in "[a-zé€Ω]{1,12}") {
        let record = Value::record_from(vec![
            ("id", Value::str("x")),
            ("description", Value::str("")),
            ("organism", Value::str("Homo sapiens")),
            ("length", Value::Int(seq.chars().count() as i64)),
            ("check", Value::Int(0)),
            ("sequence", Value::str(&seq)),
        ]);
        let coll = Value::list(vec![record.clone()]);
        if seq.is_ascii() {
            prop_assert!(print_fasta(&coll).is_ok());
            prop_assert!(print_embl(&coll).is_ok());
            prop_assert!(print_gcg(&record).is_ok());
        } else {
            prop_assert!(print_fasta(&coll).is_err());
            prop_assert!(print_embl(&coll).is_err());
            prop_assert!(print_gcg(&record).is_err());
        }
    }
}

/// The original panic, pinned: a line whose third byte is not a char
/// boundary must produce a format error, not a `split_at` panic.
#[test]
fn embl_multibyte_line_code_is_an_error_not_a_panic() {
    for text in [
        "€ID x\n//\n", // 3-byte char at byte 0: boundary at 3, not 2
        "I€D x\n//\n", // 3-byte char at byte 1: boundaries 1 and 4
        "中中中\n//\n",
        "é\n", // one 2-byte char: boundary at 2 == len, unknown code
    ] {
        assert!(parse_embl(text).is_err(), "must reject {text:?}");
    }
    // Byte 2 on a boundary still splits fine: "ID" + junk id parses.
    assert!(parse_embl("ID€  x\n//\n").is_ok());
}
