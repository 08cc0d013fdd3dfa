//! Experiment E12: every query printed in Section 2 of the paper, run
//! through the full session pipeline (parse → typecheck → optimize →
//! execute), with the equivalences the paper states checked exactly.

use kleisli::Session;
use kleisli_core::Value;

fn session() -> Session {
    let mut s = Session::new();
    s.bind_value("DB", bio_data::publications(60, 1995));
    s
}

#[test]
fn projection_and_its_pattern_form_agree() {
    let s = session();
    // "the example below, which is equivalent to the one above"
    let a = s
        .query(r"{[title = p.title, authors = p.authors] | \p <- DB}")
        .unwrap();
    let b = s
        .query(r"{[title = t, authors = a] | [title = \t, authors = \a, ...] <- DB}")
        .unwrap();
    assert_eq!(a, b);
    assert_eq!(a.len(), Some(60));
}

#[test]
fn filter_and_literal_pattern_forms_agree() {
    let s = session();
    // "Also, the following queries are equivalent:"
    let a = s
        .query(
            r"{[title = t, authors = a] |
               [title = \t, authors = \a, year = \y, ...] <- DB, y = 1988}",
        )
        .unwrap();
    let b = s
        .query(
            r"{[title = t, authors = a] |
               [title = \t, authors = \a, year = 1988, ...] <- DB}",
        )
        .unwrap();
    assert_eq!(a, b);
    assert!(!a.is_empty_coll(), "the generator places papers in 1988");
}

#[test]
fn flatten_produces_title_keyword_pairs() {
    let s = session();
    let flat = s
        .query(r"{[title = t, keyword = k] | [title = \t, keywd = \kk, ...] <- DB, \k <- kk}")
        .unwrap();
    // row count equals the number of distinct (title, keyword) pairs
    let mut expected = 0;
    let db = s.query(r"{p | \p <- DB}").unwrap();
    for p in db.elements().unwrap() {
        expected += p.project("keywd").unwrap().len().unwrap();
    }
    assert_eq!(flat.len(), Some(expected));
}

#[test]
fn keyword_inversion_covers_every_keyword_and_title() {
    let s = session();
    let inverted = s
        .query(
            r"{[keyword = k, titles = {x.title | \x <- DB, k <- x.keywd}] |
               \y <- DB, \k <- y.keywd}",
        )
        .unwrap();
    // every keyword of every publication appears, with its title listed
    let db = s.query(r"{p | \p <- DB}").unwrap();
    for p in db.elements().unwrap() {
        let title = p.project("title").unwrap();
        for k in p.project("keywd").unwrap().elements().unwrap() {
            let row = inverted
                .elements()
                .unwrap()
                .iter()
                .find(|r| r.project("keyword") == Some(k))
                .unwrap_or_else(|| panic!("keyword {k} missing"));
            let titles = row.project("titles").unwrap().elements().unwrap();
            assert!(titles.contains(title), "{title} missing under {k}");
        }
    }
}

#[test]
fn jname_collapses_every_journal_variant() {
    let mut s = session();
    s.run(
        r"define jname ==
              <uncontrolled = \s> => s
            | <controlled = <medline-jta = \s>> => s
            | <controlled = <iso-jta = \s>> => s
            | <controlled = <journal-title = \s>> => s
            | <controlled = <issn = \s>> => s;",
    )
    .unwrap();
    let v = s
        .query(r"{[title = t, name = jname(v)] | [title = \t, journal = \v, ...] <- DB}")
        .unwrap();
    assert_eq!(v.len(), Some(60), "every publication gets a journal name");
    for row in v.elements().unwrap() {
        assert!(matches!(row.project("name"), Some(Value::Str(_))));
    }
}

#[test]
fn tag_preserving_transformation() {
    // "A more sophisticated transformation could preserve the tag
    // information from the variant structure in an additional attribute."
    let mut s = session();
    s.run(
        r#"define jtag == <uncontrolled = \s> => "uncontrolled"
                        | <controlled = \c> => "controlled";"#,
    )
    .unwrap();
    let v = s
        .query(r"{[tag = jtag(p.journal)] | \p <- DB}")
        .unwrap();
    let tags: Vec<&Value> = v.elements().unwrap().iter().collect();
    assert!(tags.len() <= 2);
    assert!(tags
        .iter()
        .all(|t| t.project("tag") == Some(&Value::str("controlled"))
            || t.project("tag") == Some(&Value::str("uncontrolled"))));
}

#[test]
fn papers_of_uses_list_membership() {
    let mut s = session();
    s.run(r"define papers-of == \x => {p | \p <- DB, x <- p.authors};")
        .unwrap();
    // pick an actual author from the data, then query by it
    let db = s.query(r"{p | \p <- DB}").unwrap();
    let some_author = db.elements().unwrap()[0]
        .project("authors")
        .unwrap()
        .elements()
        .unwrap()[0]
        .clone();
    s.bind_value("A", some_author.clone());
    let found = s.query(r"papers-of(A)").unwrap();
    assert!(!found.is_empty_coll());
    for p in found.elements().unwrap() {
        let authors = p.project("authors").unwrap().elements().unwrap();
        assert!(authors.contains(&some_author));
    }
}

#[test]
fn nested_result_types_are_inferred() {
    let s = session();
    let compiled = s
        .compile_shared(r"{[keyword = k, titles = {x.title | \x <- DB, k <- x.keywd}] | \y <- DB, \k <- y.keywd}")
        .unwrap();
    let t = compiled.ty.to_string();
    assert!(
        t.contains("titles: {string}"),
        "nested relation type inferred: {t}"
    );
}
