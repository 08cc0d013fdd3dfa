//! Property tests for the foundations everything else relies on: the
//! total order over values (what keeps sets/bags canonical), record
//! shape-sharing, and the token / exchange-format round-trips.

use std::sync::Arc;

use kleisli_core::{
    detokenize, read_exchange, tokenize, write_exchange, write_exchange_into, Oid, Token, Value,
};
use proptest::prelude::*;

/// The exchange text as the token stream spells it, one `format!` per
/// token — the definition the direct writer is checked against.
fn exchange_by_tokens(v: &Value) -> String {
    fn escape(s: &str) -> String {
        s.replace('\\', "\\\\")
            .replace('\n', "\\n")
            .replace('\r', "\\r")
    }
    let mut out = String::new();
    for t in tokenize(v) {
        out.push_str(&match t {
            Token::Unit => "U\n".to_string(),
            Token::Bool(b) => format!("B {}\n", u8::from(b)),
            Token::Int(i) => format!("I {i}\n"),
            Token::Float(x) => format!("F {:016x}\n", x.to_bits()),
            Token::Str(s) => format!("S {}\n", escape(&s)),
            Token::StartColl(k) => format!("C {}\n", k.name()),
            Token::EndColl => "c\n".to_string(),
            Token::StartRecord => "R\n".to_string(),
            Token::Field(n) => format!("L {}\n", escape(&n)),
            Token::EndRecord => "r\n".to_string(),
            Token::StartVariant(t) => format!("V {}\n", escape(&t)),
            Token::EndVariant => "v\n".to_string(),
            Token::Ref(o) => format!("O {} {}\n", escape(&o.class), o.id),
        });
    }
    out
}

/// An arbitrary value, nesting up to `depth`.
fn value(depth: u32) -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        // floats include specials; ordering uses total_cmp
        prop_oneof![
            (-1e6f64..1e6).prop_map(Value::Float),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(f64::INFINITY)),
            Just(Value::Float(-0.0)),
        ],
        "[a-zA-Z0-9 _.-]{0,12}".prop_map(Value::str),
        // every character the exchange format escapes, and a non-ASCII one
        "[ab\\\n\ré]{0,6}".prop_map(Value::str),
        any::<i64>().prop_map(Value::Int),
        (0u64..50).prop_map(|id| Value::Ref(Oid {
            class: Arc::from("Clone"),
            id,
        })),
        any::<u64>().prop_map(|id| Value::Ref(Oid {
            class: Arc::from("a\\b c\n"),
            id,
        })),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = value(depth - 1);
    prop_oneof![
        4 => leaf,
        1 => proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::set),
        1 => proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::bag),
        1 => proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::list),
        1 => proptest::collection::vec(("[a-c]{1}", inner.clone()), 0..4)
            .prop_map(Value::record_from),
        1 => ("[a-z]{1,6}", inner).prop_map(|(t, v)| Value::variant(t, v)),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn ordering_is_total_and_consistent(a in value(3), b in value(3), c in value(3)) {
        use std::cmp::Ordering::*;
        // antisymmetry
        match a.cmp(&b) {
            Less => prop_assert_eq!(b.cmp(&a), Greater),
            Greater => prop_assert_eq!(b.cmp(&a), Less),
            Equal => {
                prop_assert_eq!(b.cmp(&a), Equal);
                prop_assert_eq!(&a, &b);
            }
        }
        // transitivity (the ≤ direction)
        if a <= b && b <= c {
            prop_assert!(a <= c, "{a} <= {b} <= {c}");
        }
        // reflexivity
        prop_assert_eq!(a.cmp(&a), Equal);
    }

    #[test]
    fn equal_values_hash_equally(a in value(3), b in value(3)) {
        use std::hash::{Hash, Hasher};
        fn h(v: &Value) -> u64 {
            let mut s = std::collections::hash_map::DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    #[test]
    fn set_construction_is_canonical(xs in proptest::collection::vec(value(2), 0..8)) {
        let s1 = Value::set(xs.clone());
        let mut rev = xs.clone();
        rev.reverse();
        let s2 = Value::set(rev);
        prop_assert_eq!(&s1, &s2, "element order must not matter");
        let doubled = Value::set(xs.iter().cloned().chain(xs.iter().cloned()).collect());
        prop_assert_eq!(&s1, &doubled, "duplicates must not matter");
        // elements are strictly increasing
        if let Some(es) = s1.elements() {
            for w in es.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn bag_construction_is_order_insensitive(xs in proptest::collection::vec(value(2), 0..8)) {
        let b1 = Value::bag(xs.clone());
        let mut rev = xs.clone();
        rev.reverse();
        prop_assert_eq!(&b1, &Value::bag(rev));
        prop_assert_eq!(b1.len(), Some(xs.len()), "bags keep multiplicity");
    }

    #[test]
    fn tokenize_roundtrip(v in value(4)) {
        let mut toks = tokenize(&v);
        let back = detokenize(&mut toks).expect("detokenize");
        prop_assert_eq!(&back, &v);
        prop_assert!(toks.next().is_none(), "no trailing tokens");
    }

    #[test]
    fn direct_writer_is_byte_identical_to_the_token_stream(v in value(4)) {
        let by_tokens = exchange_by_tokens(&v);
        prop_assert_eq!(&write_exchange(&v), &by_tokens);
        let mut bytes = Vec::new();
        prop_assert!(write_exchange_into(&v, &mut bytes), "an unbounded sink never stops the walk");
        prop_assert_eq!(bytes, by_tokens.into_bytes());
    }

    #[test]
    fn exchange_text_roundtrip(v in value(4)) {
        let text = write_exchange(&v);
        let back = read_exchange(&text).expect("read_exchange");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn records_with_same_fields_share_directories(
        vals1 in proptest::collection::vec(value(1), 3),
        vals2 in proptest::collection::vec(value(1), 3),
    ) {
        let fields = ["alpha", "beta", "gamma"];
        let r1 = Value::record_from(fields.iter().zip(vals1).map(|(n, v)| (*n, v)));
        let r2 = Value::record_from(fields.iter().zip(vals2).map(|(n, v)| (*n, v)));
        let (Value::Record(a), Value::Record(b)) = (&r1, &r2) else {
            unreachable!()
        };
        prop_assert_eq!(a.magic(), b.magic(), "same shape, same directory");
    }

    #[test]
    fn approx_size_is_monotone_in_nesting(v in value(2)) {
        let wrapped = Value::set(vec![v.clone()]);
        prop_assert!(wrapped.approx_size() >= v.approx_size());
    }
}
