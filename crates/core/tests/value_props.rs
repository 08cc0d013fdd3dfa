//! Property tests for the foundations everything else relies on: the
//! total order over values (what keeps sets/bags canonical), record
//! shape-sharing, and the exchange-format writer and round-trip.

use std::sync::Arc;

use kleisli_core::{read_exchange, write_exchange, write_exchange_into, Oid, Value};
use proptest::prelude::*;

/// The exchange text spelled from the format's definition (`core::token`'s
/// module docs), one `format!` per line — the definition the direct
/// writer is checked against.
fn exchange_by_tokens(v: &Value) -> String {
    fn escape(s: &str) -> String {
        s.replace('\\', "\\\\")
            .replace('\n', "\\n")
            .replace('\r', "\\r")
    }
    match v {
        Value::Unit => "U\n".to_string(),
        Value::Bool(b) => format!("B {}\n", u8::from(*b)),
        Value::Int(i) => format!("I {i}\n"),
        Value::Float(x) => format!("F {:016x}\n", x.to_bits()),
        Value::Str(s) => format!("S {}\n", escape(s)),
        Value::Set(es) | Value::Bag(es) | Value::List(es) => {
            let kind = v.coll_kind().expect("a collection").name();
            let elems: String = es.iter().map(exchange_by_tokens).collect();
            format!("C {kind}\n{elems}c\n")
        }
        Value::Record(r) => {
            let field = |(n, fv): (&Arc<str>, &Value)| {
                format!("L {}\n{}", escape(n), exchange_by_tokens(fv))
            };
            format!("R\n{}r\n", r.iter().map(field).collect::<String>())
        }
        Value::Variant(t, inner) => format!("V {}\n{}v\n", escape(t), exchange_by_tokens(inner)),
        Value::Ref(o) => format!("O {} {}\n", escape(&o.class), o.id),
    }
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

/// Exchange text the writer never writes but the reader takes, with the
/// value `Value::record` — one `RemyRecord::new` per record — builds from
/// it: field names in any order and repeated, from a pool of five, so that
/// records side by side switch shape mid-record, in lists and records
/// nested up to `depth`. Two names of the pool are a backslash and an `n`,
/// and a newline, whose line spells the first one's name unescaped.
fn raw_records(depth: u32) -> BoxedStrategy<(String, Value)> {
    let leaf = (-9i64..9).prop_map(|i| (format!("I {i}\n"), Value::Int(i))).boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = raw_records(depth - 1);
    let name = prop_oneof![Just("a"), Just("b"), Just("c"), Just("\\n"), Just("\n")];
    let record = proptest::collection::vec((name, inner.clone()), 0..5).prop_map(|fields| {
        let mut text = "R\n".to_string();
        for (name, (field, _)) in &fields {
            let escaped = name.replace('\\', "\\\\").replace('\n', "\\n");
            text += &format!("L {escaped}\n{field}");
        }
        let fields = fields.into_iter().map(|(name, (_, v))| (Arc::from(name), v));
        (text + "r\n", Value::record(fields.collect()))
    });
    let list = proptest::collection::vec(inner, 0..6).prop_map(|elems| {
        let text: String = elems.iter().map(|(text, _)| text.as_str()).collect();
        let list = Value::list(elems.into_iter().map(|(_, v)| v).collect());
        (format!("C list\n{text}c\n"), list)
    });
    prop_oneof![1 => leaf, 2 => record, 2 => list].boxed()
}

/// Whether every record of `a` has the very directory of its counterpart
/// in `b` (`a == b` holds already).
fn same_directories(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Record(x), Value::Record(y)) => {
            Arc::ptr_eq(x.dir(), y.dir())
                && x.values().iter().zip(y.values()).all(|(a, b)| same_directories(a, b))
        }
        (Value::List(xs), Value::List(ys)) => {
            xs.iter().zip(ys.iter()).all(|(a, b)| same_directories(a, b))
        }
        _ => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_record_read_from_the_last_shape_is_the_record_built_anew(case in raw_records(3)) {
        let (text, built) = case;
        let read = read_exchange(&text).expect("read_exchange");
        prop_assert_eq!(&read, &built);
        prop_assert!(same_directories(&read, &built), "{text}");
    }

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

/// A record shape no record uses any more does not stay resident: shapes
/// come from query text and peers' exchange text, so the directory
/// interner holds them weakly and prunes the dead ones as it grows.
#[test]
fn dropped_record_shapes_do_not_stay_interned() {
    let bound = 512;
    for i in 0..10_000 {
        let built = Value::record_from(vec![(format!("built_{i}").as_str(), Value::Int(i))]);
        drop(built);
        let text = format!("R\nL read_{i}\nI {i}\nr\n");
        drop(read_exchange(&text).expect("a record"));
        let count = kleisli_core::remy::interned_directory_count();
        assert!(count < bound, "{count} directories interned after {i} shapes");
    }
    // Live records of one shape still share one directory.
    let a = Value::record_from(vec![("kept", Value::Int(1))]);
    let b = read_exchange("R\nL kept\nI 2\nr\n").expect("a record");
    let (Value::Record(a), Value::Record(b)) = (&a, &b) else {
        unreachable!()
    };
    assert_eq!(a.magic(), b.magic());
}
