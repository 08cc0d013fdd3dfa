//! The complex-object value model of CPL/Kleisli.
//!
//! Values are arbitrarily nested combinations of base values, the three
//! collection kinds (set, bag, list), records, variants ("tagged unions"),
//! and object references. Sets and bags are kept in a *canonical* form
//! (sorted, and deduplicated for sets) so that structural equality and the
//! total order below coincide with the mathematical semantics.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::remy::RemyRecord;

/// The three collection type constructors of the CPL type system:
/// `{t}` (set), `{|t|}` (bag / multiset) and `[|t|]` (list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollKind {
    /// `{t}` — no duplicates, canonical element order.
    Set,
    /// `{|t|}` — duplicates kept, canonical element order.
    Bag,
    /// `[|t|]` — element order is data.
    List,
}

impl CollKind {
    /// Short lowercase name, used in error messages and the exchange format.
    pub fn name(self) -> &'static str {
        match self {
            CollKind::Set => "set",
            CollKind::Bag => "bag",
            CollKind::List => "list",
        }
    }

    /// Opening/closing brackets in CPL surface syntax.
    pub fn brackets(self) -> (&'static str, &'static str) {
        match self {
            CollKind::Set => ("{", "}"),
            CollKind::Bag => ("{|", "|}"),
            CollKind::List => ("[|", "|]"),
        }
    }
}

/// An object identity, as used by ACE-style object-oriented sources.
///
/// CPL can *dereference* and *pattern match* references but never create or
/// update them (Section 2 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid {
    /// The class the object belongs to (e.g. `"Clone"` in ACEDB).
    pub class: Arc<str>,
    /// Identifier unique within the class.
    pub id: u64,
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}:{}", self.class, self.id)
    }
}

/// A CPL complex-object value.
///
/// Collections hold their elements behind an [`Arc`] so that cloning a value
/// during interpretation is cheap; interior mutation is never performed.
#[derive(Debug, Clone)]
pub enum Value {
    /// The unit value `()`.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A string.
    Str(Arc<str>),
    /// Canonical set: elements sorted by the total order, no duplicates.
    Set(Arc<Vec<Value>>),
    /// Canonical bag: elements sorted by the total order, duplicates kept.
    Bag(Arc<Vec<Value>>),
    /// List: element order is significant.
    List(Arc<Vec<Value>>),
    /// A record in Rémy directory+array representation.
    Record(RemyRecord),
    /// A variant (tagged union) value `<tag = v>`.
    Variant(Arc<str>, Arc<Value>),
    /// An object reference.
    Ref(Oid),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build a canonical set from arbitrary elements (sorts and dedups).
    ///
    /// Already-ordered input (common for range-generated data and for
    /// elements coming out of another canonical set) skips the sort
    /// entirely; otherwise an unstable sort is used — equal elements are
    /// indistinguishable under the total order, so stability buys nothing,
    /// and `sort_unstable` avoids the stable sort's allocation.
    pub fn set(mut elems: Vec<Value>) -> Value {
        if !elems.is_sorted() {
            elems.sort_unstable();
        }
        elems.dedup();
        Value::Set(Arc::new(elems))
    }

    /// Build a canonical bag from arbitrary elements (sorts, keeps dups).
    /// Same fast path as [`Value::set`]: skip the sort when ordered, and
    /// sort unstably otherwise (duplicates compare equal, so the result
    /// is identical).
    pub fn bag(mut elems: Vec<Value>) -> Value {
        if !elems.is_sorted() {
            elems.sort_unstable();
        }
        Value::Bag(Arc::new(elems))
    }

    /// Build a list, preserving order.
    pub fn list(elems: Vec<Value>) -> Value {
        Value::List(Arc::new(elems))
    }

    /// Build a collection of the given kind, canonicalizing as needed.
    pub fn collection(kind: CollKind, elems: Vec<Value>) -> Value {
        match kind {
            CollKind::Set => Value::set(elems),
            CollKind::Bag => Value::bag(elems),
            CollKind::List => Value::list(elems),
        }
    }

    /// Build a record from `(field, value)` pairs (order irrelevant).
    pub fn record(fields: Vec<(Arc<str>, Value)>) -> Value {
        Value::Record(RemyRecord::new(fields))
    }

    /// Convenience: record from `&str` field names.
    pub fn record_from<I, S>(fields: I) -> Value
    where
        I: IntoIterator<Item = (S, Value)>,
        S: AsRef<str>,
    {
        Value::Record(RemyRecord::new(
            fields
                .into_iter()
                .map(|(n, v)| (Arc::from(n.as_ref()), v))
                .collect(),
        ))
    }

    /// Build a variant value `<tag = v>`.
    pub fn variant(tag: impl AsRef<str>, v: Value) -> Value {
        Value::Variant(Arc::from(tag.as_ref()), Arc::new(v))
    }

    /// The empty collection of the given kind.
    pub fn empty(kind: CollKind) -> Value {
        Value::collection(kind, Vec::new())
    }

    /// If this is a collection, its kind.
    pub fn coll_kind(&self) -> Option<CollKind> {
        match self {
            Value::Set(_) => Some(CollKind::Set),
            Value::Bag(_) => Some(CollKind::Bag),
            Value::List(_) => Some(CollKind::List),
            _ => None,
        }
    }

    /// Elements of a collection value, if it is one.
    pub fn elements(&self) -> Option<&[Value]> {
        match self {
            Value::Set(v) | Value::Bag(v) | Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Number of elements of a collection (sets count distinct elements).
    pub fn len(&self) -> Option<usize> {
        self.elements().map(<[Value]>::len)
    }

    /// Emptiness of a collection value ([`Value::len`]'s counterpart);
    /// `None` when the value is not a collection.
    pub fn is_empty(&self) -> Option<bool> {
        self.len().map(|n| n == 0)
    }

    /// True when the value is an empty collection.
    pub fn is_empty_coll(&self) -> bool {
        self.elements().map(<[Value]>::is_empty).unwrap_or(false)
    }

    /// Project a record field.
    pub fn project(&self, field: &str) -> Option<&Value> {
        match self {
            Value::Record(r) => r.get(field),
            _ => None,
        }
    }

    /// A one-word description of the value's shape, for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Set(_) => "set",
            Value::Bag(_) => "bag",
            Value::List(_) => "list",
            Value::Record(_) => "record",
            Value::Variant(..) => "variant",
            Value::Ref(_) => "ref",
        }
    }

    /// Approximate *in-memory* footprint of this value in bytes, deeply:
    /// one enum-sized node per stored value plus the heap its spine owns
    /// (string bytes, collection element arrays, record fields, boxed
    /// variant payloads). This is the sizing function the memory-accounted
    /// caches use for their byte budgets, so its contract is *monotone and
    /// deterministic*, not exact: nesting and content can only grow it,
    /// and the same value always sizes the same. Shared `Arc` spines are
    /// counted at every occurrence (deliberately — a cache that evicts a
    /// value must assume it was the last owner).
    ///
    /// Distinct from [`Value::approx_size`], which estimates the
    /// *serialized* wire size for driver traffic accounting.
    pub fn approx_bytes(&self) -> u64 {
        // Each stored Value occupies one enum slot wherever it lives (a
        // collection's Vec, a record's field array, a variant's box).
        let node = std::mem::size_of::<Value>() as u64;
        node + self.heap_bytes()
    }

    /// The heap owned beyond the enum slot itself ([`Value::approx_bytes`]
    /// without the node cost).
    fn heap_bytes(&self) -> u64 {
        match self {
            Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Float(_) => 0,
            Value::Str(s) => s.len() as u64,
            Value::Set(es) | Value::Bag(es) | Value::List(es) => {
                es.iter().map(Value::approx_bytes).sum::<u64>()
            }
            Value::Record(r) => r
                .iter()
                .map(|(n, v)| n.len() as u64 + v.approx_bytes())
                .sum::<u64>(),
            Value::Variant(t, v) => t.len() as u64 + v.approx_bytes(),
            Value::Ref(o) => o.class.len() as u64 + 8,
        }
    }

    /// Rough serialized size in bytes, used by drivers to account for
    /// "bytes shipped" and by the optimizer's cost model.
    pub fn approx_size(&self) -> u64 {
        match self {
            Value::Unit | Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => 8 + s.len() as u64,
            Value::Set(es) | Value::Bag(es) | Value::List(es) => {
                8 + es.iter().map(Value::approx_size).sum::<u64>()
            }
            Value::Record(r) => {
                8 + r
                    .iter()
                    .map(|(n, v)| n.len() as u64 + v.approx_size())
                    .sum::<u64>()
            }
            Value::Variant(t, v) => t.len() as u64 + v.approx_size(),
            Value::Ref(_) => 16,
        }
    }
}

/// Rank used to order values of different shapes.
fn rank(v: &Value) -> u8 {
    match v {
        Value::Unit => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Str(_) => 4,
        Value::Set(_) => 5,
        Value::Bag(_) => 6,
        Value::List(_) => 7,
        Value::Record(_) => 8,
        Value::Variant(..) => 9,
        Value::Ref(_) => 10,
    }
}

impl Ord for Value {
    /// A total order over all values. Numbers of different kinds do *not*
    /// compare equal (`1` and `1.0` are distinct values); floats are ordered
    /// by `total_cmp`. This order is what keeps sets and bags canonical.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Unit, Unit) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Set(a), Set(b)) | (Bag(a), Bag(b)) | (List(a), List(b)) => a.cmp(b),
            (Record(a), Record(b)) => a.cmp(b),
            (Variant(t1, v1), Variant(t2, v2)) => t1.cmp(t2).then_with(|| v1.cmp(v2)),
            (Ref(a), Ref(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        rank(self).hash(state);
        match self {
            Value::Unit => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Set(es) | Value::Bag(es) | Value::List(es) => {
                es.len().hash(state);
                for e in es.iter() {
                    e.hash(state);
                }
            }
            Value::Record(r) => {
                for (n, v) in r.iter() {
                    n.hash(state);
                    v.hash(state);
                }
            }
            Value::Variant(t, v) => {
                t.hash(state);
                v.hash(state);
            }
            Value::Ref(o) => o.hash(state),
        }
    }
}

impl fmt::Display for Value {
    /// Values display in CPL surface syntax (see [`crate::print`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::print::write_cpl(f, self)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn set_canonicalizes_order_and_duplicates() {
        let a = Value::set(vec![v(3), v(1), v(2), v(1)]);
        let b = Value::set(vec![v(1), v(2), v(3)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), Some(3));
    }

    #[test]
    fn presorted_input_takes_the_no_sort_path() {
        // Same canonical result whether the input was sorted or not.
        let sorted = Value::set((0..100).map(v).collect());
        let shuffled = Value::set((0..100).rev().map(v).collect());
        assert_eq!(sorted, shuffled);
        let sorted = Value::bag(vec![v(1), v(1), v(2)]);
        let shuffled = Value::bag(vec![v(2), v(1), v(1)]);
        assert_eq!(sorted, shuffled);
    }

    #[test]
    fn bag_keeps_duplicates_but_not_order() {
        let a = Value::bag(vec![v(2), v(1), v(2)]);
        let b = Value::bag(vec![v(2), v(2), v(1)]);
        let c = Value::bag(vec![v(1), v(2)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), Some(3));
    }

    #[test]
    fn list_is_order_sensitive() {
        let a = Value::list(vec![v(1), v(2)]);
        let b = Value::list(vec![v(2), v(1)]);
        assert_ne!(a, b);
    }

    #[test]
    fn record_field_order_is_irrelevant() {
        let a = Value::record_from(vec![("x", v(1)), ("y", v(2))]);
        let b = Value::record_from(vec![("y", v(2)), ("x", v(1))]);
        assert_eq!(a, b);
        assert_eq!(a.project("y"), Some(&v(2)));
        assert_eq!(a.project("z"), None);
    }

    #[test]
    fn variant_ordering_is_tag_then_value() {
        let a = Value::variant("alpha", v(9));
        let b = Value::variant("beta", v(0));
        assert!(a < b);
        let c = Value::variant("alpha", v(10));
        assert!(a < c);
    }

    #[test]
    fn distinct_numeric_kinds_are_distinct_values() {
        assert_ne!(Value::Int(1), Value::Float(1.0));
    }

    #[test]
    fn float_total_order_handles_nan_and_zero() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        // NaN has a consistent position in the total order.
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_ne!(nan, one);
        assert_ne!(Value::Float(-0.0), Value::Float(0.0));
    }

    #[test]
    fn nested_sets_compare_structurally() {
        let a = Value::set(vec![Value::set(vec![v(1)]), Value::set(vec![v(2)])]);
        let b = Value::set(vec![Value::set(vec![v(2)]), Value::set(vec![v(1)])]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_collection_checks() {
        assert!(Value::empty(CollKind::Set).is_empty_coll());
        assert!(!v(3).is_empty_coll());
        assert_eq!(Value::empty(CollKind::List).coll_kind(), Some(CollKind::List));
    }

    #[test]
    fn approx_bytes_counts_nodes_and_heap() {
        let node = std::mem::size_of::<Value>() as u64;
        assert_eq!(v(1).approx_bytes(), node);
        assert_eq!(Value::Unit.approx_bytes(), node);
        assert_eq!(Value::str("abcd").approx_bytes(), node + 4);
        // A collection costs its own node plus one node per element.
        let set = Value::set(vec![v(1), v(2), v(3)]);
        assert_eq!(set.approx_bytes(), node * 4);
        // Record fields pay field-name bytes plus the value.
        let rec = Value::record_from(vec![("k", v(1)), ("name", Value::str("xy"))]);
        assert_eq!(rec.approx_bytes(), node + (1 + node) + (4 + node + 2));
        // Variants pay the tag plus the boxed payload.
        let var = Value::variant("tag", v(7));
        assert_eq!(var.approx_bytes(), node + 3 + node);
    }

    #[test]
    fn approx_bytes_is_monotone_in_content() {
        let small = Value::set(vec![v(1)]);
        let bigger = Value::set(vec![v(1), v(2)]);
        let nested = Value::set(vec![small.clone(), bigger.clone()]);
        assert!(bigger.approx_bytes() > small.approx_bytes());
        assert!(nested.approx_bytes() > bigger.approx_bytes());
        let short = Value::str("a");
        let long = Value::str("a much longer string payload");
        assert!(long.approx_bytes() > short.approx_bytes());
    }

    #[test]
    fn approx_bytes_is_deterministic_and_at_least_wire_size() {
        let v = Value::set(vec![
            Value::record_from(vec![
                ("id", Value::Int(7)),
                ("seq", Value::str("ACGTACGT")),
                ("refs", Value::list(vec![Value::Int(1), Value::Int(2)])),
            ]),
            Value::variant("missing", Value::Unit),
        ]);
        assert_eq!(v.approx_bytes(), v.approx_bytes());
        // In-memory footprint dominates the compact wire estimate for
        // structured data (enum slots are wider than serialized scalars).
        assert!(v.approx_bytes() >= v.approx_size());
    }

    #[test]
    fn approx_size_grows_with_content() {
        let small = Value::set(vec![v(1)]);
        let big = Value::set(vec![v(1), Value::str("a long string value here")]);
        assert!(big.approx_size() > small.approx_size());
    }
}
