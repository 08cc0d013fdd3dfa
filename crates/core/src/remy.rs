//! Rémy's extensible-record representation, plus the homogeneous-projection
//! optimization described in Section 4 of the paper ("Optimizing
//! Projections").
//!
//! A record is a pair of (a pointer to a shared *directory*, an array of
//! field values). The directory maps a field name to the index of its value
//! in the array; **all records having the same set of fields share the same
//! directory**. Plain projection therefore costs a directory lookup per
//! record. When a collection is *homogeneous* (all records share one
//! directory) the offset can be computed once and reused — the paper reports
//! "a greater than two-fold improvement" from this; see
//! [`CachedProjector`] and `benches/remy_projection.rs`.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::value::Value;

/// A shared record directory: the sorted field names of a record shape and
/// the mapping from field name to slot offset.
pub struct Directory {
    /// Field names, sorted; slot `i` of a record holds the value of
    /// `names[i]`.
    names: Box<[Arc<str>]>,
    /// The directory's "magic number": a process-unique identity used to
    /// detect that two records share a directory without comparing names.
    magic: u64,
    /// Hash index for plain (non-homogeneous) projection.
    index: HashMap<Arc<str>, u32>,
}

impl Directory {
    /// The sorted field names of this record shape.
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// The directory's unique magic number.
    pub fn magic(&self) -> u64 {
        self.magic
    }

    /// Plain Rémy projection step 1: field name → slot offset.
    pub fn offset_of(&self, field: &str) -> Option<u32> {
        self.index.get(field).copied()
    }

    /// Number of fields.
    pub fn width(&self) -> usize {
        self.names.len()
    }
}

impl fmt::Debug for Directory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Directory#{}{:?}", self.magic, self.names)
    }
}

/// Interned directories keyed by their field-name shape, held weakly:
/// records of one shape share one directory while any of them lives, and
/// a shape no record uses any more leaves only a dead entry, pruned once
/// the map has doubled since the last prune. Shapes come from query text
/// and from peers' exchange text, not only from schemas, so holding them
/// strongly would keep every shape ever built resident. A shape built
/// again after its directory died gets a fresh one, with a fresh `magic`.
type DirMap = HashMap<Box<[Arc<str>]>, Weak<Directory>>;

/// The map's size below which it is never pruned.
const MIN_PRUNE: usize = 256;

struct Interner {
    dirs: Mutex<Dirs>,
    next_magic: AtomicU64,
}

struct Dirs {
    map: DirMap,
    /// The map's size after the last prune.
    pruned_to: usize,
}

fn interner() -> &'static Interner {
    use std::sync::OnceLock;
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        dirs: Mutex::new(Dirs {
            map: HashMap::new(),
            pruned_to: 0,
        }),
        next_magic: AtomicU64::new(1),
    })
}

/// Intern a directory for the given *sorted* field names.
fn intern(names: Box<[Arc<str>]>) -> Arc<Directory> {
    let it = interner();
    let mut dirs = it.dirs.lock();
    if let Some(d) = dirs.map.get(&names).and_then(Weak::upgrade) {
        return d;
    }
    let magic = it.next_magic.fetch_add(1, AtomicOrdering::Relaxed);
    let index = names
        .iter()
        .enumerate()
        .map(|(i, n)| (Arc::clone(n), i as u32))
        .collect();
    let dir = Arc::new(Directory {
        names: names.clone(),
        magic,
        index,
    });
    dirs.map.insert(names, Arc::downgrade(&dir));
    if dirs.map.len() >= MIN_PRUNE.max(2 * dirs.pruned_to) {
        dirs.map.retain(|_, d| d.strong_count() > 0);
        dirs.pruned_to = dirs.map.len();
    }
    dir
}

/// Entries in the directory interner, live or awaiting a prune
/// (diagnostics only).
pub fn interned_directory_count() -> usize {
    interner().dirs.lock().map.len()
}

/// A record value in Rémy representation.
#[derive(Clone)]
pub struct RemyRecord {
    dir: Arc<Directory>,
    fields: Arc<[Value]>,
}

impl RemyRecord {
    /// Build a record from `(field, value)` pairs. Later duplicates of a
    /// field name override earlier ones (useful when desugaring record
    /// extension); field order is irrelevant.
    pub fn new(mut fields: Vec<(Arc<str>, Value)>) -> RemyRecord {
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        // keep the *last* occurrence of each duplicated name
        let mut dedup: Vec<(Arc<str>, Value)> = Vec::with_capacity(fields.len());
        for (n, v) in fields {
            match dedup.last_mut() {
                Some((last, slot)) if **last == *n => *slot = v,
                _ => dedup.push((n, v)),
            }
        }
        let names: Box<[Arc<str>]> = dedup.iter().map(|(n, _)| Arc::clone(n)).collect();
        let dir = intern(names);
        let fields: Arc<[Value]> = dedup.into_iter().map(|(_, v)| v).collect();
        RemyRecord { dir, fields }
    }

    /// A record of `dir`'s shape from its values in directory order: no
    /// sort and no interning, for a caller holding the directory already.
    pub fn from_dir(dir: Arc<Directory>, values: impl IntoIterator<Item = Value>) -> RemyRecord {
        let fields: Arc<[Value]> = values.into_iter().collect();
        debug_assert_eq!(dir.width(), fields.len(), "one value per field");
        RemyRecord { dir, fields }
    }

    /// The empty record `[]`.
    pub fn empty() -> RemyRecord {
        RemyRecord::new(Vec::new())
    }

    /// The shared directory.
    pub fn dir(&self) -> &Arc<Directory> {
        &self.dir
    }

    /// The directory's magic number.
    pub fn magic(&self) -> u64 {
        self.dir.magic
    }

    /// Plain Rémy projection: directory lookup then array index.
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.dir.offset_of(field).map(|i| &self.fields[i as usize])
    }

    /// Projection by precomputed offset (step 2 only). The caller must have
    /// obtained `offset` from this record's directory.
    pub fn get_at(&self, offset: u32) -> &Value {
        &self.fields[offset as usize]
    }

    /// The field values in directory (sorted-name) order.
    pub fn values(&self) -> &[Value] {
        &self.fields
    }

    /// Number of fields.
    pub fn width(&self) -> usize {
        self.fields.len()
    }

    /// True when the record has the given field.
    pub fn has_field(&self, field: &str) -> bool {
        self.dir.offset_of(field).is_some()
    }

    /// Iterate `(name, value)` pairs in sorted-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &Value)> {
        self.dir.names.iter().zip(self.fields.iter())
    }

    /// A new record with `field` set to `value` (add or replace).
    pub fn with_field(&self, field: Arc<str>, value: Value) -> RemyRecord {
        let mut pairs: Vec<(Arc<str>, Value)> = self
            .iter()
            .map(|(n, v)| (Arc::clone(n), v.clone()))
            .collect();
        pairs.push((field, value));
        RemyRecord::new(pairs)
    }

    /// A new record without `field` (no-op if absent).
    pub fn without_field(&self, field: &str) -> RemyRecord {
        let pairs: Vec<(Arc<str>, Value)> = self
            .iter()
            .filter(|(n, _)| &***n != field)
            .map(|(n, v)| (Arc::clone(n), v.clone()))
            .collect();
        RemyRecord::new(pairs)
    }
}

impl PartialEq for RemyRecord {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for RemyRecord {}

impl Ord for RemyRecord {
    /// Records compare by their sorted `(name, value)` pairs, so field
    /// insertion order never matters.
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.dir, &other.dir) {
            // same shape: compare values slot-wise
            return self.fields.cmp(&other.fields);
        }
        let mut a = self.iter();
        let mut b = other.iter();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return Ordering::Equal,
                (None, Some(_)) => return Ordering::Less,
                (Some(_), None) => return Ordering::Greater,
                (Some((n1, v1)), Some((n2, v2))) => {
                    let c = n1.cmp(n2).then_with(|| v1.cmp(v2));
                    if c != Ordering::Equal {
                        return c;
                    }
                }
            }
        }
    }
}
impl PartialOrd for RemyRecord {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for RemyRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The homogeneous-projection fast path.
///
/// A `CachedProjector` remembers the `(magic, offset)` of the last directory
/// it resolved a field in. While scanning a homogeneous collection every
/// record shares one directory, so after the first record the projection is
/// a single integer comparison plus an array index — the optimization the
/// paper credits with a more-than-two-fold improvement over plain Rémy
/// projection.
#[derive(Debug, Clone)]
pub struct CachedProjector {
    field: Arc<str>,
    cached: Option<(u64, u32)>,
    /// Diagnostics: how often the cached offset was reused.
    hits: u64,
    misses: u64,
}

impl CachedProjector {
    /// A projector for the named field with a cold offset cache.
    pub fn new(field: impl AsRef<str>) -> CachedProjector {
        CachedProjector {
            field: Arc::from(field.as_ref()),
            cached: None,
            hits: 0,
            misses: 0,
        }
    }

    /// The field this projector extracts.
    pub fn field(&self) -> &str {
        &self.field
    }

    /// Project `self.field` out of `record`, reusing the cached offset when
    /// the record's directory matches the one seen last.
    #[inline]
    pub fn project<'a>(&mut self, record: &'a RemyRecord) -> Option<&'a Value> {
        let magic = record.magic();
        if let Some((m, off)) = self.cached {
            if m == magic {
                self.hits += 1;
                return Some(record.get_at(off));
            }
        }
        self.misses += 1;
        let off = record.dir().offset_of(&self.field)?;
        self.cached = Some((magic, off));
        Some(record.get_at(off))
    }

    /// `(cache hits, cache misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pairs: &[(&str, i64)]) -> RemyRecord {
        RemyRecord::new(
            pairs
                .iter()
                .map(|(n, v)| (Arc::from(*n), Value::Int(*v)))
                .collect(),
        )
    }

    #[test]
    fn same_shape_shares_directory() {
        let a = rec(&[("x", 1), ("y", 2)]);
        let b = rec(&[("y", 5), ("x", 4)]);
        assert!(Arc::ptr_eq(a.dir(), b.dir()));
        assert_eq!(a.magic(), b.magic());
    }

    #[test]
    fn different_shapes_get_different_directories() {
        let a = rec(&[("x", 1)]);
        let b = rec(&[("x", 1), ("y", 2)]);
        assert!(!Arc::ptr_eq(a.dir(), b.dir()));
        assert_ne!(a.magic(), b.magic());
    }

    #[test]
    fn projection_finds_fields() {
        let a = rec(&[("name", 1), ("age", 2), ("sex", 3)]);
        assert_eq!(a.get("age"), Some(&Value::Int(2)));
        assert_eq!(a.get("absent"), None);
        let off = a.dir().offset_of("sex").unwrap();
        assert_eq!(a.get_at(off), &Value::Int(3));
    }

    #[test]
    fn duplicate_fields_keep_last() {
        let r = RemyRecord::new(vec![
            (Arc::from("x"), Value::Int(1)),
            (Arc::from("x"), Value::Int(2)),
        ]);
        assert_eq!(r.width(), 1);
        assert_eq!(r.get("x"), Some(&Value::Int(2)));
    }

    #[test]
    fn with_and_without_field() {
        let r = rec(&[("x", 1)]);
        let r2 = r.with_field(Arc::from("y"), Value::Int(9));
        assert_eq!(r2.get("y"), Some(&Value::Int(9)));
        assert_eq!(r2.get("x"), Some(&Value::Int(1)));
        let r3 = r2.without_field("x");
        assert!(!r3.has_field("x"));
        assert_eq!(r3.width(), 1);
    }

    #[test]
    fn record_ordering_ignores_shape_sharing() {
        let a = rec(&[("x", 1), ("y", 2)]);
        let b = rec(&[("x", 1), ("y", 3)]);
        assert!(a < b);
        let c = rec(&[("x", 1)]);
        assert!(c < a); // prefix record sorts first
    }

    #[test]
    fn cached_projector_hits_on_homogeneous_scan() {
        let rows: Vec<RemyRecord> = (0..100).map(|i| rec(&[("k", i), ("v", i * 2)])).collect();
        let mut p = CachedProjector::new("v");
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(p.project(r), Some(&Value::Int(i as i64 * 2)));
        }
        let (hits, misses) = p.stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 99);
    }

    #[test]
    fn cached_projector_revalidates_on_heterogeneous_scan() {
        let a = rec(&[("v", 1)]);
        let b = rec(&[("v", 2), ("w", 0)]);
        let mut p = CachedProjector::new("v");
        assert_eq!(p.project(&a), Some(&Value::Int(1)));
        assert_eq!(p.project(&b), Some(&Value::Int(2)));
        assert_eq!(p.project(&a), Some(&Value::Int(1)));
        let (_, misses) = p.stats();
        assert_eq!(misses, 3); // directory changed every step
    }

    #[test]
    fn cached_projector_missing_field() {
        let a = rec(&[("x", 1)]);
        let mut p = CachedProjector::new("nope");
        assert_eq!(p.project(&a), None);
    }
}
