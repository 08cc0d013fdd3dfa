//! In-memory relational storage: typed tables, hash indexes, statistics.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use kleisli_core::{KError, KResult, TableStats, Value};

/// A relational datum (no NULLs — the GDB extracts the paper queries are
/// fully populated).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Datum {
    Int(i64),
    Str(Arc<str>),
    Bool(bool),
    /// Floats ordered by total order so data can be indexed.
    Float(FloatOrd),
}

/// Total-ordered f64 wrapper.
#[derive(Debug, Clone, Copy)]
pub struct FloatOrd(pub f64);

impl PartialEq for FloatOrd {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for FloatOrd {}
impl PartialOrd for FloatOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FloatOrd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl std::hash::Hash for FloatOrd {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl Datum {
    pub fn str(s: impl AsRef<str>) -> Datum {
        Datum::Str(Arc::from(s.as_ref()))
    }

    pub fn float(x: f64) -> Datum {
        Datum::Float(FloatOrd(x))
    }

    /// Convert to a Kleisli value.
    pub fn to_value(&self) -> Value {
        match self {
            Datum::Int(i) => Value::Int(*i),
            Datum::Str(s) => Value::Str(Arc::clone(s)),
            Datum::Bool(b) => Value::Bool(*b),
            Datum::Float(x) => Value::Float(x.0),
        }
    }

    /// Convert from a Kleisli base value.
    pub fn from_value(v: &Value) -> KResult<Datum> {
        match v {
            Value::Int(i) => Ok(Datum::Int(*i)),
            Value::Str(s) => Ok(Datum::Str(Arc::clone(s))),
            Value::Bool(b) => Ok(Datum::Bool(*b)),
            Value::Float(x) => Ok(Datum::Float(FloatOrd(*x))),
            other => Err(KError::format(
                "sql",
                format!("non-relational value {}", other.kind_name()),
            )),
        }
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Datum::Int(_) => "int",
            Datum::Str(_) => "string",
            Datum::Bool(_) => "bool",
            Datum::Float(_) => "float",
        }
    }
}

/// A row is a boxed slice of datums in schema order.
pub type Row = Arc<[Datum]>;

/// A table: schema, rows, and optional hash indexes per column. Rows and
/// indexes change only through [`Table::insert`] and
/// [`Table::create_index`], which is what lets [`Table::stats`] be
/// remembered between them.
#[derive(Debug, Default)]
pub struct Table {
    pub name: String,
    pub(crate) columns: Vec<String>,
    pub(crate) rows: Vec<Row>,
    /// column → datum → row ids
    indexes: HashMap<String, HashMap<Datum, Vec<usize>>>,
    /// The statistics of the current rows and indexes, computed by the
    /// first [`Table::stats`] after a mutation.
    stats: OnceLock<TableStats>,
}

impl Table {
    pub fn new(name: impl Into<String>, columns: Vec<String>) -> Table {
        Table {
            name: name.into(),
            columns,
            rows: Vec::new(),
            indexes: HashMap::new(),
            stats: OnceLock::new(),
        }
    }

    /// The rows, in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub fn col_index(&self, col: &str) -> KResult<usize> {
        self.columns
            .iter()
            .position(|c| c == col)
            .ok_or_else(|| {
                KError::format(
                    "sql",
                    format!("table '{}' has no column '{col}'", self.name),
                )
            })
    }

    pub fn insert(&mut self, row: Vec<Datum>) -> KResult<()> {
        if row.len() != self.columns.len() {
            return Err(KError::format(
                "sql",
                format!(
                    "row width {} does not match table '{}' ({} columns)",
                    row.len(),
                    self.name,
                    self.columns.len()
                ),
            ));
        }
        let row: Row = row.into();
        let id = self.rows.len();
        for (col, index) in &mut self.indexes {
            let ci = self
                .columns
                .iter()
                .position(|c| c == col)
                .expect("indexed column exists");
            index.entry(row[ci].clone()).or_default().push(id);
        }
        self.rows.push(row);
        self.stats.take();
        Ok(())
    }

    /// Build (or rebuild) a hash index on a column — the server-side
    /// "pre-computed indexes" the optimizer's pushdown exploits.
    pub fn create_index(&mut self, col: &str) -> KResult<()> {
        let ci = self.col_index(col)?;
        let mut index: HashMap<Datum, Vec<usize>> = HashMap::new();
        for (id, row) in self.rows.iter().enumerate() {
            index.entry(row[ci].clone()).or_default().push(id);
        }
        self.indexes.insert(col.to_string(), index);
        self.stats.take();
        Ok(())
    }

    pub fn index_lookup(&self, col: &str, key: &Datum) -> Option<&[usize]> {
        self.indexes
            .get(col)
            .map(|ix| ix.get(key).map(|v| v.as_slice()).unwrap_or(&[]))
    }

    pub fn has_index(&self, col: &str) -> bool {
        self.indexes.contains_key(col)
    }

    /// Row count, schema, indexed columns and distinct counts. The scan
    /// over every row and column runs once per mutation, not per call:
    /// the optimizer asks on every cold compile.
    pub fn stats(&self) -> &TableStats {
        self.stats.get_or_init(|| self.compute_stats())
    }

    fn compute_stats(&self) -> TableStats {
        let mut distinct = BTreeMap::new();
        for (ci, col) in self.columns.iter().enumerate() {
            let seen: HashSet<&Datum> = self.rows.iter().map(|row| &row[ci]).collect();
            distinct.insert(col.clone(), seen.len() as u64);
        }
        // Sorted: hash-map order differs between tables and processes,
        // and equal tables must have equal statistics.
        let mut indexed_columns: Vec<String> = self.indexes.keys().cloned().collect();
        indexed_columns.sort();
        TableStats {
            rows: self.rows.len() as u64,
            columns: self.columns.clone(),
            indexed_columns,
            distinct,
        }
    }

    /// A row as a Kleisli record.
    pub fn row_value(&self, row: &Row) -> Value {
        Value::record(
            self.columns
                .iter()
                .zip(row.iter())
                .map(|(c, d)| (Arc::from(c.as_str()), d.to_value()))
                .collect(),
        )
    }
}

/// A named collection of tables.
#[derive(Debug, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    pub fn create_table(&mut self, name: &str, columns: &[&str]) -> KResult<()> {
        if self.tables.contains_key(name) {
            return Err(KError::format("sql", format!("table '{name}' exists")));
        }
        self.tables.insert(
            name.to_string(),
            Table::new(name, columns.iter().map(|c| c.to_string()).collect()),
        );
        Ok(())
    }

    pub fn table(&self, name: &str) -> KResult<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| KError::format("sql", format!("no such table '{name}'")))
    }

    pub fn table_mut(&mut self, name: &str) -> KResult<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| KError::format("sql", format!("no such table '{name}'")))
    }

    pub fn table_names(&self) -> impl Iterator<Item = &String> {
        self.tables.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("locus", vec!["locus_id".into(), "locus_symbol".into()]);
        for i in 0..10 {
            t.insert(vec![Datum::Int(i), Datum::str(format!("SYM{i}"))])
                .unwrap();
        }
        t
    }

    #[test]
    fn insert_and_stats() {
        let t = sample();
        let s = t.stats();
        assert_eq!(s.rows, 10);
        assert_eq!(s.columns, vec!["locus_id", "locus_symbol"]);
        assert_eq!(s.distinct["locus_id"], 10);
    }

    #[test]
    fn stats_are_remembered_until_the_next_mutation() {
        let mut t = sample();
        let before = t.stats().clone();
        assert!(
            std::ptr::eq(t.stats(), t.stats()),
            "no mutation in between: the same snapshot, no second scan"
        );
        t.insert(vec![Datum::Int(3), Datum::str("DUP")]).unwrap();
        t.create_index("locus_symbol").unwrap();
        let after = t.stats();
        assert_ne!(*after, before);
        assert_eq!(
            *after,
            t.compute_stats(),
            "equal to a from-scratch recomputation"
        );
        assert_eq!(after.rows, 11);
        assert_eq!(after.distinct["locus_id"], 10);
        assert_eq!(after.indexed_columns, vec!["locus_symbol"]);
    }

    #[test]
    fn indexed_columns_are_reported_in_one_order() {
        // Every index order, several tables each: a hash map's key order
        // differs per map, so unsorted statistics disagree within a few.
        for order in [["a", "b", "c"], ["c", "a", "b"], ["b", "c", "a"]] {
            for _ in 0..8 {
                let mut t = Table::new("t", vec!["a".into(), "b".into(), "c".into()]);
                t.insert(vec![Datum::Int(1), Datum::Int(2), Datum::Int(3)])
                    .unwrap();
                for col in order {
                    t.create_index(col).unwrap();
                }
                assert_eq!(t.stats().indexed_columns, ["a", "b", "c"]);
            }
        }
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut t = sample();
        assert!(t.insert(vec![Datum::Int(1)]).is_err());
    }

    #[test]
    fn index_lookup_after_and_before_inserts() {
        let mut t = sample();
        t.create_index("locus_id").unwrap();
        assert_eq!(t.index_lookup("locus_id", &Datum::Int(3)).unwrap(), &[3]);
        // inserts keep the index current
        t.insert(vec![Datum::Int(3), Datum::str("DUP")]).unwrap();
        assert_eq!(
            t.index_lookup("locus_id", &Datum::Int(3)).unwrap(),
            &[3, 10]
        );
        assert!(t.index_lookup("locus_id", &Datum::Int(99)).unwrap().is_empty());
        assert!(t.index_lookup("locus_symbol", &Datum::str("SYM1")).is_none());
    }

    #[test]
    fn row_value_is_a_record() {
        let t = sample();
        let v = t.row_value(&t.rows[2]);
        assert_eq!(v.project("locus_id"), Some(&Value::Int(2)));
        assert_eq!(v.project("locus_symbol"), Some(&Value::str("SYM2")));
    }

    #[test]
    fn database_catalog() {
        let mut db = Database::new();
        db.create_table("a", &["x"]).unwrap();
        assert!(db.create_table("a", &["x"]).is_err());
        assert!(db.table("a").is_ok());
        assert!(db.table("b").is_err());
    }

    #[test]
    fn datum_value_roundtrip() {
        for d in [
            Datum::Int(5),
            Datum::str("s"),
            Datum::Bool(true),
            Datum::float(2.5),
        ] {
            assert_eq!(Datum::from_value(&d.to_value()).unwrap(), d);
        }
        assert!(Datum::from_value(&Value::set(vec![])).is_err());
    }
}
