//! The query planner/executor and the network-facing server (the
//! `Source` the Kleisli system serves and registers as "GDB").

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use kleisli_core::remote::row_ranges;
use kleisli_core::{
    BatchPolicy, Capabilities, DriverRequest, KError, KResult, LatencyModel, Remote,
    ResiliencePolicy, Source, TableStats, Value,
};

use crate::sql::{self, CmpOp, ColRef, Operand, Pred, Query, SelectList};
use crate::storage::{Database, Datum, Row};

/// A column resolved to (table position in FROM, column position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Resolved {
    table: usize,
    col: usize,
}

struct Binder<'a> {
    tables: Vec<(&'a str, &'a crate::storage::Table)>,
}

impl<'a> Binder<'a> {
    fn resolve(&self, c: &ColRef) -> KResult<Resolved> {
        match &c.qualifier {
            Some(q) => {
                let (ti, (_, t)) = self
                    .tables
                    .iter()
                    .enumerate()
                    .find(|(_, (alias, _))| *alias == q.as_str())
                    .ok_or_else(|| KError::format("sql", format!("unknown table alias '{q}'")))?;
                Ok(Resolved {
                    table: ti,
                    col: t.col_index(&c.column)?,
                })
            }
            None => {
                let mut hits = Vec::new();
                for (ti, (_, t)) in self.tables.iter().enumerate() {
                    if let Ok(ci) = t.col_index(&c.column) {
                        hits.push(Resolved { table: ti, col: ci });
                    }
                }
                match hits.as_slice() {
                    [one] => Ok(*one),
                    [] => Err(KError::format(
                        "sql",
                        format!("unknown column '{}'", c.column),
                    )),
                    _ => Err(KError::format(
                        "sql",
                        format!("ambiguous column '{}'", c.column),
                    )),
                }
            }
        }
    }
}

#[derive(Debug)]
enum BoundOperand {
    Col(Resolved),
    Lit(Datum),
}

#[derive(Debug)]
struct BoundPred {
    lhs: BoundOperand,
    op: CmpOp,
    rhs: BoundOperand,
}

impl BoundPred {
    fn tables(&self) -> Vec<usize> {
        let mut out = Vec::new();
        if let BoundOperand::Col(r) = &self.lhs {
            out.push(r.table);
        }
        if let BoundOperand::Col(r) = &self.rhs {
            out.push(r.table);
        }
        out
    }
}

/// Execute a parsed query against the database, returning result records.
pub fn execute_query(db: &Database, q: &Query) -> KResult<Vec<Value>> {
    let mut tables = Vec::new();
    for (tname, alias) in &q.from {
        tables.push((alias.as_str(), db.table(tname)?));
    }
    {
        let mut seen = std::collections::HashSet::new();
        for (alias, _) in &tables {
            if !seen.insert(*alias) {
                return Err(KError::format("sql", format!("duplicate alias '{alias}'")));
            }
        }
    }
    let binder = Binder {
        tables: tables.clone(),
    };
    let preds: Vec<BoundPred> = q
        .preds
        .iter()
        .map(|p| bind_pred(&binder, p))
        .collect::<KResult<_>>()?;

    // Select-list resolution.
    let items: Vec<(String, Resolved)> = match &q.select {
        SelectList::Star => {
            if tables.len() != 1 {
                return Err(KError::format(
                    "sql",
                    "select * is only supported for single-table queries",
                ));
            }
            tables[0]
                .1
                .columns
                .iter()
                .enumerate()
                .map(|(ci, c)| (c.clone(), Resolved { table: 0, col: ci }))
                .collect()
        }
        SelectList::Items(items) => items
            .iter()
            .map(|it| Ok((it.output.clone(), binder.resolve(&it.column)?)))
            .collect::<KResult<_>>()?,
    };

    // --- plan: per-table filtered candidates ---
    let n = tables.len();
    let mut candidates: Vec<Vec<Row>> = Vec::with_capacity(n);
    for ti in 0..n {
        candidates.push(filter_single(ti, &tables, &preds));
    }

    // --- join order: smallest candidate first, then connected tables ---
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    remaining.sort_by_key(|&ti| candidates[ti].len());
    while !remaining.is_empty() {
        let next = remaining
            .iter()
            .position(|&ti| {
                order.is_empty()
                    || preds.iter().any(|p| {
                        let ts = p.tables();
                        ts.contains(&ti) && ts.iter().any(|t| order.contains(t))
                    })
            })
            .unwrap_or(0);
        order.push(remaining.remove(next));
    }

    // --- execute joins progressively ---
    // A partial tuple holds Option<Row> per FROM position.
    let first = order[0];
    let mut tuples: Vec<Vec<Option<Row>>> = candidates[first]
        .iter()
        .map(|r| {
            let mut t = vec![None; n];
            t[first] = Some(r.clone());
            t
        })
        .collect();
    let mut placed = vec![first];

    for &ti in &order[1..] {
        // equality predicates linking ti to placed tables → hash join keys
        let mut key_pairs: Vec<(Resolved, Resolved)> = Vec::new(); // (placed, new)
        for p in &preds {
            if p.op != CmpOp::Eq {
                continue;
            }
            if let (BoundOperand::Col(a), BoundOperand::Col(b)) = (&p.lhs, &p.rhs) {
                if placed.contains(&a.table) && b.table == ti {
                    key_pairs.push((*a, *b));
                } else if placed.contains(&b.table) && a.table == ti {
                    key_pairs.push((*b, *a));
                }
            }
        }
        let new_rows = &candidates[ti];
        let mut next: Vec<Vec<Option<Row>>> = Vec::new();
        if !key_pairs.is_empty() {
            // hash join on composite key
            let mut index: HashMap<Vec<Datum>, Vec<&Row>> = HashMap::new();
            for r in new_rows {
                let key: Vec<Datum> = key_pairs.iter().map(|(_, b)| r[b.col].clone()).collect();
                index.entry(key).or_default().push(r);
            }
            for tup in &tuples {
                let key: Vec<Datum> = key_pairs
                    .iter()
                    .map(|(a, _)| tup[a.table].as_ref().expect("placed")[a.col].clone())
                    .collect();
                if let Some(matches) = index.get(&key) {
                    for r in matches {
                        let mut t2 = tup.clone();
                        t2[ti] = Some((*r).clone());
                        next.push(t2);
                    }
                }
            }
        } else {
            // nested loop (cross product); residual predicates filter below
            for tup in &tuples {
                for r in new_rows {
                    let mut t2 = tup.clone();
                    t2[ti] = Some(r.clone());
                    next.push(t2);
                }
            }
        }
        placed.push(ti);
        // apply every predicate now fully bound within `placed`
        tuples = next
            .into_iter()
            .filter(|tup| {
                preds.iter().all(|p| {
                    let ts = p.tables();
                    if ts.iter().all(|t| placed.contains(t)) {
                        eval_pred(p, tup)
                    } else {
                        true
                    }
                })
            })
            .collect();
    }
    // single-table queries: predicates already applied by filter_single;
    // multi-column preds over one table too. Apply any remaining
    // cross-table predicates (already done above) — finally project.
    if n == 1 {
        tuples.retain(|tup| preds.iter().all(|p| eval_pred(p, tup)));
    }

    let out = tuples
        .into_iter()
        .map(|tup| {
            Value::record(
                items
                    .iter()
                    .map(|(name, r)| {
                        (
                            Arc::from(name.as_str()),
                            tup[r.table].as_ref().expect("placed")[r.col].to_value(),
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    Ok(out)
}

fn bind_pred(binder: &Binder<'_>, p: &Pred) -> KResult<BoundPred> {
    let bind_op = |o: &Operand| -> KResult<BoundOperand> {
        Ok(match o {
            Operand::Col(c) => BoundOperand::Col(binder.resolve(c)?),
            Operand::Lit(d) => BoundOperand::Lit(d.clone()),
        })
    };
    Ok(BoundPred {
        lhs: bind_op(&p.lhs)?,
        op: p.op,
        rhs: bind_op(&p.rhs)?,
    })
}

/// Rows of table `ti` passing all single-table predicates, using a hash
/// index for equality predicates when one exists.
fn filter_single(
    ti: usize,
    tables: &[(&str, &crate::storage::Table)],
    preds: &[BoundPred],
) -> Vec<Row> {
    let table = tables[ti].1;
    let local: Vec<&BoundPred> = preds
        .iter()
        .filter(|p| {
            let ts = p.tables();
            !ts.is_empty() && ts.iter().all(|&t| t == ti)
        })
        .collect();
    // Try an indexed equality lookup first.
    for p in &local {
        if p.op != CmpOp::Eq {
            continue;
        }
        let (col, lit) = match (&p.lhs, &p.rhs) {
            (BoundOperand::Col(r), BoundOperand::Lit(d)) if r.table == ti => (r.col, d),
            (BoundOperand::Lit(d), BoundOperand::Col(r)) if r.table == ti => (r.col, d),
            _ => continue,
        };
        let col_name = &table.columns[col];
        if let Some(ids) = table.index_lookup(col_name, lit) {
            return ids
                .iter()
                .map(|&id| table.rows[id].clone())
                .filter(|row| local.iter().all(|p| eval_single(p, ti, row)))
                .collect();
        }
    }
    table
        .rows
        .iter()
        .filter(|row| local.iter().all(|p| eval_single(p, ti, row)))
        .cloned()
        .collect()
}

fn eval_single(p: &BoundPred, ti: usize, row: &Row) -> bool {
    let get = |o: &BoundOperand| -> Datum {
        match o {
            BoundOperand::Col(r) => {
                debug_assert_eq!(r.table, ti);
                row[r.col].clone()
            }
            BoundOperand::Lit(d) => d.clone(),
        }
    };
    compare(&get(&p.lhs), p.op, &get(&p.rhs))
}

fn eval_pred(p: &BoundPred, tup: &[Option<Row>]) -> bool {
    let get = |o: &BoundOperand| -> Datum {
        match o {
            BoundOperand::Col(r) => tup[r.table].as_ref().expect("placed")[r.col].clone(),
            BoundOperand::Lit(d) => d.clone(),
        }
    };
    compare(&get(&p.lhs), p.op, &get(&p.rhs))
}

fn compare(a: &Datum, op: CmpOp, b: &Datum) -> bool {
    // Cross-type comparisons are false except Ne (SQL-ish permissiveness
    // without implicit coercion).
    let same_type = std::mem::discriminant(a) == std::mem::discriminant(b);
    if !same_type {
        return op == CmpOp::Ne;
    }
    op.eval(a.cmp(b))
}

/// The shape of an IN-list–mergeable batch: every query structurally
/// identical — same select list, same (single-table) FROM, same
/// predicates — except one equality predicate `col = K` whose literal
/// `K` varies per query. Returns the varying predicate's index plus the
/// per-query literals, or `None` if the batch doesn't fit the shape.
fn in_list_shape(queries: &[Query]) -> Option<(usize, Vec<Datum>)> {
    let base = queries.first()?;
    if base.from.len() != 1 {
        return None;
    }
    let n_preds = base.preds.len();
    if queries
        .iter()
        .any(|q| q.select != base.select || q.from != base.from || q.preds.len() != n_preds)
    {
        return None;
    }
    // Exactly one predicate position may disagree across the batch.
    let k = (0..n_preds).find(|&i| queries.iter().any(|q| q.preds[i] != base.preds[i]))?;
    if (0..n_preds).any(|i| i != k && queries.iter().any(|q| q.preds[i] != base.preds[i])) {
        return None;
    }
    let mut lits = Vec::with_capacity(queries.len());
    for q in queries {
        let p = &q.preds[k];
        if p.op != CmpOp::Eq || p.lhs != base.preds[k].lhs {
            return None;
        }
        match (&p.lhs, &p.rhs) {
            (Operand::Col(_), Operand::Lit(d)) => lits.push(d.clone()),
            _ => return None,
        }
    }
    Some((k, lits))
}

/// Single-scan IN-list execution: one pass over the table answers every
/// key, each key receiving exactly the rows — in storage order, the
/// order both the indexed and scan paths of [`execute_query`] produce —
/// that its own `col = K` query would have returned.
fn execute_in_query(
    db: &Database,
    base: &Query,
    k: usize,
    lits: &[Datum],
) -> KResult<Vec<Vec<Value>>> {
    let (tname, alias) = &base.from[0];
    let table = db.table(tname)?;
    let binder = Binder {
        tables: vec![(alias.as_str(), table)],
    };
    let preds: Vec<BoundPred> = base
        .preds
        .iter()
        .map(|p| bind_pred(&binder, p))
        .collect::<KResult<_>>()?;
    let key_col = match &preds[k].lhs {
        BoundOperand::Col(r) => r.col,
        BoundOperand::Lit(_) => unreachable!("in_list_shape requires a column lhs"),
    };
    let items: Vec<(String, Resolved)> = match &base.select {
        SelectList::Star => table
            .columns
            .iter()
            .enumerate()
            .map(|(ci, c)| (c.clone(), Resolved { table: 0, col: ci }))
            .collect(),
        SelectList::Items(items) => items
            .iter()
            .map(|it| Ok((it.output.clone(), binder.resolve(&it.column)?)))
            .collect::<KResult<_>>()?,
    };
    let mut out: Vec<Vec<Value>> = vec![Vec::new(); lits.len()];
    for row in &table.rows {
        if !(0..preds.len()).all(|i| i == k || eval_single(&preds[i], 0, row)) {
            continue;
        }
        for (i, lit) in lits.iter().enumerate() {
            if compare(&row[key_col], CmpOp::Eq, lit) {
                out[i].push(Value::record(
                    items
                        .iter()
                        .map(|(name, r)| (Arc::from(name.as_str()), row[r.col].to_value()))
                        .collect(),
                ));
            }
        }
    }
    Ok(out)
}

/// The data half of the simulated remote Sybase server: a relational
/// database answering SQL and table scans.
pub struct Sybase {
    db: RwLock<Database>,
}

/// The simulated remote Sybase server (GDB in the paper): [`Sybase`]
/// served through the shared remote-driver shell, which charges its
/// latency model per request and per shipped row, counts traffic — the
/// observables for the pushdown experiments — and enforces the admission
/// budget advertised below.
pub type SybaseServer = Remote<Sybase>;

impl From<Database> for Sybase {
    fn from(db: Database) -> Sybase {
        Sybase {
            db: RwLock::new(db),
        }
    }
}

impl Sybase {
    /// Mutable access for loading data (not part of the driver surface).
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.db.write())
    }

    /// Rows `from..to` of `table` in storage order (`to = None`: to the
    /// end), projected onto `columns` — every table scan, whole or part.
    fn scan(
        &self,
        table: &str,
        columns: Option<&[String]>,
        from: u64,
        to: Option<u64>,
    ) -> KResult<Vec<Value>> {
        let db = self.db.read();
        let t = db.table(table)?;
        let index = |row: u64| usize::try_from(row).unwrap_or(usize::MAX);
        let take = to.map_or(usize::MAX, |to| index(to.saturating_sub(from)));
        let rows = t.rows.iter().skip(index(from)).take(take);
        Ok(match columns {
            None => rows.map(|r| t.row_value(r)).collect(),
            Some(cols) => {
                let idxs: Vec<(usize, &String)> = cols
                    .iter()
                    .map(|c| Ok((t.col_index(c)?, c)))
                    .collect::<KResult<_>>()?;
                rows.map(|r| {
                    Value::record(
                        idxs.iter()
                            .map(|(ci, c)| (Arc::from(c.as_str()), r[*ci].to_value()))
                            .collect(),
                    )
                })
                .collect()
            }
        })
    }
}

/// The paper-era Sybase front end tolerated a moderate number of open
/// connections; this is the enforced admission budget.
const SYBASE_CONCURRENT_REQUESTS: usize = 8;

/// How many rows a pool worker keeps pulled ahead of the consumer per
/// request: a fixed window (`kleisli_core::pool`, "A fixed window").
/// Small-ish: SQL result rows are wide. Advertised only when the server's latency model charges a
/// per-row transfer cost — with instant rows there is no latency to
/// hide, and the buffer handoff would be pure overhead.
pub const SYBASE_PREFETCH_ROWS: usize = 32;

/// Keys per batched wire round-trip — the IN-list width the server
/// advertises in [`Capabilities::batching`].
pub const SYBASE_BATCH_KEYS: usize = 16;

impl Source for Sybase {
    fn capabilities(&self, latency: &LatencyModel) -> Capabilities {
        Capabilities {
            sql: true,
            path_extraction: false,
            max_concurrent_requests: SYBASE_CONCURRENT_REQUESTS,
            // 0 unless the latency model realizes a real per-row sleep:
            // prefetch pipelines wall-clock transfer latency only.
            prefetch_rows: latency.effective_prefetch(SYBASE_PREFETCH_ROWS),
            // a remote source: advertise retry + circuit breaking
            resilience: ResiliencePolicy::standard(),
            // IN-list pushdown: the rewriter may fold a per-element
            // `col = K` loop into ceil(n/16) wire round-trips, each a
            // single scan.
            batching: Some(BatchPolicy {
                max_keys: SYBASE_BATCH_KEYS,
            }),
        }
    }

    fn answer(&self, driver: &str, req: &DriverRequest) -> KResult<Vec<Value>> {
        match req {
            DriverRequest::Sql { query } => {
                let q = sql::parse(query)?;
                execute_query(&self.db.read(), &q)
            }
            DriverRequest::TableScan { table, columns } => {
                self.scan(table, columns.as_deref(), 0, None)
            }
            DriverRequest::TableRows {
                table,
                columns,
                from,
                to,
            } => self.scan(table, columns.as_deref(), *from, *to),
            other => Err(KError::driver(
                driver,
                format!("unsupported request: {}", other.describe()),
            )),
        }
    }

    /// A batch of structurally identical `SELECT`s differing in one
    /// equality literal executes as a genuine IN-list — a single table
    /// scan distributes rows to keys. Any other batch falls back to
    /// per-key execution; a key's semantic failure becomes that key's
    /// `Err` without poisoning its neighbours.
    fn answer_batch(
        &self,
        driver: &str,
        reqs: &[DriverRequest],
    ) -> KResult<Vec<KResult<Vec<Value>>>> {
        let parsed: Option<Vec<Query>> = reqs
            .iter()
            .map(|r| match r {
                DriverRequest::Sql { query } => sql::parse(query).ok(),
                _ => None,
            })
            .collect();
        if let Some(queries) = parsed {
            if let Some((k, lits)) = in_list_shape(&queries) {
                let db = self.db.read();
                // A binding error here would hit every per-key query the
                // same way; fall through so each key reports it itself.
                if let Ok(per_key) = execute_in_query(&db, &queries[0], k, &lits) {
                    return Ok(per_key.into_iter().map(Ok).collect());
                }
            }
        }
        Ok(reqs.iter().map(|req| self.answer(driver, req)).collect())
    }

    fn table_stats(&self, table: &str) -> Option<TableStats> {
        self.db.read().table(table).ok().map(|t| t.stats().clone())
    }

    /// Table scans split into row ranges by their tables' (memoized) row
    /// counts, sharing the width between them; SQL does not.
    fn split(
        &self,
        reqs: &[&DriverRequest],
        window: usize,
        width: usize,
    ) -> Vec<Vec<DriverRequest>> {
        let db = self.db.read();
        row_ranges(reqs, window, width, |table| {
            db.table(table).ok().map(|t| t.stats().rows)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleisli_core::Driver;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table("locus", &["locus_id", "locus_symbol"])
            .unwrap();
        db.create_table(
            "object_genbank_eref",
            &["object_id", "genbank_ref", "object_class_key"],
        )
        .unwrap();
        db.create_table(
            "locus_cyto_location",
            &["locus_cyto_location_id", "loc_cyto_chrom_num"],
        )
        .unwrap();
        for i in 0..20i64 {
            db.table_mut("locus")
                .unwrap()
                .insert(vec![Datum::Int(i), Datum::str(format!("D22S{i}"))])
                .unwrap();
            db.table_mut("object_genbank_eref")
                .unwrap()
                .insert(vec![
                    Datum::Int(i),
                    Datum::str(format!("M814{i:02}")),
                    Datum::Int(if i % 2 == 0 { 1 } else { 2 }),
                ])
                .unwrap();
            db.table_mut("locus_cyto_location")
                .unwrap()
                .insert(vec![
                    Datum::Int(i),
                    Datum::str(if i < 5 { "22" } else { "21" }),
                ])
                .unwrap();
        }
        db.table_mut("locus")
            .unwrap()
            .create_index("locus_id")
            .unwrap();
        db
    }

    fn run(db: &Database, q: &str) -> Vec<Value> {
        execute_query(db, &sql::parse(q).unwrap()).unwrap()
    }

    #[test]
    fn single_table_selection_and_projection() {
        let db = sample_db();
        let rows = run(&db, "select locus_symbol from locus where locus_id = 3");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].project("locus_symbol"), Some(&Value::str("D22S3")));
    }

    #[test]
    fn the_papers_three_way_join() {
        let db = sample_db();
        let rows = run(
            &db,
            "select locus_symbol, genbank_ref \
             from locus, object_genbank_eref, locus_cyto_location \
             where locus.locus_id = locus_cyto_location.locus_cyto_location_id \
             and locus.locus_id = object_genbank_eref.object_id \
             and object_class_key = 1 \
             and loc_cyto_chrom_num = '22'",
        );
        // chromosome 22 rows: i in 0..5; class key 1: even ⇒ i ∈ {0, 2, 4}
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.project("locus_symbol").is_some());
            assert!(r.project("genbank_ref").is_some());
        }
    }

    #[test]
    fn select_star_single_table_only() {
        let db = sample_db();
        let rows = run(&db, "select * from locus where locus_id < 2");
        assert_eq!(rows.len(), 2);
        assert!(rows[0].project("locus_id").is_some());
        assert!(execute_query(
            &db,
            &sql::parse("select * from locus, object_genbank_eref").unwrap()
        )
        .is_err());
    }

    #[test]
    fn theta_join_without_equality_uses_nested_loop() {
        let db = sample_db();
        let rows = run(
            &db,
            "select l.locus_id, o.object_id from locus l, object_genbank_eref o \
             where l.locus_id < o.object_id and o.object_id <= 2",
        );
        // pairs (l, o) with l < o and o <= 2: o=1:{0}, o=2:{0,1}
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn cross_type_comparison_is_false_not_error() {
        let db = sample_db();
        let rows = run(&db, "select locus_id from locus where locus_symbol = 5");
        assert!(rows.is_empty());
    }

    #[test]
    fn unknown_names_error() {
        let db = sample_db();
        assert!(execute_query(&db, &sql::parse("select x from locus").unwrap()).is_err());
        assert!(execute_query(&db, &sql::parse("select locus_id from nope").unwrap()).is_err());
        assert!(execute_query(
            &db,
            &sql::parse("select locus_id from locus where z.locus_id = 1").unwrap()
        )
        .is_err());
    }

    #[test]
    fn driver_counts_traffic_and_streams() {
        let server = SybaseServer::serve("GDB", sample_db().into(), LatencyModel::instant());
        // submit-then-wait: the two-phase path a real consumer takes
        let stream = server
            .submit(&DriverRequest::TableScan {
                table: "locus".into(),
                columns: Some(vec!["locus_symbol".into()]),
            })
            .unwrap()
            .wait()
            .unwrap();
        let rows: Vec<_> = stream.collect::<KResult<_>>().unwrap();
        assert_eq!(rows.len(), 20);
        let m = server.metrics();
        assert_eq!(m.requests, 1);
        assert_eq!(m.rows_shipped, 20);
        assert!(m.bytes_shipped > 0);
    }

    #[test]
    fn driver_stats_expose_schema_and_indexes() {
        let server = SybaseServer::serve("GDB", sample_db().into(), LatencyModel::instant());
        let stats = server.table_stats("locus").unwrap();
        assert_eq!(stats.rows, 20);
        assert_eq!(stats.columns, vec!["locus_id", "locus_symbol"]);
        assert_eq!(stats.indexed_columns, vec!["locus_id"]);
        assert!(server.table_stats("zzz").is_none());
    }

    #[test]
    fn unsupported_requests_are_driver_errors() {
        let server = SybaseServer::serve("GDB", sample_db().into(), LatencyModel::instant());
        // the submission itself succeeds; the error arrives at wait()
        assert!(server
            .submit(&DriverRequest::EntrezLinks {
                db: "na".into(),
                uid: 1
            })
            .unwrap()
            .wait()
            .is_err());
    }
}
