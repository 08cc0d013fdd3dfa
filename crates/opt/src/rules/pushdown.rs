//! Query migration ("pushdown") rules.
//!
//! Section 3 of the paper: "the optimizer migrates not only all selections
//! and projections to the Sybase server, but also moves the local joins to
//! joins on the server where pre-computed indexes and table statistics may
//! be exploited" — the `Loci22` query written as three `GDB-Tab` scans
//! joined in CPL is reconstructed into a single shipped SQL query. And for
//! the ASN.1 driver: "we are able to minimize the cost of parsing and
//! copying ASN.1 values by pruning at the level of the ASN.1 driver" via
//! path expressions.
//!
//! The SQL recognizer covers exactly the fragment the paper proves pushable
//! [Wong 94]: flat conjunctive queries (no nested relations, no powerful
//! operators) over tables of one SQL-capable driver.

use std::sync::Arc;

use kleisli_core::{CollKind, DriverRequest, Value};
use nrc::{CaseArm, Expr, Name, Prim};

use crate::engine::{Rule, RuleCtx, RuleSet, Strategy};

/// Build the pushdown rule set.
pub fn rule_set() -> RuleSet {
    RuleSet {
        name: "pushdown",
        strategy: Strategy::BottomUp,
        rules: vec![
            Rule {
                name: "sql-migrate (selections/projections/joins)",
                apply: sql_migrate,
            },
            Rule {
                name: "entrez-path-migrate",
                apply: entrez_path_migrate,
            },
        ],
    }
}

// ---------------------------------------------------------------- SQL ----

#[derive(Debug, Clone, PartialEq)]
enum Operand {
    /// `alias.column` — the variable identifies the table.
    Col(Name, String),
    Lit(Value),
}

impl Operand {
    fn is_col(&self) -> bool {
        matches!(self, Operand::Col(..))
    }
}

#[derive(Debug)]
struct Pred {
    op: Prim,
    lhs: Operand,
    rhs: Operand,
}

#[derive(Debug)]
struct ConjQuery {
    driver: Name,
    /// (loop variable, table name) in generator order.
    tables: Vec<(Name, String)>,
    preds: Vec<Pred>,
    /// (output field, source), in head order. Columns ship as
    /// `select src as field`; literals stay local (see [`sql_migrate`]).
    select: Vec<(Name, Operand)>,
    /// The whole query is statically known to be empty (a pattern demanded
    /// a column the schema lacks).
    impossible: bool,
}

fn sql_migrate(e: &Expr, ctx: &RuleCtx<'_>) -> Option<Expr> {
    if !ctx.config.enable_pushdown {
        return None;
    }
    // Only rewrite when there is something to gain: a single bare scan
    // with neither predicates nor projection stays a TableScan.
    let q = recognize(e, ctx)?;
    if q.impossible {
        return Some(Expr::Empty(CollKind::Set));
    }
    let sql = generate_sql(&q);
    let shipped = Expr::Remote {
        driver: q.driver,
        request: DriverRequest::Sql { query: sql },
    };
    if q.select.iter().all(|(_, o)| o.is_col()) {
        return Some(shipped);
    }
    // Constant head fields stay local: the servers' SQL subset selects
    // columns only, and a constant is not worth a place in every shipped
    // row anyway. Each row is rebuilt around its columns here.
    let row = nrc::fresh("row");
    let fields = q.select.into_iter().map(|(field, o)| {
        let value = match o {
            Operand::Col(..) => Expr::Proj(Arc::new(Expr::Var(Arc::clone(&row))), field.clone()),
            Operand::Lit(v) => Expr::Const(v),
        };
        (field, Arc::new(value))
    });
    Some(Expr::Ext {
        kind: CollKind::Set,
        body: Arc::new(Expr::Single(
            CollKind::Set,
            Arc::new(Expr::Record(fields.collect())),
        )),
        var: row,
        source: Arc::new(shipped),
    })
}

/// Match `Ext{\v <- REMOTE[scan t], body}` chains ending in
/// `if conds then {record} else {}`.
fn recognize(e: &Expr, ctx: &RuleCtx<'_>) -> Option<ConjQuery> {
    let Expr::Ext {
        kind: CollKind::Set,
        var,
        body,
        source,
    } = e
    else {
        return None;
    };
    let (driver, table) = scan_of(source)?;
    if !ctx.catalog.capabilities(&driver)?.sql {
        return None;
    }
    let mut q = ConjQuery {
        driver,
        tables: vec![(var.clone(), table)],
        preds: Vec::new(),
        select: Vec::new(),
        impossible: false,
    };
    walk_body(body, &mut q, ctx)?;
    // Require at least one predicate or an explicit projection narrower
    // than "everything", and at least one output column.
    let columns = q.select.iter().filter(|(_, o)| o.is_col()).count();
    if columns == 0 {
        return None;
    }
    if q.tables.len() == 1 && q.preds.is_empty() && !q.impossible {
        // A bare projection is still worth shipping only if it actually
        // narrows the row; without schema info assume it does.
        let narrow = match ctx.catalog.table_stats(&q.driver, &q.tables[0].1) {
            Some(stats) => columns < stats.columns.len(),
            None => true,
        };
        if !narrow {
            return None;
        }
    }
    Some(q)
}

fn scan_of(e: &Expr) -> Option<(Name, String)> {
    let Expr::Remote { driver, request } = e else {
        return None;
    };
    match request {
        DriverRequest::TableScan { table, .. } => Some((driver.clone(), table.clone())),
        _ => None,
    }
}

fn walk_body(e: &Expr, q: &mut ConjQuery, ctx: &RuleCtx<'_>) -> Option<()> {
    match e {
        Expr::Ext {
            kind: CollKind::Set,
            var,
            body,
            source,
        } => {
            let (driver, table) = scan_of(source)?;
            if driver != q.driver {
                return None; // cross-driver joins stay local
            }
            q.tables.push((var.clone(), table));
            walk_body(body, q, ctx)
        }
        Expr::If(cond, then, els) => {
            if !matches!(&**els, Expr::Empty(CollKind::Set)) {
                return None;
            }
            collect_preds(cond, q, ctx)?;
            walk_body(then, q, ctx)
        }
        Expr::Single(CollKind::Set, inner) => match &**inner {
            Expr::Record(fields) => {
                for (n, fe) in fields {
                    let op = operand(fe, q)?;
                    q.select.push((Arc::clone(n), op));
                }
                Some(())
            }
            Expr::Var(v) if q.tables.iter().any(|(tv, _)| tv == v) => {
                // whole-row output: requires the schema to expand columns
                let table = &q.tables.iter().find(|(tv, _)| tv == v)?.1;
                let stats = ctx.catalog.table_stats(&q.driver, table)?;
                if stats.columns.is_empty() {
                    return None;
                }
                for c in stats.columns {
                    q.select
                        .push((Arc::from(c.as_str()), Operand::Col(v.clone(), c)));
                }
                Some(())
            }
            _ => None,
        },
        _ => None,
    }
}

fn collect_preds(cond: &Expr, q: &mut ConjQuery, ctx: &RuleCtx<'_>) -> Option<()> {
    match cond {
        Expr::Prim(Prim::And, args) => {
            collect_preds(&args[0], q, ctx)?;
            collect_preds(&args[1], q, ctx)
        }
        Expr::Prim(Prim::HasField, args) => {
            // Pattern-compiled field-presence test: resolved against the
            // table schema. Unknown schema => cannot push.
            let Expr::Var(v) = &*args[0] else { return None };
            let Expr::Const(Value::Str(field)) = &*args[1] else {
                return None;
            };
            let table = &q.tables.iter().find(|(tv, _)| tv == v)?.1;
            let stats = ctx.catalog.table_stats(&q.driver, table)?;
            if stats.columns.iter().any(|c| c == &**field) {
                Some(()) // statically true: drop the test
            } else {
                q.impossible = true;
                Some(())
            }
        }
        Expr::Prim(
            op @ (Prim::Eq | Prim::Ne | Prim::Lt | Prim::Le | Prim::Gt | Prim::Ge),
            args,
        ) => {
            let lhs = operand(&args[0], q)?;
            let rhs = operand(&args[1], q)?;
            q.preds.push(Pred { op: *op, lhs, rhs });
            Some(())
        }
        _ => None,
    }
}

fn operand(e: &Expr, q: &ConjQuery) -> Option<Operand> {
    match e {
        Expr::Proj(inner, field) => {
            let Expr::Var(v) = &**inner else { return None };
            q.tables
                .iter()
                .any(|(tv, _)| tv == v)
                .then(|| Operand::Col(v.clone(), field.to_string()))
        }
        Expr::Const(v @ (Value::Int(_) | Value::Float(_) | Value::Str(_) | Value::Bool(_))) => {
            Some(Operand::Lit(v.clone()))
        }
        _ => None,
    }
}

fn generate_sql(q: &ConjQuery) -> String {
    let alias_of = |v: &Name| -> String {
        let idx = q.tables.iter().position(|(tv, _)| tv == v).expect("alias");
        format!("t{idx}")
    };
    let operand_sql = |o: &Operand| -> String {
        match o {
            Operand::Col(v, c) => format!("{}.{}", alias_of(v), c),
            Operand::Lit(Value::Str(s)) => format!("'{}'", s.replace('\'', "''")),
            Operand::Lit(Value::Int(i)) => i.to_string(),
            Operand::Lit(Value::Float(x)) => x.to_string(),
            Operand::Lit(Value::Bool(b)) => if *b { "true" } else { "false" }.to_string(),
            Operand::Lit(other) => other.to_string(),
        }
    };
    let select: Vec<String> = q
        .select
        .iter()
        .filter(|(_, o)| o.is_col())
        .map(|(n, o)| format!("{} as {}", operand_sql(o), n))
        .collect();
    let from: Vec<String> = q
        .tables
        .iter()
        .enumerate()
        .map(|(i, (_, t))| format!("{t} t{i}"))
        .collect();
    let mut sql = format!("select {} from {}", select.join(", "), from.join(", "));
    if !q.preds.is_empty() {
        let ops: Vec<String> = q
            .preds
            .iter()
            .map(|p| {
                let op = match p.op {
                    Prim::Eq => "=",
                    Prim::Ne => "<>",
                    Prim::Lt => "<",
                    Prim::Le => "<=",
                    Prim::Gt => ">",
                    Prim::Ge => ">=",
                    _ => unreachable!(),
                };
                format!("{} {} {}", operand_sql(&p.lhs), op, operand_sql(&p.rhs))
            })
            .collect();
        sql.push_str(" where ");
        sql.push_str(&ops.join(" and "));
    }
    sql
}

// ------------------------------------------------------------- Entrez ----

/// Migrate projections over an Entrez fetch into the driver's path
/// expression, e.g.
/// `U{ {x.seq.id} | \x <- entrez(select) }` becomes
/// `entrez(select, path=".seq.id")`, and a variant extraction mapped over
/// a nested collection appends a `..tag` segment.
fn entrez_path_migrate(e: &Expr, ctx: &RuleCtx<'_>) -> Option<Expr> {
    if !ctx.config.enable_pushdown {
        return None;
    }
    let Expr::Ext {
        kind: CollKind::Set,
        var,
        body,
        source,
    } = e
    else {
        return None;
    };
    let Expr::Remote { driver, request } = &**source else {
        return None;
    };
    let DriverRequest::EntrezFetch {
        db,
        query,
        path: None,
    } = request
    else {
        return None;
    };
    if !ctx.catalog.capabilities(driver)?.path_extraction {
        return None;
    }
    let path = path_of_body(body, var)?;
    Some(Expr::Remote {
        driver: driver.clone(),
        request: DriverRequest::EntrezFetch {
            db: db.clone(),
            query: query.clone(),
            path: Some(path),
        },
    })
}

/// Recognize `{chain(x)}` or
/// `U{ case y of <t = \w> => {w} | _ => {} | \y <- chain(x) }`.
fn path_of_body(body: &Expr, var: &Name) -> Option<String> {
    match body {
        Expr::Single(CollKind::Set, inner) => proj_chain(inner, var),
        Expr::Ext {
            kind: CollKind::Set,
            var: y,
            body: inner,
            source,
        } => {
            let prefix = proj_chain(source, var)?;
            let tag = tag_extraction(inner, y)?;
            Some(format!("{prefix}..{tag}"))
        }
        _ => None,
    }
}

/// `x.a.b.c` → `.a.b.c`
fn proj_chain(e: &Expr, var: &Name) -> Option<String> {
    match e {
        Expr::Var(v) if v == var => Some(String::new()),
        Expr::Proj(inner, field) => {
            let prefix = proj_chain(inner, var)?;
            Some(format!("{prefix}.{field}"))
        }
        _ => None,
    }
}

/// `case y of <t = \w> => {w} | _ => {}`  →  `t`
fn tag_extraction(e: &Expr, y: &Name) -> Option<String> {
    let Expr::Case {
        scrutinee,
        arms,
        default,
    } = e
    else {
        return None;
    };
    if !matches!(&**scrutinee, Expr::Var(v) if v == y) {
        return None;
    }
    let [CaseArm { tag, var: w, body }] = arms.as_slice() else {
        return None;
    };
    if !matches!(default.as_deref(), Some(Expr::Empty(CollKind::Set))) {
        return None;
    }
    match &**body {
        Expr::Single(CollKind::Set, inner) if matches!(&**inner, Expr::Var(v) if v == w) => {
            Some(tag.to_string())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::StaticCatalog;
    use crate::engine::OptConfig;
    use kleisli_core::{Capabilities, TableStats};

    fn gdb_catalog() -> StaticCatalog {
        let mut c = StaticCatalog::new();
        c.add_driver(
            "GDB",
            Capabilities {
                sql: true,
                ..Default::default()
            },
        );
        c.add_driver(
            "GenBank",
            Capabilities {
                path_extraction: true,
                ..Default::default()
            },
        );
        for (t, cols) in [
            ("locus", vec!["locus_id", "locus_symbol"]),
            (
                "object_genbank_eref",
                vec!["object_id", "genbank_ref", "object_class_key"],
            ),
            (
                "locus_cyto_location",
                vec!["locus_cyto_location_id", "loc_cyto_chrom_num"],
            ),
        ] {
            c.add_table(
                "GDB",
                t,
                TableStats {
                    rows: 1000,
                    columns: cols.into_iter().map(String::from).collect(),
                    ..Default::default()
                },
            );
        }
        c
    }

    fn scan(table: &str) -> Expr {
        Expr::Remote {
            driver: nrc::name("GDB"),
            request: DriverRequest::TableScan {
                table: table.into(),
                columns: None,
            },
        }
    }

    fn run(e: Expr, catalog: &StaticCatalog) -> Expr {
        let config = OptConfig::default();
        let ctx = RuleCtx {
            catalog,
            config: &config,
        };
        let mut trace = Vec::new();
        rule_set().run_owned(e, &ctx, &mut trace)
    }

    /// Build the (already let-inlined) NRC form of the paper's Loci22
    /// query over two tables.
    fn loci_two_table() -> Expr {
        // U{ U{ if g2.object_id = g1.locus_id and g2.object_class_key = 1
        //        then {[locus_symbol = g1.locus_symbol, genbank_ref = g2.genbank_ref]}
        //        else {}
        //      | \g2 <- scan(object_genbank_eref) }
        //    | \g1 <- scan(locus) }
        let cond = Expr::and(
            Expr::eq(
                Expr::proj(Expr::var("g2"), "object_id"),
                Expr::proj(Expr::var("g1"), "locus_id"),
            ),
            Expr::eq(
                Expr::proj(Expr::var("g2"), "object_class_key"),
                Expr::int(1),
            ),
        );
        let record = Expr::record(vec![
            ("locus_symbol", Expr::proj(Expr::var("g1"), "locus_symbol")),
            ("genbank_ref", Expr::proj(Expr::var("g2"), "genbank_ref")),
        ]);
        Expr::ext(
            CollKind::Set,
            "g1",
            Expr::ext(
                CollKind::Set,
                "g2",
                Expr::if_(
                    cond,
                    Expr::single(CollKind::Set, record),
                    Expr::Empty(CollKind::Set),
                ),
                scan("object_genbank_eref"),
            ),
            scan("locus"),
        )
    }

    #[test]
    fn two_table_join_ships_one_sql_query() {
        let catalog = gdb_catalog();
        let out = run(loci_two_table(), &catalog);
        match out {
            Expr::Remote { driver, request } => {
                assert_eq!(&*driver, "GDB");
                let DriverRequest::Sql { query } = request else {
                    panic!("expected SQL, got {request:?}");
                };
                assert!(
                    query.contains("from locus t0, object_genbank_eref t1"),
                    "{query}"
                );
                assert!(query.contains("t1.object_id = t0.locus_id"), "{query}");
                assert!(query.contains("t1.object_class_key = 1"), "{query}");
                assert!(query.contains("t0.locus_symbol as locus_symbol"), "{query}");
            }
            other => panic!("pushdown failed: {other}"),
        }
    }

    #[test]
    fn hasfield_tests_fold_against_schema() {
        // if hasfield(g1, "locus_symbol") then {[s = g1.locus_symbol]} else {}
        let e = Expr::ext(
            CollKind::Set,
            "g1",
            Expr::if_(
                Expr::prim(
                    Prim::HasField,
                    vec![Expr::var("g1"), Expr::str("locus_symbol")],
                ),
                Expr::single(
                    CollKind::Set,
                    Expr::record(vec![("s", Expr::proj(Expr::var("g1"), "locus_symbol"))]),
                ),
                Expr::Empty(CollKind::Set),
            ),
            scan("locus"),
        );
        let out = run(e, &gdb_catalog());
        assert!(
            matches!(
                &out,
                Expr::Remote {
                    request: DriverRequest::Sql { .. },
                    ..
                }
            ),
            "{out}"
        );
    }

    #[test]
    fn missing_column_makes_query_statically_empty() {
        let e = Expr::ext(
            CollKind::Set,
            "g1",
            Expr::if_(
                Expr::prim(
                    Prim::HasField,
                    vec![Expr::var("g1"), Expr::str("no_such_column")],
                ),
                Expr::single(
                    CollKind::Set,
                    Expr::record(vec![("s", Expr::proj(Expr::var("g1"), "locus_symbol"))]),
                ),
                Expr::Empty(CollKind::Set),
            ),
            scan("locus"),
        );
        assert_eq!(run(e, &gdb_catalog()), Expr::Empty(CollKind::Set));
    }

    #[test]
    fn cross_driver_joins_stay_local() {
        let other_scan = Expr::Remote {
            driver: nrc::name("OtherDB"),
            request: DriverRequest::TableScan {
                table: "t".into(),
                columns: None,
            },
        };
        let e = Expr::ext(
            CollKind::Set,
            "a",
            Expr::ext(
                CollKind::Set,
                "b",
                Expr::if_(
                    Expr::eq(
                        Expr::proj(Expr::var("a"), "locus_id"),
                        Expr::proj(Expr::var("b"), "x"),
                    ),
                    Expr::single(
                        CollKind::Set,
                        Expr::record(vec![("s", Expr::proj(Expr::var("a"), "locus_symbol"))]),
                    ),
                    Expr::Empty(CollKind::Set),
                ),
                other_scan,
            ),
            scan("locus"),
        );
        let out = run(e.clone(), &gdb_catalog());
        assert_eq!(out, e, "cross-driver join must not be pushed");
    }

    #[test]
    fn non_sql_driver_is_not_pushed() {
        let mut catalog = StaticCatalog::new();
        catalog.add_driver("GDB", Capabilities::default()); // sql: false
        let out = run(loci_two_table(), &catalog);
        assert!(matches!(out, Expr::Ext { .. }));
    }

    #[test]
    fn entrez_projection_becomes_path() {
        let fetch = Expr::Remote {
            driver: nrc::name("GenBank"),
            request: DriverRequest::EntrezFetch {
                db: "na".into(),
                query: "accession M81409".into(),
                path: None,
            },
        };
        // U{ {x.seq.id} | \x <- fetch }
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::single(
                CollKind::Set,
                Expr::proj(Expr::proj(Expr::var("x"), "seq"), "id"),
            ),
            fetch,
        );
        let out = run(e, &gdb_catalog());
        match out {
            Expr::Remote { request, .. } => match request {
                DriverRequest::EntrezFetch { path, .. } => {
                    assert_eq!(path.as_deref(), Some(".seq.id"))
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("path migration failed: {other}"),
        }
    }

    #[test]
    fn entrez_variant_extraction_becomes_double_dot() {
        let fetch = Expr::Remote {
            driver: nrc::name("GenBank"),
            request: DriverRequest::EntrezFetch {
                db: "na".into(),
                query: "accession M81409".into(),
                path: None,
            },
        };
        // U{ U{ case y of <giim = \w> => {w} | _ => {} | \y <- x.seq.id }
        //    | \x <- fetch }
        let e = Expr::ext(
            CollKind::Set,
            "x",
            Expr::Ext {
                kind: CollKind::Set,
                var: nrc::name("y"),
                body: Arc::new(Expr::Case {
                    scrutinee: Arc::new(Expr::var("y")),
                    arms: vec![CaseArm {
                        tag: nrc::name("giim"),
                        var: nrc::name("w"),
                        body: Arc::new(Expr::single(CollKind::Set, Expr::var("w"))),
                    }],
                    default: Some(Arc::new(Expr::Empty(CollKind::Set))),
                }),
                source: Arc::new(Expr::proj(Expr::proj(Expr::var("x"), "seq"), "id")),
            },
            fetch,
        );
        let out = run(e, &gdb_catalog());
        match out {
            Expr::Remote { request, .. } => match request {
                DriverRequest::EntrezFetch { path, .. } => {
                    assert_eq!(path.as_deref(), Some(".seq.id..giim"))
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("path migration failed: {other}"),
        }
    }
}
