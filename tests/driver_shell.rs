//! The remote-driver shell's contract (`kleisli_core::remote`), checked
//! once over every source served through it: GDB, GenBank, ACE, and a
//! test-only source. Pooling, admission and batching live in the shell,
//! so one generic check covers them all — and, for the one source that
//! answers a request piecewise, that the pieces are the whole: GDB's
//! split of table scans starting together, over every table size around
//! its boundaries, mixed with SQL.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ace_sim::{AceServer, AceStore};
use bio_data::{GdbConfig, GenBankConfig};
use kleisli::bio_federation;
use kleisli_core::{
    Capabilities, Driver, DriverRequest, KResult, LatencyModel, Remote, Source, Value,
};
use proptest::prelude::*;
use sybase_sim::server::SYBASE_PREFETCH_ROWS;
use sybase_sim::{Database, Datum, SybaseServer};

/// Every wire request holds its ticket for this long, so queued and
/// in-flight work is observable.
const RTT: Duration = Duration::from_millis(40);

fn slow_wire() -> LatencyModel {
    LatencyModel::real(RTT, Duration::ZERO)
}

struct Echo;

impl Source for Echo {
    fn capabilities(&self, _latency: &LatencyModel) -> Capabilities {
        Capabilities {
            max_concurrent_requests: 3,
            ..Capabilities::default()
        }
    }

    fn answer(&self, _driver: &str, req: &DriverRequest) -> KResult<Vec<Value>> {
        Ok(vec![Value::str(req.describe())])
    }
}

fn honors_the_shell_contract<S: Source>(drv: &Remote<S>, req: DriverRequest) {
    let name = drv.name().to_string();
    let limit = drv.capabilities().concurrency_limit();
    assert_eq!(
        drv.gate().limit(),
        limit,
        "{name}: pool sized from the advertisement"
    );

    // 2 x limit submissions all answer, on at most `limit` threads.
    let handles: Vec<_> = (0..2 * limit).map(|_| drv.submit(&req).unwrap()).collect();
    for h in handles {
        h.wait().unwrap().collect::<KResult<Vec<_>>>().unwrap();
    }
    assert_eq!(drv.gate().in_flight(), 0, "{name}: all tickets released");
    assert!(
        drv.threads_spawned() <= limit,
        "{name}: threads bounded by the budget"
    );
    assert_eq!(drv.metrics().requests, 2 * limit as u64, "{name}");

    // A batched submission of k keys is one wire request on one ticket.
    let (tx, rx) = mpsc::channel();
    let wire = drv
        .submit_batch(
            vec![req.clone(); 3],
            Box::new(move |reply| tx.send(reply).unwrap()),
        )
        .expect("the shell submits batches through its pool");
    let mut tickets = 0;
    let reply = loop {
        tickets = tickets.max(drv.gate().in_flight());
        match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(reply) => break reply.unwrap(),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(e) => panic!("{name}: batch completion dropped: {e}"),
        }
    };
    wire.wait().unwrap();
    assert_eq!(reply.len(), 3, "{name}: one reply per key");
    assert!(reply.iter().all(|key| key.is_ok()), "{name}");
    assert!(tickets <= 1, "{name}: a batch held {tickets} tickets");
    assert_eq!(
        drv.metrics().requests,
        2 * limit as u64 + 1,
        "{name}: one wire request"
    );

    // Dropping a still-queued handle never reaches the source: `limit`
    // requests occupy every worker for an RTT, the next one queues.
    let running: Vec<_> = (0..limit).map(|_| drv.submit(&req).unwrap()).collect();
    drop(drv.submit(&req).unwrap());
    for h in running {
        h.wait().unwrap();
    }
    assert_eq!(
        drv.metrics().requests,
        3 * limit as u64 + 1,
        "{name}: the dropped request reached the source"
    );
    let t0 = Instant::now();
    while drv.gate().in_flight() != 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "{name}: ticket leaked"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The parts of a split full fetch, in order, are the reply — alone
    // and beside its siblings.
    parts_are_the_replies(drv, &[&req]);
    parts_are_the_replies(drv, &[&req, &req, &req]);
}

/// `drv`'s split of `reqs` starting together: one answer per request,
/// each empty or two or more parts whose replies, in order, are the
/// request's.
fn parts_are_the_replies(drv: &dyn Driver, reqs: &[&DriverRequest]) {
    let name = drv.name();
    let split = drv.split_full(reqs);
    assert_eq!(split.len(), reqs.len(), "{name}: one answer per request");
    for (req, parts) in reqs.iter().zip(&split) {
        assert_ne!(parts.len(), 1, "{name}: one part is no split");
        if !parts.is_empty() {
            let pieces: Vec<Value> = parts.iter().flat_map(|part| rows_of(drv, part)).collect();
            assert_eq!(pieces, rows_of(drv, req), "{name}: {parts:?}");
        }
    }
}

/// Everything `drv` answers `req` with.
fn rows_of(drv: &dyn Driver, req: &DriverRequest) -> Vec<Value> {
    drv.submit_full(req)
        .unwrap()
        .wait()
        .unwrap()
        .collect::<KResult<_>>()
        .unwrap()
}

#[test]
fn every_source_honors_the_shell_contract() {
    let fed = bio_federation(
        &GdbConfig {
            loci: 20,
            seed: 15,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 5,
            seed: 15,
            ..Default::default()
        },
        slow_wire(),
        slow_wire(),
    )
    .expect("federation");
    honors_the_shell_contract(
        &fed.gdb,
        DriverRequest::TableScan {
            table: "locus".into(),
            columns: None,
        },
    );
    honors_the_shell_contract(
        &fed.genbank,
        DriverRequest::EntrezLinks {
            db: "na".into(),
            uid: fed.genbank_data.entries[0].uid,
        },
    );

    let mut store = AceStore::new();
    store
        .insert(
            "Clone",
            "c22-5",
            vec![("Length".into(), vec![Value::Int(1200)])],
        )
        .expect("insert");
    honors_the_shell_contract(
        &AceServer::serve("ACE22", store.into(), slow_wire()),
        DriverRequest::AceFetch {
            class: "Clone".into(),
            name: None,
        },
    );

    honors_the_shell_contract(
        &Remote::serve("Echo", Echo, slow_wire()),
        DriverRequest::Call {
            function: "echo".into(),
            arg: Value::Unit,
        },
    );

    // ... and over a GDB whose rows cost wall-clock time — the only kind
    // that prefetches, and so the only kind that is asked to split.
    let rows = 3 * SYBASE_PREFETCH_ROWS as i64 + 1;
    let paced = LatencyModel::real(Duration::from_millis(5), Duration::from_nanos(1));
    let gdb = SybaseServer::serve("GDB", numbered(&[rows]).into(), paced);
    assert_eq!(gdb.split_full(&[&scan_of(0, false)])[0].len(), 4);
    honors_the_shell_contract(&gdb, scan_of(0, true));
}

/// Tables `t0`, `t1`, … of `rows[i]` rows `(id, sym, band)`, `id`
/// counting from 0.
fn numbered(rows: &[i64]) -> Database {
    let mut db = Database::new();
    for (t, rows) in rows.iter().enumerate() {
        db.create_table(&format!("t{t}"), &["id", "sym", "band"]).unwrap();
        grow(&mut db, t, 0..*rows);
    }
    db
}

fn grow(db: &mut Database, table: usize, ids: std::ops::Range<i64>) {
    let t = db.table_mut(&format!("t{table}")).unwrap();
    for i in ids {
        let sym = Datum::str(format!("S{i}"));
        t.insert(vec![Datum::Int(i), sym, Datum::Int(i % 7)]).unwrap();
    }
}

fn scan_of(table: usize, projected: bool) -> DriverRequest {
    DriverRequest::TableScan {
        table: format!("t{table}"),
        columns: projected.then(|| vec!["sym".into(), "id".into()]),
    }
}

fn sql() -> DriverRequest {
    DriverRequest::Sql {
        query: "select id from t0".into(),
    }
}

#[test]
fn only_a_source_whose_rows_cost_wall_clock_time_is_split() {
    let (rtt, per_row) = (Duration::from_millis(2), Duration::from_nanos(1));
    for (latency, parts) in [
        (LatencyModel::instant(), 0),
        (LatencyModel::virtual_only(rtt, per_row), 0),
        (LatencyModel::real(rtt, Duration::ZERO), 0),
        (LatencyModel::real(Duration::ZERO, per_row), 4),
    ] {
        let gdb = SybaseServer::serve("GDB", numbered(&[100, 80, 100]).into(), latency);
        assert_eq!(gdb.split_full(&[&scan_of(0, false)])[0].len(), parts);
        // SQL is never split, whatever it costs.
        assert!(gdb.split_full(&[&sql()])[0].is_empty());
        // `row_stream`'s three scans, starting together, share the eight
        // connections: one wave of 3 + 2 + 3, not 4 + 3 + 4.
        let siblings = [&scan_of(0, false), &scan_of(1, false), &scan_of(2, false)];
        let together: Vec<usize> = gdb.split_full(&siblings).iter().map(Vec::len).collect();
        assert_eq!(together, if parts == 0 { [0, 0, 0] } else { [3, 2, 3] });
    }
}

/// A table size around the split's boundaries.
fn boundary(window: usize, width: usize, k: usize, size: usize) -> i64 {
    [
        0,
        1,
        window - 1,
        window,
        window + 1,
        k * window - 1,
        k * window + 1,
        width * window,
        width * window + k,
    ][size] as i64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// GDB's split of table scans starting together, for any window and
    /// width, at every table size around the boundaries, mixed with SQL:
    /// alone, a scan's part count is the rule's
    /// (`kleisli_core::remote::apportion`); together no scan gets more
    /// parts than alone, no part is empty for the rows counted, SQL is
    /// never split, and each request's parts — answered after its table
    /// grew by `grown` rows — are the grown table's scan.
    #[test]
    fn gdb_splits_a_table_scan_into_ranges_that_are_the_scan(
        window in 1usize..40,
        width in 1usize..10,
        k in 2usize..6,
        sizes in proptest::collection::vec(0usize..9, 1..5),
        // Per request: which table (or, past the last, SQL) and whether
        // it projects.
        picks in proptest::collection::vec((0usize..5, any::<bool>()), 1..6),
        grown in 0i64..6,
    ) {
        let rows: Vec<i64> = sizes.iter().map(|size| boundary(window, width, k, *size)).collect();
        let gdb = SybaseServer::serve("GDB", numbered(&rows).into(), LatencyModel::instant());
        let reqs: Vec<DriverRequest> = picks
            .iter()
            .map(|(table, projected)| match rows.get(*table) {
                Some(_) => scan_of(*table, *projected),
                None => sql(),
            })
            .collect();
        let rows_of = |req: &DriverRequest| match req {
            DriverRequest::TableScan { table, .. } => {
                Some(rows[table[1..].parse::<usize>().unwrap()] as u64)
            }
            _ => None,
        };
        // How many parts a scan of `rows` rows is cut into when given `parts`.
        let cut = |rows: u64, parts: u64| match parts {
            0 | 1 => 0,
            _ => rows.div_ceil(rows.div_ceil(parts)) as usize,
        };
        let refs: Vec<&DriverRequest> = reqs.iter().collect();
        let together = gdb.split(&refs, window, width);
        prop_assert_eq!(together.len(), reqs.len());
        let counts: Vec<Option<u64>> = reqs.iter().map(rows_of).collect();
        let given = kleisli_core::remote::apportion(&counts, window, width);
        for ((req, parts), given) in reqs.iter().zip(&together).zip(given) {
            let alone = gdb.split(&[req], window, width).remove(0);
            match rows_of(req) {
                Some(rows) => {
                    let expected = rows.div_ceil(window as u64).min(width as u64);
                    prop_assert_eq!(alone.len(), cut(rows, expected));
                    prop_assert_eq!(parts.len(), cut(rows, given));
                }
                None => prop_assert!(alone.is_empty() && parts.is_empty()),
            }
            prop_assert!(parts.len() <= alone.len());
            for part in parts.iter().chain(&alone) {
                let shipped = gdb.answer("GDB", part).unwrap();
                prop_assert!(!shipped.is_empty(), "{part:?} ships nothing");
            }
        }
        for (table, rows) in rows.iter().enumerate() {
            gdb.with_db(|db| grow(db, table, *rows..*rows + grown));
        }
        for (req, parts) in reqs.iter().zip(&together) {
            let whole = gdb.answer("GDB", req).unwrap();
            if let Some(rows) = rows_of(req) {
                prop_assert_eq!(whole.len() as u64, rows + grown as u64);
            }
            if !parts.is_empty() {
                let pieces: Vec<Value> = parts
                    .iter()
                    .flat_map(|part| gdb.answer("GDB", part).unwrap())
                    .collect();
                prop_assert_eq!(pieces, whole);
            }
        }
    }
}
