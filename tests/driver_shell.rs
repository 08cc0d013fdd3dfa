//! The remote-driver shell's contract (`kleisli_core::remote`), checked
//! once over every source served through it: GDB, GenBank, ACE, and a
//! test-only source. Pooling, admission and batching live in the shell,
//! so one generic check covers them all — and, for the one source that
//! answers a request piecewise, that the pieces are the whole: GDB's
//! split of a table scan over every table size around its boundaries.

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

    // The parts of a split full fetch, in order, are the reply.
    let parts = drv.split_full(&req);
    assert_ne!(parts.len(), 1, "{name}: one part is no split");
    if !parts.is_empty() {
        let pieces: Vec<Value> = parts.iter().flat_map(|part| rows_of(drv, part)).collect();
        assert_eq!(pieces, rows_of(drv, &req), "{name}: {parts:?}");
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
    let gdb = SybaseServer::serve("GDB", numbered(rows).into(), paced);
    assert_eq!(gdb.split_full(&scan_of(false)).len(), 4);
    honors_the_shell_contract(&gdb, scan_of(true));
}

/// Table `t` of `rows` rows `(id, sym, band)`, `id` counting from 0.
fn numbered(rows: i64) -> Database {
    let mut db = Database::new();
    db.create_table("t", &["id", "sym", "band"]).unwrap();
    grow(&mut db, 0..rows);
    db
}

fn grow(db: &mut Database, ids: std::ops::Range<i64>) {
    let t = db.table_mut("t").unwrap();
    for i in ids {
        let sym = Datum::str(format!("S{i}"));
        t.insert(vec![Datum::Int(i), sym, Datum::Int(i % 7)]).unwrap();
    }
}

fn scan_of(projected: bool) -> DriverRequest {
    DriverRequest::TableScan {
        table: "t".into(),
        columns: projected.then(|| vec!["sym".into(), "id".into()]),
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
        let gdb = SybaseServer::serve("GDB", numbered(100).into(), latency);
        assert_eq!(gdb.split_full(&scan_of(false)).len(), parts);
        // SQL is never split, whatever it costs.
        let sql = DriverRequest::Sql {
            query: "select id from t".into(),
        };
        assert!(gdb.split_full(&sql).is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// GDB's split of a table scan, for any window and width, at every
    /// table size around the boundaries: the part count is the rule's
    /// (`kleisli_core::remote::row_ranges`), and the parts — answered
    /// after the table grew by `grown` rows — are the grown table's scan.
    #[test]
    fn gdb_splits_a_table_scan_into_ranges_that_are_the_scan(
        window in 1usize..40,
        width in 1usize..10,
        size in 0usize..9,
        k in 2usize..6,
        projected in any::<bool>(),
        grown in 0i64..6,
    ) {
        let rows = [
            0,
            1,
            window - 1,
            window,
            window + 1,
            k * window - 1,
            k * window + 1,
            width * window,
            width * window + k,
        ][size] as i64;
        let gdb = SybaseServer::serve("GDB", numbered(rows).into(), LatencyModel::instant());
        let req = scan_of(projected);
        let parts = gdb.split(&req, window, width);
        let expected = (rows as usize).div_ceil(window).min(width);
        prop_assert_eq!(parts.len(), if expected < 2 { 0 } else { expected });
        gdb.with_db(|db| grow(db, rows..rows + grown));
        let whole = gdb.answer("GDB", &req).unwrap();
        prop_assert_eq!(whole.len() as i64, rows + grown);
        if !parts.is_empty() {
            let pieces: Vec<Value> = parts
                .iter()
                .flat_map(|part| gdb.answer("GDB", part).unwrap())
                .collect();
            prop_assert_eq!(pieces, whole);
        }
    }
}
