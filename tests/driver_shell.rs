//! The remote-driver shell's contract (`kleisli_core::remote`), checked
//! once over every source served through it: GDB, GenBank, ACE, and a
//! test-only source. Pooling, admission and batching live in the shell,
//! so one generic check covers them all.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ace_sim::{AceServer, AceStore};
use bio_data::{GdbConfig, GenBankConfig};
use kleisli::bio_federation;
use kleisli_core::{
    Capabilities, Driver, DriverRequest, KResult, LatencyModel, Remote, Source, Value,
};

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
}
