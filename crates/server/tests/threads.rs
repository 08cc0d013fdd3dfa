//! No OS thread per query. Alone in its test binary on purpose: it
//! counts the process's threads, which any test running beside it would
//! disturb.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::Duration;

use kleisli::Session;
use kleisli_core::testutil::{Fault, SlowDriver};
use kleisli_core::{Executor, Value};
use kleisli_server::{serve_ephemeral, Client, Response, ServerConfig};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn two_hundred_never_seen_queries_create_no_thread_of_their_own() {
    let driver = SlowDriver::new("SRC", 1, Duration::ZERO, 4);
    let registered = Arc::clone(&driver);
    let server = serve_ephemeral(
        ServerConfig::default(),
        Arc::new(move |session: &mut Session| session.register_driver(registered.clone())),
    )
    .unwrap();
    let executor = Executor::shared();
    let mut client = Client::connect(server.addr()).unwrap();
    let probe = |k: usize| format!(r#"count(SRC([function = "probe", arg = {k}]))"#);

    // Warm up: accept, reader, writer, and a first worker on each pool.
    let (v, _) = client.query(&probe(0)).unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(1));
    // A reply is enqueued a hair before its task releases the run slot,
    // and the burst below fills the pipeline to the last place: let the
    // warm-up's slot go first, or the twentieth query is refused `busy`.
    while server.active_queries() != 0 {
        std::thread::yield_now();
    }
    let base = (
        threads(),
        executor.threads_spawned(),
        driver.threads_spawned(),
    );
    // Every thread created from here on must be a lazily spawned worker
    // of one of the two bounded pools.
    let unexplained = |now: usize| {
        let pools = (executor.threads_spawned() - base.1) + (driver.threads_spawned() - base.2);
        now.saturating_sub(base.0).saturating_sub(pools)
    };

    // A full pipeline — 4 running, 16 waiting — held in place by a
    // wedged source: queries in every state they can be in, and not one
    // thread among them (thread-per-query stood at 20 here).
    driver.set_fault(Fault::NeverRespond);
    let held: Vec<u64> = (1..=20)
        .map(|k| client.send_query(&probe(k)).unwrap())
        .collect();
    client.stats().unwrap(); // the reader has admitted all twenty
    assert_eq!(server.active_queries(), 20);
    assert_eq!(unexplained(threads()), 0);
    driver.release_wedged();
    for _ in &held {
        assert!(matches!(
            client.read_response().unwrap(),
            Response::Result { .. }
        ));
    }

    // The rest, one after another: the count stays flat.
    for k in 21..200 {
        let (v, _) = client.query(&probe(k)).unwrap().into_value().unwrap();
        assert_eq!(v, Value::Int(1));
    }
    assert_eq!(unexplained(threads()), 0);
    assert!(executor.threads_spawned() <= executor.limit());
    assert_eq!(
        server.plan_cache().stats().misses,
        200,
        "every text was never seen"
    );
}
