//! Concurrent sources: the non-blocking `Session::start` → `QueryHandle`
//! API over two simulated remote servers with real per-request latency.
//!
//! ```sh
//! cargo run --example concurrent_sources
//! ```
//!
//! Demonstrates the Section-4 story end to end: requests to GDB (Sybase)
//! and GenBank (Entrez) are *submitted* rather than executed, each
//! driver keeps up to its tolerated number of requests in flight
//! (enforced admission: GDB 8, GenBank 5), and the session exposes the
//! same two-phase shape publicly — start, poll, take a prefix, cancel,
//! or wait.

use std::time::{Duration, Instant};

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, How, Session};
use kleisli_core::{LatencyModel, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two sources, each charging a real 3 ms per request.
    let latency = Duration::from_millis(3);
    let fed = bio_federation(
        &GdbConfig {
            loci: 40,
            seed: 11,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 30,
            links_per_entry: 3,
            seed: 11,
            ..Default::default()
        },
        LatencyModel::real(latency, Duration::ZERO),
        LatencyModel::real(latency, Duration::ZERO),
    )?;
    let mut session = Session::new();
    session.register_driver(fed.gdb.clone());
    session.register_driver(fed.genbank.clone());
    let uids: Vec<Value> = fed
        .genbank_data
        .entries
        .iter()
        .take(15)
        .map(|e| Value::Int(e.uid))
        .collect();
    session.bind_value("UIDS", Value::set(uids));

    // Per-uid requests to both sources. The GDB scan does not depend on
    // `uid`, so the optimizer caches it: one request serves every
    // element. GenBank batches, so the loop is marked for it and its 15
    // per-uid link requests ship as one multi-key request (GenBank takes
    // up to 16 keys a request).
    let two_source = r#"{[u = uid,
           links = count(GenBank([db = "na", link = uid])),
           loci = count({l | \l <- GDB-Tab("locus"), l.locus_id = uid})] |
        \uid <- UIDS}"#;

    // 1. Start without blocking, poll while it runs, then wait.
    let plan = session.compile_shared(two_source)?;
    let gdb_before = session.driver_metrics("GDB")?;
    let gb_before = session.driver_metrics("GenBank")?;
    let t0 = Instant::now();
    let mut handle = session.start(&plan, How::default());
    println!("started; status = {:?}", handle.status());
    let result = loop {
        match handle.try_wait() {
            Some(r) => break r?,
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    println!(
        "two-source query: {} rows in {:?}",
        result.len().unwrap_or(0),
        t0.elapsed()
    );
    let gdb_m = session.driver_metrics("GDB")?.since(&gdb_before);
    let gb_m = session.driver_metrics("GenBank")?.since(&gb_before);
    println!("GDB:     {} request(s)", gdb_m.requests);
    println!(
        "GenBank: {} request(s) carrying {} key(s)",
        gb_m.requests, gb_m.batched_keys
    );

    // 2. Two independent queries in flight on one session.
    let t0 = Instant::now();
    let gdb = session.compile_shared(r#"count(GDB-Tab("locus"))"#)?;
    let gb = session
        .compile_shared(r#"count(GenBank([db = "na", select = "organism \"Homo sapiens\""]))"#)?;
    let h_gdb = session.start(&gdb, How::default());
    let h_gb = session.start(&gb, How::default());
    let (n_gdb, n_gb) = (h_gdb.wait()?, h_gb.wait()?);
    println!(
        "both sources answered in {:?} (each costs one {latency:?} round-trip): \
         GDB {n_gdb}, GenBank {n_gb}",
        t0.elapsed()
    );

    // 3. A prefix: with a limit the plan is streamed and the evaluation
    //    stops once three rows are in.
    let t0 = Instant::now();
    let first_3 = How {
        limit: Some(3),
        ..How::default()
    };
    let prefix = session.start(&plan, first_3).wait()?;
    println!(
        "first 3 rows in {:?} (remaining requests cancelled): {} rows",
        t0.elapsed(),
        prefix.len().unwrap_or(0)
    );

    // 4. Explicit cancellation: start and abandon.
    let handle = session.start(&plan, How::default());
    handle.cancel();
    match handle.wait() {
        Err(e) => println!("cancelled query reports: {e}"),
        Ok(_) => println!("query finished before the cancel landed (also fine)"),
    }

    // 5. Admission budgets held: the drivers report their traffic.
    println!(
        "driver traffic — GDB: {:?}, GenBank: {:?}",
        session.driver_metrics("GDB")?,
        session.driver_metrics("GenBank")?
    );
    Ok(())
}
