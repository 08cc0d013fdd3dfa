//! Server round-trip: start a `kleislid` server in-process on an
//! ephemeral port, run the paper's locus query through three client
//! connections over real loopback TCP, and read the server's STATS
//! frame.
//!
//! ```sh
//! cargo run --example server_roundtrip
//! ```
//!
//! The third connection's query is served from the **process-wide
//! shared result cache**, which keeps a result once it has been asked for
//! twice — here by the first two connections: the sharing is keyed by the
//! plan's structural hash, so it crosses session (and connection)
//! boundaries. This is the multi-user deployment the paper describes —
//! one Kleisli server fronting the remote sources for many CPL clients
//! — with the caches turning N identical queries into one compile and
//! one federated evaluation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, Session};
use kleisli_core::LatencyModel;
use kleisli_server::{serve_ephemeral, Client, Registrar, ServedFrom, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The federation the server fronts: GDB + GenBank with a real 5 ms
    // per-request latency, as in the paper's deployment.
    let latency = Duration::from_millis(5);
    let fed = bio_federation(
        &GdbConfig {
            loci: 60,
            seed: 23,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 20,
            links_per_entry: 2,
            seed: 23,
            ..Default::default()
        },
        LatencyModel::real(latency, Duration::ZERO),
        LatencyModel::real(latency, Duration::ZERO),
    )?;

    // The registrar prepares every connection's session; the driver
    // `Arc`s it captures are shared, so admission and resilience
    // policies are process-wide.
    let gdb = fed.gdb.clone();
    let genbank = fed.genbank.clone();
    let registrar: Arc<Registrar> = Arc::new(move |session: &mut Session| {
        session.register_driver(gdb.clone());
        session.register_driver(genbank.clone());
    });

    let server = serve_ephemeral(ServerConfig::default(), registrar)?;
    println!("kleislid listening on {}", server.addr());

    let query = r#"{[s = l.locus_symbol] | \l <- GDB-Tab("locus")}"#;

    // Client A pays the full price: compile + federated evaluation.
    let mut a = Client::connect(server.addr())?;
    let t0 = Instant::now();
    let (value, served) = a.query(query)?.into_value()?;
    println!(
        "client A: {:?} in {:.1} ms ({} loci)",
        served,
        t0.elapsed().as_secs_f64() * 1e3,
        match &value {
            kleisli_core::Value::Set(rows) => rows.len(),
            _ => 0,
        }
    );
    assert_eq!(served, ServedFrom::Fresh);

    // Client B is a different connection — a different session — but the
    // caches are process-wide: same plan hash, so B's ask is the second
    // one, and the result B computes is retained.
    let mut b = Client::connect(server.addr())?;
    let t1 = Instant::now();
    let (value_b, served) = b.query(query)?.into_value()?;
    println!(
        "client B: {:?} in {:.1} ms (asked twice: retained)",
        served,
        t1.elapsed().as_secs_f64() * 1e3
    );
    assert_eq!(served, ServedFrom::Fresh);
    assert_eq!(value_b, value);

    // Client C is served B's result from memory.
    let mut c = Client::connect(server.addr())?;
    let t2 = Instant::now();
    let (value_c, served) = c.query(query)?.into_value()?;
    println!(
        "client C: {:?} in {:.2} ms",
        served,
        t2.elapsed().as_secs_f64() * 1e3
    );
    assert_eq!(served, ServedFrom::SharedCache);
    assert_eq!(value_c, value, "cache serves the same value");

    // The STATS frame: shared-cache and admission counters as JSON.
    println!("stats: {}", c.stats()?);

    server.shutdown();
    Ok(())
}
