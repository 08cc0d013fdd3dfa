//! Protocol torture tests: a fault-injecting TCP proxy
//! ([`kleisli_core::testutil::ChaosProxy`]) sits between a client and a
//! live `kleislid` server and misbehaves on the wire — truncated
//! frames, garbage opcodes, mid-query disconnects, stalled readers —
//! while a healthy tenant keeps querying. Every test ends by asserting
//! the server *settled* and quiescent: the faulty connection (and only
//! it) is gone, no query is active or waiting for a run slot, no source
//! holds a ticket, and the connection counters balance.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::{bio_federation, BioFederation, Session};
use kleisli_core::testutil::{assert_quiescent, ChaosPlan, ChaosProxy, WireFault};
use kleisli_core::{LatencyModel, Value};
use kleisli_server::proto::{decode_response, encode_request, read_frame, write_frame};
use kleisli_server::{
    serve_ephemeral, Client, QueryReply, Request, Response, ServedFrom, ServerConfig, ServerHandle,
    MAX_FRAME_LEN,
};

/// A registrar binding a small instant local dataset.
fn local_registrar() -> Arc<kleisli_server::Registrar> {
    Arc::new(|session: &mut Session| {
        session.bind_value(
            "DB",
            Value::set(
                (0..50)
                    .map(|i| {
                        Value::record_from(vec![("k", Value::Int(i % 7)), ("v", Value::Int(i))])
                    })
                    .collect(),
            ),
        );
    })
}

/// A registrar binding a dataset whose every full scan serializes to a
/// multi-megabyte result frame — enough to overwhelm kernel socket
/// buffers and expose a reader that stopped reading.
fn big_registrar(rows: usize) -> Arc<kleisli_server::Registrar> {
    let pad = "x".repeat(200);
    let big = Value::set(
        (0..rows)
            .map(|i| {
                Value::record_from(vec![("i", Value::Int(i as i64)), ("pad", Value::str(&pad))])
            })
            .collect(),
    );
    Arc::new(move |session: &mut Session| {
        session.bind_value("BIG", big.clone());
    })
}

/// A federation whose every driver request costs `latency_ms`.
fn slow_federation(latency_ms: u64) -> BioFederation {
    bio_federation(
        &GdbConfig {
            loci: 40,
            seed: 11,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 5,
            links_per_entry: 2,
            seq_len: 20,
            seed: 11,
        },
        LatencyModel::real(Duration::from_millis(latency_ms), Duration::ZERO),
        LatencyModel::real(Duration::from_millis(latency_ms), Duration::ZERO),
    )
    .expect("federation")
}

fn federation_registrar(fed: &BioFederation) -> Arc<kleisli_server::Registrar> {
    let gdb = fed.gdb.clone();
    let genbank = fed.genbank.clone();
    Arc::new(move |session: &mut Session| {
        session.register_driver(gdb.clone());
        session.register_driver(genbank.clone());
    })
}

/// Poll until the server reports exactly `open` live connections, then
/// assert it quiescent — the "nothing leaked" invariant every fault
/// scenario must restore. Panics (with the stats document) if the
/// connections have not settled within ten seconds.
fn settle(server: &ServerHandle, open: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.connections_open() != open {
        assert!(
            Instant::now() < deadline,
            "server did not settle to {open} open connections (open={}): {}",
            server.connections_open(),
            server.stats_json()
        );
        thread::sleep(Duration::from_millis(10));
    }
    assert_quiescent(&[server]);
}

#[test]
fn truncated_frame_sheds_only_the_faulty_connection() {
    let server = serve_ephemeral(ServerConfig::default(), local_registrar()).unwrap();
    let proxy = ChaosProxy::new(server.addr()).unwrap();
    // Forward six bytes of the QUERY frame (the length prefix and a bit
    // of payload), then close: the server sees EOF mid-frame.
    proxy.set_plan(ChaosPlan {
        up: WireFault::TruncateAfter(6),
        down: WireFault::Pass,
    });

    let mut victim = Client::connect(proxy.addr()).unwrap();
    let _ = victim.send_query(r"count(DB)");

    // A healthy tenant, connected directly, is untouched by the fault.
    let mut healthy = Client::connect(server.addr()).unwrap();
    let (v, _) = healthy.query(r"count(DB)").unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(50));

    settle(&server, 1); // only the healthy connection remains
    assert_eq!(
        server.connections_shed(),
        0,
        "EOF is not accept-time shedding"
    );
    drop(healthy);
    settle(&server, 0);
}

#[test]
fn garbage_opcode_is_reported_and_the_connection_survives() {
    let server = serve_ephemeral(ServerConfig::default(), local_registrar()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();

    // A correctly framed payload with a nonsense opcode: the stream
    // stays in sync, so the server reports and keeps serving.
    let mut payload = vec![0x7F];
    payload.extend_from_slice(&42u64.to_be_bytes());
    payload.extend_from_slice(b"junk");
    write_frame(&mut stream, &payload).unwrap();

    let reply = read_frame(&mut stream).unwrap().expect("an error frame");
    match decode_response(&reply).unwrap() {
        Response::Error { id, message } => {
            assert_eq!(id, 0, "no request id to blame: {message}");
            assert!(message.contains("malformed request"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }

    // The same connection still answers a well-formed query.
    write_frame(
        &mut stream,
        &encode_request(&Request::Query {
            id: 7,
            src: r"count(DB)".to_string(),
        }),
    )
    .unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("a result frame");
    match decode_response(&reply).unwrap() {
        Response::Result { id, value, .. } => {
            assert_eq!(id, 7);
            assert_eq!(value, Value::Int(50));
        }
        other => panic!("expected a result, got {other:?}"),
    }

    drop(stream);
    settle(&server, 0);
}

#[test]
fn oversized_length_announcement_is_rejected_then_closed() {
    use std::io::Write;

    let server = serve_ephemeral(ServerConfig::default(), local_registrar()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();

    // Announce a frame one byte over the protocol bound. The stream
    // cannot be resynchronized, so the server reports once and closes
    // — this connection only.
    let announced = (MAX_FRAME_LEN as u32) + 1;
    stream.write_all(&announced.to_be_bytes()).unwrap();

    let reply = read_frame(&mut stream).unwrap().expect("an error frame");
    match decode_response(&reply).unwrap() {
        Response::Error { id, message } => {
            assert_eq!(id, 0);
            assert!(message.contains("protocol error"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // ... then EOF (or a reset, depending on timing).
    assert!(
        matches!(read_frame(&mut stream), Ok(None) | Err(_)),
        "connection must close after an unsyncable frame"
    );

    // The server itself survives and serves new connections.
    let mut healthy = Client::connect(server.addr()).unwrap();
    let (v, _) = healthy.query(r"count(DB)").unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(50));
    drop(healthy);
    settle(&server, 0);
}

#[test]
fn mid_query_disconnect_does_not_poison_the_shared_flight() {
    let fed = slow_federation(400);
    let server = serve_ephemeral(ServerConfig::default(), federation_registrar(&fed)).unwrap();
    let proxy = ChaosProxy::new(server.addr()).unwrap();
    // The connection dies ~100 ms in — mid-evaluation for a 400 ms
    // federation round-trip.
    proxy.set_plan(ChaosPlan {
        up: WireFault::CloseAfter(Duration::from_millis(100)),
        down: WireFault::Pass,
    });

    let src = r#"count({l | \l <- GDB-Tab("locus")})"#;
    let mut victim = Client::connect(proxy.addr()).unwrap();
    victim.send_query(src).unwrap();
    // The victim's reply never arrives; the read fails with the cut.
    victim
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert!(
        victim.read_response().is_err(),
        "the proxy cut this connection"
    );

    // The aborted populate flight must not wedge the shared cache cell:
    // a retry computes the same plan to completion.
    settle(&server, 0);
    let mut retry = Client::connect(server.addr()).unwrap();
    let (v, served) = retry.query(src).unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(40));
    assert_eq!(served, ServedFrom::Fresh, "aborted flight cached nothing");
    drop(retry);
    settle(&server, 0);
    assert_quiescent(&[&*fed.gdb, &*fed.genbank]);
}

#[test]
fn slow_loris_reader_is_condemned_without_blocking_other_tenants() {
    // Multi-megabyte results, a two-frame writer queue, and a short
    // write deadline: a tenant that stops reading is condemned fast,
    // either by queue overflow or by the blocked write timing out.
    let config = ServerConfig {
        writer_queue_frames: 2,
        write_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = serve_ephemeral(config, big_registrar(6000)).unwrap();
    let proxy = ChaosProxy::new(server.addr()).unwrap();
    // The proxy forwards the queries but never reads a single response
    // byte: backpressure fills the server's kernel buffers.
    proxy.set_plan(ChaosPlan {
        up: WireFault::Pass,
        down: WireFault::StallAfter(0),
    });

    let mut victim = Client::connect(proxy.addr()).unwrap();
    // Distinct plans, each a ~2 MiB result frame, pipelined without
    // reading anything back.
    for k in 0..6 {
        victim
            .send_query(&format!(r"{{[i = x.i, p = x.pad, tag = {k}] | \x <- BIG}}"))
            .unwrap();
    }

    // Meanwhile a healthy tenant keeps getting answers promptly.
    let mut healthy = Client::connect(server.addr()).unwrap();
    for _ in 0..5 {
        let (v, _) = healthy.query(r"count(BIG)").unwrap().into_value().unwrap();
        assert_eq!(v, Value::Int(6000));
        thread::sleep(Duration::from_millis(50));
    }

    // The stalled reader's connection is condemned and fully reaped —
    // workers joined, writer joined, no gate ticket leaked.
    settle(&server, 1);
    drop(healthy);
    settle(&server, 0);
}

#[test]
fn connection_cap_sheds_excess_with_a_busy_frame() {
    let config = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    let server = serve_ephemeral(config, local_registrar()).unwrap();

    let mut first = Client::connect(server.addr()).unwrap();
    let mut second = Client::connect(server.addr()).unwrap();
    // Prove both are live (and their reader threads registered) before
    // the third arrives.
    first.query(r"count(DB)").unwrap().into_value().unwrap();
    second.query(r"count(DB)").unwrap().into_value().unwrap();

    let mut third = Client::connect(server.addr()).unwrap();
    match third.read_response().unwrap() {
        Response::Error { id, message } => {
            assert_eq!(id, 0);
            assert!(message.starts_with("busy:"), "{message}");
        }
        other => panic!("expected a busy frame, got {other:?}"),
    }
    assert!(
        server.connections_shed() >= 1,
        "the third connection was shed"
    );

    // The tenants inside the cap are unaffected.
    let (v, _) = first.query(r"count(DB)").unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(50));
    drop((first, second, third));
    settle(&server, 0);
}

#[test]
fn drain_finishes_in_flight_work_and_rejects_new_queries() {
    let fed = slow_federation(500);
    let server = serve_ephemeral(ServerConfig::default(), federation_registrar(&fed)).unwrap();
    let addr = server.addr();
    let src = r#"count({l | \l <- GDB-Tab("locus")})"#;

    // Tenant A starts a slow query; tenant B connects before the drain
    // begins but only sends once the server is draining.
    let mut a = Client::connect(addr).unwrap();
    let a_id = a.send_query(src).unwrap();
    let a_thread = thread::spawn(move || a.wait_reply(a_id).unwrap());
    let b_thread = thread::spawn(move || {
        let mut b = Client::connect(addr).unwrap();
        thread::sleep(Duration::from_millis(200));
        b.query(src).unwrap()
    });

    thread::sleep(Duration::from_millis(100));
    let report = server.shutdown();
    assert!(
        report.drained,
        "the in-flight query finished inside the deadline: {report:?}"
    );

    // A's query ran to completion and its terminal frame was flushed.
    match a_thread.join().unwrap() {
        QueryReply::Value { value, .. } => assert_eq!(value, Value::Int(40)),
        other => panic!("in-flight query must finish during drain, got {other:?}"),
    }
    // B's query, sent mid-drain, was rejected with the typed variant.
    match b_thread.join().unwrap() {
        QueryReply::ShuttingDown(message) => {
            assert!(message.starts_with("shutting-down:"), "{message}");
        }
        other => panic!("expected a drain rejection, got {other:?}"),
    }
    assert_quiescent(&[&*fed.gdb, &*fed.genbank]);
}
