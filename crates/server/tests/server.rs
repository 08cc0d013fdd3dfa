//! End-to-end tests of the `kleislid` server over real loopback
//! sockets: roundtrips, cross-session shared-cache behavior,
//! cancellation, admission control, and the memory budget.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bio_data::{GdbConfig, GenBankConfig, MemorySource};
use kleisli::{bio_federation, BioFederation, BreakerPolicy, ResiliencePolicy, Session};
use kleisli_core::testutil::{assert_quiescent, Fault, SlowDriver};
use kleisli_core::{LatencyModel, Value};
use kleisli_server::{serve_ephemeral, Client, QueryReply, Response, ServedFrom, ServerConfig};

/// A registrar binding a small local publications-like dataset — instant
/// queries, no federation generation cost.
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

/// A federation whose every driver request costs `latency_ms` — slow
/// enough that concurrent clients overlap and cancels land mid-flight.
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

#[test]
fn roundtrip_fresh_then_shared_cache_hit() {
    let server = serve_ephemeral(ServerConfig::default(), local_registrar()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // The first ask is served, not retained; the second is retained.
    client
        .query(r"sum({x.v | \x <- DB})")
        .unwrap()
        .into_value()
        .unwrap();
    let (v1, served1) = client
        .query(r"sum({x.v | \x <- DB})")
        .unwrap()
        .into_value()
        .unwrap();
    assert_eq!(v1, Value::Int((0..50).sum::<i64>()));
    assert_eq!(served1, ServedFrom::Fresh);

    // Same plan again — even from a *different* connection — is served
    // from the shared result cache.
    let mut other = Client::connect(server.addr()).unwrap();
    let (v2, served2) = other
        .query(r"sum({x.v | \x <- DB})")
        .unwrap()
        .into_value()
        .unwrap();
    assert_eq!(v2, v1);
    assert_eq!(served2, ServedFrom::SharedCache);

    let stats = other.stats().unwrap();
    for field in [
        "\"plan_cache\"",
        "\"result_cache\"",
        "\"queries\"",
        "\"served_cached\":1",
        "\"budget\"",
    ] {
        assert!(stats.contains(field), "missing {field} in {stats}");
    }
}

#[test]
fn compile_errors_come_back_as_error_frames() {
    let server = serve_ephemeral(ServerConfig::default(), local_registrar()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.query(r"{x | \x <- NoSuchSource}").unwrap() {
        QueryReply::Error(message) => {
            assert!(message.contains("NoSuchSource"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The connection survives an error and still serves queries.
    let (v, _) = client.query(r"count(DB)").unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(50));
}

#[test]
fn a_thousand_qualifiers_come_back_as_an_error_frame() {
    let server = serve_ephemeral(ServerConfig::default(), local_registrar()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let generators: String = (1..=1000).map(|i| format!(r", \x{i} <- {{1}}")).collect();
    let text = format!("{{x1 | {}}}", &generators[2..]);
    match client.query(&text).unwrap() {
        QueryReply::Error(message) => assert!(message.contains("levels"), "{message}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    let (v, _) = client.query("count(DB)").unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(50));
}

#[test]
fn a_thousand_alternatives_come_back_as_an_error_frame() {
    let server = serve_ephemeral(ServerConfig::default(), local_registrar()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let alternatives: Vec<String> = (0..1000)
        .map(|i| format!(r"<c = <t{i} = \s>> => s"))
        .collect();
    let text = format!("({})(<c = <t0 = 1>>)", alternatives.join(" | "));
    match client.query(&text).unwrap() {
        QueryReply::Error(message) => assert!(message.contains("levels"), "{message}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    let (v, _) = client.query("count(DB)").unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(50));
}

#[test]
fn n_identical_concurrent_queries_compile_once_and_evaluate_once() {
    const N: usize = 8;
    let fed = slow_federation(30);
    let server = serve_ephemeral(ServerConfig::default(), federation_registrar(&fed)).unwrap();
    let addr = server.addr();
    let src = r#"count({l | \l <- GDB-Tab("locus")})"#;

    let values: Vec<(Value, ServedFrom)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.query(src).unwrap().into_value().unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (v, _) in &values {
        assert_eq!(*v, Value::Int(40));
    }
    let fresh = values
        .iter()
        .filter(|(_, s)| *s == ServedFrom::Fresh)
        .count();
    assert_eq!(fresh, 1, "exactly one evaluation for {N} identical queries");

    let plans = server.plan_cache().stats();
    // One compile, kept because another query coalesced onto it — or,
    // when the first compile was done before a second query could
    // coalesce, a second one: that ask admits the plan, the rest hit.
    assert!(
        matches!((plans.misses, plans.declined), (1, 0) | (2, 1)),
        "{plans:?}"
    );
    assert_eq!(plans.entries, 1, "{plans:?}");
    // Every non-compiling query hits exactly once — also one landing
    // between the plan commit and the result commit, whose fast-path
    // probe finds the plan but no result and falls through to the
    // ordinary (counting) lookup.
    assert_eq!((plans.misses + plans.hits) as usize, N, "{plans:?}");
    let results = server.result_cache().stats();
    assert_eq!(results.misses, 1, "one populate flight: {results:?}");
    assert_eq!(results.hits as usize, N - 1);
}

#[test]
fn cancel_mid_flight_reports_error_and_does_not_poison_the_cache() {
    let fed = slow_federation(400);
    let server = serve_ephemeral(ServerConfig::default(), federation_registrar(&fed)).unwrap();
    let src = r#"count({l | \l <- GDB-Tab("locus")})"#;

    let mut victim = Client::connect(server.addr()).unwrap();
    let id = victim.send_query(src).unwrap();
    thread::sleep(Duration::from_millis(50));
    victim.cancel(id).unwrap();
    match victim.wait_reply(id).unwrap() {
        QueryReply::Error(message) => {
            assert!(
                message.to_lowercase().contains("cancel"),
                "expected a cancellation error, got: {message}"
            );
        }
        other => panic!("cancelled query must end in a cancellation error, got {other:?}"),
    }

    // The aborted populate flight must not wedge the shared cell: a new
    // client computes the same plan to completion.
    let mut retry = Client::connect(server.addr()).unwrap();
    let (v, served) = retry.query(src).unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(40));
    assert_eq!(served, ServedFrom::Fresh, "aborted flight cached nothing");
}

#[test]
fn a_cancel_reaches_a_query_coalesced_onto_another_connections_flight() {
    let fed = slow_federation(400);
    let server = serve_ephemeral(ServerConfig::default(), federation_registrar(&fed)).unwrap();
    let src = r#"count({l | \l <- GDB-Tab("locus")})"#;

    let mut leader = Client::connect(server.addr()).unwrap();
    let leading = leader.send_query(src).unwrap();
    // The first connection leads from the moment its miss is counted.
    while server.result_cache().stats().misses == 0 {
        thread::yield_now();
    }
    let mut waiter = Client::connect(server.addr()).unwrap();
    let coalesced = waiter.send_query(src).unwrap();
    thread::sleep(Duration::from_millis(80));
    let cancelled = Instant::now();
    waiter.cancel(coalesced).unwrap();
    match waiter.wait_reply(coalesced).unwrap() {
        QueryReply::Error(message) => assert!(message.contains("cancel"), "{message}"),
        other => panic!("a cancelled waiter must end in an error, got {other:?}"),
    }
    let answered = cancelled.elapsed();
    // ...well before the flight it was parked on lands, which is untouched.
    let (v, served) = leader.wait_reply(leading).unwrap().into_value().unwrap();
    let landed = cancelled.elapsed();
    assert_eq!((v, served), (Value::Int(40), ServedFrom::Fresh));
    assert!(
        answered < Duration::from_millis(100) && answered + Duration::from_millis(100) < landed,
        "ERROR after {answered:?}, the leader's RESULT after {landed:?}"
    );
    let r = server.result_cache().stats();
    assert_eq!(
        (r.misses, r.hits),
        (1, 0),
        "the waiter counted nothing: {r:?}"
    );
    let (v, served) = waiter.query(src).unwrap().into_value().unwrap();
    assert_eq!((v, served), (Value::Int(40), ServedFrom::SharedCache));
    // Both run slots go back (a slot is released just after its frame).
    assert_quiescent(&[&server, &*fed.gdb]);
}

#[test]
fn queue_depth_overflow_is_rejected_not_stalled() {
    let fed = slow_federation(300);
    let config = ServerConfig {
        max_queries_per_connection: 1,
        queue_depth_per_connection: 1,
        ..ServerConfig::default()
    };
    let server = serve_ephemeral(config, federation_registrar(&fed)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Distinct plans so the shared result cache cannot absorb the burst.
    let sources = [
        r#"count({l | \l <- GDB-Tab("locus")})"#,
        r#"count({l.locus_symbol | \l <- GDB-Tab("locus")})"#,
        r#"count({l | \l <- GDB-Tab("object_genbank_eref")})"#,
        r#"count({l | \l <- GDB-Tab("locus_cyto_location")})"#,
    ];
    let ids: Vec<u64> = sources
        .iter()
        .map(|src| client.send_query(src).unwrap())
        .collect();

    let mut busy = 0;
    let mut ok = 0;
    for _ in &ids {
        match client.read_response().unwrap() {
            Response::Error { message, .. } if message.starts_with("busy:") => busy += 1,
            Response::Error { message, .. } => panic!("unexpected error: {message}"),
            Response::Result { .. } => ok += 1,
            other => panic!("unrequested frame: {other:?}"),
        }
    }
    // 1 running + 1 queued; with 4 pipelined queries at least one must
    // overflow the queue (scheduling may let an early finisher admit a
    // later arrival, so the exact split varies).
    assert!(busy >= 1, "no busy rejection in {busy}/{ok} split");
    assert!(ok >= 2, "admitted queries must still complete ({ok})");
    assert_eq!(busy + ok, 4);

    let stats = server.stats_json();
    assert!(stats.contains("\"rejected\":"), "{stats}");
}

#[test]
fn a_cached_plan_with_an_uncached_result_counts_one_plan_hit_per_query() {
    // No result is ever retained, so every repeat from the third (the
    // second admits the plan) takes the fast path's probe (plan found, no
    // result) and then the ordinary lookup: one query served must still
    // read as one plan-cache hit.
    const N: u64 = 6;
    let config = ServerConfig {
        result_cache_budget: 0,
        ..ServerConfig::default()
    };
    let server = serve_ephemeral(config, local_registrar()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for _ in 0..N {
        let (v, served) = client.query(r"count(DB)").unwrap().into_value().unwrap();
        assert_eq!((v, served), (Value::Int(50), ServedFrom::Fresh));
    }
    let plans = server.plan_cache().stats();
    assert_eq!(
        (plans.misses, plans.declined, plans.hits),
        (2, 1, N - 2),
        "{plans:?}"
    );
}

#[test]
fn result_cache_budget_is_enforced_over_the_wire() {
    // A tiny budget: every distinct query's result evicts the previous
    // one, and resident bytes never exceed the cap.
    let config = ServerConfig {
        result_cache_budget: 4096,
        ..ServerConfig::default()
    };
    let server = serve_ephemeral(config, local_registrar()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for k in 0..7 {
        let src = format!(r"{{[a = x.v, b = {k}] | \x <- DB}}");
        client.query(&src).unwrap().into_value().unwrap();
        let (v, _) = client.query(&src).unwrap().into_value().unwrap();
        assert_eq!(v.len(), Some(50));
        let stats = server.result_cache().stats();
        assert!(
            stats.bytes <= stats.budget,
            "resident {} exceeds budget {}",
            stats.bytes,
            stats.budget
        );
        assert!(
            stats.peak_bytes <= stats.budget,
            "peak {} exceeds budget {}",
            stats.peak_bytes,
            stats.budget
        );
    }
    let stats = server.result_cache().stats();
    assert!(stats.evictions > 0, "budget pressure must evict: {stats:?}");

    // Warm hits on more distinct results than fit (three of these do): a
    // hit keeps the result's serialized copy beside it, charged to the
    // same budget and evicted with it.
    let small = |k: i64| format!(r"{{[a = x.v, b = {k}] | \x <- DB, x.v < 10}}");
    let mut ask = |k: i64, expected: ServedFrom| {
        let (v, served) = client.query(&small(k)).unwrap().into_value().unwrap();
        let row = |i| Value::record_from(vec![("a", Value::Int(i)), ("b", Value::Int(k))]);
        assert_eq!(v, Value::set((0..10).map(row).collect()), "query {k}");
        assert_eq!(served, expected, "query {k}");
        let stats = server.result_cache().stats();
        assert!(
            stats.bytes <= stats.budget && stats.peak_bytes <= stats.budget,
            "{stats:?}"
        );
        stats.bytes
    };
    for k in 0..7 {
        ask(k, ServedFrom::Fresh);
        let value_only = ask(k, ServedFrom::Fresh);
        let with_text = ask(k, ServedFrom::SharedCache);
        assert!(
            with_text > value_only,
            "the text is resident, so it is charged"
        );
        assert_eq!(
            ask(k, ServedFrom::SharedCache),
            with_text,
            "and serialized once"
        );
    }
    // Long evicted, value and text together: recomputed, not replayed.
    ask(0, ServedFrom::Fresh);
}

// ---------------------------------------------------------------------
// CANCEL edge cases: every shape of misdirected cancel is an
// acknowledged no-op, never an error or a wedged connection.
// ---------------------------------------------------------------------

#[test]
fn cancel_for_an_unknown_id_is_a_noop() {
    let server = serve_ephemeral(ServerConfig::default(), local_registrar()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    client.cancel(999).unwrap();
    // The connection is unharmed and still serves queries.
    let (v, _) = client.query(r"count(DB)").unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(50));
    assert!(server.stats_json().contains("\"cancel_requests\":1"));
}

#[test]
fn cancel_after_the_terminal_frame_is_a_noop() {
    let server = serve_ephemeral(ServerConfig::default(), local_registrar()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let id = client.send_query(r"count(DB)").unwrap();
    let reply = client.wait_reply(id).unwrap();
    assert!(matches!(reply, QueryReply::Value { .. }));

    // The query is already terminal; cancelling its id does nothing.
    client.cancel(id).unwrap();
    let (v, _) = client
        .query(r"sum({x.v | \x <- DB})")
        .unwrap()
        .into_value()
        .unwrap();
    assert_eq!(v, Value::Int((0..50).sum::<i64>()));
}

#[test]
fn double_cancel_is_idempotent() {
    let fed = slow_federation(400);
    let server = serve_ephemeral(ServerConfig::default(), federation_registrar(&fed)).unwrap();
    let src = r#"count({l | \l <- GDB-Tab("locus")})"#;

    let mut client = Client::connect(server.addr()).unwrap();
    let id = client.send_query(src).unwrap();
    thread::sleep(Duration::from_millis(50));
    client.cancel(id).unwrap();
    client.cancel(id).unwrap();
    match client.wait_reply(id).unwrap() {
        QueryReply::Error(message) => {
            assert!(message.to_lowercase().contains("cancel"), "{message}");
        }
        other => panic!("expected exactly one cancellation error, got {other:?}"),
    }
    // One terminal frame only; the connection still serves.
    let (v, _) = client.query(src).unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(40));
}

// ---------------------------------------------------------------------
// The outbound frame-size limit: a result too large for the configured
// bound becomes a clean ERROR frame, not a hung or killed connection.
// (The inbound direction — an oversized length announcement — is
// covered in tests/chaos.rs.)
// ---------------------------------------------------------------------

#[test]
fn oversized_results_become_clean_error_frames() {
    let config = ServerConfig {
        max_result_frame: 64,
        ..ServerConfig::default()
    };
    let server = serve_ephemeral(config, local_registrar()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    match client.query(r"{x | \x <- DB}").unwrap() {
        QueryReply::Error(message) => {
            assert!(message.contains("result too large"), "{message}");
            assert!(message.contains("64-byte limit"), "{message}");
        }
        other => panic!("expected a too-large error, got {other:?}"),
    }
    // Small results still fit, on the same connection.
    let (v, _) = client.query(r"count(DB)").unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(50));
}

/// Six generators over one 20-element literal: 20⁶ = 64 M records from
/// a text of about 500 bytes.
fn six_generators() -> String {
    let twenty: Vec<String> = (1..=20).map(|i| i.to_string()).collect();
    let twenty = twenty.join(", ");
    let names = ["a", "b", "c", "d", "e", "f"];
    let fields: Vec<String> = names.iter().map(|n| format!("{n} = {n}")).collect();
    let generators: Vec<String> = names
        .iter()
        .map(|n| format!(r"\{n} <- {{{twenty}}}"))
        .collect();
    format!("{{[{}] | {}}}", fields.join(", "), generators.join(", "))
}

#[test]
fn a_query_past_its_byte_budget_is_an_error_frame_and_everyone_keeps_being_served() {
    let config = ServerConfig {
        max_result_frame: 1024,
        ..ServerConfig::default()
    };
    let server = serve_ephemeral(config, local_registrar()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let probe = six_generators();
    assert!(probe.len() < 600, "{}", probe.len());

    match client.query(&probe).unwrap() {
        QueryReply::Error(message) => {
            assert!(message.contains("memory budget"), "{message}");
        }
        other => panic!("expected the budget's error, got {other:?}"),
    }
    // The same connection, and a second one, are served.
    let (v, _) = client.query("count(DB)").unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(50));
    let mut second = Client::connect(server.addr()).unwrap();
    let (v, _) = second
        .query(r"sum({x.v | \x <- DB})")
        .unwrap()
        .into_value()
        .unwrap();
    assert_eq!(v, Value::Int(49 * 50 / 2));
    drop((client, second));
    assert_quiescent(&[&server]);
}

// ---------------------------------------------------------------------
// FLUSH over the wire: refreshing a source invalidates exactly the
// entries derived from it, and the invalidation generations move.
// ---------------------------------------------------------------------

#[test]
fn flush_invalidates_exactly_the_refreshed_source() {
    let src_a = Arc::new(
        MemorySource::new("SrcA").with_table("t", Value::set(vec![Value::Int(1), Value::Int(2)])),
    );
    let src_b =
        Arc::new(MemorySource::new("SrcB").with_table("t", Value::set(vec![Value::Int(10)])));
    let registrar: Arc<kleisli_server::Registrar> = {
        let (a, b) = (src_a.clone(), src_b.clone());
        Arc::new(move |session: &mut Session| {
            session.register_driver(a.clone());
            session.register_driver(b.clone());
        })
    };
    let server = serve_ephemeral(ServerConfig::default(), registrar).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let qa = r#"sum(SrcA([table = "t"]))"#;
    let qb = r#"sum(SrcB([table = "t"]))"#;

    // Warm both sources into the shared caches.
    client.query(qa).unwrap().into_value().unwrap();
    let (v, _) = client.query(qa).unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(3));
    let (v, served) = client.query(qa).unwrap().into_value().unwrap();
    assert_eq!((v, served), (Value::Int(3), ServedFrom::SharedCache));
    client.query(qb).unwrap().into_value().unwrap();
    let (v, _) = client.query(qb).unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(10));

    // The source changes underneath the mediator; FLUSH tells it so.
    src_a.replace_table("t", Value::set(vec![Value::Int(5), Value::Int(7)]));
    let (plans, results) = client.flush("SrcA").unwrap();
    assert!(plans >= 1, "the SrcA plan was resident ({plans})");
    assert_eq!(results, 1, "exactly SrcA's result entry dropped");

    // The same query text now recompiles and re-evaluates fresh...
    let (v, served) = client.query(qa).unwrap().into_value().unwrap();
    assert_eq!(
        (v, served),
        (Value::Int(12), ServedFrom::Fresh),
        "the flushed plan must re-evaluate against the new rows"
    );
    // ...while the untouched source's entry survives the flush.
    let (v, served) = client.query(qb).unwrap().into_value().unwrap();
    assert_eq!((v, served), (Value::Int(10), ServedFrom::SharedCache));

    // The refresh is observable in the invalidation generations.
    assert_eq!(server.plan_cache().generation("SrcA"), 1);
    assert_eq!(server.plan_cache().generation("SrcB"), 0);
    assert_eq!(server.result_cache().generation("SrcA"), 1);
    assert_eq!(server.result_cache().generation("SrcB"), 0);
    assert!(server.stats_json().contains("\"flush_requests\":1"));
}

#[test]
fn flush_of_a_value_binding_is_conservative_and_typos_are_errors() {
    let server = serve_ephemeral(ServerConfig::default(), local_registrar()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    client.query(r"count(DB)").unwrap().into_value().unwrap();
    let (v, _) = client.query(r"count(DB)").unwrap().into_value().unwrap();
    assert_eq!(v, Value::Int(50));
    let (_, served) = client.query(r"count(DB)").unwrap().into_value().unwrap();
    assert_eq!(served, ServedFrom::SharedCache);

    // A binding is inlined at desugar time and cannot be traced in the
    // plan: the flush falls back to clearing everything resident.
    let (plans, results) = client.flush("DB").unwrap();
    assert_eq!((plans, results), (1, 1));
    let (_, served) = client.query(r"count(DB)").unwrap().into_value().unwrap();
    assert_eq!(
        served,
        ServedFrom::Fresh,
        "conservative flush dropped the entry"
    );

    // Unknown names are refused — flushing everything on a typo would
    // be an availability incident, not a refresh.
    let err = client.flush("NoSuchSource").unwrap_err();
    assert!(err.to_string().contains("no such source"), "{err}");
}

// ---------------------------------------------------------------------
// Admission: the shared caches keep what is asked for again.
// ---------------------------------------------------------------------

/// The `name` object of a STATS document (the cache objects are flat).
fn stats_object<'s>(stats: &'s str, name: &str) -> &'s str {
    let at = stats
        .find(&format!("\"{name}\":{{"))
        .unwrap_or_else(|| panic!("a {name} object in {stats}"));
    let len = stats[at..].find('}').expect("a closed object");
    &stats[at..at + len]
}

#[test]
fn a_result_is_retained_on_its_second_ask() {
    let server = serve_ephemeral(ServerConfig::default(), local_registrar()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let src = r"sum({x.v * 2 | \x <- DB})";
    let mut ask = |expected: ServedFrom| {
        let (v, served) = client.query(src).unwrap().into_value().unwrap();
        assert_eq!(
            (v, served),
            (Value::Int(2 * (0..50).sum::<i64>()), expected)
        );
        server.result_cache().stats()
    };
    let first = ask(ServedFrom::Fresh);
    assert_eq!(
        (first.entries, first.bytes, first.declined),
        (0, 0, 1),
        "{first:?}"
    );
    let second = ask(ServedFrom::Fresh);
    assert_eq!((second.entries, second.declined), (1, 1), "{second:?}");
    assert!(second.bytes > 0, "{second:?}");
    let third = ask(ServedFrom::SharedCache);
    assert_eq!(
        (third.hits, third.misses, third.evictions),
        (1, 2, 0),
        "{third:?}"
    );
    let stats = client.stats().unwrap();
    assert!(
        stats_object(&stats, "result_cache").contains("\"declined\":1,"),
        "{stats}"
    );
}

#[test]
fn never_repeated_texts_leave_nothing_behind_and_a_working_set_is_kept() {
    const TEXTS: usize = 2000;
    let started = Instant::now();
    let fed = bio_federation(
        &GdbConfig {
            loci: 30,
            seed: 11,
            ..Default::default()
        },
        &GenBankConfig::default(),
        LatencyModel::instant(),
        LatencyModel::instant(),
    )
    .expect("federation");
    let server = serve_ephemeral(ServerConfig::default(), federation_registrar(&fed)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let text = |k: usize| format!(r#"count({{l | \l <- GDB-Tab("locus"), l.locus_id > {k}}})"#);
    let mut ask = |k: usize| client.query(&text(k)).unwrap().into_value().unwrap().1;

    // Ad hoc traffic: every text asked once, none retained, so resident
    // bytes stay flat instead of growing with the history, and no plan
    // is kept either.
    for k in 0..TEXTS {
        assert_eq!(ask(k), ServedFrom::Fresh);
    }
    let r = server.result_cache().stats();
    assert_eq!((r.bytes, r.peak_bytes, r.entries), (0, 0, 0), "{r:?}");
    assert_eq!((r.declined, r.evictions), (TEXTS as u64, 0), "{r:?}");
    let p = server.plan_cache().stats();
    assert_eq!(
        (p.entries, p.declined, p.evictions),
        (0, TEXTS as u64, 0),
        "{p:?}"
    );
    let stats = server.stats_json();
    let results = stats_object(&stats, "result_cache");
    for field in [
        format!("\"declined\":{TEXTS},"),
        "\"entries\":0,".to_string(),
        "\"bytes\":0,".to_string(),
    ] {
        assert!(results.contains(&field), "missing {field} in {stats}");
    }
    let plans = stats_object(&stats, "plan_cache");
    for field in [
        format!("\"declined\":{TEXTS},"),
        "\"entries\":0,".to_string(),
    ] {
        assert!(plans.contains(&field), "missing {field} in {stats}");
    }

    // A working set: the second ask admits each text's plan and result,
    // the third and fourth hit both.
    let working_set = TEXTS..TEXTS + 16;
    for round in 0..4 {
        for k in working_set.clone() {
            let expected = if round < 2 {
                ServedFrom::Fresh
            } else {
                ServedFrom::SharedCache
            };
            assert_eq!(ask(k), expected, "text {k}, ask {}", round + 1);
        }
        let p = server.plan_cache().stats();
        let (entries, hits) = match round {
            0 => (0, 0),
            1 => (16, 0),
            _ => (16, 16 * (round as u64 - 1)),
        };
        assert_eq!(
            (p.entries, p.hits, p.declined, p.evictions),
            (entries, hits, TEXTS as u64 + 16, 0),
            "after ask {}: {p:?}",
            round + 1
        );
    }
    let r = server.result_cache().stats();
    assert_eq!((r.entries, r.hits, r.evictions), (16, 32, 0), "{r:?}");

    // Quiescent: no query, no ticket, no orphaned worker left.
    assert_quiescent(&[&server, &*fed.gdb]);
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "the soak took {elapsed:?}"
    );
}

// ---------------------------------------------------------------------
// One resilience state per driver: a breaker one connection's queries
// opened is every connection's, and STATS shows it.
// ---------------------------------------------------------------------

#[test]
fn a_breaker_one_connection_opened_fails_the_next_connections_first_query() {
    let drv = SlowDriver::new("SRC", 3, Duration::from_millis(1), 2);
    drv.set_resilience(ResiliencePolicy {
        breaker: Some(BreakerPolicy {
            failure_threshold: 2,
            cooldown: Duration::from_secs(60),
        }),
        ..ResiliencePolicy::default()
    });
    drv.set_fault(Fault::FailRequests(u32::MAX));
    let registered = Arc::clone(&drv);
    let registrar: Arc<kleisli_server::Registrar> =
        Arc::new(move |session: &mut Session| session.register_driver(registered.clone()));
    let server = serve_ephemeral(ServerConfig::default(), registrar).unwrap();
    let scan = r#"{x.n | \x <- SRC([class = "any"])}"#;
    let failed = |client: &mut Client| match client.query(scan).unwrap() {
        QueryReply::Error(message) => message,
        other => panic!("expected an error frame, got {other:?}"),
    };
    let mut first = Client::connect(server.addr()).unwrap();
    for _ in 0..2 {
        let message = failed(&mut first);
        assert!(message.contains("injected transport failure"), "{message}");
    }
    let mut second = Client::connect(server.addr()).unwrap();
    let message = failed(&mut second);
    assert!(message.contains("circuit open for 'SRC'"), "{message}");
    let stats = second.stats().unwrap();
    let drivers = stats_object(&stats, "drivers");
    assert!(drivers.starts_with("\"drivers\":{\"SRC\":{"), "{stats}");
    for field in ["\"breaker_opens\":1,", "\"breaker\":\"open\""] {
        assert!(drivers.contains(field), "missing {field} in {stats}");
    }
    drop((first, second));
    assert_quiescent(&[&*drv, &server]);
}

// ---------------------------------------------------------------------
// Stopping: a reader is woken, not polled. It checks the stop between
// frames, and the stop shuts every connection's read half, which turns
// a read blocked on an idle or half-sent frame into EOF.
// ---------------------------------------------------------------------

/// Wait until `holds`, for at most 10 s.
fn eventually(what: &str, holds: impl Fn() -> bool) {
    let start = Instant::now();
    while !holds() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "timed out waiting for {what}"
        );
        thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_chatty_client_cannot_hold_a_shutdown_open() {
    // A frame every 10 ms: a reader that looked at the stop only when a
    // read timed out would never look.
    let server = serve_ephemeral(ServerConfig::default(), local_registrar()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.stats().unwrap();
    let chatty = thread::spawn(move || {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(5) && client.stats().is_ok() {
            thread::sleep(Duration::from_millis(10));
        }
        start.elapsed()
    });
    thread::sleep(Duration::from_millis(100));
    let report = server.shutdown_within(Duration::from_millis(100));
    assert!(report.drained, "{report:?}");
    assert!(report.elapsed < Duration::from_secs(1), "{report:?}");
    let chatted = chatty.join().unwrap();
    assert!(
        chatted < Duration::from_secs(2),
        "the client was cut off at {chatted:?}"
    );
}

#[test]
fn a_shutdown_answers_the_query_in_flight_and_wakes_idle_readers() {
    let driver = SlowDriver::new("SRC", 1, Duration::from_millis(300), 4);
    let registered = Arc::clone(&driver);
    let registrar: Arc<kleisli_server::Registrar> =
        Arc::new(move |session: &mut Session| session.register_driver(registered.clone()));
    let server = serve_ephemeral(ServerConfig::default(), registrar).unwrap();
    let (plans, results) = (
        Arc::clone(server.plan_cache()),
        Arc::clone(server.result_cache()),
    );

    // Two of a frame's four length bytes, then nothing.
    let mut half = TcpStream::connect(server.addr()).unwrap();
    half.write_all(&[0, 0]).unwrap();
    let mut idle = TcpStream::connect(server.addr()).unwrap();
    let mut busy = Client::connect(server.addr()).unwrap();
    let id = busy
        .send_query(r#"count(SRC([function = "probe", arg = 1]))"#)
        .unwrap();
    eventually("three connections", || server.connections_open() == 3);
    eventually("the query to reach the source", || {
        driver.requests_started() == 1
    });

    let report = server.shutdown();
    assert!(report.drained, "{report:?}");
    assert!(report.elapsed < Duration::from_secs(2), "{report:?}");
    match busy.wait_reply(id).unwrap() {
        QueryReply::Value { value, .. } => assert_eq!(value, Value::Int(1)),
        other => panic!("expected the query's value, got {other:?}"),
    }
    for stream in [&mut half, &mut idle] {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(
            stream.read(&mut [0; 16]).unwrap(),
            0,
            "a woken reader closed"
        );
    }
    // `shutdown` returned, so every reader was joined, and each reader
    // joined its writer.
    assert_quiescent(&[&*plans, &*results, &*driver]);
}
