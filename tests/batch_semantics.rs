//! Semantics-equivalence harness for batched driver round-trips: a plan
//! executed with the optimizer's IN-list / multi-uid batching mark must
//! be indistinguishable — values, printed form, error messages, and
//! order-sensitive observables (`first_n`, list order, set dedup) —
//! from the same plan executed per element with batching disabled.
//!
//! Batching is *advisory* by construction (warm-up pre-seeds shared
//! flights; the loop body is unchanged and merely attaches to them), so
//! any divergence here is a real defect in the coalescing window, the
//! batched reply splitting, or the warm-up's sharing discipline.
//!
//! The one exception is a two-hop dependent loop, which batching
//! *rewrites* (`batch/stage-dependent-remote-loop`): the second half of
//! this file holds the staged plan to the nested plan, to
//! `OptConfig::none()` and to `kleisli_exec::reference::eval`, with keys
//! that fail at either hop.

use std::time::Duration;

use bench_harness::latency_federation;
use kleisli::Session;
use kleisli_core::Value;
use kleisli_exec::{reference, Env};
use kleisli_opt::OptConfig;
use proptest::prelude::*;

/// Set comprehension (dedup observable): per-uid link counts.
const LINK_SET: &str =
    r#"{[u = uid, n = count(GenBank([db = "na", link = uid]))] | \uid <- UIDS}"#;

/// List comprehension (order + duplicate observable) over `UIDL`.
const LINK_LIST: &str = r#"[| count(GenBank([db = "na", link = uid])) | \uid <- UIDL |]"#;

/// Nested comprehension: the batched request feeds an inner loop.
const NESTED: &str =
    r#"{[u = uid, hits = {l.uid | \l <- GenBank([db = "na", link = uid])}] | \uid <- UIDS}"#;

/// A fresh federation session plus every valid GenBank uid.
fn fed_session() -> (Session, Vec<i64>) {
    let (session, fed) = latency_federation(12, Duration::ZERO);
    let uids = fed.genbank_data.entries.iter().map(|e| e.uid).collect();
    (session, uids)
}

/// Bind the generated key list both as a set (`UIDS`) and, preserving
/// duplicates and order, as a list (`UIDL`).
fn bind_keys(session: &mut Session, keys: &[i64]) {
    let vals: Vec<Value> = keys.iter().copied().map(Value::Int).collect();
    session.bind_value("UIDS", Value::set(vals.clone()));
    session.bind_value("UIDL", Value::list(vals));
}

/// Run `query` with batching off then on; both outcomes stringified so
/// error messages participate in the equivalence check too.
fn both_ways(session: &mut Session, query: &str) -> (Result<String, String>, Result<String, String>) {
    session.set_batching(false);
    let plain = session.query(query).map(|v| v.to_string()).map_err(|e| e.to_string());
    session.set_batching(true);
    let batched = session.query(query).map(|v| v.to_string()).map_err(|e| e.to_string());
    (plain, batched)
}

/// Keys sampled (with repetition) from the valid uid pool — duplicate,
/// empty, and singleton key sets all arise from the size range.
fn key_picks() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..1000, 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn set_comprehension_matches_unbatched(picks in key_picks()) {
        let (mut s, pool) = fed_session();
        let keys: Vec<i64> = picks.iter().map(|i| pool[i % pool.len()]).collect();
        bind_keys(&mut s, &keys);
        let (plain, batched) = both_ways(&mut s, LINK_SET);
        prop_assert_eq!(plain, batched);
    }

    #[test]
    fn list_comprehension_preserves_order_and_duplicates(picks in key_picks()) {
        let (mut s, pool) = fed_session();
        let keys: Vec<i64> = picks.iter().map(|i| pool[i % pool.len()]).collect();
        bind_keys(&mut s, &keys);
        let (plain, batched) = both_ways(&mut s, LINK_LIST);
        prop_assert_eq!(plain, batched);
    }

    #[test]
    fn nested_comprehension_matches_unbatched(picks in key_picks()) {
        let (mut s, pool) = fed_session();
        let keys: Vec<i64> = picks.iter().map(|i| pool[i % pool.len()]).collect();
        bind_keys(&mut s, &keys);
        let (plain, batched) = both_ways(&mut s, NESTED);
        prop_assert_eq!(plain, batched);
    }

    #[test]
    fn first_n_sees_the_same_prefix(picks in key_picks(), n in 0usize..12) {
        let (mut s, pool) = fed_session();
        let keys: Vec<i64> = picks.iter().map(|i| pool[i % pool.len()]).collect();
        bind_keys(&mut s, &keys);
        s.set_batching(false);
        let plain = s.query_first_n(LINK_LIST, n).map_err(|e| e.to_string());
        s.set_batching(true);
        let batched = s.query_first_n(LINK_LIST, n).map_err(|e| e.to_string());
        prop_assert_eq!(plain, batched);
    }
}

#[test]
fn empty_and_singleton_key_sets() {
    let (mut s, pool) = fed_session();
    for keys in [vec![], vec![pool[0]]] {
        bind_keys(&mut s, &keys);
        for q in [LINK_SET, LINK_LIST, NESTED] {
            let (plain, batched) = both_ways(&mut s, q);
            assert_eq!(plain, batched, "query {q} diverged on keys {keys:?}");
            assert!(plain.is_ok(), "query {q} failed on keys {keys:?}: {plain:?}");
        }
    }
}

#[test]
fn duplicate_keys_share_one_flight_per_distinct_key() {
    let (mut s, pool) = fed_session();
    // 16 logical keys (one warm-up chunk), 6 distinct: well past
    // min_keys, and the batch must fold to the distinct set (one 6-key
    // wire request), while the list result still answers all 16
    // positions.
    let keys: Vec<i64> = (0..16).map(|i| pool[i % 6]).collect();
    bind_keys(&mut s, &keys);
    s.reset_metrics();
    let (plain, batched) = both_ways(&mut s, LINK_LIST);
    assert_eq!(plain, batched);
    let m = s.driver_metrics("GenBank").expect("metrics");
    assert_eq!(m.batched_keys, 6, "duplicates must not inflate the batch: {m:?}");
    assert_eq!(m.batch_requests, 1, "6 distinct keys fit one wire request: {m:?}");
}

#[test]
fn a_bad_key_fails_identically_in_both_modes() {
    let (mut s, pool) = fed_session();
    // One unknown uid among valid ones: the per-key error must surface
    // with the same message whether the request rode a batch or not.
    let keys = vec![pool[0], -7777, pool[1], pool[2], pool[3]];
    bind_keys(&mut s, &keys);
    let (plain, batched) = both_ways(&mut s, LINK_SET);
    assert_eq!(plain, batched);
    let err = plain.expect_err("an unknown uid must fail the query");
    assert!(
        err.contains("no entry with uid -7777"),
        "unexpected error shape: {err}"
    );
}

#[test]
fn batched_run_actually_batches() {
    // Guard against the harness silently testing nothing: on a 32-key
    // workload the batched path must issue multi-key wire requests.
    let (mut s, pool) = fed_session();
    let keys: Vec<i64> = (0..32).map(|i| pool[i % pool.len()]).collect();
    bind_keys(&mut s, &keys);
    s.set_batching(true);
    s.reset_metrics();
    s.query(LINK_SET).expect("query");
    let m = s.driver_metrics("GenBank").expect("metrics");
    assert!(
        m.batch_requests >= 1 && m.batched_keys >= 16,
        "batching never engaged: {m:?}"
    );
}

// ------------------------------------------------------------------------
// Two-hop dependent loops: the staged plan
// ------------------------------------------------------------------------

/// Hop 1 of the two-hop loops: an accession's sequence uids (the DOE
/// query's `ASN-IDs`).
const IDS: &str = r#"define IDS == \acc => flatten(GenBank([db = "na",
    select = "accession " ^ acc, path = "Seq-entry.seq.id..giim"]));"#;

/// The comprehension brackets and bound key collection of each kind.
const KINDS: [(&str, &str, &str); 3] = [
    ("{", "}", "KEYS"),
    ("{|", "|}", "KEYB"),
    ("[|", "|]", "KEYL"),
];
const LIST: (&str, &str, &str) = KINDS[2];

/// `\k <- KEYS, \uid <- IDS(k.acc)` with the per-uid link count in the
/// head. The outer element's `bump` is added to the hop-2 key, so the
/// generator can break a key at either hop: a trailing word in `acc`
/// fails the hop-1 query, a large `bump` names a uid nobody has.
fn two_hop((open, close, keys): (&str, &str, &str)) -> String {
    format!(
        r#"{open}[a = k.acc, u = uid, n = count(GenBank([db = "na", link = uid + k.bump]))] |
            \k <- {keys}, \uid <- IDS(k.acc){close}"#
    )
}

#[derive(Debug, Clone, Copy)]
enum Fault {
    Hop1,
    Hop2,
}

/// A session with `IDS` defined and the keys bound as a set, a bag and
/// a list. `picks` index the accession pool (duplicates welcome: they
/// become duplicate `(i, o)` pairs in the bag and list loops); each
/// fault breaks the key at its position, with that position in the
/// error text so the harness can tell *which* failure was reported.
fn two_hop_session(picks: &[usize], faults: &[(usize, Fault)]) -> Session {
    let (mut s, fed) = latency_federation(12, Duration::ZERO);
    s.run(IDS).expect("define");
    let pool = &fed.genbank_data.entries;
    let mut keys: Vec<(String, i64)> = picks
        .iter()
        .map(|i| (pool[i % pool.len()].accession.clone(), 0))
        .collect();
    for (at, fault) in faults {
        if keys.is_empty() {
            break;
        }
        let at = at % keys.len();
        match fault {
            Fault::Hop1 => keys[at].0 = format!("{} bad{at}", keys[at].0),
            Fault::Hop2 => keys[at].1 = 9_000_000 + at as i64,
        }
    }
    let vals: Vec<Value> = keys
        .into_iter()
        .map(|(acc, bump)| {
            Value::record_from(vec![("acc", Value::str(acc)), ("bump", Value::Int(bump))])
        })
        .collect();
    s.bind_value("KEYS", Value::set(vals.clone()));
    s.bind_value("KEYB", Value::bag(vals.clone()));
    s.bind_value("KEYL", Value::list(vals));
    s
}

/// The four readings of one query that must agree: the definitional
/// semantics of the desugared NRC, the unoptimized plan, the nested
/// (batching-off) plan and the staged (batching-on) plan — as printed
/// values or error texts.
fn four_ways(s: &mut Session, query: &str) -> [Result<String, String>; 4] {
    let raw = s.compile(query).expect("compile").raw;
    let by_the_book = reference::eval(&raw, &Env::empty(), &s.context());
    let mut run = |config: OptConfig| {
        s.set_opt_config(config);
        s.query(query)
    };
    let naive = run(OptConfig::none());
    let nested = run(OptConfig {
        enable_batching: false,
        ..OptConfig::default()
    });
    let staged = run(OptConfig::default());
    [by_the_book, naive, nested, staged]
        .map(|r| r.map(|v| v.to_string()).map_err(|e| e.to_string()))
}

fn fault_picks() -> impl Strategy<Value = Vec<(usize, Fault)>> {
    let fault = prop_oneof![Just(Fault::Hop1), Just(Fault::Hop2)];
    proptest::collection::vec((0usize..1000, fault), 0..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Up to 40 keys: several 16-key chunks per hop, so chunk
    /// boundaries, read-ahead and partial chunks all take part.
    #[test]
    fn two_hop_loops_match_every_other_reading(
        picks in proptest::collection::vec(0usize..1000, 0..40),
        faults in fault_picks(),
    ) {
        let mut s = two_hop_session(&picks, &faults);
        for kind in KINDS {
            let [by_the_book, naive, nested, staged] = four_ways(&mut s, &two_hop(kind));
            prop_assert_eq!(&naive, &by_the_book, "unoptimized {} loop", kind.2);
            prop_assert_eq!(&nested, &by_the_book, "nested {} loop", kind.2);
            prop_assert_eq!(&staged, &by_the_book, "staged {} loop", kind.2);
        }
    }

    /// A list prefix is the same rows in the same order however the loop
    /// runs — and an error counts only if it precedes the `n`-th row.
    #[test]
    fn two_hop_first_n_sees_the_same_prefix(
        picks in proptest::collection::vec(0usize..1000, 0..40),
        faults in fault_picks(),
        n in 0usize..30,
    ) {
        let mut s = two_hop_session(&picks, &faults);
        let query = two_hop(LIST);
        let prefix = |s: &mut Session, config: OptConfig| {
            s.set_opt_config(config);
            s.query_first_n(&query, n).map_err(|e| e.to_string())
        };
        let naive = prefix(&mut s, OptConfig::none());
        let nested = prefix(&mut s, OptConfig { enable_batching: false, ..OptConfig::default() });
        let staged = prefix(&mut s, OptConfig::default());
        prop_assert_eq!(&nested, &naive);
        prop_assert_eq!(&staged, &naive);
        let raw = s.compile(&query).expect("compile").raw;
        match (reference::eval(&raw, &Env::empty(), &s.context()), staged) {
            (Ok(all), staged) => {
                let all = all.elements().expect("a list");
                prop_assert_eq!(staged, Ok(all[..n.min(all.len())].to_vec()));
            }
            (Err(e), Err(staged)) => prop_assert_eq!(staged, e.to_string()),
            // The error lies beyond the prefix: nothing to compare it to.
            (Err(_), Ok(rows)) => prop_assert_eq!(rows.len(), n),
        }
    }

    /// Set and bag prefixes arrive in stream order, which staging is
    /// free to change: hold them to membership and size.
    #[test]
    fn two_hop_set_and_bag_prefixes_are_drawn_from_the_result(
        picks in proptest::collection::vec(0usize..1000, 0..40),
        n in 0usize..30,
    ) {
        let s = two_hop_session(&picks, &[]);
        for kind in &KINDS[..2] {
            let query = two_hop(*kind);
            let all = s.query(&query).expect("query");
            let all = all.elements().expect("a collection");
            let got = s.query_first_n(&query, n).expect("prefix");
            prop_assert_eq!(got.len(), n.min(all.len()));
            prop_assert!(got.iter().all(|row| all.contains(row)));
        }
    }
}

#[test]
fn a_bad_key_at_both_hops_reports_the_earlier_element() {
    // One stage-1 chunk holds both failures. Whichever key comes first
    // in list order is the one an element-at-a-time evaluation trips
    // over — even when that is the hop-2 failure and stage 1, run as a
    // whole, would have hit the later key's hop-1 failure first.
    let picks: Vec<usize> = (0..12).collect();
    for (faults, culprit) in [
        ([(3, Fault::Hop2), (8, Fault::Hop1)], "no entry with uid"),
        ([(3, Fault::Hop1), (8, Fault::Hop2)], "bad3"),
    ] {
        let mut s = two_hop_session(&picks, &faults);
        for kind in KINDS {
            let [by_the_book, naive, nested, staged] = four_ways(&mut s, &two_hop(kind));
            assert_eq!(naive, by_the_book, "{kind:?} {faults:?}");
            assert_eq!(nested, by_the_book, "{kind:?} {faults:?}");
            assert_eq!(staged, by_the_book, "{kind:?} {faults:?}");
            if kind == LIST {
                let err = staged.expect_err("both keys are bad");
                assert!(err.contains(culprit), "{faults:?} reported {err}");
            }
        }
        // The rows in front of the failure still arrive.
        s.set_opt_config(OptConfig::default());
        assert_eq!(s.query_first_n(&two_hop(LIST), 3).expect("prefix").len(), 3);
        assert!(s.query_first_n(&two_hop(LIST), 4).is_err());
    }
}

#[test]
fn two_hop_run_actually_stages() {
    // Guard against the harness silently testing nothing: 40 distinct
    // keys must stage, and both hops must ride batched wire requests.
    let picks: Vec<usize> = (0..40).collect();
    let s = two_hop_session(&picks, &[]);
    for kind in KINDS {
        let query = two_hop(kind);
        assert!(
            s.explain(&query)
                .expect("explain")
                .contains("batch/stage-dependent-remote-loop"),
            "{kind:?} loop was not staged"
        );
        s.reset_metrics();
        s.query(&query).expect("query");
        let m = s.driver_metrics("GenBank").expect("metrics");
        assert_eq!((m.requests, m.batched_keys), (6, 80), "{kind:?}: {m:?}");
    }
}
