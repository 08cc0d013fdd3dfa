//! Batched driver round-trips — the per-driver submit window (ROADMAP:
//! "Request coalescing and batched driver round-trips").
//!
//! The paper's Section 4 semijoin strategy ships a *set* of keys to a
//! source in one request instead of one round-trip per element. Through
//! PR 8 this reproduction still issued one driver request per uid and
//! only *hid* the latency with overlap (parallel loops, prefetch); this module
//! *removes* round-trips.
//!
//! **Multi-key batching.** A [`crate::Fetch::Batch`] through
//! `DriverResilience::fetch` groups up to [`BatchPolicy::max_keys`]
//! distinct per-key requests into one wire request (an `IN`-list for SQL
//! sources, a multi-uid fetch for Entrez), a [`crate::Fetch::Batch`] of
//! the driver's own ([`crate::Driver::fetch`]) — one job of its worker
//! pool. Each key gets a [`Flight`] (a promise of that key's rows or
//! error) registered in the driver's [`BatchWindow`] while its wire request
//! is in the air; when the wire request's keys are answered, every flight
//! leaves the window and is resolved, and the per-element consumers —
//! the handles the batch fetch returned, which a batch-marked loop hands
//! to its elements' bodies — replay its shared reply, as often as they
//! are read.
//! A window or full fetch of a request whose flight is still pending
//! attaches to it (counted as `coalesced`); one that finds none keeps its
//! own lazily streamed wire request and never registers a flight, so such
//! fetches never share with each other.
//!
//! # Invariants
//!
//! * **One admission ticket per wire request, never per logical key.**
//!   Attached waiters and batched keys hold promise-side state only; the
//!   only pool submission is the one batched request covering many keys.
//! * **Failures are charged once.** The batch operation records breaker
//!   failures and `retries` per *wire* event; attached waiters receive
//!   the cloned error without touching the breaker.
//! * **Nothing outlives its wire request.** A flight, `Ok` or `Err`,
//!   leaves the window as it resolves; the next submitter makes a fresh
//!   wire request, and only the handles of the batch fetch and the
//!   waiters that attached in the air still read its reply.
//! * **A waiter giving up resolves only itself.** An attached waiter
//!   waits in [`OneShot::wait_for`] under its own deadline and
//!   cancellation token, like every waiter for another caller's result
//!   ([`crate::flight`]); giving up returns its own error and leaves the
//!   flight and its other waiters untouched.
//! * **Values are byte-identical.** A shared reply is the materialized
//!   row vector of one key's share of the wire reply; every waiter
//!   replays the same rows in the same order (then the same terminal
//!   error, if the stream failed mid-way).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use crate::block::{shared_blocks, BlockStream, DEFAULT_BLOCK_ROWS};
use crate::driver::DriverRequest;
use crate::error::KError;
use crate::oneshot::{OneShot, PromiseState, Pulsable};
use crate::value::Value;

/// A driver's batching advertisement, carried in
/// [`crate::Capabilities::batching`]. Present means the source supports
/// set-at-a-time access (multi-uid Entrez fetches, SQL `IN`-lists) and
/// opts its coalescable requests into the batched submit path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum logical keys folded into one wire request by the batched
    /// submit path. `0` is normalized to `1` (no folding) by
    /// [`BatchPolicy::keys_per_request`].
    pub max_keys: usize,
}

impl Default for BatchPolicy {
    fn default() -> BatchPolicy {
        BatchPolicy { max_keys: 16 }
    }
}

impl BatchPolicy {
    /// The normalized per-wire-request key budget (a declared `0` means
    /// "one key per request", never "no keys").
    pub fn keys_per_request(&self) -> usize {
        self.max_keys.max(1)
    }
}

/// FNV-1a with the standard 64-bit offset basis and prime: the one
/// hasher of digests that must not change between runs or toolchains
/// (window keys here, plan hashes and `Cached` ids in `nrc::hash`), which
/// `DefaultHasher` does not promise.
#[derive(Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The deterministic window key of a request: an FNV-1a fold over the
/// request's `Hash` impl. Collisions are tolerated — the window chains
/// flights per key and compares the full [`DriverRequest`] on attach.
pub fn request_key(req: &DriverRequest) -> u64 {
    let mut h = FnvHasher::default();
    req.hash(&mut h);
    h.finish()
}

/// The materialized reply of one wire request, shared by every waiter of
/// a flight: the rows the stream produced, plus the terminal error if it
/// failed mid-stream (rows delivered before a failure are replayed in
/// front of it, exactly as the live stream delivered them).
#[derive(Debug)]
pub struct SharedReply {
    /// The rows of the wire stream, in delivery order.
    pub rows: Arc<Vec<Value>>,
    /// The mid-stream failure that ended the wire stream, if any.
    pub terminal: Option<KError>,
}

impl SharedReply {
    /// A successful reply of plain rows.
    pub fn of_rows(rows: Vec<Value>) -> SharedReply {
        SharedReply {
            rows: Arc::new(rows),
            terminal: None,
        }
    }

    /// Drain a live wire stream into a shared reply. Pulls at
    /// [`DEFAULT_BLOCK_ROWS`] grain; per-row charges (latency model,
    /// traffic counters) fire here, once, on the caller's clock.
    pub fn materialize(mut stream: BlockStream) -> SharedReply {
        let mut rows = Vec::new();
        while let Some(block) = stream.next_block(DEFAULT_BLOCK_ROWS) {
            for r in block.into_rows() {
                match r {
                    Ok(v) => rows.push(v),
                    Err(e) => {
                        return SharedReply {
                            rows: Arc::new(rows),
                            terminal: Some(e),
                        }
                    }
                }
            }
        }
        SharedReply::of_rows(rows)
    }

    /// A fresh [`BlockStream`] replaying the shared rows (then the
    /// terminal error, if any). Replayed rows charge nothing: the wire
    /// stream already charged them once at materialization.
    pub fn replay(&self) -> BlockStream {
        shared_blocks(Arc::clone(&self.rows), self.terminal.clone())
    }
}

/// The shared state of one batched key: a promise the batch operation
/// covering it resolves once, with that key's rows or error, and that
/// every waiter reads a clone of. Created by a batch fetch
/// (`DriverResilience::fetch`) and held by every attached
/// `ResilientHandle` plus — while pending — the driver's [`BatchWindow`].
pub struct Flight {
    pub(crate) key: u64,
    pub(crate) request: DriverRequest,
    pub(crate) done: OneShot<Result<Arc<SharedReply>, KError>>,
}

impl Flight {
    pub(crate) fn new(req: &DriverRequest) -> Arc<Flight> {
        Arc::new(Flight {
            key: request_key(req),
            request: req.clone(),
            done: OneShot::new(),
        })
    }

    /// The request every attached waiter is waiting on.
    pub fn request(&self) -> &DriverRequest {
        &self.request
    }

    /// Whether the flight has resolved (without blocking).
    pub fn is_done(&self) -> bool {
        self.done.poll() != PromiseState::Pending
    }

    /// Resolve the flight (first resolution wins) and wake every waiter.
    pub(crate) fn finish(&self, result: Result<Arc<SharedReply>, KError>) {
        self.done.set(result);
    }
}

/// Waking a flight re-checks cancellation and resolution; registered as
/// a `CancelToken` watcher by attached waiters so a query cancel
/// interrupts their wait promptly.
impl Pulsable for Flight {
    fn pulse_now(&self) {
        self.done.pulse();
    }
}

/// Outcome of [`BatchWindow::join`].
pub(crate) enum Joined {
    /// A pending flight already answers this request.
    Attached(Arc<Flight>),
    /// A fresh flight was registered; the caller must hand it to a
    /// batch operation, which resolves it.
    Lead(Arc<Flight>),
}

/// The per-driver submit window: request hash → the flights in the air
/// for that request. A batch fetch joins a pending flight or leads a fresh
/// one, any other fetch of a coalescable request attaches to a pending one
/// if there is one, and a flight leaves the moment it resolves, `Ok` or
/// `Err` — so no reply is served to a fetch that did not overlap its wire
/// request. The batch fetch's own handles keep their flights and replay
/// them as often as they are read.
#[derive(Default)]
pub struct BatchWindow {
    entries: Mutex<HashMap<u64, Vec<Arc<Flight>>>>,
}

impl BatchWindow {
    /// An empty window.
    pub fn new() -> BatchWindow {
        BatchWindow::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Vec<Arc<Flight>>>> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Flights in the air right now (tests/inspection).
    pub fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }

    /// Whether no flight is in the air.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attach to the pending flight for `req`, or register a fresh one
    /// the caller must lead (the batched submit path).
    pub(crate) fn join(&self, req: &DriverRequest) -> Joined {
        let mut map = self.lock();
        let chain = map.entry(request_key(req)).or_default();
        if let Some(f) = chain.iter().find(|f| f.request == *req) {
            return Joined::Attached(Arc::clone(f));
        }
        let flight = Flight::new(req);
        chain.push(Arc::clone(&flight));
        Joined::Lead(flight)
    }

    /// The pending flight that answers `req`, without ever registering
    /// one. This is the window and full fetch path: such a fetch must keep
    /// streaming its reply lazily (a flight's reply is materialized for
    /// replay), but a batch's flight of the same request in the air
    /// answers this one.
    pub(crate) fn try_attach(&self, req: &DriverRequest) -> Option<Arc<Flight>> {
        let map = self.lock();
        map.get(&request_key(req))?.iter().find(|f| f.request == *req).cloned()
    }

    /// Take `flight` out of the window (by identity: a newer flight under
    /// the same key stays), then resolve it.
    pub(crate) fn resolve(&self, flight: &Arc<Flight>, result: Result<Arc<SharedReply>, KError>) {
        let mut map = self.lock();
        if let Some(chain) = map.get_mut(&flight.key) {
            chain.retain(|f| !Arc::ptr_eq(f, flight));
            if chain.is_empty() {
                map.remove(&flight.key);
            }
        }
        drop(map);
        flight.finish(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::KError;
    use crate::value::Value;

    fn req(uid: i64) -> DriverRequest {
        DriverRequest::EntrezLinks {
            db: "na".into(),
            uid,
        }
    }

    #[test]
    fn request_keys_are_deterministic_and_distinguish_requests() {
        assert_eq!(request_key(&req(1)), request_key(&req(1)));
        assert_ne!(request_key(&req(1)), request_key(&req(2)));
    }

    #[test]
    fn fnv_1a_matches_the_published_64_bit_vectors() {
        let vectors = [
            ("", 0xcbf2_9ce4_8422_2325),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ];
        for (text, digest) in vectors {
            let mut h = FnvHasher::default();
            h.write(text.as_bytes());
            assert_eq!(h.finish(), digest, "{text:?}");
        }
    }

    #[test]
    fn shared_reply_replays_rows_and_terminal_error() {
        let reply = Arc::new(SharedReply {
            rows: Arc::new(vec![Value::Int(1), Value::Int(2)]),
            terminal: Some(KError::eval("boom")),
        });
        // Two independent replays see the same rows then the same error.
        for _ in 0..2 {
            let mut s = reply.replay();
            let b = s.next_block(64).unwrap();
            assert_eq!(b.len(), 3);
            assert!(b.ends_with_err());
            assert_eq!(b.rows()[0].as_ref().unwrap(), &Value::Int(1));
            assert!(s.next_block(64).is_none(), "a stream fails at most once");
        }
    }

    #[test]
    fn replay_respects_the_requested_grain() {
        let reply = Arc::new(SharedReply::of_rows(
            (0..5).map(Value::Int).collect::<Vec<_>>(),
        ));
        let mut s = reply.replay();
        assert_eq!(s.next_block(2).unwrap().len(), 2);
        assert_eq!(s.next_block(1).unwrap().len(), 1);
        assert_eq!(s.next_block(64).unwrap().len(), 2);
        assert!(s.next_block(64).is_none());
    }

    #[test]
    fn empty_reply_replays_as_an_empty_stream() {
        let reply = Arc::new(SharedReply::of_rows(vec![]));
        let mut s = reply.replay();
        assert!(s.next_block(64).is_none());
    }

    #[test]
    fn window_attaches_to_pending_and_prunes_failed_flights() {
        let w = BatchWindow::new();
        let f = match w.join(&req(7)) {
            Joined::Lead(f) => f,
            Joined::Attached(_) => panic!("empty window cannot attach"),
        };
        // Pending flights are attachable, by either door.
        match w.join(&req(7)) {
            Joined::Attached(g) => assert!(Arc::ptr_eq(&f, &g)),
            Joined::Lead(_) => panic!("must attach to the pending flight"),
        }
        assert!(Arc::ptr_eq(&f, &w.try_attach(&req(7)).expect("pending")));
        assert!(w.try_attach(&req(8)).is_none(), "try_attach never leads");
        // A failed flight leaves the window: the next join leads afresh.
        w.resolve(&f, Err(KError::eval("boom")));
        match w.join(&req(7)) {
            Joined::Lead(g) => assert!(!Arc::ptr_eq(&f, &g)),
            Joined::Attached(_) => panic!("errors are never cached"),
        }
    }

    #[test]
    fn zero_window_drops_completed_flights_immediately() {
        let w = BatchWindow::new();
        let f = match w.join(&req(3)) {
            Joined::Lead(f) => f,
            Joined::Attached(_) => panic!(),
        };
        w.resolve(&f, Ok(Arc::new(SharedReply::of_rows(vec![]))));
        assert!(f.is_done());
        assert!(w.is_empty(), "completions leave the window immediately");
        assert!(w.try_attach(&req(3)).is_none(), "results are never cached");
    }

    #[test]
    fn hash_collisions_are_disambiguated_by_request_equality() {
        let w = BatchWindow::new();
        let Joined::Lead(_f) = w.join(&req(1)) else {
            panic!()
        };
        // A different request always leads its own flight, even if the
        // chain under its key were shared.
        match w.join(&req(2)) {
            Joined::Lead(_) => {}
            Joined::Attached(_) => panic!("different requests must not share"),
        }
        assert_eq!(w.len(), 2);
    }
}
