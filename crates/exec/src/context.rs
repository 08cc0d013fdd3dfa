//! Execution context: the driver registry, the object store used by
//! `deref`, the subquery cache, and the compute executor query
//! evaluation runs on.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use kleisli_core::batch::{request_key, Flight};
use kleisli_core::resilience::{CancelToken, DriverResilience, ResiliencePolicy, ResilientHandle};
use kleisli_core::{
    DriverRef, DriverRequest, Executor, Join, KError, KResult, MetricsSnapshot, Oid, SingleFlight,
    Value,
};

/// Resolves object references for sources with object identity (ACE).
/// CPL can dereference but never create or update references.
pub trait ObjectStore: Send + Sync {
    fn deref(&self, oid: &Oid) -> KResult<Value>;
}

/// Everything the evaluator needs besides the expression itself.
///
/// A `Context` is a cheap handle (one `Arc` bump to clone) over shared
/// registry state, so every block operator and every parallel task owns
/// the copy it uses. Registration (`register_driver` /
/// `register_object_store`) requires the handle to be *uniquely* owned
/// — register every source before cloning the context or sharing it
/// with in-flight queries, exactly the discipline `kleisli::Session`
/// already enforces at its own `Arc<Context>` layer.
#[derive(Clone)]
pub struct Context {
    inner: Arc<CtxInner>,
    /// Per-query latency budget: remote waits and row-boundary checks
    /// resolve `KError::Timeout` past this instant. Carried *outside*
    /// the shared inner so one query's deadline never leaks into
    /// another's clone of the same registry.
    deadline: Option<Instant>,
    /// Per-query cooperative cancellation; see [`CancelToken`].
    cancel: Option<Arc<CancelToken>>,
    /// This clone evaluates an expression that mentions no remote source
    /// ([`Context::for_bodies`]): nothing under it can start ahead, and the
    /// evaluator need not look.
    remote_free: bool,
}

struct CtxInner {
    drivers: HashMap<String, DriverRef>,
    /// Per-driver resilience state (policy, breaker, RTT estimator,
    /// resilience counters), built at registration from the driver's
    /// advertised `Capabilities::resilience` and replaced wholesale by
    /// [`Context::set_resilience_policy`].
    resilience: HashMap<String, Arc<DriverResilience>>,
    object_stores: Vec<Arc<dyn ObjectStore>>,
    /// One [`SingleFlight`] per `Cached { id }` subquery evaluated since
    /// the last [`Context::cache_clear`].
    cache: Mutex<HashMap<u64, Arc<SingleFlight<Value>>>>,
    /// Flights pre-seeded by [`Context::submit_batch`] (the `ParExt`
    /// warm-up), keyed by request hash. [`Context::submit_resilient`]
    /// answers a matching request by attaching to the seeded flight —
    /// even after it resolved, which is what guarantees the per-element
    /// loop body observes the batched reply instead of issuing its own
    /// round-trip. Entries live exactly as long as their
    /// [`BatchGuard`].
    batch_seeds: Mutex<HashMap<u64, Vec<Arc<Flight>>>>,
    /// The compute pool `ParExt` chunks (and the session's query
    /// workers) run on.
    executor: Arc<Executor>,
}

impl Default for Context {
    fn default() -> Context {
        Context::new()
    }
}

impl Context {
    /// A context running its compute tasks on the process-wide
    /// [`Executor::shared`] pool.
    pub fn new() -> Context {
        Context::with_executor(Executor::shared())
    }

    /// A context running its compute tasks on a caller-supplied
    /// executor — for embedders that want their own sizing, and for
    /// tests that assert on worker counts in isolation.
    pub fn with_executor(executor: Arc<Executor>) -> Context {
        Context {
            inner: Arc::new(CtxInner {
                drivers: HashMap::new(),
                resilience: HashMap::new(),
                object_stores: Vec::new(),
                cache: Mutex::new(HashMap::new()),
                batch_seeds: Mutex::new(HashMap::new()),
                executor,
            }),
            deadline: None,
            cancel: None,
            remote_free: false,
        }
    }

    /// The compute executor query evaluation and `ParExt` chunks are
    /// scheduled on.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.inner.executor
    }

    fn inner_mut(&mut self) -> &mut CtxInner {
        Arc::get_mut(&mut self.inner)
            .expect("context must be uniquely owned while registering sources")
    }

    /// Register a driver under its own name. Its advertised
    /// `Capabilities::resilience` becomes the driver's effective policy
    /// until [`Context::set_resilience_policy`] overrides it.
    pub fn register_driver(&mut self, driver: DriverRef) {
        let name = driver.name().to_string();
        let caps = driver.capabilities();
        let inner = self.inner_mut();
        inner.resilience.insert(
            name.clone(),
            Arc::new(DriverResilience::with_batching(
                &name,
                caps.resilience,
                caps.batching,
            )),
        );
        inner.drivers.insert(name, driver);
    }

    /// Replace a registered driver's resilience policy (session-level
    /// override of the driver's advertisement). Resets that driver's
    /// breaker, RTT estimate, and resilience counters. Requires the
    /// context to be uniquely owned, like registration.
    pub fn set_resilience_policy(&mut self, name: &str, policy: ResiliencePolicy) -> KResult<()> {
        let inner = self.inner_mut();
        let Some(driver) = inner.drivers.get(name) else {
            return Err(KError::driver(name, "no such driver registered"));
        };
        // Keep the driver's advertised batching window across policy
        // swaps — the override replaces *resilience*, not batching.
        let batching = driver.capabilities().batching;
        inner.resilience.insert(
            name.to_string(),
            Arc::new(DriverResilience::with_batching(name, policy, batching)),
        );
        Ok(())
    }

    /// Register an object store consulted by `deref`.
    pub fn register_object_store(&mut self, store: Arc<dyn ObjectStore>) {
        self.inner_mut().object_stores.push(store);
    }

    /// Look up a registered driver by name.
    pub fn driver(&self, name: &str) -> KResult<&DriverRef> {
        self.inner
            .drivers
            .get(name)
            .ok_or_else(|| KError::driver(name, "no such driver registered"))
    }

    /// Every registered driver, in no particular order.
    pub fn drivers(&self) -> impl Iterator<Item = &DriverRef> {
        self.inner.drivers.values()
    }

    /// A clone of this context whose remote waits and row-boundary
    /// checks observe `deadline` (an existing tighter deadline wins).
    pub fn with_deadline(&self, deadline: Instant) -> Context {
        let mut c = self.clone();
        c.deadline = Some(match c.deadline {
            Some(d) => d.min(deadline),
            None => deadline,
        });
        c
    }

    /// A clone of this context whose remote waits abort promptly when
    /// `token` is cancelled.
    pub fn with_cancel_token(&self, token: Arc<CancelToken>) -> Context {
        let mut c = self.clone();
        c.cancel = Some(token);
        c
    }

    /// The clone an operator evaluates `bodies` under, once per element:
    /// it remembers whether they can reach a remote source at all, so
    /// the per-element evaluation of a local body does not re-walk it
    /// looking for scans to start ahead.
    pub(crate) fn for_bodies<'e>(
        &self,
        bodies: impl IntoIterator<Item = &'e nrc::Expr>,
    ) -> Context {
        fn local(e: &nrc::Expr) -> bool {
            let mut local = true;
            e.visit(&mut |node| match node {
                nrc::Expr::Remote { .. } | nrc::Expr::RemoteApp { .. } => local = false,
                // A function from the environment may scan anything.
                nrc::Expr::Apply(f, _) if !matches!(**f, nrc::Expr::Lambda { .. }) => {
                    local = false
                }
                _ => {}
            });
            local
        }
        let mut c = self.clone();
        c.remote_free = c.remote_free || bodies.into_iter().all(local);
        c
    }

    /// Whether this clone only evaluates remote-free expressions.
    pub(crate) fn remote_free(&self) -> bool {
        self.remote_free
    }

    /// The query deadline this clone carries, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The cancellation token this clone carries, if any.
    pub fn cancel_token(&self) -> Option<&Arc<CancelToken>> {
        self.cancel.as_ref()
    }

    /// The row-boundary budget check: `Err(KError::Cancelled)` once the
    /// token fires, `Err(KError::Timeout)` once the deadline passes.
    /// Remote streams and query workers call this between blocks or rows,
    /// so a query over a stalled stream resolves at the next boundary
    /// instead of hanging.
    pub fn check_budget(&self) -> KResult<()> {
        if let Some(t) = &self.cancel {
            if t.is_cancelled() {
                return Err(KError::cancelled("query cancelled"));
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(KError::timeout("query", "deadline exceeded at row boundary"));
            }
        }
        Ok(())
    }

    /// The resilience state for a registered driver.
    pub fn resilience(&self, name: &str) -> Option<&Arc<DriverResilience>> {
        self.inner.resilience.get(name)
    }

    /// Submit a request through the driver's resilience layer: breaker
    /// admission, the context's deadline (tightened by the policy's own),
    /// and the context's cancellation token all apply; retry and hedging
    /// run when the returned handle is redeemed.
    pub fn submit_resilient(&self, name: &str, req: &DriverRequest) -> KResult<ResilientHandle> {
        self.submit_as(name, req, false)
    }

    /// [`Context::submit_resilient`], as a *full fetch*
    /// ([`kleisli_core::Driver::submit_full`]) when the caller collects
    /// the reply to its end.
    pub(crate) fn submit_as(
        &self,
        name: &str,
        req: &DriverRequest,
        full: bool,
    ) -> KResult<ResilientHandle> {
        let driver = self.driver(name)?;
        let res = self
            .inner
            .resilience
            .get(name)
            .ok_or_else(|| KError::driver(name, "no resilience state registered"))?;
        // A flight pre-seeded by a batch warm-up answers this request
        // even if it already resolved (the seed table outlives the
        // flight's window entry for exactly the span of the loop).
        if req.coalescable() {
            let seeds = self.inner.batch_seeds.lock();
            if !seeds.is_empty() {
                if let Some(flights) = seeds.get(&request_key(req)) {
                    if let Some(f) = flights
                        .iter()
                        .find(|f| f.driver() == name && f.request() == req)
                    {
                        return Ok(res.attach_seeded(f, self.deadline, self.cancel.clone()));
                    }
                }
            }
        }
        res.submit_as(driver, req, self.deadline, self.cancel.clone(), full)
    }

    /// The parts each of the full fetches `reqs`, starting together on
    /// driver `name`, is submitted as, each through
    /// [`Context::submit_as`]; empty: as itself
    /// ([`DriverResilience::split_full`]).
    pub(crate) fn split_full(
        &self,
        name: &str,
        reqs: &[&DriverRequest],
    ) -> Vec<Vec<DriverRequest>> {
        match (self.driver(name), self.resilience(name)) {
            (Ok(driver), Some(res)) => res.split_full(driver, reqs),
            _ => vec![Vec::new(); reqs.len()],
        }
    }

    /// Fold a `ParExt` warm-up's per-element requests into batched wire
    /// round-trips (see [`kleisli_core::resilience::DriverResilience::submit_batch`])
    /// and seed the resulting flights so the loop body's own
    /// [`Context::submit_resilient`] calls attach to them instead of
    /// issuing per-key requests. Returns `Ok(None)` when the driver does
    /// not advertise batching (callers keep the latency-overlap path).
    /// The returned guard unseeds the flights when dropped — hold it for
    /// the duration of the loop.
    pub fn submit_batch(&self, name: &str, reqs: &[DriverRequest]) -> KResult<Option<BatchGuard>> {
        let driver = self.driver(name)?;
        let res = self
            .inner
            .resilience
            .get(name)
            .ok_or_else(|| KError::driver(name, "no resilience state registered"))?;
        let Some(flights) = res.submit_batch(driver, reqs) else {
            return Ok(None);
        };
        if flights.is_empty() {
            return Ok(None);
        }
        let mut seeds = self.inner.batch_seeds.lock();
        for f in &flights {
            seeds.entry(f.key()).or_default().push(Arc::clone(f));
        }
        drop(seeds);
        Ok(Some(BatchGuard {
            inner: Arc::clone(&self.inner),
            flights,
        }))
    }

    /// Flights seeded by live [`BatchGuard`]s right now (tests/inspection;
    /// `0` once every batch-marked loop has finished or been dropped).
    pub fn seeded_flights(&self) -> usize {
        self.inner.batch_seeds.lock().values().map(Vec::len).sum()
    }

    /// A driver's full metrics picture: its own traffic counters merged
    /// with the resilience-side counters (timeouts, retries, hedges,
    /// breaker opens) kept outside the driver.
    pub fn driver_metrics(&self, name: &str) -> KResult<MetricsSnapshot> {
        let traffic = self.driver(name)?.metrics();
        Ok(match self.inner.resilience.get(name) {
            Some(res) => traffic.merged(&res.metrics_snapshot()),
            None => traffic,
        })
    }

    /// Reset every driver's traffic *and* resilience counters.
    pub fn reset_metrics(&self) {
        for d in self.inner.drivers.values() {
            d.reset_metrics();
        }
        for r in self.inner.resilience.values() {
            r.reset_metrics();
        }
    }

    /// Resolve an object reference through the registered stores.
    pub fn deref(&self, oid: &Oid) -> KResult<Value> {
        for store in &self.inner.object_stores {
            match store.deref(oid) {
                Ok(v) => return Ok(v),
                Err(_) => continue,
            }
        }
        Err(KError::eval(format!("dangling object reference {oid}")))
    }

    /// Join the single flight of cached subquery `id`
    /// ([`kleisli_core::flight`]): the first evaluator leads — it computes
    /// and commits, and may carry the lead into a lazy stream — and the
    /// rest read its value, which is what makes a cached subquery under a
    /// parallel generator (`ParExt`) run exactly once however many
    /// workers race to it. A waiter parks under this clone's deadline and
    /// cancellation token; cut short, it fails with the budget's error.
    /// Ids are the subplan's deterministic structural hash (assigned by
    /// the optimizer's cache rule), so recompiled plans address the same
    /// slots.
    pub(crate) fn cache_join(&self, id: u64) -> KResult<Join<Value>> {
        let slot = Arc::clone(self.inner.cache.lock().entry(id).or_default());
        slot.join(self.deadline, self.cancel.as_ref())
            .map_err(|_| self.spent_budget())
    }

    /// The error of a wait this clone's deadline or token cut short.
    pub fn spent_budget(&self) -> KError {
        self.check_budget()
            .expect_err("a wait gives up only on a passed deadline or a fired token")
    }

    /// Look up a memoized subquery result (testing convenience).
    pub fn cache_get(&self, id: u64) -> Option<Value> {
        self.inner.cache.lock().get(&id)?.peek()
    }

    /// Drop all memoized results (between queries).
    pub fn cache_clear(&self) {
        self.inner.cache.lock().clear();
    }
}

/// Keeps a batch warm-up's flights in the context's seed table for the
/// duration of a `ParExt` loop; dropping it removes exactly the flights
/// it seeded (concurrent loops over overlapping key sets each hold
/// their own guard — a flight seeded twice stays until its last guard
/// goes).
pub struct BatchGuard {
    inner: Arc<CtxInner>,
    flights: Vec<Arc<Flight>>,
}

impl Drop for BatchGuard {
    fn drop(&mut self) {
        let mut seeds = self.inner.batch_seeds.lock();
        for f in &self.flights {
            if let Some(list) = seeds.get_mut(&f.key()) {
                if let Some(at) = list.iter().position(|g| Arc::ptr_eq(g, f)) {
                    list.swap_remove(at);
                }
                if list.is_empty() {
                    seeds.remove(&f.key());
                }
            }
        }
    }
}

/// Build a [`DriverRequest`] from a CPL record value, implementing the
/// paper's driver-call convention:
///
/// * `[query = "..."]` — ship SQL (Sybase driver);
/// * `[table = "..."]` — scan a table (the `GDB-Tab` template);
/// * `[db = "...", select = "...", path = "...", ...]` — Entrez index
///   retrieval with optional path extraction;
/// * `[db = "...", link = uid]` — Entrez neighbor links;
/// * `[class = "...", name = "..."]` — ACE object fetch;
/// * `[function = "...", arg = v]` — generic driver call.
pub fn request_from_value(v: &Value) -> KResult<DriverRequest> {
    let Value::Record(r) = v else {
        return Err(KError::eval(format!(
            "driver argument must be a record, got {}",
            v.kind_name()
        )));
    };
    let get_str = |field: &str| -> KResult<Option<String>> {
        match r.get(field) {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s.to_string())),
            Some(other) => Err(KError::eval(format!(
                "driver argument field '{field}' must be a string, got {}",
                other.kind_name()
            ))),
        }
    };
    if let Some(query) = get_str("query")? {
        return Ok(DriverRequest::Sql { query });
    }
    if let Some(table) = get_str("table")? {
        let columns = match r.get("columns") {
            None => None,
            Some(cols) => Some(
                cols.elements()
                    .ok_or_else(|| KError::eval("'columns' must be a collection"))?
                    .iter()
                    .map(|c| match c {
                        Value::Str(s) => Ok(s.to_string()),
                        other => Err(KError::eval(format!(
                            "column names must be strings, got {}",
                            other.kind_name()
                        ))),
                    })
                    .collect::<KResult<Vec<_>>>()?,
            ),
        };
        return Ok(DriverRequest::TableScan { table, columns });
    }
    if let Some(db) = get_str("db")? {
        match r.get("link") {
            None => {}
            Some(Value::Int(uid)) => return Ok(DriverRequest::EntrezLinks { db, uid: *uid }),
            Some(other) => {
                return Err(KError::eval(format!(
                    "driver argument field 'link' must be an integer, got {}",
                    other.kind_name()
                )))
            }
        }
        if let Some(select) = get_str("select")? {
            return Ok(DriverRequest::EntrezFetch {
                db,
                query: select,
                path: get_str("path")?,
            });
        }
        return Err(KError::eval(
            "entrez request needs a 'select' or 'link' field",
        ));
    }
    if let Some(class) = get_str("class")? {
        return Ok(DriverRequest::AceFetch {
            class,
            name: get_str("name")?,
        });
    }
    if let Some(function) = get_str("function")? {
        let arg = r.get("arg").cloned().unwrap_or(Value::Unit);
        return Ok(DriverRequest::Call { function, arg });
    }
    Err(KError::eval(format!(
        "unrecognized driver request record: {v}"
    )))
}

#[cfg(test)]
impl Context {
    /// Store a memoized subquery result, detaching whatever the slot
    /// held.
    pub(crate) fn cache_put(&self, id: u64, v: Value) {
        let slot: Arc<SingleFlight<Value>> = Arc::default();
        if let Ok(Join::Lead(lead)) = slot.join(None, None) {
            lead.commit(v);
        }
        self.inner.cache.lock().insert(id, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_and_table_requests() {
        let v = Value::record_from(vec![("query", Value::str("select 1"))]);
        assert_eq!(
            request_from_value(&v).unwrap(),
            DriverRequest::Sql {
                query: "select 1".into()
            }
        );
        let v = Value::record_from(vec![("table", Value::str("locus"))]);
        assert!(matches!(
            request_from_value(&v).unwrap(),
            DriverRequest::TableScan { table, columns: None } if table == "locus"
        ));
    }

    #[test]
    fn entrez_requests() {
        let v = Value::record_from(vec![
            ("db", Value::str("na")),
            ("select", Value::str("accession M81409")),
            ("path", Value::str("Seq-entry.seq.id..giim")),
        ]);
        match request_from_value(&v).unwrap() {
            DriverRequest::EntrezFetch { db, query, path } => {
                assert_eq!(db, "na");
                assert_eq!(query, "accession M81409");
                assert_eq!(path.as_deref(), Some("Seq-entry.seq.id..giim"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let v = Value::record_from(vec![("db", Value::str("na")), ("link", Value::Int(7))]);
        assert!(matches!(
            request_from_value(&v).unwrap(),
            DriverRequest::EntrezLinks { uid: 7, .. }
        ));
    }

    #[test]
    fn bad_requests_error() {
        assert!(request_from_value(&Value::Int(1)).is_err());
        let v = Value::record_from(vec![("nonsense", Value::Int(1))]);
        assert!(request_from_value(&v).is_err());
        let v = Value::record_from(vec![("db", Value::str("na"))]);
        assert!(request_from_value(&v).is_err());
        let v = Value::record_from(vec![("db", Value::str("na")), ("link", Value::str("7"))]);
        assert_eq!(
            request_from_value(&v).unwrap_err().to_string(),
            KError::eval("driver argument field 'link' must be an integer, got string").to_string()
        );
    }

    #[test]
    fn cache_roundtrip() {
        let ctx = Context::new();
        assert_eq!(ctx.cache_get(1), None);
        ctx.cache_put(1, Value::Int(42));
        assert_eq!(ctx.cache_get(1), Some(Value::Int(42)));
        ctx.cache_clear();
        assert_eq!(ctx.cache_get(1), None);
    }

    #[test]
    fn a_cache_join_cut_short_fails_with_the_budget_error() {
        let ctx = Context::new();
        let Ok(Join::Lead(lead)) = ctx.cache_join(5) else {
            panic!("an empty slot hands out the lead")
        };
        let hurried = ctx.with_deadline(Instant::now() + std::time::Duration::from_millis(10));
        let waited = std::thread::scope(|s| s.spawn(|| hurried.cache_join(5)).join().unwrap());
        assert!(matches!(waited, Err(KError::Timeout { .. })));
        // The leader never noticed.
        lead.commit(Value::Int(1));
        assert_eq!(ctx.cache_get(5), Some(Value::Int(1)));
    }

    #[test]
    fn missing_driver_is_an_error() {
        let ctx = Context::new();
        assert!(ctx.driver("GDB").is_err());
    }
}
