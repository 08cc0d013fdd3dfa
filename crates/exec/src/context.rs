//! Execution context: the driver registry, the object store used by
//! `deref`, the subquery cache, and the compute executor query
//! evaluation runs on. Every request the evaluator sends a source leaves
//! through one verb, [`Context::fetch`], into the driver's resilience
//! state — the driver's own, shared with every other context that
//! registers it ([`kleisli_core::Driver::resilience`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use kleisli_core::resilience::{CancelToken, ResilientHandle};
use kleisli_core::testutil::Quiescent;
use kleisli_core::{
    DriverRef, DriverRequest, Executor, Fetch, Join, KError, KResult, Oid, SingleFlight, Value,
    ValueBlock,
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
    /// Per-query byte budget ([`Context::with_byte_budget`]), shared by
    /// every clone of the query's context.
    bytes: Option<Arc<ByteBudget>>,
    /// One [`SingleFlight`] per `Cached { id }` subquery evaluated since
    /// the table was made ([`Context::with_own_cache`]) or cleared; per
    /// query, like the byte budget.
    cache: Arc<Mutex<HashMap<u64, Arc<SingleFlight<Value>>>>>,
    /// This clone evaluates an expression that mentions no remote source
    /// ([`Context::for_bodies`]): nothing under it can start ahead, and the
    /// evaluator need not look.
    remote_free: bool,
    /// The element of the innermost warmed-up batch-marked loop whose
    /// body this clone evaluates ([`Context::for_element`]).
    pub(crate) element: Option<Arc<Element>>,
}

/// One element of a warmed-up batch-marked loop: the loop's mark, the
/// batch handle its marked call replays instead of building its request
/// (`exec::stream`'s `RemoteApp` arm), and the element of the marked loop
/// around this one, if any.
pub(crate) struct Element {
    pub(crate) mark: nrc::BatchSpec,
    pub(crate) handle: ResilientHandle,
    pub(crate) outer: Option<Arc<Element>>,
}

/// What a query's generators may materialize, and what they have.
struct ByteBudget {
    limit: u64,
    spent: AtomicU64,
}

struct CtxInner {
    drivers: HashMap<String, DriverRef>,
    object_stores: Vec<Arc<dyn ObjectStore>>,
    /// The compute pool parallel loops' chunks (and the session's query
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
                object_stores: Vec::new(),
                executor,
            }),
            deadline: None,
            cancel: None,
            bytes: None,
            cache: Arc::default(),
            remote_free: false,
            element: None,
        }
    }

    /// The compute executor query evaluation and parallel loops' chunks
    /// are scheduled on.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.inner.executor
    }

    fn inner_mut(&mut self) -> &mut CtxInner {
        Arc::get_mut(&mut self.inner)
            .expect("context must be uniquely owned while registering sources")
    }

    /// Register a driver under its own name. Its requests go through its
    /// one resilience state, built on first use from what it advertises
    /// then — this registration, if no other context registered it yet.
    pub fn register_driver(&mut self, driver: DriverRef) {
        driver.resilience();
        self.inner_mut().drivers.insert(driver.name().to_string(), driver);
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

    /// A clone of this context that charges every row its evaluation
    /// collects into a value — the result, a join's inner side, a body's
    /// piece, a source canonicalized first — in `Value::approx_bytes`, to
    /// one fresh budget of `limit` bytes, shared by every clone made from
    /// it: a parallel loop's chunk of bodies charges the same count. A row is
    /// charged once per value it is collected into, however many
    /// generators it streamed through on the way. The charge is what was
    /// collected, not what is still held, so it bounds a query's heap from
    /// above.
    pub fn with_byte_budget(&self, limit: u64) -> Context {
        let mut c = self.clone();
        c.bytes = Some(Arc::new(ByteBudget {
            limit,
            spent: AtomicU64::new(0),
        }));
        c
    }

    /// A clone of this context with an empty table of subquery slots of
    /// its own, shared by every clone made from it: a query started
    /// under it evaluates each `Cached` subquery once, whatever other
    /// queries on the same registry start or clear.
    pub fn with_own_cache(&self) -> Context {
        let mut c = self.clone();
        c.cache = Arc::default();
        c
    }

    /// Charge `block` to the query's byte budget: the budget's error once
    /// the charges have passed it. A context with no budget charges
    /// nothing.
    pub fn charge(&self, block: &ValueBlock) -> KResult<()> {
        let Some(budget) = &self.bytes else {
            return Ok(());
        };
        let rows = block.rows().iter().flatten();
        let bytes: u64 = rows.map(Value::approx_bytes).sum();
        if budget.spent.fetch_add(bytes, Ordering::Relaxed) + bytes > budget.limit {
            return Err(KError::eval(format!(
                "query exceeded its memory budget of {} bytes",
                budget.limit
            )));
        }
        Ok(())
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

    /// The clone an element of a warmed-up loop marked `mark` evaluates
    /// its body under: the loop's marked call replays `handle`, and every
    /// enclosing marked loop's call still replays its own element's.
    pub(crate) fn for_element(&self, mark: &nrc::BatchSpec, handle: ResilientHandle) -> Context {
        let mut c = self.clone();
        let outer = self.element.clone();
        c.element = Some(Arc::new(Element {
            mark: mark.clone(),
            handle,
            outer,
        }));
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

    /// Fetch `reqs` — requests starting together on driver `name` — `how`
    /// they will be read, through the driver's resilience state
    /// ([`kleisli_core::DriverResilience::fetch`]): breaker admission, this
    /// clone's deadline and cancellation token all apply, and retry runs
    /// when a handle is redeemed.
    /// One handle per request, in order, or that request's error.
    pub fn fetch(
        &self,
        name: &str,
        reqs: &[DriverRequest],
        how: Fetch,
    ) -> Vec<KResult<ResilientHandle>> {
        let (deadline, cancel) = (self.deadline, self.cancel.clone());
        match self.driver(name) {
            Ok(driver) => driver.resilience().fetch(driver, reqs, how, deadline, cancel),
            Err(e) => reqs.iter().map(|_| Err(e.clone())).collect(),
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
    /// parallel loop run exactly once however many workers race to it. A
    /// waiter parks under this clone's deadline and cancellation token; cut
    /// short, it fails with the budget's error. Ids are the subplan's
    /// deterministic structural hash (assigned by the optimizer's cache
    /// rule), so recompiled plans address the same slots.
    pub(crate) fn cache_join(&self, id: u64) -> KResult<Join<Value>> {
        let slot = Arc::clone(self.cache.lock().entry(id).or_default());
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
        self.cache.lock().get(&id)?.peek()
    }

    /// Drop all memoized results in this context's table (between
    /// queries evaluated on it directly).
    pub fn cache_clear(&self) {
        self.cache.lock().clear();
    }
}

/// A context holds nothing once every driver's resilience state holds
/// nothing and its executor runs nothing.
impl Quiescent for Context {
    fn held(&self) -> Option<String> {
        let states = self.drivers().map(|d| d.resilience().as_ref() as &dyn Quiescent);
        let parts = states.chain([self.executor().as_ref() as &dyn Quiescent]);
        let held: Vec<String> = parts.filter_map(Quiescent::held).collect();
        (!held.is_empty()).then(|| held.join("; "))
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
        self.cache.lock().insert(id, slot);
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
