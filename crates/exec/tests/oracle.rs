//! One evaluator, one meaning: every way of running a plan — `eval`, a
//! full-grain block drain, a grain-1 row drain — agrees with the naive
//! reference interpreter, on values and on stringified errors.
//!
//! * a property over small random plans (sets / bags / lists, both join
//!   operators, parallel loops, `Cached`, collections nested in record
//!   fields to depth 2, an element whose evaluation fails), a quarter of them
//!   strict siblings over remote scans — records of collections,
//!   `flatten` of singleton unions, primitives over scans — on a
//!   prefetching driver whose window is smaller than its table, so what
//!   the evaluator starts ahead and fetches in full means what
//!   left-to-right evaluation means; every plan run again with the
//!   driver answering by row ranges on four connections, so a full fetch
//!   is four requests alone, two beside one sibling and 2 + 1 + 1 beside
//!   two, and once more with the range holding row 5 failing — the
//!   middle one or the first, whatever the apportionment; every binder named
//!   from a pool of three, so shadowing is the rule and the evaluators
//!   must scope a join's keys, condition and body as `nrc::expr`'s
//!   "Scope" table does;
//! * the substitution lemma against the definition: running
//!   `e[x := r]` is running `e` with `x` bound to `r`'s value, whichever
//!   way it is run — `subst_shared`'s shadowing and renaming mean what
//!   the evaluators' environments mean;
//! * the runtime kind errors the type checker cannot rule out on
//!   `any`-typed values, raised identically at the top of a query and in
//!   its nested parts;
//! * generators of one kind drawing from a source of another.

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use kleisli_core::block::BlockStream;
use kleisli_core::remote::apportion;
use kleisli_core::testutil::{Fault, SlowDriver};
use kleisli_core::{
    Capabilities, CollKind, Driver, DriverRequest, DriverResilience, Fetch, KResult,
    RequestHandle, Value, DEFAULT_BLOCK_ROWS,
};
use kleisli_exec::{
    collect_blocks, collect_stream, eval, eval_blocks, eval_stream, reference, Context, Env,
};
use nrc::{name, Expr, LoopStrategy, Prim};
use proptest::prelude::*;
use proptest::TestRng;

type Outcome = Result<Value, String>;

/// Rows `[n = 0] .. [n = 11]` per request behind a 4-row prefetch window
/// (rows and requests cost nothing: `SlowDriver` prefetches regardless).
const REMOTE_ROWS: i64 = 12;

/// How the remote source `R` answers the scan the generated plans make.
#[derive(Clone, Copy, Debug)]
enum Scans {
    /// One request, one reply.
    Whole,
    /// By row ranges on four connections: a full fetch alone is four
    /// requests of three rows; two starting together are two of six each,
    /// three are 2 + 1 + 1 (`kleisli_core::remote::apportion`).
    Sliced,
    /// By row ranges, the one holding row 5 failing: every scan of `R`
    /// fails, split — behind the rows in front — or not.
    SlicedFailing,
}

const SCANS: [Scans; 3] = [Scans::Whole, Scans::Sliced, Scans::SlicedFailing];

/// A fresh context (no run sees another's cache cells) over the one
/// remote source `R` the generated plans scan.
fn context(scans: Scans) -> Context {
    static R: [OnceLock<Arc<SlowDriver>>; 3] = [const { OnceLock::new() }; 3];
    context_over(Arc::clone(R[scans as usize].get_or_init(|| source(scans))) as _)
}

fn context_over(driver: Arc<dyn Driver>) -> Context {
    let mut ctx = Context::new();
    ctx.register_driver(driver);
    ctx
}

/// `R`'s prefetch window and connections.
const WINDOW: usize = 4;
const CONNECTIONS: usize = 4;

/// `R` as `scans` answers.
fn source(scans: Scans) -> Arc<SlowDriver> {
    let free = Duration::ZERO;
    let driver = SlowDriver::pipelined("R", REMOTE_ROWS, free, free, CONNECTIONS, WINDOW);
    driver.set_sliceable(!matches!(scans, Scans::Whole));
    if matches!(scans, Scans::SlicedFailing) {
        driver.set_fault(Fault::FailRow(5));
    }
    driver
}

/// Run `e` (a `kind` collection) every way there is, each on a fresh
/// context: `eval`, full-grain drain, grain-1 drain, and the oracle.
fn every_way(e: &Expr, kind: CollKind, scans: Scans) -> [Outcome; 4] {
    let env = Env::empty();
    let text = |r: kleisli_core::KResult<Value>| r.map_err(|err| err.to_string());
    [
        text(eval(e, &env, &context(scans))),
        text(eval_blocks(e, &env, &context(scans)).and_then(|s| collect_blocks(s, kind))),
        text(eval_stream(e, &env, &context(scans)).and_then(|s| collect_stream(s, kind))),
        text(reference::eval(e, &env, &context(scans))),
    ]
}

/// The rows of `e`'s stream drained at `grain`, up to and including
/// the first error: an error never overtakes a row before it, at any
/// grain.
fn rows_at(e: &Expr, grain: usize, scans: Scans) -> Result<Vec<Outcome>, String> {
    let mut stream = eval_blocks(e, &Env::empty(), &context(scans)).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    while let Some(block) = stream.next_block(grain) {
        assert!(block.len() <= grain, "{} rows at grain {grain}", block.len());
        for row in block.into_rows() {
            let failed = row.is_err();
            rows.push(row.map_err(|e| e.to_string()));
            if failed {
                return Ok(rows);
            }
        }
    }
    Ok(rows)
}

const KINDS: [CollKind; 3] = [CollKind::Set, CollKind::Bag, CollKind::List];

/// A random plan and the kind of collection it builds.
struct Plan(Expr, CollKind);

impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Every binder's name: few enough that a binder usually shadows one
/// in scope and a join's two variables are often one name.
const POOL: [&str; 3] = ["x", "y", "z"];

/// Plan generator: recursive descent on the test RNG. Every method's
/// `vars` are the int-typed variables in scope (with repeats, where one
/// shadows another); `next` numbers cache ids.
struct Gen<'a> {
    rng: &'a mut TestRng,
    next: u64,
}

impl Gen<'_> {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.below(n)
    }

    fn kind(&mut self) -> CollKind {
        KINDS[self.below(3) as usize]
    }

    fn binder(&mut self) -> String {
        POOL[self.below(3) as usize].to_string()
    }

    /// An int-valued expression over `vars`; one shape in eight divides
    /// by `v - 3`, which fails on the element 3.
    fn scalar(&mut self, vars: &[String], depth: u32) -> Expr {
        let var = |g: &mut Gen| match vars.len() {
            0 => Expr::int(g.below(6) as i64),
            n => Expr::var(&vars[g.below(n as u64) as usize]),
        };
        match self.below(8) {
            0 => Expr::int(self.below(6) as i64),
            1 | 2 => var(self),
            3 => Expr::prim(Prim::Add, vec![var(self), Expr::int(self.below(4) as i64)]),
            4 => Expr::prim(Prim::Mul, vec![var(self), Expr::int(self.below(3) as i64)]),
            5 => Expr::prim(
                Prim::Mod,
                vec![var(self), Expr::int(1 + self.below(3) as i64)],
            ),
            6 if depth > 0 => {
                let kind = self.kind();
                Expr::prim(Prim::Count, vec![self.ints(kind, vars, depth - 1)])
            }
            6 => var(self),
            _ => Expr::prim(
                Prim::Div,
                vec![
                    Expr::int(12),
                    Expr::prim(Prim::Sub, vec![var(self), Expr::int(3)]),
                ],
            ),
        }
    }

    fn cond(&mut self, vars: &[String], depth: u32) -> Expr {
        let (a, b) = (self.scalar(vars, depth), self.scalar(vars, depth));
        let op = [Prim::Lt, Prim::Le, Prim::Eq, Prim::Ne][self.below(4) as usize];
        Expr::prim(op, vec![a, b])
    }

    fn literal(&mut self, kind: CollKind) -> Expr {
        let n = self.below(5);
        let elems = (0..n).map(|_| Value::Int(self.below(6) as i64)).collect();
        Expr::Const(Value::collection(kind, elems))
    }

    /// The body of a `kind` comprehension binding `x`.
    fn body(&mut self, kind: CollKind, vars: &[String], depth: u32) -> Expr {
        match self.below(6) {
            0 => Expr::single(kind, self.scalar(vars, depth)),
            1 => Expr::if_(
                self.cond(vars, depth),
                Expr::single(kind, self.scalar(vars, depth)),
                Expr::Empty(kind),
            ),
            2 => self.bounded(kind, vars, 2),
            // A piece the body kernel cannot take makes the whole body
            // stream.
            3 => {
                let other = match depth {
                    0 => self.literal(kind),
                    _ => self.ints(kind, vars, depth - 1),
                };
                Expr::union(kind, self.bounded(kind, vars, 1), other)
            }
            _ if depth > 0 => self.ints(kind, vars, depth - 1),
            _ => Expr::single(kind, self.scalar(vars, 0)),
        }
    }

    /// A body with a bounded number of rows, which the body kernel
    /// evaluates into the output block: unions, `if`s and `let`s,
    /// `levels` deep, over singletons and empties.
    fn bounded(&mut self, kind: CollKind, vars: &[String], levels: u32) -> Expr {
        if levels == 0 {
            return match self.below(4) {
                0 => Expr::Empty(kind),
                _ => Expr::single(kind, self.scalar(vars, 0)),
            };
        }
        let l = levels - 1;
        match self.below(3) {
            0 => Expr::union(kind, self.bounded(kind, vars, l), self.bounded(kind, vars, l)),
            1 => Expr::if_(
                self.cond(vars, 0),
                self.bounded(kind, vars, l),
                self.bounded(kind, vars, l),
            ),
            _ => {
                let y = self.binder();
                let def = self.scalar(vars, 0);
                let mut inner = vars.to_vec();
                inner.push(y.clone());
                Expr::let_(&y, def, self.bounded(kind, &inner, l))
            }
        }
    }

    /// A `kind` collection of ints.
    fn ints(&mut self, kind: CollKind, vars: &[String], depth: u32) -> Expr {
        if depth == 0 {
            return match self.below(3) {
                0 => Expr::single(kind, self.scalar(vars, 0)),
                _ => self.literal(kind),
            };
        }
        let d = depth - 1;
        match self.below(10) {
            0 => self.literal(kind),
            1 => Expr::union(kind, self.ints(kind, vars, d), self.ints(kind, vars, d)),
            2..=4 => {
                // A generator may draw from a collection of any kind.
                let source_kind = self.kind();
                let source = self.ints(source_kind, vars, d);
                let x = self.binder();
                let mut inner = vars.to_vec();
                inner.push(x.clone());
                let body = self.body(kind, &inner, d);
                if self.below(3) == 0 {
                    Expr::Ext {
                        kind,
                        var: name(&x),
                        body: Arc::new(body),
                        source: Arc::new(source),
                        strategy: LoopStrategy::Parallel(1 + self.below(4) as usize),
                    }
                } else {
                    Expr::ext(kind, &x, body, source)
                }
            }
            5 | 6 => self.join(kind, vars, d),
            // Memoize a *closed* subquery, as the optimizer's cache rule
            // does; inside a loop every iteration but the first hits.
            7 => Expr::Cached {
                id: {
                    self.next += 1;
                    self.next
                },
                expr: Arc::new(self.ints(kind, &[], d)),
            },
            8 => Expr::if_(
                self.cond(vars, d),
                self.ints(kind, vars, d),
                self.ints(kind, vars, d),
            ),
            _ => {
                let y = self.binder();
                let def = self.scalar(vars, d);
                let mut inner = vars.to_vec();
                inner.push(y.clone());
                Expr::let_(&y, def, self.ints(kind, &inner, d))
            }
        }
    }

    fn join(&mut self, kind: CollKind, vars: &[String], depth: u32) -> Expr {
        let (left, right) = (self.ints(kind, vars, depth), self.ints(kind, vars, depth));
        let (l, r) = (self.binder(), self.binder());
        let mut inner = vars.to_vec();
        inner.extend([l.clone(), r.clone()]);
        // Keys cannot fail: the hash join evaluates them per side, the
        // nested loop per pair, and the two may not disagree on errors.
        // Each is over its own side's variable and one from outside the
        // join — which the other side's variable must not capture.
        let modulus = 1 + self.below(3) as i64;
        let mut key = |own: &str| {
            let outer = match vars.len() {
                0 => Expr::int(1),
                n => Expr::var(&vars[self.below(n as u64) as usize]),
            };
            let sum = Expr::prim(Prim::Add, vec![Expr::var(own), outer]);
            Arc::new(Expr::prim(Prim::Mod, vec![sum, Expr::int(modulus)]))
        };
        let keys = (key(&l), key(&r));
        // Keyed (the indexed join) or not (the blocked one).
        let keys = (self.below(2) == 1).then_some(keys);
        Expr::Join {
            kind,
            left: Arc::new(left),
            right: Arc::new(right),
            lvar: name(&l),
            rvar: name(&r),
            keys,
            cond: Arc::new(self.cond(&inner, 0)),
            body: Arc::new(self.body(kind, &inner, depth.min(1))),
        }
    }

    /// A closed collection to put beside others under a strict operator:
    /// the bare scan of `R`, ints drawn from it by a generator of any
    /// kind (one shape in three divides by `n - 3`, failing mid-scan), or
    /// a local collection — which cannot start ahead and must keep its
    /// place between those that do.
    fn sibling(&mut self) -> Expr {
        let scan = Expr::Remote {
            driver: name("R"),
            request: DriverRequest::TableScan {
                table: "t".into(),
                columns: None,
            },
        };
        let kind = self.kind();
        let n = Expr::proj(Expr::var("row"), "n");
        match self.below(5) {
            0 => scan,
            1 | 2 => Expr::ext(kind, "row", Expr::single(kind, n), scan),
            3 => {
                let risky = Expr::prim(
                    Prim::Div,
                    vec![Expr::int(12), Expr::prim(Prim::Sub, vec![n, Expr::int(3)])],
                );
                Expr::ext(kind, "row", Expr::single(kind, risky), scan)
            }
            _ => self.ints(kind, &[], 1),
        }
    }

    /// A `kind` collection assembled by a strict operator over three
    /// [`Gen::sibling`]s: one record of them, `flatten` of a union of
    /// their singletons, or primitives over them.
    fn siblings(&mut self, kind: CollKind) -> Expr {
        let (a, b, c) = (self.sibling(), self.sibling(), self.sibling());
        let count = |e: Expr| Expr::prim(Prim::Count, vec![e]);
        match self.below(3) {
            0 => Expr::single(kind, Expr::record(vec![("a", a), ("b", b), ("c", c)])),
            1 => {
                let [a, b, c] = [a, b, c].map(|e| Expr::single(kind, e));
                Expr::prim(
                    Prim::Flatten,
                    vec![Expr::union(kind, a, Expr::union(kind, b, c))],
                )
            }
            _ => Expr::single(
                kind,
                Expr::record(vec![
                    ("n", Expr::prim(Prim::Add, vec![count(a), count(b)])),
                    ("none", Expr::prim(Prim::IsEmpty, vec![c])),
                ]),
            ),
        }
    }

    /// A `kind` collection whose elements are ints or records carrying
    /// collections, themselves carrying a record with one more — or one
    /// assembled from [`Gen::siblings`].
    fn plan(&mut self, kind: CollKind) -> Expr {
        match self.below(4) {
            0 => return self.ints(kind, &[], 3),
            1 => return self.siblings(kind),
            _ => {}
        }
        let source_kind = self.kind();
        let source = self.ints(source_kind, &[], 2);
        let x = self.binder();
        let vars = [x.clone()];
        let (k1, k2) = (self.kind(), self.kind());
        let deep = Expr::record(vec![("more", self.ints(k2, &vars, 1))]);
        let row = Expr::record(vec![
            ("k", self.scalar(&vars, 1)),
            ("inner", self.ints(k1, &vars, 2)),
            ("deep", deep),
        ]);
        Expr::ext(kind, &x, Expr::single(kind, row), source)
    }
}

/// The strategy: one [`Plan`] per case, from the case's seeded RNG.
struct Plans;

impl Strategy for Plans {
    type Value = Plan;
    fn generate(&self, rng: &mut TestRng) -> Plan {
        let mut g = Gen { rng, next: 0 };
        let kind = g.kind();
        Plan(g.plan(kind), kind)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_way_of_running_a_plan_agrees_with_the_oracle(plan in Plans) {
        let mut whole = None;
        for scans in SCANS {
            let [evaluated, blocks, rows, oracle] = every_way(&plan.0, plan.1, scans);
            prop_assert_eq!(&evaluated, &oracle, "{:?}", scans);
            prop_assert_eq!(&blocks, &oracle, "{:?}", scans);
            prop_assert_eq!(&rows, &oracle, "{:?}", scans);
            // Grain 5 divides no chunk or batch, so rows cross pulls
            // mid-element.
            let at_1 = rows_at(&plan.0, 1, scans);
            prop_assert_eq!(&rows_at(&plan.0, 5, scans), &at_1, "{:?}", scans);
            prop_assert_eq!(rows_at(&plan.0, DEFAULT_BLOCK_ROWS, scans), at_1, "{:?}", scans);
            // How a reply crosses the wire is not part of its meaning.
            match scans {
                Scans::Whole => whole = Some(oracle),
                Scans::Sliced => prop_assert_eq!(Some(oracle), whole.take()),
                Scans::SlicedFailing => {}
            }
        }
    }
}

/// An open plan over the whole [`POOL`], the name to replace, and an
/// int-valued replacement that cannot fail (a replacement is evaluated
/// once per occurrence, a binding once).
struct Substitutions;

impl Strategy for Substitutions {
    type Value = (Plan, &'static str, Plan);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let mut g = Gen { rng, next: 0 };
        let kind = g.kind();
        let e = g.ints(kind, &POOL.map(String::from), 3);
        let other = Expr::var(g.binder());
        let r = match g.below(3) {
            0 => Expr::int(g.below(6) as i64),
            1 => other,
            _ => Expr::prim(Prim::Add, vec![other, Expr::int(1)]),
        };
        (Plan(e, kind), POOL[g.below(3) as usize], Plan(r, kind))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn running_a_substituted_plan_is_running_the_plan_with_the_name_bound(
        case in Substitutions
    ) {
        let (Plan(e, kind), x, Plan(r, _)) = case;
        // 3 is the element the generated divisions fail on.
        let base = POOL.iter().zip([1, 3, 4]).fold(Env::empty(), |env, (n, v)| {
            env.bind(name(n), Value::Int(v).into())
        });
        let ctx = || context(Scans::Whole);
        let value = eval(&r, &base, &ctx()).expect("replacements cannot fail");
        let bound = base.bind(name(x), value.into());
        let substituted = Expr::subst_shared(&Arc::new(e.clone()), x, &Arc::new(r));
        let text = |r: kleisli_core::KResult<Value>| r.map_err(|err| err.to_string());
        prop_assert_eq!(
            text(reference::eval(&substituted, &base, &ctx())),
            text(reference::eval(&e, &bound, &ctx())),
            "the definition, on {}", substituted
        );
        prop_assert_eq!(
            text(eval(&substituted, &base, &ctx())),
            text(eval(&e, &bound, &ctx())),
            "eval, on {}", substituted
        );
        let rows = |e: &Expr, env: &Env| {
            text(eval_stream(e, env, &ctx()).and_then(|s| collect_stream(s, kind)))
        };
        prop_assert_eq!(
            rows(&substituted, &base),
            rows(&e, &bound),
            "a grain-1 drain, on {}", substituted
        );
    }
}

#[test]
fn the_property_exercises_values_errors_and_every_operator() {
    // Guard the generator itself: over 256 plans it must produce both
    // outcomes, reach each collection operator, and hold full fetches
    // for a source that answers by row ranges to split.
    let (mut ok, mut failed, mut remote_ok, mut remote_failed) = (0, 0, 0, 0);
    let mut seen = [false; 5];
    let whole = source(Scans::Whole);
    let sliced = Arc::new(Waves {
        driver: source(Scans::Sliced),
        sizes: Mutex::default(),
    });
    for seed in 0..256u64 {
        let plan = Plans.generate(&mut TestRng::new(seed));
        let _ = eval(&plan.0, &Env::empty(), &context_over(Arc::clone(&whole) as _));
        let _ = eval(&plan.0, &Env::empty(), &context_over(Arc::clone(&sliced) as _));
        let scans = plan.0.touches_remote();
        plan.0.visit(&mut |e| match e {
            Expr::Join { keys: None, .. } => seen[0] = true,
            Expr::Join { .. } => seen[1] = true,
            Expr::Ext {
                strategy: LoopStrategy::Parallel(_),
                ..
            } => seen[2] = true,
            Expr::Cached { .. } => seen[3] = true,
            Expr::Union(..) => seen[4] = true,
            _ => {}
        });
        match reference::eval(&plan.0, &Env::empty(), &context(Scans::Whole)) {
            Ok(_) => (ok += 1, remote_ok += u32::from(scans)),
            Err(_) => (failed += 1, remote_failed += u32::from(scans)),
        };
    }
    assert!(ok >= 64 && failed >= 16, "{ok} values, {failed} errors");
    assert!(
        remote_ok >= 16 && remote_failed >= 8,
        "over remote scans: {remote_ok} values, {remote_failed} errors"
    );
    assert_eq!(seen, [true; 5], "blocked, indexed, par, cached, union");
    // What the one rule makes of the waves the evaluator asked `R` to
    // split: the parts of n full fetches starting together, of which one
    // alone would be `alone` requests.
    let apportioned = |n: usize| {
        let rows = vec![Some(REMOTE_ROWS as u64); n];
        apportion(&rows, WINDOW, CONNECTIONS)
    };
    let alone = apportioned(1)[0];
    let waves = sliced.sizes.lock().unwrap();
    let split = waves.iter().flat_map(|n| apportioned(*n)).filter(|p| *p >= 2).count();
    assert!(split >= 16, "{split} full fetches split");
    let requests = |d: &SlowDriver| d.performs.load(std::sync::atomic::Ordering::SeqCst);
    assert!(requests(&sliced.driver) > requests(&whole), "no part was fetched");
    let saved = |n: &usize| *n as u64 * alone - apportioned(*n).iter().sum::<u64>();
    let shared: u64 = waves.iter().map(saved).sum();
    assert!(shared >= 4, "{shared} requests saved by siblings sharing the width");
}

/// A driver that records how many full fetches start together each time
/// the evaluator asks it to split some.
struct Waves {
    driver: Arc<SlowDriver>,
    sizes: Mutex<Vec<usize>>,
}

impl Driver for Waves {
    fn name(&self) -> &str {
        self.driver.name()
    }

    fn capabilities(&self) -> Capabilities {
        self.driver.capabilities()
    }

    fn perform(&self, req: &DriverRequest) -> KResult<BlockStream> {
        self.driver.perform(req)
    }

    fn fetch(&self, reqs: &[DriverRequest], how: Fetch) -> Vec<KResult<RequestHandle>> {
        self.driver.fetch(reqs, how)
    }

    fn parts(&self, reqs: &[&DriverRequest]) -> Vec<Vec<DriverRequest>> {
        self.sizes.lock().unwrap().push(reqs.len());
        self.driver.parts(reqs)
    }

    fn nonblocking_submit(&self) -> bool {
        self.driver.nonblocking_submit()
    }

    fn resilience(&self) -> &Arc<DriverResilience> {
        self.driver.resilience()
    }
}

fn join(kind: CollKind, left: Expr, right: Expr, cond: Expr, body: Expr) -> Expr {
    Expr::Join {
        kind,
        left: Arc::new(left),
        right: Arc::new(right),
        lvar: name("l"),
        rvar: name("r"),
        keys: None,
        cond: Arc::new(cond),
        body: Arc::new(body),
    }
}

#[test]
fn runtime_kind_errors_are_the_same_everywhere() {
    use CollKind::{Bag, List, Set};
    let set = || Expr::Const(Value::set(vec![Value::Int(1), Value::Int(2)]));
    let list = || Expr::Const(Value::list(vec![Value::Int(1)]));
    // `any`-typed at compile time: a runtime-selected branch.
    let either = |e: Expr| Expr::if_(Expr::bool(true), e, Expr::Empty(Set));
    let pair = || Expr::single(Set, Expr::var("l"));
    let par = |body: Expr| Expr::Ext {
        kind: Set,
        var: name("x"),
        body: Arc::new(body),
        source: Arc::new(set()),
        strategy: LoopStrategy::Parallel(2),
    };
    let cases: Vec<(&str, Expr, &str)> = vec![
        (
            "union, right",
            Expr::union(Set, set(), list()),
            "union: expected a set, got a list",
        ),
        (
            "union, left",
            Expr::union(Set, either(list()), set()),
            "union: expected a set, got a list",
        ),
        (
            "union of a scalar",
            Expr::union(Set, set(), Expr::int(1)),
            "union: expected a set, got int",
        ),
        (
            "union of a form",
            Expr::union(Bag, Expr::Empty(Bag), Expr::single(Set, Expr::int(1))),
            "union: expected a bag, got a set",
        ),
        (
            "ext body value",
            Expr::ext(Set, "x", either(list()), set()),
            "comprehension body must produce a set, got list",
        ),
        (
            "ext body form",
            Expr::ext(Set, "x", Expr::single(List, Expr::var("x")), set()),
            "comprehension body must produce a set, got list",
        ),
        (
            "ext filter form",
            Expr::ext(
                List,
                "x",
                Expr::if_(
                    Expr::bool(true),
                    Expr::single(Set, Expr::var("x")),
                    Expr::Empty(List),
                ),
                set(),
            ),
            "comprehension body must produce a list, got set",
        ),
        (
            "ext body scalar",
            Expr::ext(Set, "x", Expr::var("x"), set()),
            "comprehension body must produce a set, got int",
        ),
        (
            "parext body",
            par(either(list())),
            "comprehension body must produce a set, got list",
        ),
        (
            "join left",
            join(Set, list(), set(), Expr::bool(true), pair()),
            "join left: expected a set, got a list",
        ),
        (
            "join right",
            join(Set, set(), either(list()), Expr::bool(true), pair()),
            "join right: expected a set, got a list",
        ),
        (
            "join body",
            join(Set, set(), set(), Expr::bool(true), either(list())),
            "comprehension body must produce a set, got list",
        ),
        (
            "join condition",
            join(Set, set(), set(), Expr::var("l"), pair()),
            "join condition must be bool, got int",
        ),
        (
            "generator",
            Expr::ext(Set, "x", Expr::single(Set, Expr::var("x")), Expr::int(7)),
            "comprehension generator: expected a collection, got int",
        ),
    ];
    for (what, e, expected) in cases {
        let kind = e.coll_kind_hint().expect("a collection form");
        // Bare, and nested in a record field of an enclosing comprehension.
        let nested = Expr::ext(
            Bag,
            "outer",
            Expr::single(Bag, Expr::record(vec![("field", e.clone())])),
            Expr::Const(Value::bag(vec![Value::Int(0)])),
        );
        for (plan, kind) in [(e, kind), (nested, Bag)] {
            let ways = every_way(&plan, kind, Scans::Whole);
            for (way, outcome) in ["eval", "blocks", "rows", "oracle"].iter().zip(ways) {
                let err = outcome.expect_err(what);
                assert!(err.contains(expected), "{what} via {way}: {err}");
            }
        }
    }
    // Generators may draw from any kind: not an error.
    let mixed = Expr::ext(Set, "x", Expr::single(Set, Expr::var("x")), list());
    for outcome in every_way(&mixed, Set, Scans::Whole) {
        assert_eq!(outcome, Ok(Value::set(vec![Value::Int(1)])));
    }
}

#[test]
fn a_bag_or_list_generator_sees_a_set_source_canonically() {
    // {| x | \x <- {y mod 2 | \y <- [|3, 2, 1, 0|]} |}: the inner set has
    // two elements however many rows streamed into it, and a list drawn
    // from it follows the set's canonical order, not arrival order.
    let inner = Expr::ext(
        CollKind::Set,
        "y",
        Expr::single(
            CollKind::Set,
            Expr::prim(Prim::Mod, vec![Expr::var("y"), Expr::int(2)]),
        ),
        Expr::Const(Value::list((0..4).rev().map(Value::Int).collect())),
    );
    let over = |kind| Expr::ext(kind, "x", Expr::single(kind, Expr::var("x")), inner.clone());
    let two = vec![Value::Int(0), Value::Int(1)];
    for (kind, expected) in [
        (CollKind::Bag, Value::bag(two.clone())),
        (CollKind::List, Value::list(two.clone())),
        (CollKind::Set, Value::set(two)),
    ] {
        for outcome in every_way(&over(kind), kind, Scans::Whole) {
            assert_eq!(outcome, Ok(expected.clone()), "{kind:?}");
        }
    }
}
