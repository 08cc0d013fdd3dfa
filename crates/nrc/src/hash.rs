//! Structural hashing and hash-consing for NRC plans.
//!
//! Two facilities, both built on the same per-node digest:
//!
//! * [`plan_hash`] — a deterministic 64-bit hash of a subplan's
//!   *structure* (constructors, names, constants, child hashes). The hash
//!   is a pure function of the tree shape: it never involves pointer
//!   values, so two pointer-distinct but structurally identical plans
//!   hash identically. Nor does it involve the spelling of a name made by
//!   [`crate::expr::fresh`] (`g%6027`): its number comes from a
//!   process-wide counter, so the same CPL source compiled twice — in
//!   two sessions, or again after a plan-cache eviction or a FLUSH —
//!   numbers its binders anew. Such a name is hashed by the rank of its
//!   first occurrence in the traversal instead (its first binder or use,
//!   fields before children, children in [`Expr::for_each_child`]
//!   order), ranked in the same walk that hashes the plan. The plans
//!   hashed bind every fresh name they mention (a whole query, or a
//!   `Cached` subplan, which the cache rule requires closed), so equal
//!   ranks are a consistent renaming of bound names: plans that hash
//!   equal mean the same thing. That is the key's contract — **stable
//!   across sessions and recompiles** — which the server's result cache
//!   keys on, and which makes the cache rule's [`Expr::Cached`] ids, and
//!   so `Context` cache slots, stable too.
//! * [`Interner`] — a hash-consing table: [`Interner::intern`] rebuilds a
//!   plan bottom-up so that every structurally identical subtree is
//!   represented by **one** `Arc<Expr>`. Interning only changes the
//!   sharing, never the structure, so evaluation results are unaffected
//!   (property-tested in `crates/opt/tests/semantics.rs`); what it buys is
//!   that pointer-identity-keyed machinery downstream — the memoized
//!   rewrite engine, `Arc::ptr_eq` fixpoint checks, `Env::lookup`'s
//!   fast path — sees repeated subplans as *one* subplan.
//!
//! Shared subtrees are hashed once per [`plan_hash`] call (the traversal
//! memoizes on `Arc` identity), so hashing a heavily shared DAG costs the
//! DAG's node count, not the tree size of its unfolding.
//!
//! # Collisions
//!
//! Equal hashes are verified structurally before the interner unifies two
//! nodes, so interning is collision-safe. `Cached` ids use the raw 64-bit
//! hash without a verification step: two *different* subqueries colliding
//! would share a cache slot. The ids only ever compare against other ids
//! from the same hash function, so the risk is the generic birthday bound
//! (~2⁻⁶⁴ per pair) — the same order of risk as any content-addressed
//! store — and is accepted.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use kleisli_core::FnvHasher;

use crate::expr::{is_fresh, Expr, LoopStrategy};

/// Stable constructor tags. `std::mem::discriminant` is hashable but its
/// layout is unspecified, so each variant gets an explicit code instead.
fn tag(e: &Expr) -> u8 {
    match e {
        Expr::Const(_) => 0,
        Expr::Var(_) => 1,
        Expr::Let { .. } => 2,
        Expr::Lambda { .. } => 3,
        Expr::Apply(..) => 4,
        Expr::Record(_) => 5,
        Expr::Proj(..) => 6,
        Expr::Inject(..) => 7,
        Expr::Case { .. } => 8,
        Expr::Empty(_) => 9,
        Expr::Single(..) => 10,
        Expr::Union(..) => 11,
        Expr::Ext { .. } => 12,
        Expr::If(..) => 13,
        Expr::Prim(..) => 14,
        Expr::RemoteApp { .. } => 15,
        Expr::Remote { .. } => 16,
        Expr::Join { .. } => 17,
        Expr::Cached { .. } => 18,
    }
}

/// What [`shallow_hash`] reads beyond the node it hashes.
trait Digest<'a> {
    /// Feed a variable name — a binder or a use — into `h`.
    fn var(&mut self, name: &'a str, h: &mut FnvHasher);
    /// The hash of a child.
    fn child(&mut self, c: &'a Arc<Expr>) -> u64;
}

/// Hash one node: constructor tag, every non-child field (names, kinds,
/// constants, strategies, key-presence flags), then the child hashes in
/// `for_each_child` order.
fn shallow_hash<'a>(e: &'a Expr, d: &mut impl Digest<'a>) -> u64 {
    let mut h = FnvHasher::default();
    tag(e).hash(&mut h);
    match e {
        Expr::Const(v) => v.hash(&mut h),
        Expr::Var(n) => d.var(n, &mut h),
        Expr::Let { var, .. } | Expr::Lambda { var, .. } => d.var(var, &mut h),
        Expr::Apply(..) | Expr::If(..) => {}
        Expr::Union(k, ..) => k.hash(&mut h),
        Expr::Record(fields) => {
            fields.len().hash(&mut h);
            for (n, _) in fields {
                n.hash(&mut h);
            }
        }
        Expr::Proj(_, n) | Expr::Inject(n, _) => n.hash(&mut h),
        Expr::Case { arms, default, .. } => {
            arms.len().hash(&mut h);
            for arm in arms {
                arm.tag.hash(&mut h);
                d.var(&arm.var, &mut h);
            }
            default.is_some().hash(&mut h);
        }
        Expr::Empty(k) | Expr::Single(k, _) => k.hash(&mut h),
        Expr::Ext {
            kind,
            var,
            strategy,
            ..
        } => {
            kind.hash(&mut h);
            d.var(var, &mut h);
            // How the bodies run is part of the plan. The hash keys the
            // shared result cache and the `Cached` ids, so a run that
            // ablates one strategy is never answered by another's entry.
            // A batch mark's request argument is derived from the body
            // (already hashed as a child); its scalar fields identify it.
            match strategy {
                LoopStrategy::Sequential => {}
                LoopStrategy::Batched(b) => {
                    b.driver.hash(&mut h);
                    b.max_keys.hash(&mut h);
                }
                LoopStrategy::Parallel(width) => width.hash(&mut h),
            }
        }
        Expr::Prim(p, args) => {
            p.hash(&mut h);
            args.len().hash(&mut h);
        }
        Expr::RemoteApp { driver, .. } => driver.hash(&mut h),
        Expr::Remote { driver, request } => {
            driver.hash(&mut h);
            request.hash(&mut h);
        }
        Expr::Join {
            kind,
            lvar,
            rvar,
            keys,
            ..
        } => {
            kind.hash(&mut h);
            d.var(lvar, &mut h);
            d.var(rvar, &mut h);
            // The presence flag is the join's operator, and it delimits
            // the variable-length child list.
            keys.is_some().hash(&mut h);
        }
        Expr::Cached { id, .. } => id.hash(&mut h),
    }
    e.for_each_child(&mut |c| d.child(c).hash(&mut h));
    h.finish()
}

/// The deterministic 64-bit structural hash of a plan. Pointer-blind:
/// structurally identical plans hash equal no matter how they were built
/// or shared, and fresh names are hashed by rank (module docs). Shared
/// subtrees are hashed once per call.
pub fn plan_hash(e: &Expr) -> u64 {
    /// One walk's state: the hashes of the shared subtrees met so far,
    /// and the rank of each fresh name by first occurrence. A subtree
    /// met again is met after its names were ranked, so its memoized
    /// hash is the one a walk through it would compute. Both maps hash
    /// with [`FnvHasher`]: their keys are addresses and names this
    /// process made, never input, and the warm path hashes its plan once
    /// per hit.
    #[derive(Default)]
    struct Walk<'a> {
        memo: HashMap<usize, u64, Fnv>,
        ranks: HashMap<&'a str, u64, Fnv>,
    }
    type Fnv = BuildHasherDefault<FnvHasher>;
    impl<'a> Digest<'a> for Walk<'a> {
        fn var(&mut self, name: &'a str, h: &mut FnvHasher) {
            if !is_fresh(name) {
                return name.hash(h);
            }
            let next = self.ranks.len() as u64;
            let rank = *self.ranks.entry(name).or_insert(next);
            // A spelling hashes as UTF-8 then 0xff, and UTF-8 never holds
            // 0xfe: no rank reads as a spelling.
            h.write_u8(0xfe);
            h.write_u64(rank);
        }

        fn child(&mut self, c: &'a Arc<Expr>) -> u64 {
            let key = Arc::as_ptr(c) as usize;
            if let Some(hit) = self.memo.get(&key) {
                return *hit;
            }
            let h = shallow_hash(c, self);
            self.memo.insert(key, h);
            h
        }
    }
    shallow_hash(e, &mut Walk::default())
}

/// A hash-consing table for plans.
///
/// [`Interner::intern`] maps a plan to a canonical representative in which
/// every structurally identical subtree is one shared `Arc`. The interner
/// holds a strong reference to each canonical node, which is also what
/// makes its internal pointer-keyed hash cache sound: a keyed node can
/// never be deallocated (and its address reused) while the entry exists.
///
/// The table only grows until [`Interner::clear`] or its drop, so give it
/// the lifetime of what it shares across: `kleisli::Session` builds one
/// per compile.
#[derive(Default)]
pub struct Interner {
    /// hash → canonical nodes with that hash (almost always exactly one).
    buckets: HashMap<u64, Vec<Arc<Expr>>>,
    /// canonical node address → its structural hash.
    hashes: HashMap<usize, u64>,
    /// canonical nodes interned (for stats; bucket entries total).
    nodes: usize,
}

impl Interner {
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Number of distinct canonical nodes in the table.
    pub fn len(&self) -> usize {
        self.nodes
    }

    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Drop every canonical node.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.hashes.clear();
        self.nodes = 0;
    }

    /// The canonical representative of `e`: structurally identical to the
    /// input, with every repeated subtree (within this plan *and* across
    /// every previously interned plan) collapsed to one shared `Arc`.
    /// Returns the input handle itself when it is already canonical.
    pub fn intern(&mut self, e: &Arc<Expr>) -> Arc<Expr> {
        // Per-call memo over the *input* plan's nodes; keys stay valid
        // because the caller's `e` keeps the whole input alive.
        let mut memo: HashMap<usize, Arc<Expr>> = HashMap::new();
        self.go(e, &mut memo)
    }

    fn go(&mut self, e: &Arc<Expr>, memo: &mut HashMap<usize, Arc<Expr>>) -> Arc<Expr> {
        let key = Arc::as_ptr(e) as usize;
        if let Some(hit) = memo.get(&key) {
            return Arc::clone(hit);
        }
        if self.hashes.contains_key(&key) {
            // Already canonical (interned earlier, possibly via another
            // plan sharing this subtree).
            memo.insert(key, Arc::clone(e));
            return Arc::clone(e);
        }
        // Canonicalize children first; sharing-preserving, so a node whose
        // children were already canonical comes back pointer-equal.
        let node = Expr::map_children_shared(e, &mut |c| self.go(c, memo));
        let h = shallow_hash(&node, &mut Canonical(&self.hashes));
        let bucket = self.buckets.entry(h).or_default();
        for cand in bucket.iter() {
            // Children of both sides are canonical, so deep equality here
            // only runs on a genuine hash collision or an actual match.
            if **cand == *node {
                let cand = Arc::clone(cand);
                memo.insert(key, Arc::clone(&cand));
                return cand;
            }
        }
        bucket.push(Arc::clone(&node));
        self.hashes.insert(Arc::as_ptr(&node) as usize, h);
        self.nodes += 1;
        memo.insert(key, Arc::clone(&node));
        node
    }
}

/// The interner's digest of a node whose children are canonical: it
/// buckets nodes that are then compared for equality, so names are
/// hashed as spelled and a child's hash is the one on record.
struct Canonical<'t>(&'t HashMap<usize, u64>);

impl<'a> Digest<'a> for Canonical<'_> {
    fn var(&mut self, name: &'a str, h: &mut FnvHasher) {
        name.hash(h);
    }

    fn child(&mut self, c: &'a Arc<Expr>) -> u64 {
        *self
            .0
            .get(&(Arc::as_ptr(c) as usize))
            .expect("children are canonical before their parent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kleisli_core::{CollKind, DriverRequest};

    fn remote() -> Expr {
        Expr::Remote {
            driver: crate::name("GDB"),
            request: DriverRequest::TableScan {
                table: "locus".into(),
                columns: None,
            },
        }
    }

    fn sample() -> Expr {
        Expr::ext(
            CollKind::Set,
            "x",
            Expr::single(
                CollKind::Set,
                Expr::prim(crate::Prim::Add, vec![Expr::var("x"), Expr::int(1)]),
            ),
            remote(),
        )
    }

    #[test]
    fn hash_is_structural_not_pointer() {
        // Two independently built (pointer-distinct) copies hash equal.
        assert_eq!(plan_hash(&sample()), plan_hash(&sample()));
        // Un-sharing does not change the hash either: one subplan linked
        // twice hashes like two separately built copies.
        let shared = Arc::new(sample());
        let linked = Expr::Union(CollKind::Set, Arc::clone(&shared), shared);
        let unshared = Expr::union(CollKind::Set, sample(), sample());
        assert_eq!(plan_hash(&linked), plan_hash(&unshared));
    }

    #[test]
    fn hash_distinguishes_structure() {
        let a = plan_hash(&sample());
        let b = plan_hash(&Expr::ext(
            CollKind::Bag, // different kind only
            "x",
            Expr::single(
                CollKind::Set,
                Expr::prim(crate::Prim::Add, vec![Expr::var("x"), Expr::int(1)]),
            ),
            remote(),
        ));
        assert_ne!(a, b);
        assert_ne!(plan_hash(&Expr::int(1)), plan_hash(&Expr::int(2)));
        assert_ne!(plan_hash(&Expr::var("x")), plan_hash(&Expr::var("y")));
    }

    #[test]
    fn each_loop_strategy_hashes_apart() {
        let under = |strategy| {
            let Expr::Ext {
                kind,
                var,
                body,
                source,
                ..
            } = sample()
            else {
                unreachable!()
            };
            plan_hash(&Expr::Ext {
                kind,
                var,
                body,
                source,
                strategy,
            })
        };
        let batched = |max_keys| {
            LoopStrategy::Batched(crate::BatchSpec {
                driver: crate::name("GDB"),
                arg: Arc::new(Expr::var("x")),
                max_keys,
            })
        };
        let hashes = [
            under(LoopStrategy::Sequential),
            under(batched(16)),
            under(batched(64)),
            under(LoopStrategy::Parallel(1)),
            under(LoopStrategy::Parallel(5)),
        ];
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b, "{hashes:x?}");
            }
        }
        assert_eq!(hashes[0], plan_hash(&sample()), "`Expr::ext` is sequential");
    }

    /// `U{ U{ {pick(x, y)} | \y <- GDB } | \x <- GDB }` over two fresh binders.
    fn two_loops(pick_outer: bool) -> Expr {
        let (x, y) = (crate::fresh("g"), crate::fresh("g"));
        let head = Expr::Var(Arc::clone(if pick_outer { &x } else { &y }));
        let inner = Expr::ext(
            CollKind::Set,
            &y,
            Expr::single(CollKind::Set, head),
            remote(),
        );
        Expr::ext(CollKind::Set, &x, inner, remote())
    }

    #[test]
    fn fresh_names_hash_by_rank_not_spelling() {
        // Built twice, numbered twice: one key.
        assert_eq!(plan_hash(&two_loops(true)), plan_hash(&two_loops(true)));
        // Which binder a use refers to still tells plans apart...
        assert_ne!(plan_hash(&two_loops(true)), plan_hash(&two_loops(false)));
        // ...and so does a fresh name against a spelled one.
        let spelled = Expr::ext(
            CollKind::Set,
            "g",
            Expr::single(CollKind::Set, Expr::var("g")),
            remote(),
        );
        let g = crate::fresh("g");
        let numbered = Expr::ext(
            CollKind::Set,
            &g,
            Expr::single(CollKind::Set, Expr::Var(Arc::clone(&g))),
            remote(),
        );
        assert_ne!(plan_hash(&spelled), plan_hash(&numbered));
        // Sharing stays invisible: one subplan over fresh names linked
        // twice hashes like two copies spelled alike.
        let shared = Arc::new(two_loops(false));
        let linked = Expr::Union(CollKind::Set, Arc::clone(&shared), Arc::clone(&shared));
        let copied = Expr::Union(CollKind::Set, Arc::new((*shared).clone()), shared);
        assert_eq!(plan_hash(&linked), plan_hash(&copied));
    }

    #[test]
    fn join_key_slots_hash_distinctly() {
        let base = |keys: Option<(&str, &str)>| Expr::Join {
            kind: CollKind::Set,
            left: Arc::new(Expr::var("L")),
            right: Arc::new(Expr::var("R")),
            lvar: crate::name("l"),
            rvar: crate::name("r"),
            keys: keys.map(|(lk, rk)| (Arc::new(Expr::var(lk)), Arc::new(Expr::var(rk)))),
            cond: Arc::new(Expr::bool(true)),
            body: Arc::new(Expr::single(CollKind::Set, Expr::var("l"))),
        };
        let keyed = plan_hash(&base(Some(("j", "k"))));
        assert_ne!(keyed, plan_hash(&base(Some(("k", "j")))), "swapped keys");
        assert_ne!(keyed, plan_hash(&base(None)), "keyed against unkeyed");
    }

    #[test]
    fn interning_collapses_identical_subtrees() {
        // union(S, S') with S and S' structurally equal but pointer-distinct.
        let e = Arc::new(Expr::union(CollKind::Set, sample(), sample()));
        let mut interner = Interner::new();
        let canon = interner.intern(&e);
        let Expr::Union(_, a, b) = &*canon else {
            panic!("shape changed by interning");
        };
        assert!(Arc::ptr_eq(a, b), "identical subtrees must share one Arc");
        assert_eq!(*canon, *e, "interning must not change structure");
    }

    #[test]
    fn interning_is_stable_across_plans() {
        let mut interner = Interner::new();
        let a = interner.intern(&Arc::new(sample()));
        let before = interner.len();
        let b = interner.intern(&Arc::new(sample()));
        assert!(Arc::ptr_eq(&a, &b), "same plan interns to the same node");
        assert_eq!(interner.len(), before, "no new nodes on re-intern");
        // An already-canonical plan comes back pointer-equal.
        let c = interner.intern(&a);
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn interning_preserves_hash() {
        let e = Arc::new(Expr::union(CollKind::Set, sample(), sample()));
        let mut interner = Interner::new();
        let canon = interner.intern(&e);
        assert_eq!(plan_hash(&e), plan_hash(&canon));
    }

    #[test]
    fn clear_resets_the_table() {
        let mut interner = Interner::new();
        interner.intern(&Arc::new(sample()));
        assert!(!interner.is_empty());
        interner.clear();
        assert!(interner.is_empty());
    }
}
