//! Structural hashing and hash-consing for NRC plans.
//!
//! Two facilities, both built on the same per-node digest:
//!
//! * [`plan_hash`] — a deterministic 64-bit hash of a subplan's
//!   *structure* (constructors, names, constants, child hashes). The hash
//!   is a pure function of the tree shape: it never involves pointer
//!   values, so two pointer-distinct but structurally identical plans —
//!   for example, the same CPL source compiled twice — hash identically.
//!   The cache rule derives [`Expr::Cached`] ids from this hash, which is
//!   what makes `Context` cache slots stable across recompiles.
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
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::expr::Expr;

/// FNV-1a with the standard 64-bit offset basis and prime. Implemented
/// here (rather than relying on `DefaultHasher`) so the digest is stable
/// across processes and toolchain versions — cache ids derived from it
/// must not change between runs.
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
        Expr::ParExt { .. } => 19,
    }
}

/// Hash one node given a function producing the hashes of its children:
/// constructor tag, every non-child field (names, kinds, constants,
/// strategies, key-presence flags), then the child hashes in
/// `for_each_child` order.
fn shallow_hash(e: &Expr, child_hash: &mut dyn FnMut(&Arc<Expr>) -> u64) -> u64 {
    let mut h = FnvHasher::default();
    tag(e).hash(&mut h);
    match e {
        Expr::Const(v) => v.hash(&mut h),
        Expr::Var(n) => n.hash(&mut h),
        Expr::Let { var, .. } | Expr::Lambda { var, .. } => var.hash(&mut h),
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
                arm.var.hash(&mut h);
            }
            default.is_some().hash(&mut h);
        }
        Expr::Empty(k) | Expr::Single(k, _) => k.hash(&mut h),
        Expr::Ext { kind, var, .. } => {
            kind.hash(&mut h);
            var.hash(&mut h);
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
            strategy,
            lvar,
            rvar,
            left_key,
            right_key,
            ..
        } => {
            kind.hash(&mut h);
            strategy.hash(&mut h);
            lvar.hash(&mut h);
            rvar.hash(&mut h);
            // Presence flags disambiguate the variable-length child list:
            // without them, a key migrating between the left and right
            // slot could produce the same child sequence.
            left_key.is_some().hash(&mut h);
            right_key.is_some().hash(&mut h);
        }
        Expr::Cached { id, .. } => id.hash(&mut h),
        Expr::ParExt {
            kind,
            var,
            max_in_flight,
            batch,
            ..
        } => {
            kind.hash(&mut h);
            var.hash(&mut h);
            max_in_flight.hash(&mut h);
            // The batching mark changes execution strategy, so marked
            // and unmarked plans must not collide in the plan cache.
            // The request argument is derived from the body (already
            // hashed as a child); the scalar fields identify the mark.
            if let Some(b) = batch {
                b.driver.hash(&mut h);
                b.min_keys.hash(&mut h);
                b.max_keys.hash(&mut h);
            } else {
                false.hash(&mut h);
            }
        }
    }
    e.for_each_child(&mut |c| child_hash(c).hash(&mut h));
    h.finish()
}

/// The deterministic 64-bit structural hash of a plan. Pointer-blind:
/// structurally identical plans hash equal no matter how they were built
/// or shared. Shared subtrees are hashed once per call.
pub fn plan_hash(e: &Expr) -> u64 {
    fn go(e: &Expr, memo: &mut HashMap<usize, u64>) -> u64 {
        shallow_hash(e, &mut |c: &Arc<Expr>| {
            let key = Arc::as_ptr(c) as usize;
            if let Some(hit) = memo.get(&key) {
                return *hit;
            }
            let h = go(c, memo);
            memo.insert(key, h);
            h
        })
    }
    go(e, &mut HashMap::new())
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
        let h = shallow_hash(&node, &mut |c| {
            *self
                .hashes
                .get(&(Arc::as_ptr(c) as usize))
                .expect("children are canonical before their parent")
        });
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
    fn join_key_slots_hash_distinctly() {
        let base = |lk: Option<Expr>, rk: Option<Expr>| Expr::Join {
            kind: CollKind::Set,
            strategy: crate::JoinStrategy::IndexedNl,
            left: Arc::new(Expr::var("L")),
            right: Arc::new(Expr::var("R")),
            lvar: crate::name("l"),
            rvar: crate::name("r"),
            left_key: lk.map(Arc::new),
            right_key: rk.map(Arc::new),
            cond: Arc::new(Expr::bool(true)),
            body: Arc::new(Expr::single(CollKind::Set, Expr::var("l"))),
        };
        let only_left = base(Some(Expr::var("k")), None);
        let only_right = base(None, Some(Expr::var("k")));
        assert_ne!(plan_hash(&only_left), plan_hash(&only_right));
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
