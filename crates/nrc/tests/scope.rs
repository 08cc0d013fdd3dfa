//! One scope: everything that asks "is this name bound here" is derived
//! from `Expr::for_each_child_in_scope`, so the askers must agree — on
//! plans whose binders all draw from a three-name pool, where shadowing
//! and capture happen at almost every node.
//!
//! * `occurs_free`, `free_vars` and `count_free` are one predicate;
//! * substitution replaces exactly the free occurrences, captures
//!   nothing, and returns the input handle when there are none;
//! * the table, the rebuild and `plan_hash` walk children in one order.
//!
//! That the table is the *right* scoping — the one the evaluators
//! implement — is `crates/exec/tests/oracle.rs`'s substitution lemma.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use kleisli_core::CollKind::Set;
use nrc::{name, plan_hash, BatchSpec, CaseArm, Expr, LoopStrategy, Prim};
use proptest::prelude::*;
use proptest::TestRng;

const POOL: [&str; 3] = ["a", "b", "c"];

struct Gen<'a>(&'a mut TestRng);

impl Gen<'_> {
    fn below(&mut self, n: u64) -> u64 {
        self.0.below(n)
    }

    fn name(&mut self) -> &'static str {
        POOL[self.below(3) as usize]
    }

    fn arc(&mut self, depth: u32) -> Arc<Expr> {
        Arc::new(self.expr(depth))
    }

    /// Any expression — scope does not care about types — with every
    /// binding form, and every name from the pool.
    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 {
            return match self.below(4) {
                0 => Expr::int(self.below(3) as i64),
                _ => Expr::var(self.name()),
            };
        }
        let d = depth - 1;
        match self.below(14) {
            0 => Expr::var(self.name()),
            1 => Expr::let_(self.name(), self.expr(d), self.expr(d)),
            2 => Expr::lambda(self.name(), self.expr(d)),
            3 => Expr::ext(Set, self.name(), self.expr(d), self.expr(d)),
            4 => {
                let var = self.name();
                Expr::Ext {
                    kind: Set,
                    var: name(var),
                    body: self.arc(d),
                    source: self.arc(d),
                    strategy: LoopStrategy::Batched(BatchSpec {
                        driver: name("D"),
                        arg: Arc::new(Expr::var(var)),
                        max_keys: 8,
                    }),
                }
            }
            5 => Expr::Case {
                scrutinee: self.arc(d),
                arms: (0..1 + self.below(2))
                    .map(|i| CaseArm {
                        tag: name(format!("t{i}")),
                        var: name(self.name()),
                        body: self.arc(d),
                    })
                    .collect(),
                default: (self.below(2) == 0).then(|| self.arc(d)),
            },
            6 | 7 => {
                let keyed = self.below(3) > 0;
                Expr::Join {
                    kind: Set,
                    left: self.arc(d),
                    right: self.arc(d),
                    lvar: name(self.name()),
                    rvar: name(self.name()),
                    keys: keyed.then(|| (self.arc(d), self.arc(d))),
                    cond: self.arc(d),
                    body: self.arc(d),
                }
            }
            8 => Expr::record(vec![("p", self.expr(d)), ("q", self.expr(d))]),
            9 => Expr::prim(Prim::Add, vec![self.expr(d), self.expr(d)]),
            10 => Expr::if_(self.expr(d), self.expr(d), self.expr(d)),
            11 => Expr::apply(self.expr(d), self.expr(d)),
            12 => Expr::Cached {
                id: self.below(4),
                expr: Arc::new(Expr::RemoteApp {
                    driver: name("D"),
                    arg: self.arc(d),
                }),
            },
            _ => Expr::union(
                Set,
                Expr::single(Set, self.expr(d)),
                Expr::proj(self.expr(d), "p"),
            ),
        }
    }
}

/// A plan of depth 4 and a replacement of depth 2, printed as plans.
struct Case(Arc<Expr>, Arc<Expr>);

impl fmt::Debug for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} with {}", self.0, self.1)
    }
}

struct Cases;

impl Strategy for Cases {
    type Value = Case;
    fn generate(&self, rng: &mut TestRng) -> Case {
        let mut g = Gen(rng);
        Case(g.arc(4), g.arc(2))
    }
}

fn free(e: &Expr) -> BTreeSet<String> {
    e.free_vars().iter().map(|n| n.to_string()).collect()
}

fn children(e: &Expr) -> Vec<Arc<Expr>> {
    let mut v = Vec::new();
    e.for_each_child(&mut |c| v.push(Arc::clone(c)));
    v
}

fn addresses(handles: &[Arc<Expr>]) -> Vec<*const Expr> {
    handles.iter().map(Arc::as_ptr).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_three_askers_are_one_predicate(case in Cases) {
        let mut result = Ok(());
        case.0.visit(&mut |e| {
            let fv = free(e);
            for v in POOL {
                if e.occurs_free(v) != fv.contains(v) || (e.count_free(v) > 0) != fv.contains(v) {
                    result = Err(TestCaseError::fail(format!("{v} in {e}")));
                }
            }
        });
        result?;
    }

    #[test]
    fn substitution_replaces_the_free_occurrences_and_captures_nothing(case in Cases) {
        let Case(e, r) = &case;
        for x in POOL {
            let out = Expr::subst_shared(e, x, r);
            let mut want = free(e);
            if want.remove(x) {
                want.extend(free(r));
            } else {
                prop_assert!(Arc::ptr_eq(&out, e), "{} is not free, yet rebuilt", x);
            }
            prop_assert_eq!(free(&out), want, "[{} := r]", x);
            // Occurrence by occurrence: every free `x` became one `r`.
            for y in POOL {
                let kept = if y == x { 0 } else { e.count_free(y) };
                let want = kept + e.count_free(x) * r.count_free(y);
                prop_assert_eq!(out.count_free(y), want, "{} after [{} := r]", y, x);
            }
        }
    }

    #[test]
    fn table_rebuild_and_hash_walk_children_in_one_order(case in Cases) {
        let mut nodes = Vec::new();
        case.0.visit(&mut |e| nodes.push(Arc::new(e.clone())));
        for node in &nodes {
            // Hand the rebuild its children back to front.
            let mut handles = children(node);
            let order = addresses(&handles);
            let hashes: Vec<u64> = handles.iter().map(|c| plan_hash(c)).collect();
            let mut seen = Vec::new();
            let flipped = Expr::map_children_shared(node, &mut |c| {
                seen.push(Arc::as_ptr(c));
                handles.pop().expect("one call per child")
            });
            prop_assert_eq!(&seen, &order, "rebuild order of {}", node);
            let reversed: Vec<_> = order.iter().rev().copied().collect();
            prop_assert_eq!(addresses(&children(&flipped)), reversed, "rebuilt slots of {}", node);
            // `plan_hash` folds child hashes in that order: flipping the
            // children keeps the hash exactly when their hashes read the
            // same both ways.
            let palindrome = hashes.iter().eq(hashes.iter().rev());
            prop_assert_eq!(plan_hash(&flipped) == plan_hash(node), palindrome, "{}", node);
        }
    }
}
