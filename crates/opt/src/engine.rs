//! The rewrite-rule engine.
//!
//! "Optimization of queries is done entirely at compile time using rewrite
//! rules. ... new rules can be specified by the designer of the system and
//! grouped into rule sets along with an indication of how they are to be
//! applied, e.g. bottom-up or top-down with respect to the tree of
//! subexpressions and how many iterations of a rule set should be applied"
//! (Section 4).

use std::collections::HashMap;
use std::sync::Arc;

use nrc::Expr;

use crate::catalog::SourceCatalog;

/// How a rule set walks the expression tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Children are rewritten before their parent.
    BottomUp,
    /// The parent is rewritten before its children.
    TopDown,
}

/// A single named rewrite rule. Returns `Some(new)` when it fires.
pub struct Rule {
    pub name: &'static str,
    pub apply: fn(&Expr, &RuleCtx<'_>) -> Option<Expr>,
}

/// Context available to rules: source capabilities and statistics.
/// Which rule sets run is [`crate::optimize_shared`]'s to read from an
/// [`OptConfig`]; no rule reads it.
pub struct RuleCtx<'a> {
    pub catalog: &'a dyn SourceCatalog,
}

/// Concurrency of a parallelized loop over a server that does not
/// declare a limit (the paper's "say five").
pub const DEFAULT_CONCURRENCY: usize = 5;

/// Upper bound on passes per rule set (safety net; the monad rules are
/// strongly normalizing so the bound is rarely reached).
pub const MAX_PASSES: usize = 20;

/// Optimizer configuration: one switch per optimization, so benchmarks
/// can ablate them individually. `PartialEq` and `Hash` make the config
/// usable as part of the session plan-cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OptConfig {
    pub enable_monadic: bool,
    pub enable_pushdown: bool,
    pub enable_joins: bool,
    pub enable_cache: bool,
    pub enable_parallel: bool,
    /// Mark remote inner loops over batching-capable servers with a
    /// [`nrc::BatchSpec`] (IN-list / multi-uid pushdown).
    pub enable_batching: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            enable_monadic: true,
            enable_pushdown: true,
            enable_joins: true,
            enable_cache: true,
            enable_parallel: true,
            enable_batching: true,
        }
    }
}

impl OptConfig {
    /// Everything off — the unoptimized baseline for experiments.
    pub fn none() -> OptConfig {
        OptConfig {
            enable_monadic: false,
            enable_pushdown: false,
            enable_joins: false,
            enable_cache: false,
            enable_parallel: false,
            enable_batching: false,
        }
    }
}

/// One fired rule, recorded for `explain` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    pub rule_set: &'static str,
    pub rule: &'static str,
    pub pass: usize,
}

/// A named group of rules applied with a strategy until fixpoint (bounded
/// by [`MAX_PASSES`]).
pub struct RuleSet {
    pub name: &'static str,
    pub strategy: Strategy,
    pub rules: Vec<Rule>,
}

/// Per-fixpoint memo table of the rewrite engine: input subplan identity
/// (`Arc` address) → rewritten subplan.
///
/// Soundness rests on two facts. Rules are pure functions of the subtree
/// and the (constant) rule context, so one_pass is deterministic and its
/// result is reusable for every occurrence of the same node — this is what
/// turns a rewrite over a DAG with shared subtrees from "once per
/// occurrence" into "once per distinct subplan". And every key's `Arc` is
/// retained in `keep` for the lifetime of the table, so a keyed address
/// can never be freed and reused by an unrelated allocation while the
/// entry is live.
///
/// The table persists across the passes of one [`RuleSet::run`]: a shared
/// subtree that reached its local fixpoint in pass *n* is looked up, not
/// re-walked, in pass *n+1*. Unshared nodes (strong count 1) are never
/// tracked — they cannot repeat, and skipping them keeps no-op passes as
/// cheap as the unmemoized engine's.
#[derive(Default)]
struct RewriteMemo {
    map: HashMap<usize, Arc<Expr>>,
    keep: Vec<Arc<Expr>>,
}

impl RewriteMemo {
    fn get(&self, e: &Arc<Expr>) -> Option<Arc<Expr>> {
        self.map.get(&(Arc::as_ptr(e) as usize)).map(Arc::clone)
    }

    fn insert(&mut self, input: &Arc<Expr>, output: &Arc<Expr>) {
        self.map
            .insert(Arc::as_ptr(input) as usize, Arc::clone(output));
        self.keep.push(Arc::clone(input));
    }
}

impl RuleSet {
    /// Run the rule set to fixpoint over a shared plan handle.
    ///
    /// The whole traversal is *sharing-preserving*: a pass over a subtree
    /// in which no rule fires hands back the very same `Arc` (pointer-
    /// equal) and allocates nothing, so the fixpoint test is a single
    /// `Arc::ptr_eq` on the root instead of a structural `PartialEq` walk.
    ///
    /// Per-subplan results are additionally memoized on `Arc` identity
    /// for the whole fixpoint, so a subtree shared by many parents is
    /// rewritten once — see `RewriteMemo` (private to this module). A
    /// memo hit also skips re-recording trace entries: the trace reports
    /// rewrites per distinct subplan, not per occurrence.
    pub fn run(&self, e: Arc<Expr>, ctx: &RuleCtx<'_>, trace: &mut Vec<TraceEntry>) -> Arc<Expr> {
        self.fixpoint(e, ctx, trace, Some(RewriteMemo::default()))
    }

    /// [`RuleSet::run`] without the rewrite memo: every occurrence of a
    /// shared subtree is walked again. The reference the memo is tested
    /// against (`tests/semantics.rs`) and measured against (`report
    /// memoized_fixpoint`); nothing else calls it.
    #[doc(hidden)]
    pub fn run_unmemoized(
        &self,
        e: Arc<Expr>,
        ctx: &RuleCtx<'_>,
        trace: &mut Vec<TraceEntry>,
    ) -> Arc<Expr> {
        self.fixpoint(e, ctx, trace, None)
    }

    fn fixpoint(
        &self,
        mut e: Arc<Expr>,
        ctx: &RuleCtx<'_>,
        trace: &mut Vec<TraceEntry>,
        mut memo: Option<RewriteMemo>,
    ) -> Arc<Expr> {
        for pass in 0..MAX_PASSES {
            let next = self.one_pass(&e, ctx, trace, pass, &mut memo);
            if Arc::ptr_eq(&next, &e) {
                break; // fixpoint: no rule fired anywhere in the plan
            }
            e = next;
        }
        e
    }

    /// Owned-value convenience over [`RuleSet::run`] for tests and callers
    /// that do not track sharing.
    pub fn run_owned(&self, e: Expr, ctx: &RuleCtx<'_>, trace: &mut Vec<TraceEntry>) -> Expr {
        let out = self.run(Arc::new(e), ctx, trace);
        Arc::try_unwrap(out).unwrap_or_else(|a| (*a).clone())
    }

    fn one_pass(
        &self,
        e: &Arc<Expr>,
        ctx: &RuleCtx<'_>,
        trace: &mut Vec<TraceEntry>,
        pass: usize,
        memo: &mut Option<RewriteMemo>,
    ) -> Arc<Expr> {
        // Only *shared* nodes are worth tracking: a node referenced once
        // can never yield a memo hit within a pass, and every key the
        // table does hold is kept alive by `keep` (count ≥ 2), so a
        // strong count of 1 proves absence. This keeps the no-op pass
        // over an unshared plan at one atomic load per node — the
        // PR-1 "a no-op pass allocates nothing" property — while shared
        // subtrees (hand-shared or hash-consed) are rewritten once.
        let track = memo.is_some() && Arc::strong_count(e) > 1;
        if track {
            if let Some(hit) = memo.as_ref().and_then(|m| m.get(e)) {
                return hit;
            }
        }
        let out = match self.strategy {
            Strategy::BottomUp => {
                let e2 = Expr::map_children_shared(e, &mut |c| {
                    self.one_pass(c, ctx, trace, pass, memo)
                });
                self.apply_here(e2, ctx, trace, pass)
            }
            Strategy::TopDown => {
                let e2 = self.apply_here(Arc::clone(e), ctx, trace, pass);
                Expr::map_children_shared(&e2, &mut |c| self.one_pass(c, ctx, trace, pass, memo))
            }
        };
        if let (true, Some(memo)) = (track, memo.as_mut()) {
            memo.insert(e, &out);
        }
        out
    }

    fn apply_here(
        &self,
        mut e: Arc<Expr>,
        ctx: &RuleCtx<'_>,
        trace: &mut Vec<TraceEntry>,
        pass: usize,
    ) -> Arc<Expr> {
        // Keep applying rules at this node until none fires (bounded).
        'outer: for _ in 0..MAX_PASSES {
            for rule in &self.rules {
                if let Some(new) = (rule.apply)(&e, ctx) {
                    debug_assert_ne!(
                        new, *e,
                        "rule '{}' returned an unchanged expression",
                        rule.name
                    );
                    trace.push(TraceEntry {
                        rule_set: self.name,
                        rule: rule.name,
                        pass,
                    });
                    e = Arc::new(new);
                    continue 'outer;
                }
            }
            break;
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::NullCatalog;
    use nrc::Prim;

    fn fold_if(e: &Expr, _ctx: &RuleCtx<'_>) -> Option<Expr> {
        if let Expr::If(c, t, f) = e {
            if let Expr::Const(kleisli_core::Value::Bool(b)) = &**c {
                return Some(if *b { (**t).clone() } else { (**f).clone() });
            }
        }
        None
    }

    #[test]
    fn bottom_up_reaches_fixpoint_and_traces() {
        let set = RuleSet {
            name: "test",
            strategy: Strategy::BottomUp,
            rules: vec![Rule {
                name: "if-const",
                apply: fold_if,
            }],
        };
        // if true then (if false then 1 else 2) else 3  ==>  2
        let e = Expr::if_(
            Expr::bool(true),
            Expr::if_(Expr::bool(false), Expr::int(1), Expr::int(2)),
            Expr::int(3),
        );
        let ctx = RuleCtx { catalog: &NullCatalog };
        let mut trace = Vec::new();
        let out = set.run_owned(e, &ctx, &mut trace);
        assert_eq!(out, Expr::int(2));
        assert_eq!(trace.len(), 2);
        assert!(trace.iter().all(|t| t.rule == "if-const"));
    }

    #[test]
    fn non_matching_rules_leave_expression_alone() {
        let set = RuleSet {
            name: "test",
            strategy: Strategy::TopDown,
            rules: vec![Rule {
                name: "if-const",
                apply: fold_if,
            }],
        };
        let e = Arc::new(Expr::prim(Prim::Add, vec![Expr::int(1), Expr::int(2)]));
        let ctx = RuleCtx { catalog: &NullCatalog };
        let mut trace = Vec::new();
        let out = set.run(Arc::clone(&e), &ctx, &mut trace);
        assert!(
            Arc::ptr_eq(&out, &e),
            "a pass with no firing rules must return the same plan handle"
        );
        assert!(trace.is_empty());
    }

    #[test]
    fn shared_subtrees_are_rewritten_once_when_memoized() {
        let set = || RuleSet {
            name: "test",
            strategy: Strategy::BottomUp,
            rules: vec![Rule {
                name: "if-const",
                apply: fold_if,
            }],
        };
        // union(S, S): the SAME Arc twice; the rule fires inside S.
        let shared = Arc::new(Expr::if_(Expr::bool(true), Expr::int(1), Expr::int(2)));
        let e = Arc::new(Expr::Union(
            kleisli_core::CollKind::Set,
            Arc::clone(&shared),
            Arc::clone(&shared),
        ));
        let catalog = NullCatalog;
        let run_with = |memo: bool| {
            let ctx = RuleCtx { catalog: &catalog };
            let mut trace = Vec::new();
            let out = if memo {
                set().run(Arc::clone(&e), &ctx, &mut trace)
            } else {
                set().run_unmemoized(Arc::clone(&e), &ctx, &mut trace)
            };
            (out, trace)
        };
        let (memo_out, memo_trace) = run_with(true);
        let (plain_out, plain_trace) = run_with(false);
        assert_eq!(*memo_out, *plain_out, "memoization must not change plans");
        assert_eq!(plain_trace.len(), 2, "unmemoized: once per occurrence");
        assert_eq!(memo_trace.len(), 1, "memoized: once per distinct subplan");
        // The memoized result keeps (in fact, increases) sharing: both
        // occurrences of the rewritten subtree are one Arc.
        let Expr::Union(_, a, b) = &*memo_out else {
            panic!("shape changed");
        };
        assert!(Arc::ptr_eq(a, b), "shared input must stay shared output");
    }

    #[test]
    fn unchanged_subtrees_stay_shared_when_a_sibling_rewrites() {
        let set = RuleSet {
            name: "test",
            strategy: Strategy::BottomUp,
            rules: vec![Rule {
                name: "if-const",
                apply: fold_if,
            }],
        };
        // union( U{...|x<-S} , if true then {1} else {2} ): the left arm is
        // untouched by the rewrite and must come back pointer-equal.
        let left = Arc::new(Expr::ext(
            kleisli_core::CollKind::Set,
            "x",
            Expr::single(kleisli_core::CollKind::Set, Expr::var("x")),
            Expr::var("S"),
        ));
        let right = Expr::if_(
            Expr::bool(true),
            Expr::single(kleisli_core::CollKind::Set, Expr::int(1)),
            Expr::single(kleisli_core::CollKind::Set, Expr::int(2)),
        );
        let e = Arc::new(Expr::Union(
            kleisli_core::CollKind::Set,
            Arc::clone(&left),
            Arc::new(right),
        ));
        let ctx = RuleCtx { catalog: &NullCatalog };
        let mut trace = Vec::new();
        let out = set.run(e, &ctx, &mut trace);
        assert_eq!(trace.len(), 1);
        let Expr::Union(_, l, r) = &*out else {
            panic!("unexpected {out}");
        };
        assert!(
            Arc::ptr_eq(l, &left),
            "untouched sibling must be pointer-shared, not rebuilt"
        );
        assert_eq!(**r, Expr::single(kleisli_core::CollKind::Set, Expr::int(1)));
    }
}
