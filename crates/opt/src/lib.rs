//! # kleisli-opt
//!
//! The compile-time, rewrite-rule query optimizer of the Kleisli
//! reproduction (Section 4 of the paper). Rules are grouped into rule sets
//! applied bottom-up or top-down to fixpoint:
//!
//! 1. **resolve** — partial evaluation: beta reduction, let inlining,
//!    rule R4 (record projection), case dispatch, constant folding, and
//!    lowering constant driver calls to static requests;
//! 2. **monadic** — the strongly normalizing monad rules R1 (vertical
//!    fusion), R2 (horizontal fusion), R3 (filter promotion) and the unit
//!    laws;
//! 3. **pushdown** — migrating selections/projections/joins into SQL and
//!    projections/variant extractions into Entrez path expressions;
//! 4. **joins** — introducing the blocked / indexed nested-loop join
//!    operators for joins that must run locally;
//! 5. **cache** — memoizing outer-independent remote subqueries;
//! 6. **parallel** — bounded-concurrency retrieval for remote calls in
//!    inner loops;
//! 7. **batch** — marking remote inner loops over batching-capable
//!    servers so the executor folds per-element requests into multi-key
//!    wire round-trips (IN-list / multi-uid pushdown), after staging
//!    two-hop dependent loops so the second hop's keys reach the batch
//!    grain.

pub mod catalog;
pub mod engine;
pub mod rules;

pub use catalog::{NullCatalog, SourceCatalog, StaticCatalog};
pub use engine::{
    OptConfig, Rule, RuleCtx, RuleSet, Strategy, TraceEntry, DEFAULT_CONCURRENCY, MAX_PASSES,
    MIN_BATCH_KEYS,
};

use std::sync::Arc;

use nrc::Expr;

/// Run the full optimization pipeline under `config` over a shared plan
/// handle, returning the rewritten plan and the trace of fired rules.
///
/// The pipeline is sharing-preserving end to end: when no rule fires in
/// any set, the returned handle is pointer-equal to the input, and in the
/// common case only the rewritten spine of the plan is freshly allocated.
pub fn optimize_shared(
    e: Arc<Expr>,
    catalog: &dyn SourceCatalog,
    config: &OptConfig,
) -> (Arc<Expr>, Vec<TraceEntry>) {
    let ctx = RuleCtx { catalog, config };
    let mut trace = Vec::new();
    let mut e = rules::resolve::rule_set().run(e, &ctx, &mut trace);
    // Pushdown runs twice: once on the freshly resolved form — vertical
    // fusion can merge a consumer loop into a pushable producer chain and
    // hide it from the SQL recognizer — and once after normalization,
    // which conversely exposes chains the sugar obscured.
    if config.enable_pushdown {
        e = rules::pushdown::rule_set().run(e, &ctx, &mut trace);
    }
    if config.enable_monadic {
        // Unit laws introduce lets that the resolve set then inlines,
        // which can expose further fusion; two rounds reach a fixpoint on
        // every query in the test suite.
        for _ in 0..2 {
            e = rules::monadic::rule_set().run(e, &ctx, &mut trace);
            e = rules::resolve::rule_set().run(e, &ctx, &mut trace);
        }
    }
    if config.enable_pushdown {
        e = rules::pushdown::rule_set().run(e, &ctx, &mut trace);
    }
    if config.enable_joins {
        e = rules::joins::rule_set().run(e, &ctx, &mut trace);
    }
    if config.enable_cache {
        e = rules::cache::rule_set().run(e, &ctx, &mut trace);
    }
    if config.enable_parallel {
        e = rules::parallel::rule_set().run(e, &ctx, &mut trace);
    }
    // Batching runs last: its marks on ParExt nodes are advisory for the
    // executor, and every substituting rewrite above drops stale marks.
    if config.enable_batching {
        e = rules::batch::rule_set().run(e, &ctx, &mut trace);
    }
    (e, trace)
}

/// Owned-value convenience over [`optimize_shared`]. `Expr` is a cheap
/// handle (its children are `Arc`s), so the wrapping costs one shallow
/// clone of the root node.
pub fn optimize(
    e: Expr,
    catalog: &dyn SourceCatalog,
    config: &OptConfig,
) -> (Expr, Vec<TraceEntry>) {
    let (out, trace) = optimize_shared(Arc::new(e), catalog, config);
    (Arc::try_unwrap(out).unwrap_or_else(|a| (*a).clone()), trace)
}
