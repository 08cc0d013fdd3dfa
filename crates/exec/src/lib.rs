//! # kleisli-exec
//!
//! Query execution for the Kleisli reproduction:
//!
//! * [`stream`] — the block evaluator, the one evaluator of
//!   collection-typed NRC: generators, unions, the join operator of
//!   Section 4 (blocked or indexed nested loop), remote scans, subquery
//!   caching and bounded-concurrency parallel retrieval as pull-based
//!   block operators. `first_n` stops after a prefix without
//!   materializing the result — the paper's strategic laziness.
//! * [`mod@eval`] — the value evaluator (scalars, records, functions,
//!   control flow, primitives); a collection form it meets is drained
//!   through [`stream`], so there is one meaning per plan.
//! * [`context`] — the driver registry, object store, and subquery cache.
//! * [`result_cache`] — the process-wide memory-accounted single-flight
//!   result cache shared by multi-session deployments (`kleislid`).
//! * [`mod@env`] — runtime environments and closures.

pub mod context;
pub mod env;
pub mod eval;
pub mod prims;
#[doc(hidden)]
pub mod reference;
pub mod result_cache;
pub mod stream;

pub use context::{request_from_value, Context, ObjectStore};
pub use env::{Env, Rt};
pub use eval::{eval, eval_rt};
pub use result_cache::{
    ResultCache, ResultCacheStats, ResultLookup, ResultTicket, DEFAULT_RESULT_CACHE_BUDGET,
};
pub use stream::{
    collect_blocks, collect_stream, eval_blocks, eval_blocks_to_end, eval_stream, first_n,
    RowStream,
};
