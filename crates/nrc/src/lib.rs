//! # nrc — the Nested Relational Calculus
//!
//! The intermediate language of the Kleisli reproduction. CPL queries are
//! desugared into NRC (see the `cpl` crate), the optimizer rewrites NRC
//! terms (see `kleisli-opt`), and the executors interpret them (see
//! `kleisli-exec`).
//!
//! * [`expr`] — the term language, including the physical operators
//!   introduced by optimization, plus substitution and traversals.
//! * [`hash`] — deterministic structural hashing ([`plan_hash`]) and the
//!   hash-consing [`Interner`] that collapses identical subplans onto one
//!   shared `Arc`.
//! * [`prim`] — primitive functions (arithmetic, strings, aggregates).
//! * [`typing`] — gradual static typing over the CPL type system.
//! * [`pretty`] — the `U{ e | \x <- e' }` notation used in explain output.

pub mod expr;
pub mod hash;
pub mod pretty;
pub mod prim;
pub mod typing;

pub use expr::{fresh, name, BatchSpec, CaseArm, Expr, LoopStrategy, Name};
pub use hash::{plan_hash, Interner};
pub use prim::Prim;
pub use typing::{infer, TypeEnv};
