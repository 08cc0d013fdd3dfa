//! # kleisli-server
//!
//! Kleisli as a *service*: the paper casts the system as a mediator
//! many users query at once, and this crate is that deployment shape —
//! a `kleislid` daemon accepting CPL over length-prefixed TCP
//! ([`proto`]), multiplexing concurrent client connections onto the
//! process-wide compute executor, with **process-wide shared caches**:
//! one compiled-plan cache ([`kleisli::PlanCache`]) and one
//! memory-budgeted single-flight result cache
//! ([`kleisli_exec::ResultCache`], keyed by
//! [`kleisli::Compiled::plan_hash`], retaining a result from its second
//! ask on), so the thousandth user asking the paper's GenBank question
//! costs a cache hit, not a compile and a federation round-trip, while a
//! question nobody repeats costs the cache nothing.
//!
//! * [`serve`] / [`serve_ephemeral`] start a server around a *registrar*
//!   closure that prepares each connection's [`kleisli::Session`];
//! * [`Client`] is the blocking client the bench harness and tests use;
//! * [`proto`] documents the wire format.
//!
//! See `ARCHITECTURE.md` §9 for the protocol and admission-control
//! design; `examples/server_roundtrip.rs` for an end-to-end tour; and
//! kbench (`benchmark/`, workloads `doe_cold` and `warm_hits`) for the
//! cold and warm latency numbers.

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, QueryReply};
pub use proto::{Request, Response, ServedFrom, MAX_FRAME_LEN};
pub use server::{
    serve, serve_ephemeral, DrainReport, Registrar, ServerConfig, ServerHandle, DRAIN_DEADLINE,
};
