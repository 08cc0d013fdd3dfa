//! # sybase-sim
//!
//! An in-memory relational engine standing in for the remote Sybase server
//! that hosted GDB (the Genome Data Base at Johns Hopkins) in the paper.
//!
//! What the optimization experiments need from "Sybase" is preserved:
//! * a conjunctive **SQL subset** ([`sql`]) sufficient for every query the
//!   paper ships (selections, projections, multi-table equi/θ-joins);
//! * **precomputed indexes** and **table statistics** ([`storage`]) that
//!   pushdown exploits;
//! * a network boundary that counts requests/rows/bytes and charges a
//!   configurable latency ([`server`]).

pub mod server;
pub mod sql;
pub mod storage;

pub use server::{execute_query, Sybase, SybaseServer};
pub use sql::{parse, Query};
pub use storage::{Database, Datum, Table};
