//! # kleisli-core
//!
//! The shared foundation of this reproduction of Buneman, Davidson, Hart,
//! Overton & Wong, *A Data Transformation System for Biological Data
//! Sources* (VLDB 1995): the complex-object data model of CPL/Kleisli and
//! the abstractions every other crate builds on.
//!
//! * [`value`] — nested sets, bags, lists, records, variants, references,
//!   with a canonical total order.
//! * [`types`] — the CPL type system, including open record/variant types.
//! * [`remy`] — Rémy's directory+array record representation and the
//!   homogeneous-projection fast path (Section 4 of the paper).
//! * [`token`] — token streams and the textual exchange format used
//!   between the system and its drivers.
//! * [`mod@print`] — CPL-syntax, HTML, and tabular printers.
//! * [`block`] — columnar row batches ([`ValueBlock`]): the unit of
//!   transfer between drivers, the prefetch buffer, and the executor.
//! * [`driver`] — the driver trait, request language, capabilities,
//!   statistics, and traffic metrics.
//! * [`batch`] — batched multi-key wire round-trips and the per-key
//!   flights (keyed by request hash) their consumers attach to.
//! * [`remote`] — the one remote-driver shell: `Remote<S: Source>` owns
//!   the name, pool, gate, latency model and counters; a new source is
//!   one `Source` impl.
//! * [`pool`] — the shell's worker pool and the adaptive row-prefetch
//!   buffer (row-pipelined execution).
//! * [`executor`] — the shared session-level compute executor behind
//!   query workers and `ParExt` chunk evaluation.
//! * [`oneshot`] — the one-shot promise: the single blocking primitive
//!   behind every submit-now/redeem-later handle and every wait for
//!   another caller's result.
//! * [`flight`] — single flight: one cell holding a value or the attempt
//!   computing it; what every cache that must compute a thing once is a
//!   map of.
//! * [`resilience`] — request deadlines, bounded retry with backoff,
//!   hedged requests, and per-driver circuit breakers.
//! * [`latency`] — the simulated wide-area latency model and the EWMA
//!   round-trip estimator feeding the hedge delay.
//! * [`error`] — the shared error type.

// Every public item of the concurrency stack (and the data model under
// it) is contributor-facing API: keep it documented. ARCHITECTURE.md at
// the repo root links into these module docs.
#![warn(missing_docs)]

pub mod batch;
pub mod block;
pub mod driver;
pub mod error;
pub mod executor;
pub mod flight;
pub mod latency;
pub mod oneshot;
pub mod pool;
pub mod print;
pub mod remote;
pub mod remy;
pub mod resilience;
pub mod testutil;
pub mod token;
pub mod types;
pub mod value;

pub use batch::{request_key, BatchPolicy, BatchWindow, Flight, SharedReply};
pub use block::{blocks_of_rows, charged_blocks, BlockSource, BlockStream, ValueBlock, DEFAULT_BLOCK_ROWS};
pub use driver::{
    BatchCompletion, BatchReply, Capabilities, Driver, DriverMetrics, DriverRef, DriverRequest,
    GateTicket, MetricsSnapshot, RequestGate, RequestHandle, RequestStatus, TableStats,
};
pub use error::{KError, KResult};
pub use executor::Executor;
pub use flight::{Join, Lead, SingleFlight};
pub use latency::{LatencyModel, RttEstimator};
pub use oneshot::{OneShot, PromiseState, Pulsable, WaitFor};
pub use remote::{Remote, Source};
pub use remy::{CachedProjector, Directory, RemyRecord};
pub use resilience::{
    BreakerPolicy, BreakerState, CancelToken, CircuitBreaker, DriverResilience, HedgePolicy,
    ResiliencePolicy, ResilientHandle, RetryPolicy,
};
pub use token::{
    detokenize, read_exchange, tokenize, write_exchange, write_exchange_into, ExchangeSink, Token,
};
pub use types::Type;
pub use value::{CollKind, Oid, Value};
