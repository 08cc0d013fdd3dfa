//! # entrez-sim
//!
//! A simulation of NCBI's Entrez retrieval system over GenBank, the ASN.1
//! data source of the paper:
//!
//! * [`asn1`] — ASN.1 value notation (print/parse) for the complex-object
//!   model;
//! * [`query`] — the boolean index-query language ("boolean combinations
//!   of index-value pairs");
//! * [`path`] — path extraction (`Seq-entry.seq.id..giim`) applied during
//!   the parse, the driver-side pruning of Section 3;
//! * [`server`] — the `Source` with precomputed indexes, homology links
//!   (`NA-Links`), latency and traffic accounting.

pub mod asn1;
pub mod path;
pub mod query;
pub mod server;

pub use path::{Path, Step};
pub use query::BoolQuery;
pub use server::{Division, Entrez, EntrezServer, Entry, Link};
