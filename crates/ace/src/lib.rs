//! # ace-sim
//!
//! A simulation of ACEDB, the tree-structured object database the paper
//! names as "an extremely popular data format within the HGP". ACE brings
//! the two features Section 2 singles out: **classes** and **object
//! identity**. CPL dereferences and pattern-matches references but never
//! creates or updates them; bulk creation happens through the `.ace` text
//! format, which the paper notes can be generated with CPL's printing
//! machinery ("bulk load").
//!
//! * [`store`] — classes, named objects with OIDs, tag-value trees.
//! * [`mod@format`] — the `.ace` bulk-load text format (parse and print).
//! * [`server`] — the ACE `Source` for `[class = ..., name = ...]`
//!   requests.

pub mod format;
pub mod server;
pub mod store;

pub use format::{parse_ace, print_ace};
pub use server::{Ace, AceServer};
pub use store::AceStore;
