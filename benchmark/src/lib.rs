//! kbench: the repo's one end-to-end benchmark. See `README.md` beside
//! this crate for the metric definitions and `BENCHMARK.json` at the
//! repo root for the contract the driver checks.

pub mod check;
pub mod json;
pub mod procfs;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
