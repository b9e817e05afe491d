//! # `ule` — universal leader election, reproduced
//!
//! Umbrella crate for the workspace reproducing *Kutten, Pandurangan,
//! Peleg, Robinson, Trehan: "On the Complexity of Universal Leader
//! Election"* (PODC 2013 / JACM 2015). It re-exports the member crates so
//! downstream code (and the workspace-level `tests/` and `examples/`) can
//! reach everything through one dependency.
//!
//! * [`ule_graph`] — graphs, generators, ID spaces, structural analysis.
//! * [`ule_sim`] — the synchronous CONGEST/LOCAL round engine.
//! * [`ule_core`] — the paper's algorithms (Table 1, Corollary 4.2's
//!   spanner election included) and the registry.
//! * [`ule_lowerbound`] — the message/time lower-bound experiments.
#![warn(missing_docs)]

pub use ule_core;
pub use ule_graph;
pub use ule_lowerbound;
pub use ule_sim;
