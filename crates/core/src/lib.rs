//! # `ule-core` — universal leader election algorithms
//!
//! The primary contribution of *Kutten, Pandurangan, Peleg, Robinson,
//! Trehan: "On the Complexity of Universal Leader Election"* (PODC 2013 /
//! JACM 2015), implemented as distributed protocols over
//! [`ule_sim`]'s synchronous CONGEST simulator:
//!
//! | Module | Paper result | Time | Messages | Knowledge |
//! |---|---|---|---|---|
//! | [`least_el`] | Thm 4.4 (+A, B) | `O(D)` | `O(m·min(log f(n), D))` | `n` |
//! | [`size_estimate`] | Cor 4.5 | `O(D)` | `O(m·min(log n, D))` whp | — |
//! | [`las_vegas`] | Cor 4.6 | exp. `O(D)` | exp. `O(m)` | `n, D` |
//! | [`clustering`] | Thm 4.7 / Alg 1 | `O(D log n)` whp | `O(m + n log n)` whp | `n` |
//! | [`dfs_agent`] | Thm 4.1 | unbounded | `O(m)` | — |
//! | [`kingdom`] | Thm 4.10 / Alg 2 | `O(D log n)` | `O(m log n)` | (`D` variant) |
//! | [`spanner`] | Cor 4.2 | `O(D)` whp | `O(m)` whp if `m > n^{1+ε}` | `n` |
//! | [`baseline`] | FloodMax; \[20\]-style `tole`; §1 coin flip | `O(D)` / `O(D)` / 1 | `O(mD)` / `O(m·min(n,D))` / 0 | `D` / — / `n` |
//! | [`broadcast`] | Cor 3.12 workload | `O(D)` | `Θ(m)` | — |
//! | [`explicit`] | explicit variant (footnote 1) | `+O(D)` | `+O(m)` | `n` |
//!
//! The lower-bound experiment harnesses live in `ule-lowerbound`.
//!
//! The modules export protocols and their constructors; the [`registry`]
//! is the one runner: [`Algorithm::run_on`] pairs every Table 1 row with
//! a [`ule_sim::Runner`], and [`Algorithm::config`] is the one rule for
//! the [`ule_sim::SimConfig`] it needs. Parameterised variants go through
//! a `Runner` and the protocol's public constructor.
//!
//! ## Quick start
//!
//! ```
//! use ule_core::Algorithm;
//! use ule_graph::gen;
//!
//! let g = gen::hypercube(5)?;
//! let out = Algorithm::LeastElWhp.run(&g, 42);
//! assert!(out.election_succeeded());
//! println!("leader {:?} in {} rounds, {} messages",
//!          out.leader(), out.rounds, out.messages);
//! # Ok::<(), ule_graph::GraphError>(())
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod broadcast;
pub mod clustering;
pub mod dfs_agent;
pub mod explicit;
pub mod kingdom;
pub mod las_vegas;
pub mod least_el;
pub mod registry;
pub mod size_estimate;
pub mod spanner;
pub mod wave;

pub use registry::{Algorithm, AlgorithmSpec};
