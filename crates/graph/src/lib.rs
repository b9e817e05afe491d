//! # `ule-graph` — graph substrate for universal leader election
//!
//! This crate provides the network-topology layer of the `ule` project, a
//! reproduction of *Kutten, Pandurangan, Peleg, Robinson, Trehan: "On the
//! Complexity of Universal Leader Election"* (PODC 2013 / JACM 2015):
//!
//! * [`Graph`] — undirected simple graphs with explicit **port numbering**
//!   (the model of the paper's Section 2: a node sees ports, not neighbour
//!   identities) and precomputed reverse ports for message delivery;
//! * [`IdAssignment`] / [`IdSpace`] — adversarial identifier assignments
//!   from `Z = [1, n^4]`, kept separate from topology;
//! * [`gen`] — the standard families swept by the experiments (rings,
//!   stars, cliques, grids, tori, hypercubes, expanders, random graphs…);
//! * [`dumbbell`] — the Theorem 3.1 message-lower-bound construction,
//!   including the fixed-diameter `K_κ`+path base graph;
//! * [`clique_cycle`] — the Theorem 3.13 / Figure 1 time-lower-bound
//!   construction;
//! * [`analysis`] — BFS, diameters, and statistics for harness bookkeeping.
//!
//! ## Example
//!
//! ```
//! use ule_graph::{gen, analysis, IdSpace};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let g = gen::random_connected(64, 200, &mut rng)?;
//! let ids = IdSpace::standard(g.len()).sample(g.len(), &mut rng);
//! assert!(g.is_connected());
//! assert!(analysis::diameter_exact(&g).unwrap() >= 2);
//! assert_eq!(ids.len(), g.len());
//! # Ok::<(), ule_graph::GraphError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod clique_cycle;
pub mod dumbbell;
pub mod gen;
mod graph;
mod ids;
pub mod topo;

pub use graph::{Graph, GraphError, NodeId, Port};
pub use ids::{Id, IdAssignment, IdSpace};
pub use topo::{ImplicitTopology, Topology};
