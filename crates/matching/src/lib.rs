//! # octopus-matching
//!
//! Matching-algorithm substrate for the Octopus multihop circuit scheduler
//! (CoNEXT 2020). Every scheduler iteration reduces "pick the best
//! configuration for a given α" to a **maximum-weight bipartite matching** on
//! the network graph with `g(i,j,α)` edge weights; the practical variants of
//! the paper swap in cheaper approximate matchings. This crate implements all
//! of those kernels from scratch, on plain index graphs so it has no
//! dependencies:
//!
//! * [`maximum_weight_matching`] — exact max-weight bipartite matching on a
//!   sparse graph via successive shortest augmenting paths with Johnson
//!   potentials (the role Google OR-tools' linear assignment plays in the
//!   paper's experiments).
//! * [`AssignmentSolver`] — the same exact kernel as a reusable workspace:
//!   the CSR topology, potentials and Dijkstra scratch persist across solves,
//!   and `solve_reweighted` re-solves a fixed topology under a new weight
//!   column without allocating (the α-search hot path). It is the one exact
//!   assignment kernel; EXPERIMENTS.md, "Auction kernel verdict", says why.
//! * [`greedy::greedy_matching`] — the classic sort-by-weight greedy,
//!   a ½-approximation (Avis 1983), used by **Octopus-G**.
//! * [`greedy::bucket_greedy_matching`] — the same greedy in linear time via
//!   counting sort, exploiting the paper's observation that edge weights are
//!   integral and bounded (§8 "Execution Time").
//! * [`general::greedy_general_matching`] — greedy matching on *general*
//!   (non-bipartite) graphs for the §7 bidirectional-link generalization.
//! * [`hopcroft_karp`] — maximum-cardinality bipartite matching, which the
//!   Solstice baseline uses to find a perfect matching among the entries
//!   above each threshold.
//! * [`brute`] — exponential-time exact reference implementations used by the
//!   property-test suites of downstream crates.
//!
//! Graphs are described by [`WeightedBipartiteGraph`]; matchings are returned
//! as sorted `(left, right)` index pairs.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type, clippy::disallowed_types))]
#![warn(missing_docs)]

pub mod blossom;
pub mod brute;
pub mod general;
pub mod greedy;
pub mod hopcroft_karp;

mod bipartite;
mod graph;
mod solver;

pub use bipartite::maximum_weight_matching;
pub use graph::{Edge, WeightedBipartiteGraph};
pub use solver::AssignmentSolver;

/// Total weight of a matching (list of `(left, right)` pairs) in `g`.
///
/// Pairs that are not edges of `g` contribute zero.
pub fn matching_weight(g: &WeightedBipartiteGraph, matching: &[(u32, u32)]) -> f64 {
    matching.iter().map(|&(u, v)| g.weight(u, v)).sum()
}
