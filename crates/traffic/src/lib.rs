//! # octopus-traffic
//!
//! Traffic-load modeling and workload generation for the Octopus multihop
//! circuit scheduler (CoNEXT 2020).
//!
//! A traffic load is a set of [`Flow`]s, each `(ID, size, source,
//! destination, routes)`: `size` packets to move from `source` to
//! `destination` along one of the candidate `routes` (node sequences whose
//! consecutive pairs are edges of the fabric). Packets inherit a **weight**
//! equal to the inverse of their route's hop count (§4 of the paper), so the
//! surrogate objective ψ — total *weighted* packet-hops — equals the number
//! of delivered packets whenever nothing is left stranded mid-route.
//!
//! Modules:
//!
//! * [`flow`](self) — [`Flow`], [`Route`], [`TrafficLoad`] and projections
//!   (demand matrix, the unordered one-hop load `T^one` used by the
//!   Eclipse-Based baseline and the UB upper bound).
//! * [`weight`] — packet weights, including the Octopus-e later-hop bonus.
//! * [`synthetic`] — the paper's §8 generator: sums of random permutation
//!   matrices with `n_L` large and `n_S` small flows per port, plus the
//!   skew/sparsity/route-length sweeps of Figs 4–5, 7(b) and 9(b).
//! * [`traces`] — trace-*like* generators standing in for the Facebook and
//!   Microsoft datasets of Fig 6 (see DESIGN.md §5 for the substitution
//!   rationale).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]
#![warn(missing_docs)]

mod flow;
pub mod synthetic;
pub mod traces;
pub mod weight;

pub use flow::{DemandMatrix, Flow, FlowId, Route, TrafficError, TrafficLoad};
pub use weight::{HopWeighting, Weight};
