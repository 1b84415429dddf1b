//! # octopus-baselines
//!
//! The comparison points of the Octopus paper's evaluation (§8):
//!
//! * [`one_hop`] — a faithful re-implementation of **Eclipse**
//!   (Venkatakrishnan et al., SIGMETRICS 2016): the greedy one-hop
//!   circuit scheduler that Octopus generalizes. Exposed as a generic
//!   weighted one-hop scheduler so both the Eclipse-Based baseline and the
//!   UB upper bound share one engine.
//! * [`eclipse`] — the **Eclipse-Based** baseline: project the multi-hop
//!   load onto its unordered one-hop demands `T^one`, schedule those with
//!   Eclipse, then route the *real* multi-hop traffic over the resulting
//!   configuration sequence (the role Eclipse++ plays in the paper; routing
//!   happens in `octopus-sim`, with the same VOQ priority rule used
//!   everywhere; [`eclipse_pp`] additionally offers an offline
//!   earliest-feasible planner over the fixed schedule — the literal
//!   Eclipse++ role).
//! * [`ub`] — the **UB** upper bound: Eclipse over `T^one` with ψ-weights,
//!   counting a packet as delivered only once *all* of its hops have been
//!   served (in any order), plus the *absolute* hop-capacity bound.
//! * [`rotornet`] — the traffic-agnostic **RotorNet** schedule (Mellette et
//!   al., SIGCOMM 2017): round-robin through a fixed family of matchings
//!   covering the complete fabric, each held for a fixed duration.
//! * [`solstice`](mod@solstice) — the **Solstice** hybrid scheduler (Liu et al., CoNEXT
//!   2015): stuffing + threshold-scanned perfect matchings, the historical
//!   one-hop ancestor the paper cites in §2.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod eclipse;
pub mod eclipse_pp;
pub mod one_hop;
pub mod rotornet;
pub mod solstice;
pub mod ub;

pub use eclipse::{eclipse_based_schedule, eclipse_schedule};
pub use eclipse_pp::{route_over_schedule, RoutingReport};
pub use one_hop::{one_hop_schedule, OneHopDemand, OneHopOutput};
pub use rotornet::rotornet_schedule;
pub use solstice::{solstice, SolsticeOutput};
pub use ub::{absolute_upper_bound, ub_evaluate, UbReport};
