//! # octopus-net
//!
//! Network-fabric model for circuit-switched data-center networks, as used by
//! the Octopus multihop scheduler (Gupta, Curran & Zhan, *Near-Optimal
//! Multihop Scheduling in General Circuit-Switched Networks*, CoNEXT 2020).
//!
//! A circuit-switched fabric over `n` nodes is modeled as a **general (not
//! necessarily complete) bipartite graph** between the nodes' output ports and
//! input ports: a directed edge `(i, j)` means the output port of node `i`
//! can be connected to the input port of node `j`. At any instant only a set
//! of links forming a **matching** may be active (each input/output port has
//! at most one active connection), and changing the active set incurs a
//! *reconfiguration delay* of `Δ` time slots.
//!
//! The crate provides:
//!
//! * [`NodeId`] — a lightweight node identifier.
//! * [`Network`] — the directed bipartite port graph, with O(1) edge queries.
//! * [`Matching`] — a validated set of simultaneously-active links.
//! * [`Configuration`] — a matching held for `α` slots, and [`Schedule`] — a
//!   sequence of configurations, the output of every scheduler in the
//!   workspace.
//! * [`topology`] — constructors for common fabrics (complete, random
//!   regular, rings, …).
//! * [`duplex`] — the §7 generalization to bidirectional (full-duplex) links,
//!   modeled as a general undirected graph.
//!
//! ## Example
//!
//! ```
//! use octopus_net::{Network, Matching, Configuration, Schedule, NodeId};
//!
//! // A 4-node fabric with a ring of unidirectional links.
//! let net = Network::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
//! assert!(net.has_edge(NodeId(0), NodeId(1)));
//! assert!(!net.has_edge(NodeId(0), NodeId(2)));
//!
//! // Activate two non-conflicting links for 50 slots.
//! let m = Matching::new(&net, [(0, 1), (2, 3)]).unwrap();
//! let schedule = Schedule::from(vec![Configuration::new(m, 50)]);
//! assert_eq!(schedule.total_cost(20), 70); // α + Δ
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type, clippy::disallowed_types))]
#![warn(missing_docs)]

pub mod analysis;
mod config;
pub mod duplex;
mod error;
mod graph;
mod matching;
mod node;
pub mod topology;

pub use config::{Configuration, Schedule};
pub use error::NetError;
pub use graph::Network;
pub use matching::{Link, Matching};
pub use node::NodeId;
