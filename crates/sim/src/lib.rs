//! # octopus-sim
//!
//! Slot-level packet simulator for circuit-switched fabrics — the
//! measurement backbone of every experiment in the Octopus reproduction.
//!
//! The model follows §8 of the paper: time is divided into slots; during a
//! configuration `(M, α)`, each active link of `M` transmits **one packet per
//! slot**, chosen from the head of the transmitting node's virtual output
//! queue (VOQ) for that link; reconfigurations silence the whole fabric for
//! `Δ` slots. Packets are prioritized *first by weight, then by flow ID* —
//! the paper's fixed rule that makes packet routing through a given schedule
//! fully deterministic.
//!
//! A packet that reaches an intermediate node can depart on a later slot of
//! the **same** configuration once it has crossed the node's switching fabric
//! (§5 "Traversing Multiple Hops in a Configuration"); the switch latency is
//! configurable, and [`ForwardingMode::NextConfigOnly`] restores the
//! one-hop-per-configuration abstraction of §4 when desired.
//!
//! The simulator consumes *resolved* flows — each a `(flow, size, route)`
//! triple with one concrete route. Single-route loads convert directly
//! ([`resolve`]); Octopus+ resolves its own route choices before evaluation.
//!
//! ## Example
//!
//! ```
//! use octopus_net::{topology, Matching, Configuration, Schedule};
//! use octopus_traffic::{Flow, FlowId, Route, TrafficLoad};
//! use octopus_sim::{resolve, SimConfig, Simulator};
//!
//! let net = topology::complete(3);
//! let load = TrafficLoad::new(vec![Flow::single(
//!     FlowId(1), 40, Route::from_ids([0, 1]).unwrap(),
//! )]).unwrap();
//! let schedule = Schedule::from(vec![Configuration::new(
//!     Matching::new(&net, [(0u32, 1u32)]).unwrap(), 40,
//! )]);
//!
//! let mut sim = Simulator::new(Some(&net), resolve(&load).unwrap(), SimConfig::default()).unwrap();
//! let report = sim.run(&schedule).unwrap();
//! assert_eq!(report.delivered, 40);
//! assert_eq!(report.delivered_fraction(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]
#![warn(missing_docs)]

mod engine;
mod report;

pub use engine::{
    resolve, ForwardingMode, ReconfigModel, ResolvedFlow, SimConfig, SimError, Simulator,
};
pub use report::SimReport;
