//! # octopus-mhs — facade crate
//!
//! One-stop re-export of the Octopus multihop circuit-scheduling workspace
//! (reproduction of Gupta, Curran & Zhan, *Near-Optimal Multihop Scheduling
//! in General Circuit-Switched Networks*, CoNEXT 2020).
//!
//! The implementation lives in focused sub-crates; depend on this crate to
//! get all of them under stable module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`net`] | `octopus-net` | fabric graphs, matchings, configurations, schedules |
//! | [`matching`] | `octopus-matching` | exact & approximate matching kernels |
//! | [`traffic`] | `octopus-traffic` | flows, routes, weights, workload generators |
//! | [`sim`] | `octopus-sim` | slot-level packet simulator & metrics |
//! | [`core`] | `octopus-core` | the Octopus scheduler family |
//! | [`baselines`] | `octopus-baselines` | Eclipse, Eclipse-Based, UB, RotorNet |
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]

pub use octopus_baselines as baselines;
pub use octopus_core as core;
pub use octopus_matching as matching;
pub use octopus_net as net;
pub use octopus_sim as sim;
pub use octopus_traffic as traffic;
