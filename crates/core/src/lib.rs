//! # octopus-core
//!
//! The **Octopus** scheduler family from *Near-Optimal Multihop Scheduling in
//! General Circuit-Switched Networks* (Gupta, Curran & Zhan, CoNEXT 2020).
//!
//! Given a circuit fabric `G` (a general bipartite port graph with
//! reconfiguration delay `Δ`), a multi-hop traffic load `T` and a window of
//! `W` slots, Octopus greedily builds a sequence of configurations
//! `(M₁,α₁),(M₂,α₂),…` maximizing benefit per unit cost with respect to the
//! surrogate objective ψ (weighted packet-hops). The paper proves a
//! `(1 − e^{−1/𝒟})·W/(W+Δ)` approximation for ψ (Theorem 1); empirically the
//! schedules also deliver near-upper-bound throughput.
//!
//! One configurable code path covers the whole family:
//!
//! | paper variant | knob |
//! |---|---|
//! | Octopus | [`OctopusConfig::default`] (exact matchings, exhaustive α) |
//! | Octopus-B | [`AlphaSearch::Binary`] |
//! | Octopus-G | [`MatchingKind::BucketGreedy`] (or [`MatchingKind::GreedySort`]) |
//! | Octopus-e | `weighting:` [`HopWeighting::EpsilonLater`] |
//! | Octopus+ | [`octopus_plus`] (multi-route, backtracking) |
//! | Octopus-random | [`octopus_plus::octopus_random`] |
//! | K ports / node | [`kport::octopus_kport`] |
//! | bidirectional links | [`duplex::octopus_duplex`] |
//! | hybrid fabric | [`hybrid`] |
//! | makespan minimization | [`makespan`] |
//! | multi-hop-per-configuration benefit (§5, Thm 2) | [`multihop_config`] |
//!
//! ```
//! use octopus_core::{octopus, OctopusConfig};
//! use octopus_net::topology;
//! use octopus_traffic::{synthetic, synthetic::SyntheticConfig};
//! use octopus_sim::{resolve, SimConfig, Simulator};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let net = topology::complete(12);
//! let mut rng = StdRng::seed_from_u64(1);
//! let load = synthetic::generate(
//!     &SyntheticConfig::paper_default(12, 800), &net, &mut rng);
//!
//! let cfg = OctopusConfig { window: 800, delta: 5, ..OctopusConfig::default() };
//! let out = octopus(&net, &load, &cfg).unwrap();
//! assert!(out.schedule.total_cost(5) <= 800);
//!
//! // Evaluate with the slot-level simulator.
//! let sim = Simulator::new(Some(&net), resolve(&load).unwrap(),
//!     SimConfig { delta: 5, ..SimConfig::default() }).unwrap();
//! let report = sim.run(&out.schedule).unwrap();
//! assert!(report.delivered > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type, clippy::disallowed_types))]
#![warn(missing_docs)]

mod best_config;
mod error;
mod flatmap;
mod octopus;
mod state;

pub mod duplex;
pub mod engine;
pub mod hybrid;
pub mod kport;
pub mod local;
pub mod makespan;
pub mod memo;
pub mod multihop_config;
pub mod octopus_plus;
pub mod online;

pub use best_config::{
    best_configuration, AlphaSearch, BestChoice, ColumnKernel, ExactKernel, MatchingKind,
};
pub use engine::{
    BipartiteFabric, CandidateExtension, DuplexFabric, Fabric, KPortFabric, LocalFabric,
    ScheduleEngine, SearchPolicy, TrafficSource, WindowRun,
};
pub use error::{check_window, SchedError, MAX_WINDOW};
pub use memo::{plan_window_cached, CacheOutcome, CacheStats, ScheduleCache, WindowPlan};
pub use octopus::{octopus, OctopusConfig, OctopusOutput};
pub use octopus_traffic::HopWeighting;
pub use state::{FusedBounds, LinkQueueRef, LinkQueues, MultiAlphaEdges, RemainingTraffic};
