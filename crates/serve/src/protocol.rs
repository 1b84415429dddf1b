//! The wire protocol of the streaming scheduler daemon.
//!
//! # Framing
//!
//! Newline-delimited JSON (NDJSON): each line is one externally-tagged
//! [`Event`] from the client, answered by exactly one [`Response`] line from
//! the daemon, in order. The same framing runs over stdin/stdout and TCP;
//! there is no pipelining window — the daemon reads, handles, answers, then
//! reads again, so a slow re-plan back-pressures the client through the
//! socket buffer rather than through an unbounded internal queue.
//!
//! # Event types
//!
//! ```json
//! {"Arrival":{"id":7,"route":[0,1,2],"size":100}}
//! {"Cancel":{"id":7}}
//! "Replan"
//! "Stats"
//! "Shutdown"
//! ```
//!
//! Unit events serialize as bare strings (externally-tagged serde form).
//! An `Arrival` whose `(id, route)` pair is already live tops up that flow's
//! queue at its source; distinct routes under one id are tracked separately.

use serde::{Deserialize, Serialize};

/// One client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A flow arrives: `size` packets to route along `route` (node ids).
    Arrival {
        /// Flow identifier (caller-chosen; reuse tops up the same flow).
        id: u64,
        /// The node sequence the packets must traverse.
        route: Vec<u32>,
        /// Packets to admit at the route's source.
        size: u64,
    },
    /// Cancel every still-queued packet of flow `id`.
    Cancel {
        /// Flow identifier given at arrival.
        id: u64,
    },
    /// Re-plan the rolling horizon now and emit the chosen schedule.
    Replan,
    /// Report lifetime counters.
    Stats,
    /// Close the session (the daemon answers [`Response::Bye`] and, in TCP
    /// mode, returns to accepting connections).
    Shutdown,
}

/// One configuration of an emitted plan: the matched links and how many
/// slots they serve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanConfig {
    /// The directed links of the matching.
    pub links: Vec<(u32, u32)>,
    /// Slots served before the next reconfiguration.
    pub alpha: u64,
}

/// Lifetime counters of one daemon session.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Events handled (including this `Stats`).
    pub events: u64,
    /// Re-plans run.
    pub replans: u64,
    /// Packets admitted over all arrivals.
    pub admitted_packets: u64,
    /// Packets removed by cancellations.
    pub cancelled_packets: u64,
    /// Packets planned to destination so far.
    pub delivered_packets: u64,
    /// Weighted packet-hops ψ accumulated by the plan.
    pub psi: f64,
    /// Packets still waiting (at sources or mid-route).
    pub backlog: u64,
    /// Links interned into the flat state layer so far (grows on admission).
    pub interned_links: u64,
    /// Octopus re-plans replayed outright from the schedule cache.
    #[serde(default)]
    pub cache_exact_hits: u64,
    /// Octopus re-plans solved cold (no cached window under their key).
    #[serde(default)]
    pub cache_misses: u64,
}

/// One daemon reply; every request gets exactly one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The arrival was admitted into `T^r`.
    Admitted {
        /// Echo of the flow id.
        id: u64,
        /// Packets now waiting after the admission.
        backlog: u64,
    },
    /// The cancellation was applied.
    Cancelled {
        /// Echo of the flow id.
        id: u64,
        /// Packets removed from the plan.
        removed: u64,
        /// Packets still waiting after the cancellation.
        backlog: u64,
    },
    /// The schedule chosen by a re-plan.
    Plan {
        /// The configurations, in serve order (empty when nothing can move).
        configs: Vec<PlanConfig>,
        /// ψ gained by this plan.
        psi: f64,
        /// Packets newly planned to destination.
        delivered: u64,
        /// Packets still waiting after the plan.
        backlog: u64,
        /// Whether the incumbent configuration changed (hysteresis mode
        /// pays Δ only when this is `true`).
        reconfigured: bool,
        /// Wall-clock re-plan latency in microseconds.
        elapsed_us: u64,
    },
    /// Lifetime counters.
    Stats {
        /// The counters snapshot.
        stats: ServeStats,
    },
    /// The request could not be applied; the plan state is unchanged.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Session end acknowledgement.
    Bye {
        /// Events handled over the session.
        events: u64,
    },
}
