//! The daemon state machine: a persistent [`ScheduleEngine`] over
//! [`RemainingTraffic`], mutated event by event and re-planned on demand.
//!
//! Arrivals and cancellations go through the flat state layer's streaming
//! entry points ([`RemainingTraffic::admit_subflows_into`] /
//! [`RemainingTraffic::cancel_flow_into`]) under
//! [`ScheduleEngine::update_source`], which patches the engine's cached
//! queue snapshot on exactly the dirty links — the snapshot is *never*
//! rebuilt from scratch between re-plans, which is what keeps per-event
//! cost independent of the backlog size. Each finds the flow's rows with
//! one probe of the plan's flow-ID index, a std `HashMap` under its keyed
//! `RandomState` (clients choose flow IDs, so an unkeyed hash would let one
//! force collisions), and works on buffers the plan and the engine reuse:
//! an `Arrival` for a live `(id, route)` allocates only its parsed route
//! and its `Route`, and a `Cancel` nothing.

use crate::protocol::{Event, PlanConfig, Response, ServeStats};
use octopus_core::online::{check_hysteresis, hysteresis_replan, HysteresisStep};
use octopus_core::{
    plan_window_cached, BipartiteFabric, OctopusConfig, RemainingTraffic, SchedError,
    ScheduleCache, ScheduleEngine,
};
use octopus_net::{Matching, Network};
use octopus_traffic::{FlowId, Route};
use std::time::Instant;

/// Which policy a `Replan` event runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyMode {
    /// Quasi-static hysteresis: hold one incumbent matching across re-plans
    /// and reconfigure only when the best available matching beats the
    /// incumbent's value by a factor `1 + eta` — at most one Δ per horizon.
    Hysteresis,
    /// Full Octopus greedy: fill the horizon with a sequence of
    /// configurations (each worth its Δ), like one offline window.
    Octopus,
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The rolling horizon: slots planned per `Replan` event.
    pub horizon: u64,
    /// Reconfiguration delay Δ.
    pub delta: u64,
    /// Hysteresis factor (only read in [`PolicyMode::Hysteresis`]).
    pub eta: f64,
    /// The re-plan policy.
    pub policy: PolicyMode,
    /// α-search / matching-kernel / weighting knobs shared with the batch
    /// entry points (`window` is ignored; the horizon above rules).
    pub octopus: OctopusConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            horizon: 10_000,
            delta: 20,
            eta: 0.1,
            policy: PolicyMode::Hysteresis,
            octopus: OctopusConfig::default(),
        }
    }
}

/// A re-plan's outcome (the typed form of [`Response::Plan`]).
#[derive(Debug, Clone)]
pub struct PlanSummary {
    /// Configurations in serve order.
    pub configs: Vec<PlanConfig>,
    /// ψ gained.
    pub psi: f64,
    /// Packets newly planned to destination.
    pub delivered: u64,
    /// Whether the incumbent changed (hysteresis) / any config ran (greedy).
    pub reconfigured: bool,
    /// Wall-clock latency in microseconds.
    pub elapsed_us: u64,
}

/// The live daemon: fabric, policy knobs, persistent engine, counters.
#[derive(Debug)]
pub struct ServeState {
    net: Network,
    cfg: ServeConfig,
    engine: ScheduleEngine<RemainingTraffic>,
    incumbent: Option<Matching>,
    /// Exact-replay cache of [`PolicyMode::Octopus`] re-plans. Hysteresis
    /// re-plans are never cached: their outcome depends on the held
    /// incumbent, which the cache key does not cover.
    cache: ScheduleCache,
    stats: ServeStats,
}

impl ServeState {
    /// Creates a daemon over `net` with an empty backlog.
    ///
    /// # Errors
    /// [`SchedError::WindowTooSmall`] when the horizon cannot fit one
    /// configuration (`horizon ≤ delta`), [`SchedError::WindowTooLarge`]
    /// when it is longer than 2⁵³ slots, [`SchedError::InvalidEta`] when
    /// `eta` is negative or NaN.
    pub fn new(net: Network, cfg: ServeConfig) -> Result<Self, SchedError> {
        check_hysteresis(cfg.horizon, cfg.delta, cfg.eta)?;
        let tr = RemainingTraffic::from_subflows(std::iter::empty(), cfg.octopus.weighting);
        let n = net.num_nodes();
        let delta = cfg.delta;
        Ok(ServeState {
            net,
            cfg,
            engine: ScheduleEngine::new(tr, n, delta),
            incumbent: None,
            cache: ScheduleCache::new(),
            stats: ServeStats::default(),
        })
    }

    /// The schedule cache's lifetime counters.
    pub fn cache_stats(&self) -> octopus_core::CacheStats {
        self.cache.stats()
    }

    /// Packets still waiting (at sources or mid-route).
    pub fn backlog(&self) -> u64 {
        self.engine.source().remaining_packets()
    }

    /// Lifetime counters (refreshed from the plan state).
    pub fn stats(&self) -> ServeStats {
        let mut s = self.stats.clone();
        let tr = self.engine.source();
        s.delivered_packets = tr.planned_delivered();
        s.psi = tr.planned_psi();
        s.backlog = tr.remaining_packets();
        s.interned_links = tr.interned_links() as u64;
        let cs = self.cache.stats();
        s.cache_exact_hits = cs.exact_hits;
        s.cache_misses = cs.misses;
        s
    }

    /// Admits one arrival: validates the route against the fabric, streams
    /// the sub-flow into `T^r` (interning any unseen links mid-window), and
    /// patches the cached snapshot on the dirty links.
    ///
    /// # Errors
    /// Route construction/validation errors,
    /// [`SchedError::PacketCountOverflow`] when the admitted-packet counter
    /// or the plan's packet total would pass `u64::MAX`, or
    /// [`SchedError::PositionBeyondRoute`] from admission (not reachable
    /// here: arrivals enter at position 0 of a validated route). Nothing is
    /// admitted on error.
    pub fn admit(&mut self, id: u64, route_ids: &[u32], size: u64) -> Result<u64, SchedError> {
        let route = Route::from_ids(route_ids.iter().copied())?;
        self.net.validate_route(route.nodes())?;
        let admitted = self
            .stats
            .admitted_packets
            .checked_add(size)
            .ok_or(SchedError::PacketCountOverflow)?;
        let entry = [(FlowId(id), route, 0, size)];
        self.engine
            .update_source(|tr, dirty| tr.admit_subflows_into(entry, dirty))?;
        self.stats.admitted_packets = admitted;
        Ok(self.backlog())
    }

    /// Cancels every queued packet of `id`; returns the removed count.
    pub fn cancel(&mut self, id: u64) -> u64 {
        let removed = self
            .engine
            .update_source(|tr, dirty| tr.cancel_flow_into(FlowId(id), dirty));
        self.stats.cancelled_packets += removed;
        removed
    }

    /// Runs one re-plan over the rolling horizon under the configured
    /// policy and applies the chosen schedule to the plan state.
    ///
    /// # Errors
    /// [`SchedError::Net`] when a kernel output fails to realize as a
    /// matching (unreachable with the shipped kernels).
    pub fn replan(&mut self) -> Result<PlanSummary, SchedError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "times the re-plan for the reported `elapsed_us`; no decision reads it"
        )]
        let start = Instant::now();
        self.stats.replans += 1;
        let tr = self.engine.source();
        let psi_before = tr.planned_psi();
        let delivered_before = tr.planned_delivered();
        let configs = match self.cfg.policy {
            PolicyMode::Hysteresis => self.replan_hysteresis()?,
            PolicyMode::Octopus => self.replan_octopus()?,
        };
        let tr = self.engine.source();
        Ok(PlanSummary {
            reconfigured: !configs.is_empty(),
            configs,
            psi: tr.planned_psi() - psi_before,
            delivered: tr.planned_delivered() - delivered_before,
            elapsed_us: start.elapsed().as_micros() as u64,
        })
    }

    /// Hysteresis core: the shared keep/switch rule
    /// ([`octopus_core::online::hysteresis_replan`]) over the horizon, on
    /// the engine's incrementally patched snapshot. Reports the served
    /// configuration only when it is a switch.
    fn replan_hysteresis(&mut self) -> Result<Vec<PlanConfig>, SchedError> {
        let fabric = BipartiteFabric {
            kind: self.cfg.octopus.matching,
        };
        let served = hysteresis_replan(
            &mut self.engine,
            &fabric,
            &self.cfg.octopus.search_policy(),
            &mut self.incumbent,
            self.cfg.horizon,
            self.cfg.eta,
        )?;
        Ok(match served {
            Some(HysteresisStep {
                matching,
                alpha,
                switched: true,
                ..
            }) => vec![PlanConfig {
                links: matching.links().iter().map(|&(i, j)| (i.0, j.0)).collect(),
                alpha,
            }],
            _ => Vec::new(),
        })
    }

    /// Greedy core: one offline-style window over the horizon, routed
    /// through the schedule cache — a backlog the daemon has planned before
    /// replays its schedule without solving a single matching. The emitted
    /// schedule is the uncached re-plan's either way (see
    /// `octopus_core::memo`).
    fn replan_octopus(&mut self) -> Result<Vec<PlanConfig>, SchedError> {
        let mut fabric = BipartiteFabric {
            kind: self.cfg.octopus.matching,
        };
        let plan = plan_window_cached(
            &mut self.engine,
            &mut fabric,
            &self.cfg.octopus.search_policy(),
            self.cfg.horizon,
            &mut self.cache,
        )?;
        let configs = plan
            .configs
            .into_iter()
            .map(|(links, alpha)| PlanConfig { links, alpha })
            .collect();
        // A greedy re-plan abandons any held matching: the next hysteresis
        // re-plan (if the mode is switched) must not trust a stale incumbent.
        self.incumbent = None;
        Ok(configs)
    }

    /// Handles one protocol event. Returns the response and whether the
    /// session should end.
    pub fn handle(&mut self, event: Event) -> (Response, bool) {
        self.stats.events += 1;
        let reply = self.respond(event);
        // The counters never drift from the plan state: every admitted
        // packet is delivered by a plan, cancelled, or still queued.
        debug_assert!(
            {
                let tr = self.engine.source();
                u128::from(self.stats.admitted_packets)
                    == u128::from(tr.planned_delivered())
                        + u128::from(self.stats.cancelled_packets)
                        + u128::from(tr.remaining_packets())
            },
            "admitted != delivered + cancelled + backlog after {:?}",
            reply.0
        );
        reply
    }

    /// The response to one event, and whether the session should end.
    fn respond(&mut self, event: Event) -> (Response, bool) {
        match event {
            Event::Arrival { id, route, size } => match self.admit(id, &route, size) {
                Ok(backlog) => (Response::Admitted { id, backlog }, false),
                Err(e) => (
                    Response::Error {
                        message: e.to_string(),
                    },
                    false,
                ),
            },
            Event::Cancel { id } => {
                let removed = self.cancel(id);
                (
                    Response::Cancelled {
                        id,
                        removed,
                        backlog: self.backlog(),
                    },
                    false,
                )
            }
            Event::Replan => match self.replan() {
                Ok(plan) => (
                    Response::Plan {
                        configs: plan.configs,
                        psi: plan.psi,
                        delivered: plan.delivered,
                        backlog: self.backlog(),
                        reconfigured: plan.reconfigured,
                        elapsed_us: plan.elapsed_us,
                    },
                    false,
                ),
                Err(e) => (
                    Response::Error {
                        message: e.to_string(),
                    },
                    false,
                ),
            },
            Event::Stats => (
                Response::Stats {
                    stats: self.stats(),
                },
                false,
            ),
            Event::Shutdown => (
                Response::Bye {
                    events: self.stats.events,
                },
                true,
            ),
        }
    }
}
