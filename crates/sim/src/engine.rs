use crate::SimReport;
use octopus_net::{Network, NodeId, Schedule};
use octopus_traffic::{FlowId, HopWeighting, Route, TrafficLoad, Weight};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// When a packet that arrived at an intermediate node becomes eligible for
/// its next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForwardingMode {
    /// The packet can continue within the **same** configuration after
    /// `switch_latency` slots (§5; switch latency is "at most 1–2 time
    /// slots"). Latencies below 1 are clamped to 1: a packet cannot traverse
    /// two hops in a single slot.
    WithinConfig {
        /// Slots needed to cross an intermediate node's switching fabric.
        switch_latency: u64,
    },
    /// The §4 abstraction: a packet traverses at most one hop per
    /// configuration; forwarding resumes at the next configuration.
    NextConfigOnly,
}

impl Default for ForwardingMode {
    fn default() -> Self {
        ForwardingMode::WithinConfig { switch_latency: 1 }
    }
}

/// What happens during the Δ reconfiguration slots between configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ReconfigModel {
    /// The paper's base model: the whole fabric is silent for Δ slots
    /// ("the circuit network must be reconfigured completely").
    #[default]
    Global,
    /// FSO-style **localized** reconfiguration (the paper's future-work
    /// direction, footnote 1 / §9): links present in both the outgoing and
    /// the incoming matching keep carrying traffic while the changed links
    /// retrain for Δ slots.
    Localized,
}

/// Simulator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Reconfiguration delay Δ in slots.
    pub delta: u64,
    /// Global (full-fabric silence) or localized reconfiguration.
    pub reconfig: ReconfigModel,
    /// Forwarding semantics at intermediate nodes.
    pub forwarding: ForwardingMode,
    /// Priority weighting (the paper's `1/k` by default; Octopus-e boosts
    /// later hops).
    pub weighting: HopWeighting,
    /// If set, running a schedule whose total cost exceeds this window is an
    /// error (schedulers are expected to truncate themselves).
    pub window: Option<u64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            delta: 20,
            reconfig: ReconfigModel::default(),
            forwarding: ForwardingMode::default(),
            weighting: HopWeighting::Uniform,
            window: None,
        }
    }
}

/// A flow resolved to one concrete route — the simulator's input unit.
///
/// Several resolved flows may share a [`FlowId`] (Octopus+ splits a flow's
/// packets across route choices); the ID is what packet prioritization uses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolvedFlow {
    /// Flow identity (priority tie-breaker).
    pub flow: FlowId,
    /// Number of packets.
    pub size: u64,
    /// The one route these packets follow.
    pub route: Route,
}

/// Converts a single-route [`TrafficLoad`] into resolved flows.
///
/// # Errors
/// Fails with [`SimError::MultiRouteFlow`] if any flow still has several
/// candidate routes — resolve those with a scheduler (Octopus+) or pick one.
pub fn resolve(load: &TrafficLoad) -> Result<Vec<ResolvedFlow>, SimError> {
    load.flows()
        .iter()
        .map(|f| {
            if f.routes.len() != 1 {
                return Err(SimError::MultiRouteFlow(f.id));
            }
            Ok(ResolvedFlow {
                flow: f.id,
                size: f.size,
                route: f.routes[0].clone(),
            })
        })
        .collect()
}

/// Simulation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A flow has several candidate routes; the simulator needs exactly one.
    MultiRouteFlow(FlowId),
    /// A resolved route uses a link absent from the provided network.
    RouteNotInNetwork(FlowId),
    /// A schedule matching uses a link absent from the provided network.
    ScheduleNotInNetwork,
    /// The schedule exceeds the configured window.
    WindowExceeded {
        /// Total schedule cost `Σ(α+Δ)`.
        cost: u64,
        /// The configured window.
        window: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MultiRouteFlow(id) => {
                write!(f, "flow {id} has multiple routes; resolve it first")
            }
            SimError::RouteNotInNetwork(id) => {
                write!(f, "route of flow {id} uses a link absent from the fabric")
            }
            SimError::ScheduleNotInNetwork => {
                write!(f, "schedule activates a link absent from the fabric")
            }
            SimError::WindowExceeded { cost, window } => {
                write!(f, "schedule cost {cost} exceeds window {window}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The slot-level simulator. Construct once, [`Simulator::run`] any number of
/// schedules against the same load (each run starts from fresh queues).
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: SimConfig,
    flows: Vec<ResolvedFlow>,
    failed_links: std::collections::HashSet<(NodeId, NodeId)>,
}

impl Simulator {
    /// Builds a simulator for the given resolved load.
    ///
    /// When `net` is provided, every route is validated against it.
    pub fn new(
        net: Option<&Network>,
        flows: Vec<ResolvedFlow>,
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        if let Some(net) = net {
            for f in &flows {
                if net.validate_route(f.route.nodes()).is_err() {
                    return Err(SimError::RouteNotInNetwork(f.flow));
                }
            }
        }
        Ok(Simulator {
            cfg,
            flows,
            failed_links: std::collections::HashSet::new(),
        })
    }

    /// Fault injection: marks circuit links as failed. A failed link can
    /// still be scheduled (the controller does not know), and its slots
    /// still count as offered — it just carries nothing, exactly like a
    /// mis-aligned FSO terminal or a dead cross-connect.
    pub fn with_failed_links<I, E>(mut self, links: I) -> Self
    where
        I: IntoIterator<Item = E>,
        E: Into<(u32, u32)>,
    {
        self.failed_links = links
            .into_iter()
            .map(|e| {
                let (i, j) = e.into();
                (NodeId(i), NodeId(j))
            })
            .collect();
        self
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The resolved load.
    pub fn flows(&self) -> &[ResolvedFlow] {
        &self.flows
    }

    /// Runs `schedule` against the load and reports the outcome.
    pub fn run(&self, schedule: &Schedule) -> Result<SimReport, SimError> {
        if let Some(window) = self.cfg.window {
            let cost = schedule.total_cost(self.cfg.delta);
            if cost > window {
                return Err(SimError::WindowExceeded { cost, window });
            }
        }
        let mut engine = Engine::new(&self.cfg, &self.flows, &[]);
        engine.run(schedule, &self.failed_links);
        Ok(engine.into_report(&self.flows))
    }
}

/// What holding one link set did to a group of sub-flows ([`hold_links`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Held {
    /// Weighted packet-hops served (the ψ the hold gains), added once per
    /// packet in service order: slot by slot, each slot's links in the
    /// caller's order.
    pub psi: f64,
    /// `counts[k][p]`: packets of sub-flow `k` at route position `p` when
    /// the hold ends (`p == hops` means delivered); a packet still crossing
    /// a switch counts at the node it is crossing.
    pub counts: Vec<Vec<u64>>,
}

/// Holds `links` for `alpha` slots against sub-flows already part-way along
/// their routes: the `size` packets of `flows[k]` wait at route position
/// `start[k]` (position 0 where `start` has no entry). There is no Δ before
/// the hold, and a packet that crosses a link may take its next hop one
/// slot later (switch latency 1), so packets chain across consecutive held
/// links — the benefit of one configuration under §5's Theorem 2.
///
/// Service follows [`Simulator::run`]'s per-slot rule (weight, then flow
/// ID, then index into `flows`) on the same per-slot loop, never its
/// batch path, so ψ is summed one packet at a time, each slot's links in
/// the order given; the caller's link order fixes ψ's last bits, not which
/// packets move. With every `start` at 0 the hold moves exactly the
/// packets [`Simulator::run`] moves on the one-configuration schedule
/// `(links, alpha)` with Δ = 0.
pub fn hold_links(
    flows: &[ResolvedFlow],
    start: &[u32],
    links: &[(NodeId, NodeId)],
    alpha: u64,
    weighting: HopWeighting,
) -> Held {
    let cfg = SimConfig {
        delta: 0,
        forwarding: ForwardingMode::WithinConfig { switch_latency: 1 },
        weighting,
        ..SimConfig::default()
    };
    let mut engine = Engine::new(&cfg, flows, start);
    engine.serve_slots(links, 0, alpha, alpha);
    engine.admit_arrivals_until(u64::MAX);
    Held {
        psi: engine.psi,
        counts: engine.pos_counts,
    }
}

/// VOQ priority key: higher weight first, then lower flow ID, then resolved
/// index (a deterministic final tie-break).
type PrioKey = (Reverse<Weight>, FlowId, u32);

/// Per-node VOQ table: next-hop node → priority queue of (flow index,
/// route position).
type VoqTable = HashMap<u32, BTreeMap<PrioKey, (u32, u32)>>;

struct Engine<'a> {
    cfg: &'a SimConfig,
    flows: &'a [ResolvedFlow],
    hops: Vec<u32>,
    /// `pos_counts[f][p]`: packets of resolved flow `f` available at route
    /// node `p` (p == hops(f) means delivered).
    pos_counts: Vec<Vec<u64>>,
    /// Per node: next-hop → priority queue of (flow index, position).
    voqs: Vec<VoqTable>,
    /// In-flight packets keyed by the slot they become available.
    arrivals: BTreeMap<u64, Vec<(u32, u32, u64)>>,
    weighting: HopWeighting,
    psi: f64,
    hops_traversed: u64,
    link_slots: u64,
    now: u64,
    /// Slot of the most recent delivery, per resolved flow.
    last_delivery: Vec<u64>,
}

impl<'a> Engine<'a> {
    /// Queues every flow's packets at route position `start[fi]` (0 where
    /// `start` has no entry; a position at or past the route's end counts
    /// them delivered).
    fn new(cfg: &'a SimConfig, flows: &'a [ResolvedFlow], start: &[u32]) -> Self {
        let n_nodes = flows
            .iter()
            .flat_map(|f| f.route.nodes())
            .map(|v| v.0 + 1)
            .max()
            .unwrap_or(1) as usize;
        let hops: Vec<u32> = flows.iter().map(|f| f.route.hops()).collect();
        let pos_counts: Vec<Vec<u64>> = flows
            .iter()
            .map(|f| vec![0u64; f.route.nodes().len()])
            .collect();
        let mut engine = Engine {
            cfg,
            flows,
            hops,
            pos_counts,
            voqs: vec![HashMap::new(); n_nodes],
            arrivals: BTreeMap::new(),
            weighting: cfg.weighting,
            psi: 0.0,
            hops_traversed: 0,
            link_slots: 0,
            now: 0,
            last_delivery: vec![0u64; flows.len()],
        };
        for (fi, f) in flows.iter().enumerate() {
            if f.size == 0 {
                continue;
            }
            let hops = engine.hops[fi];
            let pos = start.get(fi).map_or(0, |&p| p.min(hops));
            if pos == hops {
                engine.pos_counts[fi][hops as usize] += f.size;
            } else {
                engine.admit(fi as u32, pos, f.size);
            }
        }
        engine
    }

    fn switch_latency(&self) -> u64 {
        match self.cfg.forwarding {
            ForwardingMode::WithinConfig { switch_latency } => switch_latency.max(1),
            ForwardingMode::NextConfigOnly => 1, // availability deferred to config end anyway
        }
    }

    fn run(&mut self, schedule: &Schedule, failed: &std::collections::HashSet<(NodeId, NodeId)>) {
        let mut prev_links: std::collections::HashSet<(NodeId, NodeId)> =
            std::collections::HashSet::new();
        for config in schedule.configs() {
            if self.cfg.delta > 0 {
                match self.cfg.reconfig {
                    ReconfigModel::Global => self.now += self.cfg.delta,
                    ReconfigModel::Localized => {
                        // Persistent links keep serving during the Δ
                        // transition slots; changed links retrain.
                        let persistent: Vec<(NodeId, NodeId)> = config
                            .matching
                            .links()
                            .iter()
                            .copied()
                            .filter(|l| prev_links.contains(l) && !failed.contains(l))
                            .collect();
                        let persist_count = config
                            .matching
                            .links()
                            .iter()
                            .filter(|l| prev_links.contains(l))
                            .count() as u64;
                        self.link_slots += self.cfg.delta * persist_count;
                        let (start, slots) = (self.now, self.cfg.delta);
                        self.serve_slots(&persistent, start, slots, start + slots + config.alpha);
                        self.now += self.cfg.delta;
                    }
                }
            }
            prev_links = config.matching.links().iter().copied().collect();
            let start = self.now;
            let alpha = config.alpha;
            // Failed links still occupy their ports and count as offered
            // slots, but never carry a packet.
            let links: Vec<(NodeId, NodeId)> = config
                .matching
                .links()
                .iter()
                .copied()
                .filter(|l| !failed.contains(l))
                .collect();
            self.link_slots += alpha * config.matching.len() as u64;

            let defer_to_config_end = matches!(self.cfg.forwarding, ForwardingMode::NextConfigOnly);

            if !defer_to_config_end && self.can_batch(&links, start) {
                self.admit_arrivals_until(start);
                self.batch_serve(&links, alpha, start);
            } else {
                self.serve_slots(&links, start, alpha, start + alpha);
            }
            self.now = start + alpha;
            if defer_to_config_end {
                // Everything in flight lands now, available from the next
                // configuration onwards.
                self.admit_arrivals_until(u64::MAX);
            }
        }
        // Drain any remaining in-flight packets so final accounting sees them
        // as stranded at their arrival node.
        self.admit_arrivals_until(u64::MAX);
    }

    /// Batch fast path is sound when the matching has no "chains" (no node
    /// both receives and transmits in this configuration) and no in-flight
    /// packet lands after the configuration starts: then no VOQ served this
    /// configuration gains packets mid-flight, and each link independently
    /// serves `min(α, queued)` packets in priority order.
    fn can_batch(&self, links: &[(NodeId, NodeId)], start: u64) -> bool {
        if let Some((&due, _)) = self.arrivals.iter().next_back() {
            if due > start {
                return false;
            }
        }
        let sources: std::collections::HashSet<NodeId> = links.iter().map(|&(i, _)| i).collect();
        !links.iter().any(|&(_, j)| sources.contains(&j))
    }

    fn batch_serve(&mut self, links: &[(NodeId, NodeId)], alpha: u64, start: u64) {
        let latency = self.switch_latency();
        for &(i, j) in links {
            let mut budget = alpha;
            while budget > 0 {
                let Some((&key, &(fi, pos))) = self
                    .voqs
                    .get(i.index())
                    .and_then(|m| m.get(&j.0))
                    .and_then(|q| q.iter().next())
                else {
                    break;
                };
                let avail = self.pos_counts[fi as usize][pos as usize];
                let take = avail.min(budget);
                budget -= take;
                self.pos_counts[fi as usize][pos as usize] -= take;
                if self.pos_counts[fi as usize][pos as usize] == 0 {
                    match self.voqs[i.index()].get_mut(&j.0) {
                        Some(q) => {
                            q.remove(&key);
                        }
                        None => debug_assert!(false, "drained VOQ exists"),
                    }
                }
                self.account_traversal(fi, pos, take);
                let new_pos = pos + 1;
                if new_pos == self.hops[fi as usize] {
                    self.pos_counts[fi as usize][new_pos as usize] += take; // delivered
                                                                            // The batch's packets leave one per slot; the last one
                                                                            // departs after (alpha - budget - 1) earlier services.
                    let last_slot = start + (alpha - budget) - 1;
                    let ld = &mut self.last_delivery[fi as usize];
                    *ld = (*ld).max(last_slot);
                } else {
                    // Conservative-but-exact due time under the no-chain
                    // precondition: the receiving node transmits nothing this
                    // configuration, so availability only matters from the
                    // end of the configuration onwards.
                    let due = (start + alpha - 1).saturating_add(latency);
                    self.arrivals
                        .entry(due)
                        .or_default()
                        .push((fi, new_pos, take));
                }
            }
        }
    }

    /// The per-slot loop: over slots `start..start + slots`, admits the
    /// packets due by each slot, then lets every link of `links`, in order,
    /// transmit one packet. Under [`ForwardingMode::NextConfigOnly`] nothing
    /// is admitted mid-configuration and forwarded packets land at
    /// `config_end`.
    fn serve_slots(&mut self, links: &[(NodeId, NodeId)], start: u64, slots: u64, config_end: u64) {
        let defer = matches!(self.cfg.forwarding, ForwardingMode::NextConfigOnly);
        for t in start..start + slots {
            if !defer {
                self.admit_arrivals_until(t);
            }
            for &(i, j) in links {
                self.transmit_one(i, j, t, defer, config_end);
            }
        }
    }

    fn transmit_one(
        &mut self,
        i: NodeId,
        j: NodeId,
        t: u64,
        defer_to_config_end: bool,
        config_end: u64,
    ) {
        let Some((&key, &(fi, pos))) = self
            .voqs
            .get(i.index())
            .and_then(|m| m.get(&j.0))
            .and_then(|q| q.iter().next())
        else {
            return;
        };
        self.pos_counts[fi as usize][pos as usize] -= 1;
        if self.pos_counts[fi as usize][pos as usize] == 0 {
            match self.voqs[i.index()].get_mut(&j.0) {
                Some(q) => {
                    q.remove(&key);
                }
                None => debug_assert!(false, "drained VOQ exists"),
            }
        }
        self.account_traversal(fi, pos, 1);
        let new_pos = pos + 1;
        if new_pos == self.hops[fi as usize] {
            self.pos_counts[fi as usize][new_pos as usize] += 1; // delivered
            let ld = &mut self.last_delivery[fi as usize];
            *ld = (*ld).max(t);
        } else {
            let due = if defer_to_config_end {
                config_end
            } else {
                t + self.switch_latency()
            };
            self.arrivals.entry(due).or_default().push((fi, new_pos, 1));
        }
    }

    fn account_traversal(&mut self, fi: u32, pos: u32, count: u64) {
        self.hops_traversed += count;
        let w = self
            .weighting
            .hop_weight(self.hops[fi as usize], pos)
            .value();
        self.psi += w * count as f64;
    }

    /// Moves all arrivals due at or before `t` into their VOQs.
    fn admit_arrivals_until(&mut self, t: u64) {
        loop {
            let Some((&due, _)) = self.arrivals.iter().next() else {
                return;
            };
            if due > t {
                return;
            }
            let Some(batch) = self.arrivals.remove(&due) else {
                debug_assert!(false, "key was just observed in the map");
                return;
            };
            for (fi, pos, count) in batch {
                self.admit(fi, pos, count);
            }
        }
    }

    fn admit(&mut self, fi: u32, pos: u32, count: u64) {
        // `pos < hops` guaranteed: delivered packets never enter `arrivals`.
        self.pos_counts[fi as usize][pos as usize] += count;
        let f = &self.flows[fi as usize];
        let (at, next) = f.route.hop(pos);
        let key = (
            Reverse(self.weighting.hop_weight(self.hops[fi as usize], pos)),
            f.flow,
            fi,
        );
        self.voqs[at.index()]
            .entry(next.0)
            .or_default()
            .insert(key, (fi, pos));
    }

    fn into_report(self, flows: &[ResolvedFlow]) -> SimReport {
        let mut delivered = 0u64;
        let mut stranded = 0u64;
        let mut never_moved = 0u64;
        let mut per_flow: HashMap<FlowId, u64> = HashMap::new();
        let mut per_flow_size: HashMap<FlowId, u64> = HashMap::new();
        let mut per_flow_last: HashMap<FlowId, u64> = HashMap::new();
        for (fi, f) in flows.iter().enumerate() {
            let counts = &self.pos_counts[fi];
            let h = self.hops[fi] as usize;
            let d = counts[h];
            delivered += d;
            if d > 0 {
                *per_flow.entry(f.flow).or_insert(0) += d;
            }
            *per_flow_size.entry(f.flow).or_insert(0) += f.size;
            let last = per_flow_last.entry(f.flow).or_insert(0);
            *last = (*last).max(self.last_delivery[fi]);
            never_moved += counts[0];
            stranded += counts[1..h].iter().sum::<u64>();
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "collects into a map: the visit order cannot show"
        )]
        let completion_slot: HashMap<FlowId, u64> = per_flow_size
            .iter()
            .filter(|&(id, &size)| size > 0 && per_flow.get(id).copied().unwrap_or(0) == size)
            .map(|(&id, _)| (id, per_flow_last[&id] + 1))
            .collect();
        SimReport {
            total_packets: flows.iter().map(|f| f.size).sum(),
            delivered,
            stranded,
            never_moved,
            hops_traversed: self.hops_traversed,
            psi: self.psi,
            link_slots_offered: self.link_slots,
            slots_used: self.now,
            delivered_per_flow: per_flow,
            completion_slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_net::{topology, Configuration, Matching};
    use octopus_traffic::Flow;

    fn sched(parts: &[(u64, &[(u32, u32)])]) -> Schedule {
        Schedule::from(
            parts
                .iter()
                .map(|&(alpha, links)| {
                    Configuration::new(Matching::new_free(links.iter().copied()).unwrap(), alpha)
                })
                .collect::<Vec<_>>(),
        )
    }

    fn cfg0() -> SimConfig {
        SimConfig {
            delta: 0,
            ..SimConfig::default()
        }
    }

    fn single(id: u64, size: u64, route: &[u32]) -> ResolvedFlow {
        ResolvedFlow {
            flow: FlowId(id),
            size,
            route: Route::from_ids(route.iter().copied()).unwrap(),
        }
    }

    /// The paper's Example 1 (Figure 1): nodes a=0, b=1, c=2, d=3.
    /// Flows: f1 = (a,c) via (a,b,c), 100 pkts; f2 = (d,b) via (d,a,b),
    /// 50 pkts; f3 = (c,a) via (c,b,a), 50 pkts. Δ = 0, W = 300.
    fn example1_flows() -> Vec<ResolvedFlow> {
        vec![
            single(1, 100, &[0, 1, 2]),
            single(2, 50, &[3, 0, 1]),
            single(3, 50, &[2, 1, 0]),
        ]
    }

    #[test]
    fn paper_example1_given_schedule() {
        // M1=(d,a) 50; M2=(a,b) 100; M3=(c,b) 50; M4=(b,a) 50; M5=(a,b) 50.
        let schedule = sched(&[
            (50, &[(3, 0)]),
            (100, &[(0, 1)]),
            (50, &[(2, 1)]),
            (50, &[(1, 0)]),
            (50, &[(0, 1)]),
        ]);
        let sim = Simulator::new(None, example1_flows(), cfg0()).unwrap();
        let r = sim.run(&schedule).unwrap();
        // The (a,c)-flow wins the second configuration on flow-ID priority,
        // so its 100 packets strand at b; f2 and f3 fully deliver.
        assert_eq!(r.delivered, 100, "paper: total delivered is 100");
        assert!(
            (r.psi - 150.0).abs() < 1e-9,
            "paper: psi is 150, got {}",
            r.psi
        );
        assert_eq!(r.stranded, 100);
        assert!(r.conserves_packets());
        assert_eq!(r.delivered_per_flow[&FlowId(2)], 50);
        assert_eq!(r.delivered_per_flow[&FlowId(3)], 50);
        assert_eq!(r.slots_used, 300);
    }

    #[test]
    fn paper_example1_optimal_schedule() {
        // (M1∪M3, 50), (M4∪M5, 50), (M2, 100), ((b,c), 100).
        let schedule = sched(&[
            (50, &[(3, 0), (2, 1)]),
            (50, &[(1, 0), (0, 1)]),
            (100, &[(0, 1)]),
            (100, &[(1, 2)]),
        ]);
        let sim = Simulator::new(None, example1_flows(), cfg0()).unwrap();
        let r = sim.run(&schedule).unwrap();
        assert_eq!(r.delivered, 200, "paper: optimal delivers all packets");
        assert!((r.psi - 200.0).abs() < 1e-9, "paper: optimal psi is 200");
        assert_eq!(r.stranded + r.never_moved, 0);
    }

    #[test]
    fn reconfiguration_delay_consumes_slots_without_traffic() {
        let flows = vec![single(1, 10, &[0, 1])];
        let schedule = sched(&[(10, &[(0, 1)])]);
        let cfg = SimConfig {
            delta: 20,
            ..SimConfig::default()
        };
        let sim = Simulator::new(None, flows, cfg).unwrap();
        let r = sim.run(&schedule).unwrap();
        assert_eq!(r.delivered, 10);
        assert_eq!(r.slots_used, 30);
        assert_eq!(r.link_slots_offered, 10);
    }

    #[test]
    fn priority_weight_beats_flow_id() {
        // Two flows contend for (0,1): a 2-hop flow (weight 1/2, lower id)
        // vs a 1-hop flow (weight 1, higher id). Weight wins.
        let flows = vec![single(1, 5, &[0, 1, 2]), single(2, 5, &[0, 1])];
        let schedule = sched(&[(5, &[(0, 1)])]);
        let sim = Simulator::new(None, flows, cfg0()).unwrap();
        let r = sim.run(&schedule).unwrap();
        assert_eq!(r.delivered, 5);
        assert_eq!(r.delivered_per_flow.get(&FlowId(2)), Some(&5));
        assert_eq!(r.delivered_per_flow.get(&FlowId(1)), None);
    }

    #[test]
    fn flow_id_breaks_weight_ties() {
        let flows = vec![single(7, 5, &[0, 1]), single(3, 5, &[0, 1])];
        let schedule = sched(&[(5, &[(0, 1)])]);
        let sim = Simulator::new(None, flows, cfg0()).unwrap();
        let r = sim.run(&schedule).unwrap();
        assert_eq!(r.delivered_per_flow.get(&FlowId(3)), Some(&5));
        assert_eq!(r.delivered_per_flow.get(&FlowId(7)), None);
    }

    #[test]
    fn multihop_within_configuration() {
        // One configuration activates both hops: packets chain through with
        // switch latency 1.
        let flows = vec![single(1, 10, &[0, 1, 2])];
        let schedule = sched(&[(11, &[(0, 1), (1, 2)])]);
        let sim = Simulator::new(None, flows, cfg0()).unwrap();
        let r = sim.run(&schedule).unwrap();
        // Slot t moves a packet 0->1 (available at t+1); slots 1..=10 move
        // them 1->2: all 10 delivered within 11 slots.
        assert_eq!(r.delivered, 10);
        assert_eq!(r.hops_traversed, 20);
    }

    #[test]
    fn next_config_only_blocks_chaining() {
        let flows = vec![single(1, 10, &[0, 1, 2])];
        let schedule = sched(&[(11, &[(0, 1), (1, 2)])]);
        let cfg = SimConfig {
            delta: 0,
            forwarding: ForwardingMode::NextConfigOnly,
            ..SimConfig::default()
        };
        let sim = Simulator::new(None, flows.clone(), cfg).unwrap();
        let r = sim.run(&schedule).unwrap();
        assert_eq!(r.delivered, 0);
        assert_eq!(r.stranded, 10);
        // A second configuration lets them finish.
        let schedule2 = sched(&[(11, &[(0, 1), (1, 2)]), (10, &[(1, 2)])]);
        let r2 = sim.run(&schedule2).unwrap();
        assert_eq!(r2.delivered, 10);
    }

    #[test]
    fn switch_latency_delays_chained_hops() {
        let flows = vec![single(1, 1, &[0, 1, 2])];
        // With latency 3, the packet moves 0->1 at slot 0, is available at
        // slot 3, so an alpha of 3 cannot finish it but 4 can.
        let mk_cfg = |lat| SimConfig {
            delta: 0,
            forwarding: ForwardingMode::WithinConfig {
                switch_latency: lat,
            },
            ..SimConfig::default()
        };
        let schedule = sched(&[(3, &[(0, 1), (1, 2)])]);
        let sim = Simulator::new(None, flows.clone(), mk_cfg(3)).unwrap();
        assert_eq!(sim.run(&schedule).unwrap().delivered, 0);
        let schedule4 = sched(&[(4, &[(0, 1), (1, 2)])]);
        let sim = Simulator::new(None, flows, mk_cfg(3)).unwrap();
        assert_eq!(sim.run(&schedule4).unwrap().delivered, 1);
    }

    #[test]
    fn batch_path_matches_slot_path() {
        // No chains: batchable. Compare against NextConfigOnly-free slot sim
        // by forcing chains off and verifying totals directly.
        let flows = vec![
            single(1, 30, &[0, 1]),
            single(2, 50, &[2, 3]),
            single(3, 10, &[4, 5, 6]),
        ];
        let schedule = sched(&[(40, &[(0, 1), (2, 3), (4, 5)]), (15, &[(5, 6)])]);
        let sim = Simulator::new(None, flows, cfg0()).unwrap();
        let r = sim.run(&schedule).unwrap();
        assert_eq!(r.delivered, 30 + 40 + 10);
        assert_eq!(r.hops_traversed, 30 + 40 + 10 + 10);
        assert!(r.conserves_packets());
    }

    #[test]
    fn utilization_accounts_idle_links() {
        let flows = vec![single(1, 10, &[0, 1])];
        // Second link (2,3) carries nothing.
        let schedule = sched(&[(10, &[(0, 1), (2, 3)])]);
        let sim = Simulator::new(None, flows, cfg0()).unwrap();
        let r = sim.run(&schedule).unwrap();
        assert_eq!(r.link_slots_offered, 20);
        assert!((r.link_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_enforcement() {
        let flows = vec![single(1, 10, &[0, 1])];
        let schedule = sched(&[(10, &[(0, 1)])]);
        let cfg = SimConfig {
            delta: 5,
            window: Some(12),
            ..SimConfig::default()
        };
        let sim = Simulator::new(None, flows, cfg).unwrap();
        assert_eq!(
            sim.run(&schedule),
            Err(SimError::WindowExceeded {
                cost: 15,
                window: 12
            })
        );
    }

    #[test]
    fn resolve_rejects_multi_route() {
        let load = TrafficLoad::new(vec![Flow::new(
            FlowId(1),
            5,
            vec![
                Route::from_ids([0, 1]).unwrap(),
                Route::from_ids([0, 2, 1]).unwrap(),
            ],
        )
        .unwrap()])
        .unwrap();
        assert_eq!(resolve(&load), Err(SimError::MultiRouteFlow(FlowId(1))));
    }

    #[test]
    fn route_validation_against_network() {
        let net = topology::ring(4).unwrap();
        let bad = vec![single(1, 1, &[0, 2])];
        assert_eq!(
            Simulator::new(Some(&net), bad, cfg0()).err(),
            Some(SimError::RouteNotInNetwork(FlowId(1)))
        );
    }

    #[test]
    fn empty_schedule_delivers_nothing() {
        let flows = vec![single(1, 10, &[0, 1])];
        let sim = Simulator::new(None, flows, cfg0()).unwrap();
        let r = sim.run(&Schedule::new()).unwrap();
        assert_eq!(r.delivered, 0);
        assert_eq!(r.never_moved, 10);
        assert!(r.conserves_packets());
    }

    #[test]
    fn zero_size_flows_ignored() {
        let flows = vec![single(1, 0, &[0, 1]), single(2, 5, &[0, 1])];
        let schedule = sched(&[(10, &[(0, 1)])]);
        let sim = Simulator::new(None, flows, cfg0()).unwrap();
        let r = sim.run(&schedule).unwrap();
        assert_eq!(r.delivered, 5);
        assert_eq!(r.total_packets, 5);
    }

    #[test]
    fn hold_chains_a_mid_route_flow_across_two_links() {
        // Flow 1 (route 0-1-2-3, weights 1/3) has 3 packets waiting at node 1
        // and 2 at node 0; links (1,2) and (2,3) are held for 4 slots. By
        // hand: (1,2) sends one node-1 packet per slot 0..=2, each reaching
        // node 2 one slot later, so (2,3) delivers them in slots 1..=3. The
        // node-0 packets never move: (0,1) is not held.
        let flows = vec![single(1, 3, &[0, 1, 2, 3]), single(1, 2, &[0, 1, 2, 3])];
        let links = [(NodeId(1), NodeId(2)), (NodeId(2), NodeId(3))];
        let held = hold_links(&flows, &[1, 0], &links, 4, HopWeighting::Uniform);
        assert_eq!(held.counts, vec![vec![0, 0, 0, 3], vec![2, 0, 0, 0]]);
        assert!((held.psi - 6.0 / 3.0).abs() < 1e-12, "6 hops of weight 1/3");
        // One slot less: the third packet crosses (1,2) in slot 2 and is
        // still crossing node 2 when the hold ends.
        let held = hold_links(&flows, &[1, 0], &links, 3, HopWeighting::Uniform);
        assert_eq!(held.counts[0], vec![0, 0, 1, 2]);
        assert!((held.psi - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hold_from_route_start_serves_what_run_serves() {
        let flows = example1_flows();
        let links = [
            (NodeId(3), NodeId(0)),
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(2)),
        ];
        let held = hold_links(&flows, &[], &links, 120, HopWeighting::Uniform);
        let schedule = sched(&[(120, &[(3, 0), (0, 1), (1, 2)])]);
        let r = Simulator::new(None, flows.clone(), cfg0())
            .unwrap()
            .run(&schedule)
            .unwrap();
        let delivered: u64 = flows
            .iter()
            .zip(&held.counts)
            .map(|(f, c)| c[f.route.hops() as usize])
            .sum();
        assert_eq!(delivered, r.delivered);
        assert_eq!(held.psi.to_bits(), r.psi.to_bits());
        assert_eq!(
            held,
            hold_links(&flows, &[0, 0, 0], &links, 120, HopWeighting::Uniform)
        );
    }

    #[test]
    fn rerunning_simulator_is_stateless() {
        let flows = vec![single(1, 10, &[0, 1])];
        let schedule = sched(&[(4, &[(0, 1)])]);
        let sim = Simulator::new(None, flows, cfg0()).unwrap();
        let a = sim.run(&schedule).unwrap();
        let b = sim.run(&schedule).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.delivered, 4);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use octopus_net::{Configuration, Matching};

    fn sched(parts: &[(u64, &[(u32, u32)])]) -> Schedule {
        Schedule::from(
            parts
                .iter()
                .map(|&(alpha, links)| {
                    Configuration::new(Matching::new_free(links.iter().copied()).unwrap(), alpha)
                })
                .collect::<Vec<_>>(),
        )
    }

    fn flow(id: u64, size: u64, route: &[u32]) -> ResolvedFlow {
        ResolvedFlow {
            flow: FlowId(id),
            size,
            route: Route::from_ids(route.iter().copied()).unwrap(),
        }
    }

    fn cfg0() -> SimConfig {
        SimConfig {
            delta: 0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn failed_link_carries_nothing_but_counts_as_offered() {
        let flows = vec![flow(1, 10, &[0, 1]), flow(2, 10, &[2, 3])];
        let schedule = sched(&[(10, &[(0, 1), (2, 3)])]);
        let sim = Simulator::new(None, flows, cfg0())
            .unwrap()
            .with_failed_links([(0u32, 1u32)]);
        let r = sim.run(&schedule).unwrap();
        assert_eq!(r.delivered, 10, "only the healthy link delivers");
        assert_eq!(r.delivered_per_flow.get(&FlowId(1)), None);
        assert_eq!(r.link_slots_offered, 20, "failed slots still offered");
        assert!((r.link_utilization() - 0.5).abs() < 1e-12);
        assert!(r.conserves_packets());
    }

    #[test]
    fn failure_mid_route_strands_packets() {
        let flows = vec![flow(1, 5, &[0, 1, 2])];
        let schedule = sched(&[(5, &[(0, 1)]), (5, &[(1, 2)])]);
        let sim = Simulator::new(None, flows, cfg0())
            .unwrap()
            .with_failed_links([(1u32, 2u32)]);
        let r = sim.run(&schedule).unwrap();
        assert_eq!(r.delivered, 0);
        assert_eq!(r.stranded, 5, "packets stuck at the intermediate node");
    }

    #[test]
    fn no_failures_is_a_noop() {
        let flows = vec![flow(1, 10, &[0, 1])];
        let schedule = sched(&[(10, &[(0, 1)])]);
        let base = Simulator::new(None, flows.clone(), cfg0()).unwrap();
        let faulty = Simulator::new(None, flows, cfg0())
            .unwrap()
            .with_failed_links(Vec::<(u32, u32)>::new());
        assert_eq!(base.run(&schedule), faulty.run(&schedule));
    }

    #[test]
    fn rescheduling_around_known_failures_recovers() {
        // A second schedule avoiding the dead link gets packets through.
        let flows = vec![flow(1, 5, &[0, 1, 2])];
        let sim = Simulator::new(None, flows, cfg0())
            .unwrap()
            .with_failed_links([(0u32, 1u32)]);
        // This one is doomed...
        let bad = sched(&[(5, &[(0, 1)]), (5, &[(1, 2)])]);
        assert_eq!(sim.run(&bad).unwrap().delivered, 0);
        // ...but the route itself is the problem; a healthy route works.
        let flows2 = vec![flow(1, 5, &[0, 3])];
        let sim2 = Simulator::new(None, flows2, cfg0())
            .unwrap()
            .with_failed_links([(0u32, 1u32)]);
        let good = sched(&[(5, &[(0, 3)])]);
        assert_eq!(sim2.run(&good).unwrap().delivered, 5);
    }
}

#[cfg(test)]
mod localized_tests {
    use super::*;
    use octopus_net::{Configuration, Matching};

    fn sched(parts: &[(u64, &[(u32, u32)])]) -> Schedule {
        Schedule::from(
            parts
                .iter()
                .map(|&(alpha, links)| {
                    Configuration::new(Matching::new_free(links.iter().copied()).unwrap(), alpha)
                })
                .collect::<Vec<_>>(),
        )
    }

    fn flow(id: u64, size: u64, route: &[u32]) -> ResolvedFlow {
        ResolvedFlow {
            flow: FlowId(id),
            size,
            route: Route::from_ids(route.iter().copied()).unwrap(),
        }
    }

    fn cfg(reconfig: ReconfigModel, delta: u64) -> SimConfig {
        SimConfig {
            delta,
            reconfig,
            ..SimConfig::default()
        }
    }

    #[test]
    fn persistent_link_serves_through_reconfiguration() {
        // Link (0,1) persists across both configurations; under localized
        // reconfiguration it also carries packets during the Δ gap.
        let flows = vec![flow(1, 100, &[0, 1])];
        let schedule = sched(&[(10, &[(0, 1)]), (10, &[(0, 1), (2, 3)])]);
        let global = Simulator::new(None, flows.clone(), cfg(ReconfigModel::Global, 15)).unwrap();
        let local = Simulator::new(None, flows, cfg(ReconfigModel::Localized, 15)).unwrap();
        let rg = global.run(&schedule).unwrap();
        let rl = local.run(&schedule).unwrap();
        assert_eq!(rg.delivered, 20, "two alphas of 10");
        // Localized: the second transition's 15 slots also serve (0,1). The
        // first transition has no previous configuration, so nothing persists.
        assert_eq!(rl.delivered, 35);
        assert!(rl.slots_used == rg.slots_used, "same wall clock");
    }

    #[test]
    fn changed_links_stay_silent_during_transition() {
        // (2,3) is new in the second configuration: it must not serve during
        // the transition even under localized reconfiguration.
        let flows = vec![flow(1, 100, &[2, 3])];
        let schedule = sched(&[(10, &[(0, 1)]), (10, &[(0, 1), (2, 3)])]);
        let local = Simulator::new(None, flows, cfg(ReconfigModel::Localized, 15)).unwrap();
        let r = local.run(&schedule).unwrap();
        assert_eq!(r.delivered, 10, "only the alpha slots of configuration 2");
    }

    #[test]
    fn localized_equals_global_when_delta_zero() {
        let flows = vec![flow(1, 30, &[0, 1]), flow(2, 30, &[1, 2])];
        let schedule = sched(&[(10, &[(0, 1)]), (25, &[(1, 2)])]);
        let a = Simulator::new(None, flows.clone(), cfg(ReconfigModel::Global, 0)).unwrap();
        let b = Simulator::new(None, flows, cfg(ReconfigModel::Localized, 0)).unwrap();
        assert_eq!(a.run(&schedule).unwrap(), b.run(&schedule).unwrap());
    }

    #[test]
    fn localized_counts_offered_transition_slots() {
        let flows = vec![flow(1, 100, &[0, 1])];
        let schedule = sched(&[(10, &[(0, 1)]), (10, &[(0, 1)])]);
        let local = Simulator::new(None, flows, cfg(ReconfigModel::Localized, 5)).unwrap();
        let r = local.run(&schedule).unwrap();
        // 10 + 10 alpha slots + 5 persistent transition slots offered.
        assert_eq!(r.link_slots_offered, 25);
        assert_eq!(r.delivered, 25);
        assert!((r.link_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failed_links_do_not_serve_transitions() {
        let flows = vec![flow(1, 100, &[0, 1])];
        let schedule = sched(&[(10, &[(0, 1)]), (10, &[(0, 1)])]);
        let local = Simulator::new(None, flows, cfg(ReconfigModel::Localized, 5))
            .unwrap()
            .with_failed_links([(0u32, 1u32)]);
        let r = local.run(&schedule).unwrap();
        assert_eq!(r.delivered, 0);
    }
}

#[cfg(test)]
mod fct_tests {
    use super::*;
    use octopus_net::{Configuration, Matching};

    fn sched(parts: &[(u64, &[(u32, u32)])]) -> Schedule {
        Schedule::from(
            parts
                .iter()
                .map(|&(alpha, links)| {
                    Configuration::new(Matching::new_free(links.iter().copied()).unwrap(), alpha)
                })
                .collect::<Vec<_>>(),
        )
    }

    fn flow(id: u64, size: u64, route: &[u32]) -> ResolvedFlow {
        ResolvedFlow {
            flow: FlowId(id),
            size,
            route: Route::from_ids(route.iter().copied()).unwrap(),
        }
    }

    fn cfg(delta: u64) -> SimConfig {
        SimConfig {
            delta,
            ..SimConfig::default()
        }
    }

    #[test]
    fn completion_slot_counts_reconfiguration_time() {
        // Delta 10: slots 0..10 silent, flow's 5 packets leave at slots
        // 10..15 -> completion at slot 15 (one past the last service slot).
        let flows = vec![flow(1, 5, &[0, 1])];
        let schedule = sched(&[(5, &[(0, 1)])]);
        let sim = Simulator::new(None, flows, cfg(10)).unwrap();
        let r = sim.run(&schedule).unwrap();
        assert_eq!(r.completion_slot[&FlowId(1)], 15);
        assert_eq!(r.mean_fct(), Some(15.0));
    }

    #[test]
    fn incomplete_flows_have_no_completion_time() {
        let flows = vec![flow(1, 10, &[0, 1]), flow(2, 3, &[2, 3])];
        // Only 4 slots for flow 1 (partial), plenty for flow 2.
        let schedule = sched(&[(4, &[(0, 1)]), (3, &[(2, 3)])]);
        let sim = Simulator::new(None, flows, cfg(0)).unwrap();
        let r = sim.run(&schedule).unwrap();
        assert!(!r.completion_slot.contains_key(&FlowId(1)));
        assert!(r.completion_slot.contains_key(&FlowId(2)));
        assert_eq!(r.median_fct(), Some(7));
    }

    #[test]
    fn batch_and_slot_paths_agree_on_fct() {
        // Batchable schedule (no chains) vs the same run forced through the
        // slot path by a chained second configuration.
        let flows = vec![flow(1, 6, &[0, 1])];
        let batchable = sched(&[(10, &[(0, 1)])]);
        let sim = Simulator::new(None, flows.clone(), cfg(0)).unwrap();
        let r1 = sim.run(&batchable).unwrap();
        assert_eq!(r1.completion_slot[&FlowId(1)], 6);
        // Chained matching forces the per-slot path; same service pattern.
        let chained = sched(&[(10, &[(0, 1), (1, 0)])]);
        let flows2 = vec![flow(1, 6, &[0, 1]), flow(2, 1, &[1, 0])];
        let sim2 = Simulator::new(None, flows2, cfg(0)).unwrap();
        let r2 = sim2.run(&chained).unwrap();
        assert_eq!(r2.completion_slot[&FlowId(1)], 6);
    }

    #[test]
    fn multihop_fct_spans_configurations() {
        let flows = vec![flow(1, 4, &[0, 1, 2])];
        let schedule = sched(&[(4, &[(0, 1)]), (4, &[(1, 2)])]);
        let sim = Simulator::new(None, flows, cfg(5)).unwrap();
        let r = sim.run(&schedule).unwrap();
        // Timeline: 5 delta + 4 alpha + 5 delta + 4 alpha = 18.
        assert_eq!(r.completion_slot[&FlowId(1)], 18);
    }
}
