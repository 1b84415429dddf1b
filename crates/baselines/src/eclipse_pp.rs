//! **Eclipse++-style routing**: scheduling the hops of multi-hop traffic over
//! a *fixed* configuration sequence — the role Eclipse++ plays in \[36\] and
//! in the paper's Eclipse-Based baseline.
//!
//! Where the slot-level simulator routes myopically (per-slot VOQ
//! contention), this router plans *offline* on the schedule's time-expanded
//! structure: each configuration `k` offers `α_k` packet-slots on every link
//! of `M_k`; a packet at hop position `p` of its route can take hop `p`
//! during configuration `k` if capacity remains and its previous hop
//! happened in an earlier configuration (or an earlier slot of the same one,
//! when chaining is allowed). Flows are processed in the paper's fixed
//! priority order (weight, then flow ID), each routed as early as feasible.
//!
//! The result upper-bounds what the greedy simulator achieves on the same
//! schedule (it looks ahead; the simulator cannot), so the Eclipse-Based
//! baseline can be reported from its best side. On the paper's workloads the
//! two agree closely — the baseline's losses come from the *schedule*, not
//! the router (see `eclipse_based_ignores_hop_ordering` in
//! [`crate::eclipse`]).

use octopus_net::Schedule;
use octopus_sim::ResolvedFlow;
use octopus_traffic::{HopWeighting, Weight};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Outcome of routing a load over a fixed schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingReport {
    /// Packets in the load.
    pub total_packets: u64,
    /// Packets whose final hop was scheduled.
    pub delivered: u64,
    /// Packet-hops scheduled (unweighted).
    pub hops_scheduled: u64,
    /// ψ of the routing (weighted scheduled hops).
    pub psi: f64,
    /// Link-slots offered by the schedule.
    pub link_slots_offered: u64,
}

impl RoutingReport {
    /// Delivered fraction (0–1).
    pub fn delivered_fraction(&self) -> f64 {
        if self.total_packets == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.total_packets as f64
    }

    /// Link utilization (0–1).
    pub fn link_utilization(&self) -> f64 {
        if self.link_slots_offered == 0 {
            return 0.0;
        }
        self.hops_scheduled as f64 / self.link_slots_offered as f64
    }
}

/// Plans hop-by-hop service of `flows` over the fixed `schedule`.
///
/// `chain_within_config` mirrors the simulator's forwarding modes: when
/// true, a packet may take consecutive hops in the *same* configuration
/// (feasible when the configuration holds both links; capacity still binds),
/// matching `ForwardingMode::WithinConfig`; when false, each hop needs a
/// strictly later configuration (`NextConfigOnly`).
pub fn route_over_schedule(
    flows: &[ResolvedFlow],
    schedule: &Schedule,
    weighting: HopWeighting,
    chain_within_config: bool,
) -> RoutingReport {
    // Remaining capacity per (config index, link).
    let mut capacity: Vec<HashMap<(u32, u32), u64>> = schedule
        .configs()
        .iter()
        .map(|c| {
            c.matching
                .links()
                .iter()
                .map(|&(i, j)| ((i.0, j.0), c.alpha))
                .collect()
        })
        .collect();
    let num_configs = schedule.len();

    // Process flows by (weight of the whole packet = hop 0's class route
    // weight, then flow id) — the paper's priority convention.
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by(|&a, &b| {
        let wa = Weight(weighting.hop_weight(flows[a].route.hops(), 0).value());
        let wb = Weight(weighting.hop_weight(flows[b].route.hops(), 0).value());
        wb.cmp(&wa)
            .then(flows[a].flow.cmp(&flows[b].flow))
            .then(a.cmp(&b))
    });

    let mut delivered = 0u64;
    let mut hops_scheduled = 0u64;
    let mut psi = 0.0f64;

    for fi in order {
        let f = &flows[fi];
        if f.size == 0 {
            continue;
        }
        let hops = f.route.hops();
        // Worklist of packet groups `(position, eligible-from config, count)`;
        // packets march configurations earliest-first, splitting as capacity
        // allows. Packets that exhaust the schedule mid-route are stranded.
        let mut groups: Vec<(u32, usize, u64)> = vec![(0, 0, f.size)];
        while let Some((pos, from_cfg, mut count)) = groups.pop() {
            if pos == hops {
                delivered += count;
                continue;
            }
            let (a, b) = f.route.hop(pos);
            let link = (a.0, b.0);
            let mut k = from_cfg;
            while k < num_configs && count > 0 {
                if let Some(cap) = capacity[k].get_mut(&link) {
                    let take = (*cap).min(count);
                    if take > 0 {
                        *cap -= take;
                        count -= take;
                        hops_scheduled += take;
                        psi += weighting.hop_weight(hops, pos).value() * take as f64;
                        let next_from = if chain_within_config { k } else { k + 1 };
                        groups.push((pos + 1, next_from, take));
                    }
                }
                k += 1;
            }
        }
    }

    RoutingReport {
        total_packets: flows.iter().map(|f| f.size).sum(),
        delivered,
        hops_scheduled,
        psi,
        link_slots_offered: schedule.link_slots(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_net::{Configuration, Matching};
    use octopus_sim::{SimConfig, Simulator};
    use octopus_traffic::{FlowId, Route};

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

    #[test]
    fn routes_fixed_route_over_ordered_configs() {
        let flows = vec![flow(1, 30, &[0, 1, 2])];
        let schedule = sched(&[(30, &[(0, 1)]), (30, &[(1, 2)])]);
        let r = route_over_schedule(&flows, &schedule, HopWeighting::Uniform, false);
        assert_eq!(r.delivered, 30);
        assert_eq!(r.hops_scheduled, 60);
        assert!((r.psi - 30.0).abs() < 1e-9);
        assert!((r.link_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_configs_strand_packets_without_chaining() {
        // Second hop's configuration comes FIRST: without chaining nothing
        // completes; hop 1 still gets scheduled.
        let flows = vec![flow(1, 10, &[0, 1, 2])];
        let schedule = sched(&[(10, &[(1, 2)]), (10, &[(0, 1)])]);
        let r = route_over_schedule(&flows, &schedule, HopWeighting::Uniform, false);
        assert_eq!(r.delivered, 0);
        assert_eq!(r.hops_scheduled, 10, "first hop scheduled in config 2");
    }

    #[test]
    fn chaining_uses_same_config_for_consecutive_hops() {
        let flows = vec![flow(1, 10, &[0, 1, 2])];
        let schedule = sched(&[(12, &[(0, 1), (1, 2)])]);
        let with = route_over_schedule(&flows, &schedule, HopWeighting::Uniform, true);
        assert_eq!(with.delivered, 10);
        let without = route_over_schedule(&flows, &schedule, HopWeighting::Uniform, false);
        assert_eq!(without.delivered, 0);
    }

    #[test]
    fn capacity_is_shared_between_flows_by_priority() {
        // Both flows need (0,1) but only 10 slots exist; the 1-hop flow
        // (higher weight) wins despite the higher id.
        let flows = vec![flow(1, 10, &[0, 1, 2]), flow(2, 10, &[0, 1])];
        let schedule = sched(&[(10, &[(0, 1)])]);
        let r = route_over_schedule(&flows, &schedule, HopWeighting::Uniform, false);
        assert_eq!(r.delivered, 10, "the direct flow is fully served");
        assert_eq!(r.hops_scheduled, 10);
    }

    #[test]
    fn planner_dominates_greedy_simulator_on_lookahead_instances() {
        // A trap for the myopic simulator: flow 2 (same weight class, lower
        // id... reversed: higher priority) eats the early capacity the other
        // flow needed. The offline router cannot do worse than the sim.
        let flows = vec![flow(1, 20, &[0, 1, 2]), flow(2, 20, &[3, 1])];
        let schedule = sched(&[(20, &[(0, 1)]), (20, &[(3, 1)]), (20, &[(1, 2)])]);
        let router = route_over_schedule(&flows, &schedule, HopWeighting::Uniform, false);
        let sim = Simulator::new(
            None,
            flows.clone(),
            SimConfig {
                delta: 0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let simulated = sim.run(&schedule).unwrap();
        assert!(router.delivered >= simulated.delivered);
        assert_eq!(router.delivered, 40);
    }

    #[test]
    fn empty_inputs() {
        let r = route_over_schedule(&[], &Schedule::new(), HopWeighting::Uniform, false);
        assert_eq!(r.total_packets, 0);
        assert_eq!(r.delivered_fraction(), 0.0);
        let flows = vec![flow(1, 5, &[0, 1])];
        let r = route_over_schedule(&flows, &Schedule::new(), HopWeighting::Uniform, false);
        assert_eq!(r.delivered, 0);
        assert_eq!(r.total_packets, 5);
    }
}
