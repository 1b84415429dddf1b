//! §5, Theorem 2: configuration selection that accounts for **multi-hop
//! traversal within a single configuration**.
//!
//! When a packet may cross several hops while one matching is held (its
//! consecutive route links all being active), the benefit of a configuration
//! is no longer a sum of independent per-link `g` values — paths from
//! different flows *compete* for the shared links. The paper's answer is a
//! greedy matching built **edge by edge**: at each step add the edge whose
//! marginal chain-aware benefit is largest; this yields a `1/(2𝒟)`-
//! approximate configuration and an overall
//! `(1 − e^{−1/(2𝒟²)})·W/(W+Δ)` guarantee.
//!
//! The chain-aware benefit of an edge set is its ψ when held for α slots
//! against `T^r` with switch latency one slot (the §5 feasibility argument),
//! priced by the measuring simulator itself ([`octopus_sim::hold_links`]),
//! so planning and measurement share one forwarding rule. One hold costs
//! `O(|F| + α · edges · log |F|)` for `|F|` waiting sub-flows, and every
//! greedy step, at every candidate α, holds each free candidate edge with
//! the edges chosen so far; the variant suits modest instances, while the
//! headline experiments use the one-hop-per-configuration bookkeeping
//! whose guarantee Theorem 1 covers.

use crate::best_config::{search_alpha, BestChoice};
use crate::engine::{CandidateExtension, ScheduleEngine, SearchPolicy};
use crate::{check_window, RemainingTraffic, SchedError};
use octopus_net::{Configuration, Matching, Network, NodeId, Schedule};
use octopus_sim::{hold_links, Held, ResolvedFlow};
use octopus_traffic::{FlowId, HopWeighting, Route, TrafficLoad};
use std::collections::HashSet;

/// Octopus with chain-aware (multi-hop within a configuration) benefit and
/// greedy edge-by-edge matchings — the modified algorithm of Theorem 2.
pub fn octopus_multihop(
    net: &Network,
    load: &TrafficLoad,
    cfg: &crate::OctopusConfig,
) -> Result<crate::OctopusOutput, SchedError> {
    check_window(cfg.window, cfg.delta)?;
    load.validate(net)?;
    let mut tr = RemainingTraffic::new(load, cfg.weighting)?;
    let policy = SearchPolicy::exhaustive();
    // Chained packets lag one slot per upstream hop, so the useful α values
    // extend past each class boundary by up to 𝒟−1 lead slots.
    let lead = load.max_route_hops().saturating_sub(1) as u64;
    let mut engine = ScheduleEngine::new(&mut tr, net.num_nodes(), cfg.delta);
    let mut schedule = Schedule::new();
    let mut used = 0u64;
    let mut iterations = 0usize;
    let mut matchings_computed = 0usize;

    while !engine.is_drained() && used + cfg.delta < cfg.window {
        let budget = cfg.window - used - cfg.delta;
        let snap = Snapshot::from_traffic(engine.source(), cfg.weighting);
        let eval = |alpha: u64| {
            let (edges, benefit) = greedy_chain_matching(&snap, net, alpha);
            BestChoice {
                matching: edges,
                alpha,
                benefit,
                score: benefit / (alpha + cfg.delta) as f64,
                matchings_computed: 1,
            }
        };
        let candidates = engine.candidates(budget, CandidateExtension::Lead(lead));
        let Some(choice) =
            search_alpha(&candidates, &policy, None, None, &eval).filter(|c| c.benefit > 0.0)
        else {
            break;
        };
        matchings_computed += choice.matchings_computed;
        iterations += 1;
        // Advance the plan with chaining: packets move as the hold says.
        let moves = snap.moves(&snap.hold(choice.matching.iter().copied(), choice.alpha));
        engine.update_source(|tr, dirty| tr.advance_chained(&moves, dirty));
        let Ok(matching) = Matching::new_free(choice.matching.iter().copied()) else {
            debug_assert!(false, "greedy matchings keep ports free");
            break;
        };
        schedule.push(Configuration::new(matching, choice.alpha));
        used += choice.alpha + cfg.delta;
    }

    Ok(crate::OctopusOutput {
        schedule,
        planned_psi: tr.planned_psi(),
        planned_delivered: tr.planned_delivered(),
        iterations,
        matchings_computed,
    })
}

/// A frozen copy of `T^r` for what-if holds: one resolved flow per waiting
/// sub-flow (its packet count as the size, the *original* route so hop
/// weights stay correct) and the route position its packets wait at.
struct Snapshot {
    flows: Vec<ResolvedFlow>,
    start: Vec<u32>,
    weighting: HopWeighting,
}

impl Snapshot {
    fn from_traffic(tr: &RemainingTraffic, weighting: HopWeighting) -> Self {
        let (flows, start) = tr
            .subflows()
            .into_iter()
            .map(|(flow, route, pos, size)| (ResolvedFlow { flow, size, route }, pos))
            .unzip();
        Snapshot {
            flows,
            start,
            weighting,
        }
    }

    /// Holds `edges`, visited in the given order each slot, for `alpha`
    /// slots.
    fn hold(&self, edges: impl IntoIterator<Item = (u32, u32)>, alpha: u64) -> Held {
        let links: Vec<(NodeId, NodeId)> = edges
            .into_iter()
            .map(|(i, j)| (NodeId(i), NodeId(j)))
            .collect();
        hold_links(&self.flows, &self.start, &links, alpha, self.weighting)
    }

    /// The chained movements `(flow, route, from-position, hops advanced,
    /// count)` a hold made, per sub-flow in snapshot order, then by landing
    /// position.
    fn moves(&self, held: &Held) -> Vec<(FlowId, Route, u32, u32, u64)> {
        let mut moves = Vec::new();
        for ((f, &pos), counts) in self.flows.iter().zip(&self.start).zip(&held.counts) {
            for (end, &count) in counts.iter().enumerate().skip(pos as usize + 1) {
                if count > 0 {
                    moves.push((f.flow, f.route.clone(), pos, end as u32 - pos, count));
                }
            }
        }
        moves
    }
}

/// Greedy edge-by-edge matching on chain-aware benefit: repeatedly add the
/// port-compatible fabric edge with the largest positive marginal benefit.
#[expect(
    clippy::float_cmp,
    reason = "bit-equal marginals tie and break on the smaller (i, j)"
)]
fn greedy_chain_matching(snap: &Snapshot, net: &Network, alpha: u64) -> (Vec<(u32, u32)>, f64) {
    // Candidate edges: any hop appearing in a remaining route (others can
    // never carry traffic this configuration).
    // Sorted + deduped, not a HashSet (`clippy::iter_over_hash_type`): the
    // greedy loop below iterates it. The marginal-benefit argmax has an
    // explicit (i, j) tie-break, but a fixed visit order keeps float
    // summation order reproducible too.
    let mut cands: Vec<(u32, u32)> = Vec::new();
    for (f, &pos) in snap.flows.iter().zip(&snap.start) {
        for x in pos..f.route.hops() {
            let (a, b) = f.route.hop(x);
            if net.has_edge(a, b) {
                cands.push((a.0, b.0));
            }
        }
    }
    cands.sort_unstable();
    cands.dedup();
    let mut chosen: Vec<(u32, u32)> = Vec::new();
    let mut used_out: HashSet<u32> = HashSet::new();
    let mut used_in: HashSet<u32> = HashSet::new();
    let mut current = 0.0;
    loop {
        let mut best: Option<((u32, u32), f64)> = None;
        for &(i, j) in &cands {
            if used_out.contains(&i) || used_in.contains(&j) {
                continue;
            }
            // The chosen edges in ascending order, then the trial edge: the
            // hold visits links in this order, which fixes ψ's summation
            // order and so which of two bit-close marginals wins.
            let b = snap.hold(chosen.iter().copied().chain([(i, j)]), alpha).psi;
            let marginal = b - current;
            if marginal > 1e-12
                && best.as_ref().map_or(true, |&(be, bm)| {
                    marginal > bm || (marginal == bm && (i, j) < be)
                })
            {
                best = Some(((i, j), marginal));
            }
        }
        let Some(((i, j), marginal)) = best else {
            break;
        };
        chosen.push((i, j));
        chosen.sort_unstable();
        used_out.insert(i);
        used_in.insert(j);
        current += marginal;
    }
    // Recompute the exact benefit of the final set (marginals accumulated
    // float error is negligible, but exactness is cheap).
    let benefit = if chosen.is_empty() {
        0.0
    } else {
        snap.hold(chosen.iter().copied(), alpha).psi
    };
    (chosen, benefit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_net::topology;
    use octopus_traffic::Flow;

    fn cfg(window: u64, delta: u64) -> crate::OctopusConfig {
        crate::OctopusConfig {
            window,
            delta,
            ..crate::OctopusConfig::default()
        }
    }

    #[test]
    fn chains_deliver_in_one_configuration() {
        // A 2-hop flow and a big delta: the chain-aware variant can finish in
        // ONE configuration where plain Octopus needs two (and two deltas).
        let net = topology::ring(3).unwrap();
        let load = TrafficLoad::new(vec![Flow::single(
            FlowId(1),
            20,
            Route::from_ids([0, 1, 2]).unwrap(),
        )])
        .unwrap();
        let out = octopus_multihop(&net, &load, &cfg(200, 50)).unwrap();
        assert_eq!(out.planned_delivered, 20);
        assert_eq!(
            out.iterations, 1,
            "both hops active in one configuration, packets chain through"
        );
        let plain = crate::octopus(&net, &load, &cfg(200, 50)).unwrap();
        assert!(plain.iterations >= 2);
        // Chained variant pays one delta instead of two.
        assert!(out.schedule.total_cost(50) <= plain.schedule.total_cost(50),);
    }

    #[test]
    fn competing_chains_share_links() {
        // Two flows both need link (1,2): chain-aware benefit must not
        // double-count its capacity.
        let net = topology::complete(4);
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 10, Route::from_ids([0, 1, 2]).unwrap()),
            Flow::single(FlowId(2), 10, Route::from_ids([3, 1, 2]).unwrap()),
        ])
        .unwrap();
        let out = octopus_multihop(&net, &load, &cfg(500, 5)).unwrap();
        assert_eq!(out.planned_delivered, 20);
        out.schedule.validate(Some(&net)).unwrap();
    }

    #[test]
    fn matches_plain_octopus_on_one_hop_loads() {
        let net = topology::complete(4);
        let load = TrafficLoad::new(vec![
            Flow::single(FlowId(1), 12, Route::from_ids([0, 1]).unwrap()),
            Flow::single(FlowId(2), 8, Route::from_ids([2, 3]).unwrap()),
        ])
        .unwrap();
        let a = octopus_multihop(&net, &load, &cfg(100, 5)).unwrap();
        let b = crate::octopus(&net, &load, &cfg(100, 5)).unwrap();
        assert_eq!(a.planned_delivered, b.planned_delivered);
    }

    #[test]
    fn hold_benefit_counts_weighted_hops() {
        let load = TrafficLoad::new(vec![Flow::single(
            FlowId(1),
            4,
            Route::from_ids([0, 1, 2]).unwrap(),
        )])
        .unwrap();
        let tr = RemainingTraffic::new(&load, HopWeighting::Uniform).unwrap();
        let snap = Snapshot::from_traffic(&tr, HopWeighting::Uniform);
        // Both hops active for 5 slots: 4 packets × 2 hops × 1/2 = 4.0.
        let held = snap.hold([(0, 1), (1, 2)], 5);
        assert!((held.psi - 4.0).abs() < 1e-9);
        let route = Route::from_ids([0, 1, 2]).unwrap();
        assert_eq!(snap.moves(&held), vec![(FlowId(1), route.clone(), 0, 2, 4)]);
        // Only the first hop: 4 × 1/2, every packet parked at node 1.
        let held = snap.hold([(0, 1)], 5);
        assert!((held.psi - 2.0).abs() < 1e-9);
        assert_eq!(snap.moves(&held), vec![(FlowId(1), route, 0, 1, 4)]);
    }
}
