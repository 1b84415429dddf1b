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
//! The chain-aware benefit of an edge set is evaluated by a slot-accurate
//! mini-simulation of the configuration against `T^r` (switch latency of one
//! slot, the §5 feasibility argument). This is a faithful but deliberately
//! reference-grade implementation — each greedy step is
//! `O(candidate-edges × α × |F|)` — intended for modest instances; the
//! headline experiments use the one-hop-per-configuration bookkeeping whose
//! guarantee Theorem 1 covers.

use crate::best_config::BestChoice;
use crate::engine::{CandidateExtension, ScheduleEngine, SearchPolicy};
use crate::flatmap::VecMap;
use crate::{check_window, RemainingTraffic, SchedError};
use octopus_net::{Configuration, Matching, Network, Schedule};
use octopus_traffic::{FlowId, HopWeighting, Route, TrafficLoad, Weight};
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
        let Some(choice) =
            engine.select_with(budget, CandidateExtension::Lead(lead), &policy, &eval)
        else {
            break;
        };
        matchings_computed += choice.matchings_computed;
        iterations += 1;
        // Advance the plan with chaining: packets move as the mini-sim says.
        let moved = snap.simulate(&choice.matching, choice.alpha).moves;
        engine.commit_chained(&moved)?;
        let Ok(matching) = Matching::new_free(choice.matching.iter().copied()) else {
            debug_assert!(false, "kernel matchings keep ports free");
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

/// A frozen copy of `T^r` for what-if evaluation.
struct Snapshot {
    /// `(flow id, route, position, count)` with the *original* route (so hop
    /// weights stay correct) — one entry per sub-flow.
    entries: Vec<(FlowId, Route, u32, u64)>,
    weighting: HopWeighting,
}

/// Outcome of a mini-simulation.
/// Priority key inside the mini-simulation: weight, flow ID, entry index.
type PrioEntry = (Weight, FlowId, usize);

struct ChainOutcome {
    benefit: f64,
    /// `(entry index, hops advanced, count)` — how far each sub-flow's
    /// packets got.
    moves: Vec<(FlowId, Route, u32, u32, u64)>,
}

impl Snapshot {
    fn from_traffic(tr: &RemainingTraffic, weighting: HopWeighting) -> Self {
        Snapshot {
            entries: tr.subflows(),
            weighting,
        }
    }

    /// Slot-accurate simulation of holding `edges` for `alpha` slots with
    /// chaining (switch latency 1). Returns weighted benefit and the
    /// per-sub-flow advancement.
    fn simulate(&self, edges: &[(u32, u32)], alpha: u64) -> ChainOutcome {
        // Queue state: key (entry idx, current pos) -> available count.
        let mut avail: VecMap<(usize, u32), u64> = VecMap::new();
        for (idx, &(_, _, pos, count)) in self.entries.iter().enumerate() {
            *avail.get_or_insert((idx, pos), 0) += count;
        }
        // Pending arrivals: (due slot) -> [(entry, pos, count)].
        let mut pending: VecMap<u64, Vec<(usize, u32, u64)>> = VecMap::new();
        let edge_set: Vec<(u32, u32)> = edges.to_vec();
        let mut benefit = 0.0;
        // advanced[(idx, final_pos)] tracked at the end from avail/pending.
        for t in 0..alpha {
            // Admit due arrivals (a sorted prefix of the pending map).
            while let Some((_, batch)) = pending.pop_first_if(|&due| due <= t) {
                for (idx, pos, c) in batch {
                    *avail.get_or_insert((idx, pos), 0) += c;
                }
            }
            for &(i, j) in &edge_set {
                // Highest-priority waiting packet whose next hop is (i, j).
                let mut bestk: Option<(PrioEntry, (usize, u32))> = None;
                for &((idx, pos), c) in avail.iter() {
                    if c == 0 {
                        continue;
                    }
                    let (fid, route, _, _) = &self.entries[idx];
                    if pos >= route.hops() {
                        continue;
                    }
                    let (a, b) = route.hop(pos);
                    if (a.0, b.0) != (i, j) {
                        continue;
                    }
                    let w = self.weighting.hop_weight(route.hops(), pos);
                    let key = (w, *fid, idx);
                    let better = match &bestk {
                        None => true,
                        Some((bk, _)) => {
                            key.0 > bk.0 || (key.0 == bk.0 && (key.1, key.2) < (bk.1, bk.2))
                        }
                    };
                    if better {
                        bestk = Some((key, (idx, pos)));
                    }
                }
                if let Some((key, (idx, pos))) = bestk {
                    let Some(c) = avail.get_mut(&(idx, pos)) else {
                        debug_assert!(false, "argmax candidate came from avail");
                        continue;
                    };
                    *c -= 1;
                    benefit += key.0.value();
                    let route = &self.entries[idx].1;
                    let new_pos = pos + 1;
                    if new_pos >= route.hops() {
                        // Delivered: park at the terminal position.
                        *avail.get_or_insert((idx, new_pos), 0) += 1;
                    } else {
                        pending
                            .get_or_insert_with(t + 1, Vec::new)
                            .push((idx, new_pos, 1));
                    }
                }
            }
        }
        // Flush pending into avail for final positions.
        for (_, batch) in pending {
            for (idx, pos, c) in batch {
                *avail.get_or_insert((idx, pos), 0) += c;
            }
        }
        // Derive per-entry movement: packets of entry idx that ended at pos'
        // >= original pos moved (pos' - pos) hops.
        let mut moves = Vec::new();
        for &((idx, pos_end), c) in avail.iter() {
            if c == 0 {
                continue;
            }
            let (fid, route, pos0, _) = &self.entries[idx];
            if pos_end > *pos0 {
                moves.push((*fid, route.clone(), *pos0, pos_end - *pos0, c));
            }
        }
        ChainOutcome { benefit, moves }
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
    for (_, route, pos, _) in &snap.entries {
        for x in *pos..route.hops() {
            let (a, b) = route.hop(x);
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
            let mut trial = chosen.clone();
            trial.push((i, j));
            let b = snap.simulate(&trial, alpha).benefit;
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
        snap.simulate(&chosen, alpha).benefit
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
    fn mini_sim_benefit_counts_weighted_hops() {
        let load = TrafficLoad::new(vec![Flow::single(
            FlowId(1),
            4,
            Route::from_ids([0, 1, 2]).unwrap(),
        )])
        .unwrap();
        let tr = RemainingTraffic::new(&load, HopWeighting::Uniform).unwrap();
        let snap = Snapshot::from_traffic(&tr, HopWeighting::Uniform);
        // Both hops active for 5 slots: 4 packets × 2 hops × 1/2 = 4.0.
        let out = snap.simulate(&[(0, 1), (1, 2)], 5);
        assert!((out.benefit - 4.0).abs() < 1e-9);
        // Only the first hop: 4 × 1/2.
        let out1 = snap.simulate(&[(0, 1)], 5);
        assert!((out1.benefit - 2.0).abs() < 1e-9);
    }
}
