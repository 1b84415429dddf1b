//! The generic weighted one-hop greedy scheduler — Eclipse's core.
//!
//! For one-hop traffic, Octopus's machinery *is* Eclipse: iteratively pick
//! the configuration `(M, α)` with maximum served-weight per unit cost,
//! where serving a link just drains its demand. This module runs that loop
//! on explicit one-hop demands with caller-chosen per-packet weights, and
//! reports how many packets of **each individual demand** were served —
//! which is what the UB upper bound needs to decide whether all hops of a
//! multi-hop packet were covered.

use octopus_core::{
    AlphaSearch, BipartiteFabric, LinkQueues, MatchingKind, ScheduleEngine, SearchPolicy,
    TrafficSource,
};
use octopus_net::{NodeId, Schedule};
use octopus_traffic::Weight;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One one-hop demand: `size` packets of per-packet `weight` on link
/// `(src, dst)`. The `tag` survives into the per-demand service report
/// (callers use it to map hops back to multi-hop flows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OneHopDemand {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Packets demanded.
    pub size: u64,
    /// Per-packet weight (1.0 for plain Eclipse; `1/k` for the UB run).
    pub weight: f64,
    /// Caller-chosen identifier; also the priority tie-breaker (lower tag =
    /// higher priority), mirroring the flow-ID rule.
    pub tag: u64,
}

/// Result of a one-hop scheduling run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OneHopOutput {
    /// The chosen configuration sequence (total cost ≤ window).
    pub schedule: Schedule,
    /// Packets served per demand, indexed like the input slice.
    pub served: Vec<u64>,
    /// Total served weight (the run's ψ).
    pub psi: f64,
}

/// Runs the Eclipse greedy loop over one-hop demands.
///
/// Each iteration selects the `(M, α)` maximizing served weight per unit
/// cost (`Δ` included), then drains up to α packets per matched link in
/// (weight, tag) priority order — exactly Octopus restricted to 𝒟 = 1.
pub fn one_hop_schedule(
    n: u32,
    demands: &[OneHopDemand],
    delta: u64,
    window: u64,
    alpha_search: AlphaSearch,
    matching: MatchingKind,
) -> OneHopOutput {
    // Demand indices per link, pre-sorted by (weight desc, tag asc).
    let mut by_link: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
    for (idx, d) in demands.iter().enumerate() {
        if d.size > 0 && d.weight > 0.0 && d.src != d.dst {
            by_link.entry((d.src.0, d.dst.0)).or_default().push(idx);
        }
    }
    for list in by_link.values_mut() {
        list.sort_by(|&a, &b| {
            Weight(demands[b].weight)
                .cmp(&Weight(demands[a].weight))
                .then(demands[a].tag.cmp(&demands[b].tag))
                .then(a.cmp(&b))
        });
    }

    let source = DemandSource {
        demands,
        by_link,
        remaining: demands.iter().map(|d| d.size).collect(),
        served: vec![0u64; demands.len()],
        psi: 0.0,
    };
    let policy = SearchPolicy {
        search: alpha_search,
        ..SearchPolicy::exhaustive()
    };
    let mut engine = ScheduleEngine::new(source, n, delta);
    let run = engine.plan_window(&mut BipartiteFabric { kind: matching }, &policy, window);
    let schedule = match run {
        Ok(run) => run.schedule,
        Err(e) => {
            // Unreachable with the shipped kernels (they emit matchings).
            debug_assert!(false, "kernel output failed to realize: {e}");
            Schedule::new()
        }
    };
    let source = engine.into_source();
    OneHopOutput {
        schedule,
        served: source.served,
        psi: source.psi,
    }
}

/// [`TrafficSource`] over explicit one-hop demands. Serving a link only
/// drains that link's own demands, so the dirty set of a commit is exactly
/// the matched links — the engine re-derives those queues and leaves the
/// rest of the snapshot untouched.
struct DemandSource<'a> {
    demands: &'a [OneHopDemand],
    /// Demand indices per link, sorted by (weight desc, tag asc) — the
    /// priority order packets drain in.
    by_link: BTreeMap<(u32, u32), Vec<usize>>,
    remaining: Vec<u64>,
    served: Vec<u64>,
    psi: f64,
}

impl TrafficSource for DemandSource<'_> {
    fn snapshot_queues(&self, n: u32) -> LinkQueues {
        let rem = &self.remaining;
        LinkQueues::from_weighted_counts(
            n,
            self.by_link.iter().flat_map(|(&link, idxs)| {
                idxs.iter().filter_map(move |&i| {
                    (rem[i] > 0).then_some((link, self.demands[i].weight, rem[i]))
                })
            }),
        )
    }

    fn apply_served(
        &mut self,
        budgets: &[(NodeId, NodeId, u64)],
        dirty: &mut Vec<(u32, u32)>,
    ) -> bool {
        for &(i, j, alpha) in budgets {
            let Some(idxs) = self.by_link.get(&(i.0, j.0)) else {
                continue;
            };
            let mut left = alpha;
            for &idx in idxs {
                if left == 0 {
                    break;
                }
                let take = self.remaining[idx].min(left);
                if take == 0 {
                    continue;
                }
                self.remaining[idx] -= take;
                self.served[idx] += take;
                left -= take;
                self.psi += self.demands[idx].weight * take as f64;
            }
            dirty.push((i.0, j.0));
        }
        dirty.sort_unstable();
        dirty.dedup();
        true
    }

    fn refresh_link(&self, link: (u32, u32), out: &mut Vec<(f64, u64)>) {
        if let Some(idxs) = self.by_link.get(&link) {
            out.extend(
                idxs.iter()
                    .map(|&i| (self.demands[i].weight, self.remaining[i])),
            );
        }
    }

    fn is_drained(&self) -> bool {
        self.remaining.iter().all(|&r| r == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(src: u32, dst: u32, size: u64, weight: f64, tag: u64) -> OneHopDemand {
        OneHopDemand {
            src: NodeId(src),
            dst: NodeId(dst),
            size,
            weight,
            tag,
        }
    }

    #[test]
    fn serves_parallel_demands_in_one_configuration() {
        let demands = vec![d(0, 1, 30, 1.0, 0), d(2, 3, 30, 1.0, 1)];
        let out = one_hop_schedule(
            4,
            &demands,
            5,
            1_000,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
        );
        assert_eq!(out.served, vec![30, 30]);
        assert_eq!(out.schedule.len(), 1);
        assert!((out.psi - 60.0).abs() < 1e-9);
    }

    #[test]
    fn priority_by_weight_then_tag_on_shared_link() {
        // Same link, limited window: high-weight demand served first.
        let demands = vec![d(0, 1, 50, 0.5, 0), d(0, 1, 50, 1.0, 1)];
        // Window fits roughly one 50-slot configuration (delta 10).
        let out = one_hop_schedule(
            2,
            &demands,
            10,
            61,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
        );
        assert_eq!(out.served[1], 50, "weight-1.0 demand first");
        assert!(out.served[0] <= 1);
    }

    #[test]
    fn tag_breaks_ties() {
        let demands = vec![d(0, 1, 50, 1.0, 7), d(0, 1, 50, 1.0, 3)];
        let out = one_hop_schedule(
            2,
            &demands,
            0,
            50,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
        );
        assert_eq!(out.served, vec![0, 50]);
    }

    #[test]
    fn window_respected() {
        let demands = vec![d(0, 1, 1_000, 1.0, 0)];
        let out = one_hop_schedule(
            2,
            &demands,
            10,
            100,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
        );
        assert!(out.schedule.total_cost(10) <= 100);
        assert_eq!(out.served[0], 90);
    }

    #[test]
    fn contending_links_split_across_configurations() {
        // (0,1) and (0,2) share the out-port: two configurations needed.
        let demands = vec![d(0, 1, 20, 1.0, 0), d(0, 2, 20, 1.0, 1)];
        let out = one_hop_schedule(
            3,
            &demands,
            2,
            1_000,
            AlphaSearch::Exhaustive,
            MatchingKind::Exact,
        );
        assert_eq!(out.served, vec![20, 20]);
        assert!(out.schedule.len() >= 2);
    }

    #[test]
    fn empty_demands() {
        let out = one_hop_schedule(3, &[], 2, 100, AlphaSearch::Exhaustive, MatchingKind::Exact);
        assert!(out.schedule.is_empty());
        assert_eq!(out.psi, 0.0);
    }
}
