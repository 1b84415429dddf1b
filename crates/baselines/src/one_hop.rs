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
    AlphaSearch, BipartiteFabric, MatchingKind, ScheduleEngine, SearchPolicy, TrafficSource,
};
use octopus_net::{NodeId, Schedule};
use octopus_traffic::Weight;
use serde::{Deserialize, Serialize};

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
    let source = DemandSource::new(demands);
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

/// [`TrafficSource`] over explicit one-hop demands. Its links are fixed at
/// load and numbered in key order. Serving a link only drains that link's
/// own demands, so the dirty set of a commit is exactly the matched links —
/// the engine re-derives those queues and leaves the rest of the snapshot
/// untouched.
struct DemandSource<'a> {
    demands: &'a [OneHopDemand],
    /// Every link some demand waits on, ascending: `LinkId` `li` is
    /// `keys[li]`.
    keys: Vec<(u32, u32)>,
    /// Per `LinkId`: its demand indices, sorted by (weight desc, tag asc) —
    /// the priority order packets drain in.
    by_link: Vec<Vec<usize>>,
    remaining: Vec<u64>,
    /// Demands with packets left, so that draining is one comparison.
    undrained: usize,
    served: Vec<u64>,
    psi: f64,
}

impl<'a> DemandSource<'a> {
    fn new(demands: &'a [OneHopDemand]) -> Self {
        // (link, demand index) pairs, by link, then (weight desc, tag asc).
        let mut by_key: Vec<((u32, u32), usize)> = demands
            .iter()
            .enumerate()
            .filter(|(_, d)| d.size > 0 && d.weight > 0.0 && d.src != d.dst)
            .map(|(idx, d)| ((d.src.0, d.dst.0), idx))
            .collect();
        by_key.sort_by(|&(la, a), &(lb, b)| {
            la.cmp(&lb)
                .then(Weight(demands[b].weight).cmp(&Weight(demands[a].weight)))
                .then(demands[a].tag.cmp(&demands[b].tag))
                .then(a.cmp(&b))
        });
        let (mut keys, mut by_link) = (Vec::new(), Vec::new());
        for group in by_key.chunk_by(|a, b| a.0 == b.0) {
            keys.push(group[0].0);
            by_link.push(group.iter().map(|&(_, idx)| idx).collect());
        }
        DemandSource {
            demands,
            keys,
            by_link,
            remaining: demands.iter().map(|d| d.size).collect(),
            undrained: demands.iter().filter(|d| d.size > 0).count(),
            served: vec![0u64; demands.len()],
            psi: 0.0,
        }
    }
}

impl TrafficSource for DemandSource<'_> {
    fn apply_served(&mut self, budgets: &[(NodeId, NodeId, u64)], dirty: &mut Vec<u32>) {
        for &(i, j, alpha) in budgets {
            let Ok(li) = self.keys.binary_search(&(i.0, j.0)) else {
                continue;
            };
            let mut left = alpha;
            for &idx in &self.by_link[li] {
                if left == 0 {
                    break;
                }
                let take = self.remaining[idx].min(left);
                if take == 0 {
                    continue;
                }
                self.remaining[idx] -= take;
                if self.remaining[idx] == 0 {
                    self.undrained -= 1;
                }
                self.served[idx] += take;
                left -= take;
                self.psi += self.demands[idx].weight * take as f64;
            }
            dirty.push(li as u32);
        }
        dirty.sort_unstable();
        dirty.dedup();
    }

    fn link_keys(&self) -> &[(u32, u32)] {
        &self.keys
    }

    fn refresh_link(&self, li: u32, out: &mut Vec<(f64, u64)>) {
        out.extend(
            self.by_link[li as usize]
                .iter()
                .map(|&i| (self.demands[i].weight, self.remaining[i])),
        );
    }

    fn is_drained(&self) -> bool {
        self.undrained == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_core::{CandidateExtension, LinkQueues};
    use proptest::prelude::*;

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

    /// A snapshot read back as `(key, classes)` per live link, weights as
    /// bits.
    type ClassBits = Vec<((u32, u32), Vec<(u64, u64)>)>;

    /// [`ClassBits`] of `q` for the links numbered by `keys` (id order).
    fn classes_by_key(q: &LinkQueues, keys: &[(u32, u32)]) -> ClassBits {
        (0u32..)
            .zip(keys)
            .filter_map(|(li, &key)| {
                let classes = q.link(li)?.classes();
                Some((
                    key,
                    classes.iter().map(|&(w, c)| (w.to_bits(), c)).collect(),
                ))
            })
            .collect()
    }

    /// Plans one window commit by commit, as [`one_hop_schedule`] does,
    /// and after every commit checks the patched snapshot against a cold
    /// one of the same demands ([`LinkQueues::from_source`]) and one built
    /// from every demand's `(link, weight, packets left)` triple: `links()`
    /// equal, every class equal bit for bit. Returns the number of commits.
    fn assert_patches_match_cold(
        n: u32,
        demands: &[OneHopDemand],
        window: u64,
        delta: u64,
    ) -> usize {
        let mut engine = ScheduleEngine::new(DemandSource::new(demands), n, delta);
        let fabric = BipartiteFabric {
            kind: MatchingKind::Exact,
        };
        let (policy, mut used, mut commits) = (SearchPolicy::exhaustive(), 0, 0);
        while !engine.is_drained() && used + delta < window {
            let budget = window - used - delta;
            let ext = CandidateExtension::None;
            let Some(choice) = engine.select(&fabric, budget, ext, &policy) else {
                break;
            };
            engine
                .commit(&fabric, &choice.matching, choice.alpha)
                .unwrap();
            used += choice.alpha + delta;
            commits += 1;
            let src = engine.source();
            let cold = LinkQueues::from_source(src, n);
            let triples = src.keys.iter().zip(&src.by_link).flat_map(|(&key, idxs)| {
                idxs.iter()
                    .map(move |&i| (key, src.demands[i].weight, src.remaining[i]))
            });
            let fresh = LinkQueues::from_weighted_counts(n, triples);
            let keys = src.keys.clone();
            let patched = engine.queues();
            let links: Vec<(u32, u32)> = patched.links().collect();
            assert_eq!(links, cold.links().collect::<Vec<_>>(), "commit {commits}");
            assert_eq!(links, fresh.links().collect::<Vec<_>>(), "commit {commits}");
            let got = classes_by_key(patched, &keys);
            assert_eq!(got, classes_by_key(&cold, &keys), "commit {commits}");
            assert_eq!(got, classes_by_key(&fresh, &keys), "commit {commits}");
        }
        commits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Patched snapshots equal cold ones after every commit, on random
        /// demands.
        #[test]
        fn patched_snapshots_match_cold_snapshots(
            n in 2u32..=12,
            raw in prop::collection::vec(((0u32..12, 0u32..12), 0u64..60, 1u32..5, 0u64..8), 0..40),
            window in 50u64..1_000,
            delta in 0u64..20,
        ) {
            // Weights 1/k, as the UB run uses; tags repeat, so ties happen.
            let demands: Vec<OneHopDemand> = raw
                .iter()
                .map(|&((s, t), size, k, tag)| d(s % n, t % n, size, 1.0 / f64::from(k), tag))
                .collect();
            assert_patches_match_cold(n, &demands, window, delta);
        }
    }

    /// [`patched_snapshots_match_cold_snapshots`] at a real size: the UB
    /// run's demands (one per hop of every flow, weighted 1/hops) of a
    /// paper-default load on complete n = 64, W = 10 000, Δ = 20.
    #[test]
    #[ignore = "real-size oracle; run in release with --ignored"]
    fn patched_snapshots_match_cold_snapshots_at_real_size() {
        use octopus_traffic::synthetic::{generate, SyntheticConfig};
        use rand::{rngs::StdRng, SeedableRng};
        let net = octopus_net::topology::complete(64);
        for seed in 1..=2 {
            let synth = SyntheticConfig::paper_default(64, 10_000);
            let load = generate(&synth, &net, &mut StdRng::seed_from_u64(seed));
            let demands: Vec<OneHopDemand> = load
                .flows()
                .iter()
                .flat_map(|f| {
                    let (route, id) = (&f.routes[0], f.id.0);
                    let hops = route.hops();
                    (0..hops).map(move |k| {
                        let (src, dst) = route.hop(k);
                        let weight = 1.0 / f64::from(hops);
                        d(src.0, dst.0, f.size, weight, id * 8 + u64::from(k))
                    })
                })
                .collect();
            let commits = assert_patches_match_cold(64, &demands, 10_000, 20);
            assert!(commits > 10, "seed {seed}: {commits} commits");
        }
    }
}
