//! Schedule parity for the nested-`BTreeMap` → arena/CSR state conversion.
//!
//! PR 6 flattened `RemainingTraffic` + `LinkQueues` from
//! `BTreeMap<(u32,u32), BTreeMap<(u32,u32), u64>>` bookkeeping into interned
//! `LinkId`s over sorted key vectors and a contiguous queue-entry arena with
//! per-link `(offset, len)` spans. The refactor must be *behavior-preserving*:
//! both representations iterate the same `(u32, u32)` total order and
//! accumulate floats in the same sequence, so schedules have to come out
//! **bit-identical** — `==` on every `f64`, no epsilon.
//!
//! Following the shadow-reimplementation pattern of the PR 5 parity suite,
//! this test quarantines a faithful port of the pre-flat tree bookkeeping
//! ([`TreeTraffic`]: same algorithms, same sort keys, same summation order,
//! nested ordered maps) and drives it through the identical
//! [`ScheduleEngine`] greedy loop — including the per-commit `refresh_link`
//! patch path — under **every** [`SearchPolicy`] variant: {exhaustive,
//! binary} × {smallest-α, largest-α tie-break}.
//! Every iteration's `BestChoice` and the final ψ/delivered accounting must
//! match exactly.

use octopus_core::{
    AlphaSearch, BipartiteFabric, CandidateExtension, LinkQueues, MatchingKind, RemainingTraffic,
    ScheduleEngine, SearchPolicy, TrafficSource,
};
use octopus_net::NodeId;
use octopus_traffic::{Flow, FlowId, HopWeighting, Route, TrafficLoad, Weight};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{BTreeMap, HashSet};

/// One waiting packet group: weight, flow ID, flow index, position, count.
type Entry = (Weight, FlowId, u32, u32, u64);

/// The pre-flat `T^r`: the planned-traffic multiset in the nested ordered
/// maps the seed code used — link key → per-(flow index, position) counts.
struct TreeTraffic {
    flows: Vec<(FlowId, Route, u32)>,
    counts: BTreeMap<(u32, u32), BTreeMap<(u32, u32), u64>>,
    weighting: HopWeighting,
    delivered: u64,
    total: u64,
    psi: f64,
}

fn link_of(route: &Route, pos: u32) -> (u32, u32) {
    let (i, j) = route.hop(pos);
    (i.0, j.0)
}

impl TreeTraffic {
    fn new(load: &TrafficLoad, weighting: HopWeighting) -> Self {
        let mut flows = Vec::new();
        let mut counts: BTreeMap<(u32, u32), BTreeMap<(u32, u32), u64>> = BTreeMap::new();
        for (fi, f) in load.flows().iter().enumerate() {
            assert_eq!(f.routes.len(), 1, "parity test uses single-route loads");
            let route = f.routes[0].clone();
            let hops = route.hops();
            if f.size > 0 {
                counts
                    .entry(link_of(&route, 0))
                    .or_default()
                    .insert((fi as u32, 0), f.size);
            }
            flows.push((f.id, route, hops));
        }
        TreeTraffic {
            flows,
            counts,
            weighting,
            delivered: 0,
            total: load.total_packets(),
            psi: 0.0,
        }
    }

    /// Entries waiting on `link`, in ascending (flow index, position) order —
    /// exactly the inner tree's iteration order.
    fn entries_on(&self, link: (u32, u32)) -> Option<Vec<Entry>> {
        let per_link = self.counts.get(&link)?;
        let entries: Vec<Entry> = per_link
            .iter()
            .map(|(&(fi, pos), &count)| {
                let (id, _, hops) = self.flows[fi as usize];
                (self.weighting.hop_weight(hops, pos), id, fi, pos, count)
            })
            .collect();
        (!entries.is_empty()).then_some(entries)
    }

    fn add(&mut self, fi: u32, pos: u32, count: u64) {
        if count == 0 {
            return;
        }
        let link = link_of(&self.flows[fi as usize].1, pos);
        *self
            .counts
            .entry(link)
            .or_default()
            .entry((fi, pos))
            .or_insert(0) += count;
    }

    fn sub(&mut self, fi: u32, pos: u32, count: u64) {
        let link = link_of(&self.flows[fi as usize].1, pos);
        let per_link = self.counts.get_mut(&link).expect("packets wait on link");
        let c = per_link
            .get_mut(&(fi, pos))
            .expect("packets wait at (fi, pos)");
        *c -= count;
        if *c == 0 {
            per_link.remove(&(fi, pos));
            if per_link.is_empty() {
                self.counts.remove(&link);
            }
        }
    }
}

impl TrafficSource for TreeTraffic {
    fn snapshot_queues(&self, n: u32) -> LinkQueues {
        // Tree-ordered triples: links ascending, entries per link ascending —
        // the order the pre-flat snapshot builder walked.
        LinkQueues::from_weighted_counts(
            n,
            self.counts.iter().flat_map(|(&link, per_link)| {
                per_link.iter().map(move |(&(fi, pos), &count)| {
                    let (_, _, hops) = self.flows[fi as usize];
                    (link, self.weighting.hop_weight(hops, pos).value(), count)
                })
            }),
        )
    }

    fn apply_served(&mut self, served: &[(NodeId, NodeId, u64)]) -> Option<Vec<(u32, u32)>> {
        // The pre-flat `apply_budgets_tracked`: collect movements (top-α by
        // weight desc, flow ID asc, flow index asc), then commit them,
        // accumulating ψ in movement order.
        let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
        let mut moves: Vec<(u32, u32, u64, f64)> = Vec::new();
        for &(i, j, link_budget) in served {
            if !seen.insert((i, j)) {
                continue;
            }
            let Some(mut cands) = self.entries_on((i.0, j.0)) else {
                continue;
            };
            cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            let mut budget = link_budget;
            for (w, _, fi, pos, count) in cands {
                if budget == 0 {
                    break;
                }
                let take = count.min(budget);
                budget -= take;
                moves.push((fi, pos, take, w.value()));
            }
        }
        let mut gained = 0.0;
        for &(fi, pos, take, w) in &moves {
            self.sub(fi, pos, take);
            let hops = self.flows[fi as usize].2;
            let new_pos = pos + 1;
            if new_pos == hops {
                self.delivered += take;
            } else {
                self.add(fi, new_pos, take);
            }
            gained += w * take as f64;
        }
        self.psi += gained;
        let mut dirty: Vec<(u32, u32)> = Vec::with_capacity(moves.len() * 2);
        for &(fi, pos, _, _) in &moves {
            let (_, ref route, hops) = self.flows[fi as usize];
            dirty.push(link_of(route, pos));
            if pos + 1 < hops {
                dirty.push(link_of(route, pos + 1));
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        Some(dirty)
    }

    fn refresh_link(&self, link: (u32, u32), out: &mut Vec<(f64, u64)>) {
        if let Some(entries) = self.entries_on(link) {
            out.extend(
                entries
                    .into_iter()
                    .map(|(w, _, _, _, count)| (w.value(), count)),
            );
        }
    }

    fn is_drained(&self) -> bool {
        self.delivered == self.total
    }
}

/// Strategy: a small fabric size plus a random single-route multihop load.
fn instance() -> impl Strategy<Value = (u32, TrafficLoad, u64, u64)> {
    (4u32..9)
        .prop_flat_map(|n| {
            let flows =
                prop::collection::vec((0u32..n, 0u32..n, 1u64..60, 0u32..3u32, 0u32..n), 1..10);
            (Just(n), flows, 150u64..1200, 0u64..30)
        })
        .prop_map(|(n, raw, window, delta)| {
            let mut flows = Vec::new();
            let mut id = 0u64;
            for (src, dst, size, extra_hops, via) in raw {
                if src == dst {
                    continue;
                }
                let mut nodes = vec![src];
                if extra_hops >= 1 && via != src && via != dst {
                    nodes.push(via);
                }
                if extra_hops >= 2 {
                    let w = (via + 1) % n;
                    if w != src && w != dst && !nodes.contains(&w) {
                        nodes.push(w);
                    }
                }
                nodes.push(dst);
                if let Ok(route) = Route::from_ids(nodes) {
                    flows.push(Flow::single(FlowId(id), size, route));
                    id += 1;
                }
            }
            (
                n,
                TrafficLoad::new(flows).expect("sequential ids"),
                window,
                delta,
            )
        })
        .prop_filter(
            "need at least one flow and room for a config",
            |(_, load, w, d)| !load.is_empty() && *w > *d + 1,
        )
}

/// Every `SearchPolicy` variant: {Exhaustive, Binary} × {smaller-α,
/// larger-α preference}.
fn all_policies() -> Vec<SearchPolicy> {
    let mut out = Vec::new();
    for search in [AlphaSearch::Exhaustive, AlphaSearch::Binary] {
        for prefer_larger_alpha in [false, true] {
            out.push(SearchPolicy {
                search,
                prefer_larger_alpha,
                ..SearchPolicy::exhaustive()
            });
        }
    }
    out
}

/// Runs the full greedy loop on both representations, comparing every
/// iteration's selection and the final accounting bit-for-bit.
fn assert_parity(
    n: u32,
    load: &TrafficLoad,
    window: u64,
    delta: u64,
    kind: MatchingKind,
    policy: &SearchPolicy,
) -> Result<(), TestCaseError> {
    let mut flat = RemainingTraffic::new(load, HopWeighting::Uniform).unwrap();
    let mut tree = TreeTraffic::new(load, HopWeighting::Uniform);
    let fabric = BipartiteFabric { kind };
    {
        let mut ea = ScheduleEngine::new(&mut flat, n, delta);
        let mut eb = ScheduleEngine::new(&mut tree, n, delta);
        let mut used = 0u64;
        while !ea.is_drained() && used + delta < window {
            let budget = window - used - delta;
            let ca = ea.select(&fabric, budget, CandidateExtension::None, policy);
            let cb = eb.select(&fabric, budget, CandidateExtension::None, policy);
            prop_assert_eq!(
                &ca,
                &cb,
                "selection diverged at used = {} under {:?}",
                used,
                policy
            );
            let Some(choice) = ca else { break };
            ea.commit(&fabric, &choice.matching, choice.alpha).unwrap();
            eb.commit(&fabric, &choice.matching, choice.alpha).unwrap();
            used += choice.alpha + delta;
        }
        prop_assert_eq!(ea.is_drained(), eb.is_drained());
    }
    prop_assert_eq!(flat.planned_delivered(), tree.delivered);
    // Bit-identical ψ: same movements, same floating-point summation order.
    prop_assert_eq!(flat.planned_psi().to_bits(), tree.psi.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn flat_state_matches_tree_exact_all_policies(
        (n, load, window, delta) in instance()
    ) {
        for policy in all_policies() {
            assert_parity(n, &load, window, delta, MatchingKind::Exact, &policy)?;
        }
    }

    #[test]
    fn flat_state_matches_tree_greedy_all_policies(
        (n, load, window, delta) in instance()
    ) {
        // The greedy kernels take the non-sweep evaluation path; parity must
        // hold there too.
        for policy in all_policies() {
            assert_parity(n, &load, window, delta, MatchingKind::GreedySort, &policy)?;
        }
    }

    #[test]
    fn flat_state_matches_tree_bucket_greedy(
        (n, load, window, delta) in instance()
    ) {
        let scale = octopus_traffic::weight::weight_scale(load.max_route_hops());
        assert_parity(
            n, &load, window, delta,
            MatchingKind::BucketGreedy { scale },
            &SearchPolicy::exhaustive(),
        )?;
    }
}
