//! Schedule parity for the `HashMap` → `BTreeMap` bookkeeping conversion.
//!
//! PR 5 converted `RemainingTraffic`'s link-keyed multiset (and the snapshot
//! builders) from hash maps to ordered maps so that no scheduling path ever
//! iterates a collection in hasher-seed-dependent order
//! (`clippy::iter_over_hash_type`).
//! The conversion must be *behavior-preserving*: the pre-change code was
//! order-insensitive by construction (every iterated collection was either
//! sorted before use or aggregated order-insensitively), so the ordered
//! representation has to produce **bit-identical** schedules.
//!
//! This test keeps a faithful reimplementation of the pre-change
//! `HashMap`-backed bookkeeping ([`HashedTraffic`], same algorithms, same
//! sort keys, same floating-point summation order) and drives it through the
//! identical [`ScheduleEngine`] greedy loop: every iteration's selected
//! `BestChoice` (matching, α, benefit, score) and the final ψ/delivered
//! accounting must match the ordered implementation exactly — `==` on `f64`,
//! no epsilon.

use octopus_core::{
    BipartiteFabric, CandidateExtension, LinkQueues, MatchingKind, RemainingTraffic,
    ScheduleEngine, SearchPolicy, TrafficSource,
};
use octopus_net::NodeId;
use octopus_traffic::{Flow, FlowId, HopWeighting, Route, TrafficLoad, Weight};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{HashMap, HashSet};

/// One waiting packet group: weight, flow ID, flow index, position, count —
/// the pre-change `QueueEntry` layout.
type Entry = (Weight, FlowId, u32, u32, u64);

/// The pre-change `T^r`: the same planned-traffic multiset as
/// [`RemainingTraffic`], stored in `HashMap`s exactly like the seed code
/// (iteration order is whatever the process's hasher seed produces).
struct HashedTraffic {
    flows: Vec<(FlowId, Route, u32)>,
    counts: HashMap<(u32, u32), HashMap<(u32, u32), u64>>,
    weighting: HopWeighting,
    delivered: u64,
    total: u64,
    psi: f64,
}

fn link_of(route: &Route, pos: u32) -> (u32, u32) {
    let (i, j) = route.hop(pos);
    (i.0, j.0)
}

impl HashedTraffic {
    fn new(load: &TrafficLoad, weighting: HopWeighting) -> Self {
        let mut flows = Vec::new();
        let mut counts: HashMap<(u32, u32), HashMap<(u32, u32), u64>> = HashMap::new();
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
        HashedTraffic {
            flows,
            counts,
            weighting,
            delivered: 0,
            total: load.total_packets(),
            psi: 0.0,
        }
    }

    /// Entries waiting on `link`, in whatever order the hash map yields them
    /// — exactly the pre-change behavior. Every consumer either sorts by a
    /// unique key or aggregates order-insensitively.
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

impl TrafficSource for HashedTraffic {
    fn snapshot_queues(&self, n: u32) -> LinkQueues {
        // Hash-ordered triples: `from_weighted_counts` aggregates per link
        // and weight class, which is order-insensitive, so the snapshot is
        // identical to the ordered build.
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
        // The pre-change `apply_budgets_tracked`: collect movements first
        // (top-α by weight, then flow ID — a unique sort key per link, so the
        // hash-ordered candidate list sorts to the same sequence), then
        // commit them, accumulating ψ in movement order.
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
    let mut ordered = RemainingTraffic::new(load, HopWeighting::Uniform).unwrap();
    let mut hashed = HashedTraffic::new(load, HopWeighting::Uniform);
    let fabric = BipartiteFabric { kind };
    {
        let mut ea = ScheduleEngine::new(&mut ordered, n, delta);
        let mut eb = ScheduleEngine::new(&mut hashed, n, delta);
        let mut used = 0u64;
        while !ea.is_drained() && used + delta < window {
            let budget = window - used - delta;
            let ca = ea.select(&fabric, budget, CandidateExtension::None, policy);
            let cb = eb.select(&fabric, budget, CandidateExtension::None, policy);
            prop_assert_eq!(&ca, &cb, "selection diverged at used = {}", used);
            let Some(choice) = ca else { break };
            ea.commit(&fabric, &choice.matching, choice.alpha).unwrap();
            eb.commit(&fabric, &choice.matching, choice.alpha).unwrap();
            used += choice.alpha + delta;
        }
        prop_assert_eq!(ea.is_drained(), eb.is_drained());
    }
    prop_assert_eq!(ordered.planned_delivered(), hashed.delivered);
    // Bit-identical ψ: same movements, same floating-point summation order.
    prop_assert_eq!(ordered.planned_psi().to_bits(), hashed.psi.to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ordered_bookkeeping_matches_hashed_exact(
        (n, load, window, delta) in instance()
    ) {
        assert_parity(
            n, &load, window, delta,
            MatchingKind::Exact,
            &SearchPolicy::exhaustive(),
        )?;
    }

    #[test]
    fn ordered_bookkeeping_matches_hashed_greedy(
        (n, load, window, delta) in instance()
    ) {
        // The parity must hold for the greedy kernel too, not just the
        // exact one.
        assert_parity(
            n, &load, window, delta,
            MatchingKind::GreedySort,
            &SearchPolicy::exhaustive(),
        )?;
    }
}
