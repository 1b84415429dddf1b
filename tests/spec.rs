//! The executable specification of the Octopus greedy: Procedures 1–2 of
//! §4.1, with the §7 K-port and full-duplex fabrics and localized
//! reconfiguration, written straight from the paper against a plain `Vec`
//! of sub-flows.
//!
//! * **State** is a list of sub-flows `(flow id, route, position, count)`,
//!   nothing else: no link index, no weight-class arena, no snapshot.
//! * **Weights.** `g(i, j, α)` is the total weight of the α packets waiting
//!   on `(i, j)` that the weight-then-flow-ID priority serves first,
//!   recomputed from the list. It is summed class by class, heaviest class
//!   first, each class contributing one `weight × packets` term, which is
//!   the order the engine's snapshot folds classes in. So every score, and
//!   ψ, compares by `to_bits()`.
//! * **Candidates** are every Procedure-1 α (each link's class-boundary
//!   prefix counts, capped by the budget), plus the boundaries shifted down
//!   by Δ on the localized fabric once a previous matching exists. Each α is
//!   solved from scratch on a fresh kernel: the Hungarian
//!   [`AssignmentSolver`] for the exact kind (so equal-weight optima resolve
//!   by the kernel's own tie rule), [`greedy_matching`] /
//!   [`bucket_greedy_matching`] for the greedy kinds, and
//!   [`maximum_weight_matching_general`] / [`greedy_general_matching`] on the
//!   duplex fabric.
//! * **Search** is every candidate for Octopus, or Octopus-B's ternary
//!   probe rule, under either α tie preference.
//!
//! It has no bounds, sweep, column cache or dual table, and reads none of
//! the engine's state. The proptest below plans random windows on every
//! fabric (bipartite, localized, K-port r = 1 and r = 2, duplex), with every
//! kernel kind, both searches, both tie preferences and both hop weightings
//! (Octopus and Octopus-e), and requires the public engine
//! ([`ScheduleEngine::plan_window`], and the `octopus*` entry points where
//! one plans that combination) to commit the same configurations, the same
//! ψ bits and the same delivered count, with no tolerance. An ignored twin
//! repeats it at n = 12–24, where the engine's pruning has many candidates
//! to cut; CI runs it in release.

use octopus_mhs::core::duplex::{octopus_duplex_with, GeneralMatcherKind};
use octopus_mhs::core::kport::octopus_kport;
use octopus_mhs::core::local::octopus_local;
use octopus_mhs::core::{
    octopus, AlphaSearch, BipartiteFabric, DuplexFabric, Fabric, KPortFabric, LocalFabric,
    MatchingKind, OctopusConfig, RemainingTraffic, ScheduleEngine, SearchPolicy,
};
use octopus_mhs::matching::blossom::maximum_weight_matching_general;
use octopus_mhs::matching::general::greedy_general_matching;
use octopus_mhs::matching::greedy::{bucket_greedy_matching, greedy_matching};
use octopus_mhs::matching::{matching_weight, AssignmentSolver, WeightedBipartiteGraph};
use octopus_mhs::net::duplex::DuplexNetwork;
use octopus_mhs::net::{topology, Schedule};
use octopus_mhs::traffic::weight::weight_scale;
use octopus_mhs::traffic::{Flow, FlowId, HopWeighting, Route, TrafficLoad};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A directed fabric link `(i, j)`.
type Link = (u32, u32);

/// One planned window: each configuration's links (ascending) and α, the ψ
/// bits and the delivered count.
type Window = (Vec<(Vec<Link>, u64)>, u64, u64);

/// What a configuration is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FabricKind {
    /// One bipartite matching of `g(·, ·, α)`.
    Bipartite(MatchingKind),
    /// One bipartite matching where a link kept from the previous
    /// configuration is worth `g(i, j, α + Δ)` and serves `α + Δ` slots.
    Local(MatchingKind),
    /// A union of up to `r` edge-disjoint matchings, each round matching
    /// `g` with the links earlier rounds took removed.
    KPort(MatchingKind, u32),
    /// One general-graph matching where `{a, b}` is worth
    /// `g(a→b, α) + g(b→a, α)`; both directions serve.
    Duplex(GeneralMatcherKind),
}

/// One chosen configuration `(M, α)` with its benefit and benefit per
/// `α + Δ`.
#[derive(Debug, Clone)]
struct Choice {
    links: Vec<Link>,
    alpha: u64,
    benefit: f64,
    score: f64,
}

/// Packets of one flow waiting at one position of its route.
#[derive(Debug, Clone)]
struct SubFlow {
    id: FlowId,
    route: Route,
    pos: u32,
    count: u64,
}

impl SubFlow {
    /// The link these packets cross next.
    fn link(&self) -> Link {
        let (i, j) = self.route.hop(self.pos);
        (i.0, j.0)
    }
}

/// The specification's state `T^r` and objective, for one window.
struct Spec {
    n: u32,
    delta: u64,
    weighting: HopWeighting,
    fabric: FabricKind,
    /// The duplex blossom's integral weight scale.
    scale: f64,
    subflows: Vec<SubFlow>,
    /// The previous configuration's links (localized fabric).
    prev: BTreeSet<Link>,
    psi: f64,
    delivered: u64,
}

/// `g(α)` of one link from its weight classes (heaviest first): the weight
/// of every class wholly inside the first α packets, one `weight × packets`
/// term each, plus the α-th packet's class's share.
fn g(classes: &[(f64, u64)], alpha: u64) -> f64 {
    if alpha == 0 {
        return 0.0;
    }
    let (mut below_count, mut below_weight) = (0u64, 0.0f64);
    for &(w, c) in classes {
        if alpha <= below_count + c {
            return below_weight + (alpha - below_count) as f64 * w;
        }
        below_count += c;
        below_weight += w * c as f64;
    }
    below_weight
}

impl Spec {
    fn new(inst: &Instance, weighting: HopWeighting, fabric: FabricKind) -> Self {
        let subflows = inst
            .load
            .flows()
            .iter()
            .filter(|f| f.size > 0)
            .map(|f| SubFlow {
                id: f.id,
                route: f.routes[0].clone(),
                pos: 0,
                count: f.size,
            })
            .collect();
        Spec {
            n: inst.n,
            delta: inst.delta,
            weighting,
            fabric,
            scale: duplex_scale(&inst.load, weighting),
            subflows,
            prev: BTreeSet::new(),
            psi: 0.0,
            delivered: 0,
        }
    }

    /// The weight of one packet of `sf` crossing its next hop.
    fn weight(&self, sf: &SubFlow) -> f64 {
        self.weighting.hop_weight(sf.route.hops(), sf.pos).value()
    }

    /// Every link something waits on, ascending, with its weight classes:
    /// the waiting packets grouped by bit-equal weight, heaviest first.
    fn classes(&self) -> BTreeMap<Link, Vec<(f64, u64)>> {
        let mut by_link: BTreeMap<Link, Vec<(f64, u64)>> = BTreeMap::new();
        for sf in &self.subflows {
            by_link
                .entry(sf.link())
                .or_default()
                .push((self.weight(sf), sf.count));
        }
        for groups in by_link.values_mut() {
            groups.sort_by(|a, b| b.0.total_cmp(&a.0));
            groups.dedup_by(|later, kept| {
                let same = later.0.to_bits() == kept.0.to_bits();
                if same {
                    kept.1 += later.1;
                }
                same
            });
        }
        by_link
    }

    /// Procedure 1's candidate durations within `budget`, ascending: every
    /// class-boundary prefix count, capped by `budget`; on the localized
    /// fabric with a previous matching, each also shifted down by Δ.
    fn candidates(&self, classes: &BTreeMap<Link, Vec<(f64, u64)>>, budget: u64) -> Vec<u64> {
        let mut alphas: Vec<u64> = classes
            .values()
            .flat_map(|cl| {
                cl.iter().scan(0u64, |count, &(_, c)| {
                    *count += c;
                    Some(*count)
                })
            })
            .map(|a| a.min(budget))
            .filter(|&a| a > 0)
            .collect();
        if matches!(self.fabric, FabricKind::Local(_)) && self.delta > 0 && !self.prev.is_empty() {
            let shifted: Vec<u64> = alphas
                .iter()
                .filter(|&&a| a > self.delta)
                .map(|&a| a - self.delta)
                .collect();
            alphas.extend(shifted);
        }
        alphas.sort_unstable();
        alphas.dedup();
        alphas
    }

    /// The slots `link` serves in a configuration of duration `alpha`: on
    /// the localized fabric a link kept from the previous configuration
    /// also serves through the Δ transition.
    fn slots(&self, link: Link, alpha: u64) -> u64 {
        match self.fabric {
            FabricKind::Local(_) if self.prev.contains(&link) => alpha + self.delta,
            _ => alpha,
        }
    }

    /// The best configuration of duration `alpha`, solved from scratch.
    fn evaluate(&self, classes: &BTreeMap<Link, Vec<(f64, u64)>>, alpha: u64) -> Choice {
        let edges: Vec<Link> = classes.keys().copied().collect();
        let g_at = |link: Link, slots: u64| classes.get(&link).map_or(0.0, |cl| g(cl, slots));
        let mut col: Vec<f64> = edges
            .iter()
            .map(|&l| g_at(l, self.slots(l, alpha)))
            .collect();
        let (links, benefit) = match self.fabric {
            FabricKind::Bipartite(kind) | FabricKind::Local(kind) => {
                match_column(self.n, kind, &edges, &col)
            }
            FabricKind::KPort(kind, r) => {
                let (mut links, mut total) = (Vec::new(), 0.0);
                for _ in 0..r {
                    if !col.iter().any(|&w| w > 0.0) {
                        break;
                    }
                    let (round, weight) = match_column(self.n, kind, &edges, &col);
                    total += weight;
                    for link in round {
                        col[edges.binary_search(&link).expect("matched link")] = 0.0;
                        links.push(link);
                    }
                }
                links.sort_unstable();
                (links, total)
            }
            FabricKind::Duplex(matcher) => {
                // `{a, b}`, a < b, is worth g(a→b) + g(b→a); the a→b term
                // comes first in ascending link order.
                let mut undirected: BTreeMap<Link, f64> = BTreeMap::new();
                for (&(i, j), &w) in edges.iter().zip(&col) {
                    if w > 0.0 {
                        *undirected.entry((i.min(j), i.max(j))).or_insert(0.0) += w;
                    }
                }
                let folded: Vec<(u32, u32, f64)> =
                    undirected.iter().map(|(&(a, b), &w)| (a, b, w)).collect();
                let matching = match matcher {
                    GeneralMatcherKind::Greedy => greedy_general_matching(self.n, &folded),
                    GeneralMatcherKind::ExactBlossom => {
                        let ints: Vec<(u32, u32, i64)> = folded
                            .iter()
                            .map(|&(a, b, w)| (a, b, (w * self.scale).round() as i64))
                            .collect();
                        maximum_weight_matching_general(self.n, &ints)
                    }
                };
                let benefit = matching
                    .iter()
                    .map(|&(a, b)| g_at((a, b), alpha) + g_at((b, a), alpha))
                    .sum();
                (matching, benefit)
            }
        };
        Choice {
            links,
            alpha,
            benefit,
            score: benefit / (alpha + self.delta) as f64,
        }
    }

    /// Procedure 2's selection within `budget`: the candidate with the best
    /// benefit per `α + Δ` (exhaustively, or by Octopus-B's ternary probes),
    /// or `None` when no configuration moves a packet.
    fn select(&self, policy: &SearchPolicy, budget: u64) -> Option<Choice> {
        let classes = self.classes();
        let alphas = self.candidates(&classes, budget);
        if alphas.is_empty() {
            return None;
        }
        let eval = |alpha| self.evaluate(&classes, alpha);
        // Higher score wins; on an exact tie, the preferred α.
        let better = |a: &Choice, b: &Choice| {
            let by_alpha = if policy.prefer_larger_alpha {
                a.alpha.cmp(&b.alpha)
            } else {
                b.alpha.cmp(&a.alpha)
            };
            a.score.total_cmp(&b.score).then(by_alpha).is_gt()
        };
        let best_of = |choices: Vec<Choice>| {
            choices
                .into_iter()
                .reduce(|best, c| if better(&c, &best) { c } else { best })
        };
        let best = match policy.search {
            AlphaSearch::Exhaustive => best_of(alphas.iter().map(|&a| eval(a)).collect()),
            AlphaSearch::Binary => {
                // Probe the thirds; keep the side of the better probe (the
                // left one on a tie), then take the best of what is left.
                let (mut lo, mut hi) = (0usize, alphas.len() - 1);
                while hi - lo > 2 {
                    let m1 = lo + (hi - lo) / 3;
                    let m2 = hi - (hi - lo) / 3;
                    if eval(alphas[m1]).score >= eval(alphas[m2]).score {
                        hi = m2 - 1;
                    } else {
                        lo = m1 + 1;
                    }
                }
                best_of(alphas[lo..=hi].iter().map(|&a| eval(a)).collect())
            }
        };
        best.filter(|c| c.benefit > 0.0)
    }

    /// The links `choice` activates, ascending, each with its slot budget.
    fn served(&self, choice: &Choice) -> Vec<(Link, u64)> {
        let alpha = choice.alpha;
        let mut served: Vec<(Link, u64)> = match self.fabric {
            FabricKind::Duplex(_) => choice
                .links
                .iter()
                .flat_map(|&(a, b)| [((a, b), alpha), ((b, a), alpha)])
                .collect(),
            _ => choice
                .links
                .iter()
                .map(|&l| (l, self.slots(l, alpha)))
                .collect(),
        };
        served.sort_unstable();
        served
    }

    /// Applies one configuration: on each served link, in ascending link
    /// order, the heaviest waiting packets (then the lowest flow ID) move one
    /// hop, up to the link's budget. Every move is decided before any is
    /// applied, so no packet crosses two hops in one configuration; ψ gains
    /// each moved packet's hop weight, summed in move order.
    fn commit(&mut self, served: &[(Link, u64)]) {
        let mut moves: Vec<(usize, u64)> = Vec::new();
        for &(link, budget) in served {
            let mut waiting: Vec<usize> = (0..self.subflows.len())
                .filter(|&s| self.subflows[s].link() == link)
                .collect();
            waiting.sort_by(|&a, &b| {
                let (sa, sb) = (&self.subflows[a], &self.subflows[b]);
                self.weight(sb)
                    .total_cmp(&self.weight(sa))
                    .then(sa.id.cmp(&sb.id))
            });
            let mut left = budget;
            for s in waiting {
                if left == 0 {
                    break;
                }
                let take = self.subflows[s].count.min(left);
                left -= take;
                moves.push((s, take));
            }
        }
        let mut gained = 0.0;
        let mut arrived: Vec<SubFlow> = Vec::new();
        for &(s, take) in &moves {
            let sf = &mut self.subflows[s];
            sf.count -= take;
            let w = self.weighting.hop_weight(sf.route.hops(), sf.pos).value();
            gained += w * take as f64;
            if sf.pos + 1 == sf.route.hops() {
                self.delivered += take;
            } else {
                arrived.push(SubFlow {
                    pos: sf.pos + 1,
                    count: take,
                    ..sf.clone()
                });
            }
        }
        self.psi += gained;
        self.subflows.retain(|sf| sf.count > 0);
        for sf in arrived {
            match self
                .subflows
                .iter_mut()
                .find(|w| w.id == sf.id && w.pos == sf.pos)
            {
                Some(waiting) => waiting.count += sf.count,
                None => self.subflows.push(sf),
            }
        }
    }

    /// Procedure 2's loop over one window: select, commit, repeat while
    /// packets wait, some configuration moves one and the next `α + Δ`
    /// fits.
    fn plan(mut self, policy: &SearchPolicy, window: u64) -> Window {
        let mut configs = Vec::new();
        let mut used = 0u64;
        while !self.subflows.is_empty() && used + self.delta < window {
            let Some(choice) = self.select(policy, window - used - self.delta) else {
                break;
            };
            let served = self.served(&choice);
            self.commit(&served);
            configs.push((served.iter().map(|&(l, _)| l).collect(), choice.alpha));
            self.prev = choice.links.into_iter().collect();
            used += choice.alpha + self.delta;
        }
        (configs, self.psi.to_bits(), self.delivered)
    }
}

/// The duplex blossom's scale: `lcm(1..=𝒟)` makes uniform hop weights
/// integral; ε-weights are rounded at 2⁻²⁰.
fn duplex_scale(load: &TrafficLoad, weighting: HopWeighting) -> f64 {
    match weighting {
        HopWeighting::Uniform => weight_scale(load.max_route_hops().max(1)) as f64,
        HopWeighting::EpsilonLater { .. } => (1u64 << 20) as f64,
    }
}

/// One bipartite matching of the column `col` over the ascending `edges`
/// (entries `≤ 0` are absent), solved on a fresh kernel, and its weight
/// summed in matching order.
fn match_column(n: u32, kind: MatchingKind, edges: &[Link], col: &[f64]) -> (Vec<Link>, f64) {
    if kind == MatchingKind::Exact {
        let mut solver = AssignmentSolver::new();
        solver.load_topology(n, n, edges);
        solver.solve_reweighted(col);
        return (solver.matching().to_vec(), solver.last_weight());
    }
    let graph = WeightedBipartiteGraph::from_tuples(
        n,
        n,
        edges.iter().zip(col).map(|(&(u, v), &w)| (u, v, w)),
    );
    let matching = match kind {
        MatchingKind::BucketGreedy { scale } => {
            let ints: Vec<u64> = graph
                .edges()
                .iter()
                .map(|e| (e.weight * scale as f64).round() as u64)
                .collect();
            bucket_greedy_matching(&graph, &ints)
        }
        _ => greedy_matching(&graph),
    };
    let weight = matching_weight(&graph, &matching);
    (matching, weight)
}

/// The ψ bits, delivered count and configurations of a planned window.
fn window_of(schedule: &Schedule, psi: f64, delivered: u64) -> Window {
    let configs = schedule.configs().iter().map(|c| {
        let links = c.matching.links().iter().map(|&(i, j)| (i.0, j.0));
        (links.collect(), c.alpha)
    });
    (configs.collect(), psi.to_bits(), delivered)
}

/// The complete duplex fabric on `n` nodes.
fn complete_duplex(n: u32) -> DuplexNetwork {
    DuplexNetwork::from_edges(n, (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))))
        .expect("complete duplex fabric")
}

/// One window of the public engine: the `octopus*` entry point that plans
/// this combination, or else [`ScheduleEngine::plan_window`] on the fabric.
/// The entry points break ties toward the smaller α, except
/// `octopus_local`, which searches exhaustively toward the larger.
fn engine_window(
    inst: &Instance,
    weighting: HopWeighting,
    fabric: FabricKind,
    policy: &SearchPolicy,
) -> Window {
    let (n, load, delta) = (inst.n, &inst.load, inst.delta);
    let cfg = |matching| OctopusConfig {
        window: inst.window,
        delta,
        weighting,
        alpha_search: policy.search,
        matching,
        ..OctopusConfig::default()
    };
    let (net, duplex) = (topology::complete(n), complete_duplex(n));
    let larger = policy.prefer_larger_alpha;
    let entry = match fabric {
        FabricKind::Bipartite(kind) if !larger => octopus(&net, load, &cfg(kind)),
        FabricKind::KPort(kind, r) if !larger => octopus_kport(&net, load, &cfg(kind), r),
        FabricKind::Duplex(matcher) if !larger => {
            octopus_duplex_with(&duplex, load, &cfg(MatchingKind::Exact), matcher)
        }
        FabricKind::Local(kind) if larger && policy.search == AlphaSearch::Exhaustive => {
            octopus_local(&net, load, &cfg(kind))
        }
        _ => {
            let mut fabric: Box<dyn Fabric + '_> = match fabric {
                FabricKind::Bipartite(kind) => Box::new(BipartiteFabric { kind }),
                FabricKind::Local(kind) => Box::new(LocalFabric {
                    kind,
                    delta,
                    prev: Default::default(),
                }),
                FabricKind::KPort(kind, r) => Box::new(KPortFabric { kind, r }),
                FabricKind::Duplex(matcher) => Box::new(DuplexFabric {
                    net: &duplex,
                    matcher,
                    scale: duplex_scale(load, weighting),
                }),
            };
            let tr = RemainingTraffic::new(load, weighting).expect("single-route load");
            let mut engine = ScheduleEngine::new(tr, n, delta);
            let run = engine
                .plan_window(&mut *fabric, policy, inst.window)
                .expect("realizable plan");
            let tr = engine.into_source();
            return window_of(&run.schedule, tr.planned_psi(), tr.planned_delivered());
        }
    }
    .expect("valid window");
    window_of(&entry.schedule, entry.planned_psi, entry.planned_delivered)
}

/// One random window: a fabric size, a load, the window and Δ.
#[derive(Debug)]
struct Instance {
    n: u32,
    load: TrafficLoad,
    window: u64,
    delta: u64,
}

/// Random single-route loads of 1–3 hops on `nodes` nodes, with a window
/// and Δ.
fn instance_in(
    nodes: std::ops::Range<u32>,
    flows: std::ops::Range<usize>,
) -> impl Strategy<Value = Instance> {
    nodes
        .prop_flat_map(move |n| {
            let flows = prop::collection::vec(
                (0u32..n, 0u32..n, 1u64..60, 0u32..3, 0u32..n),
                flows.clone(),
            );
            (Just(n), flows, 100u64..900, 0u64..30)
        })
        .prop_map(|(n, raw, window, delta)| {
            let mut flows = Vec::new();
            for (src, dst, size, extra_hops, via) in raw {
                if src == dst {
                    continue;
                }
                let mut nodes = vec![src];
                if extra_hops >= 1 && via != src && via != dst {
                    nodes.push(via);
                }
                let next = (via + 1) % n;
                if extra_hops >= 2 && next != src && next != dst && !nodes.contains(&next) {
                    nodes.push(next);
                }
                nodes.push(dst);
                let id = FlowId(flows.len() as u64);
                if let Ok(route) = Route::from_ids(nodes) {
                    flows.push(Flow::single(id, size, route));
                }
            }
            let load = TrafficLoad::new(flows).expect("sequential ids");
            Instance {
                n,
                load,
                window,
                delta,
            }
        })
        .prop_filter("need a flow and room for a configuration", |inst| {
            !inst.load.is_empty() && inst.window > inst.delta + 1
        })
}

/// Plans `inst`'s window on the spec and on the public engine under every
/// combination of hop weighting (Octopus, and Octopus-e with `eps`),
/// fabric, kernel kind, search and α tie preference, and requires the
/// same window.
fn check_every_combination(inst: &Instance, eps: f64) {
    let scale = weight_scale(inst.load.max_route_hops().max(1));
    let kinds = [
        MatchingKind::Exact,
        MatchingKind::GreedySort,
        MatchingKind::BucketGreedy { scale },
    ];
    let fabrics = kinds
        .into_iter()
        .flat_map(|k| {
            let r = |r| FabricKind::KPort(k, r);
            [FabricKind::Bipartite(k), FabricKind::Local(k), r(1), r(2)]
        })
        .chain(
            [GeneralMatcherKind::ExactBlossom, GeneralMatcherKind::Greedy].map(FabricKind::Duplex),
        );
    for fabric in fabrics {
        for weighting in [HopWeighting::Uniform, HopWeighting::EpsilonLater { eps }] {
            for search in [AlphaSearch::Exhaustive, AlphaSearch::Binary] {
                for prefer_larger_alpha in [false, true] {
                    let policy = SearchPolicy {
                        search,
                        prefer_larger_alpha,
                        ..SearchPolicy::exhaustive()
                    };
                    let want = Spec::new(inst, weighting, fabric).plan(&policy, inst.window);
                    let got = engine_window(inst, weighting, fabric, &policy);
                    assert_eq!(got, want, "{fabric:?}, {policy:?}, {weighting:?}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The engine plans every window exactly as the spec does.
    #[test]
    fn engine_plans_every_window_as_the_spec_does(
        inst in instance_in(4..9, 1..12),
        eps in 0.01f64..0.5,
    ) {
        check_every_combination(&inst, eps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`engine_plans_every_window_as_the_spec_does`] at n = 12–24 with up
    /// to 47 flows, where many candidates survive the engine's eager bounds
    /// and its best-first order decides which get solved. Release-only (CI
    /// runs it).
    #[test]
    #[ignore = "release-mode spec at n = 12-24"]
    fn engine_plans_every_window_as_the_spec_does_at_larger_sizes(
        inst in instance_in(12..25, 12..48),
        eps in 0.01f64..0.5,
    ) {
        check_every_combination(&inst, eps);
    }
}
