//! The executable specification of the Octopus greedy: Procedures 1–2 of
//! §4.1, with the §7 K-port and full-duplex fabrics, localized
//! reconfiguration, and §4's carry-over of undelivered packets from window
//! to window, written straight from the paper against a plain `Vec` of
//! sub-flows.
//!
//! * **State** is a list of sub-flows `(flow id, route, position, count)`
//!   and the order in which each `(flow id, route)` row was first admitted,
//!   nothing else: no link index, no weight-class arena, no snapshot. On one
//!   link the heavier packet goes first, then the lower flow ID, then the
//!   row admitted first.
//! * **Weights.** `g(i, j, α)` is the total weight of the α packets waiting
//!   on `(i, j)` that this priority serves first, recomputed from the list.
//!   It is summed class by class, heaviest class first, each class
//!   contributing one `weight × packets` term, which is the order the
//!   engine's snapshot folds classes in. So every score, and ψ, compares by
//!   `to_bits()`.
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
//! * **Streams**: admissions, cancellations, epochs and the hysteresis
//!   keep/switch rule, each documented on its method.
//!
//! It has no bounds, sweep, column cache, dual table or schedule cache, and
//! reads none of the engine's state. `tests/spec.rs` checks offline windows
//! against it; `tests/daemon_spec.rs` and `octopus-core`'s admission,
//! online and cache suites, which include it by `#[path]`, the streams.

use octopus_core::duplex::GeneralMatcherKind;
use octopus_core::{AlphaSearch, MatchingKind, SearchPolicy};
use octopus_matching::blossom::maximum_weight_matching_general;
use octopus_matching::general::greedy_general_matching;
use octopus_matching::greedy::{bucket_greedy_matching, greedy_matching};
use octopus_matching::{matching_weight, AssignmentSolver, WeightedBipartiteGraph};
use octopus_net::Schedule;
use octopus_traffic::weight::weight_scale;
use octopus_traffic::{Flow, FlowId, HopWeighting, Route, TrafficLoad};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A directed fabric link `(i, j)`.
pub type Link = (u32, u32);

/// One configuration: its links (ascending) and α.
pub type Config = (Vec<Link>, u64);

/// One planned window: its configurations, the ψ bits and the delivered
/// count.
pub type Window = (Vec<Config>, u64, u64);

/// What a configuration is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FabricKind {
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
pub struct Choice {
    pub links: Vec<Link>,
    pub alpha: u64,
    benefit: f64,
    score: f64,
}

/// Packets of one flow waiting at one position of its route.
#[derive(Debug, Clone)]
struct SubFlow {
    id: FlowId,
    route: Route,
    /// Rank of the `(id, route)` row's first admission.
    row: usize,
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

/// The specification's state `T^r` and objective.
pub struct Spec {
    n: u32,
    delta: u64,
    weighting: HopWeighting,
    fabric: FabricKind,
    /// The duplex blossom's integral weight scale.
    scale: f64,
    /// Every `(id, route)` row ever admitted, in first-admission order.
    rows: Vec<(FlowId, Route)>,
    subflows: Vec<SubFlow>,
    /// The previous configuration's links (localized fabric).
    prev: BTreeSet<Link>,
    pub psi: f64,
    pub delivered: u64,
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
    /// An empty plan on `n` nodes: nothing waits, ψ and delivered are zero.
    pub fn new(n: u32, delta: u64, weighting: HopWeighting, fabric: FabricKind) -> Self {
        Spec {
            n,
            delta,
            weighting,
            fabric,
            scale: 1.0,
            rows: Vec::new(),
            subflows: Vec::new(),
            prev: BTreeSet::new(),
            psi: 0.0,
            delivered: 0,
        }
    }

    /// `load`'s flows admitted at their sources, in load order.
    pub fn of_load(
        n: u32,
        delta: u64,
        load: &TrafficLoad,
        weighting: HopWeighting,
        fabric: FabricKind,
    ) -> Self {
        let mut spec = Spec::new(n, delta, weighting, fabric);
        spec.scale = duplex_scale(load, weighting);
        for f in load.flows() {
            spec.admit(f.id, &f.routes[0], 0, f.size);
        }
        spec
    }

    /// Admits `count` packets of `id` at `pos` of `route`: they join the
    /// waiting sub-flow of the same `(id, route, pos)`, and a row seen for
    /// the first time takes the next admission rank. Nothing happens for
    /// zero packets.
    pub fn admit(&mut self, id: FlowId, route: &Route, pos: u32, count: u64) {
        if count == 0 {
            return;
        }
        let known = self.rows.iter().position(|r| r.0 == id && r.1 == *route);
        let row = known.unwrap_or_else(|| {
            self.rows.push((id, route.clone()));
            self.rows.len() - 1
        });
        self.join(SubFlow {
            id,
            route: route.clone(),
            row,
            pos,
            count,
        });
    }

    /// Adds `sf` to the sub-flow of its row and position, or to the list.
    fn join(&mut self, sf: SubFlow) {
        match self
            .subflows
            .iter_mut()
            .find(|w| w.row == sf.row && w.pos == sf.pos)
        {
            Some(waiting) => waiting.count += sf.count,
            None => self.subflows.push(sf),
        }
    }

    /// Drops every waiting packet of `id`; returns how many. Its rows keep
    /// their admission rank.
    pub fn cancel(&mut self, id: FlowId) -> u64 {
        let before = self.backlog();
        self.subflows.retain(|sf| sf.id != id);
        before - self.backlog()
    }

    /// Starts an epoch: ψ and the delivered count restart at zero, and the
    /// delivered packets are no longer part of the backlog.
    pub fn reset_epoch(&mut self) {
        self.psi = 0.0;
        self.delivered = 0;
    }

    /// Packets still waiting, at sources or mid-route.
    pub fn backlog(&self) -> u64 {
        self.subflows.iter().map(|sf| sf.count).sum()
    }

    /// The waiting sub-flows as `(flow id, route, position, count)`, in
    /// the order [`sorted`] lists them.
    pub fn subflows(&self) -> Vec<(FlowId, Route, u32, u64)> {
        let list = self.subflows.iter();
        sorted(
            list.map(|sf| (sf.id, sf.route.clone(), sf.pos, sf.count))
                .collect(),
        )
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
    pub fn select(&self, policy: &SearchPolicy, budget: u64) -> Option<Choice> {
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
    /// order, the waiting packets move one hop in priority order, up to the
    /// link's budget. Every move is decided before any is applied, so no
    /// packet crosses two hops in one configuration; ψ gains each moved
    /// packet's hop weight, summed in move order.
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
                    .then(sa.row.cmp(&sb.row))
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
            self.join(sf);
        }
    }

    /// Commits `choice` and makes it the previous configuration; returns
    /// the links it served.
    pub fn commit_choice(&mut self, choice: Choice) -> Vec<Link> {
        let served = self.served(&choice);
        self.commit(&served);
        self.prev = choice.links.into_iter().collect();
        served.into_iter().map(|(l, _)| l).collect()
    }

    /// Procedure 2's loop over one window: select, commit, repeat while
    /// packets wait, some configuration moves one and the next `α + Δ`
    /// fits. Returns the configurations.
    pub fn plan_window(&mut self, policy: &SearchPolicy, window: u64) -> Vec<Config> {
        let mut configs = Vec::new();
        let mut used = 0u64;
        while !self.subflows.is_empty() && used + self.delta < window {
            let Some(choice) = self.select(policy, window - used - self.delta) else {
                break;
            };
            used += choice.alpha + self.delta;
            let alpha = choice.alpha;
            configs.push((self.commit_choice(choice), alpha));
        }
        configs
    }

    /// [`Spec::plan_window`] on a fresh plan, with its ψ bits and delivered
    /// count.
    pub fn plan(mut self, policy: &SearchPolicy, window: u64) -> Window {
        let configs = self.plan_window(policy, window);
        (configs, self.psi.to_bits(), self.delivered)
    }

    /// One horizon of the hysteresis policy on the bipartite fabric. The
    /// candidate is [`Spec::select`] within `horizon − Δ`; a matching is
    /// valued as Σ `g` over its links in link order, the incumbent at the
    /// whole `horizon` and the candidate at `horizon − Δ`. The policy
    /// switches iff the candidate is worth more than `1 + eta` times the
    /// incumbent (always, with no incumbent), and serves the kept incumbent
    /// for `horizon` slots or the new one for `horizon − Δ`. Returns the
    /// served configuration and whether it was a switch, or `None` when
    /// nothing is held and nothing can move.
    pub fn hysteresis(
        &mut self,
        policy: &SearchPolicy,
        incumbent: &mut Option<Vec<Link>>,
        horizon: u64,
        eta: f64,
    ) -> Option<(Config, bool)> {
        let changed = horizon - self.delta;
        let candidate = self.select(policy, changed).map(|c| {
            let mut links = c.links;
            links.sort_unstable();
            links
        });
        let classes = self.classes();
        let value = |links: &[Link], alpha: u64| -> f64 {
            let g_at = |l: &Link| classes.get(l).map_or(0.0, |cl| g(cl, alpha));
            links.iter().map(g_at).sum()
        };
        let (links, alpha, switched) = match (incumbent.take(), candidate) {
            (Some(inc), Some(cand))
                if value(&cand, changed) <= (1.0 + eta) * value(&inc, horizon) =>
            {
                (inc, horizon, false)
            }
            (_, Some(cand)) => (cand, changed, true),
            (Some(inc), None) => (inc, horizon, false),
            (None, None) => return None,
        };
        let served: Vec<(Link, u64)> = links.iter().map(|&l| (l, alpha)).collect();
        self.commit(&served);
        *incumbent = Some(links.clone());
        Some(((links, alpha), switched))
    }
}

/// The duplex blossom's scale: `lcm(1..=𝒟)` makes uniform hop weights
/// integral; ε-weights are rounded at 2⁻²⁰.
pub fn duplex_scale(load: &TrafficLoad, weighting: HopWeighting) -> f64 {
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

/// Sub-flows `(flow id, route, position, count)` in ascending order of
/// flow ID, route nodes, position and count.
pub fn sorted(mut subflows: Vec<(FlowId, Route, u32, u64)>) -> Vec<(FlowId, Route, u32, u64)> {
    subflows.sort_by(|a, b| (a.0, a.1.nodes(), a.2, a.3).cmp(&(b.0, b.1.nodes(), b.2, b.3)));
    subflows
}

/// The configurations of an engine's schedule, in the spec's terms.
pub fn configs_of(schedule: &Schedule) -> Vec<Config> {
    let configs = schedule.configs().iter().map(|c| {
        let links = c.matching.links().iter().map(|&(i, j)| (i.0, j.0));
        (links.collect(), c.alpha)
    });
    configs.collect()
}

/// Every [`SearchPolicy`]: {exhaustive, ternary} × {smaller, larger α on
/// a tie}.
pub fn policies() -> Vec<SearchPolicy> {
    let policy = |search, prefer_larger_alpha| SearchPolicy {
        search,
        prefer_larger_alpha,
        ..SearchPolicy::exhaustive()
    };
    let searches = [AlphaSearch::Exhaustive, AlphaSearch::Binary];
    searches
        .into_iter()
        .flat_map(|search| [policy(search, false), policy(search, true)])
        .collect()
}

/// One random window: a fabric size, a load, the window and Δ.
#[derive(Debug)]
pub struct Instance {
    pub n: u32,
    pub load: TrafficLoad,
    pub window: u64,
    pub delta: u64,
}

/// Random single-route loads of 1–3 hops on `nodes` nodes, with a window
/// and Δ.
pub fn instance_in(
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
