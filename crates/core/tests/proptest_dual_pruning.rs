//! Dual-certified pruning parity: **bounded search ≡ unbounded search**.
//!
//! The α-search prunes with certified upper bounds: the sweep's
//! row/column-max bound, and the weak-duality bound under duals the same
//! search solved for nearby αs (plus one descent step from them), each
//! through the fabric's [`octopus_core::ColumnKernel`]. This suite replays random multihop
//! windows against a reference loop that picks every winner by unbounded
//! exhaustive search ([`ScheduleEngine::select_with`], which bounds nothing)
//! over one-shot solves of each α's column. Schedule, ψ bits and delivered
//! must match on the bipartite, localized, K-port (r = 1, 2) and duplex
//! fabrics.
//!
//! An ignored twin replays the same check at n = 12–24, where the
//! best-first order has many surviving candidates to choose among; CI runs
//! it in release.
//!
//! A fixed-instance test pins that nothing but the snapshot carries from one
//! select to the next: the solve count repeats exactly, and equals the sum
//! of the same iterations' selects each run on a freshly built snapshot.

use octopus_core::engine::{CandidateExtension, Fabric};
use octopus_core::{
    duplex::GeneralMatcherKind, BestChoice, BipartiteFabric, DuplexFabric, HopWeighting,
    KPortFabric, LinkQueues, LocalFabric, MatchingKind, RemainingTraffic, ScheduleEngine,
    SearchPolicy,
};
use octopus_matching::blossom::maximum_weight_matching_general;
use octopus_matching::AssignmentSolver;
use octopus_net::duplex::DuplexNetwork;
use octopus_net::topology;
use octopus_traffic::{synthetic, synthetic::SyntheticConfig, Flow, FlowId, Route, TrafficLoad};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};

type Plan = Vec<(Vec<(u32, u32)>, u64)>;

/// Random multihop load on `n` nodes, a window and Δ.
fn instance() -> impl Strategy<Value = (u32, TrafficLoad, u64, u64)> {
    instance_in(4..9, 1..12)
}

/// [`instance`] with `nodes` and `flows` drawn from the given ranges.
fn instance_in(
    nodes: std::ops::Range<u32>,
    flows: std::ops::Range<usize>,
) -> impl Strategy<Value = (u32, TrafficLoad, u64, u64)> {
    nodes
        .prop_flat_map(move |n| {
            let flows = prop::collection::vec((0u32..n, 0u32..n, 1u64..60, 0u32..n), flows.clone());
            (Just(n), flows, 100u64..900, 0u64..30)
        })
        .prop_map(|(n, raw, window, delta)| {
            let mut flows = Vec::new();
            for (src, dst, size, via) in raw {
                if src == dst {
                    continue;
                }
                let mut nodes = vec![src];
                if via != src && via != dst {
                    nodes.push(via);
                }
                nodes.push(dst);
                let id = FlowId(flows.len() as u64);
                if let Ok(route) = Route::from_ids(nodes) {
                    flows.push(Flow::single(id, size, route));
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

/// Which fabric a window is planned on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Bipartite,
    Local,
    KPort(u32),
    Duplex,
}

const KINDS: [Kind; 5] = [
    Kind::Bipartite,
    Kind::Local,
    Kind::KPort(1),
    Kind::KPort(2),
    Kind::Duplex,
];

/// The complete duplex fabric on `n` nodes: every route of [`instance`]
/// lives on it.
fn complete_duplex(n: u32) -> DuplexNetwork {
    let edges = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b)));
    DuplexNetwork::from_edges(n, edges).expect("complete duplex fabric")
}

/// The blossom's integral weight scale for `load`, as `octopus_duplex`
/// picks it under uniform hop weights.
fn duplex_scale(load: &TrafficLoad) -> f64 {
    octopus_traffic::weight::weight_scale(load.max_route_hops().max(1)) as f64
}

/// The fabric of `kind`, with exact kernels.
fn fabric<'a>(kind: Kind, delta: u64, net: &'a DuplexNetwork, scale: f64) -> Box<dyn Fabric + 'a> {
    let exact = MatchingKind::Exact;
    match kind {
        Kind::Bipartite => Box::new(BipartiteFabric { kind: exact }),
        Kind::Local => Box::new(LocalFabric {
            kind: exact,
            delta,
            prev: HashSet::new(),
        }),
        Kind::KPort(r) => Box::new(KPortFabric { kind: exact, r }),
        Kind::Duplex => Box::new(DuplexFabric {
            net,
            matcher: GeneralMatcherKind::ExactBlossom,
            scale,
        }),
    }
}

/// `alpha`'s weight column, with a per-link α bonus.
fn column(
    queues: &LinkQueues,
    alpha: u64,
    extra: impl Fn((u32, u32)) -> u64,
) -> (Vec<(u32, u32)>, Vec<f64>) {
    let sweep = queues.weighted_edges_multi_with(&[alpha], extra);
    let mut col = Vec::new();
    sweep.fill_columns(&[0], &mut col);
    (sweep.edges().to_vec(), col)
}

/// One evaluated candidate, scored per `α + Δ`.
fn scored(matching: Vec<(u32, u32)>, alpha: u64, benefit: f64, delta: u64) -> BestChoice {
    BestChoice {
        matching,
        alpha,
        benefit,
        score: benefit / (alpha + delta) as f64,
        matchings_computed: 1,
    }
}

/// Solves `alpha`'s column from scratch — the same topology and weights the
/// batched sweep builds, on a fresh solver — with no bound.
fn solve_alpha(
    queues: &LinkQueues,
    prev: &HashSet<(u32, u32)>,
    alpha: u64,
    delta: u64,
) -> BestChoice {
    let (edges, col) = column(
        queues,
        alpha,
        |link| {
            if prev.contains(&link) {
                delta
            } else {
                0
            }
        },
    );
    let n = queues.n();
    let mut s = AssignmentSolver::new();
    s.load_topology(n, n, &edges);
    s.solve_reweighted(&col);
    scored(s.matching().to_vec(), alpha, s.last_weight(), delta)
}

/// The K-port union of `alpha`'s column, one fresh solver per round: each
/// round matches the column with the links earlier rounds took zeroed.
fn union_alpha(queues: &LinkQueues, r: u32, alpha: u64, delta: u64) -> BestChoice {
    let (edges, mut col) = column(queues, alpha, |_| 0);
    let n = queues.n();
    let (mut links, mut benefit) = (Vec::new(), 0.0);
    for _ in 0..r {
        if !col.iter().any(|&w| w > 0.0) {
            break;
        }
        let mut s = AssignmentSolver::new();
        s.load_topology(n, n, &edges);
        s.solve_reweighted(&col);
        benefit += s.last_weight();
        for &link in s.matching() {
            col[edges.binary_search(&link).expect("matched link")] = 0.0;
            links.push(link);
        }
    }
    links.sort_unstable();
    scored(links, alpha, benefit, delta)
}

/// The exact duplex matching of `alpha`'s column: `{a, b}` weighs
/// `g(a→b) + g(b→a)`, accumulated in link order.
fn duplex_alpha(queues: &LinkQueues, scale: f64, alpha: u64, delta: u64) -> BestChoice {
    let (edges, col) = column(queues, alpha, |_| 0);
    let mut undirected: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for (&(i, j), &w) in edges.iter().zip(&col) {
        if w > 0.0 {
            *undirected.entry((i.min(j), i.max(j))).or_insert(0.0) += w;
        }
    }
    let ints: Vec<(u32, u32, i64)> = undirected
        .iter()
        .map(|(&(a, b), &w)| (a, b, (w * scale).round() as i64))
        .collect();
    let m = maximum_weight_matching_general(queues.n(), &ints);
    let benefit = m
        .iter()
        .map(|&(a, b)| queues.g(a, b, alpha) + queues.g(b, a, alpha))
        .sum();
    scored(m, alpha, benefit, delta)
}

fn policy(kind: Kind) -> SearchPolicy {
    SearchPolicy {
        prefer_larger_alpha: kind == Kind::Local,
        ..SearchPolicy::exhaustive()
    }
}

/// The plan, ψ bits and delivered count of one window of `plan_window`.
fn planned(
    n: u32,
    load: &TrafficLoad,
    window: u64,
    delta: u64,
    kind: Kind,
    policy: &SearchPolicy,
) -> (Plan, u64, u64) {
    let tr = RemainingTraffic::new(load, HopWeighting::Uniform).expect("valid load");
    let mut engine = ScheduleEngine::new(tr, n, delta);
    let net = complete_duplex(n);
    let mut fabric = fabric(kind, delta, &net, duplex_scale(load));
    let run = engine
        .plan_window(&mut *fabric, policy, window)
        .expect("realizable plan");
    let plan = run
        .schedule
        .configs()
        .iter()
        .map(|c| {
            let links = c
                .matching
                .links()
                .iter()
                .map(|&(i, j)| (i.0, j.0))
                .collect();
            (links, c.alpha)
        })
        .collect();
    let tr = engine.into_source();
    (plan, tr.planned_psi().to_bits(), tr.planned_delivered())
}

/// The reference: the same greedy loop, each winner picked by unbounded
/// exhaustive search over one-shot solves ([`solve_alpha`],
/// [`union_alpha`], [`duplex_alpha`]).
fn reference(n: u32, load: &TrafficLoad, window: u64, delta: u64, kind: Kind) -> (Plan, u64, u64) {
    let tr = RemainingTraffic::new(load, HopWeighting::Uniform).expect("valid load");
    let mut engine = ScheduleEngine::new(tr, n, delta);
    let policy = policy(kind);
    let net = complete_duplex(n);
    let scale = duplex_scale(load);
    let mut fabric = fabric(kind, delta, &net, scale);
    // The localized fabric's previous matching, tracked here too.
    let mut prev = HashSet::new();
    let mut plan = Vec::new();
    let mut used = 0u64;
    while !engine.is_drained() && used + delta < window {
        let budget = window - used - delta;
        let queues = engine.queues().clone();
        let eval = |alpha| match kind {
            Kind::Bipartite | Kind::Local => solve_alpha(&queues, &prev, alpha, delta),
            Kind::KPort(r) => union_alpha(&queues, r, alpha, delta),
            Kind::Duplex => duplex_alpha(&queues, scale, alpha, delta),
        };
        let Some(choice) = engine.select_with(budget, fabric.extension(), &policy, &eval) else {
            break;
        };
        let matching = engine
            .commit(&*fabric, &choice.matching, choice.alpha)
            .expect("realizable plan");
        fabric.committed(&choice.matching);
        if kind == Kind::Local {
            prev = choice.matching.iter().copied().collect();
        }
        let links = matching.links().iter().map(|&(i, j)| (i.0, j.0)).collect();
        plan.push((links, choice.alpha));
        used += choice.alpha + delta;
    }
    let tr = engine.into_source();
    (plan, tr.planned_psi().to_bits(), tr.planned_delivered())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every bounded search picks the unbounded search's winner, iteration
    /// after iteration, so whole windows agree bit for bit.
    #[test]
    fn pruned_windows_match_unbounded_search((n, load, window, delta) in instance()) {
        for kind in KINDS {
            let want = reference(n, &load, window, delta, kind);
            let got = planned(n, &load, window, delta, kind, &policy(kind));
            prop_assert_eq!(&got, &want, "{:?}", kind);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`pruned_windows_match_unbounded_search`] at n = 12–24 with up to 47
    /// flows, where many candidates survive the eager cut and the
    /// best-first order decides which get solved. Release-only (CI runs it).
    #[test]
    #[ignore = "release-mode parity at n = 12-24"]
    fn pruned_windows_match_unbounded_search_at_larger_sizes(
        (n, load, window, delta) in instance_in(12..25, 12..48)
    ) {
        for kind in KINDS {
            let want = reference(n, &load, window, delta, kind);
            let got = planned(n, &load, window, delta, kind, &policy(kind));
            prop_assert_eq!(&got, &want, "{:?}", kind);
        }
    }
}

/// A fixed synthetic window on a complete 24-node fabric.
fn fixed_window() -> (u32, TrafficLoad, u64, u64) {
    let (n, window, delta) = (24u32, 3_000u64, 20u64);
    let net = topology::complete(n);
    let mut rng = StdRng::seed_from_u64(7);
    let load = synthetic::generate(&SyntheticConfig::paper_default(n, window), &net, &mut rng);
    (n, load, window, delta)
}

#[test]
fn solve_counts_depend_only_on_the_snapshot() {
    let (n, load, window, delta) = fixed_window();
    let policy = SearchPolicy::exhaustive();
    let fabric = BipartiteFabric {
        kind: MatchingKind::Exact,
    };
    let solves = || {
        let tr = RemainingTraffic::new(&load, HopWeighting::Uniform).expect("valid load");
        let mut engine = ScheduleEngine::new(tr, n, delta);
        let run = engine
            .plan_window(&mut fabric.clone(), &policy, window)
            .expect("realizable plan");
        (run.matchings_computed, run.schedule)
    };
    let (first, schedule) = solves();
    let (second, _) = solves();
    assert_eq!(first, second, "solve counts must repeat exactly");

    // The same iterations, each select run on a snapshot rebuilt from
    // scratch (`invalidate` drops the patched one).
    let tr = RemainingTraffic::new(&load, HopWeighting::Uniform).expect("valid load");
    let mut engine = ScheduleEngine::new(tr, n, delta);
    let mut standalone = 0usize;
    let mut used = 0u64;
    for config in schedule.configs() {
        engine.invalidate();
        let choice = engine
            .select(
                &fabric,
                window - used - delta,
                CandidateExtension::None,
                &policy,
            )
            .expect("same window, same winner");
        assert_eq!(choice.alpha, config.alpha);
        standalone += choice.matchings_computed;
        engine
            .commit(&fabric, &choice.matching, choice.alpha)
            .expect("realizable plan");
        used += choice.alpha + delta;
    }
    assert!(
        schedule.configs().len() > 1,
        "the window needs several iterations"
    );
    assert_eq!(
        first, standalone,
        "a select's solve count must depend on its snapshot alone"
    );
}
