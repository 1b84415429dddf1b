//! Dual-certified pruning parity: **bounded search ≡ unbounded search**.
//!
//! The α-search prunes with three certified upper bounds: the sweep's
//! row/column-max bound, and the weak-duality bound under duals solved
//! earlier — by the same search for a nearby α, or by the previous greedy
//! iteration's search, which [`ScheduleEngine`] keeps across commits. This
//! suite replays random multihop windows against a reference loop that
//! picks every winner by unbounded exhaustive search
//! ([`ScheduleEngine::select_with`], which bounds nothing) over one-shot
//! solves of each α's column. Schedule, ψ bits and delivered must match on
//! the bipartite and localized fabrics.
//!
//! An ignored twin replays the same check at n = 12–24, where the
//! best-first order has many surviving candidates to choose among; CI runs
//! it in release.
//!
//! A fixed-instance test pins what the carried duals buy: the solve count
//! repeats exactly, and stays strictly below the sum of the
//! same iterations' selects run without the previous iteration's duals.

use octopus_core::engine::{CandidateExtension, Fabric};
use octopus_core::{
    BestChoice, BipartiteFabric, HopWeighting, LinkQueues, LocalFabric, MatchingKind,
    RemainingTraffic, ScheduleEngine, SearchPolicy,
};
use octopus_matching::AssignmentSolver;
use octopus_net::topology;
use octopus_traffic::{synthetic, synthetic::SyntheticConfig, Flow, FlowId, Route, TrafficLoad};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

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
}

/// Solves `alpha`'s column from scratch — the same topology and weights the
/// batched sweep builds, on a fresh solver — with no bound.
fn solve_alpha(
    queues: &LinkQueues,
    prev: &HashSet<(u32, u32)>,
    alpha: u64,
    delta: u64,
) -> BestChoice {
    let sweep =
        queues.weighted_edges_multi_with(
            &[alpha],
            |link| {
                if prev.contains(&link) {
                    delta
                } else {
                    0
                }
            },
        );
    let (n, mut col) = (queues.n(), Vec::new());
    sweep.fill_column(0, &mut col);
    let mut s = AssignmentSolver::new();
    s.load_topology(n, n, sweep.edges());
    s.solve_reweighted(&col);
    let benefit = s.last_weight();
    BestChoice {
        matching: s.matching().to_vec(),
        alpha,
        benefit,
        score: benefit / (alpha + delta) as f64,
        matchings_computed: 1,
    }
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
    let run = match kind {
        Kind::Bipartite => {
            let mut fabric = BipartiteFabric {
                kind: MatchingKind::Exact,
            };
            engine.plan_window(&mut fabric, policy, window)
        }
        Kind::Local => {
            let mut fabric = LocalFabric {
                kind: MatchingKind::Exact,
                delta,
                prev: HashSet::new(),
            };
            engine.plan_window(&mut fabric, policy, window)
        }
    }
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
/// exhaustive search over [`solve_alpha`].
fn reference(n: u32, load: &TrafficLoad, window: u64, delta: u64, kind: Kind) -> (Plan, u64, u64) {
    let tr = RemainingTraffic::new(load, HopWeighting::Uniform).expect("valid load");
    let mut engine = ScheduleEngine::new(tr, n, delta);
    let policy = policy(kind);
    let mut fabric = LocalFabric {
        kind: MatchingKind::Exact,
        delta,
        prev: HashSet::new(),
    };
    let mut plan = Vec::new();
    let mut used = 0u64;
    while !engine.is_drained() && used + delta < window {
        let budget = window - used - delta;
        let queues = engine.queues().clone();
        let (ext, prev) = match kind {
            Kind::Bipartite => (CandidateExtension::None, HashSet::new()),
            Kind::Local => (
                Fabric::<RemainingTraffic>::extension(&fabric),
                fabric.prev.clone(),
            ),
        };
        let eval = |alpha| solve_alpha(&queues, &prev, alpha, delta);
        let Some(choice) = engine.select_with(budget, ext, &policy, &eval) else {
            break;
        };
        let matching = match kind {
            Kind::Bipartite => engine.commit(
                &BipartiteFabric {
                    kind: MatchingKind::Exact,
                },
                &choice.matching,
                choice.alpha,
            ),
            Kind::Local => engine.commit(&fabric, &choice.matching, choice.alpha),
        }
        .expect("realizable plan");
        Fabric::<RemainingTraffic>::committed(&mut fabric, &choice.matching);
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
        for kind in [Kind::Bipartite, Kind::Local] {
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
        for kind in [Kind::Bipartite, Kind::Local] {
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
fn carried_duals_cut_solves_deterministically() {
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

    // The same iterations, each select started without the previous
    // iteration's duals (`invalidate` drops them with the snapshot).
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
    assert!(
        first < standalone,
        "carried duals must save solves: {first} with vs {standalone} without"
    );
}
