//! Cache-parity contract of the exact-replay schedule cache.
//!
//! `octopus_core::memo` promises that caching is *transparent*: whether a
//! window misses (planned cold and recorded) or hits (replayed without a
//! solve), the emitted schedule, delivered counts and ψ are bit-identical to
//! a cold `ScheduleEngine::plan_window` of the same window. This suite pins
//! that across all 4 `SearchPolicy` variants (search strategy × tie
//! preference).
//!
//! The twin leg plans a load, then a twin whose per-link queues and
//! interned links are the same but whose packets go elsewhere after the
//! first hop: the twin's cached plan must be its own cold plan, not a replay
//! of the first load's.

use octopus_core::{
    plan_window_cached, AlphaSearch, BipartiteFabric, CacheOutcome, HopWeighting, MatchingKind,
    RemainingTraffic, ScheduleCache, ScheduleEngine, SearchPolicy,
};
use octopus_traffic::{Flow, FlowId, Route, TrafficLoad};
use proptest::prelude::*;

type PlanShape = Vec<(Vec<(u32, u32)>, u64)>;

/// Random multihop load and a twin.
/// Both loads end with two flows `s → m → c` and `s → m → d` of different
/// sizes, which the twin swaps: the queue on `(s, m)` (one weight class)
/// and the set of links are unchanged, the traffic bound for `c` and `d`
/// is not.
fn instance() -> impl Strategy<Value = (u32, TrafficLoad, TrafficLoad, u64, u64)> {
    (4u32..9)
        .prop_flat_map(|n| {
            let flows =
                prop::collection::vec((0u32..n, 0u32..n, 1u64..60, 0u32..3u32, 0u32..n), 0..10);
            let pair = (0u32..n, 1u64..60, 1u64..30);
            (Just(n), flows, pair, 150u64..1200, 0u64..30)
        })
        .prop_map(|(n, raw, (shift, x, dx), window, delta)| {
            let mut flows = Vec::new();
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
                    flows.push((route, size));
                }
            }
            let node = |k: u32| (k + shift) % n;
            let to_c = Route::from_ids([node(0), node(1), node(2)]).expect("distinct nodes");
            let to_d = Route::from_ids([node(0), node(1), node(3)]).expect("distinct nodes");
            let mut twin = flows.clone();
            flows.extend([(to_c.clone(), x), (to_d.clone(), x + dx)]);
            twin.extend([(to_c, x + dx), (to_d, x)]);
            let load = |flows: Vec<(Route, u64)>| {
                let flows = flows
                    .into_iter()
                    .enumerate()
                    .map(|(id, (route, size))| Flow::single(FlowId(id as u64), size, route))
                    .collect();
                TrafficLoad::new(flows).expect("sequential ids")
            };
            (n, load(flows), load(twin), window, delta)
        })
        .prop_filter("need room for a config", |(_, _, _, w, d)| *w > *d + 1)
}

/// Plans one full window through `cache`, returning the emitted configs,
/// final ψ bits, delivered count and the lookup outcome.
fn run_cached(
    n: u32,
    load: &TrafficLoad,
    window: u64,
    delta: u64,
    policy: &SearchPolicy,
    cache: &mut ScheduleCache,
) -> (PlanShape, u64, u64, CacheOutcome) {
    let mut tr = RemainingTraffic::new(load, HopWeighting::Uniform).expect("validated load");
    let mut fabric = BipartiteFabric {
        kind: MatchingKind::Exact,
    };
    let (configs, outcome) = {
        let mut engine = ScheduleEngine::new(&mut tr, n, delta);
        let plan = plan_window_cached(&mut engine, &mut fabric, policy, window, cache, 0)
            .expect("realizable plan");
        (plan.configs, plan.outcome)
    };
    (
        configs,
        tr.planned_psi().to_bits(),
        tr.planned_delivered(),
        outcome,
    )
}

/// Plans one full window cold with `ScheduleEngine::plan_window`; same
/// returns as [`run_cached`] minus the outcome.
fn run_cold(
    n: u32,
    load: &TrafficLoad,
    window: u64,
    delta: u64,
    policy: &SearchPolicy,
) -> (PlanShape, u64, u64) {
    let mut tr = RemainingTraffic::new(load, HopWeighting::Uniform).expect("validated load");
    let run = ScheduleEngine::new(&mut tr, n, delta)
        .plan_window(
            &mut BipartiteFabric {
                kind: MatchingKind::Exact,
            },
            policy,
            window,
        )
        .expect("realizable plan");
    let configs = run
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
    (configs, tr.planned_psi().to_bits(), tr.planned_delivered())
}

/// The 4 policy variants: search strategy × tie preference.
fn policies() -> Vec<SearchPolicy> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Miss and exact-hit paths both emit the cold window bit for bit
    /// (configs, delivered, ψ bits), and the outcomes classify as expected.
    #[test]
    fn replay_is_bit_identical_to_cold((n, load, _twin, window, delta) in instance()) {
        for policy in policies() {
            let cold = run_cold(n, &load, window, delta, &policy);
            let mut cache = ScheduleCache::new();
            let recorded = run_cached(n, &load, window, delta, &policy, &mut cache);
            let replayed = run_cached(n, &load, window, delta, &policy, &mut cache);
            prop_assert_eq!(recorded.3, CacheOutcome::Miss);
            prop_assert_eq!(replayed.3, CacheOutcome::ExactHit,
                "second identical window must replay");

            let ctx = format!("policy {policy:?}");
            prop_assert_eq!(&recorded.0, &cold.0, "record diverged from cold: {}", &ctx);
            prop_assert_eq!(&replayed.0, &cold.0, "replay diverged from cold: {}", &ctx);
            prop_assert_eq!(recorded.1, cold.1, "psi bits diverged (record): {}", &ctx);
            prop_assert_eq!(replayed.1, cold.1, "psi bits diverged (replay): {}", &ctx);
            prop_assert_eq!(recorded.2, cold.2, "delivered diverged (record): {}", &ctx);
            prop_assert_eq!(replayed.2, cold.2, "delivered diverged (replay): {}", &ctx);
            prop_assert_eq!(cache.stats().exact_hits, 1);
            prop_assert_eq!(cache.stats().misses, 1);
        }
    }

    /// A twin with the same first-hop queues and interned links but other
    /// downstream routes is planned as itself, not replayed from the load.
    #[test]
    fn downstream_twin_plans_cold((n, load, twin, window, delta) in instance()) {
        for policy in policies() {
            let cold_twin = run_cold(n, &twin, window, delta, &policy);
            let mut cache = ScheduleCache::new();
            run_cached(n, &load, window, delta, &policy, &mut cache);
            let cached = run_cached(n, &twin, window, delta, &policy, &mut cache);
            let ctx = format!("policy {policy:?}, outcome {:?}", cached.3);
            prop_assert_eq!(&cached.0, &cold_twin.0, "twin plan diverged: {}", &ctx);
            prop_assert_eq!(cached.1, cold_twin.1, "psi bits diverged: {}", &ctx);
            prop_assert_eq!(cached.2, cold_twin.2, "delivered diverged: {}", &ctx);
            prop_assert_eq!(cached.3, CacheOutcome::Miss, "{}", &ctx);
        }
    }
}
