//! Cache-parity contract of the window-fingerprint schedule cache.
//!
//! `octopus_core::memo` promises that caching is *transparent*: whatever the
//! lookup outcome — disabled, miss, exact-hit replay, or near-hit
//! warm-start — the emitted schedule, delivered counts and ψ are
//! bit-identical to a cold solve of the same window. This suite pins that
//! across all 8 `SearchPolicy` variants (search strategy × tie preference ×
//! exact kernel), including the auction kernel whose harvested prices feed
//! the warm-start weak-duality bound.
//!
//! The near-hit leg perturbs one flow's size so the content hash misses,
//! then plans under a cache primed with the *unperturbed* window and a
//! wide-open near distance: the warm-started plan must equal the perturbed
//! instance's own cold plan, proving the seeds prune without steering.
//!
//! Every cached configuration is passed through [`CacheConfig::resolved`],
//! so CI can force the whole suite through `OCTOPUS_CACHE=on` and
//! `OCTOPUS_CACHE=off`: the outcome assertions adapt to the resolved mode,
//! while the bit-identity assertions hold unconditionally — the emitted
//! schedule may never depend on whether (or how) the cache is enabled.

use octopus_core::{
    plan_window_cached, AlphaSearch, BipartiteFabric, CacheConfig, CacheOutcome, ExactKernel,
    HopWeighting, MatchingKind, RemainingTraffic, ScheduleCache, ScheduleEngine, SearchPolicy,
};
use octopus_traffic::{Flow, FlowId, Route, TrafficLoad};
use proptest::prelude::*;

type PlanShape = Vec<(Vec<(u32, u32)>, u64)>;

/// Random multihop load (same shape as the grid-steal suite) plus a
/// perturbed twin: the first flow carries one extra packet, enough to move
/// the content hash but keep the feature vector nearby.
fn instance() -> impl Strategy<Value = (u32, TrafficLoad, TrafficLoad, u64, u64)> {
    (4u32..9)
        .prop_flat_map(|n| {
            let flows =
                prop::collection::vec((0u32..n, 0u32..n, 1u64..60, 0u32..3u32, 0u32..n), 1..10);
            (Just(n), flows, 150u64..1200, 0u64..30)
        })
        .prop_map(|(n, raw, window, delta)| {
            let mut flows = Vec::new();
            let mut twin = Vec::new();
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
                    let bump = u64::from(id == 0);
                    flows.push(Flow::single(FlowId(id), size, route.clone()));
                    twin.push(Flow::single(FlowId(id), size + bump, route));
                    id += 1;
                }
            }
            (
                n,
                TrafficLoad::new(flows).expect("sequential ids"),
                TrafficLoad::new(twin).expect("sequential ids"),
                window,
                delta,
            )
        })
        .prop_filter(
            "need at least one flow and room for a config",
            |(_, load, _, w, d)| !load.is_empty() && *w > *d + 1,
        )
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

fn policies() -> Vec<SearchPolicy> {
    let mut out = Vec::new();
    for search in [AlphaSearch::Exhaustive, AlphaSearch::Binary] {
        for prefer_larger_alpha in [false, true] {
            for kernel in [ExactKernel::Hungarian, ExactKernel::Auction] {
                out.push(SearchPolicy {
                    search,
                    parallel: false,
                    prefer_larger_alpha,
                    kernel,
                });
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Disabled / miss / exact-hit paths all emit the bit-identical window
    /// (configs, delivered, ψ bits), and the outcomes classify as expected.
    #[test]
    fn replay_is_bit_identical_to_cold((n, load, _twin, window, delta) in instance()) {
        for policy in policies() {
            let mut off = ScheduleCache::new(CacheConfig::disabled());
            let cold = run_cached(n, &load, window, delta, &policy, &mut off);
            prop_assert_eq!(cold.3, CacheOutcome::Disabled);

            let cfg = CacheConfig::default().resolved();
            let mut cache = ScheduleCache::new(cfg);
            let recorded = run_cached(n, &load, window, delta, &policy, &mut cache);
            let replayed = run_cached(n, &load, window, delta, &policy, &mut cache);
            if cfg.enabled {
                prop_assert_eq!(recorded.3, CacheOutcome::Miss);
                prop_assert_eq!(replayed.3, CacheOutcome::ExactHit,
                    "second identical window must replay");
            } else {
                prop_assert_eq!(recorded.3, CacheOutcome::Disabled);
                prop_assert_eq!(replayed.3, CacheOutcome::Disabled);
            }

            let ctx = format!("policy {policy:?}");
            prop_assert_eq!(&recorded.0, &cold.0, "record diverged from cold: {}", &ctx);
            prop_assert_eq!(&replayed.0, &cold.0, "replay diverged from cold: {}", &ctx);
            prop_assert_eq!(recorded.1, cold.1, "psi bits diverged (record): {}", &ctx);
            prop_assert_eq!(replayed.1, cold.1, "psi bits diverged (replay): {}", &ctx);
            prop_assert_eq!(recorded.2, cold.2, "delivered diverged (record): {}", &ctx);
            prop_assert_eq!(replayed.2, cold.2, "delivered diverged (replay): {}", &ctx);
            if cfg.enabled {
                prop_assert_eq!(cache.stats().exact_hits, 1);
                prop_assert_eq!(cache.stats().misses, 1);
            }
        }
    }

    /// Near-hit warm-starts (cached α + harvested duals/prices) cannot
    /// steer the search: a window planned warm from a *similar* cached
    /// entry equals its own cold plan bit for bit.
    #[test]
    fn warm_start_is_bit_identical_to_cold((n, load, twin, window, delta) in instance()) {
        let wide = CacheConfig {
            quantum: 1,
            near_distance: 1 << 40,
            ..CacheConfig::default()
        }
        .resolved();
        for policy in policies() {
            let mut off = ScheduleCache::new(CacheConfig::disabled());
            let cold_twin = run_cached(n, &twin, window, delta, &policy, &mut off);

            let mut cache = ScheduleCache::new(wide);
            let primed = run_cached(n, &load, window, delta, &policy, &mut cache);
            let warm = run_cached(n, &twin, window, delta, &policy, &mut cache);
            let ctx = format!("policy {policy:?}, outcome {:?}", warm.3);
            if !wide.enabled {
                prop_assert_eq!(primed.3, CacheOutcome::Disabled);
                prop_assert_eq!(warm.3, CacheOutcome::Disabled);
            } else if wide.warm {
                prop_assert_eq!(primed.3, CacheOutcome::Miss);
                prop_assert!(
                    matches!(warm.3, CacheOutcome::NearHit(_) | CacheOutcome::ExactHit),
                    "perturbed window must at least near-hit the primed cache: {}", &ctx
                );
            } else {
                // `OCTOPUS_CACHE=exact`: near hits are ignored, not taken.
                prop_assert_eq!(primed.3, CacheOutcome::Miss);
                prop_assert_eq!(warm.3, CacheOutcome::Miss);
            }
            prop_assert_eq!(&warm.0, &cold_twin.0, "warm plan diverged: {}", &ctx);
            prop_assert_eq!(warm.1, cold_twin.1, "psi bits diverged: {}", &ctx);
            prop_assert_eq!(warm.2, cold_twin.2, "delivered diverged: {}", &ctx);
        }
    }

    /// The parallel work-stealing search under warm seeds still matches the
    /// sequential cold reference (seeds + atomic pruning floor compose).
    #[test]
    fn warm_parallel_matches_sequential_cold((n, load, twin, window, delta) in instance()) {
        let wide = CacheConfig {
            quantum: 1,
            near_distance: 1 << 40,
            ..CacheConfig::default()
        }
        .resolved();
        for kernel in [ExactKernel::Hungarian, ExactKernel::Auction] {
            let seq = SearchPolicy {
                search: AlphaSearch::Exhaustive,
                parallel: false,
                prefer_larger_alpha: false,
                kernel,
            };
            let par = SearchPolicy { parallel: true, ..seq };
            let mut off = ScheduleCache::new(CacheConfig::disabled());
            let cold_twin = run_cached(n, &twin, window, delta, &seq, &mut off);

            let mut cache = ScheduleCache::new(wide);
            run_cached(n, &load, window, delta, &par, &mut cache);
            let warm = run_cached(n, &twin, window, delta, &par, &mut cache);
            let ctx = format!("kernel {kernel:?}");
            prop_assert_eq!(&warm.0, &cold_twin.0, "plan diverged: {}", &ctx);
            prop_assert_eq!(warm.1, cold_twin.1, "psi bits diverged: {}", &ctx);
            prop_assert_eq!(warm.2, cold_twin.2, "delivered diverged: {}", &ctx);
        }
    }
}
